"""Metrics algebra, structure/reuse reports, attribution, persistence."""

import pytest

from hierlog.detect import Counters, DetectConfig, Detector, SeqVerdict, SequenceReport, train
from hierlog.evalreport import (
    attribution_report,
    compute_metrics,
    load_report_records,
    save_reports,
    structure_report,
)
from hierlog.hierarchy import ACTION, ENTITY, STATUS
from hierlog.ingest import LogSequence

from conftest import TOY_KEYS


# -- metrics --------------------------------------------------------------------

def test_metrics_basic_counts():
    m = compute_metrics([True, True, False, False], [True, False, True, False])
    assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 1, 1)
    assert m.precision == 0.5 and m.recall == 0.5 and m.f1 == 0.5


def test_metrics_degenerate_conventions():
    # no positive predictions: precision 0 by convention
    m = compute_metrics([False, False], [True, False])
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
    # no positive labels: recall 0 by convention
    m = compute_metrics([True], [False])
    assert m.recall == 0.0 and m.precision == 0.0
    # empty inputs
    m = compute_metrics([], [])
    assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)


def test_metrics_perfect_and_length_check():
    m = compute_metrics([True, False], [True, False])
    assert m.f1 == 1.0
    with pytest.raises(ValueError):
        compute_metrics([True], [True, False])


# -- structure report --------------------------------------------------------------

def test_structure_report_tallies(toy_tree):
    sequences = [
        LogSequence(id=f"s{i}", keys=list(TOY_KEYS), label=False)
        for i in range(4)
    ]
    kbs = train(sequences, toy_tree, DetectConfig())
    detector = Detector(toy_tree, kbs, DetectConfig(early_exit=False))
    reports = detector.run(sequences)
    rep = structure_report(toy_tree, kbs, reports)

    assert rep.node_counts == {ENTITY: 3, ACTION: 5, STATUS: 6}
    assert rep.unique_seqs == {ENTITY: 1, ACTION: 3, STATUS: 5}
    assert rep.total_occurrences == {ENTITY: 4, ACTION: 12, STATUS: 20}
    assert rep.reuse_ratio[ENTITY] == 4.0
    # every level sees all 6 keys of each of the 4 sequences
    assert rep.keys_by_level_set == {"S": 24, "SA": 48, "SAE": 72}
    assert rep.raw_test_keys == 24
    assert rep.llm_calls == 0


# -- attribution ---------------------------------------------------------------------

def _report(levels_abnormal):
    verdicts = [
        SeqVerdict(signature=f"sig-{level}", level=level, verdict="abnormal", source="pattern_match")
        for level in levels_abnormal
    ]
    return SequenceReport(
        sequence_id="s", final_verdict=bool(levels_abnormal), verdicts=verdicts, counters=Counters()
    )


def test_attribution_buckets():
    reports = [
        _report([STATUS]),
        _report([STATUS, ENTITY]),
        _report([ACTION]),
        _report([]),  # missed anomaly
        _report([STATUS]),  # not an anomaly; ignored
    ]
    labels = [True, True, True, True, False]
    assert attribution_report(reports, labels) == {
        "S": 1,
        "S+E": 1,
        "A": 1,
        "missed": 1,
    }
    with pytest.raises(ValueError):
        attribution_report(reports, [True])


# -- persistence ------------------------------------------------------------------------

def test_save_load_reports(tmp_path):
    reports = [_report([STATUS]), _report([])]
    path = tmp_path / "report.jsonl"
    save_reports(reports, path, meta={"levels": "SAE"})
    meta, records = load_report_records(path)
    assert meta == {"levels": "SAE"}
    assert len(records) == 2
    assert records[0]["final_verdict"] is True
    assert records[0]["verdicts"][0]["level"] == STATUS
    assert records[1]["final_verdict"] is False
