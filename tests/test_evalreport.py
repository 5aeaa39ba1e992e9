"""Metrics algebra, structure/reuse reports, attribution, persistence."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierlog.detect import LEVEL_ORDER, Counters, DetectConfig, Detector, SeqVerdict, SequenceReport, train
from hierlog.evalreport import (
    attribution_report,
    compute_metrics,
    load_report_records,
    save_reports,
    structure_report,
)
from hierlog.hierarchy import ACTION, ENTITY, STATUS
from hierlog.ingest import LogSequence

from conftest import TOY_KEYS, report_to_json


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
    rep = structure_report(toy_tree, kbs, reports, detector.llm_calls)

    assert rep.node_counts == {ENTITY: 3, ACTION: 5, STATUS: 6}
    assert rep.unique_seqs == {ENTITY: 1, ACTION: 3, STATUS: 5}
    assert rep.total_occurrences == {ENTITY: 4, ACTION: 12, STATUS: 20}
    assert rep.reuse_ratio[ENTITY] == 4.0
    # every level sees all 6 keys of each of the 4 sequences
    assert rep.keys_by_level_set == {"S": 24, "SA": 48, "SAE": 72}
    assert rep.raw_test_keys == 24
    assert rep.llm_calls == 0


# -- attribution ---------------------------------------------------------------------

def _report(levels_abnormal, sequence_id="s"):
    verdicts = [
        SeqVerdict(level=level, pattern=("E", "A", f"sig-{level}"), verdict="abnormal", source="pattern_match")
        for level in levels_abnormal
    ]
    return SequenceReport(
        sequence_id=sequence_id, final_verdict=bool(levels_abnormal), verdicts=verdicts, counters=Counters()
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
    reports = [_report([STATUS], "s1"), _report([], "s2")]  # ids are unique in a report
    path = tmp_path / "report.jsonl"
    save_reports(reports, path, meta={"levels": "SAE"})
    meta, records = load_report_records(path)
    assert meta == {"levels": "SAE"}
    assert len(records) == 2
    assert records[0]["final_verdict"] is True
    assert records[0]["verdicts"][0]["level"] == STATUS
    assert records[1]["final_verdict"] is False


def test_save_reports_takes_reports_from_a_generator(tmp_path):
    # each report and its verdict die once written, so a later verdict may get a freed id
    def reports():
        for i in range(200):
            verdict = SeqVerdict(STATUS, ("E", "A", f"sig{i}"), "normal", "pattern_match")
            yield SequenceReport(f"s{i}", False, [verdict], raw_length=1)

    save_reports(reports(), tmp_path / "streamed.jsonl")
    save_reports(list(reports()), tmp_path / "listed.jsonl")
    lines = (tmp_path / "streamed.jsonl").read_text().splitlines()
    assert lines == (tmp_path / "listed.jsonl").read_text().splitlines()
    assert [json.loads(line)["verdicts"][0]["signature"] for line in lines[1:]] == [
        f"root>E>A|sig{i}" for i in range(200)
    ]


# quotes, backslashes, control characters, non-ASCII, lone surrogates and an astral character
_AWKWARD = '"\\/\x00\x08\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'
_texts = st.text(st.characters() | st.sampled_from(_AWKWARD), max_size=8)
_counts = st.fixed_dictionaries({level: st.integers(0, 2**63) for level in LEVEL_ORDER})
_verdicts = st.builds(
    SeqVerdict,
    level=st.sampled_from(LEVEL_ORDER),
    # distinct verdicts may share a pattern; three names or more make a pattern of any level
    pattern=st.sampled_from([("e", "a", "s1"), ("e", "a", "s2")]) | st.lists(_texts, min_size=3, max_size=5).map(tuple),
    verdict=st.sampled_from(["normal", "abnormal"]),
    source=st.sampled_from(["pattern_match", "automaton", "llm"]),
    explanation=st.none() | _texts,
    confidence_flag=st.sampled_from(["normal", "low"]),
)


@st.composite
def _report_lists(draw):
    """Reports whose verdict lists draw from one pool of objects, as a Detector's do; an error report has none."""
    pool = draw(st.lists(_verdicts, min_size=1, max_size=4))
    reports = []
    for _ in range(draw(st.integers(0, 5))):
        error = draw(st.none() | _texts)
        reports.append(SequenceReport(
            sequence_id=draw(_texts),
            final_verdict=draw(st.booleans()),
            verdicts=[] if error is not None else draw(st.lists(st.sampled_from(pool), max_size=5)),
            first_abnormal_level=draw(st.none() | st.sampled_from(LEVEL_ORDER)),
            counters=Counters(draw(st.integers(0, 2**63)), draw(_counts), draw(_counts)),
            raw_length=draw(st.integers(0, 2**63)),
            error=error,
        ))
    return reports


_SHARED = SeqVerdict(STATUS, ('sig "a', 'b"\u00e9', "\\|>"), "abnormal", "llm", explanation="\ud800\n",
                     confidence_flag="low")
_TWIN = SeqVerdict(STATUS, _SHARED.pattern, "abnormal", "pattern_match")  # equal pattern, another object


@settings(max_examples=200, deadline=None)
@given(reports=_report_lists())
@example(reports=[
    SequenceReport("s\x00\u2028", True, [_SHARED, _SHARED], STATUS, Counters(), 3),
    SequenceReport("\udfff", False, [_TWIN, _SHARED], None, Counters(), 1),
    SequenceReport("failed", False, [], None, Counters(provider_errors=2), 0, error='provider "timeout"\t\u00e9'),
    # counters encoded once per content: equal contents in other dicts, and contents that share a part
    SequenceReport("c1", False, [], None, Counters(0, {"status": 2}, {"status": 1}), 2),
    SequenceReport("c2", False, [], None, Counters(0, {"status": 2}, {"status": 1}), 2),
    SequenceReport("c3", False, [], None, Counters(0, {"status": 3}, {"status": 1}), 3),
    SequenceReport("c4", False, [], None, Counters(0, {"status": 1}, {"status": 2}), 1),
    SequenceReport("c5", False, [], None, Counters(1, {"status": 1}, {"status": 2}), 1),
])
def test_save_reports_writes_the_lines_json_dumps_writes(tmp_path_factory, reports):
    path = tmp_path_factory.getbasetemp() / "parity.jsonl"
    meta = {"levels": "SAE", "llm": True}
    save_reports(reports, path, meta=meta)
    oracle = [json.dumps({"meta": meta}, sort_keys=True)]
    oracle += [json.dumps(report_to_json(r), sort_keys=True) for r in reports]
    assert path.read_text() == "".join(line + "\n" for line in oracle)
