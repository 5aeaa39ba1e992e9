"""Tests of the benchmark's own logic (not of hierlog).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import layers  # noqa: E402
import measure  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from summary import OpCounts, percentile  # noqa: E402
from tracer import Tracer  # noqa: E402


# -- percentiles ------------------------------------------------------------------------------

def test_percentile_reports_value_and_sample_count():
    values = [float(v) for v in range(1, 1001)]
    p99 = percentile(values, 99)
    assert (p99.value, p99.samples, p99.beyond) == (990.0, 1000, 10)
    p50 = percentile(list(reversed(values)), 50)
    assert (p50.value, p50.samples, p50.beyond) == (500.0, 1000, 500)


def test_percentile_counts_only_strictly_larger_samples_beyond():
    p = percentile([1.0] * 5 + [2.0] * 5, 90)
    assert (p.value, p.samples, p.beyond) == (2.0, 10, 0)


def test_percentile_small_and_invalid_samples():
    assert percentile([7.0], 99).value == 7.0
    assert percentile([3.0, 1.0], 1).value == 1.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_sequence_latencies_scale_each_pass_and_drop_its_extremes():
    passes = [
        measure.OnlinePass([1.0, 2.0], 0, scale=1.0),
        measure.OnlinePass([1.5, 1.0], 0, scale=2.0),  # a slow pass: scaled to 3.0, 2.0
        measure.OnlinePass([100.0, 2.0], 0, scale=1.0),  # a pause hit the first sequence
        measure.OnlinePass([2.0, 4.0], 0, scale=1.0),
    ]
    assert measure.sequence_latencies(passes) == [2.5, 2.0]
    with pytest.raises(ValueError):
        measure.sequence_latencies(passes[:2])


def test_calibration_factor_uses_every_loop_around_and_in_the_step(monkeypatch):
    blocks = iter([(0.2, 50), (0.03, 5), (0.1, 50)])  # before, one sample within, after
    monkeypatch.setattr(speed, "calibrate", lambda seconds: next(blocks))
    cal = speed.Calibration()
    cal.sample()
    assert cal.after_step() == pytest.approx(speed.REFERENCE_S * 105 / 0.33)


# -- spans and self time ----------------------------------------------------------------------

def test_self_time_subtracts_union_of_overlapping_children():
    t = Tracer()
    parent = t.add_span("p", 0.0, 10.0)
    t.add_span("c", 1.0, 4.0, parent)
    t.add_span("c", 3.0, 6.0, parent)  # overlaps the first child
    t.add_span("c", 8.0, 12.0, parent)  # runs past the parent's end
    self_times = t.self_times()
    # covered: [1, 6] and [8, 10] -> 7 of 10
    assert self_times[parent] == pytest.approx(3.0)
    assert self_times[1:] == pytest.approx([3.0, 3.0, 4.0])


def test_self_time_counts_only_direct_children():
    t = Tracer()
    root = t.add_span("root", 0.0, 10.0)
    child = t.add_span("child", 2.0, 8.0, root)
    t.add_span("grandchild", 3.0, 5.0, child)
    st = t.self_times()
    assert st[root] == pytest.approx(4.0)
    assert st[child] == pytest.approx(4.0)
    total, self_total = t.totals()
    assert total["child"] == pytest.approx(6.0)
    assert self_total["grandchild"] == pytest.approx(2.0)


def test_wrappers_record_nested_spans_and_counts():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: float(next(ticks)))
    mod = SimpleNamespace(inner=lambda x: x * 2)
    mod.outer = lambda x: mod.inner(x) + 1
    t.patch(mod, "inner", "inner", on_return=lambda tr, a, k, r: tr.count("inner.items", a[0]))
    t.patch(mod, "outer", "outer")
    assert mod.outer(3) == 7
    assert [t.names[i] for i in t.name_id] == ["outer", "inner"]
    assert list(t.parent) == [-1, 0]
    assert t.counts["inner.calls"] == 1 and t.counts["inner.items"] == 3
    t.uninstall()
    assert not hasattr(mod.outer, "__wrapped__") and not hasattr(mod.inner, "__wrapped__")


def test_wrapper_counts_matching_errors_and_restores_classmethods():
    class Box:
        @classmethod
        def make(cls, fail):
            if fail:
                raise KeyError("boom")
            return cls()

    raw = Box.__dict__["make"]
    t = Tracer()
    t.patch(Box, "make", "box.make", on_error=(KeyError, "box.errors"))
    assert isinstance(Box.make(False), Box)
    with pytest.raises(KeyError):
        Box.make(True)
    assert t.counts["box.errors"] == 1 and t.counts["box.make.calls"] == 2
    assert len(t) == 2 and all(t.end[i] >= t.start[i] for i in range(2))
    t.uninstall()
    assert Box.__dict__["make"] is raw


def test_layer_wrappers_install_and_uninstall_cleanly():
    from hierlog import detect, pipeline
    from hierlog.knowledge import KnowledgeBase

    before = (pipeline.run_pipeline, detect.top_down_decompose, KnowledgeBase.__dict__["contains"])
    t = Tracer()
    layers.install(t)
    assert pipeline.run_pipeline is not before[0]
    t.uninstall()
    assert (pipeline.run_pipeline, detect.top_down_decompose, KnowledgeBase.__dict__["contains"]) == before


# -- failure counting -------------------------------------------------------------------------

def _report(error=None, provider_errors=0):
    return {"error": error, "counters": {"provider_errors": provider_errors}}


def test_failure_counting_over_reports_and_ingest():
    ops = OpCounts()
    ops.add_reports([_report(), _report(error="unknown key"), _report(provider_errors=2)])
    assert (ops.attempted, ops.failed) == (3, 3)
    assert (ops.report_errors, ops.provider_errors) == (1, 2)
    ops.add_ingest(raw_messages=100, events_in_sequences=97)
    assert (ops.attempted, ops.failed, ops.unmatched_or_dropped) == (103, 6, 3)
    with pytest.raises(ValueError):
        ops.add_ingest(raw_messages=5, events_in_sequences=6)


def test_failure_counting_accepts_report_objects():
    from hierlog.detect import SequenceReport

    ok = SequenceReport(sequence_id="a", final_verdict=False)
    bad = SequenceReport(sequence_id="b", final_verdict=True, error="position 0: unknown key")
    bad.counters.provider_errors = 1
    ops = OpCounts()
    ops.add_reports([ok, bad])
    assert (ops.attempted, ops.failed) == (2, 2)


# -- correctness gate -------------------------------------------------------------------------

def _truth():
    return {
        "n": workloads.Truth("n", ["k1"], False, None),
        "a": workloads.Truth("a", ["k2"], True, "action"),
    }


def _rec(sid, flagged, level=None):
    return {"sequence_id": sid, "final_verdict": flagged, "first_abnormal_level": level}


def test_gate_catches_missed_anomaly_wrong_level_and_flagged_normal():
    settings = {"check_first_level": True, "normals_must_pass": True}
    gate = measure.Gate()
    measure.check_verdicts(gate, "t", [_rec("n", False), _rec("a", True, "action")], _truth(), settings)
    assert gate.passed
    for records in (
        [_rec("n", False), _rec("a", False)],
        [_rec("n", False), _rec("a", True, "status")],
        [_rec("n", True, "entity"), _rec("a", True, "action")],
        [_rec("a", True, "action")],
    ):
        gate = measure.Gate()
        measure.check_verdicts(gate, "t", records, _truth(), settings)
        assert not gate.passed, records


def test_gate_recounts_eval():
    counts = measure.recount_eval([_rec("n", True), _rec("a", True)], _truth())
    assert (counts["tp"], counts["fp"], counts["tn"], counts["fn"]) == (1, 1, 0, 0)
    assert counts["f1"] == pytest.approx(2 / 3)


# -- inputs -----------------------------------------------------------------------------------

SMALL = {
    "login-repeat": {"train": 30, "batch": 40, "online": 40},
    "wide-unique": {"train_walk_windows": 5, "batch": 12, "online": 12},
    "llm-hybrid": {"train": 20, "batch": 20, "online": 20},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", SMALL)
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        workloads.write_inputs(workloads.generate(workload, seed), tmp_path / name)
    a, b, c = (workloads.digest(tmp_path / n) for n in "abc")
    assert a == b
    assert a != c


def test_generator_bytes_do_not_depend_on_hash_seed(tmp_path):
    code = (
        "import sys, pathlib, workloads\n"
        f"workloads.SIZES = {SMALL!r}\n"
        "d = pathlib.Path(sys.argv[1])\n"
        "for w in workloads.WORKLOADS:\n"
        "    workloads.write_inputs(workloads.generate(w, 9), d / w)\n"
        "    print(workloads.digest(d / w))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]))
    digests = [
        subprocess.run([sys.executable, "-c", code, str(tmp_path / h)], env=dict(env, PYTHONHASHSEED=h),
                       capture_output=True, text=True, check=True, timeout=60).stdout
        for h in ("1", "2")
    ]
    assert digests[0] == digests[1] and len(digests[0].split()) == len(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_truth_is_consistent(workload, monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", SMALL)
    inputs = workloads.generate(workload, 5)
    for t in inputs.expected + inputs.online:
        assert t.keys and all(k in inputs.templates for k in t.keys)
        assert t.label == (t.level is not None)
    assert any(t.label for t in inputs.expected + inputs.online)
    assert sum(len(t.keys) for t in inputs.expected) == len(inputs.raw)


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == measure.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
