"""The measured process of one benchmark run.

Reads a directory of pre-generated inputs (see workloads.py) and measures
in rounds until `--seconds` are filled (at least `MIN_ROUNDS`). One round:

- a batch run (or `BATCHES_PER_ROUND` of them): `run_pipeline` on an INI
  config over the raw log records, into a fresh output directory;
- `SETUPS_PER_ROUND` set-ups of a detector from the first batch run's
  artifacts;
- an online pass with the last of them: score the online test set one
  sequence at a time through `Detector.detect_sequence`, a closed loop with
  one caller.

Each step (a batch run, a round's set-ups, an online pass) is timed
between two calibration blocks of speed.py and rescaled to reference
seconds, which takes out most of the host's drift in speed. The first round
is warm-up and only gated. Every later repetition of a kind does the same
work. Besides drifting, the speed of a core flips between spells a tenth of
a second long, up to 1.8x apart, so a step much shorter than that lands in
one spell and its times are bimodal: a single best or a median of them
jumps between the modes from run to run, while a mean moves smoothly with
the share of slow spells. So `pipeline_s` (one step spans many spells) is
the median of the measured batch runs, `setup_s` the median over the
measured rounds of their mean set-up time, and `online_seq_per_s` the
median over the measured passes of sequences scored per second; each
sequence's latency is the mean of its `detect_sequence` times over the
measured passes without its fastest and its slowest, and the percentiles
are taken over those per-sequence means.
Then the run applies the correctness gate and prints the end-to-end
metrics. With `--trace 1` it runs the batch phase untraced twice, then once
more and one set-up plus online pass with the layer wrappers installed, and
prints the per-layer metrics instead.

Run it through run.py, which generates the inputs first and starts this
script in a fresh process.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import speed
from summary import OpCounts, percentile
from tracer import Tracer
from workloads import Truth, load_truth

ROOT = Path(__file__).resolve().parent.parent

# (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = [
    ("pipeline_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("online_seq_per_s", "seq/s", "higher"),
    ("seq_latency_p50_us", "us", "lower"),
    ("seq_latency_p99_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("kb_bytes", "bytes", "lower"),
    ("f1", "ratio", "higher"),
]

MIN_ROUNDS = 4  # with the warm-up round, the three passes sequence_latencies needs
MAX_ROUNDS = 60
WARMUP_ROUNDS = 1
SETUPS_PER_ROUND = 4
SAMPLE_EVERY_S = 0.1  # measured time between two calibration samples
# Batch runs per round, where one batch run is much shorter than an online
# pass; the others take one.
BATCHES_PER_ROUND = {"llm-hybrid": 3}
KB_FILES = tuple(f"{role}_{level}.json" for role in ("train", "test") for level in ("entity", "action", "status"))


@dataclass
class Gate:
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(message)

    @property
    def passed(self) -> bool:
        return not self.problems


def _on(flag: bool) -> str:
    return "on" if flag else "off"


def write_config(inputs: Path, out: Path, settings: dict) -> Path:
    cfg = configparser.ConfigParser()
    if settings["llm"]:
        cfg["provider"] = {"kind": "mock"}
    cfg["ingest"] = {
        "templates": str(inputs / "templates.csv"),
        "logs": str(inputs / "raw.jsonl"),
        "partition": settings["partition"],
        "out": str(out / "test.jsonl"),
    }
    cfg["hierarchy"] = {
        "templates": str(inputs / "templates.csv"),
        "extractor": "fixture",
        "fixture": str(inputs / "fixture.json"),
        "tree_out": str(out / "tree.json"),
    }
    cfg["train"] = {
        "sequences": str(inputs / "train.jsonl"),
        "kb_dir": str(out / "kb"),
        "llm": _on(settings["llm"]),
    }
    cfg["detect"] = {
        "sequences": str(out / "test.jsonl"),
        "levels": settings["levels"],
        "detector": settings["detector"],
        "llm": _on(settings["llm"]),
        "early_exit": _on(settings["early_exit"]),
        "report": str(out / "report.jsonl"),
    }
    cfg["eval"] = {"out": str(out / "eval.json")}
    path = out / "run.ini"
    with path.open("w") as fh:
        cfg.write(fh)
    return path


def _read_jsonl(path: Path) -> list[dict]:
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


# -- correctness gate -------------------------------------------------------------------------

def check_verdicts(gate: Gate, phase: str, reports, truth: dict[str, Truth], settings: dict) -> None:
    """Verdicts against the generator's ground truth."""
    seen = 0
    for r in reports:
        sid = r["sequence_id"] if isinstance(r, dict) else r.sequence_id
        flagged = r["final_verdict"] if isinstance(r, dict) else r.final_verdict
        first = r["first_abnormal_level"] if isinstance(r, dict) else r.first_abnormal_level
        t = truth.get(sid)
        gate.check(t is not None, f"{phase}: report for unknown sequence {sid}")
        if t is None:
            continue
        seen += 1
        if t.label:
            gate.check(flagged, f"{phase}: anomaly {sid} ({t.level}) not flagged")
            if settings["check_first_level"]:
                gate.check(first == t.level, f"{phase}: anomaly {sid} injected at {t.level}, first flagged at {first}")
        elif settings["normals_must_pass"]:
            gate.check(not flagged, f"{phase}: normal sequence {sid} flagged at {first}")
    gate.check(seen == len(truth), f"{phase}: {seen} reports for {len(truth)} sequences")


def check_ingest(gate: Gate, out: Path, expected: list[Truth]) -> int:
    """The ingest stage's sequences equal the generator's; returns their event count."""
    rows = _read_jsonl(out / "test.jsonl")
    got = [(r["sequence_id"], r["keys"], r.get("label")) for r in rows]
    want = [(t.sequence_id, t.keys, t.label) for t in expected]
    gate.check(got == want, f"ingest output differs from the generated sequences ({len(got)} vs {len(want)})")
    return sum(len(r["keys"]) for r in rows)


def recount_eval(records: list[dict], truth: dict[str, Truth]) -> dict:
    tp = fp = tn = fn = 0
    for r in records:
        pred, label = r["final_verdict"], truth[r["sequence_id"]].label
        tp += pred and label
        fp += pred and not label
        fn += label and not pred
        tn += not pred and not label
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"tp": tp, "fp": fp, "tn": tn, "fn": fn, "precision": precision, "recall": recall, "f1": f1}


def check_eval(gate: Gate, out: Path, records: list[dict], truth: dict[str, Truth]) -> float:
    got = json.loads((out / "eval.json").read_text())["metrics"]
    want = recount_eval(records, truth)
    for name, value in want.items():
        same = got.get(name) == value if isinstance(value, int) else abs(got.get(name, -1.0) - value) <= 1e-12
        gate.check(same, f"eval.json {name}={got.get(name)} but the report recounts to {value}")
    return got["f1"]


def artifacts(out: Path) -> dict[str, bytes]:
    """What criterion 10 compares: the six KB files, the report body and eval.json."""
    files = {name: (out / "kb" / name).read_bytes() for name in KB_FILES}
    files["report body"] = (out / "report.jsonl").read_bytes().split(b"\n", 1)[1]
    files["eval.json"] = (out / "eval.json").read_bytes()
    return files


def check_identical(gate: Gate, first: Path, other: Path) -> None:
    a, b = artifacts(first), artifacts(other)
    for name in a:
        gate.check(a[name] == b[name], f"{name} differs between batch runs {first.name} and {other.name}")


# -- phases -----------------------------------------------------------------------------------

@dataclass
class Batch:
    out: Path
    seconds: float
    scale: float = 1.0  # to reference seconds


def batch_run(inputs: Path, out: Path, settings: dict, calibration: speed.Calibration | None = None):
    """One `run_pipeline` call into a fresh directory; returns (Batch, PipelineResult).

    With a `calibration`, it takes calibration samples during the call and
    scales the run by them; their time is not counted.
    """
    from hierlog import pipeline

    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    config = write_config(inputs, out, settings)
    gc.collect()
    if calibration is None:
        start = time.perf_counter()
        result = pipeline.run_pipeline(config)
        return Batch(out, time.perf_counter() - start), result
    with calibration.sampling(SAMPLE_EVERY_S) as spent:
        start = time.perf_counter()
        result = pipeline.run_pipeline(config)
        seconds = time.perf_counter() - start
    return Batch(out, seconds - spent[0], calibration.after_step()), result


def check_batch(gate: Gate, ops: OpCounts, batch: Batch, first: Batch, raw_messages: int,
                expected: list[Truth], truth: dict[str, Truth], settings: dict) -> list[dict]:
    """Gate one batch run's outputs and count its operations; returns its report records."""
    events = check_ingest(gate, batch.out, expected)
    ops.add_ingest(raw_messages, events)
    records = _read_jsonl(batch.out / "report.jsonl")[1:]
    ops.add_reports(records)
    check_verdicts(gate, f"batch {batch.out.name}", records, truth, settings)
    if batch is not first:
        check_identical(gate, first.out, batch.out)
    return records


def detect_config(settings: dict):
    from hierlog.detect import LEVEL_PRESETS, DetectConfig
    from hierlog.pipeline import parse_detector_spec

    return DetectConfig(
        levels_enabled=LEVEL_PRESETS[settings["levels"]],
        detector_per_level=parse_detector_spec(settings["detector"]),
        llm_enabled=settings["llm"],
        early_exit=settings["early_exit"],
    )


def setup(inputs: Path, batch: Path, settings: dict):
    """Bring a detector up from one batch run's artifacts; returns (detector, provider, seconds)."""
    from hierlog import pipeline as pl
    from hierlog.semantics import ProviderConfig, make_provider

    gc.collect()
    start = time.perf_counter()
    catalog = pl.load_template_catalog(inputs / "templates.csv")
    tree = pl.TopicTree.load(batch / "tree.json")
    kbs = pl.KnowledgeBaseSet.load_dir(batch / "kb")
    provider = make_provider(ProviderConfig(kind="mock")) if settings["llm"] else None
    templates = {t.key: t.text for t in catalog.templates()}
    detector = pl.Detector(tree, kbs, detect_config(settings), provider=provider, templates=templates)
    return detector, provider, time.perf_counter() - start


@dataclass
class OnlinePass:
    latencies: list[float]
    provider_calls: int
    scale: float = 1.0  # to reference seconds


def online_pass(gate: Gate, ops: OpCounts, detector, provider, sequences, truth: dict[str, Truth],
                settings: dict, calibration: speed.Calibration | None = None) -> OnlinePass:
    """Score every sequence once, one at a time, timing each call.

    With a `calibration`, it takes a calibration sample after every
    `SAMPLE_EVERY_S` of calls and one block right after the last call, and
    scales the pass by them.
    """
    calls_before = provider.calls if provider else 0
    detect = detector.detect_sequence
    clock = time.perf_counter
    n = len(sequences)
    latencies = [0.0] * n
    reports = [None] * n
    gc.collect()
    since_sample = 0.0
    for i, seq in enumerate(sequences):
        t0 = clock()
        reports[i] = detect(seq)
        latencies[i] = clock() - t0
        since_sample += latencies[i]
        if calibration and since_sample >= SAMPLE_EVERY_S:
            calibration.sample()
            since_sample = 0.0
    scale = calibration.after_step() if calibration else 1.0
    calls = (provider.calls - calls_before) if provider else 0
    ops.add_reports(reports)
    check_verdicts(gate, "online", reports, truth, settings)
    return OnlinePass(latencies, calls, scale)


def sequence_latencies(passes: list[OnlinePass]) -> list[float]:
    """Per sequence, the mean of its scaled latencies over at least three
    passes, without its fastest and its slowest one.

    The host now and then takes the core away for about 10 ms, which hits
    a few dozen sequences in one pass and, in a plain mean, sets p99 by
    itself; the mean of the rest still moves smoothly with the speed.
    """
    if len(passes) < 3:
        raise ValueError(f"need at least 3 passes, got {len(passes)}")
    scaled = ([t * p.scale for t in p.latencies] for p in passes)
    return [statistics.fmean(sorted(col)[1:-1]) for col in zip(*scaled)]


def another_round(done: int, elapsed_s: float, seconds: float) -> bool:
    """Whether one more round of the average length so far still fits in `seconds`."""
    if done < MIN_ROUNDS:
        return True
    return done < MAX_ROUNDS and elapsed_s * (done + 1) / done <= seconds


# -- run --------------------------------------------------------------------------------------

def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor() or "unknown",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "gc_enabled": gc.isenabled(),
        "gc_threshold": list(gc.get_threshold()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", type=Path, default=None)
    args = ap.parse_args(argv)

    import hierlog
    from hierlog.ingest import load_sequences, load_template_catalog

    src = (ROOT / "src").resolve()
    if src not in Path(hierlog.__file__).resolve().parents:
        print(f"hierlog imported from {hierlog.__file__}, not from {src}", file=sys.stderr)
        return 2

    meta = json.loads((args.inputs / "meta.json").read_text())
    settings = meta["settings"]
    expected = load_truth(args.inputs / "expected.jsonl")
    batch_truth = {t.sequence_id: t for t in expected}
    online_truth = {t.sequence_id: t for t in load_truth(args.inputs / "online.jsonl")}
    with (args.inputs / "raw.jsonl").open() as fh:
        raw_messages = sum(1 for line in fh if line.strip())
    online_seqs = load_sequences(args.inputs / "online.jsonl", load_template_catalog(args.inputs / "templates.csv"))
    samples = len(online_seqs)

    gate = Gate()
    ops = OpCounts()
    tracer = Tracer() if args.trace else None

    batches: list[Batch] = []
    setups: list[tuple[list[float], float]] = []  # per round, the seconds of its set-ups and their scale
    passes: list[OnlinePass] = []

    def gated_batch(calibration: speed.Calibration | None = None) -> Batch:
        nonlocal f1
        batch, _ = batch_run(args.inputs, args.work / f"batch{len(batches)}", settings, calibration)
        batches.append(batch)
        records = check_batch(gate, ops, batch, batches[0], raw_messages, expected, batch_truth, settings)
        if len(batches) == 1:
            f1 = check_eval(gate, batch.out, records, batch_truth)
        else:
            shutil.rmtree(batch.out)  # gated against the first; only the first is kept
        return batch

    f1 = 0.0
    measure_start = time.perf_counter()
    if tracer is None:
        # Rounds interleave the two phases, so each metric's repetitions
        # spread over the whole run.
        rep = 0
        calibration = speed.Calibration()
        while another_round(rep, time.perf_counter() - measure_start, args.seconds):
            for _ in range(BATCHES_PER_ROUND.get(meta["workload"], 1)):
                gated_batch(calibration)
            round_setups = []
            for _ in range(SETUPS_PER_ROUND):
                detector, provider, seconds = setup(args.inputs, batches[0].out, settings)
                round_setups.append(seconds)
            setups.append((round_setups, calibration.after_step()))
            passes.append(online_pass(gate, ops, detector, provider, online_seqs, online_truth, settings,
                                      calibration))
            del detector, provider
            rep += 1
    else:
        for _ in range(2):
            gated_batch()
        layers.install(tracer)
        try:
            traced, result = batch_run(args.inputs, args.work / "batch-traced", settings)
            detector, provider, seconds = setup(args.inputs, batches[0].out, settings)
            passes.append(online_pass(gate, ops, detector, provider, online_seqs, online_truth, settings))
        finally:
            tracer.uninstall()
        check_batch(gate, ops, traced, batches[0], raw_messages, expected, batch_truth, settings)
        test_entries = sum(len(kb.entries) for kb in result.kbs.test.values())
        train_entries = sum(len(kb.entries) for kb in result.kbs.train.values())
        del detector, provider, result

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kb_bytes = sum((batches[0].out / "kb" / name).stat().st_size for name in KB_FILES)
    llm_calls_per_kseq = 1000.0 * passes[0].provider_calls / samples

    env = environment()
    record = {
        "workload": meta["workload"],
        "seed": meta["seed"],
        "trace": args.trace,
        "environment": env,
        "reference_s": speed.REFERENCE_S,
        "pipeline_s_runs": [(b.seconds, b.scale) for b in batches],
        "setup_s_runs": setups,
        "online_s_runs": [(sum(p.latencies), p.scale) for p in passes],
        "llm_calls_per_kseq": llm_calls_per_kseq,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failed_by_kind": {
            "report_errors": ops.report_errors,
            "provider_errors": ops.provider_errors,
            "unmatched_or_dropped": ops.unmatched_or_dropped,
        },
        "gate_problems": gate.problems,
    }

    print(
        f"# {meta['workload']} seed={meta['seed']} trace={args.trace}: python {env['python']}, "
        f"{env['machine']}, nproc={env['nproc']}, gc enabled={env['gc_enabled']} "
        f"threshold={tuple(env['gc_threshold'])}"
    )
    if tracer is None:
        warmup_batches = WARMUP_ROUNDS * BATCHES_PER_ROUND.get(meta["workload"], 1)
        round_setups = [statistics.fmean(times) * scale for times, scale in setups[WARMUP_ROUNDS:]]
        measured_passes = passes[WARMUP_ROUNDS:]
        latencies = sequence_latencies(measured_passes)
        p50, p99 = percentile(latencies, 50), percentile(latencies, 99)
        values = {
            "pipeline_s": statistics.median(b.seconds * b.scale for b in batches[warmup_batches:]),
            "setup_s": statistics.median(round_setups),
            "online_seq_per_s": statistics.median(samples / (sum(p.latencies) * p.scale) for p in measured_passes),
            "seq_latency_p50_us": 1e6 * p50.value,
            "seq_latency_p99_us": 1e6 * p99.value,
            "peak_rss_mb": peak_rss_mb,
            "kb_bytes": float(kb_bytes),
            "f1": f1,
        }
        table = END_TO_END
        record["latency_samples"] = {
            "sequences": samples, "passes": len(measured_passes), "above_p99": p99.beyond}
        print(
            f"# rounds={len(passes)} ({WARMUP_ROUNDS} warm-up), batch runs={len(batches)}, "
            f"set-ups per round={SETUPS_PER_ROUND}, online passes={len(passes)} x {samples} sequences; "
            f"times in reference seconds (speed.py; machine at "
            f"{statistics.median(b.scale for b in batches[warmup_batches:]):.3f} of reference, raw median "
            f"pipeline {statistics.median(b.seconds for b in batches[warmup_batches:]):.4f} s); "
            f"medians over {len(batches) - warmup_batches} batch runs, {len(round_setups)} rounds of "
            f"set-ups and {len(measured_passes)} passes; latency percentiles over {samples} per-sequence trimmed means of "
            f"{len(measured_passes)} passes ({p99.beyond} above p99); "
            f"llm_calls_per_kseq={llm_calls_per_kseq:.3f}; attempted={ops.attempted} failed={ops.failed}"
        )
    else:
        pipeline_s = min(b.seconds for b in batches)
        extra = {
            "knowledge.test_entries": test_entries,
            "knowledge.train_entries": train_entries,
            "llm_calls_per_kseq": llm_calls_per_kseq,
            "online.latency_samples": samples,
            "trace.overhead_ratio": traced.seconds / pipeline_s,
        }
        values = layers.per_layer_metrics(tracer, extra)
        table = layers.PER_LAYER
        record["spans"] = len(tracer)
        if args.spans_out is not None:
            tracer.write(args.spans_out)
        print(
            f"# batch runs={len(batches)} untraced + 1 traced, one traced set-up and online pass of "
            f"{samples} sequences; llm_calls_per_kseq={llm_calls_per_kseq:.3f}; "
            f"attempted={ops.attempted} failed={ops.failed}"
        )

    record["metrics"] = values
    (args.work / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    for name, unit, _ in table:
        print(f"{name:32s} {values[name]:>16.6f} {unit}")
    for problem in gate.problems:
        print(f"GATE: {problem}")
    print(
        json.dumps(
            {
                "correct": gate.passed,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
            }
        )
    )
    return 0 if gate.passed else 1


if __name__ == "__main__":
    sys.exit(main())
