"""Metrics, structure/reuse reports, and level attribution."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .detect import LEVEL_ORDER, LEVEL_PRESETS, SeqVerdict, SequenceReport
from .errors import LineParseError
from .hierarchy import LEVEL_INITIAL, LEVELS, TopicTree
from .ingest import read_jsonl
from .knowledge import KnowledgeBaseSet
from .semantics import VERDICT_ABNORMAL


@dataclass
class MetricsReport:
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float


def compute_metrics(predictions: Sequence[bool], labels: Sequence[bool]) -> MetricsReport:
    """Confusion counts and P/R/F1; zero denominators yield 0 by convention."""
    if len(predictions) != len(labels):
        raise ValueError(f"length mismatch: {len(predictions)} predictions, {len(labels)} labels")
    tp = fp = tn = fn = 0
    for pred, label in zip(predictions, labels):
        if pred and label:
            tp += 1
        elif pred and not label:
            fp += 1
        elif not pred and label:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricsReport(tp=tp, fp=fp, tn=tn, fn=fn, precision=precision, recall=recall, f1=f1)


@dataclass
class StructureReport:
    node_counts: dict[str, int] = field(default_factory=dict)  # per level
    unique_seqs: dict[str, int] = field(default_factory=dict)  # per level, train KB
    total_occurrences: dict[str, int] = field(default_factory=dict)
    reuse_ratio: dict[str, float] = field(default_factory=dict)
    keys_by_level_set: dict[str, int] = field(default_factory=dict)  # per LEVEL_PRESETS preset
    raw_test_keys: int = 0
    llm_calls: int = 0
    llm_call_ratio: float = 0.0  # vs test sequence count


def structure_report(
    tree: TopicTree,
    kbs: KnowledgeBaseSet,
    reports: Sequence[SequenceReport],
    llm_calls: int,
) -> StructureReport:
    """Cardinality, reuse, and resource tallies for one run; `llm_calls` is its Detector's count."""
    out = StructureReport(llm_calls=llm_calls)
    for level in LEVELS:
        out.node_counts[level] = tree.node_counts[level]
        kb = kbs.train[level]
        out.unique_seqs[level] = len(kb.entries)
        out.total_occurrences[level] = sum(e.occurrence_count for e in kb.entries.values())
        out.reuse_ratio[level] = (
            out.total_occurrences[level] / out.unique_seqs[level] if out.unique_seqs[level] else 0.0
        )

    keys = {level: 0 for level in LEVEL_ORDER}
    for report in reports:
        for level in LEVEL_ORDER:
            keys[level] += report.counters.keys_per_level[level]
        out.raw_test_keys += report.raw_length
    out.keys_by_level_set = {preset: sum(keys[l] for l in levels) for preset, levels in LEVEL_PRESETS.items()}
    out.llm_call_ratio = llm_calls / len(reports) if reports else 0.0
    return out


def attribution_report(
    reports: Sequence[SequenceReport], labels: Sequence[bool]
) -> dict[str, int]:
    """Distribution of true anomalies over the levels that flagged them.

    Meaningful only when detection ran with early exit disabled; buckets
    are level-initial combinations ("S", "S+E", ...) plus "missed" for
    true anomalies no level flagged.
    """
    if len(reports) != len(labels):
        raise ValueError("reports and labels must align")
    buckets: dict[str, int] = {}
    for report, label in zip(reports, labels):
        if not label:
            continue
        flagged = sorted(
            {v.level for v in report.verdicts if v.verdict == VERDICT_ABNORMAL},
            key=LEVEL_ORDER.index,
        )
        bucket = "+".join(LEVEL_INITIAL[l] for l in flagged) if flagged else "missed"
        buckets[bucket] = buckets.get(bucket, 0) + 1
    return buckets


# ---------------------------------------------------------------------------
# Report persistence
# ---------------------------------------------------------------------------

def _text(value: Optional[str]) -> str:
    return "null" if value is None else encode_basestring_ascii(value)


def _counts(per_level: dict[str, int]) -> str:
    return ", ".join(["%s: %d" % (encode_basestring_ascii(k), n) for k, n in sorted(per_level.items())])


def save_reports(
    reports: Iterable[SequenceReport], path: str | Path, meta: Optional[dict] = None
) -> None:
    """JSONL report: first line is a metadata header, then one sequence per line.

    A line holds the bytes `json.dumps(..., sort_keys=True)` gives for the
    report's fields, built by %-formatting in sorted-key order. Reports
    share verdict objects (the per-level verdict dicts and the memo hand out
    the same ones), so each distinct verdict is encoded once per call,
    keyed by `id`; the entry holds the verdict, so no other object can take
    its id before the call ends, even when `reports` is a generator.
    Counters are encoded once per distinct content instead: a memo hit
    shares its first report's `Counters`, but separate misses can hold
    equal counts.
    """
    encoded: dict[int, tuple[SeqVerdict, str]] = {}
    encoded_counters: dict[tuple, str] = {}
    with Path(path).open("w") as fh:
        fh.write(json.dumps({"meta": meta or {}}, sort_keys=True) + "\n")
        for report in reports:
            verdicts = []
            for v in report.verdicts:
                entry = encoded.get(id(v))
                if entry is None:
                    entry = encoded[id(v)] = (v, (
                        '{"confidence_flag": %s, "explanation": %s, "level": %s, "signature": %s, '
                        '"source": %s, "verdict": %s}' % (
                            encode_basestring_ascii(v.confidence_flag), _text(v.explanation),
                            encode_basestring_ascii(v.level), encode_basestring_ascii(v.signature),
                            encode_basestring_ascii(v.source), encode_basestring_ascii(v.verdict),
                        )
                    ))
                verdicts.append(entry[1])
            c = report.counters
            key = (tuple(c.evals_per_level.items()), tuple(c.keys_per_level.items()), c.provider_errors)
            counters = encoded_counters.get(key)
            if counters is None:
                counters = encoded_counters[key] = (
                    '{"evals_per_level": {%s}, "keys_per_level": {%s}, "provider_errors": %d}' % (
                        _counts(c.evals_per_level), _counts(c.keys_per_level), c.provider_errors,
                    )
                )
            fh.write(
                '{"counters": %s, "error": %s, "final_verdict": %s, "first_abnormal_level": %s, '
                '"raw_length": %d, "sequence_id": %s, "verdicts": [%s]}\n' % (
                    counters, _text(report.error), "true" if report.final_verdict else "false",
                    _text(report.first_abnormal_level), report.raw_length,
                    encode_basestring_ascii(report.sequence_id), ", ".join(verdicts),
                )
            )


def load_report_records(path: str | Path) -> tuple[dict, list[dict]]:
    """The meta header and the sequence records of a report that `save_reports` wrote."""
    rows = read_jsonl(path)
    lineno, header = next(rows, (1, None))
    if header is None or "meta" not in header:
        raise LineParseError(path, lineno, "missing field 'meta': a report starts with its meta header")
    records, first_line = [], {}
    for lineno, row in rows:
        for name in ("sequence_id", "final_verdict"):
            if name not in row:
                raise LineParseError(path, lineno, f"missing field {name!r}")
        if not isinstance(row["final_verdict"], bool):
            raise LineParseError(path, lineno, "field 'final_verdict' must be true or false")
        if type(row["sequence_id"]) is not str:
            raise LineParseError(path, lineno, "field 'sequence_id' must be a string")
        first = first_line.setdefault(row["sequence_id"], lineno)
        if first != lineno:
            raise LineParseError(path, lineno, f"repeated sequence_id {row['sequence_id']!r}, first at line {first}")
        records.append(row)
    return header["meta"], records
