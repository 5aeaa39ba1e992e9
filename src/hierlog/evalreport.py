"""Metrics, structure/reuse reports, and level attribution."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .detect import LEVEL_ORDER, SequenceReport
from .errors import JsonLinesError
from .hierarchy import LEVELS, TopicTree
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
    keys_by_level_set: dict[str, int] = field(default_factory=dict)  # S / SA / SAE
    raw_test_keys: int = 0
    llm_calls: int = 0
    llm_call_ratio: float = 0.0  # vs test sequence count

    def to_json(self) -> dict:
        return {
            "node_counts": self.node_counts,
            "unique_seqs": self.unique_seqs,
            "total_occurrences": self.total_occurrences,
            "reuse_ratio": self.reuse_ratio,
            "keys_by_level_set": self.keys_by_level_set,
            "raw_test_keys": self.raw_test_keys,
            "llm_calls": self.llm_calls,
            "llm_call_ratio": self.llm_call_ratio,
        }


def structure_report(
    tree: TopicTree,
    kbs: KnowledgeBaseSet,
    reports: Sequence[SequenceReport],
) -> StructureReport:
    """Cardinality, reuse, and resource tallies for one run."""
    out = StructureReport()
    for level in LEVELS:
        out.node_counts[level] = sum(1 for n in tree.nodes.values() if n.level == level)
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
        out.llm_calls += report.counters.llm_calls
    out.keys_by_level_set = {
        "S": keys["status"],
        "SA": keys["status"] + keys["action"],
        "SAE": keys["status"] + keys["action"] + keys["entity"],
    }
    out.llm_call_ratio = out.llm_calls / len(reports) if reports else 0.0
    return out


_LEVEL_INITIAL = {"status": "S", "action": "A", "entity": "E"}


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
        bucket = "+".join(_LEVEL_INITIAL[l] for l in flagged) if flagged else "missed"
        buckets[bucket] = buckets.get(bucket, 0) + 1
    return buckets


# ---------------------------------------------------------------------------
# Report persistence
# ---------------------------------------------------------------------------

def report_to_json(report: SequenceReport) -> dict:
    return {
        "sequence_id": report.sequence_id,
        "final_verdict": report.final_verdict,
        "first_abnormal_level": report.first_abnormal_level,
        "raw_length": report.raw_length,
        "error": report.error,
        "counters": {
            "llm_calls": report.counters.llm_calls,
            "provider_errors": report.counters.provider_errors,
            "keys_per_level": report.counters.keys_per_level,
            "evals_per_level": report.counters.evals_per_level,
        },
        "verdicts": [
            {
                "signature": v.signature,
                "level": v.level,
                "verdict": v.verdict,
                "source": v.source,
                "explanation": v.explanation,
                "confidence_flag": v.confidence_flag,
            }
            for v in report.verdicts
        ],
    }


def save_reports(
    reports: Sequence[SequenceReport], path: str | Path, meta: Optional[dict] = None
) -> None:
    """JSONL report: first line is a metadata header, then one sequence per line."""
    with Path(path).open("w") as fh:
        fh.write(json.dumps({"meta": meta or {}}, sort_keys=True) + "\n")
        for report in reports:
            fh.write(json.dumps(report_to_json(report), sort_keys=True) + "\n")


def load_report_records(path: str | Path) -> tuple[dict, list[dict]]:
    """The meta header and the sequence records of a report that `save_reports` wrote."""
    error = functools.partial(JsonLinesError, path)
    rows = read_jsonl(path, error)
    lineno, header = next(rows, (1, None))
    if header is None or "meta" not in header:
        raise error(lineno, "missing field 'meta': a report starts with its meta header")
    records = []
    for lineno, row in rows:
        for name in ("sequence_id", "final_verdict"):
            if name not in row:
                raise error(lineno, f"missing field {name!r}")
        if not isinstance(row["final_verdict"], bool):
            raise error(lineno, "field 'final_verdict' must be true or false")
        records.append(row)
    return header["meta"], records
