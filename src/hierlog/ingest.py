"""Template catalogs, message matching, and log partitioning.

Raw messages are matched against a catalog of wildcard templates
(token-for-token, ``<*>`` matches any single token) and partitioned
into log sequences by identifier or sliding window. Parsing proper is
assumed done upstream; the catalog drives everything here.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import (
    CatalogParseError,
    DuplicateKeyError,
    PartitionError,
    RawRecordParseError,
    SequenceParseError,
)

WILDCARD = "<*>"


@dataclass(frozen=True)
class LogTemplate:
    key: str
    text: str
    tokens: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.text.split()))

    @property
    def wildcard_count(self) -> int:
        return self.tokens.count(WILDCARD)


@dataclass(frozen=True)
class LogEvent:
    key: str
    template: str


@dataclass
class RawLogRecord:
    message: str
    timestamp: Optional[float] = None
    group_id: Optional[str] = None
    label: Optional[bool] = None


@dataclass
class LogSequence:
    id: str
    events: list[LogEvent]
    label: Optional[bool] = None

    @property
    def keys(self) -> list[str]:
        return [e.key for e in self.events]


@dataclass
class PartitionSpec:
    mode: str  # identifier | count_window | time_window
    window_size: Optional[float] = None
    stride: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("identifier", "count_window", "time_window"):
            raise ValueError(f"unknown partition mode: {self.mode!r}")
        if self.mode != "identifier":
            # NaN compares false with everything, so only isfinite stops it; a
            # NaN or inf size or stride would silently keep fewer events, and
            # count windows are cut at int(), so a fraction would be truncated
            if self.window_size is None or not math.isfinite(self.window_size) or self.window_size <= 0:
                raise ValueError("window modes require a positive, finite window_size")
            if self.stride is None:
                self.stride = self.window_size
            if not math.isfinite(self.stride) or self.stride <= 0 or self.stride > self.window_size:
                raise ValueError("stride must be finite and in (0, window_size]")
            if self.mode == "count_window" and not (
                float(self.window_size).is_integer() and float(self.stride).is_integer()
            ):
                raise ValueError("count windows need a whole window_size and stride")


@dataclass(frozen=True)
class MatchResult:
    key: str
    params: tuple[str, ...]


class TemplateCatalog:
    """Immutable key -> template mapping with position-wise matching."""

    def __init__(self, templates: Iterable[LogTemplate]):
        self._by_key: dict[str, LogTemplate] = {}
        for t in templates:
            if t.key in self._by_key:
                raise DuplicateKeyError(t.key)
            if not t.text.strip():
                raise ValueError(f"template {t.key!r} has empty text")
            self._by_key[t.key] = t
        self._events = {k: LogEvent(key=k, template=t.text) for k, t in self._by_key.items()}
        self._tries: Optional[dict[int, list]] = None  # built on the first match

    def __len__(self) -> int:
        return len(self._by_key)

    def templates(self) -> list[LogTemplate]:
        return list(self._by_key.values())

    def keys(self) -> list[str]:
        return list(self._by_key)

    def event_for(self, key: str) -> LogEvent:
        """The catalog's one shared (frozen) event for ``key``."""
        return self._events[key]

    def _trie(self, n_tokens: int) -> Optional[list]:
        """Root of the token trie for templates of ``n_tokens`` tokens, if any.

        One trie per token count, in the style of Drain's parse tree, so
        matching only walks branches that agree with the message so far. A
        node is a list [literal children by token, wildcard child or None,
        floor], where floor is the smallest (wildcard_count, key) of the
        templates through it; inserting in that order sets each floor once.
        Built on first use: a detector loaded for scoring never matches.
        """
        if self._tries is None:
            tries: dict[int, list] = {}
            for rank, t in sorted(((t.wildcard_count, t.key), t) for t in self._by_key.values()):
                node = tries.get(len(t.tokens))
                if node is None:
                    node = tries[len(t.tokens)] = [{}, None, rank]
                for tok in t.tokens:
                    if tok == WILDCARD:
                        child = node[1]
                        if child is None:
                            child = node[1] = [{}, None, rank]
                    else:
                        child = node[0].get(tok)
                        if child is None:
                            child = node[0][tok] = [{}, None, rank]
                    node = child
            self._tries = tries  # published whole, never half built
        return self._tries.get(n_tokens)


def load_template_catalog(path: str | Path) -> TemplateCatalog:
    """Load a catalog from a delimited file with columns (key, template).

    Accepts CSV (with or without a header row) and JSON lines with
    ``key``/``template`` fields. Duplicate keys are rejected.
    """
    path = Path(path)
    templates: list[LogTemplate] = []
    if path.suffix in (".jsonl", ".ndjson"):
        with path.open() as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                row = _json_object(line, lineno, CatalogParseError)
                for name in ("key", "template"):
                    if name not in row:
                        raise CatalogParseError(lineno, f"missing field {name!r}")
                templates.append(LogTemplate(str(row["key"]), str(row["template"])))
    else:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            for lineno, row in enumerate(reader, start=1):
                if not row or all(not c.strip() for c in row):
                    continue
                if lineno == 1 and [c.strip().lower() for c in row[:2]] == ["key", "template"]:
                    continue
                if len(row) < 2:
                    raise CatalogParseError(lineno, "expected columns (key, template)")
                templates.append(LogTemplate(row[0].strip(), row[1].strip()))
    seen: set[str] = set()
    for t in templates:
        if t.key in seen:
            raise DuplicateKeyError(t.key)
        seen.add(t.key)
    return TemplateCatalog(templates)


def match_message(catalog: TemplateCatalog, message: str) -> Optional[MatchResult]:
    """Match a raw message against the catalog.

    Tokens must agree position-wise; a wildcard template token matches any
    single message token and binds it as a parameter. Ambiguity resolves to
    the template with fewest wildcards, then the lexicographically smallest
    key. Returns None when nothing matches.
    """
    tokens = message.split()
    n = len(tokens)
    root = catalog._trie(n)
    if root is None:
        return None
    # Depth-first over the branches that agree with the message, literal
    # child first; a subtree whose floor cannot beat the best leaf found so
    # far is skipped. An explicit stack keeps any template length safe.
    best: Optional[tuple[int, str]] = None
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        literal, wild, floor = node
        if best is not None and floor >= best:
            continue
        if depth == n:
            best = floor
            continue
        if wild is not None:
            stack.append((wild, depth + 1))
        child = literal.get(tokens[depth])
        if child is not None:
            stack.append((child, depth + 1))
    if best is None:
        return None
    template = catalog._by_key[best[1]]
    params = tuple(mt for mt, tt in zip(tokens, template.tokens) if tt == WILDCARD)
    return MatchResult(key=template.key, params=params)


@dataclass
class MatchReport:
    """Outcome of matching a batch of raw records against a catalog."""

    events: list[LogEvent] = field(default_factory=list)
    records: list[RawLogRecord] = field(default_factory=list)  # matched records, aligned
    skipped: list[tuple[int, str]] = field(default_factory=list)  # (index, message)


def match_records(catalog: TemplateCatalog, records: Sequence[RawLogRecord]) -> MatchReport:
    """Match records in order; unmatched messages are reported, not fatal."""
    report = MatchReport()
    for i, rec in enumerate(records):
        m = match_message(catalog, rec.message)
        if m is None:
            report.skipped.append((i, rec.message))
        else:
            report.events.append(catalog.event_for(m.key))
            report.records.append(rec)
    return report


def partition(
    records: Sequence[RawLogRecord],
    events: Sequence[LogEvent],
    spec: PartitionSpec,
) -> list[LogSequence]:
    """Split parallel (record, event) lists into log sequences.

    identifier mode groups by ``group_id`` preserving input order within a
    group; count_window emits fixed-size windows advancing by stride (final
    shorter remainder kept); time_window emits events whose timestamps fall
    in [start, start + window), the first window starting at the earliest
    timestamp. Every mode keeps input order within a sequence.
    """
    if len(records) != len(events):
        raise ValueError("records and events must be the same length")
    if not records:
        return []

    if spec.mode == "identifier":
        groups: dict[str, list[int]] = {}
        for i, rec in enumerate(records):
            if rec.group_id is None:
                raise PartitionError(i, "identifier mode requires group_id")
            groups.setdefault(rec.group_id, []).append(i)
        return [
            LogSequence(
                id=gid,
                events=[events[i] for i in idxs],
                label=_labels_or_none([records[i].label for i in idxs]),
            )
            for gid, idxs in groups.items()
        ]

    if spec.mode == "count_window":
        size = int(spec.window_size)
        stride = int(spec.stride)
        sequences = []
        n = len(events)
        for start in range(0, n, stride):
            window = list(range(start, min(start + size, n)))
            sequences.append(
                LogSequence(
                    id=f"w{len(sequences)}",
                    events=[events[i] for i in window],
                    label=_labels_or_none([records[i].label for i in window]),
                )
            )
            if start + size >= n:
                break
        return sequences

    # time_window
    for i, rec in enumerate(records):
        if rec.timestamp is None:
            raise PartitionError(i, "time_window mode requires timestamps")
    # One sweep: indices sorted by timestamp (stable), and two monotone
    # pointers bounding [start, end) as the window slides.
    order = sorted(range(len(records)), key=lambda i: records[i].timestamp)
    stamps = [records[i].timestamp for i in order]
    sequences = []
    start, t_last = stamps[0], stamps[-1]
    lo = hi = 0
    while start <= t_last:
        end = start + spec.window_size
        while stamps[lo] < start:
            lo += 1
        while hi < len(stamps) and stamps[hi] < end:
            hi += 1
        if hi > lo:
            window = sorted(order[lo:hi])
            sequences.append(
                LogSequence(
                    id=f"t{len(sequences)}",
                    events=[events[i] for i in window],
                    label=_labels_or_none([records[i].label for i in window]),
                )
            )
        start += spec.stride
    return sequences


def label_sequence(labels: Iterable[Optional[bool]]) -> bool:
    """A sequence is abnormal iff it contains at least one abnormal event."""
    return any(bool(l) for l in labels)


def _labels_or_none(labels: list[Optional[bool]]) -> Optional[bool]:
    if all(l is None for l in labels):
        return None
    return label_sequence(labels)


def _json_object(line: str, lineno: int, error: type[Exception]) -> dict:
    """One JSONL line as an object; a bad line raises ``error(lineno, reason)``."""
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise error(lineno, f"invalid JSON: {exc.msg} at column {exc.colno}") from exc
    if not isinstance(row, dict):
        raise error(lineno, "expected a JSON object")
    return row


def load_raw_records(path: str | Path) -> list[RawLogRecord]:
    """Raw records, one JSON object per line: message, and optional timestamp, group_id, label."""
    records = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            row = _json_object(line, lineno, RawRecordParseError)
            if "message" not in row:
                raise RawRecordParseError(lineno, "missing field 'message'")
            if not isinstance(row["message"], str):
                raise RawRecordParseError(lineno, "field 'message' must be a string")
            records.append(
                RawLogRecord(
                    message=row["message"],
                    timestamp=row.get("timestamp"),
                    group_id=row.get("group_id"),
                    label=row.get("label"),
                )
            )
    return records


def save_sequences(sequences: Iterable[LogSequence], path: str | Path) -> None:
    """One JSON record per line: (sequence_id, ordered key list, optional label)."""
    with Path(path).open("w") as fh:
        for seq in sequences:
            row = {"sequence_id": seq.id, "keys": seq.keys}
            if seq.label is not None:
                row["label"] = seq.label
            fh.write(json.dumps(row) + "\n")


def load_sequences(path: str | Path, catalog: TemplateCatalog) -> list[LogSequence]:
    sequences = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            row = _json_object(line, lineno, SequenceParseError)
            for name in ("sequence_id", "keys"):
                if name not in row:
                    raise SequenceParseError(lineno, f"missing field {name!r}")
            if not isinstance(row["keys"], list):
                raise SequenceParseError(lineno, "field 'keys' must be a list")
            try:
                events = [catalog.event_for(str(k)) for k in row["keys"]]
            except KeyError as exc:
                raise SequenceParseError(lineno, f"unknown log key {exc.args[0]!r}") from exc
            sequences.append(
                LogSequence(id=str(row["sequence_id"]), events=events, label=row.get("label"))
            )
    return sequences
