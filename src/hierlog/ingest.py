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
from typing import Callable, Iterable, Iterator, Optional, Sequence

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


@dataclass
class RawLogRecord:
    message: str
    timestamp: Optional[float] = None
    group_id: Optional[str] = None
    label: Optional[bool] = None


@dataclass
class LogSequence:
    """A log sequence is its ordered list of catalog keys."""

    id: str
    keys: list[str]
    label: Optional[bool] = None


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
        self._tries: Optional[dict[int, list]] = None  # built on the first match

    def __len__(self) -> int:
        return len(self._by_key)

    def templates(self) -> list[LogTemplate]:
        return list(self._by_key.values())

    def keys(self) -> list[str]:
        return list(self._by_key)

    def lookup(self, keys: Iterable[str]) -> list[str]:
        """The catalog's own string object for each key, so equal keys share one string.

        An unknown key raises KeyError.
        """
        by_key = self._by_key
        return [by_key[k].key for k in keys]

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
        for _, row in read_jsonl(path, CatalogParseError, ("key", "template")):
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
    return TemplateCatalog(templates)


def match_message(catalog: TemplateCatalog, message: str) -> Optional[str]:
    """The key of the catalog template that a raw message matches, or None.

    Tokens must agree position-wise; a wildcard template token matches any
    single message token. Ambiguity resolves to the template with fewest
    wildcards, then the lexicographically smallest key.
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
    return None if best is None else best[1]  # the template's own key string


@dataclass
class MatchReport:
    """Outcome of matching a batch of raw records against a catalog."""

    keys: list[str] = field(default_factory=list)
    records: list[RawLogRecord] = field(default_factory=list)  # matched records, aligned
    skipped: list[tuple[int, str]] = field(default_factory=list)  # (index, message)


def match_records(catalog: TemplateCatalog, records: Sequence[RawLogRecord]) -> MatchReport:
    """Match records in order; unmatched messages are reported, not fatal."""
    report = MatchReport()
    for i, rec in enumerate(records):
        key = match_message(catalog, rec.message)
        if key is None:
            report.skipped.append((i, rec.message))
        else:
            report.keys.append(key)
            report.records.append(rec)
    return report


def partition(
    records: Sequence[RawLogRecord],
    keys: Sequence[str],
    spec: PartitionSpec,
) -> list[LogSequence]:
    """Split parallel (record, key) lists into log sequences.

    identifier mode groups by ``group_id`` preserving input order within a
    group; count_window emits fixed-size windows advancing by stride (final
    shorter remainder kept); time_window emits the non-empty windows
    [t0 + k * stride, t0 + k * stride + window), t0 the earliest timestamp.
    Every mode keeps input order within a sequence.
    """
    if len(records) != len(keys):
        raise ValueError("records and keys must be the same length")
    if not records:
        return []
    windows = {"identifier": _groups, "count_window": _count_windows, "time_window": _time_windows}
    return [
        LogSequence(seq_id, [keys[i] for i in idxs], _labels_or_none([records[i].label for i in idxs]))
        for seq_id, idxs in windows[spec.mode](records, spec)
    ]


def _groups(records: Sequence[RawLogRecord], spec: PartitionSpec) -> Iterator[tuple[str, list[int]]]:
    groups: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        if rec.group_id is None:
            raise PartitionError(i, "identifier mode requires group_id")
        groups.setdefault(rec.group_id, []).append(i)
    yield from groups.items()


def _count_windows(records: Sequence[RawLogRecord], spec: PartitionSpec) -> Iterator[tuple[str, list[int]]]:
    size, stride, n = int(spec.window_size), int(spec.stride), len(records)
    for w, start in enumerate(range(0, n, stride)):
        yield f"w{w}", list(range(start, min(start + size, n)))
        if start + size >= n:
            break


def _time_windows(records: Sequence[RawLogRecord], spec: PartitionSpec) -> Iterator[tuple[str, list[int]]]:
    for i, rec in enumerate(records):
        # the window sweep does arithmetic on stamps, so an inf, a string or a bool has no window
        if type(rec.timestamp) not in (int, float) or not math.isfinite(rec.timestamp):
            raise PartitionError(i, "time_window mode requires a finite numeric timestamp")
    # One sweep: indices sorted by timestamp (stable), and two monotone
    # pointers bounding window k, [t0 + k * stride, t0 + k * stride + size).
    # Each start is computed afresh, never accumulated, so an empty stretch
    # can be jumped over to the first window that reaches the next stamp.
    order = sorted(range(len(records)), key=lambda i: records[i].timestamp)
    stamps = [records[i].timestamp for i in order]
    t0, size, stride, n = stamps[0], spec.window_size, spec.stride, len(stamps)
    emitted = k = lo = hi = 0
    while True:
        start = t0 + k * stride
        while lo < n and stamps[lo] < start:
            lo += 1
        if lo == n:
            return
        end = start + size
        if stamps[lo] >= end:  # window k is empty, and so is every one that ends by stamps[lo]
            k = max(k + 1, math.floor((stamps[lo] - size - t0) / stride) - 1)
            while t0 + k * stride + size <= stamps[lo]:
                k += 1
            continue
        while hi < n and stamps[hi] < end:
            hi += 1
        yield f"t{emitted}", sorted(order[lo:hi])
        emitted += 1
        k += 1


def _labels_or_none(labels: list[Optional[bool]]) -> Optional[bool]:
    """A sequence's label: None if no record has one, else abnormal iff any record is."""
    return None if all(l is None for l in labels) else any(labels)


_LABEL_RULE = "field 'label' must be true, false or null"


def read_jsonl(
    path: str | Path, error: Callable[[int, str], Exception], fields: Sequence[str] = ()
) -> Iterator[tuple[int, dict]]:
    """(line number, object) per non-blank line of a JSON-lines file.

    A line that is not a JSON object, or that lacks one of ``fields``,
    raises ``error(line number, reason)``.
    """
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(lineno, f"invalid JSON: {exc.msg} at column {exc.colno}") from exc
            if not isinstance(row, dict):
                raise error(lineno, "expected a JSON object")
            for name in fields:
                if name not in row:
                    raise error(lineno, f"missing field {name!r}")
            yield lineno, row


def load_raw_records(path: str | Path) -> list[RawLogRecord]:
    """Raw records, one JSON object per line: message, and optional timestamp, group_id, label."""
    records = []
    for lineno, row in read_jsonl(path, RawRecordParseError, ("message",)):
        if not isinstance(row["message"], str):
            raise RawRecordParseError(lineno, "field 'message' must be a string")
        group_id, label = row.get("group_id"), row.get("label")
        if group_id is not None and not isinstance(group_id, str):
            raise RawRecordParseError(lineno, "field 'group_id' must be a string or null")
        if label is not None and type(label) is not bool:
            raise RawRecordParseError(lineno, _LABEL_RULE)
        records.append(RawLogRecord(row["message"], row.get("timestamp"), group_id, label))
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
    """The sequences of a file that `save_sequences` wrote, each key checked against the catalog."""
    sequences = []
    for lineno, row in read_jsonl(path, SequenceParseError, ("sequence_id", "keys")):
        if type(row["sequence_id"]) is not str:
            raise SequenceParseError(lineno, "field 'sequence_id' must be a string")
        if not isinstance(row["keys"], list):
            raise SequenceParseError(lineno, "field 'keys' must be a list")
        try:
            keys = catalog.lookup(row["keys"])
        except (KeyError, TypeError):  # TypeError: an unhashable key
            known = catalog.keys()
            unknown = next(k for k in row["keys"] if not isinstance(k, str) or k not in known)
            raise SequenceParseError(lineno, f"unknown log key {unknown!r}") from None
        label = row.get("label")
        if label is not None and type(label) is not bool:
            raise SequenceParseError(lineno, _LABEL_RULE)
        sequences.append(LogSequence(row["sequence_id"], keys, label))
    return sequences
