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
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import LineParseError, PartitionError

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


class RawColumns(NamedTuple):
    """Raw records as four parallel columns, one row per non-blank line of the file."""

    messages: list[str]
    timestamps: list  # unchecked here; time windows need ints or finite floats
    group_ids: list[Optional[str]]
    labels: list[Optional[bool]]


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
        self._by_key = {t.key: t for t in templates}  # `load_template_catalog` checks each key and text
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

    Accepts CSV (with or without a header as its first non-blank row) and
    JSON lines with ``key``/``template`` fields. An empty key, empty text, a
    repeated key or a byte order mark before the first row raises
    `LineParseError` naming its line.
    """
    path = Path(path)
    templates: list[LogTemplate] = []
    first_line: dict[str, int] = {}  # key -> the line that gave it

    def add(lineno: int, key: str, text: str) -> None:
        if not key:
            raise LineParseError(path, lineno, f"template {text!r} has an empty key")
        if not text.strip():
            raise LineParseError(path, lineno, f"template {key!r} has empty text")
        if key in first_line:
            raise LineParseError(path, lineno, f"duplicate template key {key!r}, first at line {first_line[key]}")
        first_line[key] = lineno
        templates.append(LogTemplate(key, text))

    if path.suffix in (".jsonl", ".ndjson"):
        for lineno, row in read_jsonl(path, ("key", "template")):
            for name in ("key", "template"):
                if not isinstance(row[name], str):
                    raise LineParseError(path, lineno, f"field {name!r} must be a string")
            add(lineno, row["key"], row["template"])
    else:
        reader = csv.reader(line for _, line in _text_lines(path, newline=""))
        for n, row in enumerate(row for row in reader if any(c.strip() for c in row)):  # blank rows skipped
            if n == 0 and row[0].startswith("\ufeff"):  # else the mark would start the first key
                raise LineParseError(path, reader.line_num, "unexpected UTF-8 BOM at column 1")
            if n == 0 and [c.strip().lower() for c in row[:2]] == ["key", "template"]:
                continue
            if len(row) < 2:  # line_num counts lines, and a quoted field may span several
                raise LineParseError(path, reader.line_num, "expected columns (key, template)")
            add(reader.line_num, row[0].strip(), row[1].strip())
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


MATCH_CACHE_SIZE = 1 << 16  # distinct messages whose key `match_records` keeps; emptied when full
_UNSEEN = object()


@dataclass
class MatchReport:
    """Outcome of matching a column of raw messages: the index of each matched message
    (ascending) with its key, aligned, and (index, message) of each unmatched one.
    `partition` reads the record columns at the kept indices."""

    keys: list[str] = field(default_factory=list)
    kept: list[int] = field(default_factory=list)
    skipped: list[tuple[int, str]] = field(default_factory=list)


def match_records(catalog: TemplateCatalog, messages: Sequence[str]) -> MatchReport:
    """Match messages in order; unmatched messages are reported, not fatal.

    A message's key depends only on the catalog and the message, so each
    distinct message is matched once, through a message -> key dict that is
    emptied when it holds MATCH_CACHE_SIZE messages.
    """
    report = MatchReport()
    keys, kept, known = report.keys, report.kept, {}
    for i, message in enumerate(messages):
        key = known.get(message, _UNSEEN)
        if key is _UNSEEN:
            if len(known) >= MATCH_CACHE_SIZE:
                known.clear()
            key = known[message] = match_message(catalog, message)
        if key is None:
            report.skipped.append((i, message))
        else:
            keys.append(key)
            kept.append(i)
    return report


def partition(
    columns: RawColumns,
    kept: Sequence[int],
    keys: Sequence[str],
    spec: PartitionSpec,
) -> list[LogSequence]:
    """Split the kept rows of raw-record columns, with their aligned keys, into log sequences.

    identifier mode groups by ``group_id`` preserving input order within a
    group; count_window emits fixed-size windows advancing by stride (final
    shorter remainder kept); time_window emits the non-empty windows
    [t0 + k * stride, t0 + k * stride + window), t0 the earliest timestamp,
    with exact bounds for every int or finite float timestamp.
    Every mode keeps input order within a sequence. A row that its mode
    cannot place raises `PartitionError` with its index in the columns.
    """
    if len(kept) != len(keys):
        raise ValueError("kept indices and keys must be the same length")
    if not kept:
        return []
    windows = {"identifier": _groups, "count_window": _count_windows, "time_window": _time_windows}
    labels = columns.labels
    return [
        LogSequence(seq_id, [keys[j] for j in idxs], _labels_or_none([labels[kept[j]] for j in idxs]))
        for seq_id, idxs in windows[spec.mode](columns, kept, spec)
    ]


# Each mode yields (sequence id, positions in ``kept``).

def _groups(columns: RawColumns, kept: Sequence[int], spec: PartitionSpec) -> Iterator[tuple[str, list[int]]]:
    group_ids = columns.group_ids
    groups: dict[str, list[int]] = {}
    for j, i in enumerate(kept):
        group_id = group_ids[i]
        if group_id is None:
            raise PartitionError(i, "identifier mode requires group_id")
        groups.setdefault(group_id, []).append(j)
    yield from groups.items()


def _count_windows(columns: RawColumns, kept: Sequence[int], spec: PartitionSpec) -> Iterator[tuple[str, list[int]]]:
    size, stride, n = int(spec.window_size), int(spec.stride), len(kept)
    for w, start in enumerate(range(0, n, stride)):
        yield f"w{w}", list(range(start, min(start + size, n)))
        if start + size >= n:
            break


def _time_windows(columns: RawColumns, kept: Sequence[int], spec: PartitionSpec) -> Iterator[tuple[str, list[int]]]:
    timestamps = columns.timestamps
    kept_stamps = [timestamps[i] for i in kept]
    for j, stamp in enumerate(kept_stamps):
        # the window sweep does arithmetic on stamps, so an inf, a NaN, a string or a bool has no window
        if not (type(stamp) is int or type(stamp) is float and math.isfinite(stamp)):
            raise PartitionError(kept[j], "time_window mode requires a finite numeric timestamp")
    # One sweep: positions sorted by timestamp (stable), and two monotone
    # pointers bounding window k, [t0 + k * stride, t0 + k * stride + size).
    # Every float is an integer over a power of two, so scaling the size, the
    # stride and each stamp by the largest such denominator turns them into
    # ints with the same order: every bound below is exact, however far apart
    # the stamps lie. An empty stretch is jumped over to the first window that
    # reaches the next stamp.
    order = sorted(range(len(kept_stamps)), key=kept_stamps.__getitem__)
    ratios = [kept_stamps[j].as_integer_ratio() for j in order]
    size, stride = spec.window_size.as_integer_ratio(), spec.stride.as_integer_ratio()
    scale = max(den for _, den in (size, stride, *ratios))
    stamps = [num * (scale // den) for num, den in ratios]
    size, stride = (num * (scale // den) for num, den in (size, stride))
    t0, n = stamps[0], len(stamps)
    emitted = k = lo = hi = 0
    while True:
        start = t0 + k * stride
        while lo < n and stamps[lo] < start:
            lo += 1
        if lo == n:
            return
        end = start + size
        if stamps[lo] >= end:  # window k is empty, and so is every one that ends by stamps[lo];
            # the first that ends after it starts by it, since stride <= size
            k = (stamps[lo] - size - t0) // stride + 1
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


def _text_lines(path: str | Path, newline: Optional[str] = None) -> Iterator[tuple[int, str]]:
    """(line number, line) per line of a UTF-8 text file, opened with ``newline``.

    A line that is not UTF-8 raises `LineParseError`. The file is read as
    text; only where that fails is it read again, with each undecodable byte
    escaped, from the first line not yet given, so the lines before the
    fault are given in order and the error names its line.
    """
    given = 0
    try:
        with Path(path).open(encoding="utf-8", newline=newline) as fh:
            for given, line in enumerate(fh, start=1):
                yield given, line
        return
    except UnicodeDecodeError:  # raised for a whole block of the file, not for its line
        pass
    with Path(path).open(encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        for lineno, line in enumerate(islice(fh, given, None), start=given + 1):
            try:
                line.encode("utf-8")  # an escaped byte is a lone surrogate, which UTF-8 cannot encode
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                reason = f"not valid UTF-8: byte 0x{byte:02x} at column {exc.start + 1}"
                raise LineParseError(path, lineno, reason) from None
            yield lineno, line


def read_jsonl(path: str | Path, fields: Sequence[str] = ()) -> Iterator[tuple[int, dict]]:
    """(line number, object) per non-blank line of a JSON-lines file.

    A line that is not UTF-8, not a JSON object, or that lacks one of
    ``fields``, raises `LineParseError`.
    """
    decode = json.JSONDecoder().raw_decode
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line:
            continue
        # One raw_decode call parses a stripped line; where it fails or stops
        # short (trailing data, a BOM), json.loads gives the reason.
        try:
            row, end = decode(line)
        except json.JSONDecodeError:
            end = -1
        except RecursionError as exc:  # nested deeper than the decoder goes
            raise LineParseError(path, lineno, f"invalid JSON: {exc}") from None
        if end != len(line):
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LineParseError(path, lineno, f"invalid JSON: {exc.msg} at column {exc.colno}") from exc
        if not isinstance(row, dict):
            raise LineParseError(path, lineno, "expected a JSON object")
        for name in fields:
            if name not in row:
                raise LineParseError(path, lineno, f"missing field {name!r}")
        yield lineno, row


def load_raw_records(path: str | Path) -> RawColumns:
    """Raw records as columns, from one JSON object per non-blank line: a string ``message``,
    and optional ``timestamp``, ``group_id`` (a string or null) and ``label`` (true, false or null).

    Each line is decoded by one ``raw_decode`` that must end where the line ends, and each
    column is then checked in one pass by the set of its types. Only a file that fails is
    read again line by line, so `LineParseError` names its first faulty line.
    """
    try:
        with Path(path).open(encoding="utf-8") as fh:
            columns = _raw_columns(fh)
    except (ValueError, RecursionError):  # bad JSON or bad UTF-8
        columns = None
    if columns is None:  # the per-line rules, which the column checks apply at once
        for lineno, row in read_jsonl(path, ("message",)):
            if not isinstance(row["message"], str):
                raise LineParseError(path, lineno, "field 'message' must be a string")
            group_id, label = row.get("group_id"), row.get("label")
            if group_id is not None and not isinstance(group_id, str):
                raise LineParseError(path, lineno, "field 'group_id' must be a string or null")
            if label is not None and type(label) is not bool:
                raise LineParseError(path, lineno, _LABEL_RULE)
        raise AssertionError(f"{path}: the column checks found a fault that the line checks did not")
    return columns


def _raw_columns(lines: Iterable[str]) -> Optional[RawColumns]:
    """The columns of a raw-record file's lines, or None if a line breaks a rule of `load_raw_records`."""
    decode = json.JSONDecoder().raw_decode
    columns = RawColumns([], [], [], [])
    messages, timestamps, group_ids, labels = columns
    for line in lines:
        line = line.strip()
        if not line:
            continue
        row, end = decode(line)
        if end != len(line) or type(row) is not dict:  # trailing data, a second object, half of a split one
            return None
        get = row.get
        messages.append(get("message"))  # a missing message is None, which is no str
        timestamps.append(get("timestamp"))
        group_ids.append(get("group_id"))
        labels.append(get("label"))
    if (
        set(map(type, messages)) <= {str}
        and set(map(type, group_ids)) <= {str, type(None)}
        and set(map(type, labels)) <= {bool, type(None)}
    ):
        return columns
    return None


def raw_record_line(path: str | Path, index: int) -> int:
    """The line of ``path`` that holds row ``index`` of `load_raw_records(path)`, as a `PartitionError` names it.

    There is one row per non-blank line; only an error needs the line, so no row keeps one.
    """
    with Path(path).open(encoding="utf-8") as fh:
        lines = (lineno for lineno, line in enumerate(fh, start=1) if line.strip())
        return next(islice(lines, index, None))


_encode = json.encoder.encode_basestring_ascii  # a str's literal, as `json.dumps` writes it


class _Encoded(dict):
    """str -> its JSON string literal, encoded on first use."""

    def __missing__(self, text: str) -> str:
        literal = self[text] = _encode(text)
        return literal


_LABEL_FIELD = {None: "", True: ', "label": true', False: ', "label": false'}


def save_sequences(sequences: Iterable[LogSequence], path: str | Path) -> None:
    """One JSON record per line: (sequence_id, ordered key list, optional label).

    A line holds the bytes `json.dumps` writes for the record's dict; each
    distinct key is encoded once per call.
    """
    literal = _Encoded()
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(
            '{"sequence_id": %s, "keys": [%s]%s}\n'
            % (_encode(seq.id), ", ".join(map(literal.__getitem__, seq.keys)), _LABEL_FIELD[seq.label])
            for seq in sequences
        )


def load_sequences(path: str | Path, catalog: TemplateCatalog) -> list[LogSequence]:
    """The sequences of a file that `save_sequences` wrote; keys must be in the catalog and ids unique."""
    sequences, first_line = [], {}
    for lineno, row in read_jsonl(path, ("sequence_id", "keys")):
        sid = row["sequence_id"]
        if type(sid) is not str:
            raise LineParseError(path, lineno, "field 'sequence_id' must be a string")
        first = first_line.setdefault(sid, lineno)
        if first != lineno:
            raise LineParseError(path, lineno, f"repeated sequence_id {sid!r}, first at line {first}")
        if not isinstance(row["keys"], list):
            raise LineParseError(path, lineno, "field 'keys' must be a list")
        try:
            keys = catalog.lookup(row["keys"])
        except (KeyError, TypeError):  # TypeError: an unhashable key
            known = catalog.keys()
            unknown = next(k for k in row["keys"] if not isinstance(k, str) or k not in known)
            raise LineParseError(path, lineno, f"unknown log key {unknown!r}") from None
        label = row.get("label")
        if label is not None and type(label) is not bool:
            raise LineParseError(path, lineno, _LABEL_RULE)
        sequences.append(LogSequence(sid, keys, label))
    return sequences
