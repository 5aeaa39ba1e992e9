"""Per-level knowledge bases for training patterns and the LLM verdict cache.

Training KBs store deduplicated normal sub-sequences with occurrence
counts. An entry holds its pattern alone, the parent path's names below the
root, then the node names, which the level's `PARENT_DEPTH` splits where
they are needed apart; no `Seq` is built. The grouping by parent, which a
load fills, the automaton's transition index and the retrieval index are
derived on first use. With the LLM path on, each entry also holds an
example chunk, that chunk's summary (built by `detect.summary_of`, the
rule detection uses) and a sparse embedding, and retrieval ranks a
parent's entries by cosine from one posting list per embedding bucket,
holding only the entries that are non-zero there; it multiplies only the
non-zero products, yet ranks as the dense cosine does, bit for bit
(`_SiblingColumns` gives the argument). An entry is whole when inserted
or loaded; later only `train` counts its repeats, before any query runs,
so only an insert drops the transition index and its parent's lists. Test
KBs cache decided LLM verdicts per chunk, so a repeated chunk that the
symbolic detector rejects never re-queries the provider. Symbolic verdicts
are a function of the train KBs, so a `Detector` keeps them only in memory.

A train file persists only what cannot be derived. Its entries are grouped
by parent path, ``"groups": [[parent_path, rows], ...]``, in signature
order, each distinct name escaped once per save. A row is
``[nodes, occurrence_count]``; in a KB trained with the LLM on, which the
header's ``"llm"`` flag records, it is ``[nodes, occurrence_count,
example_chunk, summary, embedding]``, the embedding as its ``[[index,
value], ...]`` non-zeros. Loading checks every field of every row and
every name and interns every name; a fault raises `FormatError` naming
the group and the row.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import sys
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from operator import add, itemgetter, lt, mul, truediv
from pathlib import Path
from typing import Optional, Sequence

from .errors import FormatError, KnowledgeBaseError
from .hierarchy import LEVELS, PARENT_DEPTH, ROOT, SIG_NODE_SEP, escape_name, signature
from .semantics import EMBED_DIM, SparseVector, sparse_vector

KB_FORMAT_VERSION = 4

# objects, not strings, so that no node name can equal one; a pair holding
# one still matches the stored pair by identity, as the interned names do
START_MARK = object()
END_MARK = object()
_NO_TRANSITIONS: frozenset = frozenset()

_CHUNK_SEP = "\x1f"


def chunk_key(chunk: Sequence[str]) -> str:
    """The LLM-cache key of a log-key chunk: its keys, ``\\`` and ``\\x1f`` escaped, joined by ``\\x1f``."""
    return _CHUNK_SEP.join([k.replace("\\", "\\\\").replace(_CHUNK_SEP, "\\" + _CHUNK_SEP) for k in chunk])


@dataclass(slots=True)
class TrainEntry:
    pattern: tuple[str, ...]  # its key in the KB's entries: the parent's names, then the node names
    example_chunk: Optional[list[str]]  # None in a KB trained with the LLM off
    occurrence_count: int = 1
    summary: Optional[str] = None
    embedding: Optional[SparseVector] = None


@dataclass
class TestEntry:
    """A decided LLM verdict for one chunk at one level."""

    chunk_key: str
    verdict: str  # normal | abnormal
    explanation: Optional[str] = None
    confidence_flag: str = "normal"  # normal | low


@dataclass
class KnowledgeBase:
    level: str
    role: str  # train | test
    entries: dict = field(default_factory=dict)
    # a train KB trained with the LLM on: its entries carry example chunks,
    # summaries and embeddings, and its file persists them
    llm: bool = False

    def __post_init__(self):
        # Never persisted: per parent (a pattern's first PARENT_DEPTH names), the entries, kept by every
        # insert and load; the pairs of the transition index; and the posting lists that rank a parent's
        # entries, built at its first retrieval query. An insert drops the index and its parent's lists, and
        # only an insert does: an entry is whole when inserted.
        self._groups: dict[tuple[str, ...], list[TrainEntry]] = {}
        self._transitions: Optional[dict[tuple[str, ...], set[tuple[str, str]]]] = None
        self._columns: dict[tuple[str, ...], Optional[_SiblingColumns]] = {}

    # -- training side ------------------------------------------------------

    def insert_train(self, pattern: tuple[str, ...], chunk: Sequence[str], summary: Optional[str] = None,
                     embedding: Optional[SparseVector] = None) -> TrainEntry:
        """Create a new normal pattern's whole entry, count 1; the caller counts repeats, as `train` does."""
        self._require(role="train")
        parent = pattern[:PARENT_DEPTH[self.level]]
        group = self._groups.setdefault(parent, [])
        if pattern in self.entries:  # a re-insert replaces the entry
            group.remove(self.entries[pattern])
        entry = self.entries[pattern] = TrainEntry(pattern, list(chunk) if self.llm else None, 1, summary, embedding)
        group.append(entry)
        self._transitions = self._columns[parent] = None
        return entry

    def contains(self, pattern: tuple[str, ...]) -> bool:
        return pattern in self.entries

    def transition_index(self) -> dict[tuple[str, ...], set[tuple[str, str]]]:
        """Parent names -> the adjacent node-name pairs of its entries, start and end marks included."""
        if self._transitions is None:
            depth = PARENT_DEPTH[self.level]
            self._transitions = {
                parent: set(chain.from_iterable(
                    zip((START_MARK, *e.pattern[depth:]), (*e.pattern[depth:], END_MARK)) for e in group
                ))
                for parent, group in self._groups.items()
            }
        return self._transitions

    def accepts_transitions(self, parent: tuple[str, ...], nodes: Sequence[str]) -> bool:
        """True iff every adjacent pair (with start/end marks) was seen in training under the parent's names."""
        index = self._transitions or self.transition_index()  # an empty index is returned as it is
        return index.get(parent, _NO_TRANSITIONS).issuperset(zip([START_MARK, *nodes], [*nodes, END_MARK]))

    def retrieve_similar(self, parent: tuple[str, ...], query: SparseVector, m: int) -> list[TrainEntry]:
        """Top-m entries by cosine similarity among the siblings under the parent's names.

        Ties break by higher occurrence count, then smaller signature.
        Raises when siblings exist but lack embeddings.
        """
        columns = self._columns.get(parent)
        if columns is None:  # never built, or dropped by an insert under the parent
            siblings = self._groups.get(parent, [])
            missing = [signature(self.level, e.pattern) for e in siblings if e.embedding is None]
            if missing:
                raise KnowledgeBaseError(f"entries lack embeddings (re-embed needed): {', '.join(sorted(missing)[:5])}")
            columns = self._columns[parent] = _SiblingColumns(siblings)
        return columns.top(query, m)

    # -- test side ----------------------------------------------------------

    def lookup_test(self, ck: str) -> Optional[TestEntry]:
        self._require(role="test")
        return self.entries.get(ck)

    def store_test(self, entry: TestEntry) -> None:
        self._require(role="test")
        self.entries[entry.chunk_key] = entry

    # -- persistence --------------------------------------------------------

    def to_json(self) -> dict:
        data = {"format_version": KB_FORMAT_VERSION, "role": self.role, "level": self.level}
        if self.role == "test":
            rows = sorted(self.entries.items())
            data["entries"] = [{name: getattr(e, name) for name in _TEST_FIELDS} for _, e in rows]
            return data
        row, depth = _llm_row if self.llm else _row, PARENT_DEPTH[self.level]
        # groups in the order of their parent paths' text, and a group's entries in the order of their patterns'
        # text, which is their node names' since they share their parent
        text = _joined_escaped(chain.from_iterable(self.entries))
        data["llm"] = self.llm
        data["groups"] = [
            [[ROOT, *parent], [row(e, depth) for e in sorted(group, key=lambda e: text(e.pattern))]]
            for parent, group in sorted(self._groups.items(), key=lambda item: text(item[0]))
        ]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "KnowledgeBase":
        version = data.get("format_version") if isinstance(data, dict) else None
        if version != KB_FORMAT_VERSION:
            raise FormatError(f"KB format version {version!r}, expected {KB_FORMAT_VERSION}")
        kb = cls(level=data.get("level"), role=data.get("role"))
        if kb.role not in ("train", "test") or kb.level not in LEVELS:
            raise FormatError("a KB needs a role (train or test) and a level")
        if kb.role == "test":
            rows = data.get("entries")
            if type(rows) is not list:
                raise FormatError("a test KB needs a list of entries")
            columns = _columns(rows, _TEST_FIELDS)
            kb.entries = dict(zip(columns[0], map(TestEntry, *columns)))  # by chunk key
            if len(kb.entries) < len(rows):  # else row order would pick the verdict of a repeated chunk key
                first: dict[str, int] = {}
                n = next(n for n, ck in enumerate(columns[0]) if first.setdefault(ck, n) != n)
                raise FormatError(f"entry {n}: repeats the chunk key of entry {first[columns[0][n]]}")
        else:
            kb.llm, groups = data.get("llm"), data.get("groups")
            if type(kb.llm) is not bool or type(groups) is not list:
                raise FormatError("a train KB needs an llm flag (true or false) and a list of groups")
            _load_groups(kb, groups)
        return kb

    def save(self, path: str | Path) -> None:
        path = Path(path)
        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
        fh = open(tmp, "x")  # a new file, so the umask sets its mode, as for any other artifact
        try:
            with fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "KnowledgeBase":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, RecursionError, UnicodeDecodeError, OSError) as exc:
            raise FormatError(f"cannot load KB from {path}: {exc}") from exc
        try:
            return cls.from_json(data)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}; re-run `hierlog train` to rebuild the KBs") from exc

    def __eq__(self, other) -> bool:
        return isinstance(other, KnowledgeBase) and self.to_json() == other.to_json()

    def _require(self, role: str) -> None:
        if self.role != role:
            raise KnowledgeBaseError(f"operation requires a {role} KB, got {self.role}")


class _SiblingColumns:
    """The embeddings of one parent's siblings as sparse columns: one posting list per bucket that any of them uses.

    A bucket's list holds ``(tie rank, value)`` for each sibling whose
    value there is non-zero, in the tie order. `top` gives each sibling,
    bit for bit, the cosine of its dense vector and the query's. For each
    of the query's buckets, which a `SparseVector` holds in ascending index
    order, the order a dense dot product sums in, it adds the query's value
    times the sibling's to that sibling's dot product, which starts at
    +0.0; then it divides by the two norms. So each sibling's sum takes the
    dense sum's non-zero-valued products in the dense order. The dense
    sum's other terms are ``x * 0.0`` for a finite ``x``, +0.0 or -0.0, and
    adding either to an IEEE sum that starts at +0.0 changes nothing, as
    such a sum is never -0.0; so negative values and exact ties need no
    special case. `embed_chunk` makes finite vectors, and
    `KnowledgeBase.from_json` rejects any other.

    The siblings are held in the tie order, higher occurrence count first,
    then smaller signature, so a stable sort by descending cosine ranks as
    the key ``(-cosine, -occurrence_count, signature)`` does. A sibling
    whose non-zeros underflow to a norm of 0.0 has cosine 0.0, as the dense
    cosine gives it, so it stays out of the posting lists and divides its
    0.0 dot product by the query's norm alone. A zero query ranks by the
    tie order alone.

    Over the 461 siblings of llm-hybrid's seed-7 train KBs, the lists hold
    4,355 non-zeros, 0.32 MB with their tuples; dense columns would hold
    14,216 slots. A query of that workload's online pass multiplies 167
    values on average, where dense columns would multiply 416.
    """

    __slots__ = ("by_rank", "zeros", "postings", "norms")

    def __init__(self, siblings: list[TrainEntry]):
        # siblings share their parent, so their patterns' text orders them as their signatures
        text = _joined_escaped(chain.from_iterable(e.pattern for e in siblings))
        self.by_rank = sorted(siblings, key=lambda e: (-e.occurrence_count, text(e.pattern)))
        self.zeros = [0.0] * len(siblings)
        self.postings: dict[int, list[tuple[int, float]]] = {}  # bucket -> (tie rank, value) of its non-zeros
        self.norms = []
        for j, vector in enumerate(e.embedding for e in self.by_rank):
            self.norms.append(vector.norm or 1.0)
            if vector.norm:
                for i, x in vector.nonzeros.items():
                    self.postings.setdefault(i, []).append((j, x))

    def top(self, query: SparseVector, m: int) -> list[TrainEntry]:
        """The first m siblings by descending cosine with `query`, then in the tie order."""
        qn = query.norm
        if qn == 0.0:
            return self.by_rank[:m]
        dots, postings = self.zeros.copy(), self.postings  # each sibling's sum, from +0.0 up
        for i, x in query.nonzeros.items():
            for j, v in postings.get(i, ()):
                dots[j] += x * v
        cosines = list(map(truediv, dots, map(mul, repeat(qn), self.norms)))
        ranked = sorted(range(len(cosines)), key=cosines.__getitem__, reverse=True)  # stable: ties stay in tie order
        return [self.by_rank[j] for j in ranked[:m]]


# -- the train file's rows -----------------------------------------------------


def _joined_escaped(names):
    """A function that joins a list of these `names`, escaped, as a signature does; each name is escaped once."""
    escaped = {name: text for name in set(names) if (text := escape_name(name)) != name}
    return (lambda names: SIG_NODE_SEP.join([escaped.get(n, n) for n in names])) if escaped else SIG_NODE_SEP.join


def _row(entry: TrainEntry, depth: int) -> list:
    return [list(entry.pattern[depth:]), entry.occurrence_count]


def _llm_row(entry: TrainEntry, depth: int) -> list:
    embedding = entry.embedding
    pairs = None if embedding is None else [[i, x] for i, x in embedding.nonzeros.items()]
    return [list(entry.pattern[depth:]), entry.occurrence_count, entry.example_chunk, entry.summary, pairs]


# -- validation on load ---------------------------------------------------------
#
# A KB holds thousands of entries and loading is on the detector's set-up
# path, so each field is checked down a whole column of entries, by set
# operations that run in C; only a fault is looked up entry by entry.

_ABSENT = object()


def _of_type(*types):
    allowed = set(types)
    return lambda column: set(map(type, column)) <= allowed


def _among(*values):
    return lambda column: set(map(type, column)) <= {str} and set(column) <= set(values)


def _name_lists(length: Optional[int] = None):
    """Each value a non-empty list of strings, of `length` strings when given."""

    def check(column) -> bool:
        lengths = set(map(len, column)) if set(map(type, column)) <= {list} else {-1}
        ok = lengths <= {length} if length is not None else min(lengths, default=1) > 0
        return ok and set(map(type, chain.from_iterable(column))) <= {str}

    return check


def _embeddings(column) -> bool:
    """Each value None, or the ``[[index, value], ...]`` non-zeros of a vector whose sparse cosine is exact.

    Indices are ints that ascend strictly within [0, EMBED_DIM); values are
    finite non-zero floats whose squares sum to a finite norm.
    """
    vectors = [v for v in column if v is not None]
    if not set(map(type, vectors)) <= {list}:
        return False
    pairs = list(chain.from_iterable(vectors))
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
        return False
    indices, values = list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs))
    if not (set(map(type, indices)) <= {int} and set(map(type, values)) <= {float}):
        return False
    if not (0 <= min(indices, default=0) and max(indices, default=0) < EMBED_DIM):
        return False
    if 0.0 in values or not all(map(math.isfinite, values)):  # 0.0 == -0.0
        return False
    # each vector's indices ascend strictly iff, shifted up by EMBED_DIM more
    # for each later vector, all of them do
    shifts = chain.from_iterable(repeat(k * EMBED_DIM, len(v)) for k, v in enumerate(vectors))
    shifted = list(map(add, indices, shifts))
    if not all(map(lt, shifted, islice(shifted, 1, None))):
        return False
    # a square is never negative, so a vector's sum of squares is finite when the sum over all vectors is
    return math.isfinite(sum(map(mul, values, values))) or all(
        math.isfinite(sum(x * x for _, x in vector)) for vector in vectors
    )


# field -> check of a column of its values: a train row's, in row order, and a test entry's
_ROW_FIELDS = {
    "nodes": _name_lists(),
    "occurrence_count": lambda column: set(map(type, column)) <= {int} and min(column, default=1) > 0,
    "example_chunk": _name_lists(),
    "summary": _of_type(str, type(None)),
    "embedding": _embeddings,
}
_TEST_FIELDS = {
    "chunk_key": _of_type(str),
    "verdict": _among("normal", "abnormal"),
    "explanation": _of_type(str, type(None)),
    "confidence_flag": _among("normal", "low"),
}
_OPTIONAL = {"explanation"}  # absent means null


def _fault(column: list, check, name: str) -> tuple[int, str]:
    """The index of the first value of `column` that fails `check`, and what is wrong with it."""
    n, value = next((n, v) for n, v in enumerate(column) if not check([v]))
    return n, f"missing field {name!r}" if value is _ABSENT else f"field {name!r} has a bad value {value!r}"


def _columns(rows: list, spec: dict) -> list[list]:
    """The values of each field that `spec` names across all test entries, checked."""
    if not set(map(type, rows)) <= {dict}:
        n = next(n for n, row in enumerate(rows) if type(row) is not dict)
        raise FormatError(f"entry {n} is not an object")
    columns = []
    for name, check in spec.items():
        absent = None if name in _OPTIONAL else _ABSENT
        column = [row.get(name, absent) for row in rows]
        if not check(column):
            n, fault = _fault(column, check, name)
            raise FormatError(f"entry {n}: {fault}")
        columns.append(column)
    return columns


def _load_groups(kb: KnowledgeBase, groups: list) -> None:
    """Check the ``[parent_path, rows]`` groups of a train file and fill `kb` from them."""
    if not (set(map(type, groups)) <= {list} and set(map(len, groups)) <= {2}):
        g = next(g for g, group in enumerate(groups) if type(group) is not list or len(group) != 2)
        raise FormatError(f"group {g} is not a [parent_path, rows] pair")
    parents, row_lists = [g[0] for g in groups], [g[1] for g in groups]
    for name, column, check in (
        ("parent_path", parents, _name_lists(PARENT_DEPTH[kb.level] + 1)), ("rows", row_lists, _of_type(list))
    ):
        if not check(column):
            g, fault = _fault(column, check, name)
            raise FormatError(f"group {g}: {fault}")

    def where(n: int) -> str:  # a row's index over all groups -> its place in the file
        for g, rows in enumerate(row_lists):
            if n < len(rows):
                return f"group {g}, row {n}"
            n -= len(rows)

    all_rows = list(chain.from_iterable(row_lists))
    spec = list(_ROW_FIELDS.items())[: 5 if kb.llm else 2]
    width = len(spec)
    if not (set(map(type, all_rows)) <= {list} and set(map(len, all_rows)) <= {width}):
        n, row = next((n, row) for n, row in enumerate(all_rows) if type(row) is not list or len(row) != width)
        if type(row) is not list:
            fault = "is not a list"
        elif len(row) < width:
            fault = f"missing field {spec[len(row)][0]!r}"
        else:
            fault = f"has {len(row)} fields, but a row of this KB has {width}"
        raise FormatError(f"{where(n)}: {fault}")
    columns = list(zip(*all_rows)) or [()] * width
    for (name, check), column in zip(spec, columns):
        if not check(column):
            n, fault = _fault(column, check, name)
            raise FormatError(f"{where(n)}: {fault}")

    # Every name is interned once, here, so the pairs that a probe builds
    # from the tree's names match the derived transition pairs by identity.
    intern, entries, llm = sys.intern, kb.entries, kb.llm
    for g, (parent, rows) in enumerate(zip(parents, row_lists)):
        if parent[0] != ROOT:
            raise FormatError(f"group {g}: a parent path starts at {ROOT!r}, not {parent[0]!r}")
        if not rows:  # an empty group holds nothing to keep
            continue
        names = tuple(map(intern, parent[1:]))
        group = kb._groups.setdefault(names, [])
        for r, row in enumerate(rows):
            pattern = (*names, *map(intern, row[0]))
            if pattern in entries:
                raise FormatError(f"group {g}, row {r}: repeats the parent path and nodes of an earlier row")
            if llm:
                _, count, chunk, summary, pairs = row
                embedding = None if pairs is None else sparse_vector(dict(pairs))
                entry = TrainEntry(pattern, chunk, count, summary, embedding)
            else:
                entry = TrainEntry(pattern, None, row[1])
            entries[pattern] = entry
            group.append(entry)


class KnowledgeBaseSet:
    """The six KBs of one run: train and test, one per level."""

    def __init__(self, llm: bool = False):
        self.train = {level: KnowledgeBase(level=level, role="train", llm=llm) for level in LEVELS}
        self.test = {level: KnowledgeBase(level=level, role="test") for level in LEVELS}

    def save_dir(self, directory: str | Path, train: bool = True) -> None:
        """Write the six KB files, or with ``train=False`` only the three LLM caches.

        Detection never changes a train KB, so it writes the caches alone.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for level in LEVELS:
            if train:
                self.train[level].save(directory / f"train_{level}.json")
            self.test[level].save(directory / f"test_{level}.json")

    @classmethod
    def load_dir(cls, directory: str | Path) -> "KnowledgeBaseSet":
        """Load the six KB files; a test file may be absent (an empty cache)."""
        directory = Path(directory)
        kbs = cls()
        for role, kb_by_level in (("train", kbs.train), ("test", kbs.test)):
            for level in LEVELS:
                path = directory / f"{role}_{level}.json"
                if role == "test" and not path.exists():
                    continue
                kb = KnowledgeBase.load(path)
                if (kb.role, kb.level) != (role, level):
                    raise FormatError(
                        f"{path} holds the {kb.role} KB of level {kb.level!r}, "
                        f"not the {role} KB of level {level!r}"
                    )
                kb_by_level[level] = kb
        return kbs
