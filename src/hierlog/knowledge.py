"""Per-level knowledge bases for training patterns and the LLM verdict cache.

Training KBs store deduplicated normal sub-sequences (keyed by signature,
with occurrence counts and an adjacency transition index per escaped
parent path). With the LLM path on, each entry also holds a summary and
a sparse embedding, persisted as its ``[[index, value], ...]`` non-zeros.
Test KBs cache decided LLM verdicts per chunk, so a repeated pattern that
the symbolic detector rejects never re-queries the provider. Symbolic
verdicts are never cached: the train-KB probe is already exact and cheap.
Loading checks every field of every entry and raises `FormatError` naming
the entry and the field.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .decompose import Seq
from .errors import FormatError, KnowledgeBaseError
from .hierarchy import LEVELS
from .semantics import EMBED_DIM, SparseVector, sparse_vector

KB_FORMAT_VERSION = 3

START_MARK = "<start>"
END_MARK = "<end>"

_CHUNK_SEP = "\x1f"


def chunk_key(chunk: Sequence[str]) -> str:
    """Canonical encoding of a log-key chunk (the LLM-cache key)."""
    return _CHUNK_SEP.join(chunk)


@dataclass
class TrainEntry:
    signature: str
    parent_path: list[str]
    nodes: list[str]
    example_chunk: list[str]
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
    # escaped parent path (Seq.parent_key) -> set of (prev, next) node-name
    # pairs incl. start/end marks
    transition_index: dict[str, set[tuple[str, str]]] = field(default_factory=dict)

    def __post_init__(self):
        # Retrieval index, built lazily and never persisted: parent path ->
        # sibling entries in insertion order.
        self._siblings: Optional[dict[tuple[str, ...], list[TrainEntry]]] = None

    # -- training side ------------------------------------------------------

    def insert_train(self, seq: Seq) -> TrainEntry:
        """Record a normal sub-sequence; repeats bump the occurrence count."""
        self._require(role="train", level=seq.level)
        entry = self.entries.get(seq.signature)
        if entry is None:
            entry = TrainEntry(
                signature=seq.signature,
                parent_path=list(seq.parent_path),
                nodes=list(seq.nodes),
                example_chunk=list(seq.chunk),
            )
            self.entries[seq.signature] = entry
            self._siblings = None
        else:
            entry.occurrence_count += 1
        transitions = self.transition_index.setdefault(seq.parent_key, set())
        walk = [START_MARK] + list(seq.nodes) + [END_MARK]
        transitions.update(zip(walk, walk[1:]))
        return entry

    def contains(self, signature: str) -> bool:
        return signature in self.entries

    def accepts_transitions(self, parent_key: str, nodes: Sequence[str]) -> bool:
        """True iff every adjacent pair (with start/end marks) was seen in training."""
        transitions = self.transition_index.get(parent_key, set())
        walk = [START_MARK] + list(nodes) + [END_MARK]
        return all(pair in transitions for pair in zip(walk, walk[1:]))

    def retrieve_similar(
        self, parent_path: Sequence[str], query: SparseVector, m: int
    ) -> list[TrainEntry]:
        """Top-m sibling entries by cosine similarity.

        Ties break by higher occurrence count, then smaller signature.
        Raises when siblings exist but lack embeddings.
        """
        self._require(role="train")
        if self._siblings is None:
            self._siblings = {}
            for e in self.entries.values():
                self._siblings.setdefault(tuple(e.parent_path), []).append(e)
        siblings = self._siblings.get(tuple(parent_path), [])
        missing = [e.signature for e in siblings if e.embedding is None]
        if missing:
            raise KnowledgeBaseError(
                f"entries lack embeddings (re-embed needed): {', '.join(sorted(missing)[:5])}"
            )
        ranked = sorted(
            siblings,
            key=lambda e: (-_sparse_cosine(query, e.embedding), -e.occurrence_count, e.signature),
        )
        return ranked[: max(m, 0)]

    # -- test side ----------------------------------------------------------

    def lookup_test(self, ck: str) -> Optional[TestEntry]:
        self._require(role="test")
        return self.entries.get(ck)

    def store_test(self, entry: TestEntry) -> None:
        self._require(role="test")
        self.entries[entry.chunk_key] = entry

    # -- persistence --------------------------------------------------------

    def to_json(self) -> dict:
        _, spec = _ENTRIES[self.role]
        entries = [{name: getattr(e, name) for name in spec} for _, e in sorted(self.entries.items())]
        data = {"format_version": KB_FORMAT_VERSION, "role": self.role, "level": self.level, "entries": entries}
        if self.role == "train":
            for row in entries:
                if row["embedding"] is not None:
                    row["embedding"] = [[i, x] for i, x in row["embedding"].nonzeros.items()]
            data["transition_index"] = {
                parent: sorted(map(list, pairs)) for parent, pairs in sorted(self.transition_index.items())
            }
        return data

    @classmethod
    def from_json(cls, data: dict) -> "KnowledgeBase":
        version = data.get("format_version") if isinstance(data, dict) else None
        if version != KB_FORMAT_VERSION:
            raise FormatError(f"KB format version {version!r}, expected {KB_FORMAT_VERSION}")
        kb = cls(level=data.get("level"), role=data.get("role"))
        rows, index = data.get("entries"), data.get("transition_index", {})
        if kb.role not in ("train", "test") or kb.level not in LEVELS or (type(rows), type(index)) != (list, dict):
            raise FormatError("a KB needs a role (train or test), a level, a list of entries and a transition map")
        entry_class, spec = _ENTRIES[kb.role]
        columns = _columns(rows, spec)
        kb.entries = dict(zip(columns[0], map(entry_class, *columns)))  # by signature or chunk key
        if kb.role == "train":
            for entry in kb.entries.values():
                if entry.embedding is not None:
                    entry.embedding = sparse_vector(dict(entry.embedding))
            kb.transition_index = {parent: {tuple(pair) for pair in pairs} for parent, pairs in index.items()}
        return kb

    def save(self, path: str | Path) -> None:
        path = Path(path)
        payload = json.dumps(self.to_json(), sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "KnowledgeBase":
        try:
            data = json.loads(Path(path).read_text())
        except (json.JSONDecodeError, OSError) as exc:
            raise FormatError(f"cannot load KB from {path}: {exc}") from exc
        try:
            return cls.from_json(data)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}; re-run `hierlog train` to rebuild the KBs") from exc

    def __eq__(self, other) -> bool:
        return isinstance(other, KnowledgeBase) and self.to_json() == other.to_json()

    def _require(self, role: Optional[str] = None, level: Optional[str] = None) -> None:
        if role is not None and self.role != role:
            raise KnowledgeBaseError(f"operation requires a {role} KB, got {self.role}")
        if level is not None and self.level != level:
            raise KnowledgeBaseError(f"level mismatch: KB is {self.level}, got {level}")


def _sparse_cosine(a: SparseVector, b: SparseVector) -> float:
    """The cosine of the dense vectors that a and b stand for, bit for bit, summed over shared indices only.

    A zero term adds nothing to an IEEE sum that starts at +0.0 as long as
    the other factor is finite (0 * inf is NaN). `embed_chunk` makes finite
    vectors, and `KnowledgeBase.from_json` rejects any other.
    """
    if a.norm == 0.0 or b.norm == 0.0:
        return 0.0
    bz = b.nonzeros
    dot = sum(x * bz[i] for i, x in a.nonzeros.items() if i in bz)
    return dot / (a.norm * b.norm)


# -- validation on load ---------------------------------------------------------
#
# A KB holds thousands of entries and loading is on the detector's set-up
# path, so each field is checked down a whole column of entries, by set
# operations that run in C; only a fault is looked up entry by entry. The
# strings inside list fields go unchecked, because checking each of them
# costs more than all the other checks together.

_ABSENT = object()


def _of_type(*types):
    allowed = set(types)
    return lambda column: set(map(type, column)) <= allowed


def _among(*values):
    return lambda column: set(map(type, column)) <= {str} and set(column) <= set(values)


def _is_embedding(value) -> bool:
    """None, or the ``[[index, value], ...]`` non-zeros of a vector whose sparse cosine is exact.

    Indices are ints that ascend strictly within [0, EMBED_DIM); values are
    finite non-zero floats whose squares sum to a finite norm.
    """
    if value is None:
        return True
    if not (isinstance(value, list) and all(isinstance(p, list) and len(p) == 2 for p in value)):
        return False
    indices = [-1] + [i for i, _ in value] + [EMBED_DIM]
    return (
        all(type(i) is int for i in indices)
        and all(a < b for a, b in zip(indices, indices[1:]))
        and all(type(x) is float and x != 0.0 and math.isfinite(x) for _, x in value)
        and math.isfinite(sum(x * x for _, x in value))
    )


# field -> check of a column of its values, in the order of the entry class's fields
_TRAIN_FIELDS = {
    "signature": _of_type(str),
    "parent_path": _of_type(list),
    "nodes": _of_type(list),
    "example_chunk": _of_type(list),
    "occurrence_count": lambda column: set(map(type, column)) <= {int} and min(column, default=1) > 0,
    "summary": _of_type(str, type(None)),
    "embedding": lambda column: all(map(_is_embedding, column)),
}
_TEST_FIELDS = {
    "chunk_key": _of_type(str),
    "verdict": _among("normal", "abnormal"),
    "explanation": _of_type(str, type(None)),
    "confidence_flag": _among("normal", "low"),
}
_OPTIONAL = {"summary", "embedding", "explanation"}  # absent means null
_ENTRIES = {"train": (TrainEntry, _TRAIN_FIELDS), "test": (TestEntry, _TEST_FIELDS)}


def _columns(rows: list, spec: dict) -> list[list]:
    """The values of each field that `spec` names across all entries, checked."""
    if not set(map(type, rows)) <= {dict}:
        n = next(n for n, row in enumerate(rows) if type(row) is not dict)
        raise FormatError(f"entry {n} is not an object")
    columns = []
    for name, check in spec.items():
        absent = None if name in _OPTIONAL else _ABSENT
        column = [row.get(name, absent) for row in rows]
        if not check(column):
            n, value = next((n, v) for n, v in enumerate(column) if not check([v]))
            fault = f"missing field {name!r}" if value is _ABSENT else f"field {name!r} has a bad value {value!r}"
            raise FormatError(f"entry {n}: {fault}")
        columns.append(column)
    return columns


class KnowledgeBaseSet:
    """The six KBs of one run: train and test, one per level."""

    def __init__(self):
        self.train = {level: KnowledgeBase(level=level, role="train") for level in LEVELS}
        self.test = {level: KnowledgeBase(level=level, role="test") for level in LEVELS}

    def save_dir(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for level in LEVELS:
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
