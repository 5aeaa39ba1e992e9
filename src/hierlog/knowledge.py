"""Per-level knowledge bases for training patterns and the LLM verdict cache.

Training KBs store deduplicated normal sub-sequences (keyed by signature,
with occurrence counts and an adjacency transition index per escaped
parent path). Test KBs cache decided LLM verdicts per chunk, so a
repeated pattern that the symbolic detector rejects never re-queries the
provider. Symbolic verdicts are never cached: the train-KB probe is
already exact and cheap.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .decompose import Seq
from .errors import FormatError, KnowledgeBaseError
from .hierarchy import LEVELS

KB_FORMAT_VERSION = 2

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
    embedding: Optional[list[float]] = None


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
        # Retrieval caches, built lazily and never persisted: parent path ->
        # sibling entries in insertion order, and signature -> prepared vector.
        self._siblings: Optional[dict[tuple[str, ...], list[TrainEntry]]] = None
        self._vectors: dict[str, _Prepared] = {}

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
        self, parent_path: Sequence[str], query_embedding: Sequence[float], m: int
    ) -> list[TrainEntry]:
        """Top-m sibling entries by cosine similarity.

        Ties break by higher occurrence count, then smaller signature.
        Raises when siblings exist but lack embeddings. Each cosine equals
        ``_cosine(query_embedding, entry.embedding)`` bit for bit.
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
        query = _prepare(query_embedding)
        ranked = sorted(
            siblings,
            key=lambda e: (-_sparse_cosine(query, self._vector(e)), -e.occurrence_count, e.signature),
        )
        return ranked[: max(m, 0)]

    def _vector(self, entry: TrainEntry) -> "_Prepared":
        """The entry's prepared vector, rebuilt when its embedding was replaced."""
        prepared = self._vectors.get(entry.signature)
        if prepared is None or prepared.embedding is not entry.embedding:
            prepared = self._vectors[entry.signature] = _prepare(entry.embedding)
        return prepared

    # -- test side ----------------------------------------------------------

    def lookup_test(self, ck: str) -> Optional[TestEntry]:
        self._require(role="test")
        return self.entries.get(ck)

    def store_test(self, entry: TestEntry) -> None:
        self._require(role="test")
        self.entries[entry.chunk_key] = entry

    # -- persistence --------------------------------------------------------

    def to_json(self) -> dict:
        data = {
            "format_version": KB_FORMAT_VERSION,
            "role": self.role,
            "level": self.level,
        }
        if self.role == "train":
            data["entries"] = [
                {
                    "signature": e.signature,
                    "parent_path": e.parent_path,
                    "nodes": e.nodes,
                    "example_chunk": e.example_chunk,
                    "occurrence_count": e.occurrence_count,
                    "summary": e.summary,
                    "embedding": e.embedding,
                }
                for e in sorted(self.entries.values(), key=lambda e: e.signature)
            ]
            data["transition_index"] = {
                parent: sorted(map(list, pairs))
                for parent, pairs in sorted(self.transition_index.items())
            }
        else:
            data["entries"] = [
                {
                    "chunk_key": e.chunk_key,
                    "verdict": e.verdict,
                    "explanation": e.explanation,
                    "confidence_flag": e.confidence_flag,
                }
                for e in sorted(self.entries.values(), key=lambda e: e.chunk_key)
            ]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "KnowledgeBase":
        version = data.get("format_version")
        if version != KB_FORMAT_VERSION:
            raise FormatError(f"KB format version {version!r}, expected {KB_FORMAT_VERSION}")
        kb = cls(level=data["level"], role=data["role"])
        if kb.role == "train":
            for row in data["entries"]:
                kb.entries[row["signature"]] = TrainEntry(
                    signature=row["signature"],
                    parent_path=row["parent_path"],
                    nodes=row["nodes"],
                    example_chunk=row["example_chunk"],
                    occurrence_count=row["occurrence_count"],
                    summary=row.get("summary"),
                    embedding=row.get("embedding"),
                )
            kb.transition_index = {
                parent: {tuple(pair) for pair in pairs}
                for parent, pairs in data.get("transition_index", {}).items()
            }
        else:
            for row in data["entries"]:
                kb.entries[row["chunk_key"]] = TestEntry(
                    chunk_key=row["chunk_key"],
                    verdict=row["verdict"],
                    explanation=row.get("explanation"),
                    confidence_flag=row["confidence_flag"],
                )
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


def _cosine(a: Sequence[float], b: Sequence[float]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


class _Prepared(NamedTuple):
    embedding: Sequence[float]  # the vector prepared, compared by identity
    nonzeros: dict[int, float]  # index -> value, ascending index order
    norm: float


def _prepare(vector: Sequence[float]) -> _Prepared:
    nonzeros = {i: x for i, x in enumerate(vector) if x != 0.0}
    return _Prepared(vector, nonzeros, math.sqrt(sum(x * x for x in nonzeros.values())))


def _sparse_cosine(a: _Prepared, b: _Prepared) -> float:
    """``_cosine`` over non-zeros only, with the same result bit for bit.

    A zero term adds nothing to an IEEE sum that starts at +0.0, and shared
    indices are below both lengths, as under ``zip``. That fails only when a
    zero meets inf or NaN (0 * inf is NaN), so a non-finite norm falls back.
    """
    if a.norm == 0.0 or b.norm == 0.0:
        return 0.0
    if not (math.isfinite(a.norm) and math.isfinite(b.norm)):
        return _cosine(a.embedding, b.embedding)
    bz = b.nonzeros
    dot = sum(x * bz[i] for i, x in a.nonzeros.items() if i in bz)
    return dot / (a.norm * b.norm)


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
