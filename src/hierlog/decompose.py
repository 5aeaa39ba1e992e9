"""Recursive decomposition of key sequences along the topic tree.

A flat list of log keys becomes one entity-level sequence, a list of
action-level sequences (one per entity chunk), and a list of status-level
sequences (one per action chunk). Entity and action levels collapse
consecutive duplicate nodes; the status level never collapses, so every
status transition survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import DecompositionError
from .hierarchy import ACTION, ENTITY, SIG_NODE_SEP, SIG_PARENT_SEP, STATUS, TopicTree


@dataclass(slots=True)
class Seq:
    """A run of sibling nodes at one level, with the key chunk it covers."""

    level: str
    parent_path: tuple[str, ...]  # node names, root first
    nodes: list[str]  # node names at `level`
    chunk: list[str]  # flat log keys covered
    parent_key: str  # escaped parent path: the signature's prefix and the transition-index key
    escaped: dict[str, str] = field(repr=False, compare=False)  # the tree's name -> escaped name
    children: Optional[list["Seq"]] = None  # absent at status level
    # built on first read, so decomposing alone costs no more and early exit
    # leaves the unread higher-level signatures unbuilt
    _signature: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    @property
    def signature(self) -> str:
        """Canonical KB key, injective over (parent path names, node names), built once."""
        sig = self._signature
        if sig is None:
            nodes = SIG_NODE_SEP.join(map(self.escaped.__getitem__, self.nodes))
            sig = self._signature = self.parent_key + SIG_PARENT_SEP + nodes
        return sig


@dataclass
class DecompositionResult:
    e_seq: Seq
    a_seqs: list[Seq] = field(default_factory=list)
    s_seqs: list[Seq] = field(default_factory=list)

    def all_seqs(self) -> list[Seq]:
        return self.s_seqs + self.a_seqs + [self.e_seq]

    def by_level(self, level: str) -> list[Seq]:
        if level == STATUS:
            return self.s_seqs
        if level == ACTION:
            return self.a_seqs
        return [self.e_seq]


def top_down_decompose(keys: Sequence[str], tree: TopicTree) -> DecompositionResult:
    """Decompose a key sequence into its entity/action/status sub-sequences.

    The entity-level pass chunks the whole sequence; each entity chunk is
    re-chunked at the action level, and each action chunk at the status
    level. Parent paths, chunks, and child links are populated throughout.
    Total runtime is linear in len(keys).
    """
    root_path = tree.root_path
    root_prefix = tree.root_prefix
    key_names = tree.key_names
    key_paths = tree.key_paths
    key_prefixes = tree.key_prefixes
    escaped = tree.escaped
    keys_list = list(keys)
    n = len(keys_list)

    # Single fused pass: action boundaries nest inside entity boundaries and
    # status chunks are per action chunk, so one scan resolves all levels.
    # Runs are recorded as start indices; chunks come from list slices below.
    # entity run: (entity name, start, action runs); action run: (action
    # name, start, status names). Name identity marks run boundaries (names
    # are shared string objects, unique per parent).
    entity_runs: list[tuple[str, int, list]] = []
    a_runs: list[tuple[str, int, list[str]]] = []
    last_e: Optional[str] = None
    last_a: Optional[str] = None
    for i, key in enumerate(keys_list):
        names = key_names.get(key)
        if names is None:
            raise DecompositionError(f"position {i}: unknown log key {key!r} at level {ENTITY!r}")
        en, an, sn = names
        if en is not last_e:
            a_runs = [(an, i, [sn])]
            entity_runs.append((en, i, a_runs))
            last_e = en
            last_a = an
        elif an is not last_a:
            a_runs.append((an, i, [sn]))
            last_a = an
        else:
            a_runs[-1][2].append(sn)

    e_seq = Seq(ENTITY, root_path, [r[0] for r in entity_runs], keys_list, root_prefix, escaped, [])
    result = DecompositionResult(e_seq=e_seq)
    e_children = e_seq.children
    all_a_seqs = result.a_seqs
    all_s_seqs = result.s_seqs

    for idx, (_, e_start, a_runs) in enumerate(entity_runs):
        e_end = entity_runs[idx + 1][1] if idx + 1 < len(entity_runs) else n
        e_chunk = keys_list[e_start:e_end]
        first = keys_list[e_start]
        a_nodes = [r[0] for r in a_runs]
        a_seq = Seq(ACTION, key_paths[first][0], a_nodes, e_chunk, key_prefixes[first][0], escaped, [])
        e_children.append(a_seq)
        all_a_seqs.append(a_seq)
        a_children = a_seq.children

        for jdx, (_, a_start, s_names) in enumerate(a_runs):
            a_end = a_runs[jdx + 1][1] if jdx + 1 < len(a_runs) else e_end
            a_chunk = keys_list[a_start:a_end]
            first = keys_list[a_start]
            s_seq = Seq(STATUS, key_paths[first][1], s_names, a_chunk, key_prefixes[first][1], escaped)
            a_children.append(s_seq)
            all_s_seqs.append(s_seq)

    return result
