"""Recursive decomposition of key sequences along the topic tree.

A flat list of log keys becomes one entity-level sequence, a list of
action-level sequences (one per entity chunk), and a list of status-level
sequences (one per action chunk). Entity and action levels collapse
consecutive duplicate nodes; the status level never collapses, so every
status transition survives.

`scan_runs` finds the runs of all three levels in one pass over the keys.
A run is the start and end of its key chunk and its node names. The
detector and training key each run by `pattern_keys` and build the `Seq`
of a run (`run_seq`) only for a pattern they have not seen, and its
children (`add_children`) only for an LLM summary; `top_down_decompose`
builds every `Seq`, children linked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from bisect import bisect_left
from itertools import islice
from typing import Optional, Sequence

from .errors import DecompositionError
from .hierarchy import ACTION, ENTITY, SIG_NODE_SEP, SIG_PARENT_SEP, STATUS, TopicTree

Run = tuple[int, int, list[str]]  # the start and end of its key chunk, and its node names


@dataclass(slots=True)
class Seq:
    """A run of sibling nodes at one level, with the key chunk it covers."""

    level: str
    parent_path: tuple[str, ...]  # node names, root first
    nodes: list[str]  # node names at `level`
    chunk: list[str]  # flat log keys covered
    parent_key: str  # escaped parent path: the signature's prefix and the transition-index key
    escaped: dict[str, str] = field(repr=False, compare=False)  # the tree's name -> escaped name
    children: Optional[list["Seq"]] = None  # absent at status level, and until `add_children` on a `run_seq` Seq
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


def scan_runs(keys: list[str], tree: TopicTree) -> dict[str, list[Run]]:
    """The runs of each level over `keys`, in order; one pass, linear in len(keys).

    Action runs nest inside entity runs, and each action run holds one
    status run, so a run's node names count its children one level down:
    they are the next that many runs of that level. Name identity marks
    run boundaries (names are interned, unique per parent).
    """
    key_names = tree.key_names
    e_names, a_starts, a_names, s_starts, s_names = [], [], [], [], []
    last_e = last_a = None
    for i, key in enumerate(keys):
        names = key_names.get(key)
        if names is None:
            raise DecompositionError(f"position {i}: unknown log key {key!r} at level {ENTITY!r}")
        en, an, sn = names
        if en is not last_e:
            e_names.append(en)
            a_starts.append(i)
            a_names.append(actions := [an])
            s_starts.append(i)
            s_names.append(statuses := [sn])
            last_e, last_a = en, an
        elif an is not last_a:
            actions.append(an)
            s_starts.append(i)
            s_names.append(statuses := [sn])
            last_a = an
        else:
            statuses.append(sn)
    n = len(keys)
    a_starts.append(n)
    s_starts.append(n)
    return {
        STATUS: list(zip(s_starts, islice(s_starts, 1, None), s_names)),
        ACTION: list(zip(a_starts, islice(a_starts, 1, None), a_names)),
        ENTITY: [(0, n, e_names)],
    }


def pattern_keys(level: str, keys: list[str], runs: list[Run], tree: TopicTree) -> list[tuple[str, ...]]:
    """Each run's pattern: a tuple injective over (parent path names, node names), as a signature is.

    A status run's keys (one key per path), an action run's entity and
    action names, the entity run's entity names.
    """
    if level == STATUS:
        return chunk_keys(keys, runs)
    if level == ACTION:
        key_names = tree.key_names
        return [(key_names[keys[start]][0], *names) for start, _, names in runs]
    return [tuple(names) for _, _, names in runs]


def chunk_keys(keys: list[str], runs: list[Run]) -> list[tuple[str, ...]]:
    """Each run's key chunk, as a tuple."""
    return [tuple(keys[start:end]) for start, end, _ in runs]


def run_seq(level: str, keys: list[str], run: Run, tree: TopicTree) -> Seq:
    """The `Seq` of one run of `scan_runs(keys, tree)[level]`, without children."""
    start, end, names = run
    if level == ENTITY:
        return Seq(ENTITY, tree.root_path, names, keys[start:end], tree.root_prefix, tree.escaped)
    depth = 0 if level == ACTION else 1
    first = keys[start]
    path, prefix = tree.key_paths[first][depth], tree.key_prefixes[first][depth]
    return Seq(level, path, names, keys[start:end], prefix, tree.escaped)


def add_children(seq: Seq, keys: list[str], runs: dict[str, list[Run]], run: Run, tree: TopicTree) -> Seq:
    """`seq`, the `Seq` of `run` in `runs[seq.level]`, given its children and theirs from `runs` without a rescan."""
    if seq.level != STATUS:
        child_level = ACTION if seq.level == ENTITY else STATUS
        child_runs = runs[child_level]
        first = bisect_left(child_runs, (run[0],))  # runs ascend by start, and a run's first child starts with it
        seq.children = [
            add_children(run_seq(child_level, keys, r, tree), keys, runs, r, tree)
            for r in child_runs[first:first + len(run[2])]
        ]
    return seq


def top_down_decompose(keys: Sequence[str], tree: TopicTree) -> DecompositionResult:
    """Decompose a key sequence into its entity/action/status sub-sequences.

    Every `Seq` of every level, with parent paths, chunks and child links.
    Total runtime is linear in len(keys).
    """
    keys = list(keys)
    runs = scan_runs(keys, tree)
    s_seqs = [run_seq(STATUS, keys, run, tree) for run in runs[STATUS]]
    a_seqs = [run_seq(ACTION, keys, run, tree) for run in runs[ACTION]]
    e_seq = run_seq(ENTITY, keys, runs[ENTITY][0], tree)
    s_iter = iter(s_seqs)
    for a_seq in a_seqs:
        a_seq.children = list(islice(s_iter, len(a_seq.nodes)))
    e_seq.children = list(a_seqs)
    return DecompositionResult(e_seq, a_seqs, s_seqs)
