"""Recursive decomposition of key sequences along the topic tree.

A flat list of log keys becomes one entity-level sequence, a list of
action-level sequences (one per entity chunk), and a list of status-level
sequences (one per action chunk). Entity and action levels collapse
consecutive duplicate nodes; the status level never collapses, so every
status transition survives.

`scan_runs` finds the runs of all three levels in one pass over the keys.
A run is the start and end of its key chunk and its node names. The
detector and training work on a run as its level, its pattern
(`pattern_keys`, the train KBs' key) and its keys, and build no `Seq`; a
summary finds a run's children among the next level's runs by
`child_runs`. `Seq`, `run_seq` and `top_down_decompose` (every `Seq`,
children linked) serve only criteria 1-4, the reference tests and the
bench's wrapper.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional, Sequence

from .errors import DecompositionError
from .hierarchy import ACTION, ENTITY, PARENT_DEPTH, ROOT, STATUS, TopicTree, signature

Run = tuple[int, int, list[str]]  # the start and end of its key chunk, and its node names

CHILD_LEVEL = {ENTITY: ACTION, ACTION: STATUS}


@dataclass(slots=True)
class Seq:
    """A run of sibling nodes at one level, with the key chunk it covers."""

    level: str
    parent_path: tuple[str, ...]  # node names, root first
    nodes: list[str]  # node names at `level`
    chunk: list[str]  # flat log keys covered
    children: Optional[list["Seq"]] = None  # linked by `top_down_decompose` above status level; None from `run_seq`

    @property
    def pattern(self) -> tuple[str, ...]:
        """The train KBs' key: the parent path's names below the root, then the node names."""
        return (*self.parent_path[1:], *self.nodes)

    @property
    def signature(self) -> str:
        return signature(self.level, self.pattern)


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
    """Each run's pattern, as `Seq.pattern` gives it: the names of its first key's parent path, then its own."""
    if level == ENTITY:
        return [tuple(names) for _, _, names in runs]
    parents = tree.key_parents  # each key's (entity, action)
    if level == ACTION:
        return [(parents[keys[start]][0], *names) for start, _, names in runs]
    return [parents[keys[start]] + tuple(names) for start, _, names in runs]


def child_runs(runs: dict[str, list[Run]], level: str, run: Run) -> list[Run]:
    """The children of `run` in `runs[level]`, above the status level: the next len(names) runs one level down."""
    below = runs[CHILD_LEVEL[level]]
    first = bisect_left(below, (run[0],))  # runs ascend by start, and a run's first child starts with it
    return below[first:first + len(run[2])]


def run_seq(level: str, keys: list[str], run: Run, tree: TopicTree) -> Seq:
    """The `Seq` of one run of `scan_runs(keys, tree)[level]`, without children."""
    start, end, names = run
    return Seq(level, (ROOT,) + tree.key_parents[keys[start]][:PARENT_DEPTH[level]], names, keys[start:end])


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
