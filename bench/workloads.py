"""Seeded input generators for the benchmark workloads.

Each generator turns (workload, seed) into the files one run reads: a
template catalog, a fixture of (entity, action, status) triples, normal
training sequences, raw log records for the batch phase, the sequences the
batch ingest must produce from them, and a fresh online test set. The
generator also records the ground truth the correctness gate checks against:
each sequence's label and the hierarchy level its anomaly was injected at.

Generation happens before any timing, in another process than the one that
is measured. The same (workload, seed) always gives the same bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from hierlog.synthetic import CORPUS_FIXTURE, make_corpus

LEVELS = ("status", "action", "entity")


@dataclass
class Truth:
    """One expected sequence: its keys, label and injection level."""

    sequence_id: str
    keys: list[str]
    label: bool
    level: Optional[str] = None

    def to_json(self) -> dict:
        return {"sequence_id": self.sequence_id, "keys": self.keys, "label": self.label, "level": self.level}


@dataclass
class Inputs:
    workload: str
    seed: int
    settings: dict
    templates: dict[str, str]  # key -> template text, catalog order
    fixture: dict[str, dict]
    train: list[list[str]]
    raw: list[dict] = field(default_factory=list)  # batch raw records
    expected: list[Truth] = field(default_factory=list)  # batch ingest output
    online: list[Truth] = field(default_factory=list)


# Settings each workload hands to the pipeline config and to the online detector.
SETTINGS = {
    "login-repeat": {
        "partition": "identifier",
        "levels": "SAE",
        "detector": "exact",
        "early_exit": True,
        "llm": False,
        # every anomaly must be flagged first at the level it was injected at
        "check_first_level": True,
        "normals_must_pass": True,
    },
    "wide-unique": {
        "partition": "time:50",
        "levels": "SAE",
        "detector": "automaton",
        "early_exit": False,
        "llm": False,
        "check_first_level": False,
        "normals_must_pass": True,
    },
    "llm-hybrid": {
        "partition": "identifier",
        "levels": "SAE",
        "detector": "exact",
        "early_exit": True,
        "llm": True,
        "check_first_level": False,
        # the mock provider answers ABNORMAL to every detection request, so
        # in-grammar sequences with unseen patterns are flagged here
        "normals_must_pass": False,
    },
}

# Sizes per workload: training sequences (for wide-unique, walk windows on
# top of the coverage set), batch test sequences or windows, online test
# sequences or windows.
SIZES = {
    "login-repeat": {"train": 200, "batch": 2000, "online": 12000},
    "wide-unique": {"train_walk_windows": 300, "batch": 100, "online": 2400},
    "llm-hybrid": {"train": 100, "batch": 100, "online": 1000},
}

WORKLOADS = tuple(SETTINGS)


# The catalog and the training set of wide-unique and llm-hybrid come from
# this fixed seed; the run's seed draws only the traffic (batch records and
# the online set). A catalog's bucket sizes set the cost of matching, and on
# llm-hybrid a sequence's cost depends on whether its patterns were trained:
# with a seeded training set the online work of one seed differed from the
# next by about 6%, with a fixed one by about 2%.
MODEL_SEED = 0


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


def _param(rng: random.Random) -> str:
    # Parameter tokens never equal a literal template token, so a filled-in
    # wildcard cannot make a message match a more specific template.
    return f"#{rng.randrange(100000):05d}"


def _render(text: str, rng: random.Random) -> str:
    return " ".join(_param(rng) if tok == "<*>" else tok for tok in text.split())


def _interleave(
    seqs: list[Truth], templates: dict[str, str], rng: random.Random, active: int = 8
) -> tuple[list[dict], list[Truth]]:
    """Raw records of concurrent sessions, grouped by sequence id.

    Up to `active` sequences emit events at once, one event per step from a
    randomly chosen open sequence. Identifier partitioning yields sequences
    in the order of their first event, which is the order returned.
    """
    raw: list[dict] = []
    pending = list(seqs)
    pending.reverse()
    open_: list[tuple[Truth, int]] = []
    order: list[Truth] = []
    t = 0
    while pending or open_:
        while pending and len(open_) < active:
            seq = pending.pop()
            open_.append((seq, 0))
        i = rng.randrange(len(open_))
        seq, pos = open_[i]
        if pos == 0:
            order.append(seq)
        key = seq.keys[pos]
        raw.append(
            {
                "message": _render(templates[key], rng),
                "timestamp": float(t),
                "group_id": seq.sequence_id,
                "label": seq.label,
            }
        )
        t += 1
        if pos + 1 == len(seq.keys):
            open_.pop(i)
        else:
            open_[i] = (seq, pos + 1)
    return raw, order


# -- login-repeat -----------------------------------------------------------------------------

def _login_repeat(seed: int) -> Inputs:
    sizes = SIZES["login-repeat"]
    batch = make_corpus(n_train=sizes["train"], n_test=sizes["batch"], seed=2 * seed + 1)
    online = make_corpus(n_train=20, n_test=sizes["online"], seed=2 * seed + 2)
    templates = {t.key: t.text for t in batch.catalog.templates()}

    def truths(corpus, prefix: str) -> list[Truth]:
        return [
            Truth(f"{prefix}-{s.id}", s.keys, bool(s.label), corpus.injection_level[s.id])
            for s in corpus.test
        ]

    raw, expected = _interleave(truths(batch, "b"), templates, _rng("login-repeat", seed, "raw"))
    return Inputs(
        workload="login-repeat",
        seed=seed,
        settings=SETTINGS["login-repeat"],
        templates=templates,
        fixture=dict(CORPUS_FIXTURE),
        train=[s.keys for s in batch.train],
        raw=raw,
        expected=expected,
        online=truths(online, "o"),
    )


# -- shared grammar for the generated catalogs ------------------------------------------------

@dataclass
class Grammar:
    """entity -> action -> status catalog with successor graphs per level.

    Entity and action graphs have no self-loops, so consecutive visits never
    collapse into one run when the walk is decomposed.
    """

    entities: list[str]
    actions: dict[str, list[str]]  # entity -> action names
    statuses: dict[tuple[str, str], list[str]]  # (entity, action) -> status names
    key_of: dict[tuple[str, str, str], str]
    templates: dict[str, str]
    entity_next: dict[str, list[str]] = field(default_factory=dict)
    action_next: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    status_next: dict[tuple[str, str, str], list[str]] = field(default_factory=dict)

    def fixture(self) -> dict[str, dict]:
        return {k: {"entity": e, "action": a, "status": s} for (e, a, s), k in self.key_of.items()}


def _make_grammar(
    rng: random.Random,
    n_entities: int,
    n_actions: int,
    n_statuses: int,
    lengths: tuple[int, ...],
    fanout: tuple[int, int, int],
) -> Grammar:
    entities = [f"Unit{e:02d}" for e in range(n_entities)]
    actions = {e: [f"op{a:02d}" for a in range(n_actions)] for e in entities}
    statuses = {(e, a): [f"st{s}" for s in range(n_statuses)] for e in entities for a in actions[e]}
    key_of: dict[tuple[str, str, str], str] = {}
    templates: dict[str, str] = {}
    for e in entities:
        for a in actions[e]:
            for s in statuses[(e, a)]:
                key = f"t{len(key_of) + 1:04d}"
                key_of[(e, a, s)] = key
                # Token counts cycle through `lengths`, so each length bucket
                # of the catalog holds an equal share of the templates.
                length = lengths[len(key_of) % len(lengths)]
                filler = [f"f{i}" for i in range(length - 4)]
                templates[key] = " ".join([e.lower(), a, s, *filler, "<*>"])
    g = Grammar(entities, actions, statuses, key_of, templates)
    e_fan, a_fan, s_fan = fanout
    for e in entities:
        g.entity_next[e] = rng.sample([x for x in entities if x != e], e_fan)
        for a in actions[e]:
            g.action_next[(e, a)] = rng.sample([x for x in actions[e] if x != a], a_fan)
            for s in statuses[(e, a)]:
                g.status_next[(e, a, s)] = rng.sample(statuses[(e, a)], s_fan)
    return g


# -- wide-unique ------------------------------------------------------------------------------

WIDE_WINDOW = 50  # events per time window; timestamps are 0, 1, 2, ...


def _wide_grammar() -> Grammar:
    # 20 entities x 10 actions x 5 statuses = 1,000 templates in 4 length
    # buckets of 250.
    return _make_grammar(_rng("wide-unique", MODEL_SEED, "grammar"), 20, 10, 5, (5, 6, 7, 8), (4, 3, 2))


class _Walk:
    """Random walk over a grammar, one key per step.

    An entity visit runs 1-4 actions; an action visit emits 1-3 statuses.
    `inject(level)` makes the next step at that level leave the graph: the
    next status, action or entity is one that is not a successor of the
    current one, which gives exactly one unseen transition at that level.
    """

    def __init__(self, g: Grammar, rng: random.Random):
        self.g = g
        self.rng = rng
        self.e = rng.choice(g.entities)
        self.a = rng.choice(g.actions[self.e])
        self.s = rng.choice(g.statuses[(self.e, self.a)])
        self.actions_left = rng.randint(0, 3)
        self.statuses_left = rng.randint(0, 2)
        self.first = True

    def _off_graph(self, choices: list[str], successors: list[str], current: str) -> str:
        return self.rng.choice([x for x in choices if x not in successors and x != current])

    def step(self, inject: Optional[str] = None) -> tuple[str, Optional[str]]:
        """Next key, and the level of the anomaly it carries (if any)."""
        g, rng = self.g, self.rng
        if self.first:
            self.first = False
            return g.key_of[(self.e, self.a, self.s)], None
        level = None
        if self.statuses_left > 0 and inject in (None, "status"):
            self.statuses_left -= 1
            succ = g.status_next[(self.e, self.a, self.s)]
            if inject == "status":
                self.s, level = self._off_graph(g.statuses[(self.e, self.a)], succ, self.s), "status"
            else:
                self.s = rng.choice(succ)
        elif self.actions_left > 0 and inject in (None, "action"):
            self.actions_left -= 1
            succ = g.action_next[(self.e, self.a)]
            if inject == "action":
                self.a, level = self._off_graph(g.actions[self.e], succ, self.a), "action"
            else:
                self.a = rng.choice(succ)
            self.s = rng.choice(g.statuses[(self.e, self.a)])
            self.statuses_left = rng.randint(0, 2)
        else:
            succ = g.entity_next[self.e]
            if inject == "entity":
                self.e, level = self._off_graph(g.entities, succ, self.e), "entity"
            else:
                self.e = rng.choice(succ)
            self.a = rng.choice(g.actions[self.e])
            self.s = rng.choice(g.statuses[(self.e, self.a)])
            self.actions_left = rng.randint(0, 3)
            self.statuses_left = rng.randint(0, 2)
        return g.key_of[(self.e, self.a, self.s)], level

    def window(self, size: int, inject: Optional[str]) -> tuple[list[str], Optional[str]]:
        """`size` keys; with `inject`, one off-graph step at an inner position."""
        keys: list[str] = []
        level = None
        at = self.rng.randrange(1, size // 2) if inject else size
        for pos in range(size):
            # An injected step never opens the window, so the unseen
            # transition and both of its ends stay inside one window.
            want = inject if pos >= at and level is None else None
            if want and pos == size - 1:
                # last chance: end the current visits, so an entity step follows
                self.statuses_left = self.actions_left = 0
                want = "entity"
            elif want and not self._can_inject(want):
                want = None
            key, got = self.step(want)
            keys.append(key)
            level = level or got
        return keys, level

    def _can_inject(self, level: str) -> bool:
        if level == "status":
            return self.statuses_left > 0
        if level == "action":
            return self.statuses_left == 0 and self.actions_left > 0
        return self.statuses_left == 0 and self.actions_left == 0


def _coverage_sequences(g: Grammar) -> list[list[str]]:
    """Short sequences that together hold every transition of the grammar.

    Each key alone covers <start> and <end> next to its node at every level
    (a time window may open or close anywhere); each graph edge gets one
    two-key sequence at its level.
    """
    out: list[list[str]] = []
    any_status = {(e, a): g.statuses[(e, a)][0] for (e, a) in g.statuses}
    for key in g.key_of.values():
        out.append([key])
    for (e, a, s), succ in g.status_next.items():
        for s2 in succ:
            out.append([g.key_of[(e, a, s)], g.key_of[(e, a, s2)]])
    for (e, a), succ in g.action_next.items():
        for a2 in succ:
            out.append([g.key_of[(e, a, any_status[(e, a)])], g.key_of[(e, a2, any_status[(e, a2)])]])
    for e, succ in g.entity_next.items():
        a = g.actions[e][0]
        for e2 in succ:
            a2 = g.actions[e2][0]
            out.append([g.key_of[(e, a, any_status[(e, a)])], g.key_of[(e2, a2, any_status[(e2, a2)])]])
    return out


def _windows(
    g: Grammar, rng: random.Random, count: int, anomaly_every: int, prefix: str
) -> list[Truth]:
    """`count` consecutive windows of one walk; every `anomaly_every`-th carries an anomaly.

    The injected levels cycle through status, action and entity.
    """
    walk = _Walk(g, rng)
    out = []
    for i in range(count):
        inject = None
        if anomaly_every and i % anomaly_every == anomaly_every // 2:
            inject = LEVELS[(i // anomaly_every) % 3]
        keys, level = walk.window(WIDE_WINDOW, inject)
        out.append(Truth(f"{prefix}{i}", keys, level is not None, level))
    return out


def _wide_unique(seed: int) -> Inputs:
    sizes = SIZES["wide-unique"]
    g = _wide_grammar()
    train = _coverage_sequences(g)
    train += [w.keys for w in _windows(g, _rng("wide-unique", MODEL_SEED, "train"), sizes["train_walk_windows"], 0, "")]
    batch = _windows(g, _rng("wide-unique", seed, "batch"), sizes["batch"], 10, "t")
    rng = _rng("wide-unique", seed, "raw")
    triple = {k: t for t, k in g.key_of.items()}
    raw = []
    for w in batch:
        level_at = _anomaly_position(w, g, triple) if w.label else -1
        for pos, key in enumerate(w.keys):
            raw.append(
                {
                    "message": _render(g.templates[key], rng),
                    "timestamp": float(len(raw)),
                    "label": pos == level_at,
                }
            )
    return Inputs(
        workload="wide-unique",
        seed=seed,
        settings=SETTINGS["wide-unique"],
        templates=g.templates,
        fixture=g.fixture(),
        train=train,
        raw=raw,
        expected=batch,
        online=_windows(g, _rng("wide-unique", seed, "online"), sizes["online"], 10, "o"),
    )


def _anomaly_position(w: Truth, g: Grammar, triple: dict[str, tuple[str, str, str]]) -> int:
    """Index of the key that ends the window's off-graph transition."""
    for pos in range(1, len(w.keys)):
        (e1, a1, s1), (e2, a2, s2) = triple[w.keys[pos - 1]], triple[w.keys[pos]]
        if e1 != e2:
            if e2 not in g.entity_next[e1]:
                return pos
        elif a1 != a2:
            if a2 not in g.action_next[(e1, a1)]:
                return pos
        elif s2 not in g.status_next[(e1, a1, s1)]:
            return pos
    raise AssertionError(f"window {w.sequence_id} is labelled abnormal but stays on the graph")


# -- llm-hybrid -------------------------------------------------------------------------------

def _hybrid_grammar() -> tuple[Grammar, dict[tuple[str, str], list[list[str]]]]:
    # 6 entities x 5 actions x 5 statuses = 150 templates. Each action emits
    # one of two fixed status runs, so status patterns repeat; action and
    # entity walks combine freely, so their patterns are mostly new.
    rng = _rng("llm-hybrid", MODEL_SEED, "grammar")
    g = _make_grammar(rng, 6, 5, 5, (5, 6), (3, 3, 2))
    runs = {}
    for ea, names in g.statuses.items():
        runs[ea] = [rng.sample(names, 2), rng.sample(names, 3)]
    return g, runs


def _hybrid_sequence(
    g: Grammar, runs: dict, rng: random.Random, inject: bool
) -> list[str]:
    keys: list[str] = []
    e = rng.choice(g.entities)
    visits = rng.randint(3, 5)
    slot = rng.randrange(visits) if inject else -1
    for v in range(visits):
        if v:
            e = rng.choice(g.entity_next[e])
        a = rng.choice(g.actions[e])
        for step in range(rng.randint(2, 4)):
            if step:
                a = rng.choice(g.action_next[(e, a)])
            if v == slot and step == 0:
                # trained status runs have 2 or 3 statuses, so this one is unseen
                run = rng.sample(g.statuses[(e, a)], 4)
            else:
                run = rng.choice(runs[(e, a)])
            keys += [g.key_of[(e, a, s)] for s in run]
    return keys


def _llm_hybrid(seed: int) -> Inputs:
    sizes = SIZES["llm-hybrid"]
    g, runs = _hybrid_grammar()
    # every status run once, then random normal sequences
    train = [[g.key_of[(e, a, s)] for s in run] for (e, a), rs in runs.items() for run in rs]
    rng = _rng("llm-hybrid", MODEL_SEED, "train")
    train += [_hybrid_sequence(g, runs, rng, False) for _ in range(sizes["train"])]

    def test_set(stream: str, count: int, prefix: str) -> list[Truth]:
        rng = _rng("llm-hybrid", seed, stream)
        out = []
        for i in range(count):
            inject = i % 10 == 0
            keys = _hybrid_sequence(g, runs, rng, inject)
            out.append(Truth(f"{prefix}-{i}", keys, inject, "status" if inject else None))
        rng.shuffle(out)
        return out

    raw, expected = _interleave(test_set("batch", sizes["batch"], "b"), g.templates, _rng("llm-hybrid", seed, "raw"))
    return Inputs(
        workload="llm-hybrid",
        seed=seed,
        settings=SETTINGS["llm-hybrid"],
        templates=g.templates,
        fixture=g.fixture(),
        train=train,
        raw=raw,
        expected=expected,
        online=test_set("online", sizes["online"], "o"),
    )


GENERATORS = {"login-repeat": _login_repeat, "wide-unique": _wide_unique, "llm-hybrid": _llm_hybrid}


def generate(workload: str, seed: int) -> Inputs:
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return GENERATORS[workload](seed)


# -- files ------------------------------------------------------------------------------------

def _jsonl(path: Path, rows) -> None:
    with path.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_inputs(inputs: Inputs, directory: Path) -> None:
    """Write every input file; `meta.json` goes last and marks the set complete."""
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "templates.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["key", "template"])
        writer.writerows(inputs.templates.items())
    (directory / "fixture.json").write_text(json.dumps(inputs.fixture, indent=1, sort_keys=True))
    _jsonl(
        directory / "train.jsonl",
        ({"sequence_id": f"train-{i}", "keys": keys, "label": False} for i, keys in enumerate(inputs.train)),
    )
    _jsonl(directory / "raw.jsonl", inputs.raw)
    _jsonl(directory / "expected.jsonl", (t.to_json() for t in inputs.expected))
    _jsonl(directory / "online.jsonl", (t.to_json() for t in inputs.online))
    meta = {"workload": inputs.workload, "seed": inputs.seed, "settings": inputs.settings}
    (directory / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))


INPUT_FILES = ("templates.csv", "fixture.json", "train.jsonl", "raw.jsonl", "expected.jsonl", "online.jsonl", "meta.json")


def digest(directory: Path) -> str:
    """SHA-256 over every input file, in a fixed order."""
    h = hashlib.sha256()
    for name in INPUT_FILES:
        h.update(name.encode() + b"\0" + (directory / name).read_bytes())
    return h.hexdigest()


def load_truth(path: Path) -> list[Truth]:
    with path.open() as fh:
        return [Truth(**json.loads(line)) for line in fh if line.strip()]
