"""Deterministic synthetic login-flow corpus with level-targeted anomalies.

A small service with Session, Auth, Comm, and Storage components emits
sequences composed from a fixed grammar of entity blocks. Anomalies are
injected at a chosen hierarchy level only, leaving the other levels'
patterns intact, which makes level attribution exactly checkable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .ingest import LogSequence, LogTemplate, TemplateCatalog

# -- toy template catalog (six-template login example used across the tests) --

TOY_TEMPLATES: list[tuple[str, str]] = [
    ("k1", "Open session started"),
    ("k2", "Open session successful"),
    ("k3", "Authentication starts"),
    ("k4", "Authentication succeeds"),
    ("k5", "GET request sent to <*>"),
    ("k6", "GET response received from <*>"),
]

TOY_FIXTURE: dict[str, dict] = {
    "k1": {"entity": "Session", "action": "open", "status": "started"},
    "k2": {"entity": "Session", "action": "open", "status": "succf"},
    "k3": {"entity": "Auth", "action": "start", "status": "none"},
    "k4": {"entity": "Auth", "action": "succd", "status": "none"},
    "k5": {"entity": "Comm", "action": "GET_req", "status": "none"},
    "k6": {"entity": "Comm", "action": "GET_res", "status": "none"},
}


# -- full synthetic corpus ----------------------------------------------------

CORPUS_TEMPLATES: list[tuple[str, str]] = TOY_TEMPLATES + [
    ("k7", "Disk write begin"),
    ("k8", "Disk write ok"),
    ("k10", "Close session requested"),
    ("k11", "Close session done"),
    ("k13", "POST request sent to <*>"),
    ("k14", "POST response received from <*>"),
    ("k15", "Disk read begin"),
    ("k16", "Disk read ok"),
]

CORPUS_FIXTURE: dict[str, dict] = {
    **TOY_FIXTURE,
    "k7": {"entity": "Storage", "action": "write", "status": "begin"},
    "k8": {"entity": "Storage", "action": "write", "status": "ok"},
    "k10": {"entity": "Session", "action": "close", "status": "requested"},
    "k11": {"entity": "Session", "action": "close", "status": "done"},
    "k13": {"entity": "Comm", "action": "POST_req", "status": "none"},
    "k14": {"entity": "Comm", "action": "POST_res", "status": "none"},
    "k15": {"entity": "Storage", "action": "read", "status": "begin"},
    "k16": {"entity": "Storage", "action": "read", "status": "ok"},
}

# Atomic block patterns per entity; normal sequences compose these.
# 15 blocks plus the 5 entity orders below give 20 atomic patterns total.
SESSION_BLOCKS = [
    ["k1", "k2"],
    ["k1", "k2", "k10", "k11"],
    ["k1", "k2", "k1", "k2"],
]
SESSION_CLOSE_BLOCK = ["k10", "k11"]
AUTH_BLOCKS = [
    ["k3", "k4"],
    ["k3", "k3", "k4"],
    ["k3", "k4", "k3", "k4"],
]
COMM_BLOCKS = [
    ["k5", "k6"],
    ["k13", "k14"],
    ["k5", "k6", "k13", "k14"],
    ["k13", "k14", "k5", "k6"],
]
STORAGE_BLOCKS = [
    ["k7", "k8"],
    ["k15", "k16", "k7", "k8"],
    ["k7", "k8", "k7", "k8"],
    ["k15", "k16"],
]

# Benign pattern deliberately excluded from training; an LLM with domain
# sense should accept it (repeated request/response polling).
BENIGN_UNSEEN_COMM_BLOCK = ["k13", "k14", "k13", "k14"]
BENIGN_UNSEEN_ACTION_NODES = "POST_req>POST_res>POST_req>POST_res"

# Entity orders; "Session*" is the trailing close-only block.
ENTITY_ORDERS = [
    ["Session", "Auth", "Comm"],
    ["Session", "Auth", "Comm", "Storage"],
    ["Session", "Auth", "Storage", "Comm"],
    ["Session", "Auth", "Storage", "Comm", "Session*"],
    ["Session", "Auth", "Comm", "Storage", "Comm"],
]

_BLOCKS = {
    "Session": SESSION_BLOCKS,
    "Auth": AUTH_BLOCKS,
    "Comm": COMM_BLOCKS,
    "Storage": STORAGE_BLOCKS,
}

INJECTION_LEVELS = ("status", "action", "entity")


@dataclass
class SyntheticCorpus:
    catalog: TemplateCatalog
    fixture: dict[str, dict]
    train: list[LogSequence]
    test: list[LogSequence]
    injection_level: dict[str, Optional[str]] = field(default_factory=dict)  # by sequence id
    benign_unseen_ids: list[str] = field(default_factory=list)


def corpus_catalog() -> TemplateCatalog:
    return TemplateCatalog([LogTemplate(k, t) for k, t in CORPUS_TEMPLATES])


def _blocks_for(order: Sequence[str], pick) -> list[list[str]]:
    blocks = []
    for slot in order:
        if slot == "Session*":
            blocks.append(list(SESSION_CLOSE_BLOCK))
        else:
            variants = _BLOCKS[slot]
            blocks.append(list(variants[pick(len(variants))]))
    return blocks


def _normal_blocks(rng: random.Random) -> tuple[list[str], list[list[str]]]:
    order = ENTITY_ORDERS[rng.randrange(len(ENTITY_ORDERS))]
    return list(order), _blocks_for(order, lambda n: rng.randrange(n))


def _coverage_blocks() -> list[tuple[list[str], list[list[str]]]]:
    """Every (order, variant index) combination, so training covers all patterns."""
    out = []
    max_variants = max(len(v) for v in _BLOCKS.values())
    for order in ENTITY_ORDERS:
        for v in range(max_variants):
            out.append((list(order), _blocks_for(order, lambda n, v=v: v % n)))
    return out


def _inject(level: str, order: list[str], blocks: list[list[str]], rng: random.Random) -> None:
    """Mutate blocks in place so only `level` gains an unseen pattern."""
    if level == "status":
        # reverse the opening session statuses: [started, succf] -> [succf, started]
        blocks[0][0], blocks[0][1] = blocks[0][1], blocks[0][0]
    elif level == "action":
        # reverse the auth actions: [start, succd] -> [succd, start]
        idx = order.index("Auth")
        blocks[idx] = ["k4", "k3"]
    elif level == "entity":
        # drop the auth block entirely: entity transition Session -> next skips Auth
        idx = order.index("Auth")
        del order[idx]
        del blocks[idx]
    else:
        raise ValueError(f"unknown injection level: {level!r}")


def _to_sequence(seq_id: str, blocks: list[list[str]], catalog: TemplateCatalog, label: bool) -> LogSequence:
    return LogSequence(seq_id, catalog.lookup(k for block in blocks for k in block), label)


def make_corpus(
    n_train: int = 200,
    n_test: int = 800,
    anomaly_rate: float = 0.10,
    seed: int = 7,
    benign_unseen_rate: float = 0.0,
    injection_levels: Sequence[str] = INJECTION_LEVELS,
) -> SyntheticCorpus:
    """Build a reproducible corpus: normal-only training, mixed test set.

    Training starts with a deterministic coverage prefix (every entity order
    with every block variant index) so all normal patterns are guaranteed to
    be learnable; the remainder is random draws from the same grammar.
    """
    rng = random.Random(seed)
    catalog = corpus_catalog()

    train: list[LogSequence] = []
    for order, blocks in _coverage_blocks():
        if len(train) >= n_train:
            break
        train.append(_to_sequence(f"train-{len(train)}", blocks, catalog, label=False))
    while len(train) < n_train:
        _, blocks = _normal_blocks(rng)
        train.append(_to_sequence(f"train-{len(train)}", blocks, catalog, label=False))

    n_anomalies = round(anomaly_rate * n_test)
    levels = list(injection_levels)
    test: list[LogSequence] = []
    injection_level: dict[str, Optional[str]] = {}
    benign_ids: list[str] = []

    for i in range(n_test):
        seq_id = f"test-{i}"
        order, blocks = _normal_blocks(rng)
        if i < n_anomalies:
            level = levels[i % len(levels)]
            _inject(level, order, blocks, rng)
            injection_level[seq_id] = level
            test.append(_to_sequence(seq_id, blocks, catalog, label=True))
        else:
            injection_level[seq_id] = None
            if benign_unseen_rate and rng.random() < benign_unseen_rate and "Comm" in order:
                idx = order.index("Comm")
                blocks[idx] = list(BENIGN_UNSEEN_COMM_BLOCK)
                benign_ids.append(seq_id)
            test.append(_to_sequence(seq_id, blocks, catalog, label=False))

    rng.shuffle(test)
    return SyntheticCorpus(
        catalog=catalog,
        fixture=dict(CORPUS_FIXTURE),
        train=train,
        test=test,
        injection_level=injection_level,
        benign_unseen_ids=benign_ids,
    )


def write_corpus(corpus: SyntheticCorpus, directory: str | Path) -> None:
    """Materialize catalog, fixture triples, and train/test sequence files."""
    from .ingest import save_sequences

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "templates.csv").open("w") as fh:
        fh.write("key,template\n")
        for t in corpus.catalog.templates():
            fh.write(f"{t.key},{t.text}\n")
    (directory / "fixture.json").write_text(json.dumps(corpus.fixture, indent=2, sort_keys=True))
    save_sequences(corpus.train, directory / "train.jsonl")
    save_sequences(corpus.test, directory / "test.jsonl")
    (directory / "injections.json").write_text(
        json.dumps(corpus.injection_level, indent=2, sort_keys=True)
    )
