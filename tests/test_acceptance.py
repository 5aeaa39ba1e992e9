"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Every expected value is computed independently in this file (enumeration,
brute-force oracles, closed-form algebra); none is read back from the
implementation under test.
"""

import configparser
import gc
import json
import random
import sys
import time
from itertools import chain, groupby, islice, product
from pathlib import Path

import pytest

from hierlog.decompose import top_down_decompose
from hierlog.detect import DetectConfig, Detector, train
from hierlog.evalreport import compute_metrics, structure_report
from hierlog.hierarchy import (
    ACTION,
    ENTITY,
    STATUS,
    FixtureExtractor,
    TopicTriple,
    build_tree,
    extract_topics,
    refine_topics,
)
from hierlog.ingest import load_sequences, load_template_catalog
from hierlog.knowledge import KnowledgeBaseSet
from hierlog.pipeline import run_pipeline
from hierlog.semantics import MockProvider
from hierlog.synthetic import (
    BENIGN_UNSEEN_ACTION_NODES,
    TOY_FIXTURE,
    make_corpus,
    write_corpus,
)

from conftest import TOY_KEYS, Recorder, toy_catalog


VERDICT_LINES: list[str] = []


def _verdict(n, ok, detail):
    """Record and emit one pass/fail line for a criterion, then assert it."""
    line = f"ACCEPTANCE CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _toy_tree():
    return build_tree(extract_topics(toy_catalog(), FixtureExtractor(TOY_FIXTURE)))


def _wide_tree(n_templates=50):
    """Fixture tree over n templates: 5 entities x 4 actions, varied statuses."""
    fixture = {
        f"t{i:02d}": {
            "entity": f"E{i % 5}",
            "action": f"A{(i // 5) % 4}",
            "status": f"s{i % 3}" if i % 2 else None,
        }
        for i in range(n_templates)
    }
    triples = [
        TopicTriple(k, v["entity"], v["action"], v["status"] or "none")
        for k, v in fixture.items()
    ]
    return build_tree(triples), sorted(fixture)


# -- 1: golden decomposition -----------------------------------------------------

def test_criterion_1_golden_decomposition():
    t0 = time.perf_counter()
    tree = _toy_tree()
    result = top_down_decompose(TOY_KEYS, tree)
    got = [(s.level, list(s.parent_path), s.nodes, s.chunk) for s in result.all_seqs()]
    expected = [
        (STATUS, ["root", "Session", "open"], ["started", "succf"], ["k1", "k2"]),
        (STATUS, ["root", "Auth", "start"], ["none"], ["k3"]),
        (STATUS, ["root", "Auth", "succd"], ["none"], ["k4"]),
        (STATUS, ["root", "Comm", "GET_req"], ["none"], ["k5"]),
        (STATUS, ["root", "Comm", "GET_res"], ["none"], ["k6"]),
        (ACTION, ["root", "Session"], ["open"], ["k1", "k2"]),
        (ACTION, ["root", "Auth"], ["start", "succd"], ["k3", "k4"]),
        (ACTION, ["root", "Comm"], ["GET_req", "GET_res"], ["k5", "k6"]),
        (ENTITY, ["root"], ["Session", "Auth", "Comm"], TOY_KEYS),
    ]
    dt = time.perf_counter() - t0
    ok = got == expected and len(got) == 9 and dt < 1.0
    _verdict(1, ok, f"9 golden Seqs exact in {dt:.3f}s (< 1s)")


# -- 2: reconstruction property ----------------------------------------------------

def test_criterion_2_reconstruction_property():
    tree, keys_pool = _wide_tree(50)
    rng = random.Random(20260823)
    violations = 0
    t0 = time.perf_counter()
    for _ in range(10_000):
        keys = [keys_pool[rng.randrange(50)] for _ in range(rng.randint(1, 500))]
        result = top_down_decompose(keys, tree)
        if [k for s in result.s_seqs for k in s.chunk] != keys:
            violations += 1
            continue
        for seq in [result.e_seq] + result.a_seqs:
            if any(a == b for a, b in zip(seq.nodes, seq.nodes[1:])):
                violations += 1
                break
    dt = time.perf_counter() - t0
    _verdict(2, violations == 0, f"10,000 random sequences, 0 violations ({dt:.1f}s)")


# -- 3: oracle equivalence -----------------------------------------------------------

def test_criterion_3_exhaustive_oracle_equivalence():
    tree = _toy_tree()
    alphabet = ("k1", "k2", "k3", "k5")  # 3 entities, 4 actions across them
    edict = {k: tree.key_names[k][0] for k in alphabet}
    adict = {k: tree.key_names[k][1] for k in alphabet}
    sdict = {k: tree.key_names[k][2] for k in alphabet}
    eget, aget = edict.__getitem__, adict.__getitem__

    def oracle(keys):
        # brute-force run-labeling, independent of the library implementation.
        # It is also the timing yardstick for the speed bound below: an edit
        # here moves that bound, so it is frozen like the enumeration.
        out = []
        e_nodes = []
        for en, grp in groupby(keys, key=eget):
            e_keys = list(grp)
            e_nodes.append(en)
            a_nodes = []
            for an, agrp in groupby(e_keys, key=aget):
                a_keys = list(agrp)
                a_nodes.append(an)
                out.append((a_keys, [sdict[k] for k in a_keys]))
            out.append((e_keys, a_nodes))
        out.append((list(keys), e_nodes))
        return out

    def flat(result):
        out = []
        for a in result.e_seq.children:
            for s in a.children:
                out.append((s.chunk, s.nodes))
            out.append((a.chunk, a.nodes))
        out.append((result.e_seq.chunk, result.e_seq.nodes))
        return out

    # Speed bound as a same-process ratio, so the verdict does not depend on
    # the host's speed. Derivation: in a split run, decompose takes ~1.85x the
    # oracle's time and `flat` ~0.2x. Applied to the 24.3 s reference run that
    # set the former 30 s wall-clock gate on the whole loop, that is oracle
    # ~8.0 s, flat ~1.6 s, decompose ~14.7 s, so the old gate left decompose
    # up to 30 - 9.6 = 20.4 s = 2.56x the oracle; rounded down to 2.5. It
    # trips when decompose gets ~35-40% slower than the oracle, about the old
    # gate's headroom on its own machine (20.4 / 14.7 = 1.39).
    max_ratio = 2.5
    block_size = 4096
    total = sum(4**length for length in range(1, 11))
    sequences = chain.from_iterable(
        product(alphabet, repeat=length) for length in range(1, 11)
    )
    clock = time.perf_counter
    checked = mismatches = 0
    t_decompose = t_oracle = 0.0
    gc.collect()
    gc.disable()
    t_start = clock()
    try:
        # alternate the two sides in small blocks, so that a slow spell of
        # the host hits both alike; compare outside both timers
        while block := list(islice(sequences, block_size)):
            t0 = clock()
            got = [top_down_decompose(keys, tree) for keys in block]
            t1 = clock()
            want = [oracle(keys) for keys in block]
            t2 = clock()
            t_decompose += t1 - t0
            t_oracle += t2 - t1
            checked += len(block)
            mismatches += sum(w != flat(g) for w, g in zip(want, got))
    finally:
        gc.enable()
    wall = clock() - t_start
    ratio = t_decompose / t_oracle
    ok = checked == total and mismatches == 0 and ratio <= max_ratio
    _verdict(
        3,
        ok,
        f"{checked} sequences (length <= 10, 4 templates), {mismatches} mismatches vs oracle; "
        f"decompose {t_decompose:.1f}s / oracle {t_oracle:.1f}s = {ratio:.2f}x "
        f"(<= {max_ratio}x); {wall:.1f}s wall",
    )


# -- 4: linearity ----------------------------------------------------------------------

def test_criterion_4_linearity():
    tree, keys_pool = _wide_tree(50)
    rng = random.Random(7)

    def best_time(n):
        keys = [keys_pool[rng.randrange(50)] for _ in range(n)]
        best = float("inf")
        for _ in range(3):
            gc.collect()
            gc.disable()
            t0 = time.perf_counter()
            top_down_decompose(keys, tree)
            best = min(best, time.perf_counter() - t0)
            gc.enable()
        return best

    t_small = best_time(10_000)
    t_big = best_time(100_000)
    ratio = t_big / t_small
    ok = ratio <= 3.0 * 10.0
    _verdict(4, ok, f"10x input scaled {ratio:.1f}x (limit 30x = 3x of linear)")


# -- 5: hierarchy benefit at desk scale --------------------------------------------------

def test_criterion_5_hierarchy_benefit(corpus):
    t0 = time.perf_counter()
    tree = build_tree(extract_topics(corpus.catalog, FixtureExtractor(corpus.fixture)))
    labels = [bool(s.label) for s in corpus.test]

    config = DetectConfig()  # SAE, pattern matching only
    kbs = train(corpus.train, tree, config)
    detector = Detector(tree, kbs, config)
    reports = detector.run(corpus.test)
    hier = compute_metrics([r.final_verdict for r in reports], labels)

    seen = {tuple(s.keys) for s in corpus.train}
    flat = compute_metrics([tuple(s.keys) not in seen for s in corpus.test], labels)

    dt = time.perf_counter() - t0
    margin = hier.f1 - flat.f1
    ok = hier.f1 >= 0.95 and flat.f1 <= 0.7 and margin >= 0.2 and dt < 60.0
    _verdict(
        5,
        ok,
        f"hierarchical F1={hier.f1:.3f} (>= 0.95) vs flat matching F1={flat.f1:.3f} "
        f"(<= 0.7), margin {margin:.3f} (>= 0.2), {dt:.1f}s (< 60s)",
    )


# -- 6: hybrid precision lift --------------------------------------------------------------

def _seeded_corpus():
    return make_corpus(benign_unseen_rate=0.3, seed=7)


def _templates_map(corpus):
    return {t.key: t.text for t in corpus.catalog.templates()}


def test_criterion_6_hybrid_precision_lift():
    corpus = _seeded_corpus()
    tree = build_tree(extract_topics(corpus.catalog, FixtureExtractor(corpus.fixture)))
    labels = [bool(s.label) for s in corpus.test]
    templates = _templates_map(corpus)
    assert corpus.benign_unseen_ids  # the lift needs seeded benign-unseen sequences

    # pattern matching only
    config_p = DetectConfig()
    kbs_p = train(corpus.train, tree, config_p)
    reports_p = Detector(tree, kbs_p, config_p).run(corpus.test)
    metrics_p = compute_metrics([r.final_verdict for r in reports_p], labels)

    # pattern matching + scripted LLM that recognizes the benign-unseen pattern
    provider = MockProvider(
        detect_rules=[
            (
                f"TARGET-NODES: {BENIGN_UNSEEN_ACTION_NODES}",
                "VERDICT: NORMAL\nrepeated request/response polling is routine",
            )
        ]
    )
    config_pl = DetectConfig(llm_enabled=True)
    kbs_pl = train(corpus.train, tree, config_pl, provider=provider, templates=templates)
    reports_pl = Detector(tree, kbs_pl, config_pl, provider=provider, templates=templates).run(corpus.test)
    metrics_pl = compute_metrics([r.final_verdict for r in reports_pl], labels)

    ok = metrics_pl.precision > metrics_p.precision and metrics_pl.recall == metrics_p.recall
    _verdict(
        6,
        ok,
        f"precision {metrics_p.precision:.3f} -> {metrics_pl.precision:.3f} with LLM, "
        f"recall unchanged at {metrics_pl.recall:.3f}",
    )


# -- 7: cache and early-exit accounting ------------------------------------------------------

def test_criterion_7_cache_and_early_exit():
    corpus = make_corpus(n_train=100, n_test=200, anomaly_rate=0.15, benign_unseen_rate=0.2, seed=13)
    tree = build_tree(extract_topics(corpus.catalog, FixtureExtractor(corpus.fixture)))
    templates = _templates_map(corpus)
    provider = MockProvider()
    config = DetectConfig(llm_enabled=True)
    kbs = train(corpus.train, tree, config, provider=provider, templates=templates)
    detector = Detector(tree, kbs, config, provider=provider, templates=templates)

    first = detector.run(corpus.test)
    calls_after_first = provider.calls
    second = detector.run(corpus.test)
    rerun_calls = provider.calls - calls_after_first
    rerun_ok = rerun_calls == 0 and [r.final_verdict for r in first] == [
        r.final_verdict for r in second
    ]

    status_first = [r for r in first if r.first_abnormal_level == STATUS]
    early_ok = bool(status_first) and all(
        r.counters.evals_per_level[ACTION] == 0 and r.counters.evals_per_level[ENTITY] == 0
        for r in status_first
    )

    verdicts = {}
    for flag in (True, False):
        p = MockProvider()
        cfg = DetectConfig(llm_enabled=True, early_exit=flag)
        fresh = train(corpus.train, tree, cfg, provider=p, templates=templates)
        verdicts[flag] = [
            r.final_verdict
            for r in Detector(tree, fresh, cfg, provider=p, templates=templates).run(corpus.test)
        ]
    equiv_ok = verdicts[True] == verdicts[False]

    ok = rerun_ok and early_ok and equiv_ok
    _verdict(
        7,
        ok,
        f"rerun provider calls = {rerun_calls} (= 0); {len(status_first)} status-first "
        f"sequences all skipped higher levels; early-exit on/off verdicts identical",
    )


# -- 8: reuse and resource reports ---------------------------------------------------------

def test_criterion_8_reuse_and_resources(corpus):
    tree = build_tree(extract_topics(corpus.catalog, FixtureExtractor(corpus.fixture)))
    config = DetectConfig(early_exit=False)
    kbs = train(corpus.train, tree, config)
    detector = Detector(tree, kbs, config)
    reports = detector.run(corpus.test)
    rep = structure_report(tree, kbs, reports, detector.llm_calls)

    # independent tallies straight from decompositions
    uniques = {ENTITY: set(), ACTION: set(), STATUS: set()}
    occurrences = {ENTITY: 0, ACTION: 0, STATUS: 0}
    for seq in corpus.train:
        result = top_down_decompose(seq.keys, tree)
        for s in result.all_seqs():
            uniques[s.level].add(s.signature)
            occurrences[s.level] += 1
    tally_ok = all(
        rep.unique_seqs[lv] == len(uniques[lv]) and rep.total_occurrences[lv] == occurrences[lv]
        for lv in uniques
    )

    keys_per_level = {ENTITY: 0, ACTION: 0, STATUS: 0}
    raw = 0
    for seq in corpus.test:
        raw += len(seq.keys)
        result = top_down_decompose(seq.keys, tree)
        for s in result.all_seqs():
            keys_per_level[s.level] += len(s.chunk)
    expected_sets = {
        "S": keys_per_level[STATUS],
        "SA": keys_per_level[STATUS] + keys_per_level[ACTION],
        "SAE": keys_per_level[STATUS] + keys_per_level[ACTION] + keys_per_level[ENTITY],
    }
    keys_ok = (
        rep.keys_by_level_set == expected_sets
        and rep.raw_test_keys == raw
        and rep.keys_by_level_set["S"]
        <= rep.keys_by_level_set["SA"]
        <= rep.keys_by_level_set["SAE"]
    )

    reuse = rep.reuse_ratio[STATUS]
    ok = tally_ok and keys_ok and reuse >= 10.0
    _verdict(
        8,
        ok,
        f"S-seq reuse ratio {reuse:.1f} (>= 10), key counts "
        f"S={rep.keys_by_level_set['S']} <= SA={rep.keys_by_level_set['SA']} "
        f"<= SAE={rep.keys_by_level_set['SAE']}, all values match independent tallies",
    )


# -- 9: metrics correctness ----------------------------------------------------------------

def test_criterion_9_metrics_correctness():
    rng = random.Random(99)
    worst = 0.0
    for _ in range(1000):
        tp, fp, tn, fn = (rng.randint(0, 200) for _ in range(4))
        preds = [True] * tp + [True] * fp + [False] * tn + [False] * fn
        labels = [True] * tp + [False] * fp + [False] * tn + [True] * fn
        order = list(range(len(preds)))
        rng.shuffle(order)
        m = compute_metrics([preds[i] for i in order], [labels[i] for i in order])
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        worst = max(worst, abs(m.precision - p), abs(m.recall - r), abs(m.f1 - f1))
    formula_ok = worst <= 1e-9

    # published P 87.13 / R 99.33 / F1 92.83 from the implied confusion counts
    m = compute_metrics(
        [True] * (9933 + 1467) + [False] * 67,
        [True] * 9933 + [False] * 1467 + [True] * 67,
    )
    triple = (round(100 * m.precision, 2), round(100 * m.recall, 2), round(100 * m.f1, 2))
    cross_ok = triple == (87.13, 99.33, 92.83)

    ok = formula_ok and cross_ok
    _verdict(
        9,
        ok,
        f"1000 random configurations within {worst:.1e} of formula oracle (<= 1e-9); "
        f"reference triple recovered as {triple}",
    )


# -- 10: determinism --------------------------------------------------------------------------

def _pipeline_config(base: Path, data: Path, fixture_file: Path, out: Path) -> Path:
    cfg = configparser.ConfigParser()
    cfg["provider"] = {"kind": "recorded", "fixture_path": str(fixture_file)}
    cfg["hierarchy"] = {
        "templates": str(data / "templates.csv"),
        "extractor": "fixture",
        "fixture": str(data / "fixture.json"),
        "tree_out": str(out / "tree.json"),
    }
    cfg["train"] = {"sequences": str(data / "train.jsonl"), "kb_dir": str(out / "kb"), "llm": "on"}
    cfg["detect"] = {
        "sequences": str(data / "test.jsonl"),
        "llm": "on",
        "report": str(out / "report.jsonl"),
    }
    cfg["eval"] = {"out": str(out / "eval.json")}
    path = base / f"{out.name}.ini"
    with path.open("w") as fh:
        cfg.write(fh)
    return path


def test_criterion_10_determinism(tmp_path):
    corpus = make_corpus(n_train=40, n_test=80, anomaly_rate=0.1, benign_unseen_rate=0.2, seed=11)
    data = tmp_path / "data"
    write_corpus(corpus, data)
    fixture_file = tmp_path / "recorded.jsonl"

    # seed the recorded fixture by replaying the exact pipeline computation once
    catalog = load_template_catalog(data / "templates.csv")
    triples = refine_topics(extract_topics(catalog, FixtureExtractor.from_file(data / "fixture.json")))
    tree = build_tree(triples)
    templates = {t.key: t.text for t in catalog.templates()}
    recorder = Recorder(MockProvider())
    config = DetectConfig(llm_enabled=True)
    kbs = train(
        load_sequences(data / "train.jsonl", catalog), tree, config,
        provider=recorder, templates=templates,
    )
    Detector(tree, kbs, config, provider=recorder, templates=templates).run(
        load_sequences(data / "test.jsonl", catalog)
    )
    recorder.save(fixture_file)

    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        out.mkdir()
        run_pipeline(_pipeline_config(tmp_path, data, fixture_file, out))
        kb_bytes = {
            p.name: p.read_bytes() for p in sorted((out / "kb").glob("*.json"))
        }
        report_lines = (out / "report.jsonl").read_bytes().split(b"\n")[1:]  # drop meta header
        outputs.append(
            {
                "tree": (out / "tree.json").read_bytes(),
                "kb": kb_bytes,
                "report": report_lines,
                "eval": (out / "eval.json").read_bytes(),
            }
        )

    ok = outputs[0] == outputs[1] and len(outputs[0]["kb"]) == 6
    _verdict(10, ok, "two pipeline runs byte-identical (tree, 6 KB files, report body, eval)")
