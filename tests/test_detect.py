"""Hybrid detection: routing, caching, early exit, and training."""

import functools
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlog.detect import (
    AUTOMATON,
    MEMO_SIZE,
    DetectConfig,
    Detector,
    LEVEL_PRESETS,
    detect_local_automaton,
    detect_local_exact,
    train,
)
from hierlog.decompose import top_down_decompose
from hierlog.errors import DecompositionError, ProviderError
from hierlog.evalreport import report_to_json
from hierlog.hierarchy import ACTION, ENTITY, STATUS, FixtureExtractor, build_tree, extract_topics
from hierlog.ingest import LogSequence
from hierlog.knowledge import KnowledgeBaseSet
from hierlog.semantics import MockProvider
from hierlog.synthetic import make_corpus

from conftest import TOY_KEYS

TOY_TEMPLATES_MAP = {
    "k1": "Open session started",
    "k2": "Open session successful",
    "k3": "Authentication starts",
    "k4": "Authentication succeeds",
    "k5": "GET request sent to <*>",
    "k6": "GET response received from <*>",
}


def make_sequences(toy_cat, key_lists, label=False):
    return [
        LogSequence(id=f"s{i}", keys=toy_cat.lookup(keys), label=label)
        for i, keys in enumerate(key_lists)
    ]


class FailingProvider:
    calls = 0

    def complete(self, request):
        self.calls += 1
        raise ProviderError("offline")


# -- training -------------------------------------------------------------------

def test_train_kb_sizes_for_golden_sequence(toy_cat, toy_tree):
    kbs = train(make_sequences(toy_cat, [TOY_KEYS]), toy_tree, DetectConfig())
    assert len(kbs.train[ENTITY].entries) == 1
    assert len(kbs.train[ACTION].entries) == 3
    assert len(kbs.train[STATUS].entries) == 5


def test_train_rejects_abnormal_sequences(toy_cat, toy_tree):
    seqs = make_sequences(toy_cat, [TOY_KEYS], label=True)
    with pytest.raises(ValueError):
        train(seqs, toy_tree, DetectConfig())


def test_train_computes_summaries_and_embeddings(toy_cat, toy_tree):
    provider = MockProvider()
    config = DetectConfig(llm_enabled=True)
    kbs = train(
        make_sequences(toy_cat, [TOY_KEYS]), toy_tree, config,
        provider=provider, templates=TOY_TEMPLATES_MAP,
    )
    s_entry = kbs.train[STATUS].entries["root>Session>open|started>succf"]
    assert s_entry.summary == "S:started>succf"
    assert s_entry.embedding is not None
    e_entry = kbs.train[ENTITY].entries["root|Session>Auth>Comm"]
    assert e_entry.summary.startswith("E:Session>Auth>Comm[")
    # one call per unique pattern: 5 status + 3 action + 1 entity
    assert provider.calls == 9
    # repeats add no further provider calls
    provider2 = MockProvider()
    train(make_sequences(toy_cat, [TOY_KEYS, TOY_KEYS]), toy_tree, config,
          provider=provider2, templates=TOY_TEMPLATES_MAP)
    assert provider2.calls == 9


# -- local detectors --------------------------------------------------------------

def test_exact_vs_automaton(toy_cat, toy_tree):
    # train Session>Auth and Auth>Comm; the stitched walk Session>Auth>Comm
    # is new as a whole pattern but every transition was seen
    kbs = train(make_sequences(toy_cat, [["k1", "k3"], ["k3", "k5"]]), toy_tree, DetectConfig())
    e_seq = top_down_decompose(["k1", "k3", "k5"], toy_tree).e_seq
    assert detect_local_exact(e_seq, kbs.train[ENTITY]).verdict == "abnormal"
    assert detect_local_automaton(e_seq, kbs.train[ENTITY]).verdict == "normal"


def test_detector_per_level_override(toy_cat, toy_tree):
    kbs = train(make_sequences(toy_cat, [["k1", "k3"], ["k3", "k5"]]), toy_tree, DetectConfig())
    test_seq = make_sequences(toy_cat, [["k1", "k3", "k5"]])[0]

    exact = Detector(toy_tree, kbs, DetectConfig())
    assert exact.detect_sequence(test_seq).final_verdict is True

    kbs2 = train(make_sequences(toy_cat, [["k1", "k3"], ["k3", "k5"]]), toy_tree, DetectConfig())
    mixed = Detector(
        toy_tree, kbs2,
        DetectConfig(detector_per_level={STATUS: "exact", ACTION: "exact", ENTITY: AUTOMATON}),
    )
    assert mixed.detect_sequence(test_seq).final_verdict is False


# -- hybrid routing ---------------------------------------------------------------

def hybrid_setup(toy_cat, toy_tree, detect_rules):
    provider = MockProvider(detect_rules=detect_rules)
    config = DetectConfig(llm_enabled=True)
    kbs = train(
        make_sequences(toy_cat, [TOY_KEYS]), toy_tree, config,
        provider=provider, templates=TOY_TEMPLATES_MAP,
    )
    detector = Detector(toy_tree, kbs, config, provider=provider, templates=TOY_TEMPLATES_MAP)
    return provider, detector


def test_llm_overrides_pattern_mismatch(toy_cat, toy_tree):
    provider, detector = hybrid_setup(
        toy_cat, toy_tree,
        [("TARGET-NODES: succf>started", "VERDICT: NORMAL\nbenign reordering")],
    )
    report = detector.detect_sequence(make_sequences(toy_cat, [["k2", "k1", "k3", "k4", "k5", "k6"]])[0])
    # status pattern unseen, but the scripted LLM accepts it; remaining levels trained
    by_source = {v.source for v in report.verdicts}
    assert report.final_verdict is False
    assert "llm" in by_source


def test_llm_default_abnormal_and_cache(toy_cat, toy_tree):
    provider, detector = hybrid_setup(toy_cat, toy_tree, [])
    seq = make_sequences(toy_cat, [["k2", "k1", "k3", "k4", "k5", "k6"]])[0]
    report1 = detector.detect_sequence(seq)
    assert report1.final_verdict is True
    assert report1.first_abnormal_level == STATUS
    assert report1.counters.llm_calls == 1
    calls_after_first = provider.calls

    report2 = detector.detect_sequence(seq)
    assert provider.calls == calls_after_first  # cached, no new provider traffic
    assert report2.counters.llm_calls == 0
    assert report2.verdicts == report1.verdicts
    assert report2.verdicts[0].source == "llm"


def test_cache_hit_returns_the_original_verdict(toy_cat, toy_tree):
    # an unparseable answer gives a decided, low-confidence abnormal verdict
    provider, detector = hybrid_setup(toy_cat, toy_tree, [("TARGET-NODES: succf>started", "no verdict here")])
    seq = make_sequences(toy_cat, [["k2", "k1", "k3", "k4", "k5", "k6"]])[0]
    first = detector.detect_sequence(seq).verdicts[0]
    assert (first.source, first.verdict, first.confidence_flag) == ("llm", "abnormal", "low")
    assert first.explanation == "no verdict here"
    calls = provider.calls
    again = detector.detect_sequence(seq).verdicts[0]
    assert provider.calls == calls
    assert again == first


def test_llm_cache_holds_only_llm_verdicts(toy_cat, toy_tree):
    provider, detector = hybrid_setup(toy_cat, toy_tree, [])
    detector.run(make_sequences(toy_cat, [TOY_KEYS, ["k2", "k1", "k3", "k4", "k5", "k6"]]))
    assert [len(detector.kbs.test[level].entries) for level in (STATUS, ACTION, ENTITY)] == [1, 0, 0]
    # with the LLM off, unseen patterns leave the cache as it was
    Detector(toy_tree, detector.kbs, DetectConfig()).run(
        make_sequences(toy_cat, [["k1", "k2", "k5", "k6"], ["k4", "k3"]])
    )
    assert [len(detector.kbs.test[level].entries) for level in (STATUS, ACTION, ENTITY)] == [1, 0, 0]


def test_provider_error_fallback_not_cached(toy_cat, toy_tree):
    config = DetectConfig(llm_enabled=True)
    mock = MockProvider()
    kbs = train(make_sequences(toy_cat, [TOY_KEYS]), toy_tree, config,
                provider=mock, templates=TOY_TEMPLATES_MAP)
    failing = FailingProvider()
    detector = Detector(toy_tree, kbs, config, provider=failing, templates=TOY_TEMPLATES_MAP)
    seq = make_sequences(toy_cat, [["k2", "k1", "k3", "k4", "k5", "k6"]])[0]

    report1 = detector.detect_sequence(seq)
    assert report1.final_verdict is True
    assert report1.verdicts[0].confidence_flag == "low"
    assert report1.counters.provider_errors == 1
    errors_first = failing.calls

    report2 = detector.detect_sequence(seq)  # undecided verdicts are not cached
    assert failing.calls > errors_first
    assert report2.counters.provider_errors == 1
    assert not detector.kbs.test[STATUS].entries


# -- whole-sequence memo ------------------------------------------------------------

def test_llm_reports_are_memoised_only_once_the_cache_answers(toy_cat, toy_tree):
    provider, detector = hybrid_setup(toy_cat, toy_tree, [])
    seq = make_sequences(toy_cat, [["k2", "k1", "k3", "k4", "k5", "k6"]])[0]
    first, second = detector.detect_sequence(seq), detector.detect_sequence(seq)
    assert (first.counters.llm_calls, second.counters.llm_calls) == (1, 0)
    assert (detector.memo_hits, detector.memo_misses) == (0, 2)  # a report with llm_calls > 0 is not stored
    calls = provider.calls
    third = detector.detect_sequence(LogSequence("again", seq.keys))
    assert (detector.memo_hits, detector.memo_misses) == (1, 2)
    assert provider.calls == calls
    assert third.sequence_id == "again" and third.counters.llm_calls == 0
    assert report_to_json(third) == {**report_to_json(second), "sequence_id": "again"}
    # each hit is its own report: changing one leaves the memoised body as it was
    body = json.dumps(report_to_json(second))
    third.verdicts.clear()
    third.counters.keys_per_level[STATUS] += 1
    third.counters.evals_per_level[STATUS] += 1
    assert json.dumps(report_to_json(detector.detect_sequence(seq))) == body


def test_provider_errors_are_never_memoised(toy_cat, toy_tree):
    config = DetectConfig(llm_enabled=True)
    kbs = train(make_sequences(toy_cat, [TOY_KEYS]), toy_tree, config,
                provider=MockProvider(), templates=TOY_TEMPLATES_MAP)
    failing = FailingProvider()
    detector = Detector(toy_tree, kbs, config, provider=failing, templates=TOY_TEMPLATES_MAP)
    seq = make_sequences(toy_cat, [["k2", "k1", "k3", "k4", "k5", "k6"]])[0]
    calls = []
    for _ in range(3):
        assert detector.detect_sequence(seq).counters.provider_errors == 1
        calls.append(failing.calls)
    assert calls[0] < calls[1] < calls[2]
    assert (detector.memo_hits, detector.memo_misses) == (0, 3)


def test_memo_is_bounded_and_evicts_the_least_recently_used(toy_cat, toy_tree):
    kbs = train(make_sequences(toy_cat, [TOY_KEYS]), toy_tree, DetectConfig())
    detector = Detector(toy_tree, kbs, DetectConfig(early_exit=False))
    key_lists = itertools.product(TOY_KEYS, repeat=5)
    seqs = [LogSequence(f"s{i}", list(keys)) for i, keys in zip(range(MEMO_SIZE + 3), key_lists)]
    first = [report_to_json(detector.detect_sequence(s)) for s in seqs[:MEMO_SIZE]]
    assert len(detector._memo) == MEMO_SIZE
    detector.detect_sequence(seqs[0])  # now the most recently used
    for s in seqs[MEMO_SIZE:]:
        detector.detect_sequence(s)
    assert len(detector._memo) == MEMO_SIZE
    assert tuple(seqs[0].keys) in detector._memo
    assert all(tuple(s.keys) not in detector._memo for s in seqs[1:4])
    misses = detector.memo_misses
    assert report_to_json(detector.detect_sequence(seqs[1])) == first[1]  # evicted, so run again
    assert detector.memo_misses == misses + 1


@pytest.mark.parametrize("llm", [False, True], ids=["llm-off", "mock-llm"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_memoised_run_matches_a_fresh_detector_per_sequence(llm, data):
    corpus, tree, templates, config, kbs = shuffle_setup(llm)
    pool = [s.keys for s in corpus.test] + [[], ["k-unknown"]]
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=150), label="picks")
    seqs = [LogSequence(f"q{i}", pool[p]) for i, p in enumerate(picks)]

    def provider():
        return MockProvider() if llm else None

    memoised = Detector(tree, fresh_caches(kbs), config, provider=provider(), templates=templates)
    got = [json.dumps(report_to_json(r)) for r in memoised.run(seqs)]
    oracle_kbs = fresh_caches(kbs)
    want = [
        json.dumps(report_to_json(
            Detector(tree, oracle_kbs, config, provider=provider(), templates=templates).detect_sequence(s)
        ))
        for s in seqs
    ]
    assert got == want
    assert memoised.memo_hits + memoised.memo_misses == len(seqs)
    if not llm:
        assert memoised.memo_misses == len({tuple(s.keys) for s in seqs})


# -- verdicts as a function of the inputs -------------------------------------------

ALL_AUTOMATON = {STATUS: AUTOMATON, ACTION: AUTOMATON, ENTITY: AUTOMATON}


def bodies(reports):
    return [report_to_json(r) for r in reports]


def test_exact_run_leaves_automaton_verdicts_unchanged(toy_cat, toy_tree):
    # Session>Auth>Comm is unseen as a pattern, but every transition was trained
    train_seqs = make_sequences(toy_cat, [["k1", "k3"], ["k3", "k5"]])
    test_seqs = make_sequences(toy_cat, [["k1", "k3", "k5"], ["k1", "k3"], ["k5", "k1"]])
    automaton = DetectConfig(detector_per_level=dict(ALL_AUTOMATON))
    shared = train(train_seqs, toy_tree, DetectConfig())
    exact = Detector(toy_tree, shared, DetectConfig()).run(test_seqs)
    after_exact = Detector(toy_tree, shared, automaton).run(test_seqs)
    fresh = Detector(toy_tree, train(train_seqs, toy_tree, DetectConfig()), automaton).run(test_seqs)
    assert [r.final_verdict for r in exact] == [True, False, True]
    assert [r.final_verdict for r in fresh] == [False, False, True]
    assert bodies(after_exact) == bodies(fresh)


def test_exact_run_leaves_automaton_verdicts_unchanged_on_splices():
    # two training sequences spliced at random cut points: exact rejects many
    # of the splices that the automaton accepts
    corpus = make_corpus(n_train=80, n_test=0, seed=7)
    tree = build_tree(extract_topics(corpus.catalog, FixtureExtractor(corpus.fixture)))
    rng = random.Random(7)
    splices = []
    for i in range(300):
        a, b = rng.sample(corpus.train, 2)
        keys = a.keys[: rng.randint(1, len(a.keys))] + b.keys[rng.randint(0, len(b.keys) - 1):]
        splices.append(LogSequence(f"x{i}", keys))
    automaton = DetectConfig(detector_per_level=dict(ALL_AUTOMATON), early_exit=False)
    shared = train(corpus.train, tree, DetectConfig())
    exact = Detector(tree, shared, DetectConfig(early_exit=False)).run(splices)
    after_exact = Detector(tree, shared, automaton).run(splices)
    fresh = Detector(tree, train(corpus.train, tree, DetectConfig()), automaton).run(splices)
    assert sum(e.final_verdict and not f.final_verdict for e, f in zip(exact, fresh)) >= 10
    assert bodies(after_exact) == bodies(fresh)


@functools.cache
def shuffle_setup(llm):
    """A small corpus with unseen benign patterns, trained once per LLM setting."""
    corpus = make_corpus(n_train=60, n_test=60, anomaly_rate=0.15, benign_unseen_rate=0.3, seed=13)
    tree = build_tree(extract_topics(corpus.catalog, FixtureExtractor(corpus.fixture)))
    templates = {t.key: t.text for t in corpus.catalog.templates()}
    config = DetectConfig(llm_enabled=llm)
    provider = MockProvider() if llm else None
    kbs = train(corpus.train, tree, config, provider=provider, templates=templates)
    return corpus, tree, templates, config, kbs


def verdict_lists(llm, kbs, sequences):
    _, tree, templates, config, _ = shuffle_setup(llm)
    provider = MockProvider() if llm else None
    reports = Detector(tree, kbs, config, provider=provider, templates=templates).run(sequences)
    return {r.sequence_id: report_to_json(r)["verdicts"] for r in reports}


def fresh_caches(kbs):
    fresh = KnowledgeBaseSet()
    fresh.train = kbs.train
    return fresh


@pytest.mark.parametrize("llm", [False, True], ids=["llm-off", "mock-llm"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_shuffled_input_gives_the_same_verdicts(llm, data):
    corpus, _, _, _, kbs = shuffle_setup(llm)
    in_order = verdict_lists(llm, fresh_caches(kbs), corpus.test)
    if llm:
        assert any(v["source"] == "llm" for vs in in_order.values() for v in vs)
    order = data.draw(st.permutations(range(len(corpus.test))), label="order")
    shuffled = [corpus.test[i] for i in order]
    warm = fresh_caches(kbs)
    assert verdict_lists(llm, warm, shuffled) == in_order
    assert verdict_lists(llm, warm, corpus.test) == in_order  # on warm caches


def test_llm_trained_kb_dir_loads_and_saves_back_byte_identical(tmp_path):
    corpus, tree, templates, config, trained = shuffle_setup(True)
    kbs = fresh_caches(trained)
    Detector(tree, kbs, config, provider=MockProvider(), templates=templates).run(corpus.test)
    assert any(kb.entries for kb in kbs.test.values())
    assert all(e.embedding for kb in kbs.train.values() for e in kb.entries.values())
    kbs.save_dir(tmp_path / "saved")
    loaded = KnowledgeBaseSet.load_dir(tmp_path / "saved")
    loaded.save_dir(tmp_path / "again")
    for path in sorted((tmp_path / "saved").iterdir()):
        assert path.read_bytes() == (tmp_path / "again" / path.name).read_bytes(), path.name
    # the loaded vectors retrieve the same examples, so the verdicts agree
    assert verdict_lists(True, fresh_caches(loaded), corpus.test) == verdict_lists(True, fresh_caches(kbs), corpus.test)


# -- early exit and levels ----------------------------------------------------------

def test_early_exit_skips_higher_levels(toy_cat, toy_tree):
    kbs = train(make_sequences(toy_cat, [TOY_KEYS]), toy_tree, DetectConfig())
    detector = Detector(toy_tree, kbs, DetectConfig(early_exit=True))
    report = detector.detect_sequence(make_sequences(toy_cat, [["k2", "k1", "k3", "k4", "k5", "k6"]])[0])
    assert report.first_abnormal_level == STATUS
    assert report.counters.evals_per_level[ACTION] == 0
    assert report.counters.evals_per_level[ENTITY] == 0


def test_early_exit_verdict_equivalence(toy_cat, toy_tree):
    tests = [
        ["k2", "k1", "k3", "k4", "k5", "k6"],  # status anomaly
        ["k1", "k2", "k4", "k3", "k5", "k6"],  # action anomaly
        ["k1", "k2", "k5", "k6"],  # entity anomaly
        TOY_KEYS,  # normal
    ]
    verdicts = {}
    for flag in (True, False):
        kbs = train(make_sequences(toy_cat, [TOY_KEYS]), toy_tree, DetectConfig())
        detector = Detector(toy_tree, kbs, DetectConfig(early_exit=flag))
        verdicts[flag] = [
            detector.detect_sequence(s).final_verdict
            for s in make_sequences(toy_cat, tests)
        ]
    assert verdicts[True] == verdicts[False] == [True, True, True, False]


def test_levels_preset_status_only(toy_cat, toy_tree):
    kbs = train(make_sequences(toy_cat, [TOY_KEYS]), toy_tree, DetectConfig())
    detector = Detector(toy_tree, kbs, DetectConfig(levels_enabled=LEVEL_PRESETS["S"]))
    report = detector.detect_sequence(make_sequences(toy_cat, [["k1", "k2", "k5", "k6"]])[0])
    # entity anomaly is invisible to the status-only preset
    assert report.final_verdict is False
    assert report.counters.evals_per_level[ACTION] == 0


# -- edge cases ----------------------------------------------------------------------

def test_empty_sequence_is_normal(toy_cat, toy_tree):
    kbs = train(make_sequences(toy_cat, [TOY_KEYS]), toy_tree, DetectConfig())
    detector = Detector(toy_tree, kbs, DetectConfig())
    report = detector.detect_sequence(LogSequence(id="empty", keys=[]))
    assert report.final_verdict is False
    assert report.raw_length == 0


def test_unknown_key_surfaces_as_abnormal(toy_cat, toy_tree):
    kbs = train(make_sequences(toy_cat, [TOY_KEYS]), toy_tree, DetectConfig())
    detector = Detector(toy_tree, kbs, DetectConfig())
    report = detector.detect_sequence(LogSequence("x", ["k1", "mystery"]))
    assert report.sequence_id == "x"
    assert report.final_verdict is True
    assert report.error is not None


def test_train_aborts_on_unknown_key(toy_cat, toy_tree):
    seqs = [LogSequence(id="bad", keys=["k1", "zz"], label=False)]
    with pytest.raises(DecompositionError):
        train(seqs, toy_tree, DetectConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        DetectConfig(levels_enabled=(ACTION,))  # bottom-up needs status
    with pytest.raises(ValueError):
        Detector(None, None, DetectConfig(llm_enabled=True), provider=None)
    assert DetectConfig(levels_enabled="SA").levels_enabled == (STATUS, ACTION)
    with pytest.raises(ValueError, match="^detector set for an unknown level 'stauts'$"):
        DetectConfig(detector_per_level={"stauts": AUTOMATON})


@pytest.mark.parametrize("kind", ["automata", "Exact", ""])
def test_config_rejects_an_unknown_detector_kind(kind):
    with pytest.raises(ValueError) as info:
        DetectConfig(detector_per_level={STATUS: "exact", ACTION: kind})
    assert str(info.value) == f"unknown detector {kind!r} for level 'action'; use 'exact' or 'automaton'"
