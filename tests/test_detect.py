"""Hybrid detection: routing, caching, early exit, and training."""

import functools
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlog import detect as detect_module
from hierlog.detect import (
    AUTOMATON,
    DetectConfig,
    Detector,
    LEVEL_PRESETS,
    detect_local_automaton,
    detect_local_exact,
    train,
)
from hierlog.decompose import top_down_decompose
from hierlog.errors import DecompositionError, ProviderError
from hierlog.hierarchy import ACTION, ENTITY, STATUS, FixtureExtractor, TopicTriple, build_tree, extract_topics
from hierlog.ingest import LogSequence
from hierlog.knowledge import KnowledgeBaseSet
from hierlog.semantics import MockProvider
from hierlog.synthetic import make_corpus

from conftest import TOY_KEYS, report_to_json

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


def test_only_an_automaton_level_builds_its_transition_index_at_construction(toy_cat, toy_tree):
    provider = MockProvider()
    config = DetectConfig(llm_enabled=True, early_exit=False)
    kbs = train(make_sequences(toy_cat, [["k1", "k3"], ["k3", "k5"], TOY_KEYS]), toy_tree, config, provider=provider)
    walks = [TOY_KEYS, ["k1", "k3", "k5"], ["k5", "k1"], ["k2", "k1", "k3", "k4", "k5", "k6"]]
    sequences = make_sequences(toy_cat, walks)
    exact = Detector(toy_tree, kbs, config, provider=provider)
    exact.run(sequences)
    assert exact.llm_calls > 0  # retrieval grouped the entries, and built no index either
    assert [kbs.train[level]._transitions for level in (STATUS, ACTION, ENTITY)] == [None, None, None]

    mixed = DetectConfig(detector_per_level={ENTITY: AUTOMATON}, llm_enabled=True, early_exit=False)
    detector = Detector(toy_tree, kbs, mixed, provider=provider)
    index = kbs.train[ENTITY]._transitions
    assert index is not None and ("Session", "Auth") in index["root"]
    assert kbs.train[STATUS]._transitions is None and kbs.train[ACTION]._transitions is None
    reports = detector.run(sequences)
    assert kbs.train[ENTITY]._transitions is index  # built once, at construction
    assert any(v.source == "automaton" for report in reports for v in report.verdicts)


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
    assert detector.llm_calls == 1
    calls_after_first = provider.calls

    report2 = detector.detect_sequence(seq)
    assert provider.calls == calls_after_first  # cached, no new provider traffic
    assert detector.llm_calls == 1
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


def test_chunks_whose_keys_join_alike_get_their_own_llm_verdicts():
    # one key that holds the chunk-key separator, and the two keys that it joins
    tree = build_tree([TopicTriple("a\x1fb", "E", "X", "joined"), TopicTriple("a", "E", "X", "sa"),
                       TopicTriple("b", "E", "X", "sb")])
    provider = MockProvider(detect_rules=[("TARGET-NODES: joined", "VERDICT: NORMAL\nbenign")])
    config = DetectConfig(llm_enabled=True)
    kbs = train([LogSequence("t", ["a"], False)], tree, config, provider=provider)
    detector = Detector(tree, kbs, config, provider=provider)
    joined, split = detector.run([LogSequence("s1", ["a\x1fb"]), LogSequence("s2", ["a", "b"])])
    assert (joined.final_verdict, split.final_verdict) == (False, True)
    assert [v.source for v in split.verdicts] == ["llm"]
    assert detector.llm_calls == 2
    assert len(kbs.test[STATUS].entries) == 2


def test_action_chunks_of_one_pattern_get_their_own_llm_verdicts():
    # the entity walk E and the action walk X of both test chunks are one
    # pattern, unseen in training; their status walks, and so their
    # summaries, differ. The provider judges the target summary alone.
    tree = build_tree([TopicTriple("ok", "E", "X", "fine"), TopicTriple("bad", "E", "X", "broken"),
                       TopicTriple("y", "E", "Y", "none")])
    provider = MockProvider(
        detect_rules=[("Target segment:\nA:X[S:broken]\n", "VERDICT: ABNORMAL\nbroken")],
        default_detect="VERDICT: NORMAL\nbenign",
    )
    config = DetectConfig(llm_enabled=True)
    kbs = train([LogSequence("t1", ["ok", "y"]), LogSequence("t2", ["bad", "y"])], tree, config, provider=provider)
    detector = Detector(tree, kbs, config, provider=provider)
    fine, broken = detector.run([LogSequence("s1", ["ok"]), LogSequence("s2", ["bad"])])
    assert [(v.level, v.signature, v.source, v.verdict) for v in fine.verdicts] == [
        (STATUS, "root>E>X|fine", "pattern_match", "normal"), (ACTION, "root>E|X", "llm", "normal"),
        (ENTITY, "root|E", "pattern_match", "normal"),
    ]
    assert (broken.final_verdict, broken.first_abnormal_level) == (True, ACTION)
    assert [(v.signature, v.source, v.verdict) for v in broken.verdicts[1:]] == [("root>E|X", "llm", "abnormal")]
    assert detector.llm_calls == 2
    assert detector.verdict_misses[ACTION] == 2


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

def test_llm_reports_are_memoised_at_their_first_sight(toy_cat, toy_tree):
    provider, detector = hybrid_setup(toy_cat, toy_tree, [])
    seq = make_sequences(toy_cat, [["k2", "k1", "k3", "k4", "k5", "k6"]])[0]
    calls = provider.calls
    first = detector.detect_sequence(seq)
    assert provider.calls > calls and detector.llm_calls == 1
    assert first.verdicts[0].source == "llm"
    calls = provider.calls
    second = detector.detect_sequence(LogSequence("again", seq.keys))
    assert (detector.memo_hits, detector.memo_misses) == (1, 1)
    assert provider.calls == calls and detector.llm_calls == 1
    assert second.sequence_id == "again"
    assert report_to_json(second) == {**report_to_json(first), "sequence_id": "again"}
    # each hit is its own report: changing one leaves the memoised body as it was
    body = json.dumps(report_to_json(first))
    second.verdicts.clear()
    second.counters.keys_per_level[STATUS] += 1
    second.counters.evals_per_level[STATUS] += 1
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


def test_memo_stays_within_its_bound(toy_cat, toy_tree, monkeypatch):
    kbs = train(make_sequences(toy_cat, [TOY_KEYS]), toy_tree, DetectConfig())
    config = DetectConfig(early_exit=False)
    key_lists = itertools.product(TOY_KEYS, repeat=3)
    seqs = [LogSequence(f"s{i}", list(keys)) for i, keys in zip(range(12), key_lists)]
    seqs += [LogSequence(f"r{s.id}", s.keys) for s in seqs[::-1]]  # later sights of every key list
    want = [report_to_json(Detector(toy_tree, kbs, config).detect_sequence(s)) for s in seqs]
    monkeypatch.setattr(detect_module, "MEMO_SIZE", 5)
    detector = Detector(toy_tree, kbs, config)
    for s, body in zip(seqs, want):
        assert report_to_json(detector.detect_sequence(s)) == body
        assert len(detector._memo) <= 5
    assert detector.memo_hits > 0
    assert detector.memo_misses > len(seqs) // 2  # emptied, so key lists ran again


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
    assert memoised.memo_misses == len({tuple(s.keys) for s in seqs})  # LLM-routed reports too


# -- sub-sequence verdict cache ------------------------------------------------------

def spliced_sequences(corpus, n=80):
    """Pairs of test sequences joined end to end: their chunks repeat, their key lists never do."""
    rng = random.Random(5)
    pool = [s.keys for s in corpus.test]
    seen, seqs = set(), []
    while len(seqs) < n:
        keys = rng.choice(pool) + rng.choice(pool)
        if tuple(keys) not in seen:
            seen.add(tuple(keys))
            seqs.append(LogSequence(f"j{len(seqs)}", keys))
    return seqs


class DetectionLog(MockProvider):
    """A MockProvider that records each detection request it answers."""

    def __init__(self, asked):
        super().__init__()
        self.asked = asked

    def complete(self, request):
        if request.startswith("TASK: detect"):
            self.asked.append(request)
        return super().complete(request)


@pytest.mark.parametrize("early_exit", [True, False], ids=["early-exit", "all-levels"])
@pytest.mark.parametrize("llm", [False, True], ids=["llm-off", "mock-llm"])
def test_shared_chunks_give_the_same_reports_as_a_fresh_detector(llm, early_exit):
    corpus, tree, templates, _, kbs = shuffle_setup(llm)
    config = DetectConfig(llm_enabled=llm, early_exit=early_exit)
    seqs = spliced_sequences(corpus)
    warm_asked, oracle_asked = [], []

    def provider(asked):
        return DetectionLog(asked) if llm else None

    warm = Detector(tree, fresh_caches(kbs), config, provider=provider(warm_asked), templates=templates)
    got = [json.dumps(report_to_json(r)) for r in warm.run(seqs)]
    oracle_kbs = fresh_caches(kbs)
    want = [
        json.dumps(report_to_json(
            Detector(tree, oracle_kbs, config, provider=provider(oracle_asked), templates=templates).detect_sequence(s)
        ))
        for s in seqs
    ]
    assert got == want
    # the warm detector's summary cache puts the same summaries into the same prompts
    assert warm_asked == oracle_asked and bool(warm_asked) == llm
    assert warm.memo_hits == 0
    assert warm.verdict_hits[STATUS] > 0 and warm.verdict_hits[ACTION] > 0
    evals = [json.loads(body)["counters"]["evals_per_level"] for body in got]
    for level in (STATUS, ACTION):
        assert warm.verdict_hits[level] + warm.verdict_misses[level] == sum(e[level] for e in evals)


class FailsOnce(MockProvider):
    def complete(self, request):
        if not self.calls:
            self.calls += 1
            raise ProviderError("offline")
        return super().complete(request)


def test_a_chunk_undecided_by_a_provider_error_is_asked_again(toy_cat, toy_tree):
    config = DetectConfig(llm_enabled=True)
    kbs = train(make_sequences(toy_cat, [TOY_KEYS]), toy_tree, config,
                provider=MockProvider(), templates=TOY_TEMPLATES_MAP)
    detector = Detector(toy_tree, kbs, config, provider=FailsOnce(), templates=TOY_TEMPLATES_MAP)
    # three key lists that share the unseen status chunk k2, k1
    failed, retried, reused = (detector.detect_sequence(s) for s in make_sequences(
        toy_cat, [["k2", "k1", "k3", "k4", "k5", "k6"], ["k2", "k1", "k3", "k4"], ["k2", "k1", "k5", "k6"]]
    ))
    assert [r.counters.provider_errors for r in (failed, retried, reused)] == [1, 0, 0]
    assert detector.llm_calls == 1  # asked after the error, then reused
    assert failed.verdicts[0].explanation.startswith("undecided")
    assert reused.verdicts[0] is retried.verdicts[0] and retried.verdicts[0].source == "llm"
    assert (detector.verdict_hits[STATUS], detector.verdict_misses[STATUS]) == (1, 2)


def test_verdict_and_summary_dicts_stay_within_their_bound(monkeypatch):
    corpus, tree, templates, _, kbs = shuffle_setup(True)
    config = DetectConfig(llm_enabled=True, early_exit=False)
    seqs = spliced_sequences(corpus, 40)
    want = [report_to_json(r) for r in Detector(
        tree, fresh_caches(kbs), config, provider=MockProvider(), templates=templates
    ).run(seqs)]
    monkeypatch.setattr(detect_module, "VERDICT_CACHE_SIZE", 2)
    small = Detector(tree, fresh_caches(kbs), config, provider=MockProvider(), templates=templates)
    for s, body in zip(seqs, want):
        assert report_to_json(small.detect_sequence(s)) == body
        assert all(len(d) <= 2 for d in [*small._verdicts.values(), *small._summary_cache.values()])
    assert small.verdict_hits[STATUS] > 0


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


def report_bodies(llm, kbs, sequences):
    _, tree, templates, config, _ = shuffle_setup(llm)
    provider = MockProvider() if llm else None
    reports = Detector(tree, kbs, config, provider=provider, templates=templates).run(sequences)
    return {r.sequence_id: report_to_json(r) for r in reports}


def fresh_caches(kbs):
    fresh = KnowledgeBaseSet()
    fresh.train = kbs.train
    return fresh


@pytest.mark.parametrize("llm", [False, True], ids=["llm-off", "mock-llm"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_shuffled_input_gives_the_same_verdicts(llm, data):
    # the whole report body, not only its verdicts, is a function of the key list
    corpus, _, _, _, kbs = shuffle_setup(llm)
    in_order = report_bodies(llm, fresh_caches(kbs), corpus.test)
    if llm:
        assert any(v["source"] == "llm" for body in in_order.values() for v in body["verdicts"])
    order = data.draw(st.permutations(range(len(corpus.test))), label="order")
    shuffled = [corpus.test[i] for i in order]
    warm = fresh_caches(kbs)
    assert report_bodies(llm, warm, shuffled) == in_order
    assert report_bodies(llm, warm, corpus.test) == in_order  # on warm caches


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
    assert report_bodies(True, fresh_caches(loaded), corpus.test) == report_bodies(True, fresh_caches(kbs), corpus.test)


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


def test_config_rejects_a_negative_m():
    with pytest.raises(ValueError, match="^m must be 0 or more, not -1$"):
        DetectConfig(m=-1)
    assert DetectConfig(m=0).m == 0


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
