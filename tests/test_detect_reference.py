"""The Detector's memo and verdict dicts, and train's pattern dicts, against cache-free references.

Each reference decomposes every sequence with `top_down_decompose` and
works on the Seqs one by one, with no memo and no dict, as the detector
and training did before they keyed their dicts by pattern.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlog import detect as detect_module
from hierlog.decompose import top_down_decompose
from hierlog.detect import AUTOMATON, EXACT, LEVEL_ORDER, LEVEL_PRESETS, LOCAL_DETECTORS, DetectConfig, Detector, train
from hierlog.errors import DecompositionError
from hierlog.hierarchy import ACTION, ENTITY, STATUS, TopicTriple, build_tree
from hierlog.ingest import LogSequence
from hierlog.knowledge import KnowledgeBaseSet
from hierlog.semantics import VERDICT_ABNORMAL, embed_chunk, summarize_parent_seq, summarize_status_seq

# names that hold the signature's separators and its escape character
names = st.text(alphabet="ab|>\\", min_size=1, max_size=3)


@st.composite
def trees(draw):
    """A tree over up to eight keys, and its keys; names repeat across parents."""
    entities, actions, statuses = (draw(st.lists(names, min_size=1, max_size=3, unique=True)) for _ in range(3))
    triples = [
        TopicTriple(f"k{i}", draw(st.sampled_from(entities)), draw(st.sampled_from(actions)),
                    draw(st.sampled_from(statuses)))
        for i in range(draw(st.integers(1, 8)))
    ]
    return build_tree(triples), [t.key for t in triples]


def key_lists(keys, min_size=0):
    return st.lists(st.lists(st.sampled_from(keys), max_size=12), min_size=min_size, max_size=8)


def by_level(result):
    return {STATUS: result.s_seqs, ACTION: result.a_seqs, ENTITY: [result.e_seq]}


def reference_report(keys, tree, kbs, config):
    """What a report must say, from the Seqs of `top_down_decompose` checked one by one."""
    evals, n_keys, verdicts = dict.fromkeys(LEVEL_ORDER, 0), dict.fromkeys(LEVEL_ORDER, 0), []
    final, first = False, None
    if not keys:
        return final, first, None, verdicts, evals, n_keys
    try:
        result = top_down_decompose(keys, tree)
    except DecompositionError as exc:
        return True, first, str(exc), verdicts, evals, n_keys
    for level in LEVEL_ORDER:
        if level not in config.levels_enabled:
            continue
        for seq in by_level(result)[level]:
            v = LOCAL_DETECTORS[config.detector_per_level[level]](seq, kbs.train[level])
            verdicts.append((v.level, v.signature, v.verdict, v.source))
            evals[level] += 1
            n_keys[level] += len(seq.chunk)
            if v.verdict == VERDICT_ABNORMAL:
                final, first = True, first or level
                if config.early_exit:
                    return final, first, None, verdicts, evals, n_keys
    return final, first, None, verdicts, evals, n_keys


def as_reference(report):
    counters = report.counters
    verdicts = [(v.level, v.signature, v.verdict, v.source) for v in report.verdicts]
    return (report.final_verdict, report.first_abnormal_level, report.error, verdicts,
            counters.evals_per_level, counters.keys_per_level)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_detector_reports_equal_a_cache_free_reference(data):
    tree, keys = data.draw(trees(), label="tree")
    train_seqs = [LogSequence(f"t{i}", ks) for i, ks in enumerate(data.draw(key_lists(keys, 1), label="train"))]
    test_keys = data.draw(key_lists(keys), label="test")
    if test_keys:  # a repeated key list, and one with a key outside the tree
        test_keys += data.draw(st.lists(st.sampled_from(test_keys), max_size=4), label="repeats")
        broken = data.draw(st.sampled_from(test_keys), label="broken")
        test_keys.append(broken[: len(broken) // 2] + ["zz"] + broken[len(broken) // 2:])
    config = DetectConfig(
        levels_enabled=LEVEL_PRESETS[data.draw(st.sampled_from(sorted(LEVEL_PRESETS)), label="levels")],
        detector_per_level={level: data.draw(st.sampled_from([EXACT, AUTOMATON]), label=level)
                            for level in LEVEL_ORDER},
        early_exit=data.draw(st.booleans(), label="early_exit"),
    )
    order = data.draw(st.permutations(range(len(test_keys))), label="order")
    sizes = {
        name: data.draw(st.sampled_from([1, 2, getattr(detect_module, name)]), label=name)
        for name in ("MEMO_SIZE", "VERDICT_CACHE_SIZE")
    }
    kbs = train(train_seqs, tree, DetectConfig())
    with pytest.MonkeyPatch.context() as mp:
        for name, size in sizes.items():
            mp.setattr(detect_module, name, size)
        detector = Detector(tree, kbs, config)
        got = {i: detector.detect_sequence(LogSequence(f"s{i}", list(test_keys[i]))) for i in order}
    for i, ks in enumerate(test_keys):
        assert got[i].sequence_id == f"s{i}" and got[i].raw_length == len(ks)
        assert as_reference(got[i]) == reference_report(ks, tree, kbs, config), ks


class Digests:
    """A provider whose every answer is a digest of the whole request, and which keeps the requests."""

    def __init__(self):
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return "summary " + hashlib.sha256(request.encode()).hexdigest()[:12]


def reference_train(sequences, tree, llm, provider, templates):
    """`insert_train` over every Seq of `top_down_decompose`, summaries and embeddings bottom-up."""
    kbs = KnowledgeBaseSet(llm=llm)
    for sequence in sequences:
        if not sequence.keys:
            continue
        for seq in top_down_decompose(sequence.keys, tree).all_seqs():
            entry = kbs.train[seq.level].insert_train(seq)
            if llm and entry.summary is None:
                if seq.level == STATUS:
                    texts = [templates.get(k, k) for k in seq.chunk]
                    entry.summary = summarize_status_seq(seq, texts, provider)
                else:
                    children = [kbs.train[c.level].entries[c.signature].summary for c in seq.children]
                    entry.summary = summarize_parent_seq(seq, children, provider)
            if llm and entry.embedding is None:
                entry.embedding = embed_chunk(entry.example_chunk)
    return kbs


@pytest.mark.parametrize("llm", [False, True], ids=["llm-off", "llm-on"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_train_equals_inserting_every_decomposed_seq(llm, data):
    tree, keys = data.draw(trees(), label="tree")
    sequences = [LogSequence(f"t{i}", ks) for i, ks in enumerate(data.draw(key_lists(keys), label="train"))]
    templates = {key: f"template of {key}" for key in keys}
    got_provider, want_provider = Digests(), Digests()
    got = train(sequences, tree, DetectConfig(llm_enabled=llm), provider=got_provider, templates=templates)
    want = reference_train(sequences, tree, llm, want_provider, templates)
    for level in LEVEL_ORDER:
        assert got.train[level].to_json() == want.train[level].to_json()
    assert got_provider.requests == want_provider.requests
