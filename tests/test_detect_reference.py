"""The Detector's memo and verdict dicts, and train's pattern dicts, against cache-free references.

Each reference decomposes every sequence with `top_down_decompose` and
works on the Seqs one by one, with no memo and no dict, as the detector
and training did before they keyed their dicts by pattern. With the LLM
on, the reference keeps only what stands for the LLM cache and the
summaries: two plain dicts keyed by (level, chunk), and it builds each
prompt's parent context from the Seq's own parent path. Training and
detection share one reference summary, built from each Seq's own
children, so a stored summary must be the summary of its entry's example
chunk. The prompts that the summary functions build from a pattern are
checked against prompts formatted here from each Seq's parent path and
node names.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlog import detect as detect_module
from hierlog import prompts as prompt_assets
from hierlog.decompose import top_down_decompose
from hierlog.detect import AUTOMATON, EXACT, LEVEL_ORDER, LEVEL_PRESETS, DetectConfig, Detector, local_verdict, train
from hierlog.errors import DecompositionError
from hierlog.hierarchy import ACTION, ENTITY, STATUS, TopicTriple, build_tree, signature
from hierlog.ingest import LogSequence
from hierlog.knowledge import KnowledgeBaseSet
from hierlog.semantics import (
    VERDICT_ABNORMAL,
    DetectionPrompt,
    embed_chunk,
    llm_detect,
    summarize_parent_seq,
    summarize_status_seq,
)

from conftest import detector_summary, make_signature

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


def reference_report(keys, tree, kbs, config, llm_verdict=None):
    """What a report must say, from the Seqs of `top_down_decompose` checked one by one.

    `llm_verdict(seq)` judges a Seq that the local detector rejects, when given.
    """
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
            v = local_verdict(config.detector_per_level[level], kbs.train[level], seq.pattern, seq.nodes)
            verdict = as_tuple(v)
            if llm_verdict is not None and v.verdict == VERDICT_ABNORMAL:
                verdict = llm_verdict(seq)
            verdicts.append(verdict)
            evals[level] += 1
            n_keys[level] += len(seq.chunk)
            if verdict[2] == VERDICT_ABNORMAL:
                final, first = True, first or level
                if config.early_exit:
                    return final, first, None, verdicts, evals, n_keys
    return final, first, None, verdicts, evals, n_keys


def as_tuple(v):
    return (v.level, v.signature, v.verdict, v.source, v.explanation, v.confidence_flag)


def as_reference(report):
    counters = report.counters
    return (report.final_verdict, report.first_abnormal_level, report.error, list(map(as_tuple, report.verdicts)),
            counters.evals_per_level, counters.keys_per_level)


def draw_run(data, llm):
    """A tree, training and test key lists, a detector config, an input order and the Detector's dict bounds."""
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
        llm_enabled=llm,
        m=data.draw(st.integers(0, 3), label="m") if llm else 5,
        early_exit=data.draw(st.booleans(), label="early_exit"),
    )
    order = data.draw(st.permutations(range(len(test_keys))), label="order")
    sizes = {
        name: data.draw(st.sampled_from([1, 2, getattr(detect_module, name)]), label=name)
        for name in ("MEMO_SIZE", "VERDICT_CACHE_SIZE")
    }
    return tree, keys, train_seqs, test_keys, config, order, sizes


def detect_in_order(tree, kbs, config, test_keys, order, sizes, **llm):
    """The Detector's report on each test key list, asked in `order` under the drawn bounds."""
    with pytest.MonkeyPatch.context() as mp:
        for name, size in sizes.items():
            mp.setattr(detect_module, name, size)
        detector = Detector(tree, kbs, config, **llm)
        got = {i: detector.detect_sequence(LogSequence(f"s{i}", list(test_keys[i]))) for i in order}
    for i, ks in enumerate(test_keys):
        assert got[i].sequence_id == f"s{i}" and got[i].raw_length == len(ks)
    return got


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_detector_reports_equal_a_cache_free_reference(data):
    tree, _, train_seqs, test_keys, config, order, sizes = draw_run(data, llm=False)
    kbs = train(train_seqs, tree, DetectConfig())
    got = detect_in_order(tree, kbs, config, test_keys, order, sizes)
    for i, ks in enumerate(test_keys):
        assert as_reference(got[i]) == reference_report(ks, tree, kbs, config), ks


class Digests:
    """A provider whose every answer is a digest of the whole request, and which keeps the requests."""

    def __init__(self):
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return "summary " + hashlib.sha256(request.encode()).hexdigest()[:12]


class Judge(Digests):
    """`Digests`, but a detection answer is normal, abnormal or unparseable by the digest of the whole request."""

    def complete(self, request):
        digest = super().complete(request)
        if not request.startswith("TASK: detect\n"):
            return digest
        return ("VERDICT: NORMAL\n", "VERDICT: ABNORMAL\n", "")[int(digest[-1], 16) % 3] + digest


def reference_summary(provider, templates, summaries):
    """A Seq's summary, kept in `summaries` by (level, chunk): from its chunk's templates at the status level, else
    from its `Seq.children`'s summaries."""

    def summary(seq):
        key = (seq.level, tuple(seq.chunk))
        if key not in summaries:
            if seq.level == STATUS:
                summaries[key] = summarize_status_seq(seq.pattern, [templates.get(k, k) for k in seq.chunk], provider)
            else:
                children = [summary(child) for child in seq.children]
                summaries[key] = summarize_parent_seq(seq.level, seq.pattern, children, provider)
        return summaries[key]

    return summary


def reference_llm(kbs, config, provider, templates):
    """An LLM verdict on a Seq, from plain dicts keyed by (level, chunk) for the LLM cache and the summaries.

    The summaries start from each train entry's, as the summary of its example chunk.
    """
    llm_cache = {}
    stored = {(level, tuple(e.example_chunk)): e.summary
              for level in LEVEL_ORDER for e in kbs.train[level].entries.values() if e.summary}
    summary = reference_summary(provider, templates, stored)

    def llm_verdict(seq):
        key = (seq.level, tuple(seq.chunk))
        if key not in llm_cache:
            examples = kbs.train[seq.level].retrieve_similar(seq.parent_path[1:], embed_chunk(seq.chunk), config.m)
            prompt = DetectionPrompt(">".join(seq.nodes), summary(seq), [e.summary for e in examples if e.summary],
                                     " > ".join(seq.parent_path))
            llm_cache[key] = llm_detect(prompt, provider)
        verdict, explanation, low = llm_cache[key]
        return (seq.level, seq.signature, verdict, "llm", explanation, "low" if low else "normal")

    return llm_verdict


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_llm_detector_reports_equal_a_reference_with_two_dicts(data):
    tree, keys, train_seqs, test_keys, config, order, sizes = draw_run(data, llm=True)
    templates = {key: f"template of {key}" for key in keys}
    kbs = train(train_seqs, tree, DetectConfig(llm_enabled=True), provider=Digests(), templates=templates)
    got_provider, want_provider = Judge(), Judge()
    got = detect_in_order(tree, kbs, config, test_keys, order, sizes, provider=got_provider, templates=templates)
    llm_verdict = reference_llm(kbs, config, want_provider, templates)
    for i, ks in enumerate(test_keys):
        assert as_reference(got[i]) == reference_report(ks, tree, kbs, config, llm_verdict), ks
    assert set(got_provider.requests) == set(want_provider.requests)


def reference_train(sequences, tree, llm, provider, templates):
    """`insert_train` over every new Seq of `top_down_decompose`, with its summary and embedding, bottom-up.

    A repeat is counted on its entry, found through the reference's own (level, signature) dict. A new Seq's
    summary is `reference_summary`'s, the summary of its own chunk.
    """
    kbs, entries = KnowledgeBaseSet(llm=llm), {}
    summary = reference_summary(provider, templates, {})
    for sequence in sequences:
        if not sequence.keys:
            continue
        for seq in top_down_decompose(sequence.keys, tree).all_seqs():
            entry = entries.get((seq.level, seq.signature))
            if entry is not None:
                entry.occurrence_count += 1
                continue
            fields = {"summary": summary(seq), "embedding": embed_chunk(seq.chunk)} if llm else {}
            kb = kbs.train[seq.level]
            entries[seq.level, seq.signature] = kb.insert_train(seq.pattern, seq.chunk, **fields)
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


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_llm_trained_entry_stores_the_detector_summary_of_its_example_chunk(data):
    tree, keys = data.draw(trees(), label="tree")
    sequences = [LogSequence(f"t{i}", ks) for i, ks in enumerate(data.draw(key_lists(keys, 1), label="train"))]
    templates = {key: f"template of {key}" for key in keys}
    kbs = train(sequences, tree, DetectConfig(llm_enabled=True), provider=Digests(), templates=templates)
    for level in LEVEL_ORDER:
        for entry in kbs.train[level].entries.values():
            assert entry.summary == detector_summary(tree, level, entry.example_chunk, Digests(), templates), level


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_prompts_and_signatures_from_a_pattern_equal_those_of_its_seq(data):
    tree, keys = data.draw(trees(), label="tree")
    sequence = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=12), label="keys")
    texts = {key: f"template of {key}" for key in keys}
    for seq in top_down_decompose(sequence, tree).all_seqs():
        assert signature(seq.level, seq.pattern) == make_signature(seq.parent_path, seq.nodes)
        got, fields = Digests(), {"parent_context": " > ".join(seq.parent_path), "nodes": ">".join(seq.nodes)}
        if seq.level == STATUS:
            templates = [texts[k] for k in seq.chunk]
            summarize_status_seq(seq.pattern, templates, got)
            want = prompt_assets.load("summarize_status").format(**fields, templates="\n".join(templates))
        else:
            children = [f"summary of {child.signature}" for child in seq.children]
            summarize_parent_seq(seq.level, seq.pattern, children, got)
            want = prompt_assets.load("summarize_parent").format(
                **fields, level=seq.level, child_summaries="\n".join(children)
            )
        assert got.requests == [want]
