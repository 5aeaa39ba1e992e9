"""Knowledge base behavior: counting, transitions, retrieval, persistence."""

import json
import math
import os
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlog import knowledge
from hierlog.decompose import top_down_decompose
from hierlog.errors import FormatError, KnowledgeBaseError
from hierlog.detect import DetectConfig, Detector, train as train_kbs
from hierlog.hierarchy import (
    ACTION,
    ENTITY,
    PARENT_DEPTH,
    STATUS,
    FixtureExtractor,
    TopicTree,
    TopicTriple,
    build_tree,
    extract_topics,
    signature,
)
from hierlog.knowledge import (
    END_MARK,
    KB_FORMAT_VERSION,
    START_MARK,
    KnowledgeBase,
    KnowledgeBaseSet,
    TestEntry as KBTestEntry,
    chunk_key,
)
from hierlog.ingest import LogSequence
from hierlog.semantics import EMBED_DIM, MockProvider, embed_chunk, sparse_vector
from hierlog.synthetic import make_corpus

from conftest import DEEP_JSON, DEEP_JSON_FAULT, TOY_KEYS, cosine, dense, make_signature


def entity_seq(toy_tree, keys):
    return top_down_decompose(keys, toy_tree).e_seq


def insert(kb, seq, **fields):
    """Insert a `Seq` as `train` inserts its run: by its pattern, with its chunk and any LLM `fields`."""
    return kb.insert_train(seq.pattern, seq.chunk, **fields)


def split(kb, entry):
    """An entry's parent path from the root and its node names, from its pattern and its KB's level."""
    depth = PARENT_DEPTH[kb.level]
    return ["root", *entry.pattern[:depth]], list(entry.pattern[depth:])


# -- training entries ---------------------------------------------------------

def test_insert_counts_occurrences(toy_tree):
    kb = KnowledgeBase(level=ENTITY, role="train", llm=True)
    seq = entity_seq(toy_tree, TOY_KEYS)
    entry = insert(kb, seq)
    assert entry.occurrence_count == 1
    entry.occurrence_count += 1  # a repeat is counted on the entry, as `train` counts it
    assert kb.entries[seq.pattern].occurrence_count == 2
    assert entry.example_chunk == TOY_KEYS
    assert kb.contains(("Session", "Auth", "Comm"))
    assert not kb.contains(("Nothing",))
    # only the LLM path reads an example chunk, so an LLM-off KB keeps none
    assert insert(KnowledgeBase(level=ENTITY, role="train"), seq).example_chunk is None


def test_transition_enumeration_oracle(toy_tree):
    kb = KnowledgeBase(level=ENTITY, role="train")
    insert(kb, entity_seq(toy_tree, TOY_KEYS))
    assert kb.transition_index()[()] == {
        (START_MARK, "Session"),
        ("Session", "Auth"),
        ("Auth", "Comm"),
        ("Comm", END_MARK),
    }


def test_automaton_accepts_stitched_sequences(toy_tree):
    kb = KnowledgeBase(level=ENTITY, role="train")
    insert(kb, entity_seq(toy_tree, ["k1", "k3"]))  # Session > Auth
    insert(kb, entity_seq(toy_tree, ["k3", "k5"]))  # Auth > Comm
    assert kb.accepts_transitions((), ["Session", "Auth", "Comm"])
    assert not kb.accepts_transitions((), ["Comm", "Session"])
    assert not kb.accepts_transitions((), ["Session"])  # Session><end> unseen
    # unknown parent has no transitions at all
    assert not kb.accepts_transitions(("Ghost",), ["Session"])


@pytest.mark.parametrize("trained", [("<start>", "x"), ("x", "<end>")], ids=["start", "end"])
def test_a_node_named_like_a_mark_is_no_mark(trained):
    kb = KnowledgeBase(level=STATUS, role="train")
    kb.insert_train(("E", "A", *trained), ["k0", "k1"])
    assert kb.accepts_transitions(("E", "A"), list(trained))
    # x next to a node of the mark's name is not x at the start or the end of a walk
    assert not kb.accepts_transitions(("E", "A"), ["x"])


def test_transition_index_keyed_by_parent_names():
    kb = KnowledgeBase(level=STATUS, role="train")
    kb.insert_train(("A>B", "x", "s"), ["k"])
    assert list(kb.transition_index()) == [("A>B", "x")]
    assert signature(STATUS, ("A>B", "x", "s")) == "root>A\\>B>x|s"
    assert kb.accepts_transitions(("A>B", "x"), ["s"])
    # names whose unescaped join is the same text are another parent
    assert not kb.accepts_transitions(("A", "B>x"), ["s"])


def per_pair_check(kb, parent, nodes):
    """Every adjacent pair of the walk looked up in turn: the oracle for `accepts_transitions`."""
    transitions = kb.transition_index().get(parent, set())
    walk = [START_MARK] + list(nodes) + [END_MARK]
    return all(pair in transitions for pair in zip(walk, walk[1:]))


_NAMES = st.sampled_from(["a", "bc", "a|b", "b>c", "c\\", "\\|>", "x\\>y|"])
_PARENT_PATHS = [("root", "A", "x"), ("root", "A>B", "x"), ("root", "A", "B>x")]
_PARENT_NAMES = [path[1:] for path in _PARENT_PATHS]


@settings(max_examples=200, deadline=None)
@given(
    trained=st.lists(st.tuples(st.sampled_from(_PARENT_PATHS), st.lists(_NAMES, min_size=1, max_size=5)), max_size=8),
    probes=st.lists(
        st.tuples(st.sampled_from(_PARENT_NAMES + [("Ghost", "x")]), st.lists(_NAMES, max_size=5)),
        min_size=1, max_size=10,
    ),
)
def test_accepts_transitions_matches_the_per_pair_check(trained, probes):
    kb = KnowledgeBase(level=STATUS, role="train")
    for path, nodes in trained:
        kb.insert_train((*path[1:], *nodes), ["k"] * len(nodes))
    loaded = KnowledgeBase.from_json(json.loads(json.dumps(kb.to_json())))
    for parent, nodes in probes:
        copies = [(name + "!")[:-1] for name in nodes]  # equal strings that are other objects
        expected = per_pair_check(kb, parent, nodes)
        for probed in (kb, loaded):
            assert probed.accepts_transitions(parent, nodes) == expected
            assert probed.accepts_transitions(parent, copies) == expected
        assert kb.accepts_transitions(parent, []) == per_pair_check(kb, parent, [])


def test_a_resumed_kb_accepts_the_transitions_of_an_insert_after_a_probe(tmp_path, toy_tree):
    kbs = KnowledgeBaseSet()
    for seq in top_down_decompose(TOY_KEYS, toy_tree).all_seqs():
        insert(kbs.train[seq.level], seq)
    kbs.save_dir(tmp_path)
    kb = KnowledgeBaseSet.load_dir(tmp_path).train[ENTITY]
    walks = [["Session", "Auth", "Comm"], ["Comm", "Session"], ["Comm", "Session", "Auth", "Comm"], ["Auth", "Comm"]]
    assert [kb.accepts_transitions((), walk) for walk in walks] == [True, False, False, False]
    insert(kb, entity_seq(toy_tree, ["k5", "k1"]))  # Comm > Session, a new pattern
    assert [kb.accepts_transitions((), walk) for walk in walks] == [True, True, True, False]
    assert [per_pair_check(kb, (), walk) for walk in walks] == [True, True, True, False]


def test_loaded_transition_names_are_the_trees_own_objects(tmp_path, corpus):
    built = build_tree(extract_topics(corpus.catalog, FixtureExtractor(corpus.fixture)))
    kbs = train_kbs(corpus.train, built, DetectConfig())
    built.save(tmp_path / "tree.json")
    kbs.save_dir(tmp_path / "kb")
    tree = TopicTree.load(tmp_path / "tree.json")
    loaded = KnowledgeBaseSet.load_dir(tmp_path / "kb")
    own = {name: name for names in tree.key_names.values() for name in names}
    own.update({START_MARK: START_MARK, END_MARK: END_MARK})
    names = [name for kb in loaded.train.values() for pairs in kb.transition_index().values() for pair in pairs
             for name in pair]
    assert len(names) > 100
    assert all(own[name] is name for name in names)
    entry_names = [name for kb in loaded.train.values() for e in kb.entries.values() for name in e.pattern]
    assert len(entry_names) > 100
    assert all(own[name] is name for name in entry_names)


# names that the signature encoding must escape, and a plain one
_TREE_NAMES = st.sampled_from(["a", "b|c", "d>e", "f\\", "\\|>", "g\\>h|"])


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    names=st.lists(st.tuples(_TREE_NAMES, _TREE_NAMES, _TREE_NAMES), min_size=1, max_size=8),
    llm=st.booleans(),
)
def test_train_save_load_round_trip_keeps_entries_and_transitions(data, names, llm):
    triples = [TopicTriple(f"k{i}", *triple) for i, triple in enumerate(names)]
    tree = build_tree(triples)
    keys = st.sampled_from([t.key for t in triples])
    sequences = [
        LogSequence(f"s{i}", keys_, False)
        for i, keys_ in enumerate(data.draw(st.lists(st.lists(keys, min_size=1, max_size=8), max_size=6)))
    ]
    config = DetectConfig(llm_enabled=llm)
    built = train_kbs(sequences, tree, config, provider=MockProvider() if llm else None)
    with tempfile.TemporaryDirectory() as directory:
        built.save_dir(directory)
        loaded = KnowledgeBaseSet.load_dir(directory)

    def fields(entry):
        own = (entry.pattern, entry.occurrence_count)
        return own + ((entry.example_chunk, entry.summary, entry.embedding) if llm else ())

    for level, kb in built.train.items():
        got = loaded.train[level]
        assert got.llm is llm
        assert {p: fields(e) for p, e in got.entries.items()} == {p: fields(e) for p, e in kb.entries.items()}
        assert all(pattern == e.pattern for pattern, e in got.entries.items())
        assert got.transition_index() == kb.transition_index()
        assert got == kb


# names that hold the signature's separators, its escape char, "/", "~" and non-ASCII characters
_FILE_NAMES = st.text(alphabet="a|>\\/~\u00e9\u540d", min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), llm=st.booleans())
def test_loaded_entries_are_keyed_by_pattern_and_save_back_to_the_same_bytes(data, llm):
    rows = data.draw(st.lists(st.tuples(_FILE_NAMES, _FILE_NAMES, _FILE_NAMES), min_size=1, max_size=8), label="paths")
    tree = build_tree([TopicTriple(f"k{i}", *row) for i, row in enumerate(rows)])
    keys = st.lists(st.sampled_from(sorted(tree.key_names)), min_size=1, max_size=8)
    sequences = [LogSequence(f"s{i}", ks) for i, ks in enumerate(data.draw(st.lists(keys, min_size=1, max_size=6)))]
    built = train_kbs(sequences, tree, DetectConfig(llm_enabled=llm), provider=MockProvider() if llm else None)
    with tempfile.TemporaryDirectory() as directory:
        built.save_dir(directory)
        saved = {path.name: path.read_bytes() for path in Path(directory).iterdir()}
        loaded = KnowledgeBaseSet.load_dir(directory)
        loaded.save_dir(directory)
        assert {path.name: path.read_bytes() for path in Path(directory).iterdir()} == saved
    for level, kb in loaded.train.items():
        assert kb.entries.keys() == built.train[level].entries.keys()
        for pattern, entry in kb.entries.items():
            assert pattern == entry.pattern
            assert signature(level, entry.pattern) == make_signature(*split(kb, entry))
        # the file holds its groups in the order of their escaped parent paths and its rows in signature order
        groups = json.loads(saved[f"train_{level}.json"])["groups"]
        parents = [make_signature(parent, [])[:-1] for parent, _ in groups]
        assert parents == sorted(parents)
        for parent, group_rows in groups:
            order = [make_signature(parent, row[0]) for row in group_rows]
            assert order == sorted(order)
        # a row that repeats one of its group is named by its group and row
        g = data.draw(st.integers(0, len(groups) - 1), label="group")
        groups[g][1].append(groups[g][1][0])
        with pytest.raises(FormatError, match=rf"^group {g}, row {len(groups[g][1]) - 1}: repeats the parent path"):
            KnowledgeBase.from_json({**json.loads(saved[f"train_{level}.json"]), "groups": groups})


def test_role_guards(toy_tree):
    train = KnowledgeBase(level=ENTITY, role="train")
    test = KnowledgeBase(level=ENTITY, role="test")
    seq = entity_seq(toy_tree, TOY_KEYS)
    with pytest.raises(KnowledgeBaseError):
        insert(test, seq)
    with pytest.raises(KnowledgeBaseError):
        train.lookup_test("x")


def test_train_hands_each_new_entry_its_summary_and_embedding_at_insert(monkeypatch, corpus):
    tree = build_tree(extract_topics(corpus.catalog, FixtureExtractor(corpus.fixture)))
    original, inserted = KnowledgeBase.insert_train, []

    def recorded(kb, *args, **kwargs):
        entry = original(kb, *args, **kwargs)
        inserted.append((entry, entry.summary, entry.embedding))  # the fields as the insert left them
        return entry

    monkeypatch.setattr(KnowledgeBase, "insert_train", recorded)
    kbs = train_kbs(corpus.train, tree, DetectConfig(llm_enabled=True), provider=MockProvider())
    assert len(inserted) == sum(len(kb.entries) for kb in kbs.train.values()) > 20
    for entry, summary, embedding in inserted:
        assert summary and summary == entry.summary
        assert embedding is not None and embedding is entry.embedding == embed_chunk(entry.example_chunk)


def test_a_kb_file_gets_the_mode_that_open_gives_a_new_file(tmp_path, toy_tree):
    old = os.umask(0o022)
    try:
        (tmp_path / "plain.json").write_text("{}")
        kb = KnowledgeBase(level=ENTITY, role="train")
        insert(kb, entity_seq(toy_tree, TOY_KEYS))
        kb.save(tmp_path / "train_entity.json")
        kb.save(tmp_path / "train_entity.json")  # the replaced file too
    finally:
        os.umask(old)
    assert (tmp_path / "train_entity.json").stat().st_mode == (tmp_path / "plain.json").stat().st_mode
    assert sorted(path.name for path in tmp_path.iterdir()) == ["plain.json", "train_entity.json"]


# -- retrieval ----------------------------------------------------------------

def test_retrieve_similar_matches_brute_force(toy_tree):
    kb = KnowledgeBase(level=ENTITY, role="train")
    corpora = [["k1", "k3"], ["k3", "k5"], ["k1", "k3", "k5"], ["k5", "k1"], ["k1", "k2", "k3"]]
    for keys in corpora:
        seq = entity_seq(toy_tree, keys)
        insert(kb, seq, embedding=embed_chunk(seq.chunk))
    query = embed_chunk(["k1", "k3", "k5", "k5"])

    got = [e.pattern for e in kb.retrieve_similar((), query, 3)]
    ranked = sorted(
        kb.entries.values(),
        key=lambda e: (-cosine(dense(query), dense(e.embedding)), -e.occurrence_count, make_signature(*split(kb, e))),
    )
    assert got == [e.pattern for e in ranked[:3]]
    assert len(kb.retrieve_similar((), query, 100)) == len(kb.entries)


def test_retrieve_tie_break_by_count_then_signature(toy_tree):
    kb = KnowledgeBase(level=ENTITY, role="train")
    a = entity_seq(toy_tree, ["k1", "k3"])  # Session > Auth
    b = entity_seq(toy_tree, ["k3", "k1"])  # Auth > Session, distinct signature
    insert(kb, a, embedding=sparse_vector({0: 1.0}))
    insert(kb, b, embedding=sparse_vector({0: 1.0})).occurrence_count = 2
    # identical cosine: higher occurrence count (b has 2) wins
    got = kb.retrieve_similar((), sparse_vector({0: 1.0}), 2)
    assert got[0].occurrence_count == 2


def test_retrieve_filters_siblings(toy_tree):
    kb = KnowledgeBase(level="action", role="train")
    result = top_down_decompose(TOY_KEYS, toy_tree)
    for a_seq in result.a_seqs:
        insert(kb, a_seq, embedding=embed_chunk(a_seq.chunk))
    got = kb.retrieve_similar(("Auth",), embed_chunk(["k3"]), 10)
    assert [split(kb, e)[0] for e in got] == [["root", "Auth"]]


def test_retrieve_requires_embeddings(toy_tree):
    kb = KnowledgeBase(level=ENTITY, role="train")
    insert(kb, entity_seq(toy_tree, TOY_KEYS))
    with pytest.raises(KnowledgeBaseError):
        kb.retrieve_similar((), sparse_vector({0: 1.0}), 1)


_PARENTS = [("root", "Session"), ("root", "Auth"), ("root", "Comm")]  # of action runs
# The vectors a KB accepts: finite non-zero values, a finite norm. Few indices
# and small repeated values give shared indices, exact cosine ties and, with
# no values, the zero vector; 1e-170 and -5e-324 square to 0.0, so a vector
# of them alone has non-zeros and a norm that underflows to 0, and the
# general float branch adds other subnormals and products that overflow. A
# norm in (0, 1e-150) is left out: two of them multiply to 0 and the dense
# cosine divides by zero.
_VALUES = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, 2.0, 1e-170, -5e-324]), st.floats(-1e154, 1e154).map(lambda x: x or 1.0)
)
_VECTORS = (
    st.dictionaries(st.sampled_from([0, 1, 2, 3, 4, EMBED_DIM - 1]), _VALUES, max_size=6)
    .map(lambda d: sparse_vector(dict(sorted(d.items()))))
    .filter(lambda v: v.norm == 0.0 or 1e-150 <= v.norm < math.inf)
)


def _oracle(kb, parent, query, m):
    siblings = [e for e in kb.entries.values() if split(kb, e)[0] == list(parent)]
    q = dense(query)
    ranked = sorted(
        siblings, key=lambda e: (-cosine(q, dense(e.embedding)), -e.occurrence_count, make_signature(*split(kb, e)))
    )
    return ranked[:m]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_retrieve_similar_matches_brute_force_oracle(data):
    kb, counts = KnowledgeBase(level=ACTION, role="train", llm=True), Counter()

    def insert(parent, nodes, embedding):
        # a repeated pattern is inserted again: the new entry replaces the old one, with a higher count
        pattern = (*parent[1:], *nodes)
        counts[pattern] += data.draw(st.integers(1, 3), label="count")
        kb.insert_train(pattern, nodes, embedding=embedding).occurrence_count = counts[pattern]

    node_lists = st.lists(st.sampled_from("ABCD"), min_size=1, max_size=3)
    for _ in range(data.draw(st.integers(0, 12), label="entries")):
        insert(data.draw(st.sampled_from(_PARENTS)), data.draw(node_lists), data.draw(_VECTORS, label="embedding"))

    def check():
        snapshot = json.dumps(kb.to_json(), sort_keys=True)  # a copy, not shared lists, with the embeddings
        for parent in _PARENTS + [("root", "Ghost")]:
            query = data.draw(_VECTORS, label="query")
            m = data.draw(st.integers(0, len(kb.entries) + 2), label="m")
            assert kb.retrieve_similar(parent[1:], query, m) == _oracle(kb, parent, query, m)
        assert json.dumps(kb.to_json(), sort_keys=True) == snapshot

    check()
    if kb.entries:
        victim = data.draw(st.sampled_from(sorted(kb.entries)), label="re-inserted")
        insert(("root", *victim[:1]), victim[1:], data.draw(_VECTORS, label="new embedding"))
        check()

    parent = data.draw(st.sampled_from(_PARENTS), label="late parent")
    nodes = data.draw(st.lists(st.sampled_from("EF"), min_size=1, max_size=2), label="late nodes")
    insert(parent, nodes, None)
    with pytest.raises(KnowledgeBaseError):
        kb.retrieve_similar(parent[1:], sparse_vector({0: 1.0}), 1)
    insert(parent, nodes, data.draw(_VECTORS, label="late embedding"))
    check()


def _sibling(kb, name, embedding, count=1, parent=("root",)):
    entry = kb.insert_train((*parent[1:], name), [name], embedding=embedding)
    entry.occurrence_count = count  # as `train` counts repeats
    return entry


def _names(entries):
    return [e.pattern[-1] for e in entries]


def _one_key_per_bucket() -> list[str]:
    """Log keys that `embed_chunk` hashes to bucket 0, 1, ..., EMBED_DIM - 1, in that order."""
    keys, n = {}, 0
    while len(keys) < EMBED_DIM:
        keys.setdefault(next(iter(embed_chunk([f"key{n}"]).nonzeros)), f"key{n}")
        n += 1
    return [keys[i] for i in range(EMBED_DIM)]


_VOCABULARY = _one_key_per_bucket()
_CHUNKS = st.lists(st.sampled_from(_VOCABULARY), max_size=12)  # [] embeds as the zero vector


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_retrieve_matches_the_brute_force_oracle_at_detection_scale(data):
    # as many siblings under one parent as llm-hybrid's queries rank, their
    # chunks spread over every bucket
    kb, chunks = KnowledgeBase(level=ACTION, role="train", llm=True), []
    for n in range(data.draw(st.integers(48, 72), label="siblings")):
        # a repeated chunk, in any order, ties on cosine with the sibling it repeats
        repeat = st.sampled_from(chunks).flatmap(st.permutations) if chunks else _CHUNKS
        chunks.append(data.draw(_CHUNKS | repeat, label="chunk"))
        _sibling(kb, f"n{n}", embed_chunk(chunks[-1]), data.draw(st.integers(1, 3), label="count"), ("root", "P"))
    _sibling(kb, "other", embed_chunk(_VOCABULARY), parent=("root", "Q"))
    for query in data.draw(st.lists(_CHUNKS | st.sampled_from(chunks), min_size=1, max_size=4), label="queries"):
        query = embed_chunk(query)
        for m in (0, 1, 5, len(chunks)):
            assert kb.retrieve_similar(("P",), query, m) == _oracle(kb, ("root", "P"), query, m)


def test_retrieve_ranks_negative_values_loaded_from_a_file_as_the_dense_cosine_does():
    rows = [  # nodes, count, embedding; E has A's vector and a higher count
        (["A"], 1, [[0, -1.0], [1, 2.0]]),
        (["B"], 1, [[0, 1.0]]),
        (["C"], 3, [[1, -0.5], [2, 3.0]]),
        (["D"], 1, [[3, -2.0]]),
        (["E"], 2, [[0, -1.0], [1, 2.0]]),
        (["F"], 5, [[4, 1.0]]),
    ]
    kb = KnowledgeBase.from_json({
        "format_version": KB_FORMAT_VERSION, "role": "train", "level": ENTITY, "llm": True,
        "groups": [[["root"], [[nodes, count, nodes, None, pairs] for nodes, count, pairs in rows]]],
    })
    query = sparse_vector({0: 1.0, 1: -1.0, 3: 0.5})
    # cosines: B 0.67, C 0.11, F 0, D -0.33, and E and A -0.89, E first by its count
    assert _names(kb.retrieve_similar((), query, 10)) == ["B", "C", "F", "D", "E", "A"]
    for m in range(8):
        assert kb.retrieve_similar((), query, m) == _oracle(kb, ("root",), query, m)


def test_retrieve_gives_a_norm_zero_sibling_and_a_zero_query_cosine_zero():
    kb = KnowledgeBase(level=ENTITY, role="train", llm=True)
    tiny = _sibling(kb, "T", sparse_vector({0: 5e-324}))
    assert tiny.embedding.norm == 0.0  # its one non-zero squares to 0.0
    _sibling(kb, "P", sparse_vector({0: 1.0}))
    _sibling(kb, "N", sparse_vector({0: -1.0}))
    _sibling(kb, "O", sparse_vector({1: 1.0}), count=2)
    query = sparse_vector({0: 1.0})
    # T ties with O at 0, not above it, and O comes first by its count
    assert _names(kb.retrieve_similar((), query, 4)) == ["P", "O", "T", "N"]
    assert kb.retrieve_similar((), query, 4) == _oracle(kb, ("root",), query, 4)
    # every cosine 0: the tie order alone, by count, then by signature
    for query in (sparse_vector({}), sparse_vector({7: 1.0})):
        assert _names(kb.retrieve_similar((), query, 4)) == ["O", "N", "P", "T"]
        assert kb.retrieve_similar((), query, 4) == _oracle(kb, ("root",), query, 4)
    assert _names(kb.retrieve_similar((), sparse_vector({}), 2)) == ["O", "N"]


def test_retrieve_returns_nothing_for_m_zero_and_for_an_unknown_parent():
    kb = KnowledgeBase(level=ENTITY, role="train", llm=True)
    _sibling(kb, "P", sparse_vector({0: 1.0}))
    query = sparse_vector({0: 1.0})
    assert kb.retrieve_similar((), query, 0) == []
    assert kb.retrieve_similar(("Ghost",), query, 5) == []
    assert _names(kb.retrieve_similar((), query, 5)) == ["P"]


def test_retrieve_sees_inserts_and_re_inserts_after_a_query():
    kb = KnowledgeBase(level=ENTITY, role="train", llm=True)
    _sibling(kb, "P", sparse_vector({0: 1.0}))
    _sibling(kb, "N", sparse_vector({0: -1.0}))
    query = sparse_vector({0: 1.0})

    def ranked():
        got = kb.retrieve_similar((), query, 5)
        assert got == _oracle(kb, ("root",), query, 5)
        return _names(got)

    assert ranked() == ["P", "N"]
    _sibling(kb, "Q", sparse_vector({0: 1.0}))  # a new sibling ties with P
    assert ranked() == ["P", "Q", "N"]
    _sibling(kb, "Q", sparse_vector({0: 1.0}), count=2)  # inserted again with a higher count, Q moves ahead
    assert ranked() == ["Q", "P", "N"]
    _sibling(kb, "P", sparse_vector({0: -2.0}))  # inserted again with another embedding, P falls behind N
    assert ranked() == ["Q", "N", "P"]


def test_only_an_insert_under_a_parent_rebuilds_its_posting_lists(monkeypatch):
    kb, built = KnowledgeBase(level=ACTION, role="train", llm=True), []
    columns = knowledge._SiblingColumns
    monkeypatch.setattr(knowledge, "_SiblingColumns", lambda siblings: built.append(len(siblings)) or columns(siblings))
    _sibling(kb, "P", sparse_vector({0: 1.0}), parent=("root", "A"))
    _sibling(kb, "Q", sparse_vector({0: 1.0}), parent=("root", "B"))
    for _ in range(3):
        assert _names(kb.retrieve_similar(("A",), sparse_vector({0: 1.0}), 5)) == ["P"]
    _sibling(kb, "R", sparse_vector({0: 1.0}), parent=("root", "B"))  # under another parent
    assert _names(kb.retrieve_similar(("A",), sparse_vector({0: 1.0}), 5)) == ["P"]
    assert built == [1]
    _sibling(kb, "S", sparse_vector({0: 2.0}), parent=("root", "A"))
    assert _names(kb.retrieve_similar(("A",), sparse_vector({0: 1.0}), 5)) == ["P", "S"]
    assert built == [1, 2]


def test_retrieve_raises_for_a_missing_embedding_until_it_is_set():
    kb = KnowledgeBase(level=ENTITY, role="train", llm=True)
    _sibling(kb, "P", sparse_vector({0: 1.0}))
    query = sparse_vector({0: 1.0})
    assert _names(kb.retrieve_similar((), query, 5)) == ["P"]
    _sibling(kb, "L", None)
    for _ in range(2):  # the failure is not remembered as a result, nor the result as a success
        with pytest.raises(KnowledgeBaseError, match=r"root\|L"):
            kb.retrieve_similar((), query, 5)
    _sibling(kb, "L", sparse_vector({0: 2.0}))  # inserted again, with an embedding
    assert _names(kb.retrieve_similar((), query, 5)) == ["L", "P"]


def test_retrieval_on_detection_traffic_ranks_as_the_dense_oracle(monkeypatch):
    # MockProvider decides on the target nodes alone, so a wrong ranking of
    # the examples would leave every verdict as it is
    corpus = make_corpus(n_test=800, anomaly_rate=0.3, benign_unseen_rate=0.5)
    tree = build_tree(extract_topics(corpus.catalog, FixtureExtractor(corpus.fixture)))
    templates = {t.key: t.text for t in corpus.catalog.templates()}
    config = DetectConfig(llm_enabled=True)
    kbs = train_kbs(corpus.train, tree, config, provider=MockProvider(), templates=templates)
    retrieve, ranked = KnowledgeBase.retrieve_similar, []

    def checked(kb, parent, query, m):
        # the oracle filters by parent path: the root, then the parent's names
        parent_path = ["root", *parent]
        got = retrieve(kb, parent, query, m)
        assert got == _oracle(kb, parent_path, query, m)
        everything = retrieve(kb, parent, query, len(kb.entries))
        assert everything == _oracle(kb, parent_path, query, len(kb.entries))
        ranked.append(len(everything))
        return got

    monkeypatch.setattr(KnowledgeBase, "retrieve_similar", checked)
    Detector(tree, kbs, config, provider=MockProvider(), templates=templates).run(corpus.test)
    assert len(ranked) >= 50 and max(ranked) >= 5


# -- LLM verdict cache -------------------------------------------------------------

def test_test_cache_round_trip(tmp_path):
    kb = KnowledgeBase(level=STATUS, role="test")
    ck = chunk_key(["k1", "k2"])
    entry = KBTestEntry(chunk_key=ck, verdict="normal", explanation="benign", confidence_flag="low")
    kb.store_test(entry)
    assert kb.lookup_test(ck) == entry
    kb.save(tmp_path / "test_status.json")
    assert KnowledgeBase.load(tmp_path / "test_status.json").lookup_test(ck) == entry
    assert kb.lookup_test(chunk_key(["k1"])) is None
    # chunk keys distinguish concatenation ambiguities, also of keys that hold the separator or the escape
    assert chunk_key(["ab", "c"]) != chunk_key(["a", "bc"])
    assert chunk_key(["a\x1fb"]) != chunk_key(["a", "b"])
    assert chunk_key(["a\\", "b"]) != chunk_key(["a\\\x1fb"])
    assert chunk_key(["k1", "k2"]) == "k1\x1fk2"  # keys without either are joined as they are


# -- persistence ------------------------------------------------------------------

def test_save_load_round_trip(tmp_path, toy_tree):
    kb = KnowledgeBase(level=ENTITY, role="train", llm=True)
    seq = entity_seq(toy_tree, TOY_KEYS)
    insert(kb, seq, embedding=embed_chunk(seq.chunk))
    insert(kb, entity_seq(toy_tree, ["k3", "k1"]))
    path = tmp_path / "kb.json"
    kb.save(path)
    assert KnowledgeBase.load(path) == kb


def test_truncated_file_raises(tmp_path):
    path = tmp_path / "kb.json"
    path.write_text('{"format_version": 1, "role": "tr')
    with pytest.raises(FormatError):
        KnowledgeBase.load(path)
    path.write_text(DEEP_JSON)  # a decode error, not a RecursionError
    with pytest.raises(FormatError) as info:
        KnowledgeBase.load(path)
    assert str(info.value) == f"cannot load KB from {path}: {DEEP_JSON_FAULT}"


def test_a_file_that_is_not_utf8_raises_naming_it(tmp_path):
    path = tmp_path / "kb.json"
    path.write_bytes(b'{"format_version": 4, "role": "caf\xe9"}')
    with pytest.raises(FormatError) as info:
        KnowledgeBase.load(path)
    assert str(info.value).startswith(f"cannot load KB from {path}: 'utf-8' codec can't decode byte 0xe9")


def test_version_mismatch_raises(tmp_path):
    path = tmp_path / "kb.json"
    path.write_text(json.dumps({"format_version": 42, "role": "train", "level": ENTITY, "entries": []}))
    with pytest.raises(FormatError):
        KnowledgeBase.load(path)


def test_kb_set_round_trip(tmp_path, toy_tree):
    kbs = KnowledgeBaseSet()
    result = top_down_decompose(TOY_KEYS, toy_tree)
    for seq in result.all_seqs():
        insert(kbs.train[seq.level], seq)
    kbs.test[STATUS].store_test(KBTestEntry(chunk_key=chunk_key(["k1"]), verdict="abnormal"))
    kbs.save_dir(tmp_path / "kb")
    loaded = KnowledgeBaseSet.load_dir(tmp_path / "kb")
    for level in kbs.train:
        assert loaded.train[level] == kbs.train[level]
        assert loaded.test[level] == kbs.test[level]


def test_load_dir_rejects_swapped_files(tmp_path, toy_tree):
    kbs = KnowledgeBaseSet()
    for seq in top_down_decompose(TOY_KEYS, toy_tree).all_seqs():
        insert(kbs.train[seq.level], seq)
    kbs.save_dir(tmp_path)
    status, action = tmp_path / "train_status.json", tmp_path / "train_action.json"
    status_bytes = status.read_bytes()
    status.write_bytes(action.read_bytes())
    action.write_bytes(status_bytes)
    with pytest.raises(FormatError) as info:
        KnowledgeBaseSet.load_dir(tmp_path)
    assert "train_action.json holds the train KB of level 'status'" in str(info.value)


def test_load_dir_rejects_a_train_kb_in_a_test_file(tmp_path):
    kbs = KnowledgeBaseSet()
    kbs.save_dir(tmp_path)
    (tmp_path / "test_entity.json").write_bytes((tmp_path / "train_entity.json").read_bytes())
    with pytest.raises(FormatError) as info:
        KnowledgeBaseSet.load_dir(tmp_path)
    assert "test_entity.json holds the train KB of level 'entity', not the test KB" in str(info.value)


def test_load_dir_names_the_file_of_an_old_format(tmp_path):
    KnowledgeBaseSet().save_dir(tmp_path)
    path = tmp_path / "test_action.json"
    data = json.loads(path.read_text())
    data["format_version"] = KB_FORMAT_VERSION - 1
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError) as info:
        KnowledgeBaseSet.load_dir(tmp_path)
    assert str(path) in str(info.value)
    assert f"KB format version {KB_FORMAT_VERSION - 1}, expected {KB_FORMAT_VERSION}" in str(info.value)
    assert "re-run `hierlog train`" in str(info.value)


def _saved_train_kb(tmp_path, toy_tree, llm=True):
    """A saved entity train KB whose one entry has, with the LLM on, an embedding, and its JSON."""
    kb = KnowledgeBase(level=ENTITY, role="train", llm=llm)
    seq = entity_seq(toy_tree, TOY_KEYS)
    if llm:
        insert(kb, seq, summary="E:Session>Auth>Comm", embedding=embed_chunk(seq.chunk))
    else:
        insert(kb, seq)
    path = tmp_path / "train_entity.json"
    kb.save(path)
    assert KnowledgeBase.load(path) == kb
    return path, json.loads(path.read_text())


@pytest.mark.parametrize(
    "pairs",
    [
        [[1.0, 0.5]],  # a float index
        [[3, 0.5], [1, 0.5]],  # descending
        [[1, 0.5], [1, 0.5]],  # a duplicate index
        [[-1, 0.5]],
        [[EMBED_DIM, 0.5]],
        [[1, 0.0]],
        [[1, -0.0]],
        [[1, 1]],  # an int value
        [[1, math.nan]],
        [[1, math.inf]],
        [[1, -math.inf]],
        [[1, 1e300]],  # finite, but its square is not: an infinite norm
        [[1, 0.5, 2]],
        [[1]],
        [1, 0.5],
        {"1": 0.5},
    ],
)
def test_load_rejects_a_bad_embedding(tmp_path, toy_tree, pairs):
    path, data = _saved_train_kb(tmp_path, toy_tree)
    data["groups"][0][1][0][4] = pairs
    path.write_text(json.dumps(data))  # NaN and Infinity as json writes and reads them
    with pytest.raises(FormatError) as info:
        KnowledgeBase.load(path)
    assert f"{path}: group 0, row 0: field 'embedding' has a bad value {pairs!r}" in str(info.value)


def test_load_accepts_the_edges_of_a_valid_embedding(tmp_path, toy_tree):
    path, data = _saved_train_kb(tmp_path, toy_tree)
    pairs = [[0, -1e-300], [7, 5e-324], [EMBED_DIM - 1, 1e150]]
    data["groups"][0][1][0][4] = pairs
    path.write_text(json.dumps(data))
    kb = KnowledgeBase.load(path)
    assert kb.entries["Session", "Auth", "Comm"].embedding == sparse_vector(dict(pairs))
    assert kb.to_json()["groups"][0][1][0][4] == pairs


def test_load_checks_each_norm_on_its_own(tmp_path, toy_tree):
    # two vectors whose squares are finite each, 1e308, but overflow summed over both
    path, data = _saved_train_kb(tmp_path, toy_tree)
    rows = data["groups"][0][1]
    rows.append([["Auth"], 1, ["k3"], "E:Auth", [[3, 1e154]]])
    rows[0][4] = [[1, 1e154]]
    path.write_text(json.dumps(data))
    kb = KnowledgeBase.load(path)
    assert [e.embedding.norm for e in kb.entries.values()] == [1e154, 1e154]
    rows[0][4] = [[1, 1e154], [2, 1e154]]  # now the first one's norm is infinite
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match="group 0, row 0: field 'embedding' has a bad value"):
        KnowledgeBase.load(path)


@pytest.mark.parametrize(
    "field, value, fault",
    [
        ("occurrence_count", None, "missing field 'occurrence_count'"),
        ("nodes", None, "missing field 'nodes'"),
        ("occurrence_count", "2", "field 'occurrence_count' has a bad value '2'"),
        ("occurrence_count", 0, "field 'occurrence_count' has a bad value 0"),
        ("occurrence_count", True, "field 'occurrence_count' has a bad value True"),
        ("nodes", {"0": "Session"}, "field 'nodes' has a bad value {'0': 'Session'}"),
        ("parent_path", "root", "field 'parent_path' has a bad value 'root'"),
        ("summary", 3, "field 'summary' has a bad value 3"),
        ("occurrence_count", -1, "field 'occurrence_count' has a bad value -1"),
        ("occurrence_count", 1.5, "field 'occurrence_count' has a bad value 1.5"),
        ("nodes", ["Session", 3], "field 'nodes' has a bad value ['Session', 3]"),
        ("nodes", [None], "field 'nodes' has a bad value [None]"),
        ("nodes", [], "field 'nodes' has a bad value []"),
        ("parent_path", [7], "field 'parent_path' has a bad value [7]"),
        ("parent_path", ["root", "Auth"], "field 'parent_path' has a bad value ['root', 'Auth']"),  # too long
        ("example_chunk", ["k1", 2], "field 'example_chunk' has a bad value ['k1', 2]"),
    ],
)
def test_load_names_the_entry_and_field_at_fault(tmp_path, toy_tree, field, value, fault):
    path, data = _saved_train_kb(tmp_path, toy_tree)
    data["groups"].append([["Root"], json.loads(json.dumps(data["groups"][0][1]))])  # a second parent path
    group = data["groups"][1]
    columns = ["nodes", "occurrence_count", "example_chunk", "summary", "embedding"]
    if field == "parent_path":
        group[0], where = value, "group 1"
    elif value is None:  # a row cut short just before the field
        del group[1][0][columns.index(field):]
        where = "group 1, row 0"
    else:
        group[1][0][columns.index(field)], where = value, "group 1, row 0"
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError) as info:
        KnowledgeBase.load(path)
    assert f"{path}: {where}: {fault}" in str(info.value)


def _add_row(data, row):
    data["groups"][0][1].append(row)


# case -> (the LLM flag of the saved KB, an edit of its JSON, the fault reported)
TRAIN_FAULTS = {
    "wide-row": (False, lambda d: _add_row(d, [["Auth"], 1, None]), "group 0, row 1: has 3 fields, but a row of this"),
    "llm-row-in-an-llm-off-kb": (
        False, lambda d: _add_row(d, [["Auth"], 1, ["k3"], "A", None]), "group 0, row 1: has 5 fields, but a row"
    ),
    "short-llm-row": (True, lambda d: _add_row(d, [["Auth"], 1]), "group 0, row 1: missing field 'example_chunk'"),
    "row-not-a-list": (False, lambda d: _add_row(d, {"nodes": ["Auth"]}), "group 0, row 1: is not a list"),
    "duplicate-row": (
        False, lambda d: _add_row(d, list(d["groups"][0][1][0])), "group 0, row 1: repeats the parent path and nodes"
    ),
    "duplicate-across-groups": (
        False, lambda d: d["groups"].append(json.loads(json.dumps(d["groups"][0]))), "group 1, row 0: repeats"
    ),
    "group-not-a-pair": (False, lambda d: d["groups"].append([["root"]]), "group 1 is not a [parent_path, rows] pair"),
    "parent-path-not-at-the-root": (
        False, lambda d: d["groups"].append([["Root"], [[["Auth"], 1]]]), "group 1: a parent path starts at 'root', not"
    ),
    "rows-not-a-list": (False, lambda d: d["groups"][0].__setitem__(1, "rows"), "group 0: field 'rows' has a bad"),
    "llm-flag-not-a-bool": (False, lambda d: d.__setitem__("llm", "false"), "a train KB needs an llm flag"),
    "no-groups": (False, lambda d: d.pop("groups"), "a train KB needs an llm flag (true or false) and a list of"),
}


@pytest.mark.parametrize("case", list(TRAIN_FAULTS))
def test_load_rejects_a_bad_train_file(tmp_path, toy_tree, case):
    llm, edit, fault = TRAIN_FAULTS[case]
    path, data = _saved_train_kb(tmp_path, toy_tree, llm=llm)
    edit(data)
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError) as info:
        KnowledgeBase.load(path)
    assert f"{path}: {fault}" in str(info.value)
    assert "re-run `hierlog train`" in str(info.value)


def test_an_empty_group_loads_and_saves_as_no_group(tmp_path, toy_tree):
    path, data = _saved_train_kb(tmp_path, toy_tree, llm=False)
    saved = KnowledgeBase.load(path).to_json()
    data["groups"].append([["root"], []])
    kb = KnowledgeBase.from_json(data)
    assert kb.to_json() == saved
    assert kb.transition_index() == {(): {(START_MARK, "Session"), ("Session", "Auth"), ("Auth", "Comm"),
                                          ("Comm", END_MARK)}}


def test_load_checks_the_kb_and_test_entries(tmp_path):
    path = tmp_path / "test_status.json"
    base = {"format_version": KB_FORMAT_VERSION, "role": "test", "level": STATUS}
    cases = [
        ([], "KB format version None"),
        ({**base, "level": "galaxy", "entries": []}, "a KB needs a role (train or test) and a level"),
        ({**base, "role": ["test"], "entries": []}, "a KB needs a role"),
        ({**base}, "a test KB needs a list of entries"),
        ({**base, "entries": {}}, "a test KB needs a list of entries"),
        ({**base, "entries": ["k1"]}, "entry 0 is not an object"),
        ({**base, "entries": [{"chunk_key": "k1", "confidence_flag": "low"}]}, "entry 0: missing field 'verdict'"),
        (
            {**base, "entries": [{"chunk_key": "k1", "verdict": "maybe", "confidence_flag": "low"}]},
            "entry 0: field 'verdict' has a bad value 'maybe'",
        ),
        # a repeated chunk key would let row order pick the cached verdict
        (
            {**base, "entries": [{"chunk_key": "a", "verdict": "normal", "confidence_flag": "normal"},
                                 {"chunk_key": "a", "verdict": "abnormal", "confidence_flag": "normal"}]},
            "entry 1: repeats the chunk key of entry 0",
        ),
    ]
    for data, fault in cases:
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError) as info:
            KnowledgeBase.load(path)
        assert f"{path}: {fault}" in str(info.value)
    entry = {"chunk_key": "k1", "verdict": "normal", "confidence_flag": "low"}  # explanation may be absent
    path.write_text(json.dumps({**base, "entries": [entry]}))
    assert KnowledgeBase.load(path).lookup_test("k1") == KBTestEntry("k1", "normal", None, "low")


# -- cosine -----------------------------------------------------------------------

def test_cosine_basics():
    assert cosine([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    assert cosine([0.0, 0.0], [1.0, 0.0]) == 0.0
    assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1.0 / math.sqrt(2.0))
    assert cosine(dense(sparse_vector({0: 1.0, 1: 1.0})), dense(sparse_vector({0: 1.0}))) == pytest.approx(
        1.0 / math.sqrt(2.0)
    )
