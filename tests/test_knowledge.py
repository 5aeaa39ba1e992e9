"""Knowledge base behavior: counting, transitions, retrieval, persistence."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlog.decompose import Seq, top_down_decompose
from hierlog.errors import FormatError, KnowledgeBaseError
from hierlog.detect import DetectConfig, train as train_kbs
from hierlog.hierarchy import ENTITY, STATUS, FixtureExtractor, TopicTree, build_tree, escape_name, extract_topics
from hierlog.knowledge import (
    END_MARK,
    KB_FORMAT_VERSION,
    START_MARK,
    KnowledgeBase,
    KnowledgeBaseSet,
    TestEntry as KBTestEntry,
    chunk_key,
    _sparse_cosine,
)
from hierlog.semantics import EMBED_DIM, embed_chunk, sparse_vector

from conftest import TOY_KEYS, cosine, dense


def entity_seq(toy_tree, keys):
    return top_down_decompose(keys, toy_tree).e_seq


# -- training entries ---------------------------------------------------------

def test_insert_counts_occurrences(toy_tree):
    kb = KnowledgeBase(level=ENTITY, role="train")
    seq = entity_seq(toy_tree, TOY_KEYS)
    kb.insert_train(seq)
    kb.insert_train(seq)
    entry = kb.entries[seq.signature]
    assert entry.occurrence_count == 2
    assert entry.example_chunk == TOY_KEYS
    assert kb.contains(seq.signature)
    assert not kb.contains("root|Nothing")


def test_transition_enumeration_oracle(toy_tree):
    kb = KnowledgeBase(level=ENTITY, role="train")
    kb.insert_train(entity_seq(toy_tree, TOY_KEYS))
    assert kb.transition_index["root"] == {
        (START_MARK, "Session"),
        ("Session", "Auth"),
        ("Auth", "Comm"),
        ("Comm", END_MARK),
    }


def test_automaton_accepts_stitched_sequences(toy_tree):
    kb = KnowledgeBase(level=ENTITY, role="train")
    kb.insert_train(entity_seq(toy_tree, ["k1", "k3"]))  # Session > Auth
    kb.insert_train(entity_seq(toy_tree, ["k3", "k5"]))  # Auth > Comm
    assert kb.accepts_transitions("root", ["Session", "Auth", "Comm"])
    assert not kb.accepts_transitions("root", ["Comm", "Session"])
    assert not kb.accepts_transitions("root", ["Session"])  # Session><end> unseen
    # unknown parent has no transitions at all
    assert not kb.accepts_transitions("root>Ghost", ["Session"])


def test_transition_index_keyed_by_escaped_parent_path():
    kb = KnowledgeBase(level=STATUS, role="train")
    seq = Seq(STATUS, ("root", "A>B", "x"), ["s"], ["k"], "root>A\\>B>x", {"s": "s"})
    kb.insert_train(seq)
    assert list(kb.transition_index) == [seq.parent_key]
    assert seq.signature == "root>A\\>B>x|s"
    assert kb.accepts_transitions(seq.parent_key, ["s"])
    # the unescaped join names another parent path, ("root", "A", "B", "x")
    assert not kb.accepts_transitions("root>A>B>x", ["s"])


def per_pair_check(kb, parent_key, nodes):
    """Every adjacent pair of the walk looked up in turn: the oracle for `accepts_transitions`."""
    transitions = kb.transition_index.get(parent_key, set())
    walk = [START_MARK] + list(nodes) + [END_MARK]
    return all(pair in transitions for pair in zip(walk, walk[1:]))


_NAMES = st.sampled_from(["a", "bc", "a|b", "b>c", "c\\", "\\|>", "x\\>y|"])
_PARENT_KEYS = ["root", "root>A", "root>A\\>B"]


@settings(max_examples=200, deadline=None)
@given(
    trained=st.lists(st.tuples(st.sampled_from(_PARENT_KEYS), st.lists(_NAMES, min_size=1, max_size=5)), max_size=8),
    probes=st.lists(
        st.tuples(st.sampled_from(_PARENT_KEYS + ["root>Ghost"]), st.lists(_NAMES, max_size=5)), min_size=1, max_size=10
    ),
)
def test_accepts_transitions_matches_the_per_pair_check(trained, probes):
    kb = KnowledgeBase(level=STATUS, role="train")
    for parent_key, nodes in trained:
        escaped = {n: escape_name(n) for n in nodes}
        kb.insert_train(Seq(STATUS, ("root",), nodes, ["k"] * len(nodes), parent_key, escaped))
    loaded = KnowledgeBase.from_json(json.loads(json.dumps(kb.to_json())))
    for parent_key, nodes in probes:
        copies = [(name + "!")[:-1] for name in nodes]  # equal strings that are other objects
        expected = per_pair_check(kb, parent_key, nodes)
        for probed in (kb, loaded):
            assert probed.accepts_transitions(parent_key, nodes) == expected
            assert probed.accepts_transitions(parent_key, copies) == expected
        assert kb.accepts_transitions(parent_key, []) == per_pair_check(kb, parent_key, [])


def test_loaded_transition_names_are_the_trees_own_objects(tmp_path, corpus):
    built = build_tree(extract_topics(corpus.catalog, FixtureExtractor(corpus.fixture)))
    kbs = train_kbs(corpus.train, built, DetectConfig())
    built.save(tmp_path / "tree.json")
    kbs.save_dir(tmp_path / "kb")
    tree = TopicTree.load(tmp_path / "tree.json")
    loaded = KnowledgeBaseSet.load_dir(tmp_path / "kb")
    own = {name: name for names in tree.key_names.values() for name in names}
    own.update({START_MARK: START_MARK, END_MARK: END_MARK})
    names = [name for kb in loaded.train.values() for pairs in kb.transition_index.values() for pair in pairs
             for name in pair]
    assert len(names) > 100
    assert all(own[name] is name for name in names)


def test_role_guards(toy_tree):
    train = KnowledgeBase(level=ENTITY, role="train")
    test = KnowledgeBase(level=ENTITY, role="test")
    seq = entity_seq(toy_tree, TOY_KEYS)
    with pytest.raises(KnowledgeBaseError):
        test.insert_train(seq)
    with pytest.raises(KnowledgeBaseError):
        train.lookup_test("x")
    with pytest.raises(KnowledgeBaseError):
        KnowledgeBase(level=STATUS, role="train").insert_train(seq)  # level mismatch


# -- retrieval ----------------------------------------------------------------

def test_retrieve_similar_matches_brute_force(toy_tree):
    kb = KnowledgeBase(level=ENTITY, role="train")
    corpora = [["k1", "k3"], ["k3", "k5"], ["k1", "k3", "k5"], ["k5", "k1"], ["k1", "k2", "k3"]]
    for keys in corpora:
        seq = entity_seq(toy_tree, keys)
        entry = kb.insert_train(seq)
        entry.embedding = embed_chunk(seq.chunk)
    query = embed_chunk(["k1", "k3", "k5", "k5"])

    got = [e.signature for e in kb.retrieve_similar(("root",), query, 3)]
    ranked = sorted(
        kb.entries.values(),
        key=lambda e: (-cosine(dense(query), dense(e.embedding)), -e.occurrence_count, e.signature),
    )
    assert got == [e.signature for e in ranked[:3]]
    assert len(kb.retrieve_similar(("root",), query, 100)) == len(kb.entries)


def test_retrieve_tie_break_by_count_then_signature(toy_tree):
    kb = KnowledgeBase(level=ENTITY, role="train")
    a = entity_seq(toy_tree, ["k1", "k3"])  # Session > Auth
    b = entity_seq(toy_tree, ["k3", "k1"])  # Auth > Session, distinct signature
    kb.insert_train(a).embedding = sparse_vector({0: 1.0})
    kb.insert_train(b)
    kb.insert_train(b)
    kb.entries[b.signature].embedding = sparse_vector({0: 1.0})
    # identical cosine: higher occurrence count (b has 2) wins
    got = kb.retrieve_similar(("root",), sparse_vector({0: 1.0}), 2)
    assert got[0].occurrence_count == 2


def test_retrieve_filters_siblings(toy_tree):
    kb = KnowledgeBase(level="action", role="train")
    result = top_down_decompose(TOY_KEYS, toy_tree)
    for a_seq in result.a_seqs:
        kb.insert_train(a_seq).embedding = embed_chunk(a_seq.chunk)
    got = kb.retrieve_similar(("root", "Auth"), embed_chunk(["k3"]), 10)
    assert [e.parent_path for e in got] == [["root", "Auth"]]


def test_retrieve_requires_embeddings(toy_tree):
    kb = KnowledgeBase(level=ENTITY, role="train")
    kb.insert_train(entity_seq(toy_tree, TOY_KEYS))
    with pytest.raises(KnowledgeBaseError):
        kb.retrieve_similar(("root",), sparse_vector({0: 1.0}), 1)


_PARENTS = [("root",), ("root", "Auth"), ("root", "Comm")]
# The vectors a KB accepts: finite non-zero values, a finite norm. Few indices
# and small repeated values give shared indices, exact cosine ties and, with
# no values, the zero vector; the general float branch adds subnormals (a norm
# that underflows to 0) and products that overflow. A norm in (0, 1e-150) is
# left out: two of them multiply to 0 and the dense cosine divides by zero.
_VALUES = st.one_of(st.sampled_from([1.0, -1.0, 0.5, 2.0]), st.floats(-1e154, 1e154).map(lambda x: x or 1.0))
_VECTORS = (
    st.dictionaries(st.sampled_from([0, 1, 2, 3, 4, EMBED_DIM - 1]), _VALUES, max_size=6)
    .map(lambda d: sparse_vector(dict(sorted(d.items()))))
    .filter(lambda v: v.norm == 0.0 or 1e-150 <= v.norm < math.inf)
)


def _oracle(kb, parent, query, m):
    siblings = [e for e in kb.entries.values() if e.parent_path == list(parent)]
    q = dense(query)
    ranked = sorted(siblings, key=lambda e: (-cosine(q, dense(e.embedding)), -e.occurrence_count, e.signature))
    return ranked[: max(m, 0)]


@settings(max_examples=500, deadline=None)
@given(a=_VECTORS, b=_VECTORS)
def test_sparse_cosine_is_bit_identical_to_cosine(a, b):
    # repr tells -0.0 from 0.0 and round-trips every other float exactly
    assert repr(_sparse_cosine(a, b)) == repr(cosine(dense(a), dense(b)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_retrieve_similar_matches_brute_force_oracle(data):
    kb = KnowledgeBase(level=ENTITY, role="train")

    def insert(parent, nodes):
        seq = Seq(ENTITY, parent, nodes, nodes, ">".join(parent), {n: n for n in nodes})
        for _ in range(data.draw(st.integers(1, 3), label="count")):
            entry = kb.insert_train(seq)
        return entry

    node_lists = st.lists(st.sampled_from("ABCD"), min_size=1, max_size=3)
    for _ in range(data.draw(st.integers(0, 12), label="entries")):
        entry = insert(data.draw(st.sampled_from(_PARENTS)), data.draw(node_lists))
        entry.embedding = data.draw(_VECTORS, label="embedding")

    def check():
        snapshot = json.dumps(kb.to_json(), sort_keys=True)  # a copy, not shared lists
        for parent in _PARENTS + [("root", "Ghost")]:
            query = data.draw(_VECTORS, label="query")
            m = data.draw(st.integers(-1, len(kb.entries) + 2), label="m")
            assert kb.retrieve_similar(parent, query, m) == _oracle(kb, parent, query, m)
        assert json.dumps(kb.to_json(), sort_keys=True) == snapshot

    check()
    if kb.entries:
        victim = kb.entries[data.draw(st.sampled_from(sorted(kb.entries)), label="reassigned")]
        victim.embedding = data.draw(_VECTORS, label="new embedding")
        check()

    parent = data.draw(st.sampled_from(_PARENTS), label="late parent")
    late = insert(parent, data.draw(st.lists(st.sampled_from("EF"), min_size=1, max_size=2)))
    with pytest.raises(KnowledgeBaseError):
        kb.retrieve_similar(parent, sparse_vector({0: 1.0}), 1)
    late.embedding = data.draw(_VECTORS, label="late embedding")
    check()


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
    # chunk keys distinguish concatenation ambiguities
    assert chunk_key(["ab", "c"]) != chunk_key(["a", "bc"])


# -- persistence ------------------------------------------------------------------

def test_save_load_round_trip(tmp_path, toy_tree):
    kb = KnowledgeBase(level=ENTITY, role="train")
    seq = entity_seq(toy_tree, TOY_KEYS)
    kb.insert_train(seq)
    kb.insert_train(entity_seq(toy_tree, ["k3", "k1"]))
    kb.entries[seq.signature].embedding = embed_chunk(seq.chunk)
    path = tmp_path / "kb.json"
    kb.save(path)
    assert KnowledgeBase.load(path) == kb


def test_truncated_file_raises(tmp_path):
    path = tmp_path / "kb.json"
    path.write_text('{"format_version": 1, "role": "tr')
    with pytest.raises(FormatError):
        KnowledgeBase.load(path)


def test_version_mismatch_raises(tmp_path):
    path = tmp_path / "kb.json"
    path.write_text(json.dumps({"format_version": 42, "role": "train", "level": ENTITY, "entries": []}))
    with pytest.raises(FormatError):
        KnowledgeBase.load(path)


def test_kb_set_round_trip(tmp_path, toy_tree):
    kbs = KnowledgeBaseSet()
    result = top_down_decompose(TOY_KEYS, toy_tree)
    for seq in result.all_seqs():
        kbs.train[seq.level].insert_train(seq)
    kbs.test[STATUS].store_test(KBTestEntry(chunk_key=chunk_key(["k1"]), verdict="abnormal"))
    kbs.save_dir(tmp_path / "kb")
    loaded = KnowledgeBaseSet.load_dir(tmp_path / "kb")
    for level in kbs.train:
        assert loaded.train[level] == kbs.train[level]
        assert loaded.test[level] == kbs.test[level]


def test_load_dir_rejects_swapped_files(tmp_path, toy_tree):
    kbs = KnowledgeBaseSet()
    for seq in top_down_decompose(TOY_KEYS, toy_tree).all_seqs():
        kbs.train[seq.level].insert_train(seq)
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


def _saved_train_kb(tmp_path, toy_tree):
    """A saved entity train KB whose one entry has an embedding, and its JSON."""
    kb = KnowledgeBase(level=ENTITY, role="train")
    seq = entity_seq(toy_tree, TOY_KEYS)
    kb.insert_train(seq).embedding = embed_chunk(seq.chunk)
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
    data["entries"][0]["embedding"] = pairs
    path.write_text(json.dumps(data))  # NaN and Infinity as json writes and reads them
    with pytest.raises(FormatError) as info:
        KnowledgeBase.load(path)
    assert f"{path}: entry 0: field 'embedding' has a bad value {pairs!r}" in str(info.value)


def test_load_accepts_the_edges_of_a_valid_embedding(tmp_path, toy_tree):
    path, data = _saved_train_kb(tmp_path, toy_tree)
    pairs = [[0, -1e-300], [7, 5e-324], [EMBED_DIM - 1, 1e150]]
    data["entries"][0]["embedding"] = pairs
    path.write_text(json.dumps(data))
    kb = KnowledgeBase.load(path)
    assert kb.entries[data["entries"][0]["signature"]].embedding == sparse_vector(dict(pairs))
    assert kb.to_json()["entries"][0]["embedding"] == pairs


@pytest.mark.parametrize(
    "field, value, fault",
    [
        ("occurrence_count", None, "missing field 'occurrence_count'"),
        ("signature", None, "missing field 'signature'"),
        ("occurrence_count", "2", "field 'occurrence_count' has a bad value '2'"),
        ("occurrence_count", 0, "field 'occurrence_count' has a bad value 0"),
        ("occurrence_count", True, "field 'occurrence_count' has a bad value True"),
        ("nodes", {"0": "Session"}, "field 'nodes' has a bad value {'0': 'Session'}"),
        ("parent_path", "root", "field 'parent_path' has a bad value 'root'"),
        ("summary", 3, "field 'summary' has a bad value 3"),
    ],
)
def test_load_names_the_entry_and_field_at_fault(tmp_path, toy_tree, field, value, fault):
    path, data = _saved_train_kb(tmp_path, toy_tree)
    data["entries"].append(dict(data["entries"][0], signature="root|Other"))
    row = data["entries"][1]
    if value is None:
        del row[field]
    else:
        row[field] = value
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError) as info:
        KnowledgeBase.load(path)
    assert f"{path}: entry 1: {fault}" in str(info.value)


def test_load_checks_the_kb_and_test_entries(tmp_path):
    path = tmp_path / "test_status.json"
    base = {"format_version": KB_FORMAT_VERSION, "role": "test", "level": STATUS}
    cases = [
        ([], "KB format version None"),
        ({**base, "level": "galaxy", "entries": []}, "a KB needs a role (train or test), a level"),
        ({**base, "role": ["test"], "entries": []}, "a KB needs a role"),
        ({**base}, "a KB needs"),
        ({**base, "entries": [], "transition_index": []}, "a KB needs"),
        ({**base, "entries": ["k1"]}, "entry 0 is not an object"),
        ({**base, "entries": [{"chunk_key": "k1", "confidence_flag": "low"}]}, "entry 0: missing field 'verdict'"),
        (
            {**base, "entries": [{"chunk_key": "k1", "verdict": "maybe", "confidence_flag": "low"}]},
            "entry 0: field 'verdict' has a bad value 'maybe'",
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
    assert _sparse_cosine(sparse_vector({0: 1.0, 1: 1.0}), sparse_vector({0: 1.0})) == pytest.approx(
        1.0 / math.sqrt(2.0)
    )
