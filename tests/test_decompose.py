"""Decomposition correctness: golden example, properties, nested format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlog.decompose import CHILD_LEVEL, child_runs, pattern_keys, run_seq, scan_runs, top_down_decompose
from hierlog.errors import DecompositionError
from hierlog.hierarchy import ACTION, ENTITY, PARENT_DEPTH, STATUS, TopicTriple, build_tree

from conftest import TOY_KEYS, make_signature

toy_keys_st = st.lists(st.sampled_from(TOY_KEYS), min_size=1, max_size=40)


# -- golden example -------------------------------------------------------------

def test_golden_decomposition(toy_tree):
    result = top_down_decompose(TOY_KEYS, toy_tree)
    got = [(s.level, list(s.parent_path), s.nodes, s.chunk) for s in result.all_seqs()]
    assert got == [
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
    assert len(result.all_seqs()) == 9


def test_golden_signatures(toy_tree):
    result = top_down_decompose(TOY_KEYS, toy_tree)
    assert result.e_seq.signature == "root|Session>Auth>Comm"
    assert result.s_seqs[0].signature == "root>Session>open|started>succf"
    assert result.a_seqs[1].signature == "root>Auth|start>succd"


def test_golden_child_chunks(toy_tree):
    result = top_down_decompose(TOY_KEYS, toy_tree)
    assert [c.chunk for c in result.e_seq.children] == [["k1", "k2"], ["k3", "k4"], ["k5", "k6"]]
    assert result.s_seqs[0].nodes == ["started", "succf"]
    assert result.s_seqs[0].chunk == ["k1", "k2"]


def test_children_links(toy_tree):
    result = top_down_decompose(TOY_KEYS, toy_tree)
    assert result.e_seq.children == result.a_seqs
    assert [c.level for c in result.e_seq.children] == [ACTION] * 3
    assert [s for a in result.a_seqs for s in a.children] == result.s_seqs
    for s in result.s_seqs:
        assert s.children is None


# -- collapse semantics -----------------------------------------------------------

def test_entity_collapse_runs(toy_tree):
    # k1, k2 -> Session twice: one entity chunk
    e_seq = top_down_decompose(["k1", "k2", "k3"], toy_tree).e_seq
    assert e_seq.nodes == ["Session", "Auth"]
    assert [c.chunk for c in e_seq.children] == [["k1", "k2"], ["k3"]]


def test_status_never_collapses(toy_tree):
    result = top_down_decompose(["k3", "k3"], toy_tree)
    assert [s.level for s in result.s_seqs] == [STATUS]
    assert result.s_seqs[0].nodes == ["none", "none"]
    assert result.s_seqs[0].chunk == ["k3", "k3"]


def test_reentry_is_not_collapsed(toy_tree):
    # Session, Auth, Session: the second Session run is a separate chunk
    result = top_down_decompose(["k1", "k3", "k1"], toy_tree)
    assert result.e_seq.nodes == ["Session", "Auth", "Session"]


def test_unknown_key(toy_tree):
    with pytest.raises(DecompositionError):
        top_down_decompose(["k1", "nope"], toy_tree)


# -- signatures -------------------------------------------------------------------

def test_signature_escaping():
    plain = make_signature(["root", "A>B"], ["x|y"])
    assert plain == "root>A\\>B|x\\|y"
    # escaping keeps distinct inputs distinct
    assert make_signature(["root"], ["a>b"]) != make_signature(["root"], ["a", "b"])
    assert make_signature(["root", "a"], ["b"]) != make_signature(["root"], ["a", "b"])


# names built from the separators and the escape char, so escaping matters
_names_st = st.text(alphabet="ab|>\\", min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_signature_field_equals_make_signature(data):
    n_keys = data.draw(st.integers(1, 6), label="keys")
    triples = [
        TopicTriple(f"t{i}", data.draw(_names_st), data.draw(_names_st), data.draw(_names_st))
        for i in range(n_keys)
    ]
    tree = build_tree(triples)
    keys = data.draw(st.lists(st.sampled_from([t.key for t in triples]), min_size=1, max_size=20))
    for seq in top_down_decompose(keys, tree).all_seqs():
        assert seq.signature == make_signature(seq.parent_path, seq.nodes)
        assert seq.pattern == (*seq.parent_path[1:], *seq.nodes)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pattern_keys_give_each_runs_seq_pattern(data):
    # the detector and training key a run by `pattern_keys` without building its Seq
    triples = [
        TopicTriple(f"t{i}", data.draw(_names_st), data.draw(_names_st), data.draw(_names_st))
        for i in range(data.draw(st.integers(1, 6), label="keys"))
    ]
    tree = build_tree(triples)
    keys = data.draw(st.lists(st.sampled_from([t.key for t in triples]), min_size=1, max_size=20))
    runs = scan_runs(keys, tree)
    for level, level_runs in runs.items():
        patterns = pattern_keys(level, keys, level_runs, tree)
        assert patterns == [run_seq(level, keys, run, tree).pattern for run in level_runs]
        assert all(len(pattern) > PARENT_DEPTH[level] for pattern in patterns)  # a node after the parent's names


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_child_runs_give_the_children_that_top_down_decompose_links(data):
    # training and the LLM path find a run's children by `child_runs`, not by the Seq links
    triples = [
        TopicTriple(f"t{i}", data.draw(_names_st), data.draw(_names_st), data.draw(_names_st))
        for i in range(data.draw(st.integers(1, 6), label="keys"))
    ]
    tree = build_tree(triples)
    keys = data.draw(st.lists(st.sampled_from([t.key for t in triples]), min_size=1, max_size=30))
    runs, result = scan_runs(keys, tree), top_down_decompose(keys, tree)
    for level, seqs in ((ENTITY, [result.e_seq]), (ACTION, result.a_seqs)):
        assert len(runs[level]) == len(seqs)
        for run, seq in zip(runs[level], seqs):
            children = [run_seq(CHILD_LEVEL[level], keys, child, tree) for child in child_runs(runs, level, run)]
            assert [(c.level, c.parent_path, c.nodes, c.chunk) for c in children] == [
                (c.level, c.parent_path, c.nodes, c.chunk) for c in seq.children
            ]


# -- properties -------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(keys=toy_keys_st)
def test_status_chunks_reconstruct_input(toy_tree, keys):
    result = top_down_decompose(keys, toy_tree)
    assert [k for s in result.s_seqs for k in s.chunk] == keys


@settings(max_examples=200, deadline=None)
@given(keys=toy_keys_st)
def test_status_seqs_have_one_node_per_key(toy_tree, keys):
    for seq in top_down_decompose(keys, toy_tree).s_seqs:
        assert seq.nodes == [toy_tree.key_names[k][2] for k in seq.chunk]


@settings(max_examples=200, deadline=None)
@given(keys=toy_keys_st)
def test_no_adjacent_duplicates_above_status(toy_tree, keys):
    result = top_down_decompose(keys, toy_tree)
    for seq in [result.e_seq] + result.a_seqs:
        assert all(a != b for a, b in zip(seq.nodes, seq.nodes[1:]))


@settings(max_examples=200, deadline=None)
@given(keys=toy_keys_st)
def test_children_cover_parents(toy_tree, keys):
    result = top_down_decompose(keys, toy_tree)
    for parent in [result.e_seq] + result.a_seqs:
        assert [k for c in parent.children for k in c.chunk] == parent.chunk
        # one child per node, each under that node
        assert len(parent.children) == len(parent.nodes)
        assert [c.parent_path[-1] for c in parent.children] == parent.nodes


# -- nested format ------------------------------------------------------------------

def test_nested_format(toy_tree):
    result = top_down_decompose(TOY_KEYS, toy_tree)
    assert [s.nodes for s in result.a_seqs[1].children] == [["none"], ["none"]]
    assert [[s.nodes for s in a.children] for a in result.e_seq.children] == [
        [["started", "succf"]],
        [["none"], ["none"]],
        [["none"], ["none"]],
    ]
