"""Topic extraction, refinement, and tree construction."""

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hierlog.errors import DuplicateKeyError, ExtractionError, TreeError
from hierlog.hierarchy import (
    ACTION,
    ENTITY,
    STATUS,
    FixtureExtractor,
    LexiconExtractor,
    LlmExtractor,
    TopicTree,
    TopicTriple,
    build_tree,
    extract_topics,
    refine_topics,
    load_triples,
    save_triples,
)
from hierlog.ingest import LogTemplate, TemplateCatalog
from hierlog.semantics import MockProvider
from hierlog.synthetic import TOY_FIXTURE

from conftest import DEEP_JSON, DEEP_JSON_FAULT


def toy_triples():
    return [
        TopicTriple(k, v["entity"], v["action"], v["status"])
        for k, v in TOY_FIXTURE.items()
    ]


# -- tree construction ----------------------------------------------------------

def test_toy_tree_shape(toy_tree):
    assert toy_tree.node_counts == {ENTITY: 3, ACTION: 5, STATUS: 6}
    assert len(toy_tree) == 1 + 3 + 5 + 6
    # size bound: at most 1 + 3 * |T| nodes for |T| templates
    assert len(toy_tree) <= 1 + 3 * 6


def test_lookup_levels(toy_tree):
    # (entity, action, status) names per key
    assert toy_tree.key_names["k5"][1] == "GET_req"
    assert toy_tree.key_names["k1"] == ("Session", "open", "started")
    assert toy_tree.key_names["k3"][2] == "none"
    assert "k99" not in toy_tree.key_names


def test_status_bound_to_one_key(toy_tree):
    # one path per key, so each status node is bound to exactly one key
    assert len(toy_tree.key_names) == 6
    assert len(set(toy_tree.key_names.values())) == 6


def test_path_names(toy_tree):
    # the parent names of the status sequence a key falls in; the action sequence's are the first of them
    assert toy_tree.key_parents["k1"] == ("Session", "open")
    assert toy_tree.key_parents["k1"] + (toy_tree.key_names["k1"][2],) == ("Session", "open", "started")


def test_rebuild_is_idempotent(toy_tree):
    assert build_tree(toy_triples()) == toy_tree
    assert build_tree(toy_triples()) == build_tree(toy_triples())


def test_duplicate_key_rejected():
    triples = toy_triples() + [TopicTriple("k1", "X", "y")]
    with pytest.raises(DuplicateKeyError):
        build_tree(triples)


def test_status_name_collision_disambiguated():
    triples = [
        TopicTriple("p1", "Disk", "write", "ok"),
        TopicTriple("p2", "Disk", "write", "ok"),
    ]
    tree = build_tree(triples)
    assert sorted(tree.key_names[k][2] for k in ("p1", "p2")) == ["ok", "ok~p2"]
    assert tree.node_counts[STATUS] == 2


def test_status_suffix_skips_a_name_that_is_taken(tmp_path):
    # k2's first rename, "x~k2", is k9's own status, so it is suffixed again
    triples = [TopicTriple("k9", "E", "A", "x~k2"), TopicTriple("k1", "E", "A", "x"), TopicTriple("k2", "E", "A", "x")]
    tree = build_tree(triples)
    assert tree.key_names == {"k9": ("E", "A", "x~k2"), "k1": ("E", "A", "x"), "k2": ("E", "A", "x~k2~k2")}
    tree.save(tmp_path / "tree.json")
    assert TopicTree.load(tmp_path / "tree.json") == tree


@pytest.mark.parametrize(
    "triples",
    [
        [TopicTriple("k1", "a/b", "c", "x"), TopicTriple("k2", "a", "b/c", "y")],
        [TopicTriple("k1", "x\\", "y/z", "p"), TopicTriple("k2", "x/y", "z", "q")],
    ],
    ids=["slash", "backslash"],
)
def test_action_ids_are_one_to_one_when_names_hold_slashes(tmp_path, triples):
    # "a/b > c" and "a > b/c" join to the same string but are two actions
    tree = build_tree(triples)
    for t in triples:
        assert tree.key_names[t.key] == (t.entity, t.action, t.status)
    assert tree.node_counts[ACTION] == 2
    assert len(set(tree.key_parents[t.key] for t in triples)) == 2
    tree.save(tmp_path / "tree.json")
    assert TopicTree.load(tmp_path / "tree.json").key_names == tree.key_names


# names drawn from a small alphabet, so entities, actions and statuses clash
# often, holding the signature separators, the escape char, "/", "~" and
# non-ASCII characters
_names = st.text(alphabet="a~|>\\/\u00e9\u540d", min_size=1, max_size=3)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(_names, _names, _names, _names), max_size=12, unique_by=lambda row: row[0]))
def test_tree_round_trip_keeps_one_key_per_path(tmp_path, rows):
    triples = [TopicTriple(*row) for row in rows]
    tree = build_tree(triples)
    path = tmp_path / "tree.json"
    tree.save(path)
    loaded = TopicTree.load(path)
    assert loaded == tree
    for name in ("key_names", "key_parents", "node_counts"):
        assert getattr(loaded, name) == getattr(tree, name), name
    assert len(loaded) == len(tree)
    # each key keeps its entity and action, and its status up to "~" suffixes
    for t in triples:
        entity, action, status = tree.key_names[t.key]
        assert (entity, action) == (t.entity, t.action) and status.startswith(t.status)
    assert len(set(tree.key_names.values())) == len(triples)
    assert tree.node_counts == {
        ENTITY: len({t.entity for t in triples}),
        ACTION: len({(t.entity, t.action) for t in triples}),
        STATUS: len(triples),
    }


def test_empty_entity_rejected():
    with pytest.raises(ValueError):
        TopicTriple("k1", "", "act")


def test_tree_round_trip(tmp_path, toy_tree):
    path = tmp_path / "tree.json"
    toy_tree.save(path)
    assert TopicTree.load(path) == toy_tree
    # one row per key and line, sorted by key
    rows = [[t.key, t.entity, t.action, t.status] for t in toy_triples()]
    assert json.loads(path.read_text()) == {"format_version": 2, "keys": rows}
    assert path.read_text().splitlines()[1:-1] == [json.dumps(row) + "," for row in rows[:-1]] + [json.dumps(rows[-1])]


def test_loaded_names_are_one_object_per_name(tmp_path, toy_tree):
    # decompose marks runs by name identity, and JSON decoding makes a new string per row
    toy_tree.save(tmp_path / "tree.json")
    names = TopicTree.load(tmp_path / "tree.json").key_names
    assert names["k1"][0] is names["k2"][0] and names["k1"][1] is names["k2"][1]
    assert names["k3"][2] is names["k4"][2] is names["k5"][2]


def test_tree_version_check(tmp_path, toy_tree):
    data = toy_tree.to_json()
    data["format_version"] = 99
    with pytest.raises(TreeError):
        TopicTree.from_json(data)
    with pytest.raises(TreeError, match="^unsupported tree format version: None"):
        TopicTree.from_json([])
    # a format-1 file (a node graph linked by id) must be rebuilt
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"format_version": 1, "nodes": [{"node_id": "root", "level": "root", "name": "root"}]}))
    with pytest.raises(TreeError) as info:
        TopicTree.load(path)
    assert str(info.value) == f"{path}: unsupported tree format version: 1; re-run hierlog hierarchy build"
    path.write_text(DEEP_JSON)  # a decode error, not a RecursionError
    with pytest.raises(TreeError) as info:
        TopicTree.load(path)
    assert str(info.value) == f"cannot load tree from {path}: {DEEP_JSON_FAULT}"


def _set(row, index, value):
    return lambda rows: rows[row].__setitem__(index, value)


ROW_SHAPE = "a row is [key, entity, action, status], four non-empty strings"


@pytest.mark.parametrize(
    "mutate, fault",
    [
        (_set(1, 0, "k1"), "row 1: key 'k1' appears twice"),
        (_set(1, 3, "started"), "row 1: key 'k2' has the path 'Session > open > started' of key 'k1'"),
        (_set(2, 1, ""), f"row 2: {ROW_SHAPE}"),
        (_set(2, 1, ["Auth"]), f"row 2: {ROW_SHAPE}"),
        (lambda rows: rows[2].pop(), f"row 2: {ROW_SHAPE}"),
        (lambda rows: rows[2].append("extra"), f"row 2: {ROW_SHAPE}"),
    ],
    ids=["key-twice", "duplicate-status-name", "empty-name", "list-parent", "short-row", "long-row"],
)
def test_tree_load_rejects_a_malformed_tree(tmp_path, toy_tree, mutate, fault):
    data = toy_tree.to_json()
    mutate(data["keys"])
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(data))
    with pytest.raises(TreeError) as info:
        TopicTree.load(path)
    assert str(info.value) == f"{path}: {fault}"


@pytest.mark.parametrize(
    "rows, fault",
    [
        (None, "'keys' must be a list of [key, entity, action, status] rows"),
        ([{"key": "k1", "entity": "E", "action": "A", "status": "s"}], f"row 0: {ROW_SHAPE}"),
        ([[7, "E", "A", "s"]], f"row 0: {ROW_SHAPE}"),
        ([["k1", "E", "A", "s"]] * 2, "row 1: key 'k1' appears twice"),
    ],
    ids=["no-list", "not-lists", "id-not-string", "duplicate-id"],
)
def test_tree_from_json_rejects_malformed_node_rows(rows, fault):
    with pytest.raises(TreeError, match=f"^{re.escape(fault)}$"):
        TopicTree.from_json({"format_version": 2, "keys": rows})


# -- extractors -----------------------------------------------------------------

def test_fixture_extractor(toy_cat):
    triples = extract_topics(toy_cat, FixtureExtractor(TOY_FIXTURE))
    assert {t.key: (t.entity, t.action, t.status) for t in triples}["k1"] == (
        "Session", "open", "started"
    )


def test_fixture_extractor_missing_key(toy_cat):
    partial = {k: v for k, v in TOY_FIXTURE.items() if k != "k4"}
    with pytest.raises(ExtractionError) as err:
        extract_topics(toy_cat, FixtureExtractor(partial))
    assert "k4" in err.value.failed_keys


def test_lexicon_extractor():
    cat = TemplateCatalog(
        [
            LogTemplate("k1", "Session open started"),
            LogTemplate("k2", "Disk write failed"),
        ]
    )
    ext = LexiconExtractor(entity_terms={"session": "Session", "disk": "Disk"})
    triples = {t.key: t for t in ext.extract(cat)}
    assert triples["k1"].entity == "Session"
    assert triples["k1"].action == "open"
    assert triples["k1"].status == "started"
    assert triples["k2"].entity == "Disk"
    assert triples["k2"].action == "write"
    assert triples["k2"].status == "failed"


def test_lexicon_extractor_ignores_punctuation_only_tokens():
    # "..." stripped to an empty word, which became an empty entity, or hid a trailing status
    cat = TemplateCatalog([LogTemplate("k1", "... connect started"), LogTemplate("k2", "Disk write ok .")])
    triples = LexiconExtractor().extract(cat)
    assert [(t.entity, t.action, t.status) for t in triples] == [("System", "connect", "started"),
                                                                  ("Disk", "write", "ok")]


def test_llm_extractor(toy_cat):
    provider = MockProvider(extract_map=TOY_FIXTURE)
    # mock routes on the KEY header of the extract prompt
    triples = {t.key: t for t in LlmExtractor(provider).extract(toy_cat)}
    assert triples["k5"].action == "GET_req"
    assert provider.calls == 6


def test_llm_extractor_collects_failures(toy_cat):
    provider = MockProvider(extract_map={"k1": TOY_FIXTURE["k1"]})
    with pytest.raises(ExtractionError) as err:
        LlmExtractor(provider).extract(toy_cat)
    assert set(err.value.failed_keys) == {"k2", "k3", "k4", "k5", "k6"}


def test_llm_extractor_lets_an_unexpected_error_through(toy_cat):
    class Broken:
        calls = 0

        def complete(self, request):
            raise RuntimeError("a bug, not a failed extraction")

    with pytest.raises(RuntimeError, match="a bug"):
        LlmExtractor(Broken()).extract(toy_cat)


# -- refinement -----------------------------------------------------------------

def test_refine_case_folding_majority():
    triples = [
        TopicTriple("k1", "session", "Open"),
        TopicTriple("k2", "Session", "open"),
        TopicTriple("k3", "Session", "open"),
    ]
    refined = refine_topics(triples)
    assert {t.entity for t in refined} == {"Session"}  # majority spelling
    assert {t.action for t in refined} == {"open"}


def test_refine_tie_breaks_lexicographically():
    triples = [TopicTriple("k1", "Auth", "go"), TopicTriple("k2", "auth", "go")]
    refined = refine_topics(triples)
    assert {t.entity for t in refined} == {"Auth"}  # "Auth" < "auth"


def test_refine_action_scope():
    triples = [
        TopicTriple("k1", "Session", "open"),
        TopicTriple("k2", "session", "Open"),
        TopicTriple("k3", "Session", "Open"),
        TopicTriple("k4", "Disk", "open"),
    ]
    by_key = {t.key: t for t in refine_topics(triples)}
    assert {t.entity for t in by_key.values()} == {"Session", "Disk"}
    assert by_key["k1"].action == "Open"  # Session's actions merge into their most frequent spelling
    # actions pool per entity: Disk/open unaffected by Session/Open counts
    assert by_key["k4"].action == "open"


def test_refine_leaves_statuses_untouched():
    triples = [
        TopicTriple("k1", "A", "x", "OK"),
        TopicTriple("k2", "A", "x", "ok"),
    ]
    assert {t.status for t in refine_topics(triples)} == {"OK", "ok"}


def test_triples_round_trip(tmp_path):
    path = tmp_path / "triples.jsonl"
    save_triples(toy_triples(), path)
    assert load_triples(path) == toy_triples()
