"""Topic extraction, refinement, and tree construction."""

import json
import re

import pytest

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


def toy_triples():
    return [
        TopicTriple(k, v["entity"], v["action"], v["status"])
        for k, v in TOY_FIXTURE.items()
    ]


# -- tree construction ----------------------------------------------------------

def test_toy_tree_shape(toy_tree):
    levels = {}
    for node in toy_tree.nodes.values():
        levels[node.level] = levels.get(node.level, 0) + 1
    assert levels[ENTITY] == 3
    assert levels[ACTION] == 5
    assert levels[STATUS] == 6
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
    assert len(toy_tree.key_index) == 6
    for key, node_id in toy_tree.key_index.items():
        assert toy_tree.nodes[node_id].key == key


def test_path_names(toy_tree):
    # parent paths of the action and status sequences a key falls in, root first
    assert toy_tree.key_paths["k1"] == (("root", "Session"), ("root", "Session", "open"))
    assert toy_tree.key_paths["k1"][1] + (toy_tree.key_names["k1"][2],) == ("root", "Session", "open", "started")


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
    names = sorted(tree.nodes[tree.key_index[k]].name for k in ("p1", "p2"))
    assert names == ["ok", "ok~p2"]
    assert len(tree.key_index) == 2


@pytest.mark.parametrize(
    "triples",
    [
        [TopicTriple("k1", "a/b", "c", "x"), TopicTriple("k2", "a", "b/c", "y")],
        [TopicTriple("k1", "x\\", "y/z", "p"), TopicTriple("k2", "x/y", "z", "q")],
    ],
    ids=["slash", "backslash"],
)
def test_action_ids_are_one_to_one_when_names_hold_slashes(tmp_path, triples):
    tree = build_tree(triples)
    for t in triples:
        assert tree.key_names[t.key] == (t.entity, t.action, t.status)
    assert len([n for n in tree.nodes.values() if n.level == ACTION]) == 2
    tree.save(tmp_path / "tree.json")
    assert TopicTree.load(tmp_path / "tree.json").key_names == tree.key_names


def test_action_ids_of_plain_names_are_unchanged(toy_tree):
    assert {n.node_id for n in toy_tree.nodes.values() if n.level == ACTION} == {
        f"a:{t.entity}/{t.action}" for t in toy_triples()
    }


def test_empty_entity_rejected():
    with pytest.raises(ValueError):
        TopicTriple("k1", "", "act")


def test_tree_round_trip(tmp_path, toy_tree):
    path = tmp_path / "tree.json"
    toy_tree.save(path)
    assert TopicTree.load(path) == toy_tree


def test_tree_version_check(tmp_path, toy_tree):
    data = toy_tree.to_json()
    data["format_version"] = 99
    with pytest.raises(TreeError):
        TopicTree.from_json(data)


def _set(node_id, **values):
    return lambda nodes: nodes[node_id].update(values)


@pytest.mark.parametrize(
    "mutate, fault",
    [
        (_set("s:k1", parent_id="e:Session"), "node 's:k1': its parent 'e:Session' is of level 'entity', not 'action'"),
        (_set("a:Auth/start", level="entity"),
         "node 'a:Auth/start': its parent 'e:Auth' is of level 'entity', not 'root'"),
        (_set("e:Comm", level="topic"), "node 'e:Comm': level 'topic' is not one of root, entity, action, status"),
        (_set("e:Comm", parent_id="e:Ghost"), "node 'e:Comm': parent 'e:Ghost' is not in the tree"),
        (_set("root", parent_id="e:Comm"),
         "node 'root': only the node 'root' is of level 'root', and it has no parent and no key"),
        (_set("a:Auth/succd", name="start"), "node 'a:Auth/succd': name 'start' appears twice under 'e:Auth'"),
        (_set("s:k2", name="started"), "node 's:k2': name 'started' appears twice under 'a:Session/open'"),
        (_set("s:k2", key="k1"), "node 's:k2': key 'k1' maps to a second status node"),
        (_set("s:k2", key=None), "node 's:k2': status nodes need a key, and other nodes must have none"),
        (_set("a:Auth/start", key="k9"),
         "node 'a:Auth/start': status nodes need a key, and other nodes must have none"),
        (_set("e:Comm", name=""), "node 'e:Comm': level and name must be strings, name non-empty"),
        (_set("e:Comm", parent_id=["root"]), "node 'e:Comm': level and name must be strings, name non-empty"),
        (_set("e:Comm", level="root"), "node 'e:Comm': only the node 'root' is of level 'root'"),
        (lambda nodes: nodes.pop("root"), "the tree has no node 'root'"),
    ],
    ids=["status-under-entity", "entity-under-entity", "unknown-level", "missing-parent", "root-with-parent",
         "duplicate-action-name", "duplicate-status-name", "key-twice", "status-without-key", "key-on-action",
         "empty-name", "list-parent", "second-root", "no-root"],
)
def test_tree_load_rejects_a_malformed_tree(tmp_path, toy_tree, mutate, fault):
    data = toy_tree.to_json()
    nodes = {row["node_id"]: row for row in data["nodes"]}
    mutate(nodes)
    data["nodes"] = list(nodes.values())
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(data))
    with pytest.raises(TreeError) as info:
        TopicTree.load(path)
    assert str(info.value).startswith(f"{path}: {fault}")


@pytest.mark.parametrize(
    "rows, fault",
    [
        (None, "'nodes' must be a list of objects"),
        ([["root"]], "'nodes' must be a list of objects"),
        ([{"node_id": 7}], "node 0: 'node_id' must be a string"),
        ([{"node_id": "root", "level": "root", "name": "root", "parent_id": None}] * 2, "node 'root' appears twice"),
    ],
    ids=["no-list", "not-objects", "id-not-string", "duplicate-id"],
)
def test_tree_from_json_rejects_malformed_node_rows(rows, fault):
    with pytest.raises(TreeError, match=f"^{re.escape(fault)}"):
        TopicTree.from_json({"format_version": 1, "nodes": rows})


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
