"""Topic extraction and the three-level topic tree.

Each template yields an (entity, action, status) triple. Triples are
refined for pool consistency and assembled into a rooted tree:
root -> entities -> actions -> statuses, with every status node bound
to exactly one template key.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Optional

from .errors import DuplicateKeyError, ExtractionError, JsonLinesError, TreeError
from .ingest import WILDCARD, TemplateCatalog, read_jsonl
from . import prompts as prompt_assets

NONE_STATUS = "none"

ROOT = "root"
ENTITY = "entity"
ACTION = "action"
STATUS = "status"
LEVELS = (ENTITY, ACTION, STATUS)

# Signature encoding: escaped parent path names joined by ">", then "|",
# then the escaped node names joined by ">".
SIG_PARENT_SEP = "|"
SIG_NODE_SEP = ">"


def escape_name(name: str) -> str:
    """A node name with the signature separators and the escape char escaped."""
    return name.replace("\\", "\\\\").replace("|", "\\|").replace(">", "\\>")


@dataclass(frozen=True)
class TopicTriple:
    key: str
    entity: str
    action: str
    status: str = NONE_STATUS

    def __post_init__(self):
        if not self.entity or not self.action:
            raise ValueError(f"triple for {self.key!r} has empty entity or action")


@dataclass(frozen=True)
class TreeNode:
    node_id: str
    level: str
    name: str
    parent_id: Optional[str]
    key: Optional[str] = None  # template key, status nodes only


TREE_FORMAT_VERSION = 1


class TopicTree:
    """Immutable rooted three-level hierarchy with O(1) key lookup."""

    def __init__(self, nodes: dict[str, TreeNode], key_index: dict[str, str]):
        self.nodes = nodes
        self.key_index = key_index
        # key -> (entity, action, status) names, so per-key lookup is one dict hit;
        # names are unique per parent (`from_json` checks it), so identity
        # comparison of these interned strings is valid for run detection, and
        # a transition pair loaded from a KB is the very same pair of objects
        self.key_names: dict[str, tuple[str, str, str]] = {}
        # precomputed parent paths per key: (root,) / (root, entity) / (root, entity, action)
        self.key_paths: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
        root_name = nodes[ROOT].name
        self.root_path: tuple[str, ...] = (root_name,)
        self.root_prefix = escape_name(root_name)
        e_paths: dict[str, tuple[str, ...]] = {}
        a_paths: dict[str, tuple[str, ...]] = {}
        for key, sid in key_index.items():
            status = nodes[sid]
            action = nodes[status.parent_id]
            entity = nodes[action.parent_id]
            names = self.key_names[key] = tuple(map(sys.intern, (entity.name, action.name, status.name)))
            e_path = e_paths.setdefault(entity.node_id, self.root_path + names[:1])
            a_path = a_paths.setdefault(action.node_id, e_path + names[1:2])
            self.key_paths[key] = (e_path, a_path)
        # the signature encoding, built once: node name -> escaped name, and the
        # parent paths as escaped names joined by SIG_NODE_SEP (Seq.parent_key)
        self.escaped = {name: escape_name(name) for name in set(chain.from_iterable(self.key_names.values()))}
        paths = set(chain.from_iterable(self.key_paths.values()))
        prefix = {path: SIG_NODE_SEP.join(map(escape_name, path)) for path in paths}
        self.key_prefixes: dict[str, tuple[str, ...]] = {
            key: (prefix[e_path], prefix[a_path]) for key, (e_path, a_path) in self.key_paths.items()
        }

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other) -> bool:
        return isinstance(other, TopicTree) and self.nodes == other.nodes

    def to_json(self) -> dict:
        return {
            "format_version": TREE_FORMAT_VERSION,
            "nodes": [
                {
                    "node_id": n.node_id,
                    "level": n.level,
                    "name": n.name,
                    "parent_id": n.parent_id,
                    "key": n.key,
                }
                for n in sorted(self.nodes.values(), key=lambda n: n.node_id)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TopicTree":
        """The tree that `to_json` wrote, checked by `_tree_nodes`."""
        version = data.get("format_version") if isinstance(data, dict) else None
        if version != TREE_FORMAT_VERSION:
            raise TreeError(f"unsupported tree format version: {version}")
        nodes = _tree_nodes(data.get("nodes"))
        key_index = {n.key: n.node_id for n in nodes.values() if n.key is not None}
        return cls(nodes, key_index)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "TopicTree":
        try:
            data = json.loads(Path(path).read_text())
        except (json.JSONDecodeError, OSError) as exc:
            raise TreeError(f"cannot load tree from {path}: {exc}") from exc
        try:
            return cls.from_json(data)
        except TreeError as exc:
            raise TreeError(f"{path}: {exc}") from exc


_PARENT_LEVEL = {ROOT: None, ENTITY: ROOT, ACTION: ENTITY, STATUS: ACTION}


def _tree_nodes(rows) -> dict[str, TreeNode]:
    """The nodes of a saved tree by id; a fault raises `TreeError` naming the node.

    Decompose marks runs by the identity of interned names, so the levels
    must nest root -> entity -> action -> status under the one root node,
    names must be unique under each parent, and each key must map to
    exactly one status node.
    """
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise TreeError("'nodes' must be a list of objects")
    nodes: dict[str, TreeNode] = {}
    for n, row in enumerate(rows):
        node_id, level, name = row.get("node_id"), row.get("level"), row.get("name")
        parent_id, key = row.get("parent_id"), row.get("key")
        if type(node_id) is not str:
            raise TreeError(f"node {n}: 'node_id' must be a string")
        if not (type(level) is type(name) is str and name and {type(parent_id), type(key)} <= {str, type(None)}):
            raise TreeError(f"node {node_id!r}: level and name must be strings, name non-empty, "
                            "and parent_id and key strings or null")
        if level not in _PARENT_LEVEL:
            raise TreeError(f"node {node_id!r}: level {level!r} is not one of {', '.join(_PARENT_LEVEL)}")
        if ROOT in (node_id, level) and (node_id, level, parent_id, key) != (ROOT, ROOT, None, None):
            raise TreeError(f"node {node_id!r}: only the node {ROOT!r} is of level {ROOT!r}, "
                            "and it has no parent and no key")
        if node_id in nodes:
            raise TreeError(f"node {node_id!r} appears twice")
        nodes[node_id] = TreeNode(node_id, level, name, parent_id, key)
    if ROOT not in nodes:
        raise TreeError(f"the tree has no node {ROOT!r}")
    names: set[tuple[str, str]] = set()  # (parent_id, name)
    keys: set[str] = set()
    for node in nodes.values():
        if node.level == ROOT:
            continue
        parent = nodes.get(node.parent_id)
        if parent is None:
            fault = f"parent {node.parent_id!r} is not in the tree"
        elif parent.level != _PARENT_LEVEL[node.level]:
            fault = f"its parent {parent.node_id!r} is of level {parent.level!r}, not {_PARENT_LEVEL[node.level]!r}"
        elif (node.parent_id, node.name) in names:
            fault = f"name {node.name!r} appears twice under {node.parent_id!r}"
        elif (node.level == STATUS) != (node.key is not None):
            fault = "status nodes need a key, and other nodes must have none"
        elif node.key in keys:
            fault = f"key {node.key!r} maps to a second status node"
        else:
            fault = None
        if fault:
            raise TreeError(f"node {node.node_id!r}: {fault}")
        names.add((node.parent_id, node.name))
        if node.key is not None:
            keys.add(node.key)
    return nodes


def build_tree(triples: list[TopicTriple]) -> TopicTree:
    """Assemble the tree from refined triples, one status node per key.

    Hash-indexed construction, linear in the number of triples. When two
    keys under the same action share a status name, the later node keeps
    its own identity under a key-suffixed name (status <-> key stays
    one-to-one).
    """
    nodes: dict[str, TreeNode] = {ROOT: TreeNode(ROOT, ROOT, ROOT, None)}
    key_index: dict[str, str] = {}
    name_index: dict[tuple[str, str, str], str] = {}  # (level, parent_id, name) -> node_id
    seen_keys: set[str] = set()

    for triple in triples:
        if triple.key in seen_keys:
            raise DuplicateKeyError(triple.key)
        seen_keys.add(triple.key)

        ekey = (ENTITY, ROOT, triple.entity)
        entity_id = name_index.get(ekey)
        if entity_id is None:
            entity_id = f"e:{triple.entity}"
            nodes[entity_id] = TreeNode(entity_id, ENTITY, triple.entity, ROOT)
            name_index[ekey] = entity_id

        akey = (ACTION, entity_id, triple.action)
        action_id = name_index.get(akey)
        if action_id is None:
            action_id = f"a:{triple.entity}/{triple.action}"
            nodes[action_id] = TreeNode(action_id, ACTION, triple.action, entity_id)
            name_index[akey] = action_id

        status_name = triple.status or NONE_STATUS
        if (STATUS, action_id, status_name) in name_index:
            status_name = f"{status_name}~{triple.key}"
        status_id = f"s:{triple.key}"
        nodes[status_id] = TreeNode(status_id, STATUS, status_name, action_id, key=triple.key)
        name_index[(STATUS, action_id, status_name)] = status_id
        key_index[triple.key] = status_id

    return TopicTree(nodes, key_index)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

@dataclass
class ExtractorConfig:
    kind: str  # fixture | lexicon | llm
    fixture_path: Optional[str] = None
    lexicon_path: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("fixture", "lexicon", "llm"):
            raise ValueError(f"unknown extractor kind: {self.kind!r}")


class FixtureExtractor:
    """Exact key -> triple map, for tests and golden runs."""

    def __init__(self, mapping: dict[str, dict]):
        self.mapping = {
            str(k): TopicTriple(
                key=str(k),
                entity=v["entity"],
                action=v["action"],
                status=v.get("status") or NONE_STATUS,
            )
            for k, v in mapping.items()
        }

    @classmethod
    def from_file(cls, path: str | Path) -> "FixtureExtractor":
        return cls(json.loads(Path(path).read_text()))

    def extract(self, catalog: TemplateCatalog) -> list[TopicTriple]:
        missing = [k for k in catalog.keys() if k not in self.mapping]
        if missing:
            raise ExtractionError(missing, "no fixture triple")
        return [self.mapping[k] for k in catalog.keys()]


DEFAULT_ACTION_VERBS = {
    "open", "close", "start", "starts", "started", "stop", "create", "delete",
    "read", "write", "send", "receive", "received", "connect", "disconnect",
    "request", "respond", "allocate", "release", "verify", "authenticate",
    "load", "save", "update", "get", "put", "post",
}

DEFAULT_STATUS_WORDS = {
    "started", "successful", "success", "succeeded", "failed", "failure",
    "done", "complete", "completed", "ok", "error", "timeout", "begin",
    "finished", "pending", "aborted", "rejected",
}


class LexiconExtractor:
    """Deterministic rule-based extraction.

    Entity: first token found in the entity lexicon (or the first
    non-verb, non-wildcard token). Action: first token in the verb list.
    Status: trailing token when it is a known status word.
    """

    def __init__(
        self,
        entity_terms: Optional[dict[str, str]] = None,
        action_verbs: Optional[set[str]] = None,
        status_words: Optional[set[str]] = None,
    ):
        self.entity_terms = {k.lower(): v for k, v in (entity_terms or {}).items()}
        self.action_verbs = {v.lower() for v in (action_verbs or DEFAULT_ACTION_VERBS)}
        self.status_words = {s.lower() for s in (status_words or DEFAULT_STATUS_WORDS)}

    @classmethod
    def from_file(cls, path: str | Path) -> "LexiconExtractor":
        cfg = json.loads(Path(path).read_text())
        return cls(
            entity_terms=cfg.get("entity_terms"),
            action_verbs=set(cfg["action_verbs"]) if "action_verbs" in cfg else None,
            status_words=set(cfg["status_words"]) if "status_words" in cfg else None,
        )

    def extract(self, catalog: TemplateCatalog) -> list[TopicTriple]:
        return [self._extract_one(t.key, t.text) for t in catalog.templates()]

    def _extract_one(self, key: str, text: str) -> TopicTriple:
        tokens = [t for t in text.split() if t != WILDCARD]
        words = [t.strip(".,:;!?()[]").lower() for t in tokens]

        entity = None
        for w in words:
            if w in self.entity_terms:
                entity = self.entity_terms[w]
                break
        action = next((w for w in words if w in self.action_verbs), None)
        if entity is None:
            entity = next(
                (w.capitalize() for w in words if w not in self.action_verbs and w not in self.status_words),
                "System",
            )
        if action is None:
            action = words[0] if words else "event"

        status = NONE_STATUS
        if words and words[-1] in self.status_words and words[-1] != action:
            status = words[-1]
        return TopicTriple(key=key, entity=entity, action=action, status=status)


class LlmExtractor:
    """In-context extraction via a chat provider.

    One call per template; entity is asked first, the action conditioned
    on it, the status conditioned on the action (the prompt enforces the
    ordering). Responses must carry ENTITY/ACTION/STATUS lines.
    """

    def __init__(self, provider):
        self.provider = provider

    def extract(self, catalog: TemplateCatalog) -> list[TopicTriple]:
        template_text = prompt_assets.load("extract")
        triples = []
        failed = []
        for t in catalog.templates():
            request = template_text.format(template_text=t.text, key=t.key)
            try:
                response = self.provider.complete(request)
                triples.append(self._parse(t.key, response))
            except Exception:
                failed.append(t.key)
        if failed:
            raise ExtractionError(failed)
        return triples

    @staticmethod
    def _parse(key: str, response: str) -> TopicTriple:
        fields = {}
        for line in response.splitlines():
            if ":" in line:
                name, _, value = line.partition(":")
                fields[name.strip().upper()] = value.strip()
        return TopicTriple(
            key=key,
            entity=fields["ENTITY"],
            action=fields["ACTION"],
            status=fields.get("STATUS") or NONE_STATUS,
        )


def make_extractor(config: ExtractorConfig, provider=None):
    if config.kind == "fixture":
        return FixtureExtractor.from_file(config.fixture_path)
    if config.kind == "lexicon":
        if config.lexicon_path:
            return LexiconExtractor.from_file(config.lexicon_path)
        return LexiconExtractor()
    if provider is None:
        raise ValueError("llm extractor requires a provider")
    return LlmExtractor(provider)


def extract_topics(catalog: TemplateCatalog, extractor) -> list[TopicTriple]:
    if len(catalog) == 0:
        return []
    return extractor.extract(catalog)


def refine_topics(
    triples: list[TopicTriple],
    synonyms: Optional[dict[str, str]] = None,
) -> list[TopicTriple]:
    """Canonicalize entity and action names against the extracted pools.

    Names that agree up to case folding (or via the synonym table) merge
    into one canonical spelling: the most frequent original, ties broken
    lexicographically. Entities are pooled globally, actions per entity;
    statuses are left untouched.
    """
    if not triples:
        return []
    synonyms = {k.lower(): v for k, v in (synonyms or {}).items()}

    def fold(name: str) -> str:
        return synonyms.get(name.lower(), name).lower()

    entity_pool: dict[str, Counter] = {}
    for t in triples:
        entity_pool.setdefault(fold(t.entity), Counter())[synonyms.get(t.entity.lower(), t.entity)] += 1
    entity_canon = {k: _canonical(c) for k, c in entity_pool.items()}

    action_pool: dict[tuple[str, str], Counter] = {}
    for t in triples:
        ekey = fold(t.entity)
        action_pool.setdefault((ekey, fold(t.action)), Counter())[
            synonyms.get(t.action.lower(), t.action)
        ] += 1
    action_canon = {k: _canonical(c) for k, c in action_pool.items()}

    refined = []
    for t in triples:
        ekey = fold(t.entity)
        refined.append(
            TopicTriple(
                key=t.key,
                entity=entity_canon[ekey],
                action=action_canon[(ekey, fold(t.action))],
                status=t.status,
            )
        )
    return refined


def _canonical(counter: Counter) -> str:
    top = max(counter.values())
    return min(name for name, n in counter.items() if n == top)


def save_triples(triples: list[TopicTriple], path: str | Path) -> None:
    with Path(path).open("w") as fh:
        for t in triples:
            fh.write(
                json.dumps({"key": t.key, "entity": t.entity, "action": t.action, "status": t.status})
                + "\n"
            )


def load_triples(path: str | Path) -> list[TopicTriple]:
    """The triples of a file that `save_triples` wrote; a null or absent status is "none"."""
    triples = []
    error = functools.partial(JsonLinesError, path)
    for lineno, row in read_jsonl(path, error, ("key", "entity", "action")):
        names = {"entity": row["entity"], "action": row["action"], "status": row.get("status") or NONE_STATUS}
        for level, name in names.items():
            if not isinstance(name, str) or not name:
                raise error(lineno, f"field {level!r} must be a non-empty string")
        triples.append(TopicTriple(str(row["key"]), **names))
    return triples
