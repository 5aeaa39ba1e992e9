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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .errors import ConfigError, DuplicateKeyError, ExtractionError, LineParseError, ProviderError, TreeError
from .ingest import WILDCARD, TemplateCatalog, _text_lines, read_jsonl
from . import prompts as prompt_assets

NONE_STATUS = "none"

ROOT = "root"
ENTITY = "entity"
ACTION = "action"
STATUS = "status"
LEVELS = (ENTITY, ACTION, STATUS)
LEVEL_INITIAL = {ENTITY: "E", ACTION: "A", STATUS: "S"}  # a level's letter in presets, reports and mock summaries

# a pattern is a run's parent path names below the root, this many per level, then its node names
PARENT_DEPTH = {ENTITY: 0, ACTION: 1, STATUS: 2}

# Signature encoding: escaped parent path names joined by ">", then "|",
# then the escaped node names joined by ">".
SIG_PARENT_SEP = "|"
SIG_NODE_SEP = ">"


@functools.lru_cache(maxsize=1 << 16)  # a report writes the few names of its tree thousands of times
def escape_name(name: str) -> str:
    """A node name with the signature separators and the escape char escaped."""
    return name.replace("\\", "\\\\").replace("|", "\\|").replace(">", "\\>")


def signature(level: str, pattern: Sequence[str]) -> str:
    """A pattern's text in reports and logs, injective over (parent path names, node names) of a level."""
    depth = PARENT_DEPTH[level]
    path = SIG_NODE_SEP.join(map(escape_name, (ROOT, *pattern[:depth])))
    return path + SIG_PARENT_SEP + SIG_NODE_SEP.join(map(escape_name, pattern[depth:]))


@dataclass(frozen=True)
class TopicTriple:
    key: str
    entity: str
    action: str
    status: str = NONE_STATUS

    def __post_init__(self):
        if not self.entity or not self.action:
            raise ValueError(f"triple for {self.key!r} has empty entity or action")


TREE_FORMAT_VERSION = 2


class TopicTree:
    """Immutable three-level hierarchy: each template key's (entity, action, status) path under the root.

    The path is the tree: entity nodes are the distinct entities, action
    nodes the distinct (entity, action) pairs, and status nodes the keys,
    since each path names exactly one key.
    """

    def __init__(self, key_names: dict[str, tuple[str, str, str]]):
        # key -> (entity, action, status) names, so per-key lookup is one dict hit;
        # names are unique per parent (one path per key), so identity comparison
        # of these interned strings is valid for run detection, and a transition
        # pair derived from a loaded KB holds the very same objects
        self.key_names = {key: tuple(map(sys.intern, names)) for key, names in key_names.items()}
        # key -> (entity, action): a status pattern's first names, whose first PARENT_DEPTH[level] are a run's parent
        self.key_parents = {key: names[:2] for key, names in self.key_names.items()}
        actions = set(self.key_parents.values())
        self.node_counts = {ENTITY: len({e for e, _ in actions}), ACTION: len(actions), STATUS: len(self.key_names)}

    def __len__(self) -> int:
        """The node count, the root included."""
        return 1 + sum(self.node_counts.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, TopicTree) and self.key_names == other.key_names

    def to_json(self) -> dict:
        rows = [[key, *names] for key, names in sorted(self.key_names.items())]
        return {"format_version": TREE_FORMAT_VERSION, "keys": rows}

    @classmethod
    def from_json(cls, data: dict) -> "TopicTree":
        """The tree that `to_json` wrote; a fault raises `TreeError` naming the row.

        Each row is four non-empty strings, and each key and each path
        appears once; the format cannot express any other fault.
        """
        version = data.get("format_version") if isinstance(data, dict) else None
        if version != TREE_FORMAT_VERSION:
            raise TreeError(f"unsupported tree format version: {version}; re-run hierlog hierarchy build")
        rows = data.get("keys")
        if not isinstance(rows, list):
            raise TreeError("'keys' must be a list of [key, entity, action, status] rows")
        key_names: dict[str, tuple[str, str, str]] = {}
        owners: dict[tuple[str, str, str], str] = {}  # path -> its key
        for n, row in enumerate(rows):
            if not (type(row) is list and len(row) == 4 and all(type(name) is str and name for name in row)):
                raise TreeError(f"row {n}: a row is [key, entity, action, status], four non-empty strings")
            key, *names = row
            path = tuple(names)
            if key in key_names:
                raise TreeError(f"row {n}: key {key!r} appears twice")
            if path in owners:
                raise TreeError(f"row {n}: key {key!r} has the path {' > '.join(path)!r} of key {owners[path]!r}")
            key_names[key] = path
            owners[path] = key
        return cls(key_names)

    def save(self, path: str | Path) -> None:
        """One row per line, sorted by key."""
        rows = ",\n".join(map(json.dumps, self.to_json()["keys"]))
        Path(path).write_text(f'{{"format_version": {TREE_FORMAT_VERSION}, "keys": [\n{rows}\n]}}\n')

    @classmethod
    def load(cls, path: str | Path) -> "TopicTree":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, RecursionError, UnicodeDecodeError, OSError) as exc:
            raise TreeError(f"cannot load tree from {path}: {exc}") from exc
        try:
            return cls.from_json(data)
        except TreeError as exc:
            raise TreeError(f"{path}: {exc}") from exc


def build_tree(triples: list[TopicTriple]) -> TopicTree:
    """Assemble the tree from refined triples, one path per key.

    When a key's path is taken, its status name gets a "~<key>" suffix,
    repeated while the path is still taken, so path <-> key stays
    one-to-one.
    """
    key_names: dict[str, tuple[str, str, str]] = {}
    taken: set[tuple[str, str, str]] = set()
    for t in triples:
        if t.key in key_names:
            raise DuplicateKeyError(t.key)
        path = (t.entity, t.action, t.status or NONE_STATUS)
        while path in taken:
            path = (t.entity, t.action, f"{path[2]}~{t.key}")
        taken.add(path)
        key_names[t.key] = path
    return TopicTree(key_names)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

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
        mapping = _read_json(path)
        if not isinstance(mapping, dict):
            raise ValueError(f"{path}: a fixture is a JSON object mapping each template key to its triple")
        for key, t in mapping.items():
            if not isinstance(t, dict) or not all(
                type(name) is str and name for name in (t.get(ENTITY), t.get(ACTION), t.get(STATUS) or NONE_STATUS)
            ):
                raise ValueError(f"{path}: key {key!r}: a triple needs non-empty strings 'entity' and 'action', "
                                 "and 'status' if given")
        return cls(mapping)

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
        cfg = _read_json(path)
        if not isinstance(cfg, dict):
            raise ValueError(f"{path}: a lexicon is a JSON object")
        for name, shape in (("entity_terms", dict), ("action_verbs", list), ("status_words", list)):
            value = cfg.get(name, shape())
            words = value.values() if isinstance(value, dict) else value
            if not isinstance(value, shape) or not all(type(w) is str for w in words):
                kind = "an object" if shape is dict else "a list"
                raise ValueError(f"{path}: field {name!r} must be {kind} of strings")
        return cls(
            entity_terms=cfg.get("entity_terms"),
            action_verbs=set(cfg["action_verbs"]) if "action_verbs" in cfg else None,
            status_words=set(cfg["status_words"]) if "status_words" in cfg else None,
        )

    def extract(self, catalog: TemplateCatalog) -> list[TopicTriple]:
        return [self._extract_one(t.key, t.text) for t in catalog.templates()]

    def _extract_one(self, key: str, text: str) -> TopicTriple:
        tokens = [t for t in text.split() if t != WILDCARD]
        words = [w for w in (t.strip(".,:;!?()[]").lower() for t in tokens) if w]  # "..." strips to no word

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
            except (ProviderError, KeyError, ValueError):  # no answer, or one without ENTITY and ACTION
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


def _read_json(path: str | Path):
    try:  # read as UTF-8 whatever the locale; a bad byte names its line
        return json.loads("".join(line for _, line in _text_lines(path)))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}") from exc
    except RecursionError as exc:  # nested deeper than the decoder goes
        raise ValueError(f"{path}: invalid JSON: {exc}") from None


EXTRACTOR_KINDS = ("fixture", "lexicon", "llm")


def check_extractor(kind: str, fixture_path: Optional[str], provider) -> None:
    """Raise ConfigError unless the settings name an extractor that `make_extractor` can build."""
    if kind not in EXTRACTOR_KINDS:
        raise ConfigError(f"unknown extractor {kind!r}; use {', '.join(EXTRACTOR_KINDS[:-1])} or {EXTRACTOR_KINDS[-1]}")
    if kind == "fixture" and not fixture_path:
        raise ConfigError("the fixture extractor needs a fixture file; give --fixture or [hierarchy] fixture")
    if kind == "llm" and provider is None:
        raise ConfigError("the llm extractor needs a provider; give --provider-kind or a [provider] section")


def make_extractor(kind: str, fixture_path: Optional[str] = None, lexicon_path: Optional[str] = None, provider=None):
    """The extractor of a kind; a file of the wrong shape is a ValueError that names it."""
    check_extractor(kind, fixture_path, provider)
    if kind == "fixture":
        return FixtureExtractor.from_file(fixture_path)
    if kind == "lexicon":
        return LexiconExtractor.from_file(lexicon_path) if lexicon_path else LexiconExtractor()
    return LlmExtractor(provider)


def extract_topics(catalog: TemplateCatalog, extractor) -> list[TopicTriple]:
    if len(catalog) == 0:
        return []
    return extractor.extract(catalog)


def refine_topics(triples: list[TopicTriple]) -> list[TopicTriple]:
    """Canonicalize entity and action names against the extracted pools.

    Names that agree up to case folding merge into one canonical spelling:
    the most frequent original, ties broken lexicographically. Entities
    are pooled globally, actions per entity; statuses are left untouched.
    """
    entity_pool: dict[str, Counter] = {}
    for t in triples:
        entity_pool.setdefault(t.entity.lower(), Counter())[t.entity] += 1
    entity_canon = {k: _canonical(c) for k, c in entity_pool.items()}

    action_pool: dict[tuple[str, str], Counter] = {}
    for t in triples:
        action_pool.setdefault((t.entity.lower(), t.action.lower()), Counter())[t.action] += 1
    action_canon = {k: _canonical(c) for k, c in action_pool.items()}

    return [
        TopicTriple(
            key=t.key,
            entity=entity_canon[t.entity.lower()],
            action=action_canon[(t.entity.lower(), t.action.lower())],
            status=t.status,
        )
        for t in triples
    ]


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
    for lineno, row in read_jsonl(path, ("key", "entity", "action")):
        names = {"key": row["key"], "entity": row["entity"], "action": row["action"],
                 "status": row.get("status") or NONE_STATUS}
        for field, name in names.items():
            if not isinstance(name, str) or not name:
                raise LineParseError(path, lineno, f"field {field!r} must be a non-empty string")
        triples.append(TopicTriple(**names))
    return triples
