"""Provider abstraction, embeddings, summarization, and detection prompts.

Providers share one surface: ``complete(request) -> response`` over plain
text. The mock provider answers deterministically from the request header,
the recorded provider replays (request-hash, response) fixtures, and the
http_chat provider speaks a generic JSON chat-completion API.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Protocol, Sequence

from . import prompts as prompt_assets
from .decompose import Seq
from .errors import JsonLinesError, ProviderError
from .ingest import read_jsonl

VERDICT_NORMAL = "normal"
VERDICT_ABNORMAL = "abnormal"

HTTP_RETRIES = 2  # further attempts after a failed chat request
HTTP_TIMEOUT_S = 30.0

_VERDICT_RE = re.compile(r"^\s*VERDICT:\s*(NORMAL|ABNORMAL)\s*$", re.IGNORECASE | re.MULTILINE)


@dataclass
class ProviderConfig:
    kind: str  # mock | recorded | http_chat
    fixture_path: Optional[str] = None
    endpoint: Optional[str] = None
    model: Optional[str] = None
    auth_env: Optional[str] = None  # env var holding the credential

    def __post_init__(self):
        if self.kind not in ("mock", "recorded", "http_chat"):
            raise ValueError(f"unknown provider kind: {self.kind!r}")


class Provider(Protocol):
    calls: int

    def complete(self, request: str) -> str: ...


class MockProvider:
    """Deterministic offline provider.

    Summarization requests get a canonical digest built from the request
    header (level tag plus joined node names). Detection requests are
    answered by the first matching (substring, response) rule, falling back
    to the default verdict. Extraction requests are served from an optional
    key -> triple map.
    """

    def __init__(
        self,
        detect_rules: Optional[Sequence[tuple[str, str]]] = None,
        responses: Optional[dict[str, str]] = None,
        extract_map: Optional[dict[str, dict]] = None,
        default_detect: str = "VERDICT: ABNORMAL\nno matching normal pattern",
    ):
        self.detect_rules = list(detect_rules or [])
        self.responses = dict(responses or {})
        self.extract_map = dict(extract_map or {})
        self.default_detect = default_detect
        self.calls = 0

    def complete(self, request: str) -> str:
        self.calls += 1
        if request in self.responses:
            return self.responses[request]
        header = _request_fields(request)
        task = header.get("TASK", "")
        if task.startswith("summarize-"):
            tag = {"status": "S", "action": "A", "entity": "E"}.get(task.split("-", 1)[1], "?")
            digest = f"{tag}:{header.get('NODES', '')}"
            if tag != "S":
                children = _extract_block(request)
                if children:
                    digest += f"[{';'.join(children)}]"
            return digest
        if task == "detect":
            for needle, response in self.detect_rules:
                if needle in request:
                    return response
            return self.default_detect
        if task == "extract":
            key = header.get("KEY", "")
            triple = self.extract_map.get(key)
            if triple is None:
                raise ProviderError(f"mock provider has no extraction for key {key!r}")
            return (
                f"ENTITY: {triple['entity']}\n"
                f"ACTION: {triple['action']}\n"
                f"STATUS: {triple.get('status') or 'none'}"
            )
        raise ProviderError(f"mock provider cannot serve request task {task!r}")


class RecordedProvider:
    """Replay provider backed by an append-only (request-hash, response) file.

    With an inner provider, unseen requests are forwarded and the response
    recorded; without one, an unseen request is an error.
    """

    def __init__(self, path: str | Path, inner: Optional[Provider] = None):
        self.path = Path(path)
        self.inner = inner
        self.calls = 0
        self._cache: dict[str, str] = {}
        if self.path.exists():
            error = functools.partial(JsonLinesError, self.path)
            for lineno, row in read_jsonl(self.path, error, ("request_hash", "response")):
                for name in ("request_hash", "response"):
                    if not isinstance(row[name], str):
                        raise error(lineno, f"field {name!r} must be a string")
                self._cache[row["request_hash"]] = row["response"]

    @staticmethod
    def request_hash(request: str) -> str:
        return hashlib.sha256(request.encode()).hexdigest()

    def complete(self, request: str) -> str:
        self.calls += 1
        h = self.request_hash(request)
        if h in self._cache:
            return self._cache[h]
        if self.inner is None:
            raise ProviderError(f"no recorded response for request hash {h[:12]}")
        response = self.inner.complete(request)
        self._cache[h] = response
        with self.path.open("a") as fh:
            fh.write(json.dumps({"request_hash": h, "response": response}) + "\n")
        return response


class HttpChatProvider:
    """Generic JSON chat-completion client (OpenAI-style wire format)."""

    def __init__(self, config: ProviderConfig):
        if not config.endpoint:
            raise ValueError("http_chat provider requires an endpoint")
        self.config = config
        self.calls = 0

    def complete(self, request: str) -> str:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.config.auth_env:
            token = os.environ.get(self.config.auth_env)
            if token:
                headers["Authorization"] = f"Bearer {token}"
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": request}],
        }
        last_exc: Optional[Exception] = None
        for attempt in range(HTTP_RETRIES + 1):
            self.calls += 1
            try:
                resp = requests.post(
                    self.config.endpoint, json=payload, headers=headers, timeout=HTTP_TIMEOUT_S
                )
                resp.raise_for_status()
                return resp.json()["choices"][0]["message"]["content"]
            except Exception as exc:  # transport or schema failure, retry
                last_exc = exc
                if attempt < HTTP_RETRIES:
                    time.sleep(min(2.0**attempt, 10.0))
        raise ProviderError(f"chat endpoint failed after retries: {last_exc}") from last_exc


def make_provider(config: ProviderConfig, inner: Optional[Provider] = None) -> Provider:
    if config.kind == "mock":
        return MockProvider()
    if config.kind == "recorded":
        if not config.fixture_path:
            raise ValueError("recorded provider requires fixture_path")
        return RecordedProvider(config.fixture_path, inner=inner)
    return HttpChatProvider(config)


def _request_fields(request: str) -> dict[str, str]:
    fields = {}
    for line in request.splitlines():
        if not line.strip():
            break
        name, sep, value = line.partition(":")
        if sep:
            fields[name.strip()] = value.strip()
    return fields


def _extract_block(request: str) -> list[str]:
    """Non-empty lines of the final paragraph (the request's content block)."""
    parts = request.rsplit("\n\n", 1)
    if len(parts) < 2:
        return []
    return [l.strip() for l in parts[1].splitlines() if l.strip()]


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

EMBED_DIM = 256


class SparseVector(NamedTuple):
    """An embedding as its non-zeros, index -> value in ascending index order, and their norm."""

    nonzeros: dict[int, float]
    norm: float


def sparse_vector(nonzeros: dict[int, float]) -> SparseVector:
    """The vector of these non-zeros, given in ascending index order, which is the order a dense norm sums in."""
    return SparseVector(nonzeros, math.sqrt(sum(x * x for x in nonzeros.values())))


@functools.cache
def _bucket(key: str) -> int:
    """Hashed embedding index of a log key; keys come from a catalog, so this stays small."""
    h = hashlib.sha1(key.encode()).digest()
    return int.from_bytes(h[:4], "big") % EMBED_DIM


def embed_chunk(chunk: Sequence[str]) -> SparseVector:
    """Hashed bag-of-keys count vector, normalized to unit length.

    Deterministic across runs and permutation-invariant by construction
    (order is carried by signatures, not embeddings). [] gives the zero vector.
    """
    counts = Counter(map(_bucket, chunk))
    norm = sum(c * c for c in counts.values()) ** 0.5
    return sparse_vector({i: counts[i] / norm for i in sorted(counts)})


# ---------------------------------------------------------------------------
# Summarization
# ---------------------------------------------------------------------------

def parent_context(seq: Seq) -> str:
    return " > ".join(seq.parent_path)


def summarize_status_seq(seq: Seq, templates: Sequence[str], provider: Provider) -> str:
    """One provider call over the concatenated templates of the chunk."""
    request = prompt_assets.load("summarize_status").format(
        parent_context=parent_context(seq),
        nodes=">".join(seq.nodes),
        templates="\n".join(templates),
    )
    return provider.complete(request)


def summarize_parent_seq(seq: Seq, child_summaries: Sequence[str], provider: Provider) -> str:
    """One provider call over the child summaries (never raw templates)."""
    if seq.children is not None and len(child_summaries) != len(seq.nodes):
        raise ValueError(
            f"{seq.signature}: expected {len(seq.nodes)} child summaries, got {len(child_summaries)}"
        )
    for i, s in enumerate(child_summaries):
        if s is None:
            raise ValueError(f"{seq.signature}: child {i} has no summary")
    request = prompt_assets.load("summarize_parent").format(
        level=seq.level,
        parent_context=parent_context(seq),
        nodes=">".join(seq.nodes),
        child_summaries="\n".join(child_summaries),
    )
    return provider.complete(request)


# ---------------------------------------------------------------------------
# Detection prompting
# ---------------------------------------------------------------------------

@dataclass
class DetectionPrompt:
    target_nodes: str
    target_summary: str
    example_summaries: list[str] = field(default_factory=list)
    parent_context: str = ""

    def render(self) -> str:
        examples = "\n".join(f"- {s}" for s in self.example_summaries) or "(none available)"
        return prompt_assets.load("detect").format(
            target_nodes=self.target_nodes,
            parent_context=self.parent_context,
            target_summary=self.target_summary,
            example_summaries=examples,
        )


def parse_verdict(text: str) -> Optional[tuple[str, str]]:
    """Extract (verdict, explanation) from a VERDICT-line response."""
    m = _VERDICT_RE.search(text)
    if m is None:
        return None
    verdict = VERDICT_NORMAL if m.group(1).upper() == "NORMAL" else VERDICT_ABNORMAL
    explanation = (text[: m.start()] + text[m.end() :]).strip()
    return verdict, explanation


def llm_detect(
    prompt: DetectionPrompt, provider: Provider, retry_limit: int = 2
) -> tuple[str, str, bool]:
    """Query the provider for a verdict.

    Returns (verdict, explanation, low_confidence). An unparseable response
    is retried up to retry_limit times and then falls back to abnormal with
    the low-confidence flag set (the pipeline is recall-first). Transport
    failures propagate as ProviderError.
    """
    request = prompt.render()
    last_text = ""
    for _ in range(retry_limit + 1):
        last_text = provider.complete(request)
        parsed = parse_verdict(last_text)
        if parsed is not None:
            verdict, explanation = parsed
            return verdict, explanation, False
    return VERDICT_ABNORMAL, last_text.strip() or "unparseable provider response", True
