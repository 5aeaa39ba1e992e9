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
from urllib.parse import urlsplit

from . import prompts as prompt_assets
from .errors import LineParseError, ProviderError
from .hierarchy import LEVEL_INITIAL, PARENT_DEPTH, ROOT, STATUS, signature
from .ingest import read_jsonl

VERDICT_NORMAL = "normal"
VERDICT_ABNORMAL = "abnormal"

PROVIDER_KINDS = ("mock", "recorded", "http_chat")

HTTP_RETRIES = 2  # further attempts after a chat request fails with a fault that a retry can fix
HTTP_TIMEOUT_S = 30.0

_VERDICT_RE = re.compile(r"^\s*VERDICT:\s*(NORMAL|ABNORMAL)\s*$", re.IGNORECASE | re.MULTILINE)


@dataclass
class ProviderConfig:
    kind: str  # one of PROVIDER_KINDS
    fixture_path: Optional[str] = None
    endpoint: Optional[str] = None
    model: Optional[str] = None
    auth_env: Optional[str] = None  # env var holding the credential

    def __post_init__(self):
        if self.kind not in PROVIDER_KINDS:
            raise ValueError(f"unknown provider kind: {self.kind!r}")


class Provider(Protocol):
    """What the pipeline asks of a provider. A class with ``replays = True`` gives one fixed
    answer per request, so `llm_detect` sends it each request once."""

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

    replays = True

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
            level = task.split("-", 1)[1]
            digest = f"{LEVEL_INITIAL.get(level, '?')}:{header.get('NODES', '')}"
            if level != STATUS:
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
    """Replay provider backed by a (request-hash, response) JSON-lines file; an unseen request is an error."""

    replays = True

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.calls = 0
        self._cache: dict[str, str] = {}
        first_line: dict[str, int] = {}  # else the later of two lines with one hash would silently win
        for lineno, row in read_jsonl(self.path, ("request_hash", "response")):
            for name in ("request_hash", "response"):
                if not isinstance(row[name], str):
                    raise LineParseError(self.path, lineno, f"field {name!r} must be a string")
            h = row["request_hash"]
            first = first_line.setdefault(h, lineno)
            if first != lineno:
                raise LineParseError(self.path, lineno, f"repeated request_hash {h!r}, first at line {first}")
            self._cache[h] = row["response"]

    @staticmethod
    def request_hash(request: str) -> str:
        return hashlib.sha256(request.encode()).hexdigest()

    def complete(self, request: str) -> str:
        self.calls += 1
        h = self.request_hash(request)
        if h not in self._cache:
            raise ProviderError(f"no recorded response for request hash {h[:12]}")
        return self._cache[h]


class HttpChatProvider:
    """Generic JSON chat-completion client (OpenAI-style wire format) on the standard library.

    Only what a retry can fix is retried: a transport fault, a 429 or a 5xx.
    Any other status, a redirect included (none is followed, so the credential
    goes only to the endpoint), or a body without a string
    `choices[0].message.content`, is a ProviderError after one call.
    """

    def __init__(self, config: ProviderConfig):
        if not config.endpoint:
            raise ValueError("http_chat provider requires an endpoint")
        if not _is_http_url(config.endpoint):
            raise ValueError(f"http_chat endpoint {config.endpoint!r} is not an http:// or https:// URL with a host")
        self.config = config
        self.calls = 0
        self._headers = {"Content-Type": "application/json"}
        if config.auth_env:
            token = os.environ.get(config.auth_env)
            if not token:
                raise ValueError(f"auth_env names {config.auth_env}, which is unset or empty")
            if not (token.isascii() and token.isprintable()):  # a header value cannot carry it; the message omits it
                raise ValueError(f"auth_env names {config.auth_env}, whose value is not printable ASCII")
            self._headers["Authorization"] = f"Bearer {token}"

    def complete(self, request: str) -> str:
        import http.client
        import urllib.error
        import urllib.request

        payload = {"model": self.config.model, "messages": [{"role": "user", "content": request}]}
        post = urllib.request.Request(
            self.config.endpoint, data=json.dumps(payload).encode(), headers=self._headers, method="POST"
        )
        opener = _no_redirect_opener()
        for attempt in range(HTTP_RETRIES + 1):
            self.calls += 1
            try:
                with opener.open(post, timeout=HTTP_TIMEOUT_S) as resp:
                    return _chat_content(resp.read())
            except urllib.error.HTTPError as exc:
                exc.close()
                if exc.code != 429 and exc.code < 500:
                    raise ProviderError(f"chat endpoint answered HTTP {exc.code} {exc.reason}") from None
                fault = f"HTTP {exc.code} {exc.reason}"
            except (OSError, http.client.HTTPException) as exc:  # URLError, timeouts, dropped connections
                fault = exc
            if attempt < HTTP_RETRIES:
                time.sleep(2.0**attempt)
        raise ProviderError(f"chat endpoint failed after {HTTP_RETRIES + 1} attempts: {fault}")


def _is_http_url(endpoint: str) -> bool:
    """Whether `endpoint` is an http:// or https:// URL with a host, a valid port if any, and no
    character outside printable ASCII or space, which a send would only reject mid-run."""
    if not (endpoint.isascii() and endpoint.isprintable()) or " " in endpoint:
        return False
    try:
        url = urlsplit(endpoint)
        url.port  # a non-numeric or out-of-range port is a ValueError
    except ValueError:
        return False
    return url.scheme in ("http", "https") and bool(url.hostname)


def _no_redirect_opener():
    """A urllib opener that follows no redirect: a 3xx is an HTTPError, so the
    Authorization header is never sent to another URL."""
    import urllib.request

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            return None

    return urllib.request.build_opener(NoRedirect)


def _chat_content(body: bytes) -> str:
    """The reply text of a chat-completion response body; any other body is a ProviderError."""
    try:
        content = json.loads(body)["choices"][0]["message"]["content"]
    except (ValueError, RecursionError, LookupError, TypeError):  # not JSON, or no choices[0].message.content
        raise ProviderError(f"chat endpoint response has no choices[0].message.content: {body[:200]!r}") from None
    if not isinstance(content, str):
        raise ProviderError(f"chat endpoint response content is {type(content).__name__}, not a string")
    return content


def make_provider(config: ProviderConfig) -> Provider:
    if config.kind == "mock":
        return MockProvider()
    if config.kind == "recorded":
        if not config.fixture_path:
            raise ValueError("recorded provider requires fixture_path")
        return RecordedProvider(config.fixture_path)
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

def parent_context(level: str, pattern: Sequence[str]) -> str:
    """The parent path of a pattern of `level` in a prompt: the root, then the pattern's parent names."""
    return " > ".join((ROOT, *pattern[:PARENT_DEPTH[level]]))


def summarize_status_seq(pattern: Sequence[str], templates: Sequence[str], provider: Provider) -> str:
    """One provider call over the concatenated templates of a status pattern's chunk."""
    request = prompt_assets.load("summarize_status").format(
        parent_context=parent_context(STATUS, pattern),
        nodes=">".join(pattern[PARENT_DEPTH[STATUS]:]),
        templates="\n".join(templates),
    )
    return provider.complete(request)


def summarize_parent_seq(level: str, pattern: Sequence[str], child_summaries: Sequence[str], provider: Provider) -> str:
    """One provider call over the child summaries (never raw templates), one per node of the pattern."""
    nodes = pattern[PARENT_DEPTH[level]:]
    if len(child_summaries) != len(nodes):
        raise ValueError(
            f"{signature(level, pattern)}: expected {len(nodes)} child summaries, got {len(child_summaries)}"
        )
    for i, s in enumerate(child_summaries):
        if s is None:
            raise ValueError(f"{signature(level, pattern)}: child {i} has no summary")
    request = prompt_assets.load("summarize_parent").format(
        level=level,
        parent_context=parent_context(level, pattern),
        nodes=">".join(nodes),
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


RETRY_LIMIT = 2  # retries of a detection request whose response carries no verdict


def llm_detect(prompt: DetectionPrompt, provider: Provider) -> tuple[str, str, bool]:
    """Query the provider for a verdict.

    Returns (verdict, explanation, low_confidence). An unparseable response
    is retried up to RETRY_LIMIT times, unless the provider replays (it would
    give the same answer), and then falls back to abnormal with the
    low-confidence flag set (the pipeline is recall-first). Transport
    failures propagate as ProviderError.
    """
    request = prompt.render()
    last_text = ""
    for _ in range(1 if getattr(provider, "replays", False) else RETRY_LIMIT + 1):
        last_text = provider.complete(request)
        parsed = parse_verdict(last_text)
        if parsed is not None:
            verdict, explanation = parsed
            return verdict, explanation, False
    return VERDICT_ABNORMAL, last_text.strip() or "unparseable provider response", True
