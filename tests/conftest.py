"""Shared fixtures: the six-template login example and the synthetic corpus."""

import json
import math
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from hierlog import semantics
from hierlog.detect import DetectConfig, Detector
from hierlog.hierarchy import SIG_NODE_SEP, SIG_PARENT_SEP, FixtureExtractor, build_tree, escape_name, extract_topics
from hierlog.ingest import LogSequence, LogTemplate, TemplateCatalog
from hierlog.knowledge import KnowledgeBaseSet
from hierlog.semantics import EMBED_DIM, MockProvider, RecordedProvider
from hierlog.synthetic import TOY_FIXTURE, TOY_TEMPLATES, make_corpus

TOY_KEYS = ["k1", "k2", "k3", "k4", "k5", "k6"]


def toy_catalog() -> TemplateCatalog:
    return TemplateCatalog([LogTemplate(k, t) for k, t in TOY_TEMPLATES])


def make_signature(parent_path, nodes) -> str:
    """Canonical KB key, injective over (parent path names, node names): the oracle for `Seq.signature`."""
    return (
        SIG_NODE_SEP.join(escape_name(n) for n in parent_path)
        + SIG_PARENT_SEP
        + SIG_NODE_SEP.join(escape_name(n) for n in nodes)
    )


DEEP_JSON = "[" * 200_000  # nested deeper than the JSON decoder goes


def _deep_json_fault() -> str:
    try:
        json.loads(DEEP_JSON)
    except RecursionError as exc:
        return str(exc)
    raise AssertionError("the JSON decoder took DEEP_JSON")


DEEP_JSON_FAULT = _deep_json_fault()  # the reason the decoder gives for DEEP_JSON


def report_to_json(report) -> dict:
    """A report's fields as a JSON object: `json.dumps(..., sort_keys=True)` of it is the
    oracle for each body line that `save_reports` writes."""
    return {
        "sequence_id": report.sequence_id,
        "final_verdict": report.final_verdict,
        "first_abnormal_level": report.first_abnormal_level,
        "raw_length": report.raw_length,
        "error": report.error,
        "counters": {
            "provider_errors": report.counters.provider_errors,
            "keys_per_level": report.counters.keys_per_level,
            "evals_per_level": report.counters.evals_per_level,
        },
        "verdicts": [
            {
                "signature": v.signature,
                "level": v.level,
                "verdict": v.verdict,
                "source": v.source,
                "explanation": v.explanation,
                "confidence_flag": v.confidence_flag,
            }
            for v in report.verdicts
        ],
    }


class Recorder:
    """A provider that answers through `inner` and keeps each answer, to save as a recorded provider's fixture."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.responses: dict[str, str] = {}  # request hash -> response

    def complete(self, request: str) -> str:
        self.calls += 1
        response = self.responses[RecordedProvider.request_hash(request)] = self.inner.complete(request)
        return response

    def save(self, path) -> None:
        """One (request_hash, response) line per request, the lines `RecordedProvider` replays."""
        path.write_text("".join(
            json.dumps({"request_hash": h, "response": r}) + "\n" for h, r in self.responses.items()
        ))


DROP = "drop"  # a scripted reply that closes the connection without an answer


def chat_body(content) -> bytes:
    """A chat-completion response body whose reply is `content`."""
    return json.dumps({"choices": [{"index": 0, "message": {"role": "assistant", "content": content}}]}).encode()


class ChatServer:
    """A chat-completion endpoint on 127.0.0.1, served from a thread.

    Each POST takes the next reply of `script`, a (status, body) pair, a
    (status, body, headers) triple or DROP; once the script is spent, it
    answers `MockProvider().complete(content)`. A GET is recorded and refused.
    """

    def __init__(self):
        self.script: list = []
        self.requests: list = []  # (method, path, headers, JSON body or None), one per request received
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
        self.httpd.chat = self
        self.url = f"http://127.0.0.1:{self.httpd.server_port}/v1/chat/completions"
        self.thread = threading.Thread(target=self.httpd.serve_forever, args=(0.02,))  # poll interval: a quick shutdown
        self.thread.start()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join()


class _ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        chat = self.server.chat
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        chat.requests.append((self.command, self.path, self.headers, body))
        reply = chat.script.pop(0) if chat.script else (200, chat_body(MockProvider().complete(body["messages"][0]["content"])))
        if reply == DROP:
            self.close_connection = True
            return
        status, payload, *headers = reply
        self.send_response(status)
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):
        self.server.chat.requests.append((self.command, self.path, self.headers, None))
        self.send_error(405)

    def log_message(self, format, *args):  # no access log on stderr
        pass


@pytest.fixture
def backoffs(monkeypatch):
    """The chat provider's backoff delays, recorded instead of slept, with every proxy variable unset."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    delays = []
    monkeypatch.setattr(semantics.time, "sleep", delays.append)
    return delays


@pytest.fixture
def chat_server(backoffs):
    server = ChatServer()
    yield server
    server.close()


def dense(vector) -> list[float]:
    """The EMBED_DIM-wide list that a sparse vector stands for."""
    values = [0.0] * EMBED_DIM
    for i, x in vector.nonzeros.items():
        values[i] = x
    return values


def cosine(a, b) -> float:
    """Cosine of two dense vectors, term by term: the oracle for the sparse cosine."""
    dot = 0.0  # left to right in index order, not by `sum`, which compensates from Python 3.12 on
    for x, y in zip(a, b):
        dot += x * y
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def detector_summary(tree, level, chunk, provider, templates) -> str:
    """The summary that a Detector with no train entry to start from gives `chunk` as a run of `level`.

    Every run of the chunk is unseen, so the Detector asks the LLM about each and summarizes them all.
    """
    config = DetectConfig(llm_enabled=True, early_exit=False)
    detector = Detector(tree, KnowledgeBaseSet(llm=True), config, provider=provider, templates=templates)
    detector.detect_sequence(LogSequence("chunk", list(chunk)))
    return detector._summary_cache[level][tuple(chunk)]


@pytest.fixture(scope="session")
def toy_cat():
    return toy_catalog()


@pytest.fixture(scope="session")
def toy_tree(toy_cat):
    return build_tree(extract_topics(toy_cat, FixtureExtractor(TOY_FIXTURE)))


@pytest.fixture(scope="session")
def corpus():
    return make_corpus()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Surface one pass/fail line per acceptance criterion in the run summary."""
    try:
        from test_acceptance import VERDICT_LINES
    except ImportError:
        return
    if VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)
