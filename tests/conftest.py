"""Shared fixtures: the six-template login example and the synthetic corpus."""

import json
import math

import pytest

from hierlog.hierarchy import SIG_NODE_SEP, SIG_PARENT_SEP, FixtureExtractor, build_tree, escape_name, extract_topics
from hierlog.ingest import LogTemplate, TemplateCatalog
from hierlog.semantics import EMBED_DIM, RecordedProvider
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


def dense(vector) -> list[float]:
    """The EMBED_DIM-wide list that a sparse vector stands for."""
    values = [0.0] * EMBED_DIM
    for i, x in vector.nonzeros.items():
        values[i] = x
    return values


def cosine(a, b) -> float:
    """Cosine of two dense vectors, term by term: the oracle for the sparse cosine."""
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


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
