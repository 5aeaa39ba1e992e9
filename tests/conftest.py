"""Shared fixtures: the six-template login example and the synthetic corpus."""

import pytest

from hierlog.hierarchy import FixtureExtractor, build_tree, extract_topics
from hierlog.ingest import LogTemplate, TemplateCatalog
from hierlog.synthetic import TOY_FIXTURE, TOY_TEMPLATES, make_corpus

TOY_KEYS = ["k1", "k2", "k3", "k4", "k5", "k6"]


def toy_catalog() -> TemplateCatalog:
    return TemplateCatalog([LogTemplate(k, t) for k, t in TOY_TEMPLATES])


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
