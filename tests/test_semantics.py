"""Providers, embeddings, summarization, and verdict parsing."""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlog.decompose import top_down_decompose
from hierlog.errors import ProviderError
from hierlog.hierarchy import ACTION, ENTITY
from hierlog.semantics import (
    EMBED_DIM,
    DetectionPrompt,
    MockProvider,
    ProviderConfig,
    RETRY_LIMIT,
    RecordedProvider,
    embed_chunk,
    llm_detect,
    make_provider,
    parse_verdict,
    sparse_vector,
    summarize_parent_seq,
    summarize_status_seq,
)

from conftest import TOY_KEYS, Recorder, cosine, dense


# -- embeddings -----------------------------------------------------------------

def test_embedding_deterministic_and_unit_norm():
    a = embed_chunk(["k1", "k2", "k3"])
    assert a == embed_chunk(["k1", "k2", "k3"])
    assert math.isclose(a.norm, 1.0, rel_tol=1e-12)
    assert list(a.nonzeros) == sorted(a.nonzeros)
    assert all(0 <= i < EMBED_DIM and x != 0.0 for i, x in a.nonzeros.items())
    assert embed_chunk([]) == sparse_vector({})


def test_embedding_permutation_invariant():
    assert embed_chunk(["k1", "k2"]) == embed_chunk(["k2", "k1"])


def test_embedding_self_concatenation_cosine_one():
    a = embed_chunk(["k1", "k2"])
    b = embed_chunk(["k1", "k2", "k1", "k2"])
    assert cosine(dense(a), dense(b)) == pytest.approx(1.0)


def test_embedding_distinguishes_content():
    assert cosine(dense(embed_chunk(["k1"])), dense(embed_chunk(["k2"]))) < 0.99


def _embed_inline(chunk):
    """The dense vector that embed_chunk stands for, with the key hash computed in place, on every key."""
    vec = [0.0] * EMBED_DIM
    for key in chunk:
        vec[int.from_bytes(hashlib.sha1(key.encode()).digest()[:4], "big") % EMBED_DIM] += 1.0
    norm = sum(v * v for v in vec) ** 0.5
    return [v / norm for v in vec]


@settings(max_examples=100, deadline=None)
@given(chunk=st.lists(st.text(min_size=0, max_size=6), min_size=1, max_size=40))
def test_embedding_bit_identical_to_inline_hash(chunk):
    want = _embed_inline(chunk)
    for _ in range(2):  # a cold and a warm key cache give the same vector
        got = embed_chunk(chunk)
        assert repr(got.nonzeros) == repr({i: x for i, x in enumerate(want) if x != 0.0})
        assert repr(dense(got)) == repr(want)
        # the norm is the one the dense cosine computes, so every cosine is unchanged
        assert repr(got.norm) == repr(math.sqrt(sum(x * x for x in want)))
        assert repr(cosine(dense(got), dense(got))) == repr(cosine(want, want))


# -- mock provider ----------------------------------------------------------------

def test_mock_summarize_digests(toy_tree):
    provider = MockProvider()
    result = top_down_decompose(TOY_KEYS, toy_tree)
    s = summarize_status_seq(result.s_seqs[0].pattern, ["Open session started", "Open session successful"], provider)
    assert s == "S:started>succf"
    a = summarize_parent_seq(ACTION, result.a_seqs[0].pattern, [s], provider)
    assert a == "A:open[S:started>succf]"
    e = summarize_parent_seq(ENTITY, result.e_seq.pattern, [a, "A:x", "A:y"], provider)
    assert e.startswith("E:Session>Auth>Comm[")
    assert provider.calls == 3


def test_mock_detect_rules():
    provider = MockProvider(detect_rules=[("TARGET-NODES: fine", "VERDICT: NORMAL\nok")])
    prompt = DetectionPrompt(target_nodes="fine", target_summary="s", parent_context="root")
    assert llm_detect(prompt, provider) == ("normal", "ok", False)
    prompt = DetectionPrompt(target_nodes="weird", target_summary="s", parent_context="root")
    verdict, _, low = llm_detect(prompt, provider)
    assert verdict == "abnormal" and low is False  # default verdict parses fine


def test_mock_extract_and_unknown_task():
    provider = MockProvider(extract_map={"k9": {"entity": "E", "action": "a", "status": None}})
    out = provider.complete("TASK: extract\nKEY: k9\n\nbody")
    assert out == "ENTITY: E\nACTION: a\nSTATUS: none"
    with pytest.raises(ProviderError):
        provider.complete("TASK: extract\nKEY: unknown\n\nbody")
    with pytest.raises(ProviderError):
        provider.complete("TASK: dance\n\nbody")


def test_mock_exact_response_map():
    provider = MockProvider(responses={"ping": "pong"})
    assert provider.complete("ping") == "pong"


# -- recorded provider ---------------------------------------------------------------

def test_recorded_provider_records_then_replays(tmp_path):
    path = tmp_path / "fixture.jsonl"
    inner = MockProvider(responses={"req-a": "resp-a", "req-b": "resp-b"})
    recorder = Recorder(inner)
    assert recorder.complete("req-a") == "resp-a"
    assert recorder.complete("req-b") == "resp-b"
    recorder.save(path)

    replay = RecordedProvider(path)
    assert replay.complete("req-b") == "resp-b"
    assert replay.complete("req-a") == "resp-a"
    assert (inner.calls, replay.calls) == (2, 2)  # a replay never reaches the provider that was recorded
    with pytest.raises(ProviderError):
        replay.complete("never-seen")


def test_make_provider_kinds(tmp_path):
    assert isinstance(make_provider(ProviderConfig(kind="mock")), MockProvider)
    fixture = tmp_path / "f.jsonl"
    fixture.write_text("")
    p = make_provider(ProviderConfig(kind="recorded", fixture_path=str(fixture)))
    assert isinstance(p, RecordedProvider)
    with pytest.raises(ValueError):
        make_provider(ProviderConfig(kind="recorded"))
    with pytest.raises(ValueError):
        ProviderConfig(kind="quantum")
    with pytest.raises(ValueError):
        make_provider(ProviderConfig(kind="http_chat"))  # endpoint required


# -- verdict parsing -------------------------------------------------------------------

def test_parse_verdict_variants():
    assert parse_verdict("VERDICT: NORMAL\nall good") == ("normal", "all good")
    assert parse_verdict("thinking...\nverdict: abnormal\nbad")[0] == "abnormal"
    assert parse_verdict("  VERDICT:  ABNORMAL  ")[0] == "abnormal"
    assert parse_verdict("no verdict here") is None
    assert parse_verdict("VERDICT: MAYBE") is None


def test_llm_detect_fallback_after_retries():
    class Garbage:
        calls = 0

        def complete(self, request):
            self.calls += 1
            return "I am not sure what to say"

    provider = Garbage()
    prompt = DetectionPrompt(target_nodes="x", target_summary="s")
    verdict, explanation, low = llm_detect(prompt, provider)
    assert verdict == "abnormal" and low is True
    assert RETRY_LIMIT == 2 and provider.calls == 3  # initial try plus two retries


def test_llm_detect_asks_a_replaying_provider_once(tmp_path):
    # a replay gives the same unparseable answer every time, so a retry would only repeat it
    prompt = DetectionPrompt(target_nodes="x", target_summary="s")
    fixture = tmp_path / "fixture.jsonl"
    fixture.write_text(json.dumps({
        "request_hash": RecordedProvider.request_hash(prompt.render()), "response": "I am not sure what to say",
    }) + "\n")
    mock = MockProvider(default_detect="no verdict line")
    for provider, reply in ((RecordedProvider(fixture), "I am not sure what to say"), (mock, "no verdict line")):
        assert llm_detect(prompt, provider) == ("abnormal", reply, True)
        assert provider.calls == 1


def test_llm_detect_transport_error_propagates():
    class Boom:
        calls = 0

        def complete(self, request):
            raise ProviderError("down")

    prompt = DetectionPrompt(target_nodes="x", target_summary="s")
    with pytest.raises(ProviderError):
        llm_detect(prompt, Boom())


# -- prompts ------------------------------------------------------------------------

def test_detection_prompt_render():
    prompt = DetectionPrompt(
        target_nodes="a>b",
        target_summary="does things",
        example_summaries=["one", "two"],
        parent_context="root > Comm",
    )
    text = prompt.render()
    assert "TARGET-NODES: a>b" in text
    assert "PARENT: root > Comm" in text
    assert "does things" in text
    assert "- one\n- two" in text
    assert "(none available)" in DetectionPrompt(target_nodes="a", target_summary="s").render()


def test_summarize_parent_validates_children(toy_tree):
    # one child summary per node of the pattern, each given; the error names the pattern by its signature
    pattern = top_down_decompose(TOY_KEYS, toy_tree).e_seq.pattern
    with pytest.raises(ValueError, match=r"^root\|Session>Auth>Comm: expected 3 child summaries, got 1$"):
        summarize_parent_seq(ENTITY, pattern, ["only-one"], MockProvider())
    with pytest.raises(ValueError, match=r"^root\|Session>Auth>Comm: child 1 has no summary$"):
        summarize_parent_seq(ENTITY, pattern, ["a", None, "c"], MockProvider())
    with pytest.raises(ValueError, match=r"^root>Session\|open: expected 1 child summaries, got 2$"):
        summarize_parent_seq(ACTION, ("Session", "open"), ["a", "b"], MockProvider())
