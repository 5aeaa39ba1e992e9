"""The http_chat provider against a chat-completion endpoint on the loopback interface."""

import logging
import socket

import pytest

from hierlog.errors import ConfigError, ProviderError
from hierlog.pipeline import load_provider
from hierlog.semantics import HTTP_RETRIES, HttpChatProvider, ProviderConfig

from conftest import DEEP_JSON, DROP, ChatServer, chat_body

TOKEN = "tok-3f9a1c"


def http_chat(endpoint, auth_env=None):
    return HttpChatProvider(ProviderConfig(kind="http_chat", endpoint=endpoint, model="chat-1", auth_env=auth_env))


@pytest.mark.parametrize("auth_env", [None, "HIERLOG_CHAT_TOKEN"])
def test_a_request_is_one_json_post(chat_server, monkeypatch, auth_env):
    monkeypatch.setenv("HIERLOG_CHAT_TOKEN", TOKEN)
    chat_server.script = [(200, chat_body("the reply"))]
    provider = http_chat(chat_server.url, auth_env)
    assert provider.complete("TASK: detect\n\nbody") == "the reply"
    assert provider.calls == 1
    [(method, path, headers, body)] = chat_server.requests
    assert (method, path) == ("POST", "/v1/chat/completions")
    assert body == {"model": "chat-1", "messages": [{"role": "user", "content": "TASK: detect\n\nbody"}]}
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == (f"Bearer {TOKEN}" if auth_env else None)


def test_a_5xx_is_retried_with_backoff(chat_server, backoffs):
    chat_server.script = [(500, b"{}"), (500, b"{}"), (200, chat_body("late but fine"))]
    provider = http_chat(chat_server.url)
    assert provider.complete("x") == "late but fine"
    assert (provider.calls, len(chat_server.requests), backoffs) == (3, 3, [1.0, 2.0])


@pytest.mark.parametrize(
    "reply, fault",
    [
        ((503, b"{}"), "HTTP 503 Service Unavailable"),
        ((429, b"{}"), "HTTP 429 Too Many Requests"),
        (DROP, "Remote end closed connection without response"),
    ],
    ids=["503", "429", "dropped-connection"],
)
def test_a_fault_that_a_retry_can_fix_is_tried_three_times(chat_server, backoffs, reply, fault):
    chat_server.script = [reply] * 3 + [(200, chat_body("too late"))]
    provider = http_chat(chat_server.url)
    with pytest.raises(ProviderError, match=f"failed after 3 attempts: .*{fault}"):
        provider.complete("x")
    assert HTTP_RETRIES == 2
    assert (provider.calls, len(chat_server.requests), backoffs) == (3, 3, [1.0, 2.0])


@pytest.mark.parametrize(
    "reply, fault",
    [
        ((400, b"{}"), "HTTP 400 Bad Request"),
        ((401, b"{}"), "HTTP 401 Unauthorized"),
        ((404, b"{}"), "HTTP 404 Not Found"),
        ((200, b"<html>busy</html>"), r"no choices\[0\].message.content"),
        ((200, b'{"id": "c-1"}'), r"no choices\[0\].message.content"),
        ((200, b'{"choices": []}'), r"no choices\[0\].message.content"),
        ((200, DEEP_JSON.encode()), r"no choices\[0\].message.content"),
        ((200, chat_body(None)), "content is NoneType, not a string"),
        ((200, chat_body(["VERDICT: NORMAL"])), "content is list, not a string"),
    ],
    ids=["400", "401", "404", "not-json", "no-choices", "empty-choices", "nested-too-deeply", "content-null",
         "content-a-list"],
)
def test_any_other_fault_is_a_provider_error_after_one_call(chat_server, backoffs, reply, fault):
    chat_server.script = [reply, (200, chat_body("a retry would get this"))]
    provider = http_chat(chat_server.url)
    with pytest.raises(ProviderError, match=fault):
        provider.complete("x")
    assert (provider.calls, len(chat_server.requests), backoffs) == (1, 1, [])


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_a_redirect_is_not_followed_and_the_credential_stays_put(chat_server, monkeypatch, status):
    monkeypatch.setenv("HIERLOG_CHAT_TOKEN", TOKEN)
    elsewhere = ChatServer()
    try:
        chat_server.script = [(status, b"{}", {"Location": elsewhere.url})]
        provider = http_chat(chat_server.url, "HIERLOG_CHAT_TOKEN")
        with pytest.raises(ProviderError, match=f"answered HTTP {status} "):
            provider.complete("x")
    finally:
        elsewhere.close()
    assert (provider.calls, len(chat_server.requests), elsewhere.requests) == (1, 1, [])


def test_a_closed_port_is_tried_three_times(backoffs):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    provider = http_chat(f"http://127.0.0.1:{port}/v1/chat/completions")
    with pytest.raises(ProviderError, match="failed after 3 attempts: .*Connection refused"):
        provider.complete("x")
    assert (provider.calls, backoffs) == (3, [1.0, 2.0])


@pytest.mark.parametrize(
    "endpoint",
    [
        "file:///dev/null", "ftp://127.0.0.1/chat", "http:///v1/chat", "127.0.0.1:8080/v1/chat", "localhost:8080",
        "http://127.0.0.1:abc/v1/chat", "http://127.0.0.1:70000/v1/chat", "http://[::1/v1/chat",
        "http://127.0.0.1/v1/chat completions", "http://127.0.0.1/v1/chat\r\nX-Injected: 1",
        "http://127.0.0.1/v1/chät",
    ],
    ids=[
        "file", "ftp", "no-host", "no-scheme", "host-as-scheme", "port-not-numeric", "port-out-of-range",
        "unclosed-ipv6-host", "space-in-path", "crlf-in-path", "non-ascii-path",
    ],
)
def test_an_endpoint_that_is_not_http_with_a_host_is_refused_at_construction(endpoint):
    fault = f"http_chat endpoint {endpoint!r} is not an http:// or https:// URL with a host"
    with pytest.raises(ValueError) as err:
        http_chat(endpoint)
    assert str(err.value) == fault
    with pytest.raises(ConfigError) as err:
        load_provider({"kind": "http_chat", "endpoint": endpoint})
    assert str(err.value) == f"provider: {fault}"


def test_the_credential_shows_in_no_error_log_or_repr(chat_server, monkeypatch, caplog):
    monkeypatch.setenv("HIERLOG_CHAT_TOKEN", TOKEN)
    chat_server.script = [(401, b'{"error": "bad key"}')]
    provider = http_chat(chat_server.url, "HIERLOG_CHAT_TOKEN")
    with caplog.at_level(logging.DEBUG), pytest.raises(ProviderError) as err:
        provider.complete("x")
    assert chat_server.requests[0][2]["Authorization"] == f"Bearer {TOKEN}"
    for text in (str(err.value), repr(err.value), caplog.text, repr(provider), repr(provider.config)):
        assert TOKEN not in text


@pytest.mark.parametrize("token", [f"{TOKEN}\r\nX-Injected: 1", f"{TOKEN}\n", f"{TOKEN}\t", f"{TOKEN}-\u03a9"],
                         ids=["crlf", "trailing-newline", "tab", "non-latin-1"])
def test_a_credential_that_no_header_can_carry_is_refused_at_construction(monkeypatch, token):
    monkeypatch.setenv("HIERLOG_CHAT_TOKEN", token)
    fault = "auth_env names HIERLOG_CHAT_TOKEN, whose value is not printable ASCII"
    with pytest.raises(ValueError) as err:
        http_chat("http://127.0.0.1:9/v1/chat/completions", "HIERLOG_CHAT_TOKEN")
    assert str(err.value) == fault
    with pytest.raises(ConfigError) as err:
        load_provider({"kind": "http_chat", "endpoint": "http://127.0.0.1:9/v1", "auth_env": "HIERLOG_CHAT_TOKEN"})
    assert str(err.value) == f"provider: {fault}"
