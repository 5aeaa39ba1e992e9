"""The CLI chain documented in the README against `hierlog pipeline`.

Each stage command, run in turn, must write the same tree, KB files,
report body and metrics as one `hierlog pipeline` run over the same
inputs; configuration errors must exit with code 2.
"""

import configparser
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import hierlog
from hierlog.cli import main
from hierlog.decompose import top_down_decompose
from hierlog.hierarchy import TopicTree
from hierlog.knowledge import END_MARK, KB_FORMAT_VERSION, START_MARK

from conftest import make_signature

KB_FILES = [f"{role}_{level}.json" for role in ("train", "test") for level in ("entity", "action", "status")]


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def ok(*args):
    result = invoke(*args)
    assert result.exit_code == 0, (args, result.output)
    return result


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A small corpus from `make-dataset`, plus its test set as raw records with one stray line."""
    d = tmp_path_factory.mktemp("data")
    ok("make-dataset", "--out", d, "--seed", 3, "--n-train", 60, "--n-test", 80, "--benign-unseen-rate", 0.2)
    templates = dict(line.split(",", 1) for line in (d / "templates.csv").read_text().splitlines()[1:])
    with (d / "raw.jsonl").open("w") as fh:
        for line in (d / "test.jsonl").read_text().splitlines():
            row = json.loads(line)
            for i, key in enumerate(row["keys"]):
                message = templates[key].replace("<*>", f"host{i}")
                record = {"message": message, "group_id": row["sequence_id"], "label": row["label"]}
                fh.write(json.dumps(record) + "\n")
        fh.write(json.dumps({"message": "no template matches this line", "group_id": "x"}) + "\n")
    return d


def run_cli_chain(data, out, llm):
    provider = ["--provider-kind", "mock"] if llm == "on" else []
    templates = data / "templates.csv"
    ingested = ok("ingest", "--templates", templates, "--logs", data / "raw.jsonl",
                  "--partition", "identifier", "--out", out / "test.jsonl")
    assert "skipped 1 unmatched messages" in ingested.output
    ok("hierarchy", "extract", "--templates", templates, "--extractor", "fixture",
       "--fixture", data / "fixture.json", "--out", out / "triples.jsonl")
    ok("hierarchy", "build", "--triples", out / "triples.jsonl", "--out", out / "tree.json")
    ok("train", "--templates", templates, "--tree", out / "tree.json", "--sequences", data / "train.jsonl",
       "--kb-dir", out / "kb", "--llm", llm, *provider)
    ok("detect", "--templates", templates, "--tree", out / "tree.json", "--kb-dir", out / "kb",
       "--test", out / "test.jsonl", "--levels", "SAE", "--detector", "exact", "--early-exit", "on",
       "--llm", llm, *provider, "--report", out / "report.jsonl")
    ok("evaluate", "--report", out / "report.jsonl", "--test", out / "test.jsonl",
       "--templates", templates, "--out", out / "eval.json")


def write_ini(data, out, llm, extra=None):
    """The INI config of the CLI chain, with `extra` keys added per section."""
    cfg = configparser.ConfigParser()
    if llm == "on":
        cfg["provider"] = {"kind": "mock"}
    cfg["ingest"] = {
        "templates": str(data / "templates.csv"),
        "logs": str(data / "raw.jsonl"),
        "partition": "identifier",
        "out": str(out / "test.jsonl"),
    }
    cfg["hierarchy"] = {
        "templates": str(data / "templates.csv"),
        "extractor": "fixture",
        "fixture": str(data / "fixture.json"),
        "triples_out": str(out / "triples.jsonl"),
        "tree_out": str(out / "tree.json"),
    }
    cfg["train"] = {"sequences": str(data / "train.jsonl"), "kb_dir": str(out / "kb"), "llm": llm}
    cfg["detect"] = {"sequences": str(out / "test.jsonl"), "llm": llm, "report": str(out / "report.jsonl")}
    cfg["eval"] = {"out": str(out / "eval.json")}
    for section, keys in (extra or {}).items():
        cfg[section] = {**(cfg[section] if cfg.has_section(section) else {}), **keys}
    config = out / "run.ini"
    with config.open("w") as fh:
        cfg.write(fh)
    return config


def run_ini_pipeline(data, out, llm):
    ok("pipeline", "--config", write_ini(data, out, llm))


def artifacts(out):
    files = {name: (out / "kb" / name).read_bytes() for name in KB_FILES}
    for name in ("test.jsonl", "triples.jsonl", "tree.json"):
        files[name] = (out / name).read_bytes()
    files["report body"] = (out / "report.jsonl").read_bytes().split(b"\n", 1)[1]
    return files


@pytest.mark.parametrize("llm", ["off", "on"])
def test_cli_chain_matches_pipeline(tmp_path, data, llm):
    cli, ini = tmp_path / "cli", tmp_path / "ini"
    cli.mkdir()
    ini.mkdir()
    run_cli_chain(data, cli, llm)
    run_ini_pipeline(data, ini, llm)

    assert artifacts(cli) == artifacts(ini)
    assert (cli / "test.jsonl").read_bytes() == (data / "test.jsonl").read_bytes()
    flat = json.loads((cli / "eval.json").read_text())
    assert sorted(flat) == ["f1", "fn", "fp", "precision", "recall", "tn", "tp"]
    assert flat == json.loads((ini / "eval.json").read_text())["metrics"]
    if llm == "on":
        report = (cli / "report.jsonl").read_text()
        assert '"source": "llm"' in report


def test_pipeline_artifacts_do_not_depend_on_the_hash_seed(tmp_path, data):
    """Two `hierlog pipeline` processes under other hash seeds, so other dict and set orders, write the same bytes."""
    runs = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        out.mkdir()
        config = write_ini(data, out, "on", {"detect": {"detector": "exact:entity=automaton"}})
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(Path(hierlog.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-m", "hierlog.cli", "pipeline", "--config", str(config)],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        runs.append({**artifacts(out), "eval.json": (out / "eval.json").read_bytes()})
    assert runs[0] == runs[1]
    assert b'"source": "llm"' in runs[0]["report body"] and b'"source": "automaton"' in runs[0]["report body"]


def test_pipeline_warns_of_unmatched_messages(tmp_path, data, caplog):
    with caplog.at_level(logging.WARNING, logger="hierlog.pipeline"):
        run_ini_pipeline(data, tmp_path, "off")
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ["[ingest] skipped 1 unmatched messages"]


@pytest.fixture(scope="module")
def trained(data, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    run_cli_chain(data, out, "off")
    return out


def test_configuration_errors_exit_2(tmp_path, data, trained):
    templates = data / "templates.csv"
    detect = ["detect", "--templates", templates, "--tree", trained / "tree.json", "--kb-dir", trained / "kb",
              "--test", trained / "test.jsonl", "--report", tmp_path / "report.jsonl"]
    timed = tmp_path / "timed.jsonl"
    timed.write_text('{"message": "Open session started", "timestamp": 0}\n'
                     '{"message": "Open session successful", "timestamp": 1}\n')
    bad_ini = tmp_path / "bad.ini"
    bad_ini.write_text("templates = t.csv\n")
    ini = tmp_path / "ini"
    ini.mkdir()
    cases = [
        [*detect, "--detector", "bogus"],
        [*detect, "--detector", "exact:galaxy=exact"],
        [*detect, "--detector", "exact:stauts=automaton"],
        [*detect, "--detector", "exact:status"],
        ["pipeline", "--config", bad_ini],
        ["pipeline", "--config", tmp_path / "missing.ini"],
        ["pipeline", "--config", write_ini(data, ini, "off", {"detect": {"detector": "bogus"}})],
        ["pipeline", "--config", write_ini(data, ini, "off", {"detect": {"levels": "AE"}})],
    ]
    for spec in ("time:abc", "time:nan", "time:1:nan", "count:1.5", "count:0.5", "count", "bogus"):
        cases.append(["ingest", "--templates", templates, "--logs", timed, "--partition", spec,
                      "--out", tmp_path / "seqs.jsonl"])
    for args in cases:
        result = invoke(*args)
        assert result.exit_code == 2, (args, result.output)
        assert result.output.startswith("error: "), (args, result.output)
        assert "Traceback" not in result.output
    assert not (tmp_path / "report.jsonl").exists()
    assert not (tmp_path / "seqs.jsonl").exists()


@pytest.mark.parametrize(
    "extra, fault",
    [
        ({"detect": {"llm_fraction": "0.5"}}, "unknown key 'llm_fraction' in section [detect]"),
        ({"detect": {"early_exlt": "off"}}, "unknown key 'early_exlt' in section [detect]"),
        ({"provider": {"kind": "mock", "retry_limit": "5"}}, "unknown key 'retry_limit' in section [provider]"),
        ({"detcet": {"llm": "on"}}, "unknown section [detcet]"),
    ],
)
def test_pipeline_rejects_unknown_ini_sections_and_keys(tmp_path, data, extra, fault):
    config = write_ini(data, tmp_path, "off", extra)
    result = invoke("pipeline", "--config", config)
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {config}: {fault}\n"
    assert not (tmp_path / "test.jsonl").exists()


NO_FIXTURE = "the fixture extractor needs a fixture file; give --fixture or [hierarchy] fixture"
NO_EXTRACTOR_PROVIDER = "the llm extractor needs a provider; give --provider-kind or a [provider] section"
NOT_A_TRIPLE = "a triple needs non-empty strings 'entity' and 'action', and 'status' if given"


@pytest.mark.parametrize(
    "extra, fault",
    [
        ({"detect": {"m": "abc"}}, "[detect] m = 'abc' is not an integer"),
        ({"detect": {"m": "-4"}}, "[detect] m must be 0 or more, not -4"),
        ({"detect": {"early_exit": "maybe"}}, "[detect] early_exit = 'maybe' is not a flag; use on, off, true or false"),
        ({"train": {"llm": "yes"}}, "[train] llm = 'yes' is not a flag; use on, off, true or false"),
        ({"train": {"resume": "2"}}, "[train] resume = '2' is not a flag; use on, off, true or false"),
        ({"hierarchy": {"resume": "yes"}}, "[hierarchy] resume = 'yes' is not a flag; use on, off, true or false"),
        ({"detect": {"llm": "yes"}}, "[detect] llm = 'yes' is not a flag; use on, off, true or false"),
        ({"detect": {"detector": "bogus"}}, "[detect] unknown detector 'bogus' for level 'status'; use 'exact' or 'automaton'"),
        ({"detect": {"levels": "AE"}}, "[detect] unknown levels 'AE'; use S, SA, SAE"),
        ({"eval": {"attribution": "maybe"}}, "[eval] attribution = 'maybe' is not a flag; use on, off, true or false"),
        ({"hierarchy": {"extractor": "bogus"}}, "[hierarchy] unknown extractor 'bogus'; use fixture, lexicon or llm"),
        ({"hierarchy": {"fixture": ""}}, f"[hierarchy] {NO_FIXTURE}"),
        ({"hierarchy": {"extractor": "llm"}}, f"[hierarchy] {NO_EXTRACTOR_PROVIDER}"),
    ],
    ids=["m-not-int", "m-negative", "early-exit-not-flag", "train-llm-not-flag", "train-resume-not-flag",
         "hierarchy-resume-not-flag", "detect-llm-not-flag", "unknown-detector", "unknown-levels",
         "attribution-not-flag", "unknown-extractor", "fixture-extractor-without-a-file",
         "llm-extractor-without-a-provider"],
)
def test_pipeline_rejects_bad_ini_values_as_configuration_errors(tmp_path, data, extra, fault):
    result = invoke("pipeline", "--config", write_ini(data, tmp_path, "off", extra))
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {fault}\n"
    assert [path.name for path in tmp_path.iterdir()] == ["run.ini"]  # no stage ran


@pytest.mark.parametrize(
    "args, fault",
    [(["--extractor", "fixture"], NO_FIXTURE), (["--extractor", "llm"], NO_EXTRACTOR_PROVIDER)],
    ids=["fixture-without-a-file", "llm-without-a-provider"],
)
def test_cli_extractor_settings_are_configuration_errors(tmp_path, data, args, fault):
    result = invoke("hierarchy", "extract", "--templates", data / "templates.csv", *args,
                    "--out", tmp_path / "triples.jsonl")
    assert (result.exit_code, result.output) == (2, f"error: {fault}\n")
    assert not (tmp_path / "triples.jsonl").exists()


@pytest.mark.parametrize(
    "kind, text, fault",
    [
        ("fixture", '["x"]', "a fixture is a JSON object mapping each template key to its triple"),
        ("fixture", '{"k1": "x"}', f"key 'k1': {NOT_A_TRIPLE}"),
        ("fixture", '{"k1": {"entity": "Session", "action": 3}}', f"key 'k1': {NOT_A_TRIPLE}"),
        ("fixture", '{"k1": {"entity": "", "action": "open"}}', f"key 'k1': {NOT_A_TRIPLE}"),
        ("fixture", "{", "invalid JSON: Expecting property name enclosed in double quotes at line 1 column 2"),
        ("lexicon", '{"action_verbs": 5}', "field 'action_verbs' must be a list of strings"),
        ("lexicon", '{"status_words": ["ok", null]}', "field 'status_words' must be a list of strings"),
        ("lexicon", '{"entity_terms": {"disk": 1}}', "field 'entity_terms' must be an object of strings"),
        ("lexicon", "[]", "a lexicon is a JSON object"),
    ],
    ids=["fixture-list", "fixture-triple-a-string", "fixture-action-an-int", "fixture-entity-empty", "fixture-not-json",
         "lexicon-verbs-an-int", "lexicon-word-null", "lexicon-term-an-int", "lexicon-list"],
)
def test_extractor_files_of_the_wrong_shape_name_the_file(tmp_path, data, kind, text, fault):
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    result = invoke("hierarchy", "extract", "--templates", data / "templates.csv", "--extractor", kind,
                    f"--{kind}", path, "--out", tmp_path / "triples.jsonl")
    assert (result.exit_code, result.output) == (1, f"error: {path}: {fault}\n")
    assert not (tmp_path / "triples.jsonl").exists()


def test_a_missing_recorded_fixture_is_a_configuration_error(tmp_path, data, trained):
    missing = tmp_path / "no-such-file.jsonl"
    fault = f"provider: [Errno 2] No such file or directory: '{missing}'"
    result = invoke("detect", "--templates", data / "templates.csv", "--tree", trained / "tree.json",
                    "--kb-dir", trained / "kb", "--test", trained / "test.jsonl", "--llm", "on",
                    "--provider-kind", "recorded", "--provider-fixture", missing, "--report", tmp_path / "report.jsonl")
    assert (result.exit_code, result.output) == (2, f"error: {fault}\n")
    assert not (tmp_path / "report.jsonl").exists()
    ini = tmp_path / "ini"
    ini.mkdir()
    config = write_ini(data, ini, "on", {"provider": {"kind": "recorded", "fixture_path": str(missing)}})
    result = invoke("pipeline", "--config", config)
    assert (result.exit_code, result.output) == (2, f"error: {fault}\n")
    assert [path.name for path in ini.iterdir()] == ["run.ini"]


@pytest.mark.parametrize(
    "fault_kind",
    ["file-endpoint", "port-not-numeric", "unset-auth-env", "empty-auth-env", "crlf-in-token", "non-latin-1-token"],
)
def test_a_bad_chat_endpoint_or_credential_is_a_configuration_error(tmp_path, data, trained, monkeypatch, fault_kind):
    token = {"empty-auth-env": "", "crlf-in-token": "tok\r\nX-Injected: 1", "non-latin-1-token": "tok-\u03a9"}
    if fault_kind in token:
        monkeypatch.setenv("HIERLOG_CHAT_TOKEN", token[fault_kind])
    else:
        monkeypatch.delenv("HIERLOG_CHAT_TOKEN", raising=False)
    if fault_kind in ("file-endpoint", "port-not-numeric"):
        endpoint = (tmp_path / "reply.json").as_uri() if fault_kind == "file-endpoint" else "http://127.0.0.1:abc/v1"
        auth_env = ""
        fault = f"provider: http_chat endpoint {endpoint!r} is not an http:// or https:// URL with a host"
    else:
        endpoint, auth_env = "http://127.0.0.1:9/v1/chat/completions", "HIERLOG_CHAT_TOKEN"
        why = "which is unset or empty" if fault_kind.endswith("auth-env") else "whose value is not printable ASCII"
        fault = f"provider: auth_env names HIERLOG_CHAT_TOKEN, {why}"
    result = invoke("detect", "--templates", data / "templates.csv", "--tree", trained / "tree.json",
                    "--kb-dir", trained / "kb", "--test", trained / "test.jsonl", "--llm", "on",
                    "--provider-kind", "http_chat", "--provider-endpoint", endpoint,
                    "--provider-auth-env", auth_env, "--report", tmp_path / "report.jsonl")
    assert (result.exit_code, result.output) == (2, f"error: {fault}\n")
    assert not (tmp_path / "report.jsonl").exists()
    ini = tmp_path / "ini"
    ini.mkdir()
    provider = {"kind": "http_chat", "endpoint": endpoint, "auth_env": auth_env}
    result = invoke("pipeline", "--config", write_ini(data, ini, "on", {"provider": provider}))
    assert (result.exit_code, result.output) == (2, f"error: {fault}\n")
    assert [path.name for path in ini.iterdir()] == ["run.ini"]


def test_an_http_chat_pipeline_writes_what_a_mock_one_does(tmp_path, data, chat_server):
    """The INI pipeline through a loopback chat endpoint that answers as `MockProvider` does."""
    http_chat = {"kind": "http_chat", "endpoint": chat_server.url, "model": "chat-1"}
    runs = []
    for name, provider in (("mock", {"kind": "mock"}), ("http", http_chat)):
        out = tmp_path / name
        out.mkdir()
        ok("pipeline", "--config", write_ini(data, out, "on", {"provider": provider}))
        runs.append({**artifacts(out), "eval.json": (out / "eval.json").read_bytes()})
    assert runs[0] == runs[1]
    assert b'"source": "llm"' in runs[1]["report body"]
    assert chat_server.requests


def test_pipeline_accepts_default_keys_used_for_interpolation(tmp_path, data):
    config = write_ini(data, tmp_path, "off", {"eval": {"out": "%(out_dir)s/eval.json"}})
    config.write_text(f"[DEFAULT]\nout_dir = {tmp_path}\n\n" + config.read_text())
    ok("pipeline", "--config", config)
    assert (tmp_path / "eval.json").exists()


def test_llm_fraction_option_is_gone(tmp_path, data, trained):
    result = invoke("detect", "--templates", data / "templates.csv", "--tree", trained / "tree.json",
                    "--kb-dir", trained / "kb", "--test", trained / "test.jsonl", "--llm-fraction", 0.5,
                    "--report", tmp_path / "report.jsonl")
    assert result.exit_code == 2
    assert "No such option '--llm-fraction'" in result.output


def test_llm_off_leaves_the_llm_caches_empty(trained):
    for level in ("entity", "action", "status"):
        assert json.loads((trained / "kb" / f"test_{level}.json").read_text())["entries"] == []


def train_only_kb(trained, out):
    """A copy of the trained KB directory without its test caches."""
    out.mkdir()
    for level in ("entity", "action", "status"):
        shutil.copy(trained / "kb" / f"train_{level}.json", out)
    return out


def test_exact_detect_leaves_a_later_automaton_detect_unchanged(tmp_path, data, trained):
    def detect(kb, detector, report):
        ok("detect", "--templates", data / "templates.csv", "--tree", trained / "tree.json", "--kb-dir", kb,
           "--test", trained / "test.jsonl", "--detector", detector, "--early-exit", "off", "--report", report)
        return report.read_bytes().split(b"\n", 1)[1]

    shared = train_only_kb(trained, tmp_path / "shared")
    exact = detect(shared, "exact", tmp_path / "exact.jsonl")
    after_exact = detect(shared, "automaton", tmp_path / "after_exact.jsonl")
    fresh = detect(train_only_kb(trained, tmp_path / "fresh"), "automaton", tmp_path / "fresh.jsonl")
    assert after_exact == fresh
    assert exact != fresh


def test_evaluate_names_the_ids_missing_from_the_report(tmp_path, data, trained):
    lines = (trained / "report.jsonl").read_text().splitlines(keepends=True)
    truncated = tmp_path / "report.jsonl"
    truncated.write_text("".join(lines[:-3]))
    missing = [json.loads(line)["sequence_id"] for line in lines[-3:]]
    result = invoke("evaluate", "--report", truncated, "--test", trained / "test.jsonl",
                    "--templates", data / "templates.csv")
    assert result.exit_code == 1
    assert result.output == f"error: the report lacks 3 labeled sequence(s): {', '.join(missing)}\n"


def detect_with_kb(data, trained, kb, report):
    return invoke("detect", "--templates", data / "templates.csv", "--tree", trained / "tree.json",
                  "--kb-dir", kb, "--test", trained / "test.jsonl", "--report", report)


def test_detect_rejects_swapped_or_outdated_kb_files(tmp_path, data, trained):
    def detect(kb):
        return detect_with_kb(data, trained, kb, tmp_path / "report.jsonl")

    swapped = train_only_kb(trained, tmp_path / "swapped")
    shutil.copy(trained / "kb" / "train_action.json", swapped / "train_status.json")
    shutil.copy(trained / "kb" / "train_status.json", swapped / "train_action.json")
    result = detect(swapped)
    assert result.exit_code == 1
    assert "train_action.json holds the train KB of level 'status'" in result.output

    outdated = train_only_kb(trained, tmp_path / "outdated")
    kb = json.loads((outdated / "train_entity.json").read_text())
    kb["format_version"] -= 1
    (outdated / "train_entity.json").write_text(json.dumps(kb))
    result = detect(outdated)
    assert result.exit_code == 1
    assert str(outdated / "train_entity.json") in result.output
    assert "re-run `hierlog train`" in result.output
    assert not (tmp_path / "report.jsonl").exists()


@pytest.fixture(scope="module")
def trained_llm(data, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained_llm")
    run_cli_chain(data, out, "on")
    return out


def format_3(kb):
    """A format-4 train KB's JSON as format 3 wrote it: one object per entry, signatures and the transition index."""
    entries, index = [], {}
    for parent, rows in kb["groups"]:
        pairs = index.setdefault(">".join(parent), set())  # no name in these KBs needs escaping
        for nodes, count, chunk, summary, embedding in rows:
            entries.append({"signature": make_signature(parent, nodes), "parent_path": parent, "nodes": nodes,
                            "example_chunk": chunk, "occurrence_count": count, "summary": summary,
                            "embedding": embedding})
            pairs.update(zip([START_MARK, *nodes], [*nodes, END_MARK]))
    return {"format_version": 3, "role": kb["role"], "level": kb["level"],
            "entries": sorted(entries, key=lambda e: e["signature"]),
            "transition_index": {parent: sorted(map(list, pairs)) for parent, pairs in sorted(index.items())}}


def write_old_format(trained_llm, out, version):
    """The LLM-on train KBs of `trained_llm` in format 3; in format 2, each embedding was a dense 256-wide list."""
    old = train_only_kb(trained_llm, out)
    for level in ("entity", "action", "status"):
        path = old / f"train_{level}.json"
        kb = format_3(json.loads(path.read_text()))
        assert kb["entries"] and all(row["embedding"] for row in kb["entries"])
        if version == 2:
            for row in kb["entries"]:
                vector = [0.0] * 256
                for i, x in row["embedding"]:
                    vector[i] = x
                row["embedding"] = vector
        kb["format_version"] = version
        path.write_text(json.dumps(kb, sort_keys=True))
    return old


def assert_old_format_rejected(tmp_path, data, trained_llm, version):
    old = write_old_format(trained_llm, tmp_path / f"v{version}", version)
    result = detect_with_kb(data, trained_llm, old, tmp_path / "report.jsonl")
    assert result.exit_code == 1
    assert f"{old / 'train_entity.json'}: KB format version {version}, expected {KB_FORMAT_VERSION}" in result.output
    assert "re-run `hierlog train`" in result.output
    assert not (tmp_path / "report.jsonl").exists()


def test_detect_rejects_a_version_2_kb_directory(tmp_path, data, trained_llm):
    assert_old_format_rejected(tmp_path, data, trained_llm, 2)


def test_detect_rejects_a_format_3_kb_directory(tmp_path, data, trained_llm):
    assert_old_format_rejected(tmp_path, data, trained_llm, 3)


def test_detect_names_the_file_and_entry_of_a_missing_field(tmp_path, data, trained):
    kb_dir = train_only_kb(trained, tmp_path / "kb")
    path = kb_dir / "train_status.json"
    kb = json.loads(path.read_text())
    del kb["groups"][0][1][0][1:]
    path.write_text(json.dumps(kb))
    result = detect_with_kb(data, trained, kb_dir, tmp_path / "report.jsonl")
    assert result.exit_code == 1
    assert f"error: {path}: group 0, row 0: missing field 'occurrence_count'" in result.output
    assert not (tmp_path / "report.jsonl").exists()


@pytest.mark.parametrize("text", ["", '{"nodes": ['], ids=["empty", "not-json"])
def test_train_names_a_tree_file_it_cannot_load(tmp_path, data, text):
    path = tmp_path / "tree.json"
    path.write_text(text)
    result = invoke("train", "--templates", data / "templates.csv", "--tree", path,
                    "--sequences", data / "train.jsonl", "--kb-dir", tmp_path / "kb")
    assert result.exit_code == 1
    assert result.output.startswith(f"error: cannot load tree from {path}: ")
    assert "Traceback" not in result.output
    assert not (tmp_path / "kb").exists()


NO_PROVIDER = "the LLM path is on but no provider is set; give --provider-kind or a [provider] section"


def test_cli_llm_on_without_a_provider_is_a_configuration_error(tmp_path, data, trained):
    result = invoke("train", "--templates", data / "templates.csv", "--tree", trained / "tree.json",
                    "--sequences", data / "train.jsonl", "--kb-dir", tmp_path / "kb", "--llm", "on")
    assert (result.exit_code, result.output) == (2, f"error: {NO_PROVIDER}\n")
    assert not (tmp_path / "kb").exists()
    result = invoke("detect", "--templates", data / "templates.csv", "--tree", trained / "tree.json",
                    "--kb-dir", trained / "kb", "--test", trained / "test.jsonl", "--llm", "on",
                    "--report", tmp_path / "report.jsonl")
    assert (result.exit_code, result.output) == (2, f"error: {NO_PROVIDER}\n")
    assert not (tmp_path / "report.jsonl").exists()


@pytest.mark.parametrize("stage", ["train", "detect"])
def test_ini_llm_on_without_a_provider_is_a_configuration_error(tmp_path, data, stage):
    result = invoke("pipeline", "--config", write_ini(data, tmp_path, "off", {stage: {"llm": "on"}}))
    assert (result.exit_code, result.output) == (2, f"error: [{stage}] {NO_PROVIDER}\n")
    assert [path.name for path in tmp_path.iterdir()] == ["run.ini"]  # no stage ran


def test_train_names_the_tree_file_and_node_of_a_bad_tree(tmp_path, data, trained):
    tree = json.loads((trained / "tree.json").read_text())
    first, second = tree["keys"][:2]
    second[1:] = first[1:]  # a row's path names one status node, so two keys cannot share it
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    result = invoke("train", "--templates", data / "templates.csv", "--tree", path,
                    "--sequences", data / "train.jsonl", "--kb-dir", tmp_path / "kb")
    assert result.exit_code == 1
    assert result.output.startswith(f"error: {path}: row 1: key {second[0]!r} has the path ")
    assert "Traceback" not in result.output
    assert not (tmp_path / "kb").exists()


def format_1(tree):
    """A format-2 tree's JSON as format 1 wrote it: a node graph linked by id."""
    nodes = {"root": {"node_id": "root", "level": "root", "name": "root", "parent_id": None, "key": None}}
    for key, entity, action, status in tree["keys"]:
        e, a = f"e:{entity}", f"a:{entity}/{action}"  # no name in these trees needs escaping
        nodes[e] = {"node_id": e, "level": "entity", "name": entity, "parent_id": "root", "key": None}
        nodes[a] = {"node_id": a, "level": "action", "name": action, "parent_id": e, "key": None}
        nodes[f"s:{key}"] = {"node_id": f"s:{key}", "level": "status", "name": status, "parent_id": a, "key": key}
    return {"format_version": 1, "nodes": sorted(nodes.values(), key=lambda n: n["node_id"])}


def test_a_format_1_tree_must_be_rebuilt(tmp_path, data, trained):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(format_1(json.loads((trained / "tree.json").read_text()))))
    fault = f"{path}: unsupported tree format version: 1; re-run hierlog hierarchy build"
    result = invoke("train", "--templates", data / "templates.csv", "--tree", path,
                    "--sequences", data / "train.jsonl", "--kb-dir", tmp_path / "kb")
    assert (result.exit_code, result.output) == (1, f"error: {fault}\n")
    result = invoke("detect", "--templates", data / "templates.csv", "--tree", path, "--kb-dir", trained / "kb",
                    "--test", trained / "test.jsonl", "--report", tmp_path / "report.jsonl")
    assert (result.exit_code, result.output) == (1, f"error: {fault}\n")
    result = invoke("pipeline", "--config", write_ini(data, tmp_path, "off", {"hierarchy": {"resume": "on",
                                                                                           "tree_out": str(path)}}))
    assert (result.exit_code, result.output) == (1, f"error: [hierarchy] {fault}\n")
    assert not (tmp_path / "kb").exists() and not (tmp_path / "report.jsonl").exists()


def test_detect_counts_the_sequences_undecided_by_provider_errors(tmp_path, data, trained_llm, caplog):
    fixture = tmp_path / "empty.jsonl"
    fixture.write_text("")  # every LLM call fails: no request was recorded
    kb_dir = train_only_kb(trained_llm, tmp_path / "kb")  # no cached LLM verdicts
    report = tmp_path / "report.jsonl"
    with caplog.at_level(logging.WARNING, logger="hierlog.pipeline"):
        result = invoke("detect", "--templates", data / "templates.csv", "--tree", trained_llm / "tree.json",
                        "--kb-dir", kb_dir, "--test", trained_llm / "test.jsonl", "--llm", "on",
                        "--provider-kind", "recorded", "--provider-fixture", fixture, "--report", report)
    lines = [json.loads(line) for line in report.read_text().splitlines()[1:]]
    flagged = sum(line["final_verdict"] for line in lines)
    undecided = sum(line["counters"]["provider_errors"] > 0 for line in lines)
    assert 0 < undecided <= flagged
    assert (result.exit_code, result.output) == (
        0, f"{flagged}/{len(lines)} sequences flagged abnormal, {undecided} undecided by provider errors; "
           f"report at {report}\n")
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING and r.name == "hierlog.pipeline"]
    assert warnings == [f"{undecided} of {len(lines)} reports hold a verdict left undecided by a provider error"]


def test_detect_without_provider_errors_prints_no_undecided_count(tmp_path, data, trained):
    report = tmp_path / "report.jsonl"
    result = ok("detect", "--templates", data / "templates.csv", "--tree", trained / "tree.json",
                "--kb-dir", train_only_kb(trained, tmp_path / "kb"), "--test", trained / "test.jsonl",
                "--report", report)
    lines = [json.loads(line) for line in report.read_text().splitlines()[1:]]
    flagged = sum(line["final_verdict"] for line in lines)
    assert result.output == f"{flagged}/{len(lines)} sequences flagged abnormal; report at {report}\n"


def test_hierarchy_build_prints_the_node_count(tmp_path, trained):
    rows = [json.loads(line) for line in (trained / "triples.jsonl").read_text().splitlines()]
    nodes = 1 + len({r["entity"] for r in rows}) + len({(r["entity"], r["action"]) for r in rows}) + len(rows)
    path = tmp_path / "tree.json"
    result = ok("hierarchy", "build", "--triples", trained / "triples.jsonl", "--out", path)
    assert result.output == f"wrote tree with {nodes} nodes to {path}\n"
    assert path.read_bytes() == (trained / "tree.json").read_bytes()


def test_cli_negative_m_is_a_configuration_error(tmp_path, data, trained_llm):
    result = invoke("detect", "--templates", data / "templates.csv", "--tree", trained_llm / "tree.json",
                    "--kb-dir", trained_llm / "kb", "--test", trained_llm / "test.jsonl", "--llm", "on",
                    "--provider-kind", "mock", "--m", -4, "--report", tmp_path / "report.jsonl")
    assert (result.exit_code, result.output) == (2, "error: m must be 0 or more, not -4\n")
    assert not (tmp_path / "report.jsonl").exists()


def test_detect_logs_memo_hits_and_misses(tmp_path, data, caplog):
    with caplog.at_level(logging.INFO, logger="hierlog.pipeline"):
        run_ini_pipeline(data, tmp_path, "off")
    n = len((tmp_path / "test.jsonl").read_text().splitlines())
    distinct = len({tuple(json.loads(line)["keys"]) for line in (tmp_path / "test.jsonl").read_text().splitlines()})
    lines = [r.getMessage() for r in caplog.records if "memo" in r.getMessage()]
    assert lines == [f"detected {n} sequences: {n - distinct} memo hits, {distinct} misses, 0 LLM calls"]
    assert "memo" not in (tmp_path / "report.jsonl").read_text().split("\n", 1)[1]
    assert "memo" not in (tmp_path / "eval.json").read_text()


def test_detect_logs_the_llm_calls_that_eval_json_counts(tmp_path, data, caplog):
    with caplog.at_level(logging.INFO, logger="hierlog.pipeline"):
        run_ini_pipeline(data, tmp_path, "on")
    [line] = [r.getMessage() for r in caplog.records if "memo" in r.getMessage()]
    structure = json.loads((tmp_path / "eval.json").read_text())["structure"]
    assert structure["llm_calls"] > 0
    assert line.endswith(f", {structure['llm_calls']} LLM calls")
    assert "llm_calls" not in (tmp_path / "report.jsonl").read_text().split("\n", 1)[1]


def logged_verdict_tallies(tmp_path, data, caplog, llm):
    """The run's "sub-sequence verdicts" log lines, and the line that each way of keying a run predicts.

    A tally counts the distinct keys each level checked over the first
    sight of each key list (later sights are memo hits): one keys a run by
    its pattern, its parent path and node names, the other by its chunk.
    """
    with caplog.at_level(logging.INFO, logger="hierlog.pipeline"):
        run_ini_pipeline(data, tmp_path, llm)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("sub-sequence verdicts:")]
    tree = TopicTree.load(tmp_path / "tree.json")
    reports = [json.loads(line) for line in (tmp_path / "report.jsonl").read_text().splitlines()[1:]]
    seqs = [json.loads(line)["keys"] for line in (tmp_path / "test.jsonl").read_text().splitlines()]
    by_pattern = {"status": [], "action": [], "entity": []}
    by_chunk = {"status": [], "action": [], "entity": []}
    for i in sorted({tuple(keys): i for i, keys in reversed(list(enumerate(seqs)))}.values()):
        result = top_down_decompose(seqs[i], tree)
        by_level = {"status": result.s_seqs, "action": result.a_seqs, "entity": [result.e_seq]}
        for level, checked in by_level.items():
            checked = checked[: reports[i]["counters"]["evals_per_level"][level]]
            by_pattern[level] += [(tuple(seq.parent_path), tuple(seq.nodes)) for seq in checked]
            by_chunk[level] += [tuple(seq.chunk) for seq in checked]
    assert "hits" not in (tmp_path / "report.jsonl").read_text().split("\n", 1)[1]
    assert "hits" not in (tmp_path / "eval.json").read_text()
    assert len(by_chunk["status"]) > len(set(by_chunk["status"]))  # the corpus repeats status chunks

    def line(tally):
        per_level = (f"{level} {len(c) - len(set(c))} hits, {len(set(c))} misses" for level, c in tally.items())
        return "sub-sequence verdicts: " + ", ".join(per_level)

    return lines, line(by_pattern), line(by_chunk)


def test_detect_logs_sub_sequence_verdict_hits_and_misses(tmp_path, data, caplog):
    lines, by_pattern, by_chunk = logged_verdict_tallies(tmp_path, data, caplog, "off")
    assert lines == [by_pattern]
    assert by_pattern != by_chunk  # some distinct chunks share a pattern


def test_detect_logs_sub_sequence_verdicts_by_chunk_with_the_llm_on(tmp_path, data, caplog):
    lines, by_pattern, by_chunk = logged_verdict_tallies(tmp_path, data, caplog, "on")
    assert lines == [by_chunk]
    assert by_pattern != by_chunk


def _second_group(kb):
    return kb["groups"][1]


# case -> (an edit of a train_status.json, the fault reported)
ROW_FAULTS = {
    "int-name-in-parent-path": (
        lambda kb: _second_group(kb)[0].__setitem__(2, 3), "group 1: field 'parent_path' has a bad value"
    ),
    "wide-row": (lambda kb: _second_group(kb)[1][0].append(None), "group 1, row 0: has 3 fields, but a row of this KB"),
    "duplicate-row": (
        lambda kb: _second_group(kb)[1].append(_second_group(kb)[1][0]), "group 1, row 1: repeats the parent path"
    ),
}


@pytest.mark.parametrize("case", list(ROW_FAULTS))
def test_detect_names_the_file_group_and_row_of_a_bad_train_row(tmp_path, data, trained, case):
    edit, fault = ROW_FAULTS[case]
    kb_dir = train_only_kb(trained, tmp_path / "kb")
    path = kb_dir / "train_status.json"
    kb = json.loads(path.read_text())
    edit(kb)
    path.write_text(json.dumps(kb))
    result = detect_with_kb(data, trained, kb_dir, tmp_path / "report.jsonl")
    assert result.exit_code == 1, result.output
    assert result.output.startswith(f"error: {path}: {fault}")
    assert "re-run `hierlog train`" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "report.jsonl").exists()


def _train_files(kb_dir):
    """Each train KB file's inode and bytes: a rewrite, even of the same bytes, makes a new inode."""
    paths = [kb_dir / f"train_{level}.json" for level in ("entity", "action", "status")]
    return {path.name: (path.stat().st_ino, path.read_bytes()) for path in paths}


def test_detect_and_a_resumed_pipeline_leave_the_train_files_alone(tmp_path, data, trained):
    kb_dir = train_only_kb(trained, tmp_path / "kb")
    before = _train_files(kb_dir)
    ok("detect", "--templates", data / "templates.csv", "--tree", trained / "tree.json", "--kb-dir", kb_dir,
       "--test", trained / "test.jsonl", "--report", tmp_path / "report.jsonl")
    assert (kb_dir / "test_status.json").exists()
    assert _train_files(kb_dir) == before

    shutil.copy(trained / "tree.json", tmp_path / "tree.json")
    resume = {"hierarchy": {"resume": "on"}, "train": {"resume": "on", "kb_dir": str(kb_dir)}}
    config = write_ini(data, tmp_path, "off", resume)
    ok("pipeline", "--config", config)
    assert (tmp_path / "report.jsonl").read_bytes().split(b"\n", 1)[1] == (
        (trained / "report.jsonl").read_bytes().split(b"\n", 1)[1]
    )
    assert _train_files(kb_dir) == before


def _drop_field(line, name):
    row = json.loads(line)
    del row[name]
    return json.dumps(row) + "\n"


def _with(line, **fields):
    return json.dumps({**json.loads(line), **fields}) + "\n"


def _repeated_id(lines):
    """An abnormal and a normal line under one id: scored by id, they would count as one missed anomaly and one
    true negative."""
    pair = [next(line for line in lines if json.loads(line)["label"] is value) for value in (True, False)]
    return "".join(_with(line, sequence_id="x") for line in pair)


UNMATCHED = json.dumps({"message": "no template matches this line"}) + "\n"
NOT_A_LABEL = "field 'label' must be true, false or null"

# case -> (command, the option naming the input, the input's file name, its text made from the lines of the
# trained run's or the corpus's file of that name, the fault reported after "<path>: ")
JSONL_FAULTS = {
    "catalog-row-with-one-column": (
        "ingest", "--templates", "templates.csv", lambda lines: lines[0] + "justonecolumn\n",
        "line 2: expected columns (key, template)",
    ),
    "jsonl-catalog-without-template": (
        "ingest", "--templates", "templates.jsonl", lambda lines: '{"key": "k1", "template": "x"}\n{"key": "k2"}\n',
        "line 2: missing field 'template'",
    ),
    "jsonl-catalog-key-null": (
        "ingest", "--templates", "templates.jsonl", lambda lines: '{"key": null, "template": "x y"}\n',
        "line 1: field 'key' must be a string",
    ),
    "jsonl-catalog-template-a-list": (
        "ingest", "--templates", "templates.jsonl",
        lambda lines: '{"key": "k1", "template": "x"}\n{"key": "k2", "template": ["a", "b"]}\n',
        "line 2: field 'template' must be a string",
    ),
    "raw-record-without-message": (
        "ingest", "--logs", "raw.jsonl", lambda lines: lines[0] + '{"timestamp": 1}\n',
        "line 2: missing field 'message'",
    ),
    # a "false" string is truthy: scored, it would count the sequence as abnormal
    "raw-label-a-string": (
        "ingest", "--logs", "raw.jsonl", lambda lines: _with(lines[0], label="false") + "".join(lines[1:]),
        f"line 1: {NOT_A_LABEL}",
    ),
    "raw-group-id-a-list": (
        "ingest", "--logs", "raw.jsonl", lambda lines: _with(UNMATCHED, group_id=["a"]),
        "line 1: field 'group_id' must be a string or null",
    ),
    "raw-group-id-an-int": (
        "ingest", "--logs", "raw.jsonl", lambda lines: _with(UNMATCHED, group_id=5),
        "line 1: field 'group_id' must be a string or null",
    ),
    # the line in the file, not the index among the records that matched a template
    "raw-record-without-group-id": (
        "ingest", "--logs", "raw.jsonl", lambda lines: UNMATCHED * 2 + _drop_field(lines[0], "group_id"),
        "line 3: identifier mode requires group_id",
    ),
    "raw-record-without-timestamp": (
        "ingest-by-time", "--logs", "raw.jsonl",
        lambda lines: UNMATCHED + "\n" + _with(lines[0], timestamp=0) + lines[1],
        "line 4: time_window mode requires a finite numeric timestamp",
    ),
    "sequence-id-a-list": (
        "detect", "--test", "test.jsonl", lambda lines: "".join(lines[:2]) + _with(lines[2], sequence_id=["a"]),
        "line 3: field 'sequence_id' must be a string",
    ),
    "sequence-id-an-int": (
        "detect", "--test", "test.jsonl", lambda lines: "".join(lines[:2]) + _with(lines[2], sequence_id=5),
        "line 3: field 'sequence_id' must be a string",
    ),
    "sequence-label-a-string": (
        "evaluate", "--test", "test.jsonl",
        lambda lines: "".join(_with(line, label=str(json.loads(line)["label"]).lower()) for line in lines),
        f"line 1: {NOT_A_LABEL}",
    ),
    "repeated-sequence-id-in-detect": (
        "detect", "--test", "test.jsonl", _repeated_id, "line 2: repeated sequence_id 'x', first at line 1",
    ),
    "repeated-sequence-id-in-evaluate": (
        "evaluate", "--test", "test.jsonl", _repeated_id, "line 2: repeated sequence_id 'x', first at line 1",
    ),
    "triple-without-action": (
        "build", "--triples", "triples.jsonl", lambda lines: lines[0] + _drop_field(lines[1], "action"),
        "line 2: missing field 'action'",
    ),
    "triple-not-json": (
        "build", "--triples", "triples.jsonl", lambda lines: lines[0] + "not json\n",
        "line 2: invalid JSON: Expecting value at column 1",
    ),
    "empty-report": (
        "evaluate", "--report", "report.jsonl", lambda lines: "",
        "line 1: missing field 'meta': a report starts with its meta header",
    ),
    "report-without-verdict": (
        "evaluate", "--report", "report.jsonl",
        lambda lines: "".join(lines[:2]) + _drop_field(lines[2], "final_verdict"),
        "line 3: missing field 'final_verdict'",
    ),
    # scored by id, a repeated id would drop one of its verdicts
    "report-with-a-repeated-id": (
        "evaluate", "--report", "report.jsonl",
        lambda lines: lines[0] + _with(lines[1], sequence_id="x") + _with(lines[2], sequence_id="x"),
        "line 3: repeated sequence_id 'x', first at line 2",
    ),
    "report-id-not-a-string": (
        "evaluate", "--report", "report.jsonl", lambda lines: lines[0] + _with(lines[1], sequence_id=["x"]),
        "line 2: field 'sequence_id' must be a string",
    ),
    "fixture-without-hash": (
        "train", "--provider-fixture", "fixture.jsonl", lambda lines: '{"response": "VERDICT: NORMAL"}\n',
        "line 1: missing field 'request_hash'",
    ),
}


def _command(command, data, trained, out):
    """The words and the options of a command that reads the trained run's files and writes `out`."""
    templates, tree = data / "templates.csv", trained / "tree.json"
    ingest = {"--templates": templates, "--logs": data / "raw.jsonl", "--partition": "identifier", "--out": out}
    return {
        "ingest": (["ingest"], ingest),
        "ingest-by-time": (["ingest"], {**ingest, "--partition": "time:10"}),
        "build": (["hierarchy", "build"], {"--triples": trained / "triples.jsonl", "--out": out}),
        "train": (["train"], {"--templates": templates, "--tree": tree, "--sequences": data / "train.jsonl",
                              "--kb-dir": out, "--llm": "on", "--provider-kind": "recorded"}),
        "detect": (["detect"], {"--templates": templates, "--tree": tree, "--kb-dir": trained / "kb",
                                "--test": trained / "test.jsonl", "--report": out}),
        "evaluate": (["evaluate"], {"--report": trained / "report.jsonl", "--test": trained / "test.jsonl",
                                    "--templates": templates, "--out": out}),
    }[command]


@pytest.mark.parametrize("case", list(JSONL_FAULTS))
def test_bad_jsonl_input_names_the_file_line_and_field(tmp_path, data, trained, case):
    command, option, name, make, fault = JSONL_FAULTS[case]
    source = next((d / name for d in (trained, data) if (d / name).exists()), None)
    path = tmp_path / name
    path.write_text(make(source.read_text().splitlines(keepends=True) if source else []))
    words, options = _command(command, data, trained, tmp_path / "out")
    result = invoke(*words, *(arg for pair in {**options, option: path}.items() for arg in pair))
    assert result.exit_code == 1, result.output
    assert result.output == f"error: {path}: {fault}\n"
    assert not (tmp_path / "out").exists()
