"""The CLI chain documented in the README against `hierlog pipeline`.

Each stage command, run in turn, must write the same tree, KB files,
report body and metrics as one `hierlog pipeline` run over the same
inputs; configuration errors must exit with code 2.
"""

import configparser
import json
import logging
import shutil

import pytest
from click.testing import CliRunner

from hierlog.cli import main

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
    cases = [
        [*detect, "--detector", "bogus"],
        [*detect, "--detector", "exact:galaxy=exact"],
        ["pipeline", "--config", bad_ini],
        ["pipeline", "--config", tmp_path / "missing.ini"],
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


def test_detect_rejects_a_version_2_kb_directory(tmp_path, data, trained_llm):
    # what the previous format wrote: every embedding as a dense 256-wide list
    old = train_only_kb(trained_llm, tmp_path / "v2")
    for level in ("entity", "action", "status"):
        path = old / f"train_{level}.json"
        kb = json.loads(path.read_text())
        assert kb["entries"] and all(row["embedding"] for row in kb["entries"])
        for row in kb["entries"]:
            vector = [0.0] * 256
            for i, x in row["embedding"]:
                vector[i] = x
            row["embedding"] = vector
        kb["format_version"] = 2
        path.write_text(json.dumps(kb, sort_keys=True))
    result = detect_with_kb(data, trained_llm, old, tmp_path / "report.jsonl")
    assert result.exit_code == 1
    assert f"{old / 'train_entity.json'}: KB format version 2, expected 3" in result.output
    assert "re-run `hierlog train`" in result.output
    assert not (tmp_path / "report.jsonl").exists()


def test_detect_names_the_file_and_entry_of_a_missing_field(tmp_path, data, trained):
    kb_dir = train_only_kb(trained, tmp_path / "kb")
    path = kb_dir / "train_status.json"
    kb = json.loads(path.read_text())
    del kb["entries"][0]["occurrence_count"]
    path.write_text(json.dumps(kb))
    result = detect_with_kb(data, trained, kb_dir, tmp_path / "report.jsonl")
    assert result.exit_code == 1
    assert f"error: {path}: entry 0: missing field 'occurrence_count'" in result.output
    assert not (tmp_path / "report.jsonl").exists()


def test_run_failures_exit_1(tmp_path, data):
    bad = tmp_path / "raw.jsonl"
    bad.write_text('{"message": "Open session started"}\n{"timestamp": 1}\n')
    result = invoke("ingest", "--templates", data / "templates.csv", "--logs", bad, "--out", tmp_path / "s.jsonl")
    assert result.exit_code == 1
    assert result.output == "error: raw log parse error at line 2: missing field 'message'\n"


def test_string_labels_are_rejected_not_scored(tmp_path, data, trained):
    # a "false" string is truthy: scored, it would count every sequence as abnormal
    relabeled = tmp_path / "test.jsonl"
    rows = [json.loads(line) for line in (trained / "test.jsonl").read_text().splitlines()]
    relabeled.write_text("".join(json.dumps({**row, "label": str(row["label"]).lower()}) + "\n" for row in rows))
    result = invoke("evaluate", "--report", trained / "report.jsonl", "--test", relabeled,
                    "--templates", data / "templates.csv", "--out", tmp_path / "eval.json")
    assert result.exit_code == 1
    assert result.output == "error: sequence file parse error at line 1: field 'label' must be true, false or null\n"
    assert not (tmp_path / "eval.json").exists()

    raw = tmp_path / "raw.jsonl"
    raw.write_text((data / "raw.jsonl").read_text().replace('"label": false', '"label": "false"', 1))
    result = invoke("ingest", "--templates", data / "templates.csv", "--logs", raw,
                    "--partition", "identifier", "--out", tmp_path / "s.jsonl")
    assert result.exit_code == 1
    assert "field 'label' must be true, false or null" in result.output


@pytest.mark.parametrize("group_id", [["a"], 5], ids=["list", "int"])
def test_ingest_rejects_a_group_id_that_is_not_a_string(tmp_path, data, group_id):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(json.dumps({"message": "no template matches this line", "group_id": group_id}) + "\n")
    result = invoke("ingest", "--templates", data / "templates.csv", "--logs", raw,
                    "--partition", "identifier", "--out", tmp_path / "s.jsonl")
    assert result.exit_code == 1
    assert result.output == "error: raw log parse error at line 1: field 'group_id' must be a string or null\n"
    assert not (tmp_path / "s.jsonl").exists()


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


@pytest.mark.parametrize("sequence_id", [["a"], 5], ids=["list", "int"])
def test_detect_rejects_a_sequence_id_that_is_not_a_string(tmp_path, data, trained, sequence_id):
    lines = (trained / "test.jsonl").read_text().splitlines(keepends=True)
    bad = tmp_path / "test.jsonl"
    bad.write_text("".join(lines[:2]) + json.dumps({**json.loads(lines[2]), "sequence_id": sequence_id}) + "\n")
    result = invoke("detect", "--templates", data / "templates.csv", "--tree", trained / "tree.json",
                    "--kb-dir", trained / "kb", "--test", bad, "--report", tmp_path / "report.jsonl")
    assert result.exit_code == 1
    assert result.output == "error: sequence file parse error at line 3: field 'sequence_id' must be a string\n"
    assert not (tmp_path / "report.jsonl").exists()


def test_train_names_the_tree_file_and_node_of_a_bad_tree(tmp_path, data, trained):
    tree = json.loads((trained / "tree.json").read_text())
    action = next(node for node in tree["nodes"] if node["level"] == "action")
    action["level"] = "status"
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    result = invoke("train", "--templates", data / "templates.csv", "--tree", path,
                    "--sequences", data / "train.jsonl", "--kb-dir", tmp_path / "kb")
    assert result.exit_code == 1
    assert result.output.startswith(f"error: {path}: node {action['node_id']!r}: ")
    assert "Traceback" not in result.output
    assert not (tmp_path / "kb").exists()


def test_detect_logs_memo_hits_and_misses(tmp_path, data, caplog):
    with caplog.at_level(logging.INFO, logger="hierlog.pipeline"):
        run_ini_pipeline(data, tmp_path, "off")
    n = len((tmp_path / "test.jsonl").read_text().splitlines())
    distinct = len({tuple(json.loads(line)["keys"]) for line in (tmp_path / "test.jsonl").read_text().splitlines()})
    lines = [r.getMessage() for r in caplog.records if "memo" in r.getMessage()]
    assert lines == [f"detected {n} sequences: {n - distinct} memo hits, {distinct} misses"]
    assert "memo" not in (tmp_path / "report.jsonl").read_text().split("\n", 1)[1]
    assert "memo" not in (tmp_path / "eval.json").read_text()


@pytest.mark.parametrize(
    "pairs",
    [[1], [["<start>"]], [["<start>", 3]]],
    ids=["int-pair", "one-element-pair", "non-string-member"],
)
def test_detect_names_the_file_and_parent_of_a_bad_transition_pair(tmp_path, data, trained, pairs):
    kb_dir = train_only_kb(trained, tmp_path / "kb")
    path = kb_dir / "train_entity.json"
    kb = json.loads(path.read_text())
    parent = sorted(kb["transition_index"])[0]
    kb["transition_index"][parent] = pairs
    path.write_text(json.dumps(kb))
    result = detect_with_kb(data, trained, kb_dir, tmp_path / "report.jsonl")
    assert result.exit_code == 1, result.output
    assert result.output.startswith(f"error: {path}: transition_index[{parent!r}] must be a list of")
    assert "Traceback" not in result.output
    assert not (tmp_path / "report.jsonl").exists()


def _drop_field(line, name):
    row = json.loads(line)
    del row[name]
    return json.dumps(row) + "\n"


# case -> (input written from the trained run's lines, the command reading it, the fault reported)
JSONL_FAULTS = {
    "triple-without-action": (
        "triples.jsonl", lambda lines: lines[0] + _drop_field(lines[1], "action"), "build", "line 2: missing field 'action'"
    ),
    "triple-not-json": (
        "triples.jsonl", lambda lines: lines[0] + "not json\n", "build", "line 2: invalid JSON: Expecting value at column 1"
    ),
    "empty-report": (
        "report.jsonl", lambda lines: "", "evaluate", "line 1: missing field 'meta': a report starts with its meta header"
    ),
    "report-without-verdict": (
        "report.jsonl", lambda lines: "".join(lines[:2]) + _drop_field(lines[2], "final_verdict"), "evaluate",
        "line 3: missing field 'final_verdict'",
    ),
    "fixture-without-hash": (
        "fixture.jsonl", lambda lines: '{"response": "VERDICT: NORMAL"}\n', "train", "line 1: missing field 'request_hash'"
    ),
}


@pytest.mark.parametrize("case", list(JSONL_FAULTS))
def test_bad_jsonl_input_names_the_file_line_and_field(tmp_path, data, trained, case):
    name, make, command, fault = JSONL_FAULTS[case]
    path = tmp_path / name
    lines = (trained / name).read_text().splitlines(keepends=True) if (trained / name).exists() else []
    path.write_text(make(lines))
    args = {
        "build": ["hierarchy", "build", "--triples", path, "--out", tmp_path / "out"],
        "evaluate": ["evaluate", "--report", path, "--test", trained / "test.jsonl",
                     "--templates", data / "templates.csv", "--out", tmp_path / "out"],
        "train": ["train", "--templates", data / "templates.csv", "--tree", trained / "tree.json",
                  "--sequences", data / "train.jsonl", "--kb-dir", tmp_path / "out", "--llm", "on",
                  "--provider-kind", "recorded", "--provider-fixture", path],
    }[command]
    result = invoke(*args)
    assert result.exit_code == 1, result.output
    assert result.output == f"error: {path}: {fault}\n"
    assert not (tmp_path / "out").exists()
