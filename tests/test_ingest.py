"""Catalog loading, message matching, and partitioning."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlog import ingest
from hierlog.errors import ConfigError, LineParseError, PartitionError
from hierlog.ingest import (
    WILDCARD,
    LogSequence,
    LogTemplate,
    PartitionSpec,
    RawColumns,
    TemplateCatalog,
    _labels_or_none,
    load_raw_records,
    load_sequences,
    load_template_catalog,
    match_message,
    match_records,
    partition,
    raw_record_line,
    read_jsonl,
    save_sequences,
)
from hierlog.pipeline import parse_partition_spec
from hierlog.synthetic import make_corpus

from conftest import toy_catalog


def _columns(rows):
    """Raw-record columns of ``rows``, each a dict as a line of a raw-record file holds it."""
    return RawColumns(*([row.get(name) for row in rows] for name in ("message", "timestamp", "group_id", "label")))


def _records(n, group=None, t0=0.0, dt=1.0, labels=None):
    return _columns([
        {"message": f"m {i}", "timestamp": t0 + i * dt, "group_id": group, "label": labels and labels[i]}
        for i in range(n)
    ])


def _partition(columns, keys, spec):
    """`partition` with every row kept, as when every message matched."""
    return partition(columns, range(len(keys)), keys, spec)


# -- catalog ------------------------------------------------------------------

def test_load_csv_with_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("key,template\nk1,Open session started\nk2,GET request sent to <*>\n")
    cat = load_template_catalog(p)
    assert len(cat) == 2
    assert [t.wildcard_count for t in cat.templates()] == [0, 1]


@pytest.mark.parametrize("text, keys", [
    ("\nkey,template\nk1,alpha <*>\n", ["k1"]),
    (" , \nKey , Template\nk1,alpha <*>\n", ["k1"]),
    ("k1,alpha <*>\nkey,template\n", ["k1", "key"]),
], ids=["after-a-blank-line", "after-blank-cells", "after-a-template"])
def test_only_the_first_non_blank_csv_row_can_be_the_header(tmp_path, text, keys):
    p = tmp_path / "t.csv"
    p.write_text(text)
    assert load_template_catalog(p).keys() == keys


def test_load_csv_without_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a1,alpha beta\na2,gamma <*>\n")
    cat = load_template_catalog(p)
    assert sorted(cat.keys()) == ["a1", "a2"]


def test_load_jsonl(tmp_path):
    p = tmp_path / "t.jsonl"
    p.write_text('{"key": "k1", "template": "alpha beta"}\n\n{"key": "k2", "template": "x <*>"}\n')
    cat = load_template_catalog(p)
    assert len(cat) == 2


def test_duplicate_key_rejected(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("k1,alpha\nk1,beta\n")
    with pytest.raises(LineParseError) as info:
        load_template_catalog(p)
    assert (info.value.line_number, info.value.reason) == (2, "duplicate template key 'k1', first at line 1")


def test_malformed_row(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("justonecolumn\n")
    with pytest.raises(LineParseError) as info:
        load_template_catalog(p)
    assert (info.value.line_number, info.value.reason) == (1, "expected columns (key, template)")
    assert str(info.value) == f"{p}: line 1: expected columns (key, template)"


def test_malformed_row_after_a_quoted_newline_names_its_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text('key,template\nk1,"Open\nsession"\njustonecolumn\n')
    with pytest.raises(LineParseError) as info:
        load_template_catalog(p)
    assert info.value.line_number == 4  # the third row


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"key": "k2", "template": "x"', "invalid JSON: Expecting ',' delimiter at column 30"),
        ('["k2", "x"]', "expected a JSON object"),
        ('{"key": "k2"}', "missing field 'template'"),
        ('{"template": "x"}', "missing field 'key'"),
    ],
    ids=["bad-json", "not-object", "missing-template", "missing-key"],
)
def test_load_jsonl_catalog_errors_carry_line_and_reason(tmp_path, line, reason):
    p = tmp_path / "t.jsonl"
    p.write_text('{"key": "k1", "template": "alpha beta"}\n' + line + "\n")
    with pytest.raises(LineParseError) as info:
        load_template_catalog(p)
    assert info.value.line_number == 2
    assert str(info.value) == f"{p}: line 2: {reason}"


# -- matching -----------------------------------------------------------------

def test_match_exact_and_wildcard(toy_cat):
    assert match_message(toy_cat, "Open session started") == "k1"
    assert match_message(toy_cat, "GET request sent to 10.0.0.1") == "k5"


def test_match_returns_none(toy_cat):
    assert match_message(toy_cat, "completely unknown message") is None
    assert match_message(toy_cat, "Open session") is None  # length mismatch


def test_match_tiebreak_prefers_fewest_wildcards():
    cat = TemplateCatalog(
        [
            LogTemplate("z1", "send <*> to <*>"),
            LogTemplate("a9", "send data to <*>"),
        ]
    )
    # both match; a9 has fewer wildcards and wins despite larger key
    assert match_message(cat, "send data to host") == "a9"


def test_match_tiebreak_smallest_key():
    cat = TemplateCatalog(
        [
            LogTemplate("b", "ping <*>"),
            LogTemplate("a", "ping <*>2"),  # same token count, same wildcards? no
        ]
    )
    assert match_message(cat, "ping x") == "b"
    cat = TemplateCatalog(
        [
            LogTemplate("b", "ping <*>"),
            LogTemplate("a", "<*> x"),
        ]
    )
    # "ping x" matches both with one wildcard each; key "a" < "b"
    assert match_message(cat, "ping x") == "a"


def test_match_long_template_without_recursion():
    n = 5000
    text = " ".join(WILDCARD if i % 3 == 0 else f"t{i}" for i in range(n))
    cat = TemplateCatalog([LogTemplate("long", text), LogTemplate("short", "t0 t1")])
    message = " ".join(f"p{i}" if i % 3 == 0 else f"t{i}" for i in range(n))
    assert match_message(cat, message) == "long"
    assert match_message(cat, message + " extra") is None


def test_sequence_keys_are_the_catalogs_own_strings(tmp_path, toy_cat):
    # one string object per key, whichever path built the sequence; the JSON
    # decoder makes a fresh string for each key it reads
    own = {k: k for k in toy_cat.keys()}
    records = _columns([{"message": m, "group_id": "g"} for m in ["Open session started", "Authentication starts"] * 2])
    report = match_records(toy_cat, records.messages)
    (matched,) = partition(records, report.kept, report.keys, PartitionSpec("identifier"))
    path = tmp_path / "seqs.jsonl"
    path.write_text(json.dumps({"sequence_id": "s", "keys": ["k1", "k3", "k1"]}) + "\n")
    (loaded,) = load_sequences(path, toy_cat)
    assert matched.keys == ["k1", "k3", "k1", "k3"] and loaded.keys == ["k1", "k3", "k1"]
    assert all(k is own[k] for k in matched.keys + loaded.keys)
    corpus = make_corpus(n_train=5, n_test=5, seed=3)
    own = {k: k for k in corpus.catalog.keys()}
    assert all(k is own[k] for seq in corpus.train + corpus.test for k in seq.keys)


def test_match_records_reports_skipped(toy_cat):
    report = match_records(toy_cat, ["Open session started", "garbage", "Authentication starts"])
    assert report.keys == ["k1", "k3"]
    assert report.kept == [0, 2]
    assert report.skipped == [(1, "garbage")]


# -- partitioning -------------------------------------------------------------

def test_count_window_spec_example(toy_cat):
    # 10 keys, window 4, stride 4 -> sizes [4, 4, 2]
    records = _records(10)
    keys = ["k1"] * 10
    seqs = _partition(records, keys, PartitionSpec("count_window", window_size=4))
    assert [len(s.keys) for s in seqs] == [4, 4, 2]


def test_count_window_with_stride(toy_cat):
    records = _records(10)
    keys = [f"k{1 + i % 6}" for i in range(10)]
    seqs = _partition(records, keys, PartitionSpec("count_window", window_size=4, stride=2))
    assert [len(s.keys) for s in seqs] == [4, 4, 4, 4]
    assert seqs[1].keys == keys[2:6]


def test_identifier_grouping_preserves_order(toy_cat):
    records = _columns([{"message": "x", "group_id": g} for g in ["b1", "b2", "b1", "b1", "b2"]])
    keys = ["k1", "k2", "k3", "k4", "k5"]
    seqs = {s.id: s for s in _partition(records, keys, PartitionSpec("identifier"))}
    assert seqs["b1"].keys == ["k1", "k3", "k4"]
    assert seqs["b2"].keys == ["k2", "k5"]


def test_identifier_requires_group_id(toy_cat):
    with pytest.raises(PartitionError):
        _partition(_records(2), ["k1", "k2"], PartitionSpec("identifier"))


def test_time_window(toy_cat):
    records = _records(6, t0=0.0, dt=10.0)  # timestamps 0..50
    keys = ["k1", "k2", "k3", "k4", "k5", "k6"]
    seqs = _partition(records, keys, PartitionSpec("time_window", window_size=25.0))
    assert [s.keys for s in seqs] == [["k1", "k2", "k3"], ["k4", "k5"], ["k6"]]


def test_time_window_starts_at_earliest_timestamp(toy_cat):
    records = _columns([{"message": "x", "timestamp": t} for t in [5.0, 1.0, 2.0, 6.0]])
    keys = ["k1", "k2", "k3", "k4"]
    for size in (1.0, 2.0, 3.0, 10.0):
        seqs = _partition(records, keys, PartitionSpec("time_window", window_size=size))
        assert sorted(k for s in seqs for k in s.keys) == ["k1", "k2", "k3", "k4"]
    seqs = _partition(records, keys, PartitionSpec("time_window", window_size=2.0))
    assert [s.keys for s in seqs] == [["k2", "k3"], ["k1", "k4"]]
    seqs = _partition(records, keys, PartitionSpec("time_window", window_size=10.0))
    assert [s.keys for s in seqs] == [["k1", "k2", "k3", "k4"]]  # input order kept


def test_time_window_requires_timestamps(toy_cat):
    records = _columns([{"message": "x"}])
    with pytest.raises(PartitionError):
        _partition(records, ["k1"], PartitionSpec("time_window", window_size=5))


def test_partition_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec("bogus")
    with pytest.raises(ValueError):
        PartitionSpec("count_window")  # missing window size
    with pytest.raises(ValueError):
        PartitionSpec("count_window", window_size=4, stride=5)  # stride > size
    spec = PartitionSpec("count_window", window_size=4)
    assert spec.stride == 4  # defaults to the window size


@pytest.mark.parametrize(
    "mode, size, stride",
    [
        ("time_window", math.nan, None),
        ("time_window", 1.0, math.nan),
        ("time_window", math.inf, None),
        ("time_window", 2.0, -math.inf),
        ("count_window", 1.5, None),
        ("count_window", 0.5, None),
        ("count_window", 4, 1.5),
        ("count_window", math.nan, 1),
    ],
)
def test_partition_spec_rejects_sizes_that_lose_events(mode, size, stride):
    # time:nan kept no event and time:1:nan one of two; count:1.5 truncated to 1
    with pytest.raises(ValueError):
        PartitionSpec(mode, window_size=size, stride=stride)


def test_parse_partition_spec():
    assert parse_partition_spec("identifier") == PartitionSpec("identifier")
    assert parse_partition_spec("count:4:2") == PartitionSpec("count_window", 4.0, 2.0)
    assert parse_partition_spec("time:2.5") == PartitionSpec("time_window", 2.5, 2.5)


@pytest.mark.parametrize(
    "spec",
    ["time:abc", "time:nan", "time:1:nan", "time:inf", "count:1.5", "count:0.5", "count:0",
     "count", "count:", "count:4:2:1", "identifier:3", "bogus", ""],
)
def test_parse_partition_spec_rejects_malformed_specs(spec):
    with pytest.raises(ConfigError):
        parse_partition_spec(spec)


# -- labels -------------------------------------------------------------------

def test_label_rules(toy_cat):
    assert _labels_or_none([False, True, False]) is True
    assert _labels_or_none([False, None]) is False
    assert _labels_or_none([None, None]) is None
    records = _records(4, labels=[False, False, True, False])
    seqs = _partition(records, ["k1"] * 4, PartitionSpec("count_window", window_size=2))
    assert [s.label for s in seqs] == [False, True]


def test_unlabeled_stays_none(toy_cat):
    seqs = _partition(_records(2), ["k1", "k2"], PartitionSpec("count_window", window_size=2))
    assert seqs[0].label is None


# -- persistence --------------------------------------------------------------

def test_sequence_round_trip(tmp_path, toy_cat):
    records = _records(5, labels=[True, None, None, None, None])
    seqs = _partition(records, ["k1", "k2", "k3", "k4", "k5"],
                      PartitionSpec("count_window", window_size=3))
    path = tmp_path / "seqs.jsonl"
    save_sequences(seqs, path)
    loaded = load_sequences(path, toy_cat)
    assert [(s.id, s.keys, s.label) for s in loaded] == [(s.id, s.keys, s.label) for s in seqs]
    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {"sequence_id", "keys", "label"}


# text a JSON encoder must escape: quotes, backslashes, control and non-ASCII characters, U+2028
_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029é€😀'), st.characters()), max_size=8)


@settings(max_examples=200, deadline=None)
@given(
    keys=st.lists(_JSON_TEXT, min_size=1, max_size=6, unique=True),
    rows=st.lists(
        st.tuples(_JSON_TEXT, st.lists(st.integers(min_value=0, max_value=5), max_size=8),
                  st.sampled_from([None, True, False])),
        max_size=6,
    ),
)
def test_save_sequences_writes_what_json_dumps_writes(tmp_path_factory, keys, rows):
    # key positions index into `keys`, so keys repeat within and across sequences
    sequences = [LogSequence(sid, [keys[i % len(keys)] for i in picks], label) for sid, picks, label in rows]
    path = tmp_path_factory.mktemp("sequences") / "s.jsonl"
    save_sequences(sequences, path)
    want = ""
    for seq in sequences:
        row = {"sequence_id": seq.id, "keys": seq.keys}
        if seq.label is not None:
            row["label"] = seq.label
        want += json.dumps(row) + "\n"
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"sequence_id": "s2", "keys": ["k1"', "invalid JSON: Expecting ',' delimiter at column 36"),
        ('["s2", ["k1"]]', "expected a JSON object"),
        ('{"sequence_id": "s2"}', "missing field 'keys'"),
        ('{"sequence_id": "s2", "keys": ["k1", "k9"]}', "unknown log key 'k9'"),
        ('{"sequence_id": "s2", "keys": "k1"}', "'keys' must be a list"),
        ('{"sequence_id": "s2", "keys": ["k1"], "label": "false"}', "'label' must be true, false or null"),
        ('{"sequence_id": "s2", "keys": ["k1"], "label": 0}', "'label' must be true, false or null"),
        ('{"sequence_id": ["a"], "keys": ["k1"]}', "field 'sequence_id' must be a string"),
        ('{"sequence_id": 5, "keys": ["k1"]}', "field 'sequence_id' must be a string"),
        ('{"sequence_id": null, "keys": ["k1"]}', "field 'sequence_id' must be a string"),
    ],
    ids=["bad-json", "not-object", "missing-keys", "unknown-key", "keys-not-list", "label-string", "label-int",
         "id-list", "id-int", "id-null"],
)
def test_load_sequences_errors_carry_line_and_reason(tmp_path, toy_cat, line, reason):
    path = tmp_path / "seqs.jsonl"
    path.write_text('{"sequence_id": "s1", "keys": ["k1", "k2"]}\n' + line + "\n")
    with pytest.raises(LineParseError) as info:
        load_sequences(path, toy_cat)
    assert info.value.line_number == 2
    assert reason in info.value.reason
    assert "line 2" in str(info.value) and "line 1" not in str(info.value)


@pytest.mark.parametrize(
    "before, fault",
    [
        # the text reader fails for a whole block: the line at fault lies past the lines it gave
        (b'{"message": "x"}\n' * 3000, "line 3001: not valid UTF-8: byte 0xe9 at column 17"),
        # a fault before the undecodable line, in the same block, is named first
        (b'{"message": "x"}\n{"message": \n', "line 2: invalid JSON"),
        # lines are counted as the text reader counts them, a bare CR ending one
        (b'{"message": "x"}\r\n\r{"message": "y"}\n', "line 4: not valid UTF-8: byte 0xe9 at column 17"),
    ],
    ids=["past-the-first-block", "after-another-fault", "bare-carriage-return"],
)
def test_a_line_that_is_not_utf8_is_named_by_every_line_reader(tmp_path, before, fault):
    path = tmp_path / "raw.jsonl"
    path.write_bytes(before + b'{"message": "caf\xe9 au lait"}\n{"message": "x"}\n')
    with pytest.raises(LineParseError) as info:
        load_raw_records(path)
    assert str(info.value).startswith(f"{path}: {fault}")
    given = []  # what read_jsonl gives before it raises: each line before the fault, once and in order
    with pytest.raises(LineParseError) as info:
        given.extend(lineno for lineno, _ in ingest.read_jsonl(path))
    assert str(info.value).startswith(f"{path}: {fault}")
    assert given == [n for n in range(1, info.value.line_number) if before.splitlines()[n - 1].strip()]


def test_load_raw_records(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"message": "a b", "timestamp": 1.5, "group_id": "g", "label": true}\n\n{"message": "c"}\n'
                    '{"message": "d", "group_id": null, "label": false}\n{"message": "e", "label": null}\n')
    assert load_raw_records(path) == RawColumns(
        ["a b", "c", "d", "e"], [1.5, None, None, None], ["g", None, None, None], [True, None, False, None],
    )


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"message": "x"', "invalid JSON"),
        ('["Open session started"]', "expected a JSON object"),
        ('{"group_id": "g"}', "missing field 'message'"),
        ('{"message": 3}', "'message' must be a string"),
        ('{"message": null}', "'message' must be a string"),
        ('{"message": "x", "label": "false"}', "'label' must be true, false or null"),
        ('{"message": "x", "label": 1}', "'label' must be true, false or null"),
        ('{"message": "x", "group_id": ["a"]}', "'group_id' must be a string or null"),
        ('{"message": "x", "group_id": 5}', "'group_id' must be a string or null"),
    ],
    ids=["bad-json", "not-object", "missing-message", "message-not-string", "message-null",
         "label-string", "label-int", "group-list", "group-int"],
)
def test_load_raw_records_errors_carry_line_and_reason(tmp_path, line, reason):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"message": "Open session started"}\n' + line + "\n")
    with pytest.raises(LineParseError) as info:
        load_raw_records(path)
    assert info.value.line_number == 2
    assert reason in info.value.reason
    assert "line 2" in str(info.value) and "line 1" not in str(info.value)


def test_a_partition_error_names_the_row_in_the_columns_and_its_line(tmp_path):
    # rows 0 and 2 did not match, so row 3 is the second kept one; blank lines do not count
    path = tmp_path / "raw.jsonl"
    path.write_text('{"message": "a"}\n\n{"message": "b", "group_id": "g"}\n'
                    '{"message": "c"}\n  \n{"message": "d"}\n')
    records = load_raw_records(path)
    with pytest.raises(PartitionError, match="record 3: identifier mode requires group_id"):
        partition(records, [1, 3], ["k1", "k2"], PartitionSpec("identifier"))
    assert [raw_record_line(path, i) for i in range(4)] == [1, 3, 4, 6]


def test_identifier_groups_read_the_columns_at_the_kept_rows():
    # the window modes take unmatched rows in their scan-oracle tests
    records = _columns([{"message": "x", "group_id": f"g{i % 2}", "label": i == 2} for i in range(6)])
    kept, keys = [1, 2, 4, 5], ["k1", "k2", "k3", "k4"]
    assert [(s.id, s.keys, s.label) for s in partition(records, kept, keys, PartitionSpec("identifier"))] == [
        ("g1", ["k1", "k4"], False), ("g0", ["k2", "k3"], True),
    ]


def test_match_records_matches_each_distinct_message_once(toy_cat, monkeypatch):
    messages = ["Open session started", "garbage", "Authentication starts", "Open session started", "garbage",
                "GET request sent to h1", "Open session started", "GET request sent to h2", "garbage"]
    calls = []

    def counted(catalog, message):
        calls.append(message)
        return match_message(catalog, message)

    monkeypatch.setattr(ingest, "match_message", counted)
    want = match_records(toy_cat, messages)
    assert sorted(calls) == sorted(set(messages))
    assert want.keys == ["k1", "k3", "k1", "k5", "k1", "k5"] and want.kept == [0, 2, 3, 5, 6, 7]
    assert want.skipped == [(1, "garbage"), (4, "garbage"), (8, "garbage")]
    for bound in (1, 2):  # the dict is emptied when full, and matching goes on from scratch
        monkeypatch.setattr(ingest, "MATCH_CACHE_SIZE", bound)
        calls.clear()
        assert match_records(toy_cat, messages) == want
        assert len(calls) > len(set(messages))


# Each reason is the one `json.loads` gives for the whole line. Without the
# end-of-line check, a single raw_decode call would accept trailing data.
@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"message": "x"} y', "invalid JSON: Extra data at column 18"),
        ('{"message": "x"}   y', "invalid JSON: Extra data at column 20"),
        ('{"message": "x"}{}', "invalid JSON: Extra data at column 17"),
        ("[1]", "expected a JSON object"),
        ('\ufeff{"message": "x"}', "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig) at column 1"),
        ('{"message": "x"', "invalid JSON: Expecting ',' delimiter at column 16"),
        ("nul", "invalid JSON: Expecting value at column 1"),
    ],
    ids=["trailing-data", "space-then-trailing-data", "second-object", "not-object", "bom", "truncated", "bad-literal"],
)
def test_read_jsonl_gives_the_reason_json_loads_gives(tmp_path, line, reason):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"message": "Open session started"}\n' + line + "\n", encoding="utf-8")
    rows = read_jsonl(path)
    assert next(rows) == (1, {"message": "Open session started"})
    with pytest.raises(LineParseError) as info:
        next(rows)
    assert (info.value.line_number, info.value.reason) == (2, reason)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.text(), st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
), max_size=4), max_size=5))
def test_read_jsonl_decodes_each_line_as_json_loads_does(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "decoded.jsonl"
    lines = [json.dumps(row, ensure_ascii=i % 2 == 0) for i, row in enumerate(rows)]
    path.write_text("".join(f"  {line}\t\n" for line in lines), encoding="utf-8")
    assert list(read_jsonl(path)) == [
        (lineno, json.loads(line)) for lineno, line in enumerate(lines, start=1)
    ]


# -- properties ---------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    size=st.integers(min_value=1, max_value=10),
)
def test_count_window_covers_input_exactly(n, size):
    cat = toy_catalog()
    keys = [f"k{1 + i % 6}" for i in range(n)]
    seqs = _partition(_records(n), keys, PartitionSpec("count_window", window_size=size))
    assert [k for s in seqs for k in s.keys] == keys
    assert all(len(s.keys) <= size for s in seqs)


def _linear_match(catalog, message):
    """Reference matcher: scan the message's length bucket in (wildcards, key) order."""
    tokens = message.split()
    bucket = sorted(
        (t for t in catalog.templates() if len(t.tokens) == len(tokens)),
        key=lambda t: (t.wildcard_count, t.key),
    )
    for template in bucket:
        for mt, tt in zip(tokens, template.tokens):
            if tt != WILDCARD and tt != mt:
                break
        else:
            return template.key
    return None


_WORDS = ["a", "b", "c", "<*>2", WILDCARD]


@st.composite
def _catalog_and_messages(draw):
    word_lists = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5)
    texts = draw(st.lists(word_lists, min_size=1, max_size=12))
    texts += draw(st.lists(st.sampled_from(texts), max_size=3))  # same text under another key
    keys = draw(st.permutations([f"k{i:02d}" for i in range(len(texts))]))
    templates = [LogTemplate(k, " ".join(t)) for k, t in zip(keys, texts)]
    seps = st.sampled_from([" ", "  ", "\t", " \n "])
    messages = ["", "   ", " ".join(["a"] * 7)]  # empty, blank, a length with no templates
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        toks = []
        for word in draw(st.sampled_from(texts)):
            # A wildcard slot, and now and then a literal one, takes any token,
            # often another template's literal.
            if word == WILDCARD or draw(st.booleans()):
                word = draw(st.sampled_from(_WORDS + ["x"]))
            toks.append(word)
        toks += draw(st.lists(st.sampled_from(["a", "x"]), max_size=1))  # one token too many
        messages.append(draw(seps).join(toks) + draw(st.sampled_from(["", " ", "\t"])))
    return templates, messages


@settings(max_examples=300, deadline=None)
@given(case=_catalog_and_messages())
def test_trie_matches_linear_oracle(case):
    templates, messages = case
    cat = TemplateCatalog(templates)
    for message in messages:
        assert match_message(cat, message) == _linear_match(cat, message)


def test_trie_matches_linear_oracle_with_every_wildcard_position():
    words = ["go", "to", "db"]
    templates = [LogTemplate("lit", "go to db")]
    for mask in range(1, 8):
        text = " ".join(WILDCARD if mask >> i & 1 else w for i, w in enumerate(words))
        templates.append(LogTemplate(f"w{mask}", text))
    cat = TemplateCatalog(templates)
    for message in ["go to db", "go to x", "x to db", "x y z", "go y db", "to go db"]:
        assert match_message(cat, message) == _linear_match(cat, message)
    assert match_message(cat, "go to db") == "lit"
    assert match_message(cat, "x to db") == "w1"


def _oracle_sequences(records, keys, windows, prefix):
    return [
        LogSequence(f"{prefix}{n}", [keys[i] for i in w], _labels_or_none([records.labels[i] for i in w]))
        for n, w in enumerate(windows)
    ]


def _windows_oracle(records, keys, size, stride):
    """Reference time_window partition in exact rationals: window k is [t0 + k * stride, t0 + k * stride + size).

    Each window that can hold a stamp t gets one full scan: t's last window is
    floor((t - t0) / stride), and a window more than ceil(size / stride) before
    it ends before t. So a span beyond float range costs no more than a short one.
    """
    stamps = [Fraction(t) for t in records.timestamps]
    size, stride = Fraction(size), Fraction(stride)
    t0, reach = min(stamps), math.ceil(size / stride)
    windows = []
    for k in sorted({k for t in stamps for k in range((t - t0) // stride - reach, (t - t0) // stride + 1) if k >= 0}):
        start = t0 + k * stride
        window = [i for i, t in enumerate(stamps) if start <= t < start + size]
        if window:
            windows.append(window)
    return _oracle_sequences(records, keys, windows, "t")


def _count_windows_oracle(records, keys, spec):
    """Reference count_window partition: every stride start until a window reaches the last record."""
    size, stride, n = int(spec.window_size), int(spec.stride), len(keys)
    starts = [s for s in range(0, n, stride) if s == 0 or s - stride + size < n]
    return _oracle_sequences(records, keys, [list(range(s, min(s + size, n))) for s in starts], "w")


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    size=st.integers(min_value=1, max_value=40),
    stride_frac=st.floats(min_value=0.0, max_value=1.0),
    labels=st.lists(st.one_of(st.none(), st.booleans()), min_size=30, max_size=30),
    matched=st.lists(st.booleans(), min_size=30, max_size=30),
)
def test_count_windows_match_scan_oracle(n, size, stride_frac, labels, matched):
    # sizes above n cover the case of one short window holding every record
    stride = max(1, round(size * stride_frac))
    rows = [{"message": "x", "label": l} for l in labels[:n]]
    kept = [i for i in range(n) if matched[i]] or [0]  # the rows whose message matched a template
    keys = [f"k{1 + i % 6}" for i in range(n)]
    spec = PartitionSpec("count_window", window_size=size, stride=stride)
    got = partition(_columns(rows), kept, [keys[i] for i in kept], spec)
    want = _count_windows_oracle(_columns([rows[i] for i in kept]), [keys[i] for i in kept], spec)
    assert [(s.id, s.keys, s.label) for s in got] == [(s.id, s.keys, s.label) for s in want]


def test_time_windows_jump_over_an_empty_stretch():
    # a millisecond-epoch stamp among second stamps: 1.7e12 one-second windows
    # lie between them, and only the two that hold a record are visited
    records = _columns([{"message": "x", "timestamp": t} for t in (0.0, 1.7e12)])
    seqs = _partition(records, ["k1", "k2"], PartitionSpec("time_window", window_size=1))
    assert [(s.id, s.keys) for s in seqs] == [("t0", ["k1"]), ("t1", ["k2"])]


@pytest.mark.parametrize("stamp", [math.inf, -math.inf, "5", True])
def test_time_window_rejects_a_stamp_without_a_window(stamp):
    # inf made the sweep spin forever, and a string failed inside sorted()
    records = _columns([{"message": "x", "timestamp": 0.0}, {"message": "x", "timestamp": stamp}])
    with pytest.raises(PartitionError, match="record 1"):
        _partition(records, ["k1", "k2"], PartitionSpec("time_window", window_size=1))


NS_EPOCH = 1_700_000_000_000_000_000  # a nanosecond-epoch stamp: 256 apart from its float neighbours


@settings(max_examples=300, deadline=None)
@given(
    stamps=st.one_of(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=20).map(float),  # many duplicates
                st.floats(min_value=-50.0, max_value=400.0, allow_nan=False),  # long gaps
            ),
            min_size=1,
            max_size=40,
        ),
        # decimal stamps at 0.1 steps, where a float bound t0 + k * stride rounds across a stamp
        st.lists(st.integers(min_value=-20, max_value=200).map(lambda i: i / 10), min_size=1, max_size=40),
        # integer stamps that a float cannot tell apart
        st.lists(st.integers(min_value=-20, max_value=400).map(NS_EPOCH.__add__), min_size=1, max_size=40),
    ),
    labels=st.lists(st.one_of(st.none(), st.booleans()), min_size=40, max_size=40),
    size=st.sampled_from([0.1, 0.2, 0.3, 0.5, 1.0, 2.5, 7.0, 30.0]),
    stride_frac=st.sampled_from([0.1, 0.3, 0.5, 1.0]),
    matched=st.lists(st.booleans(), min_size=40, max_size=40),
)
def test_time_window_sweep_matches_scan_oracle(stamps, labels, size, stride_frac, matched):
    rows = [{"message": "x", "timestamp": t, "label": l} for t, l in zip(stamps, labels)]
    kept = [i for i in range(len(rows)) if matched[i]] or [0]  # the rows whose message matched a template
    keys = [f"k{1 + i % 6}" for i in range(len(rows))]
    spec = PartitionSpec("time_window", window_size=size, stride=size * stride_frac)
    got = partition(_columns(rows), kept, [keys[i] for i in kept], spec)
    want = _windows_oracle(_columns([rows[i] for i in kept]), [keys[i] for i in kept], spec.window_size, spec.stride)
    assert [(s.id, s.keys, s.label) for s in got] == [(s.id, s.keys, s.label) for s in want]


def test_integer_stamps_with_a_whole_window_get_exact_windows():
    # as floats both stamps are 1.7e18, where a 10-wide window has no width: both events were dropped
    records = _columns([{"message": "x", "timestamp": t} for t in (NS_EPOCH, NS_EPOCH + 5, NS_EPOCH + 12)])
    seqs = _partition(records, ["k1", "k2", "k3"], parse_partition_spec("time:10"))
    assert [(s.id, s.keys) for s in seqs] == [("t0", ["k1", "k2"]), ("t1", ["k3"])]
    seqs = _partition(records, ["k1", "k2", "k3"], parse_partition_spec("time:10:5"))
    assert [(s.id, s.keys) for s in seqs] == [("t0", ["k1", "k2"]), ("t1", ["k2", "k3"]), ("t2", ["k3"])]


@pytest.mark.parametrize(
    "stamps, spec, want",
    [
        # the span is beyond float range: the float sweep never ended
        ((-1.7e308, 1.7e308), "time:10", [["k1"], ["k2"]]),
        # a window of 1 has no float width at 1e17, where floats are 16 apart
        ((0.0, 1e17), "time:1", [["k1"], ["k2"]]),
        # an integer stamp with a fractional size: floats are 256 apart at 1.7e18
        ((NS_EPOCH, NS_EPOCH + 5), "time:0.5", [["k1"], ["k2"]]),
        # 0.1 + 2 * 0.2 + 0.2 rounds to 0.7 and 0.1 + 3 * 0.2 to 0.7000000000000001, so in floats
        # 0.7 lay between windows 2 and 3; exactly, window 2 ends just above it
        ((0.1, 0.3, 0.7), "time:0.2", [["k1", "k2"], ["k3"]]),
    ],
    ids=["span-beyond-float-range", "window-without-width", "integer-stamp-fractional-size", "between-two-windows"],
)
def test_time_window_places_stamps_float_bounds_lost(stamps, spec, want):
    records = _columns([{"message": "x", "timestamp": t} for t in stamps])
    keys, spec = [f"k{i + 1}" for i in range(len(stamps))], parse_partition_spec(spec)
    seqs = _partition(records, keys, spec)
    assert [s.keys for s in seqs] == want
    oracle = _windows_oracle(records, keys, spec.window_size, spec.stride)
    assert [(s.id, s.keys) for s in seqs] == [(s.id, s.keys) for s in oracle]


# -- the column reader against the line reader it replaced ----------------------

def _reference_raw_records(path):
    """The raw-record loader that read line by line: (line, (message, timestamp, group_id, label)) per record.

    A copy of the JSON-lines reader and raw-record checks that built one
    record object per line, kept as the reference for the column reader.
    """
    decode = json.JSONDecoder().raw_decode
    rows = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row, end = decode(line)
            except json.JSONDecodeError:
                end = -1
            if end != len(line):
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise LineParseError(path, lineno, f"invalid JSON: {exc.msg} at column {exc.colno}") from exc
            if not isinstance(row, dict):
                raise LineParseError(path, lineno, "expected a JSON object")
            if "message" not in row:
                raise LineParseError(path, lineno, "missing field 'message'")
            if not isinstance(row["message"], str):
                raise LineParseError(path, lineno, "field 'message' must be a string")
            group_id, label = row.get("group_id"), row.get("label")
            if group_id is not None and not isinstance(group_id, str):
                raise LineParseError(path, lineno, "field 'group_id' must be a string or null")
            if label is not None and type(label) is not bool:
                raise LineParseError(path, lineno, "field 'label' must be true, false or null")
            rows.append((lineno, (row["message"], row.get("timestamp"), group_id, label)))
    return rows


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)  # non-ASCII, "\u2028" and "\x85" too
_GOOD = st.fixed_dictionaries(
    {"message": _TEXT},
    optional={
        "timestamp": st.none() | st.integers() | st.floats(allow_nan=False) | _TEXT,
        "group_id": st.none() | _TEXT,
        "label": st.none() | st.booleans(),
        "extra": st.lists(st.integers(), max_size=2),
    },
)
_BAD_FIELD = st.sampled_from([
    ("message", 3), ("message", None), ("message", ["a"]), ("group_id", 5), ("group_id", ["a"]),
    ("group_id", True), ("label", "false"), ("label", 1), ("label", 0), ("label", [True]),
])


@st.composite
def _raw_file(draw):
    """Lines of a raw-record file: mostly good records, now and then a fault or a trap for a block decoder."""
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        row = draw(_GOOD)
        good = json.dumps(row, ensure_ascii=draw(st.booleans()))
        kind = draw(st.sampled_from(["good"] * 6 + ["blank", "bom", "trailing", "split", "joined", "bad-field",
                                                    "missing-message", "not-object", "bad-json"]))
        if kind == "good":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\u3000"])) + good + draw(st.sampled_from(["", " \t"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "bom":
            lines.append("\ufeff" + good)
        elif kind == "trailing":
            lines.append(good + draw(st.sampled_from([" y", "{}", "  1", ","])))
        elif kind == "split":  # '{"a": ' and '1}' on two lines
            cut = draw(st.integers(min_value=1, max_value=len(good) - 1))
            lines += [good[:cut], good[cut:]]
        elif kind == "joined":  # '{},{}' on one line
            lines.append(good + draw(st.sampled_from([",", ", ", ""])) + json.dumps(draw(_GOOD)))
        elif kind == "bad-field":
            name, value = draw(_BAD_FIELD)
            lines.append(json.dumps({**row, name: value}))
        elif kind == "missing-message":
            lines.append(json.dumps({k: v for k, v in row.items() if k != "message"}))
        elif kind == "not-object":
            lines.append(draw(st.sampled_from(["[1]", "3", '"s"', "null", "[]"])))
        else:
            lines.append(draw(st.sampled_from(['{"message": "x"', "nul", "{'message': 'x'}", '{"message": "x",}'])))
    return "".join(line + "\n" for line in lines) + draw(st.sampled_from(["", "\n", '{"message": "last"}']))


@settings(max_examples=300, deadline=None)
@given(text=_raw_file())
def test_column_reader_gives_the_rows_or_the_fault_of_the_line_reader(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "raw.jsonl"
    path.write_text(text, encoding="utf-8")
    try:
        want = _reference_raw_records(path)
    except LineParseError as exc:
        with pytest.raises(LineParseError) as info:
            load_raw_records(path)
        assert (info.value.line_number, info.value.reason, str(info.value)) == (exc.line_number, exc.reason, str(exc))
        return
    got = load_raw_records(path)
    assert list(zip(*got)) == [row for _, row in want]
    assert [raw_record_line(path, i) for i in range(len(want))] == [lineno for lineno, _ in want]
