"""Catalog loading, message matching, and partitioning."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlog.errors import (
    CatalogParseError,
    ConfigError,
    DuplicateKeyError,
    PartitionError,
    RawRecordParseError,
    SequenceParseError,
)
from hierlog.ingest import (
    WILDCARD,
    LogSequence,
    LogTemplate,
    PartitionSpec,
    RawLogRecord,
    MatchResult,
    TemplateCatalog,
    _labels_or_none,
    label_sequence,
    load_raw_records,
    load_sequences,
    load_template_catalog,
    match_message,
    match_records,
    partition,
    save_sequences,
)
from hierlog.pipeline import parse_partition_spec

from conftest import toy_catalog


def _records(n, group=None, t0=0.0, dt=1.0):
    return [
        RawLogRecord(message=f"m {i}", timestamp=t0 + i * dt, group_id=group)
        for i in range(n)
    ]


def _events(catalog, keys):
    return [catalog.event_for(k) for k in keys]


# -- catalog ------------------------------------------------------------------

def test_load_csv_with_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("key,template\nk1,Open session started\nk2,GET request sent to <*>\n")
    cat = load_template_catalog(p)
    assert len(cat) == 2
    assert [t.wildcard_count for t in cat.templates()] == [0, 1]


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
    with pytest.raises(DuplicateKeyError):
        load_template_catalog(p)


def test_malformed_row(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("justonecolumn\n")
    with pytest.raises(CatalogParseError):
        load_template_catalog(p)


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
    with pytest.raises(CatalogParseError) as info:
        load_template_catalog(p)
    assert info.value.line_number == 2
    assert str(info.value) == f"catalog parse error at line 2: {reason}"


# -- matching -----------------------------------------------------------------

def test_match_exact_and_wildcard(toy_cat):
    m = match_message(toy_cat, "Open session started")
    assert m.key == "k1" and m.params == ()
    m = match_message(toy_cat, "GET request sent to 10.0.0.1")
    assert m.key == "k5" and m.params == ("10.0.0.1",)


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
    assert match_message(cat, "send data to host").key == "a9"


def test_match_tiebreak_smallest_key():
    cat = TemplateCatalog(
        [
            LogTemplate("b", "ping <*>"),
            LogTemplate("a", "ping <*>2"),  # same token count, same wildcards? no
        ]
    )
    assert match_message(cat, "ping x").key == "b"
    cat = TemplateCatalog(
        [
            LogTemplate("b", "ping <*>"),
            LogTemplate("a", "<*> x"),
        ]
    )
    # "ping x" matches both with one wildcard each; key "a" < "b"
    assert match_message(cat, "ping x").key == "a"


def test_match_long_template_without_recursion():
    n = 5000
    text = " ".join(WILDCARD if i % 3 == 0 else f"t{i}" for i in range(n))
    cat = TemplateCatalog([LogTemplate("long", text), LogTemplate("short", "t0 t1")])
    message = " ".join(f"p{i}" if i % 3 == 0 else f"t{i}" for i in range(n))
    m = match_message(cat, message)
    assert m == MatchResult("long", tuple(f"p{i}" for i in range(0, n, 3)))
    assert match_message(cat, message + " extra") is None


def test_event_for_shares_one_event_per_key(toy_cat):
    report = match_records(toy_cat, [RawLogRecord(message="Open session started")] * 3)
    assert report.events[0] is report.events[2] is toy_cat.event_for("k1")


def test_match_records_reports_skipped(toy_cat):
    records = [
        RawLogRecord(message="Open session started"),
        RawLogRecord(message="garbage"),
        RawLogRecord(message="Authentication starts"),
    ]
    report = match_records(toy_cat, records)
    assert [e.key for e in report.events] == ["k1", "k3"]
    assert report.skipped == [(1, "garbage")]


# -- partitioning -------------------------------------------------------------

def test_count_window_spec_example(toy_cat):
    # 10 events, window 4, stride 4 -> sizes [4, 4, 2]
    records = _records(10)
    events = _events(toy_cat, ["k1"] * 10)
    seqs = partition(records, events, PartitionSpec("count_window", window_size=4))
    assert [len(s.events) for s in seqs] == [4, 4, 2]


def test_count_window_with_stride(toy_cat):
    records = _records(10)
    events = _events(toy_cat, [f"k{1 + i % 6}" for i in range(10)])
    seqs = partition(records, events, PartitionSpec("count_window", window_size=4, stride=2))
    assert [len(s.events) for s in seqs] == [4, 4, 4, 4]
    assert seqs[1].keys == [e.key for e in events[2:6]]


def test_identifier_grouping_preserves_order(toy_cat):
    records = [
        RawLogRecord(message="x", group_id=g)
        for g in ["b1", "b2", "b1", "b1", "b2"]
    ]
    events = _events(toy_cat, ["k1", "k2", "k3", "k4", "k5"])
    seqs = {s.id: s for s in partition(records, events, PartitionSpec("identifier"))}
    assert seqs["b1"].keys == ["k1", "k3", "k4"]
    assert seqs["b2"].keys == ["k2", "k5"]


def test_identifier_requires_group_id(toy_cat):
    with pytest.raises(PartitionError):
        partition(_records(2), _events(toy_cat, ["k1", "k2"]), PartitionSpec("identifier"))


def test_time_window(toy_cat):
    records = _records(6, t0=0.0, dt=10.0)  # timestamps 0..50
    events = _events(toy_cat, ["k1", "k2", "k3", "k4", "k5", "k6"])
    seqs = partition(records, events, PartitionSpec("time_window", window_size=25.0))
    assert [s.keys for s in seqs] == [["k1", "k2", "k3"], ["k4", "k5"], ["k6"]]


def test_time_window_starts_at_earliest_timestamp(toy_cat):
    records = [RawLogRecord(message="x", timestamp=t) for t in [5.0, 1.0, 2.0, 6.0]]
    events = _events(toy_cat, ["k1", "k2", "k3", "k4"])
    for size in (1.0, 2.0, 3.0, 10.0):
        seqs = partition(records, events, PartitionSpec("time_window", window_size=size))
        assert sorted(k for s in seqs for k in s.keys) == ["k1", "k2", "k3", "k4"]
    seqs = partition(records, events, PartitionSpec("time_window", window_size=2.0))
    assert [s.keys for s in seqs] == [["k2", "k3"], ["k1", "k4"]]
    seqs = partition(records, events, PartitionSpec("time_window", window_size=10.0))
    assert [s.keys for s in seqs] == [["k1", "k2", "k3", "k4"]]  # input order kept


def test_time_window_requires_timestamps(toy_cat):
    records = [RawLogRecord(message="x")]
    with pytest.raises(PartitionError):
        partition(records, _events(toy_cat, ["k1"]), PartitionSpec("time_window", window_size=5))


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
    assert label_sequence([False, True, False]) is True
    assert label_sequence([False, None]) is False
    records = _records(4)
    for r in records:
        r.label = False
    records[2].label = True
    seqs = partition(records, _events(toy_cat, ["k1"] * 4), PartitionSpec("count_window", window_size=2))
    assert [s.label for s in seqs] == [False, True]


def test_unlabeled_stays_none(toy_cat):
    seqs = partition(_records(2), _events(toy_cat, ["k1", "k2"]), PartitionSpec("count_window", window_size=2))
    assert seqs[0].label is None


# -- persistence --------------------------------------------------------------

def test_sequence_round_trip(tmp_path, toy_cat):
    records = _records(5)
    records[0].label = True
    seqs = partition(records, _events(toy_cat, ["k1", "k2", "k3", "k4", "k5"]),
                     PartitionSpec("count_window", window_size=3))
    path = tmp_path / "seqs.jsonl"
    save_sequences(seqs, path)
    loaded = load_sequences(path, toy_cat)
    assert [(s.id, s.keys, s.label) for s in loaded] == [(s.id, s.keys, s.label) for s in seqs]
    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {"sequence_id", "keys", "label"}


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"sequence_id": "s2", "keys": ["k1"', "invalid JSON: Expecting ',' delimiter at column 36"),
        ('["s2", ["k1"]]', "expected a JSON object"),
        ('{"sequence_id": "s2"}', "missing field 'keys'"),
        ('{"sequence_id": "s2", "keys": ["k1", "k9"]}', "unknown log key 'k9'"),
        ('{"sequence_id": "s2", "keys": "k1"}', "'keys' must be a list"),
    ],
    ids=["bad-json", "not-object", "missing-keys", "unknown-key", "keys-not-list"],
)
def test_load_sequences_errors_carry_line_and_reason(tmp_path, toy_cat, line, reason):
    path = tmp_path / "seqs.jsonl"
    path.write_text('{"sequence_id": "s1", "keys": ["k1", "k2"]}\n' + line + "\n")
    with pytest.raises(SequenceParseError) as info:
        load_sequences(path, toy_cat)
    assert info.value.line_number == 2
    assert reason in info.value.reason
    assert "line 2" in str(info.value) and "line 1" not in str(info.value)


def test_load_raw_records(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"message": "a b", "timestamp": 1.5, "group_id": "g", "label": true}\n\n{"message": "c"}\n')
    assert load_raw_records(path) == [RawLogRecord("a b", 1.5, "g", True), RawLogRecord("c")]


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"message": "x"', "invalid JSON"),
        ('["Open session started"]', "expected a JSON object"),
        ('{"group_id": "g"}', "missing field 'message'"),
        ('{"message": 3}', "'message' must be a string"),
        ('{"message": null}', "'message' must be a string"),
    ],
    ids=["bad-json", "not-object", "missing-message", "message-not-string", "message-null"],
)
def test_load_raw_records_errors_carry_line_and_reason(tmp_path, line, reason):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"message": "Open session started"}\n' + line + "\n")
    with pytest.raises(RawRecordParseError) as info:
        load_raw_records(path)
    assert info.value.line_number == 2
    assert reason in info.value.reason
    assert "line 2" in str(info.value) and "line 1" not in str(info.value)


# -- properties ---------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    size=st.integers(min_value=1, max_value=10),
)
def test_count_window_covers_input_exactly(n, size):
    cat = toy_catalog()
    keys = [f"k{1 + i % 6}" for i in range(n)]
    seqs = partition(_records(n), _events(cat, keys), PartitionSpec("count_window", window_size=size))
    assert [k for s in seqs for k in s.keys] == keys
    assert all(len(s.events) <= size for s in seqs)


def _linear_match(catalog, message):
    """Reference matcher: scan the message's length bucket in (wildcards, key) order."""
    tokens = message.split()
    bucket = sorted(
        (t for t in catalog.templates() if len(t.tokens) == len(tokens)),
        key=lambda t: (t.wildcard_count, t.key),
    )
    for template in bucket:
        params = []
        for mt, tt in zip(tokens, template.tokens):
            if tt == WILDCARD:
                params.append(mt)
            elif tt != mt:
                break
        else:
            return MatchResult(key=template.key, params=tuple(params))
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
    assert match_message(cat, "go to db").key == "lit"
    assert match_message(cat, "x to db") == MatchResult("w1", ("x",))


def _windows_oracle(records, events, spec):
    """Reference time_window partition: one full scan of the records per window."""
    sequences = []
    start = min(r.timestamp for r in records)
    t_last = max(r.timestamp for r in records)
    while start <= t_last:
        end = start + spec.window_size
        window = [i for i, r in enumerate(records) if start <= r.timestamp < end]
        if window:
            sequences.append(
                LogSequence(
                    id=f"t{len(sequences)}",
                    events=[events[i] for i in window],
                    label=_labels_or_none([records[i].label for i in window]),
                )
            )
        start += spec.stride
    return sequences


@settings(max_examples=200, deadline=None)
@given(
    stamps=st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=20).map(float),  # many duplicates
            st.floats(min_value=-50.0, max_value=400.0, allow_nan=False),  # long gaps
        ),
        min_size=1,
        max_size=40,
    ),
    labels=st.lists(st.one_of(st.none(), st.booleans()), min_size=40, max_size=40),
    size=st.sampled_from([0.5, 1.0, 2.5, 7.0, 30.0]),
    stride_frac=st.sampled_from([0.1, 0.3, 0.5, 1.0]),
)
def test_time_window_sweep_matches_scan_oracle(stamps, labels, size, stride_frac):
    cat = toy_catalog()
    records = [RawLogRecord(message="x", timestamp=t, label=l) for t, l in zip(stamps, labels)]
    events = _events(cat, [f"k{1 + i % 6}" for i in range(len(records))])
    spec = PartitionSpec("time_window", window_size=size, stride=size * stride_frac)
    got = partition(records, events, spec)
    want = _windows_oracle(records, events, spec)
    assert [(s.id, s.keys, s.label) for s in got] == [(s.id, s.keys, s.label) for s in want]
