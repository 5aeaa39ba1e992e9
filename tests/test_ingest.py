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
    TemplateCatalog,
    _labels_or_none,
    load_raw_records,
    load_sequences,
    load_template_catalog,
    match_message,
    match_records,
    partition,
    save_sequences,
)
from hierlog.pipeline import parse_partition_spec
from hierlog.synthetic import make_corpus

from conftest import toy_catalog


def _records(n, group=None, t0=0.0, dt=1.0):
    return [
        RawLogRecord(message=f"m {i}", timestamp=t0 + i * dt, group_id=group)
        for i in range(n)
    ]


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
    records = [RawLogRecord(message=m, group_id="g") for m in ["Open session started", "Authentication starts"] * 2]
    report = match_records(toy_cat, records)
    (matched,) = partition(report.records, report.keys, PartitionSpec("identifier"))
    path = tmp_path / "seqs.jsonl"
    path.write_text(json.dumps({"sequence_id": "s", "keys": ["k1", "k3", "k1"]}) + "\n")
    (loaded,) = load_sequences(path, toy_cat)
    assert matched.keys == ["k1", "k3", "k1", "k3"] and loaded.keys == ["k1", "k3", "k1"]
    assert all(k is own[k] for k in matched.keys + loaded.keys)
    corpus = make_corpus(n_train=5, n_test=5, seed=3)
    own = {k: k for k in corpus.catalog.keys()}
    assert all(k is own[k] for seq in corpus.train + corpus.test for k in seq.keys)


def test_match_records_reports_skipped(toy_cat):
    records = [
        RawLogRecord(message="Open session started"),
        RawLogRecord(message="garbage"),
        RawLogRecord(message="Authentication starts"),
    ]
    report = match_records(toy_cat, records)
    assert report.keys == ["k1", "k3"]
    assert report.skipped == [(1, "garbage")]


# -- partitioning -------------------------------------------------------------

def test_count_window_spec_example(toy_cat):
    # 10 keys, window 4, stride 4 -> sizes [4, 4, 2]
    records = _records(10)
    keys = ["k1"] * 10
    seqs = partition(records, keys, PartitionSpec("count_window", window_size=4))
    assert [len(s.keys) for s in seqs] == [4, 4, 2]


def test_count_window_with_stride(toy_cat):
    records = _records(10)
    keys = [f"k{1 + i % 6}" for i in range(10)]
    seqs = partition(records, keys, PartitionSpec("count_window", window_size=4, stride=2))
    assert [len(s.keys) for s in seqs] == [4, 4, 4, 4]
    assert seqs[1].keys == keys[2:6]


def test_identifier_grouping_preserves_order(toy_cat):
    records = [
        RawLogRecord(message="x", group_id=g)
        for g in ["b1", "b2", "b1", "b1", "b2"]
    ]
    keys = ["k1", "k2", "k3", "k4", "k5"]
    seqs = {s.id: s for s in partition(records, keys, PartitionSpec("identifier"))}
    assert seqs["b1"].keys == ["k1", "k3", "k4"]
    assert seqs["b2"].keys == ["k2", "k5"]


def test_identifier_requires_group_id(toy_cat):
    with pytest.raises(PartitionError):
        partition(_records(2), ["k1", "k2"], PartitionSpec("identifier"))


def test_time_window(toy_cat):
    records = _records(6, t0=0.0, dt=10.0)  # timestamps 0..50
    keys = ["k1", "k2", "k3", "k4", "k5", "k6"]
    seqs = partition(records, keys, PartitionSpec("time_window", window_size=25.0))
    assert [s.keys for s in seqs] == [["k1", "k2", "k3"], ["k4", "k5"], ["k6"]]


def test_time_window_starts_at_earliest_timestamp(toy_cat):
    records = [RawLogRecord(message="x", timestamp=t) for t in [5.0, 1.0, 2.0, 6.0]]
    keys = ["k1", "k2", "k3", "k4"]
    for size in (1.0, 2.0, 3.0, 10.0):
        seqs = partition(records, keys, PartitionSpec("time_window", window_size=size))
        assert sorted(k for s in seqs for k in s.keys) == ["k1", "k2", "k3", "k4"]
    seqs = partition(records, keys, PartitionSpec("time_window", window_size=2.0))
    assert [s.keys for s in seqs] == [["k2", "k3"], ["k1", "k4"]]
    seqs = partition(records, keys, PartitionSpec("time_window", window_size=10.0))
    assert [s.keys for s in seqs] == [["k1", "k2", "k3", "k4"]]  # input order kept


def test_time_window_requires_timestamps(toy_cat):
    records = [RawLogRecord(message="x")]
    with pytest.raises(PartitionError):
        partition(records, ["k1"], PartitionSpec("time_window", window_size=5))


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
    records = _records(4)
    for r in records:
        r.label = False
    records[2].label = True
    seqs = partition(records, ["k1"] * 4, PartitionSpec("count_window", window_size=2))
    assert [s.label for s in seqs] == [False, True]


def test_unlabeled_stays_none(toy_cat):
    seqs = partition(_records(2), ["k1", "k2"], PartitionSpec("count_window", window_size=2))
    assert seqs[0].label is None


# -- persistence --------------------------------------------------------------

def test_sequence_round_trip(tmp_path, toy_cat):
    records = _records(5)
    records[0].label = True
    seqs = partition(records, ["k1", "k2", "k3", "k4", "k5"],
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
    with pytest.raises(SequenceParseError) as info:
        load_sequences(path, toy_cat)
    assert info.value.line_number == 2
    assert reason in info.value.reason
    assert "line 2" in str(info.value) and "line 1" not in str(info.value)


def test_load_raw_records(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"message": "a b", "timestamp": 1.5, "group_id": "g", "label": true}\n\n{"message": "c"}\n'
                    '{"message": "d", "group_id": null, "label": false}\n{"message": "e", "label": null}\n')
    assert load_raw_records(path) == [
        RawLogRecord("a b", 1.5, "g", True), RawLogRecord("c"), RawLogRecord("d", label=False), RawLogRecord("e"),
    ]


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
    seqs = partition(_records(n), keys, PartitionSpec("count_window", window_size=size))
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
        LogSequence(f"{prefix}{n}", [keys[i] for i in w], _labels_or_none([records[i].label for i in w]))
        for n, w in enumerate(windows)
    ]


def _windows_oracle(records, keys, spec):
    """Reference time_window partition: window k starts at t0 + k * stride; one full scan per window."""
    t0 = min(r.timestamp for r in records)
    t_last = max(r.timestamp for r in records)
    windows = []
    k = 0
    while t0 + k * spec.stride <= t_last:
        start = t0 + k * spec.stride
        window = [i for i, r in enumerate(records) if start <= r.timestamp < start + spec.window_size]
        if window:
            windows.append(window)
        k += 1
    return _oracle_sequences(records, keys, windows, "t")


def _count_windows_oracle(records, keys, spec):
    """Reference count_window partition: every stride start until a window reaches the last record."""
    size, stride, n = int(spec.window_size), int(spec.stride), len(records)
    starts = [s for s in range(0, n, stride) if s == 0 or s - stride + size < n]
    return _oracle_sequences(records, keys, [list(range(s, min(s + size, n))) for s in starts], "w")


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    size=st.integers(min_value=1, max_value=40),
    stride_frac=st.floats(min_value=0.0, max_value=1.0),
    labels=st.lists(st.one_of(st.none(), st.booleans()), min_size=30, max_size=30),
)
def test_count_windows_match_scan_oracle(n, size, stride_frac, labels):
    # sizes above n cover the case of one short window holding every record
    stride = max(1, round(size * stride_frac))
    records = [RawLogRecord(message="x", label=l) for l in labels[:n]]
    keys = [f"k{1 + i % 6}" for i in range(n)]
    spec = PartitionSpec("count_window", window_size=size, stride=stride)
    got = partition(records, keys, spec)
    want = _count_windows_oracle(records, keys, spec)
    assert [(s.id, s.keys, s.label) for s in got] == [(s.id, s.keys, s.label) for s in want]


def test_time_windows_jump_over_an_empty_stretch():
    # a millisecond-epoch stamp among second stamps: 1.7e12 one-second windows
    # lie between them, and only the two that hold a record are visited
    records = [RawLogRecord(message="x", timestamp=t) for t in (0.0, 1.7e12)]
    seqs = partition(records, ["k1", "k2"], PartitionSpec("time_window", window_size=1))
    assert [(s.id, s.keys) for s in seqs] == [("t0", ["k1"]), ("t1", ["k2"])]


@pytest.mark.parametrize("stamp", [math.inf, -math.inf, "5", True])
def test_time_window_rejects_a_stamp_without_a_window(stamp):
    # inf made the sweep spin forever, and a string failed inside sorted()
    records = [RawLogRecord(message="x", timestamp=0.0), RawLogRecord(message="x", timestamp=stamp)]
    with pytest.raises(PartitionError, match="record 1"):
        partition(records, ["k1", "k2"], PartitionSpec("time_window", window_size=1))


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
    keys = [f"k{1 + i % 6}" for i in range(len(records))]
    spec = PartitionSpec("time_window", window_size=size, stride=size * stride_frac)
    got = partition(records, keys, spec)
    want = _windows_oracle(records, keys, spec)
    assert [(s.id, s.keys, s.label) for s in got] == [(s.id, s.keys, s.label) for s in want]
