"""Hybrid per-sub-sequence detection with bottom-up execution.

Each sub-sequence is checked by the configured symbolic detector (exact
pattern matching or a transition automaton): one probe of its level's
train KB with the run's pattern, the key of the KB. Only a pattern it
rejects goes to the LLM, with retrieved sibling examples, and a decided
LLM verdict is cached per chunk in the test KB of its level, so a repeated
chunk costs one provider round. Detection and training alike work on a
sub-sequence as its level, its pattern and its run's slice of the keys,
and build no `Seq`; they share one summary rule (`summary_of`), so a
train entry's summary is the one detection gives its example chunk. A
verdict's signature is built only where it is written. Verdicts
aggregate bottom-up per sequence with optional early exit. A report is a
function of its key list and is memoised by it (`Detector.detect_sequence`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .decompose import CHILD_LEVEL, Run, child_runs, pattern_keys, scan_runs
from .decompose import top_down_decompose  # noqa: F401; bench/layers.py wraps it under this name
from .errors import DecompositionError, ProviderError
from .hierarchy import ACTION, ENTITY, LEVEL_INITIAL, PARENT_DEPTH, STATUS, TopicTree, signature
from .ingest import LogSequence
from .knowledge import KnowledgeBase, KnowledgeBaseSet, TestEntry, chunk_key
from .semantics import (
    DetectionPrompt,
    Provider,
    VERDICT_ABNORMAL,
    VERDICT_NORMAL,
    embed_chunk,
    llm_detect,
    parent_context,
    summarize_parent_seq,
    summarize_status_seq,
)

log = logging.getLogger(__name__)

LEVEL_ORDER = (STATUS, ACTION, ENTITY)  # bottom-up

# the bottom-up prefixes of LEVEL_ORDER, named by their levels' initials: S, SA and SAE
LEVEL_PRESETS = {"".join(LEVEL_INITIAL[l] for l in LEVEL_ORDER[:n]): LEVEL_ORDER[:n] for n in (1, 2, 3)}

EXACT = "exact"
AUTOMATON = "automaton"

MEMO_SIZE = 4096  # reports a Detector memoises; a full memo is emptied
# chunks a Detector keeps a verdict (and, with the LLM on, a summary) for, per
# level; a full level is emptied. Larger than MEMO_SIZE because distinct
# sub-sequences far outnumber distinct whole sequences: on a stream of unique
# windows, a 4,096 bound lost about half of the status hits.
VERDICT_CACHE_SIZE = 1 << 15


@dataclass
class DetectConfig:
    levels_enabled: tuple[str, ...] = LEVEL_PRESETS["SAE"]
    detector_per_level: dict[str, str] = field(
        default_factory=lambda: {STATUS: EXACT, ACTION: EXACT, ENTITY: EXACT}
    )
    llm_enabled: bool = False
    m: int = 5
    early_exit: bool = True

    def __post_init__(self):
        if isinstance(self.levels_enabled, str):
            if self.levels_enabled not in LEVEL_PRESETS:
                raise ValueError(f"unknown levels {self.levels_enabled!r}; use {', '.join(LEVEL_PRESETS)}")
            self.levels_enabled = LEVEL_PRESETS[self.levels_enabled]
        unknown = set(self.levels_enabled) - set(LEVEL_ORDER)
        if unknown:
            raise ValueError(f"unknown levels: {unknown}")
        if self.levels_enabled and STATUS not in self.levels_enabled:
            raise ValueError("bottom-up presets require the status level whenever any level is enabled")
        for level in LEVEL_ORDER:
            self.detector_per_level.setdefault(level, EXACT)
        for level, kind in self.detector_per_level.items():
            if level not in LEVEL_ORDER:
                raise ValueError(f"detector set for an unknown level {level!r}")
            if kind not in (EXACT, AUTOMATON):
                raise ValueError(f"unknown detector {kind!r} for level {level!r}; use {EXACT!r} or {AUTOMATON!r}")
        if self.m < 0:
            raise ValueError(f"m must be 0 or more, not {self.m}")


@dataclass(slots=True)
class SeqVerdict:
    level: str
    pattern: tuple[str, ...]  # as `pattern_keys` gives it
    verdict: str  # normal | abnormal
    source: str  # pattern_match | automaton | llm
    explanation: Optional[str] = None
    confidence_flag: str = "normal"  # normal | low

    @property
    def signature(self) -> str:
        return signature(self.level, self.pattern)


@dataclass(slots=True)
class Counters:
    provider_errors: int = 0
    keys_per_level: dict[str, int] = field(default_factory=lambda: {l: 0 for l in LEVEL_ORDER})
    evals_per_level: dict[str, int] = field(default_factory=lambda: {l: 0 for l in LEVEL_ORDER})


@dataclass(slots=True)
class SequenceReport:
    sequence_id: str
    final_verdict: bool
    verdicts: list[SeqVerdict] = field(default_factory=list)
    first_abnormal_level: Optional[str] = None
    counters: Counters = field(default_factory=Counters)
    raw_length: int = 0
    error: Optional[str] = None


def local_verdict(kind: str, train_kb: KnowledgeBase, pattern: tuple[str, ...], nodes: Sequence[str]) -> SeqVerdict:
    """Normal iff the train KB holds the pattern (exact) or each adjacent pair of its last names `nodes` (automaton)."""
    if kind == EXACT:
        normal, source = train_kb.contains(pattern), "pattern_match"
    else:
        normal, source = train_kb.accepts_transitions(pattern[:len(pattern) - len(nodes)], nodes), "automaton"
    return SeqVerdict(train_kb.level, pattern, VERDICT_NORMAL if normal else VERDICT_ABNORMAL, source)


def _bounded_put(cache: dict, key, value, bound: int) -> None:
    """Store into a Detector cache, emptying it first when it holds `bound` entries."""
    if len(cache) >= bound:
        cache.clear()
    cache[key] = value


def summary_of(level: str, pattern: tuple[str, ...], keys: list[str], runs: dict[str, list[Run]], run: Run,
               memo: dict[str, dict[tuple[str, ...], str]], train_kbs: dict[str, KnowledgeBase], tree: TopicTree,
               templates: dict[str, str], provider: Provider) -> str:
    """The bottom-up summary of `run` in `runs[level]`: the one summary rule of training and detection.

    It is kept in `memo[level]` by chunk, bounded like the verdict dicts, and
    seeded by a train entry whose example chunk is the chunk. A status run is
    summarized from its templates, a parent run from its children's
    summaries (`child_runs`) by this same function, so a summary is a
    function of its level and chunk whatever order runs were seen in. Only a
    miss reads the children and their patterns.
    """
    cache = memo[level]
    chunk = keys[run[0]:run[1]]
    key = tuple(chunk)
    cached = cache.get(key)
    if cached is not None:
        return cached
    train_entry = train_kbs[level].entries.get(pattern)
    if train_entry is not None and train_entry.summary and train_entry.example_chunk == chunk:
        summary = train_entry.summary
    elif level == STATUS:
        summary = summarize_status_seq(pattern, [templates.get(k, k) for k in chunk], provider)
    else:
        child_level, children = CHILD_LEVEL[level], child_runs(runs, level, run)
        patterns = zip(pattern_keys(child_level, keys, children, tree), children)
        child_summaries = [summary_of(child_level, p, keys, runs, child, memo, train_kbs, tree, templates, provider)
                           for p, child in patterns]
        summary = summarize_parent_seq(level, pattern, child_summaries, provider)
    _bounded_put(cache, key, summary, VERDICT_CACHE_SIZE)
    return summary


class Detector:
    """Executes hybrid detection over decomposed sequences, sharing KBs.

    A report is a read-only value: nothing may change it once it is
    returned. `detect_sequence` memoises every report that met no provider
    error in a dict keyed by the tuple of the sequence's keys, emptied when
    it holds `MEMO_SIZE` reports; a hit is a new report under the caller's
    sequence id that shares its `verdicts` list and `Counters` with the
    first report of its key list. This is sound because the train KBs do
    not change during a Detector's life and `store_test` writes an LLM
    cache entry only on a miss, so a fresh LLM verdict equals the cached
    one of a later sight: a report is a function of its key list.
    `llm_calls` (detection rounds) and `memo_hits`/`memo_misses` are run
    history, kept out of reports.

    Below the memo, `_detect` keeps per enabled level the symbolic verdict
    of each pattern (`pattern_keys`): a miss makes one probe from the run's
    names. With the LLM on, a run that check rejects is judged by its
    chunk, which the summaries, the retrieval query and the LLM cache read,
    and its decided verdict is kept per level and chunk; the prompts read
    the run's pattern, node names and chunk, and its summary is
    `summary_of`'s, kept in `_summary_cache` per level and chunk. A verdict
    made under a provider error is not kept. Each dict is emptied at
    `VERDICT_CACHE_SIZE` entries, and reports share `SeqVerdict` objects.
    `verdict_hits` counts per level the runs whose verdict the dicts held,
    `verdict_misses` the rest.
    """

    def __init__(
        self,
        tree: TopicTree,
        kbs: KnowledgeBaseSet,
        config: DetectConfig,
        provider: Optional[Provider] = None,
        templates: Optional[dict[str, str]] = None,
    ):
        if config.llm_enabled and provider is None:
            raise ValueError("llm_enabled requires a provider")
        self.tree = tree
        self.kbs = kbs
        self.config = config
        self.provider = provider
        self.templates = templates or {}
        # the enabled levels bottom-up, their checks and pattern -> symbolic verdict dicts; builds automaton indexes
        self._levels: list[tuple[str, str, dict[tuple[str, ...], SeqVerdict]]] = []
        for level in LEVEL_ORDER:
            if level in config.levels_enabled:
                kind = config.detector_per_level[level]
                if kind == AUTOMATON:
                    kbs.train[level].transition_index()
                self._levels.append((level, kind, {}))
        # chunk -> decided LLM verdict, and chunk -> summary, per level
        self._llm_verdicts: dict[str, dict[tuple[str, ...], SeqVerdict]] = {level: {} for level in LEVEL_ORDER}
        self._summary_cache: dict[str, dict[tuple[str, ...], str]] = {level: {} for level in LEVEL_ORDER}
        self._memo: dict[tuple[str, ...], SequenceReport] = {}
        self.llm_calls = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.verdict_hits = dict.fromkeys(LEVEL_ORDER, 0)
        self.verdict_misses = dict.fromkeys(LEVEL_ORDER, 0)

    # -- single sub-sequence --------------------------------------------------

    def _llm_verdict(self, level: str, pattern: tuple[str, ...], keys: list[str], runs: dict[str, list[Run]],
                     run: Run, counters: Counters) -> tuple[SeqVerdict, bool]:
        """The LLM verdict on rejected `run`, and whether it was kept: kept by chunk, cached, or from summaries."""
        chunk = tuple(keys[run[0]:run[1]])
        verdict = self._llm_verdicts[level].get(chunk)
        if verdict is not None:
            return verdict, True
        cache = self.kbs.test[level]
        ck = chunk_key(chunk)
        entry = cache.lookup_test(ck)
        if entry is None:
            try:
                summary = summary_of(level, pattern, keys, runs, run, self._summary_cache, self.kbs.train, self.tree,
                                     self.templates, self.provider)
                query = embed_chunk(chunk)
                examples = self.kbs.train[level].retrieve_similar(pattern[:PARENT_DEPTH[level]], query, self.config.m)
                example_summaries = [e.summary for e in examples if e.summary]
                prompt = DetectionPrompt(">".join(run[2]), summary, example_summaries, parent_context(level, pattern))
                self.llm_calls += 1
                answer, explanation, low = llm_detect(prompt, self.provider)
            except ProviderError as exc:  # undecided, so never cached
                counters.provider_errors += 1
                log.warning("provider error for %s: %s", signature(level, pattern), exc)
                explanation = f"undecided: provider error ({exc})"
                return SeqVerdict(level, pattern, VERDICT_ABNORMAL, "llm", explanation, "low"), False
            entry = TestEntry(ck, answer, explanation, "low" if low else "normal")
            cache.store_test(entry)
        verdict = SeqVerdict(level, pattern, entry.verdict, "llm", entry.explanation, entry.confidence_flag)
        _bounded_put(self._llm_verdicts[level], chunk, verdict, VERDICT_CACHE_SIZE)
        return verdict, False

    # -- whole sequence ---------------------------------------------------------

    def detect_sequence(self, sequence: LogSequence) -> SequenceReport:
        """The memoised report for the sequence's keys, or a fresh `_detect`."""
        key = tuple(sequence.keys)
        memo = self._memo.get(key)
        if memo is not None:
            self.memo_hits += 1
            return SequenceReport(
                sequence.id, memo.final_verdict, memo.verdicts, memo.first_abnormal_level, memo.counters,
                memo.raw_length, memo.error,
            )
        self.memo_misses += 1
        report = self._detect(sequence)
        if report.counters.provider_errors == 0:  # an undecided report is asked again
            _bounded_put(self._memo, key, report, MEMO_SIZE)
        return report

    def _detect(self, sequence: LogSequence) -> SequenceReport:
        """Evaluate all enabled levels bottom-up; any abnormal flags the sequence."""
        keys = list(sequence.keys)
        report = SequenceReport(sequence_id=sequence.id, final_verdict=False, raw_length=len(keys))

        if not keys:
            log.warning("sequence %s is empty; treated as normal by vacuity", sequence.id)
            return report

        tree = self.tree
        try:
            runs = scan_runs(keys, tree)
        except DecompositionError as exc:
            report.error = str(exc)
            report.final_verdict = True  # undecidable sequences surface, not vanish
            return report

        counters, verdicts = report.counters, report.verdicts
        evals, level_keys = counters.evals_per_level, counters.keys_per_level
        llm_enabled, early_exit = self.config.llm_enabled, self.config.early_exit
        hits, misses = self.verdict_hits, self.verdict_misses
        for level, kind, cache in self._levels:
            train_kb = self.kbs.train[level]
            level_runs = runs[level]
            for pattern, run in zip(pattern_keys(level, keys, level_runs, tree), level_runs):
                verdict = cache.get(pattern)
                if verdict is None:
                    misses[level] += 1
                    verdict = local_verdict(kind, train_kb, pattern, run[2])
                    _bounded_put(cache, pattern, verdict, VERDICT_CACHE_SIZE)
                    if llm_enabled and verdict.verdict == VERDICT_ABNORMAL:  # judged by its chunk
                        verdict = self._llm_verdict(level, pattern, keys, runs, run, counters)[0]
                elif llm_enabled and verdict.verdict == VERDICT_ABNORMAL:
                    verdict, kept = self._llm_verdict(level, pattern, keys, runs, run, counters)
                    (hits if kept else misses)[level] += 1
                else:
                    hits[level] += 1
                verdicts.append(verdict)
                evals[level] += 1
                level_keys[level] += run[1] - run[0]
                if verdict.verdict == VERDICT_ABNORMAL:
                    report.final_verdict = True
                    if report.first_abnormal_level is None:
                        report.first_abnormal_level = level
                    if early_exit:
                        return report
        return report

    def run(self, sequences: Sequence[LogSequence]) -> list[SequenceReport]:
        """Detect a corpus, one sequence at a time."""
        return [self.detect_sequence(seq) for seq in sequences]


def train(
    sequences: Sequence[LogSequence],
    tree: TopicTree,
    config: DetectConfig,
    provider: Optional[Provider] = None,
    templates: Optional[dict[str, str]] = None,
) -> KnowledgeBaseSet:
    """Build training KBs from normal-only sequences.

    Every run of every level is inserted at its level: a pattern seen
    before only counts one more occurrence, and a new one is inserted with
    its run's slice of the keys; no `Seq` is built. With the LLM path
    enabled, a new pattern's summary and embedding are computed before its
    insert, so each entry is whole when inserted. The summary is
    `summary_of`'s, the rule detection uses, so it is the summary of the
    entry's example chunk whatever order the sequences come in. Any
    decomposition failure aborts the run: training KBs must be complete.
    """
    if config.llm_enabled and provider is None:
        raise ValueError("llm_enabled training requires a provider for summaries")
    templates = templates or {}
    kbs = KnowledgeBaseSet(llm=config.llm_enabled)
    memo: dict[str, dict[tuple[str, ...], str]] = {level: {} for level in LEVEL_ORDER}  # chunk -> summary, per level
    for sequence in sequences:
        if sequence.label is True:
            raise ValueError(f"training sequence {sequence.id} is labeled abnormal (one-class setting)")
        if not sequence.keys:
            continue
        keys = list(sequence.keys)
        try:
            runs = scan_runs(keys, tree)
        except DecompositionError as exc:
            raise DecompositionError(f"training sequence {sequence.id}: {exc}") from exc
        for level in LEVEL_ORDER:
            kb, level_runs = kbs.train[level], runs[level]
            for pattern, run in zip(pattern_keys(level, keys, level_runs, tree), level_runs):
                entry = kb.entries.get(pattern)
                if entry is not None:
                    entry.occurrence_count += 1
                elif config.llm_enabled:
                    chunk = keys[run[0]:run[1]]
                    summary = summary_of(level, pattern, keys, runs, run, memo, kbs.train, tree, templates, provider)
                    kb.insert_train(pattern, chunk, summary, embed_chunk(chunk))
                else:
                    kb.insert_train(pattern, keys[run[0]:run[1]])
    return kbs
