"""Hybrid per-sub-sequence detection with bottom-up execution.

Each sub-sequence is checked by the configured symbolic detector (exact
signature matching or a transition automaton). Only a pattern it rejects
goes to the LLM, with retrieved sibling examples, and a decided LLM
verdict is cached per chunk in the test KB of its level, so a repeated
pattern costs one provider round. Within a `Detector`, every decided
verdict is also kept per level in a dict, keyed by what it is a function
of: the pattern with the LLM off, the chunk with it on. A run whose key is
there skips its `Seq`, its signature, its probe and the LLM routing, so
this never changes a report. Verdicts aggregate bottom-up per sequence
with optional early exit. A report is a function of its key list and is
memoised by it (`Detector.detect_sequence`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .decompose import Seq, add_children, chunk_keys, pattern_keys, run_seq, scan_runs
from .decompose import top_down_decompose  # noqa: F401; bench/layers.py wraps it under this name
from .errors import DecompositionError, ProviderError
from .hierarchy import ACTION, ENTITY, STATUS, TopicTree
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

LEVEL_PRESETS = {
    "S": (STATUS,),
    "SA": (STATUS, ACTION),
    "SAE": (STATUS, ACTION, ENTITY),
}

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
    signature: str
    level: str
    verdict: str  # normal | abnormal
    source: str  # pattern_match | automaton | llm
    explanation: Optional[str] = None
    confidence_flag: str = "normal"  # normal | low


@dataclass
class Counters:
    provider_errors: int = 0
    keys_per_level: dict[str, int] = field(default_factory=lambda: {l: 0 for l in LEVEL_ORDER})
    evals_per_level: dict[str, int] = field(default_factory=lambda: {l: 0 for l in LEVEL_ORDER})


@dataclass
class SequenceReport:
    sequence_id: str
    final_verdict: bool
    verdicts: list[SeqVerdict] = field(default_factory=list)
    first_abnormal_level: Optional[str] = None
    counters: Counters = field(default_factory=Counters)
    raw_length: int = 0
    error: Optional[str] = None


def detect_local_exact(seq: Seq, train_kb: KnowledgeBase) -> SeqVerdict:
    """Normal iff the signature was observed in training."""
    signature = seq.signature
    verdict = VERDICT_NORMAL if train_kb.contains(signature) else VERDICT_ABNORMAL
    return SeqVerdict(signature, seq.level, verdict, "pattern_match")


def detect_local_automaton(seq: Seq, train_kb: KnowledgeBase) -> SeqVerdict:
    """Normal iff every adjacent node pair (with start/end marks) was trained."""
    verdict = VERDICT_NORMAL if train_kb.accepts_transitions(seq.parent_key, seq.nodes) else VERDICT_ABNORMAL
    return SeqVerdict(seq.signature, seq.level, verdict, "automaton")


LOCAL_DETECTORS = {EXACT: detect_local_exact, AUTOMATON: detect_local_automaton}


def _bounded_put(cache: dict, key, value, bound: int) -> None:
    """Store into a Detector cache, emptying it first when it holds `bound` entries."""
    if len(cache) >= bound:
        cache.clear()
    cache[key] = value


class Detector:
    """Executes hybrid detection over decomposed sequences, sharing KBs.

    `detect_sequence` memoises every report that met no provider error in
    a dict keyed by the tuple of the sequence's keys, emptied when it holds
    `MEMO_SIZE` reports; a hit returns a copy under the caller's sequence
    id. This is sound because the train KBs do not change during a
    Detector's life and `store_test` writes an LLM cache entry only on a
    miss, so a fresh LLM verdict equals the cached one of a later sight: a
    report is a function of its key list. `llm_calls` (detection rounds)
    and `memo_hits`/`memo_misses` are run history, kept out of reports.

    Below the memo, `_detect` scans the runs of every level and keeps the
    decided verdict of each run in a plain dict per enabled level
    (`VERDICT_CACHE_SIZE` entries, emptied when full), so reports share
    `SeqVerdict` objects. With the LLM off a verdict is a function of the
    pattern (`pattern_keys`): the parent path and node names that its
    signature encodes. With the LLM on it is keyed by the chunk, which the
    summaries, the retrieval query and the LLM cache read. Only a miss
    builds the run's `Seq`, and only a run routed to the LLM its children.
    A verdict made under a provider error is not kept.
    `verdict_hits`/`verdict_misses` count lookups per level for the logs.
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
        # pattern (chunk with the LLM on) -> decided verdict, per enabled level
        self._verdicts: dict[str, dict[tuple[str, ...], SeqVerdict]] = {}
        # the enabled levels bottom-up with their checks and verdict dicts; set-up builds an automaton's index
        self._levels = []
        for level in LEVEL_ORDER:
            if level in config.levels_enabled:
                kind = config.detector_per_level[level]
                if kind == AUTOMATON:
                    kbs.train[level].transition_index()
                self._levels.append((level, LOCAL_DETECTORS[kind], self._verdicts.setdefault(level, {})))
        self._summary_cache: dict[str, dict[tuple[str, ...], str]] = {level: {} for level in LEVEL_ORDER}
        self._memo: dict[tuple[str, ...], SequenceReport] = {}
        self.llm_calls = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.verdict_hits = dict.fromkeys(LEVEL_ORDER, 0)
        self.verdict_misses = dict.fromkeys(LEVEL_ORDER, 0)

    # -- single sub-sequence --------------------------------------------------

    def _llm_verdict(self, seq: Seq, counters: Counters) -> SeqVerdict:
        """The cached or a fresh LLM verdict on a pattern that the local detector rejected."""
        cache = self.kbs.test[seq.level]
        ck = chunk_key(seq.chunk)
        entry = cache.lookup_test(ck)
        if entry is None:
            try:
                prompt = self._build_prompt(seq)
                self.llm_calls += 1
                answer, explanation, low = llm_detect(prompt, self.provider)
            except ProviderError as exc:  # undecided, so never cached
                counters.provider_errors += 1
                log.warning("provider error for %s: %s", seq.signature, exc)
                explanation = f"undecided: provider error ({exc})"
                return SeqVerdict(seq.signature, seq.level, VERDICT_ABNORMAL, "llm", explanation, "low")
            entry = TestEntry(ck, answer, explanation, "low" if low else "normal")
            cache.store_test(entry)
        return SeqVerdict(seq.signature, seq.level, entry.verdict, "llm", entry.explanation, entry.confidence_flag)

    def _build_prompt(self, seq: Seq) -> DetectionPrompt:
        target_summary = self._summary_for(seq)
        query = embed_chunk(seq.chunk)
        examples = self.kbs.train[seq.level].retrieve_similar(seq.parent_key, query, self.config.m)
        return DetectionPrompt(
            target_nodes=">".join(seq.nodes),
            target_summary=target_summary,
            example_summaries=[e.summary for e in examples if e.summary],
            parent_context=parent_context(seq),
        )

    def _summary_for(self, seq: Seq) -> str:
        """Bottom-up summary, cached in memory per level and chunk, bounded like the verdict dicts."""
        cache = self._summary_cache[seq.level]
        key = tuple(seq.chunk)
        cached = cache.get(key)
        if cached is not None:
            return cached
        # reuse training summaries when the same pattern+chunk was summarized
        train_entry = self.kbs.train[seq.level].entries.get(seq.signature)
        if train_entry is not None and train_entry.summary and train_entry.example_chunk == seq.chunk:
            summary = train_entry.summary
        elif seq.level == STATUS:
            texts = [self.templates.get(k, k) for k in seq.chunk]
            summary = summarize_status_seq(seq, texts, self.provider)
        else:
            child_summaries = [self._summary_for(child) for child in seq.children]
            summary = summarize_parent_seq(seq, child_summaries, self.provider)
        _bounded_put(cache, key, summary, VERDICT_CACHE_SIZE)
        return summary

    # -- whole sequence ---------------------------------------------------------

    def detect_sequence(self, sequence: LogSequence) -> SequenceReport:
        """The memoised report for the sequence's keys, or a fresh `_detect`."""
        key = tuple(sequence.keys)
        memo = self._memo.get(key)
        if memo is not None:
            self.memo_hits += 1
            return SequenceReport(
                sequence.id, memo.final_verdict, list(memo.verdicts), memo.first_abnormal_level,
                Counters(0, dict(memo.counters.keys_per_level), dict(memo.counters.evals_per_level)),
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
        for level, local, cache in self._levels:
            train_kb = self.kbs.train[level]
            level_runs = runs[level]
            run_keys = chunk_keys(keys, level_runs) if llm_enabled else pattern_keys(level, keys, level_runs, tree)
            for key, run in zip(run_keys, level_runs):
                verdict = cache.get(key)
                if verdict is None:
                    misses[level] += 1
                    seq = run_seq(level, keys, run, tree)
                    errors = counters.provider_errors
                    verdict = local(seq, train_kb)
                    if llm_enabled and verdict.verdict == VERDICT_ABNORMAL:  # summaries read the children
                        verdict = self._llm_verdict(add_children(seq, keys, runs, run, tree), counters)
                    if counters.provider_errors == errors:  # undecided verdicts are asked again
                        _bounded_put(cache, key, verdict, VERDICT_CACHE_SIZE)
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
    before only counts one more occurrence, and a new one builds its `Seq`.
    With the LLM path enabled, summaries and embeddings are computed
    bottom-up for each new pattern, a parent's from its children's
    entries. Any decomposition failure aborts the run: training KBs must be
    complete.
    """
    if config.llm_enabled and provider is None:
        raise ValueError("llm_enabled training requires a provider for summaries")
    templates = templates or {}
    kbs = KnowledgeBaseSet(llm=config.llm_enabled)
    entries_by_level = {level: {} for level in LEVEL_ORDER}  # pattern -> its entry, per level
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
        below, below_entries = [], {}  # the level below: its patterns in run order, and its entries
        for level in LEVEL_ORDER:
            entries, level_runs = entries_by_level[level], runs[level]
            patterns = pattern_keys(level, keys, level_runs, tree)
            first_child = 0
            for pattern, run in zip(patterns, level_runs):
                entry = entries.get(pattern)
                if entry is not None:
                    entry.occurrence_count += 1
                else:
                    seq = run_seq(level, keys, run, tree)
                    entry = entries[pattern] = kbs.train[level].insert_train(seq)
                    if config.llm_enabled:
                        if level == STATUS:
                            texts = [templates.get(k, k) for k in seq.chunk]
                            entry.summary = summarize_status_seq(seq, texts, provider)
                        else:
                            children = below[first_child:first_child + len(seq.nodes)]
                            child_summaries = [below_entries[p].summary for p in children]
                            entry.summary = summarize_parent_seq(seq, child_summaries, provider)
                        entry.embedding = embed_chunk(entry.example_chunk)
                first_child += len(run[2])
            below, below_entries = patterns, entries
    return kbs
