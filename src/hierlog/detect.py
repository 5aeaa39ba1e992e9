"""Hybrid per-sub-sequence detection with bottom-up execution.

Each decomposed sub-sequence is checked by the configured symbolic
detector (exact signature matching or a transition automaton). Only a
pattern it rejects goes to the LLM, with retrieved sibling examples, and
a decided LLM verdict is cached per chunk in the test KB of its level, so
a repeated pattern costs one provider round. Symbolic verdicts are never
cached, so a verdict does not depend on what ran before. Verdicts
aggregate bottom-up per sequence with optional early exit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .decompose import Seq, top_down_decompose
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
            self.levels_enabled = LEVEL_PRESETS[self.levels_enabled]
        unknown = set(self.levels_enabled) - set(LEVEL_ORDER)
        if unknown:
            raise ValueError(f"unknown levels: {unknown}")
        if self.levels_enabled and STATUS not in self.levels_enabled:
            raise ValueError("bottom-up presets require the status level whenever any level is enabled")
        for level in LEVEL_ORDER:
            self.detector_per_level.setdefault(level, EXACT)


@dataclass
class SeqVerdict:
    signature: str
    level: str
    verdict: str  # normal | abnormal
    source: str  # pattern_match | automaton | llm
    explanation: Optional[str] = None
    confidence_flag: str = "normal"  # normal | low


@dataclass
class Counters:
    llm_calls: int = 0
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
    verdict = VERDICT_NORMAL if train_kb.contains(seq.signature) else VERDICT_ABNORMAL
    return SeqVerdict(signature=seq.signature, level=seq.level, verdict=verdict, source="pattern_match")


def detect_local_automaton(seq: Seq, train_kb: KnowledgeBase) -> SeqVerdict:
    """Normal iff every adjacent node pair (with start/end marks) was trained."""
    ok = train_kb.accepts_transitions(seq.parent_key, seq.nodes)
    verdict = VERDICT_NORMAL if ok else VERDICT_ABNORMAL
    return SeqVerdict(signature=seq.signature, level=seq.level, verdict=verdict, source="automaton")


class Detector:
    """Executes hybrid detection over decomposed sequences, sharing KBs."""

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
        self._summary_cache: dict[tuple[str, str], str] = {}

    # -- single sub-sequence --------------------------------------------------

    def detect_seq(self, seq: Seq, counters: Counters) -> SeqVerdict:
        """Local detector, then, for a rejected pattern, the cached or a fresh LLM verdict."""
        train_kb = self.kbs.train[seq.level]
        if self.config.detector_per_level.get(seq.level, EXACT) == AUTOMATON:
            verdict = detect_local_automaton(seq, train_kb)
        else:
            verdict = detect_local_exact(seq, train_kb)
        if verdict.verdict == VERDICT_NORMAL or not self.config.llm_enabled:
            return verdict

        cache = self.kbs.test[seq.level]
        ck = chunk_key(seq.chunk)
        entry = cache.lookup_test(ck)
        if entry is None:
            try:
                prompt = self._build_prompt(seq)
                counters.llm_calls += 1
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
        examples = self.kbs.train[seq.level].retrieve_similar(
            seq.parent_path, query, self.config.m
        )
        return DetectionPrompt(
            target_nodes=">".join(seq.nodes),
            target_summary=target_summary,
            example_summaries=[e.summary for e in examples if e.summary],
            parent_context=parent_context(seq),
        )

    def _summary_for(self, seq: Seq) -> str:
        """Bottom-up summary, cached in memory per (level, chunk)."""
        ck = chunk_key(seq.chunk)
        cached = self._summary_cache.get((seq.level, ck))
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
        self._summary_cache[(seq.level, ck)] = summary
        return summary

    # -- whole sequence ---------------------------------------------------------

    def detect_sequence(self, sequence: LogSequence) -> SequenceReport:
        """Evaluate all enabled levels bottom-up; any abnormal flags the sequence."""
        keys = sequence.keys
        report = SequenceReport(sequence_id=sequence.id, final_verdict=False, raw_length=len(keys))

        if not keys:
            log.warning("sequence %s is empty; treated as normal by vacuity", sequence.id)
            return report

        try:
            result = top_down_decompose(keys, self.tree)
        except DecompositionError as exc:
            report.error = str(exc)
            report.final_verdict = True  # undecidable sequences surface, not vanish
            return report

        stop = False
        for level in LEVEL_ORDER:
            if level not in self.config.levels_enabled:
                continue
            for seq in result.by_level(level):
                verdict = self.detect_seq(seq, report.counters)
                report.verdicts.append(verdict)
                report.counters.evals_per_level[level] += 1
                report.counters.keys_per_level[level] += len(seq.chunk)
                if verdict.verdict == VERDICT_ABNORMAL:
                    report.final_verdict = True
                    if report.first_abnormal_level is None:
                        report.first_abnormal_level = level
                    if self.config.early_exit:
                        stop = True
                        break
            if stop:
                break
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

    Every decomposed sub-sequence is inserted at its level. With the LLM
    path enabled, summaries and embeddings are computed bottom-up for each
    new unique pattern. Any decomposition failure aborts the run: training
    KBs must be complete.
    """
    if config.llm_enabled and provider is None:
        raise ValueError("llm_enabled training requires a provider for summaries")
    templates = templates or {}
    kbs = KnowledgeBaseSet()
    for sequence in sequences:
        if sequence.label is True:
            raise ValueError(f"training sequence {sequence.id} is labeled abnormal (one-class setting)")
        if not sequence.keys:
            continue
        try:
            result = top_down_decompose(sequence.keys, tree)
        except DecompositionError as exc:
            raise DecompositionError(f"training sequence {sequence.id}: {exc}") from exc
        for seq in result.all_seqs():
            entry = kbs.train[seq.level].insert_train(seq)
            if config.llm_enabled and entry.summary is None:
                if seq.level == STATUS:
                    texts = [templates.get(k, k) for k in seq.chunk]
                    entry.summary = summarize_status_seq(seq, texts, provider)
                else:
                    child_summaries = [
                        kbs.train[c.level].entries[c.signature].summary for c in seq.children
                    ]
                    entry.summary = summarize_parent_seq(seq, child_summaries, provider)
            if config.llm_enabled and entry.embedding is None:
                entry.embedding = embed_chunk(entry.example_chunk)
    return kbs
