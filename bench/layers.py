"""Where the traced run attaches to hierlog, and the per-layer metrics it derives.

Each wrapper sits at the name its caller looks it up by: module functions
in `hierlog.pipeline` (what `run_pipeline` calls) and `hierlog.detect` (what
the detector and training call), and methods on the classes whose instances
the pipeline and detector use.
"""

from __future__ import annotations

from pathlib import Path

from tracer import Tracer

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("ingest.match_s", "s", "lower"),
    ("ingest.msgs_per_s", "1/s", "higher"),
    ("ingest.unmatched", "count", "lower"),
    ("ingest.partition_s", "s", "lower"),
    ("ingest.catalog_load_s", "s", "lower"),
    ("ingest.seq_io_s", "s", "lower"),
    ("hierarchy.build_s", "s", "lower"),
    ("hierarchy.load_s", "s", "lower"),
    ("decompose.calls", "count", "lower"),
    ("decompose.keys", "count", "lower"),
    ("decompose.self_s", "s", "lower"),
    ("decompose.keys_per_s", "1/s", "higher"),
    ("knowledge.probe_calls", "count", "lower"),
    ("knowledge.probe_s", "s", "lower"),
    ("knowledge.cache_lookups", "count", "lower"),
    ("knowledge.cache_hits", "count", "higher"),
    ("knowledge.cache_hit_ratio", "ratio", "higher"),
    ("knowledge.cache_s", "s", "lower"),
    ("knowledge.cache_stores", "count", "lower"),
    ("knowledge.test_entries", "count", "lower"),
    ("knowledge.train_entries", "count", "lower"),
    ("knowledge.insert_train_calls", "count", "lower"),
    ("knowledge.insert_train_s", "s", "lower"),
    ("knowledge.save_s", "s", "lower"),
    ("knowledge.load_s", "s", "lower"),
    ("knowledge.retrieve_calls", "count", "lower"),
    ("knowledge.retrieve_s", "s", "lower"),
    ("semantics.provider_calls", "count", "lower"),
    ("semantics.provider_s", "s", "lower"),
    ("semantics.summarize_calls", "count", "lower"),
    ("semantics.summarize_s", "s", "lower"),
    ("semantics.embed_calls", "count", "lower"),
    ("semantics.embed_s", "s", "lower"),
    ("semantics.llm_detect_calls", "count", "lower"),
    ("semantics.llm_detect_s", "s", "lower"),
    ("semantics.low_confidence", "count", "lower"),
    ("semantics.provider_errors", "count", "lower"),
    ("llm_calls_per_kseq", "count", "lower"),
    ("detect.train_s", "s", "lower"),
    ("detect.run_s", "s", "lower"),
    ("detect.self_s", "s", "lower"),
    ("detect.evals.status", "count", "lower"),
    ("detect.evals.action", "count", "lower"),
    ("detect.evals.entity", "count", "lower"),
    ("detect.keys.status", "count", "lower"),
    ("detect.keys.action", "count", "lower"),
    ("detect.keys.entity", "count", "lower"),
    ("evalreport.save_reports_s", "s", "lower"),
    ("evalreport.report_bytes", "bytes", "lower"),
    ("evalreport.score_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("online.latency_samples", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

LEVELS = ("status", "action", "entity")


def _count_messages(t: Tracer, args, kwargs, report) -> None:
    t.count("ingest.messages", len(args[1]))
    t.count("ingest.unmatched", len(report.skipped))


def _count_keys(t: Tracer, args, kwargs, result) -> None:
    t.count("decompose.keys", len(args[0]))


def _count_hit(t: Tracer, args, kwargs, entry) -> None:
    if entry is not None:
        t.count("knowledge.cache_hits")


def _count_low(t: Tracer, args, kwargs, result) -> None:
    if result[2]:
        t.count("semantics.low_confidence")


def _count_levels(t: Tracer, args, kwargs, report) -> None:
    for level in LEVELS:
        t.counts["detect.evals." + level] += report.counters.evals_per_level[level]
        t.counts["detect.keys." + level] += report.counters.keys_per_level[level]


def _count_report_bytes(t: Tracer, args, kwargs, result) -> None:
    t.count("evalreport.report_bytes", Path(args[1]).stat().st_size)


def install(tracer: Tracer) -> None:
    """Put a traced wrapper at every layer boundary; `tracer.uninstall()` removes them."""
    from hierlog import detect, pipeline
    from hierlog.errors import ProviderError
    from hierlog.knowledge import KnowledgeBase, KnowledgeBaseSet
    from hierlog.semantics import MockProvider

    p = tracer.patch
    p(pipeline, "run_pipeline", "pipeline.run_pipeline")
    # ingest
    p(pipeline, "load_template_catalog", "ingest.load_template_catalog")
    p(pipeline, "match_records", "ingest.match_records", _count_messages)
    p(pipeline, "partition_records", "ingest.partition")
    p(pipeline, "save_sequences", "ingest.save_sequences")
    p(pipeline, "load_sequences", "ingest.load_sequences")
    # hierarchy
    for fn in ("make_extractor", "extract_topics", "refine_topics", "build_tree"):
        p(pipeline, fn, "hierarchy." + fn)
    p(pipeline.TopicTree, "save", "hierarchy.save")
    p(pipeline.TopicTree, "load", "hierarchy.load")
    # decompose
    p(detect, "top_down_decompose", "decompose.top_down_decompose", _count_keys)
    # knowledge
    p(KnowledgeBase, "contains", "knowledge.contains")
    p(KnowledgeBase, "accepts_transitions", "knowledge.accepts_transitions")
    p(KnowledgeBase, "lookup_test", "knowledge.lookup_test", _count_hit)
    p(KnowledgeBase, "store_test", "knowledge.store_test")
    p(KnowledgeBase, "insert_train", "knowledge.insert_train")
    p(KnowledgeBase, "retrieve_similar", "knowledge.retrieve_similar")
    p(KnowledgeBaseSet, "save_dir", "knowledge.save_dir")
    p(KnowledgeBaseSet, "load_dir", "knowledge.load_dir")
    # semantics
    p(MockProvider, "complete", "semantics.complete", on_error=(ProviderError, "semantics.provider_errors"))
    p(detect, "summarize_status_seq", "semantics.summarize_status_seq")
    p(detect, "summarize_parent_seq", "semantics.summarize_parent_seq")
    p(detect, "embed_chunk", "semantics.embed_chunk")
    p(detect, "llm_detect", "semantics.llm_detect", _count_low)
    # detect
    p(pipeline, "train_kbs", "detect.train")
    p(pipeline.Detector, "run", "detect.run")
    p(pipeline.Detector, "detect_sequence", "detect.detect_sequence", _count_levels)
    # evalreport
    p(pipeline, "save_reports", "evalreport.save_reports", _count_report_bytes)
    for fn in ("compute_metrics", "structure_report", "attribution_report"):
        p(pipeline, fn, "evalreport." + fn)


def per_layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer values from the spans and counts, plus values the run measured itself.

    `extra` supplies the numbers no wrapper sees: knowledge.test_entries,
    knowledge.train_entries, llm_calls_per_kseq, online.latency_samples and
    trace.overhead_ratio.
    """
    total, self_t = tracer.totals()
    c = tracer.counts

    def dur(*names: str) -> float:
        return sum(total.get(n, 0.0) for n in names)

    def calls(*names: str) -> float:
        return sum(c.get(n + ".calls", 0) for n in names)

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    match_s = dur("ingest.match_records")
    decompose_self = self_t.get("decompose.top_down_decompose", 0.0)
    probes = ("knowledge.contains", "knowledge.accepts_transitions")
    summarize = ("semantics.summarize_status_seq", "semantics.summarize_parent_seq")
    lookups = calls("knowledge.lookup_test")
    out = {
        "ingest.match_s": match_s,
        "ingest.msgs_per_s": rate(c.get("ingest.messages", 0), match_s),
        "ingest.unmatched": c.get("ingest.unmatched", 0),
        "ingest.partition_s": dur("ingest.partition"),
        "ingest.catalog_load_s": dur("ingest.load_template_catalog"),
        "ingest.seq_io_s": dur("ingest.save_sequences", "ingest.load_sequences"),
        "hierarchy.build_s": dur(
            "hierarchy.make_extractor", "hierarchy.extract_topics", "hierarchy.refine_topics",
            "hierarchy.build_tree", "hierarchy.save",
        ),
        "hierarchy.load_s": dur("hierarchy.load"),
        "decompose.calls": calls("decompose.top_down_decompose"),
        "decompose.keys": c.get("decompose.keys", 0),
        "decompose.self_s": decompose_self,
        "decompose.keys_per_s": rate(c.get("decompose.keys", 0), decompose_self),
        "knowledge.probe_calls": calls(*probes),
        "knowledge.probe_s": dur(*probes),
        "knowledge.cache_lookups": lookups,
        "knowledge.cache_hits": c.get("knowledge.cache_hits", 0),
        "knowledge.cache_hit_ratio": c.get("knowledge.cache_hits", 0) / lookups if lookups else 0.0,
        "knowledge.cache_s": dur("knowledge.lookup_test", "knowledge.store_test"),
        "knowledge.cache_stores": calls("knowledge.store_test"),
        "knowledge.insert_train_calls": calls("knowledge.insert_train"),
        "knowledge.insert_train_s": dur("knowledge.insert_train"),
        "knowledge.save_s": dur("knowledge.save_dir"),
        "knowledge.load_s": dur("knowledge.load_dir"),
        "knowledge.retrieve_calls": calls("knowledge.retrieve_similar"),
        "knowledge.retrieve_s": dur("knowledge.retrieve_similar"),
        "semantics.provider_calls": calls("semantics.complete"),
        "semantics.provider_s": dur("semantics.complete"),
        "semantics.summarize_calls": calls(*summarize),
        "semantics.summarize_s": dur(*summarize),
        "semantics.embed_calls": calls("semantics.embed_chunk"),
        "semantics.embed_s": dur("semantics.embed_chunk"),
        "semantics.llm_detect_calls": calls("semantics.llm_detect"),
        "semantics.llm_detect_s": dur("semantics.llm_detect"),
        "semantics.low_confidence": c.get("semantics.low_confidence", 0),
        "semantics.provider_errors": c.get("semantics.provider_errors", 0),
        "detect.train_s": dur("detect.train"),
        "detect.run_s": dur("detect.run"),
        "detect.self_s": self_t.get("detect.run", 0.0) + self_t.get("detect.detect_sequence", 0.0),
        "evalreport.save_reports_s": dur("evalreport.save_reports"),
        "evalreport.report_bytes": c.get("evalreport.report_bytes", 0),
        "evalreport.score_s": dur(
            "evalreport.compute_metrics", "evalreport.structure_report", "evalreport.attribution_report"
        ),
        "pipeline.self_s": self_t.get("pipeline.run_pipeline", 0.0),
    }
    for level in LEVELS:
        out["detect.evals." + level] = c.get("detect.evals." + level, 0)
        out["detect.keys." + level] = c.get("detect.keys." + level, 0)
    out.update(extra)
    missing = [name for name, _, _ in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {', '.join(missing)}")
    return {name: out[name] for name, _, _ in PER_LAYER}
