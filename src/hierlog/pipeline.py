"""The stage layer: ingest, extract/build, train, detect, score, and the INI pipeline.

Each stage is one function, called by both the CLI commands and
`run_pipeline`. Stages communicate through persisted artifacts
(sequences, tree, KB files, reports), so each stage can be re-run
independently. A pipeline config has sections [hierarchy], [train],
[detect], and optional [ingest], [eval] and [provider]; `run_pipeline`
maps each section onto its stage.
"""

from __future__ import annotations

import configparser
import json
import logging
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Optional

from .detect import DetectConfig, Detector, SequenceReport, train as train_kbs
from .errors import ConfigError, HierlogError, StageError
from .evalreport import (
    attribution_report,
    compute_metrics,
    load_report_records,
    save_reports,
    structure_report,
)
from .hierarchy import (
    ExtractorConfig,
    TopicTree,
    TopicTriple,
    build_tree,
    extract_topics,
    load_triples,
    make_extractor,
    refine_topics,
    save_triples,
)
from .ingest import (
    LogSequence,
    PartitionSpec,
    TemplateCatalog,
    load_raw_records,
    load_sequences,
    load_template_catalog,
    match_records,
    partition as partition_records,
    save_sequences,
)
from .knowledge import KnowledgeBaseSet
from .semantics import Provider, ProviderConfig, make_provider

log = logging.getLogger(__name__)


def parse_detector_spec(spec: str) -> dict[str, str]:
    """Parse '<exact|automaton>[:level=kind,...]' into a per-level map."""
    base, _, overrides = spec.partition(":")
    if base not in ("exact", "automaton"):
        raise ConfigError(f"unknown detector: {base!r}")
    per_level = {level: base for level in ("status", "action", "entity")}
    if overrides:
        for item in overrides.split(","):
            level, _, kind = item.partition("=")
            if level not in per_level or kind not in ("exact", "automaton"):
                raise ConfigError(f"bad detector override: {item!r}")
            per_level[level] = kind
    return per_level


def parse_partition_spec(spec: str) -> PartitionSpec:
    """Parse 'identifier', 'count:N[:S]', or 'time:D[:S]'; anything else is a ConfigError."""
    kind, *sizes = spec.split(":")
    try:
        if kind == "identifier" and not sizes:
            return PartitionSpec(mode="identifier")
        if kind in ("count", "time") and 1 <= len(sizes) <= 2:
            return PartitionSpec(f"{kind}_window", *(float(s) for s in sizes))
    except ValueError as exc:
        raise ConfigError(f"bad partition spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown partition spec {spec!r}; expected identifier, count:N[:S] or time:D[:S]")


def load_provider(settings: Mapping[str, Optional[str]]) -> Provider:
    """The LLM provider that a [provider] section, or the CLI's --provider-* options, describe."""
    fields = {name: settings.get(name) or None for name in ("fixture_path", "endpoint", "model", "auth_env")}
    try:
        return make_provider(ProviderConfig(kind=settings.get("kind", "mock"), **fields))
    except ValueError as exc:  # a bad fixture file is a run failure, not a setting
        raise ConfigError(f"provider: {exc}") from exc


def _template_texts(catalog: TemplateCatalog) -> dict[str, str]:
    return {t.key: t.text for t in catalog.templates()}


def _save_json(payload: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


# -- stages -------------------------------------------------------------------

def ingest(
    catalog: TemplateCatalog, logs_path: str | Path, partition: str, out_path: str | Path
) -> tuple[int, int]:
    """Match raw records to templates, partition them, and save the sequences.

    Returns (sequences written, unmatched messages skipped); the caller
    reports the skipped count, so no message is dropped silently.
    """
    spec = parse_partition_spec(partition)
    report = match_records(catalog, load_raw_records(logs_path))
    sequences = partition_records(report.records, report.keys, spec)
    save_sequences(sequences, out_path)
    return len(sequences), len(report.skipped)


def extract(
    catalog: TemplateCatalog, kind: str, fixture: Optional[str], lexicon: Optional[str],
    provider: Optional[Provider], refine: bool = True, triples_out: Optional[str | Path] = None,
) -> list[TopicTriple]:
    """One (entity, action, status) triple per template, saved when given a path."""
    extractor = make_extractor(
        ExtractorConfig(kind=kind, fixture_path=fixture or None, lexicon_path=lexicon or None),
        provider=provider,
    )
    triples = extract_topics(catalog, extractor)
    if refine:
        triples = refine_topics(triples)
    if triples_out:
        save_triples(triples, triples_out)
    return triples


def build(triples: list[TopicTriple], tree_out: str | Path) -> TopicTree:
    """Assemble the topic tree from triples and save it."""
    tree = build_tree(triples)
    Path(tree_out).parent.mkdir(parents=True, exist_ok=True)
    tree.save(tree_out)
    return tree


def train(
    catalog: TemplateCatalog, tree: TopicTree, sequences_path: str | Path, kb_dir: str | Path,
    llm: bool, provider: Optional[Provider],
) -> KnowledgeBaseSet:
    """Build the training knowledge bases from normal sequences and save them."""
    sequences = load_sequences(sequences_path, catalog)
    kbs = train_kbs(
        sequences, tree, DetectConfig(llm_enabled=llm), provider=provider, templates=_template_texts(catalog)
    )
    kbs.save_dir(kb_dir)
    return kbs


def detect_config(levels: str, detector: str, llm: bool, m: int, early_exit: bool) -> DetectConfig:
    """The detector settings that the CLI options and the [detect] section name."""
    return DetectConfig(levels, parse_detector_spec(detector), llm_enabled=llm, m=m, early_exit=early_exit)


def detect(
    catalog: TemplateCatalog, tree: TopicTree, kbs: KnowledgeBaseSet, kb_dir: str | Path,
    sequences_path: str | Path, report_path: str | Path, config: DetectConfig, provider: Optional[Provider],
) -> tuple[list[LogSequence], list[SequenceReport]]:
    """Detect over the test sequences, save the report, and save the LLM verdict caches to kb_dir."""
    sequences = load_sequences(sequences_path, catalog)
    detector = Detector(tree, kbs, config, provider=provider, templates=_template_texts(catalog))
    reports = detector.run(sequences)
    meta = {
        "created_at": datetime.now(timezone.utc).isoformat(),
        "levels": "".join(level[0].upper() for level in config.levels_enabled),
        "llm": config.llm_enabled,
    }
    save_reports(reports, report_path, meta=meta)
    kbs.save_dir(kb_dir)
    return sequences, reports


def score(sequences: list[LogSequence], verdicts: dict[str, bool]) -> dict:
    """Confusion counts and precision/recall/F1 of the verdicts over the labeled sequences."""
    labeled = [s for s in sequences if s.label is not None]
    missing = [s.id for s in labeled if s.id not in verdicts]
    if missing:
        shown = ", ".join(missing[:5]) + (", ..." if len(missing) > 5 else "")
        raise HierlogError(f"the report lacks {len(missing)} labeled sequence(s): {shown}")
    return asdict(compute_metrics([verdicts[s.id] for s in labeled], [bool(s.label) for s in labeled]))


def score_report(
    catalog: TemplateCatalog, sequences_path: str | Path, report_path: str | Path, out: Optional[str | Path]
) -> dict:
    """Score a saved report against the labels of its test sequences; saved when given a path."""
    _, records = load_report_records(report_path)
    verdicts = {r["sequence_id"]: r["final_verdict"] for r in records}
    metrics = score(load_sequences(sequences_path, catalog), verdicts)
    if out:
        _save_json(metrics, out)
    return metrics


def evaluate(
    tree: TopicTree, kbs: KnowledgeBaseSet, sequences: list[LogSequence], reports: list[SequenceReport],
    attribution: bool, out: Optional[str | Path],
) -> dict:
    """Metrics, structure report and, optionally, level attribution of one run."""
    by_id = {r.sequence_id: r for r in reports}
    payload = {
        "metrics": score(sequences, {sid: r.final_verdict for sid, r in by_id.items()}),
        "structure": structure_report(tree, kbs, reports).to_json(),
    }
    if attribution:
        labeled = [s for s in sequences if s.label is not None]
        labels = [bool(s.label) for s in labeled]
        payload["attribution"] = attribution_report([by_id[s.id] for s in labeled], labels)
    if out:
        _save_json(payload, out)
    return payload


# -- INI pipeline ---------------------------------------------------------------

def _flag(value: str | bool, default: bool = False) -> bool:
    if isinstance(value, bool):
        return value
    return {"on": True, "off": False, "true": True, "false": False, "": default}[value.strip().lower()]


@contextmanager
def _stage(name: str):
    """Tag a failure inside a stage with the stage's name."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc
    except (KeyError, OSError, HierlogError, ValueError) as exc:
        raise StageError(name, str(exc)) from exc


# section -> the keys that run_pipeline reads from it; anything else is a ConfigError
_INI_KEYS = {
    "provider": {"kind", "fixture_path", "endpoint", "model", "auth_env"},
    "ingest": {"templates", "logs", "partition", "out"},
    "hierarchy": {"templates", "resume", "extractor", "fixture", "lexicon", "triples_out", "tree_out"},
    "train": {"sequences", "kb_dir", "resume", "llm"},
    "detect": {"sequences", "levels", "detector", "llm", "m", "early_exit", "report"},
    "eval": {"attribution", "out"},
}


@dataclass
class PipelineResult:
    tree: TopicTree
    kbs: KnowledgeBaseSet
    metrics: Optional[dict] = None


def run_pipeline(config_path: str | Path) -> PipelineResult:
    """Execute all configured stages in order; stage failures carry the stage tag."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(config_path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {config_path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file: {config_path}")
    for section in parser.sections():
        if section not in _INI_KEYS:
            raise ConfigError(f"{config_path}: unknown section [{section}]")
        # [DEFAULT] keys show in every section; they may serve as interpolation values
        unknown = [key for key in parser[section] if key not in _INI_KEYS[section] | parser.defaults().keys()]
        if unknown:
            raise ConfigError(f"{config_path}: unknown key {unknown[0]!r} in section [{section}]")

    provider = None
    if parser.has_section("provider"):
        provider = load_provider(parser["provider"])

    if parser.has_section("ingest"):
        with _stage("ingest"):
            sec = parser["ingest"]
            catalog = load_template_catalog(sec["templates"])
            _, skipped = ingest(catalog, sec["logs"], sec.get("partition", "identifier"), sec["out"])
        if skipped:
            log.warning("[ingest] skipped %d unmatched messages", skipped)

    with _stage("hierarchy"):
        if not parser.has_section("hierarchy"):
            raise KeyError("missing [hierarchy] section")
        sec = parser["hierarchy"]
        catalog = load_template_catalog(sec["templates"])
        if _flag(sec.get("resume", "off")) and Path(sec["tree_out"]).exists():
            tree = TopicTree.load(sec["tree_out"])
        else:
            triples = extract(
                catalog, sec.get("extractor", "lexicon"), sec.get("fixture"), sec.get("lexicon"), provider,
                triples_out=sec.get("triples_out"),
            )
            tree = build(triples, sec["tree_out"])

    with _stage("train"):
        sec = parser["train"]
        kb_dir = sec["kb_dir"]
        if _flag(sec.get("resume", "off")) and (Path(kb_dir) / "train_status.json").exists():
            kbs = KnowledgeBaseSet.load_dir(kb_dir)
        else:
            kbs = train(catalog, tree, sec["sequences"], kb_dir, _flag(sec.get("llm", "off")), provider)

    with _stage("detect"):
        sec = parser["detect"]
        config = detect_config(
            sec.get("levels", "SAE"), sec.get("detector", "exact"), _flag(sec.get("llm", "off")), sec.getint("m", 5),
            _flag(sec.get("early_exit", "on"), default=True),
        )
        sequences, reports = detect(
            catalog, tree, kbs, kb_dir, sec["sequences"], sec["report"], config, provider
        )

    metrics = None
    if parser.has_section("eval"):
        with _stage("eval"):
            sec = parser["eval"]
            attribution = _flag(sec.get("attribution", "off"))
            metrics = evaluate(tree, kbs, sequences, reports, attribution, sec.get("out"))
    return PipelineResult(tree=tree, kbs=kbs, metrics=metrics)
