"""The stage layer: ingest, extract/build, train, detect, score, and the INI pipeline.

Each stage is one function, called by both the CLI commands and
`run_pipeline`. Every stage writes its artifacts (sequences, tree, KB
files, reports), so each stage can be re-run independently. A pipeline
config has sections [hierarchy], [train], [detect], and optional
[ingest], [eval] and [provider]; `run_pipeline` maps each section onto
its stage. Within one run, a stage that reads a file an earlier stage
wrote takes that stage's output in memory instead: [train] and [detect]
take [ingest]'s sequences, and [hierarchy] takes its template catalog.
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

from .detect import LEVEL_ORDER, DetectConfig, Detector, SequenceReport, train as train_kbs
from .errors import ConfigError, HierlogError, LineParseError, PartitionError, StageError
from .evalreport import (
    attribution_report,
    compute_metrics,
    load_report_records,
    save_reports,
    structure_report,
)
from .hierarchy import (
    LEVEL_INITIAL,
    TopicTree,
    TopicTriple,
    build_tree,
    check_extractor,
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
    raw_record_line,
    save_sequences,
)
from .knowledge import KnowledgeBaseSet
from .semantics import Provider, ProviderConfig, make_provider

log = logging.getLogger(__name__)


def parse_detector_spec(spec: str) -> dict[str, str]:
    """Parse '<kind>[:level=kind,...]' into a per-level map; `DetectConfig` checks the kinds and levels."""
    base, _, overrides = spec.partition(":")
    per_level = dict.fromkeys(LEVEL_ORDER, base)
    if overrides:
        for item in overrides.split(","):
            level, _, kind = item.partition("=")
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
    """The LLM provider that a [provider] section, or the CLI's --provider-* options, describe.

    A bad setting, or a recorded fixture that does not exist, is a ConfigError;
    a malformed line in a fixture is a run failure, not a setting.
    """
    fields = {name: settings.get(name) or None for name in ("fixture_path", "endpoint", "model", "auth_env")}
    try:
        return make_provider(ProviderConfig(kind=settings.get("kind", "mock"), **fields))
    except (ValueError, FileNotFoundError) as exc:
        raise ConfigError(f"provider: {exc}") from exc


def _template_texts(catalog: TemplateCatalog) -> dict[str, str]:
    return {t.key: t.text for t in catalog.templates()}


def _save_json(payload: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


# -- stages -------------------------------------------------------------------

def ingest(
    catalog: TemplateCatalog, logs_path: str | Path, partition: str, out_path: str | Path
) -> tuple[list[LogSequence], int]:
    """Match raw records to templates, partition them, and save the sequences.

    Returns (the sequences written, unmatched messages skipped); the caller
    reports the skipped count, so no message is dropped silently.
    """
    spec = parse_partition_spec(partition)
    columns = load_raw_records(logs_path)
    report = match_records(catalog, columns.messages)
    try:
        sequences = partition_records(columns, report.kept, report.keys, spec)
    except PartitionError as exc:  # its index is the record's row in the columns
        raise LineParseError(logs_path, raw_record_line(logs_path, exc.index), exc.reason) from exc
    save_sequences(sequences, out_path)
    return sequences, len(report.skipped)


def extract(
    catalog: TemplateCatalog, kind: str, fixture: Optional[str], lexicon: Optional[str],
    provider: Optional[Provider], triples_out: Optional[str | Path] = None,
) -> list[TopicTriple]:
    """One refined (entity, action, status) triple per template, saved when given a path."""
    triples = refine_topics(extract_topics(catalog, make_extractor(kind, fixture, lexicon, provider)))
    if triples_out:
        save_triples(triples, triples_out)
    return triples


def build(triples: list[TopicTriple], tree_out: str | Path) -> TopicTree:
    """Assemble the topic tree from triples and save it."""
    tree = build_tree(triples)
    Path(tree_out).parent.mkdir(parents=True, exist_ok=True)
    tree.save(tree_out)
    return tree


def require_llm_setup(llm: bool, provider: Optional[Provider], kbs_llm: bool = True) -> None:
    """With the LLM on, a provider, and train KBs that were trained with it on (they hold summaries and embeddings).

    Callers of `train` and `detect` check this before they read a sequence file.
    """
    if llm and provider is None:
        raise ConfigError("the LLM path is on but no provider is set; give --provider-kind or a [provider] section")
    if llm and not kbs_llm:
        raise ConfigError("the LLM path is on but the train KBs hold no summaries or embeddings; train with it on")


def train(
    catalog: TemplateCatalog, tree: TopicTree, sequences: list[LogSequence], kb_dir: str | Path,
    llm: bool, provider: Optional[Provider],
) -> KnowledgeBaseSet:
    """Build the training knowledge bases from normal sequences and save them."""
    kbs = train_kbs(
        sequences, tree, DetectConfig(llm_enabled=llm), provider=provider, templates=_template_texts(catalog)
    )
    kbs.save_dir(kb_dir)
    return kbs


def detect_config(levels: str, detector: str, llm: bool, m: int, early_exit: bool) -> DetectConfig:
    """The detector settings that the CLI options and the [detect] section name."""
    try:
        return DetectConfig(levels, parse_detector_spec(detector), llm_enabled=llm, m=m, early_exit=early_exit)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def detect(
    catalog: TemplateCatalog, tree: TopicTree, kbs: KnowledgeBaseSet, kb_dir: str | Path,
    sequences: list[LogSequence], report_path: str | Path, config: DetectConfig, provider: Optional[Provider],
) -> tuple[list[SequenceReport], int]:
    """Detect over the test sequences, save the report, and save the LLM verdict caches to kb_dir.

    Returns the reports and the LLM call count. Detection never changes a train KB.
    """
    detector = Detector(tree, kbs, config, provider=provider, templates=_template_texts(catalog))
    reports = detector.run(sequences)
    meta = {
        "created_at": datetime.now(timezone.utc).isoformat(),
        "levels": "".join(LEVEL_INITIAL[level] for level in config.levels_enabled),
        "llm": config.llm_enabled,
    }
    save_reports(reports, report_path, meta=meta)
    kbs.save_dir(kb_dir, train=False)
    log.info("detected %d sequences: %d memo hits, %d misses, %d LLM calls",
             len(reports), detector.memo_hits, detector.memo_misses, detector.llm_calls)
    per_level = ", ".join(
        f"{level} {hits} hits, {detector.verdict_misses[level]} misses" for level, hits in detector.verdict_hits.items()
    )
    log.info("sub-sequence verdicts: %s", per_level)
    undecided = undecided_by_provider(reports)
    if undecided:
        log.warning("%d of %d reports hold a verdict left undecided by a provider error", undecided, len(reports))
    return reports, detector.llm_calls


def undecided_by_provider(reports: list[SequenceReport]) -> int:
    """The reports that met a provider error, so an LLM verdict in them is undecided (and abnormal)."""
    return sum(1 for r in reports if r.counters.provider_errors)


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
    llm_calls: int, attribution: bool, out: Optional[str | Path],
) -> dict:
    """Metrics, structure report and, optionally, level attribution of one run of `llm_calls` LLM rounds."""
    by_id = {r.sequence_id: r for r in reports}
    payload = {
        "metrics": score(sequences, {sid: r.final_verdict for sid, r in by_id.items()}),
        "structure": asdict(structure_report(tree, kbs, reports, llm_calls)),
    }
    if attribution:
        labeled = [s for s in sequences if s.label is not None]
        labels = [bool(s.label) for s in labeled]
        payload["attribution"] = attribution_report([by_id[s.id] for s in labeled], labels)
    if out:
        _save_json(payload, out)
    return payload


# -- INI pipeline ---------------------------------------------------------------

_FLAGS = {"on": True, "off": False, "true": True, "false": False}


def _flag(section: configparser.SectionProxy, key: str, default: bool = False) -> bool:
    """An on/off setting; any other value is a ConfigError."""
    value = section.get(key, "").strip().lower()
    if not value:
        return default
    if value not in _FLAGS:
        raise ConfigError(f"{key} = {section[key]!r} is not a flag; use on, off, true or false")
    return _FLAGS[value]


def _int(section: configparser.SectionProxy, key: str, default: int) -> int:
    """An integer setting; any other value is a ConfigError."""
    try:
        return section.getint(key, default)
    except ValueError:
        raise ConfigError(f"{key} = {section[key]!r} is not an integer") from None


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


def _read_sequences(
    path: str, catalog: TemplateCatalog, written: dict[Path, list[LogSequence]]
) -> list[LogSequence]:
    """The sequences that this run wrote to ``path``, or else the file's, read under the catalog."""
    sequences = written.get(Path(path).resolve())
    return load_sequences(path, catalog) if sequences is None else sequences


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

    # every setting is read, and the provider rule applied, before the first stage writes a file
    with _stage("hierarchy"):
        if not parser.has_section("hierarchy"):
            raise KeyError("missing [hierarchy] section")
        sec = parser["hierarchy"]
        resume_tree = _flag(sec, "resume")
        check_extractor(sec.get("extractor", "lexicon"), sec.get("fixture"), provider)
    with _stage("train"):
        sec = parser["train"]
        train_llm, kbs = _flag(sec, "llm"), None
        require_llm_setup(train_llm, provider)
        # KBs to resume are loaded here, so that their LLM flag is checked before any write
        if _flag(sec, "resume") and (Path(sec["kb_dir"]) / "train_status.json").exists():
            kbs = KnowledgeBaseSet.load_dir(sec["kb_dir"])
    with _stage("detect"):
        sec = parser["detect"]
        config = detect_config(
            sec.get("levels", "SAE"), sec.get("detector", "exact"), _flag(sec, "llm"), _int(sec, "m", 5),
            _flag(sec, "early_exit", default=True),
        )
        require_llm_setup(
            config.llm_enabled, provider, train_llm and (kbs is None or all(kb.llm for kb in kbs.train.values()))
        )
    with _stage("eval"):
        attribution = parser.has_section("eval") and _flag(parser["eval"], "attribution")

    # Sequences this run wrote, by resolved path, for a later stage that names the file;
    # their keys were checked against `catalog`, so only a stage under it takes them.
    written: dict[Path, list[LogSequence]] = {}
    catalog = templates = None
    if parser.has_section("ingest"):
        with _stage("ingest"):
            sec = parser["ingest"]
            templates = Path(sec["templates"]).resolve()
            catalog = load_template_catalog(sec["templates"])
            sequences, skipped = ingest(catalog, sec["logs"], sec.get("partition", "identifier"), sec["out"])
            written[Path(sec["out"]).resolve()] = sequences
        if skipped:
            log.warning("[ingest] skipped %d unmatched messages", skipped)

    with _stage("hierarchy"):
        sec = parser["hierarchy"]
        if Path(sec["templates"]).resolve() != templates:
            catalog, written = load_template_catalog(sec["templates"]), {}
        if resume_tree and Path(sec["tree_out"]).exists():
            tree = TopicTree.load(sec["tree_out"])
        else:
            triples = extract(catalog, sec.get("extractor", "lexicon"), sec.get("fixture"), sec.get("lexicon"),
                              provider, sec.get("triples_out"))
            tree = build(triples, sec["tree_out"])

    with _stage("train"):
        sec = parser["train"]
        kb_dir = sec["kb_dir"]
        if kbs is None:
            sequences = _read_sequences(sec["sequences"], catalog, written)
            kbs = train(catalog, tree, sequences, kb_dir, train_llm, provider)

    with _stage("detect"):
        sec = parser["detect"]
        sequences = _read_sequences(sec["sequences"], catalog, written)
        reports, llm_calls = detect(catalog, tree, kbs, kb_dir, sequences, sec["report"], config, provider)

    metrics = None
    if parser.has_section("eval"):
        with _stage("eval"):
            metrics = evaluate(tree, kbs, sequences, reports, llm_calls, attribution, parser["eval"].get("out"))
    return PipelineResult(tree=tree, kbs=kbs, metrics=metrics)
