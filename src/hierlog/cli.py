"""Command-line entry points, each a thin wrapper over a stage in `hierlog.pipeline`.

Exit codes: 0 success, 1 stage/run failure, 2 configuration error.
"""

from __future__ import annotations

import click

from . import pipeline as stages
from .detect import LEVEL_PRESETS
from .errors import ConfigError, HierlogError
from .hierarchy import EXTRACTOR_KINDS
from .semantics import PROVIDER_KINDS
from .synthetic import make_corpus, write_corpus


class _Main(click.Group):
    """Maps every command's errors to an exit code, in one place."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (HierlogError, OSError, KeyError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(2 if isinstance(exc, ConfigError) else 1)


def _provider_options(fn):
    fn = click.option("--provider-kind", default=None, type=click.Choice(PROVIDER_KINDS))(fn)
    fn = click.option("--provider-fixture", "provider_fixture_path", default=None,
                      help="Recorded-provider fixture path.")(fn)
    fn = click.option("--provider-endpoint", default=None)(fn)
    fn = click.option("--provider-model", default=None)(fn)
    fn = click.option("--provider-auth-env", default=None, help="Env var holding the API credential.")(fn)
    return fn


def _provider(opts: dict):
    """The provider the --provider-* options name, or None without --provider-kind."""
    if opts["provider_kind"] is None:
        return None
    return stages.load_provider({name.removeprefix("provider_"): value for name, value in opts.items()})


@click.group(cls=_Main)
def main():
    """Hierarchical log anomaly detection toolkit."""


@main.command()
@click.option("--templates", "templates_path", required=True, type=click.Path(exists=True))
@click.option("--logs", "logs_path", required=True, type=click.Path(exists=True),
              help="Raw records, one JSON object per line (message, timestamp?, group_id?, label?).")
@click.option("--partition", "partition_spec", default="identifier",
              help="identifier | count:N[:S] | time:D[:S]")
@click.option("--out", "out_path", required=True, type=click.Path())
def ingest(templates_path, logs_path, partition_spec, out_path):
    """Match raw messages to templates and partition into sequences."""
    catalog = stages.load_template_catalog(templates_path)
    sequences, skipped = stages.ingest(catalog, logs_path, partition_spec, out_path)
    if skipped:
        click.echo(f"skipped {skipped} unmatched messages", err=True)
    click.echo(f"wrote {len(sequences)} sequences to {out_path}")


@main.group()
def hierarchy():
    """Topic extraction and tree construction."""


@hierarchy.command()
@click.option("--templates", "templates_path", required=True, type=click.Path(exists=True))
@click.option("--extractor", "kind", default="lexicon", type=click.Choice(EXTRACTOR_KINDS))
@click.option("--fixture", default=None, type=click.Path(), help="Key->triple map for the fixture extractor.")
@click.option("--lexicon", default=None, type=click.Path(), help="Lexicon config for the rule extractor.")
@click.option("--out", "out_path", required=True, type=click.Path())
@_provider_options
def extract(templates_path, kind, fixture, lexicon, out_path, **provider_opts):
    """Extract (entity, action, status) triples per template."""
    catalog = stages.load_template_catalog(templates_path)
    triples = stages.extract(catalog, kind, fixture, lexicon, _provider(provider_opts), out_path)
    click.echo(f"wrote {len(triples)} triples to {out_path}")


@hierarchy.command()
@click.option("--triples", "triples_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def build(triples_path, out_path):
    """Assemble the topic tree from extracted triples."""
    tree = stages.build(stages.load_triples(triples_path), out_path)
    click.echo(f"wrote tree with {len(tree)} nodes to {out_path}")


@main.command()
@click.option("--templates", "templates_path", required=True, type=click.Path(exists=True))
@click.option("--tree", "tree_path", required=True, type=click.Path(exists=True))
@click.option("--sequences", "sequences_path", required=True, type=click.Path(exists=True))
@click.option("--kb-dir", required=True, type=click.Path())
@click.option("--llm", default="off", type=click.Choice(["on", "off"]),
              help="Also compute summaries and embeddings for retrieval.")
@_provider_options
def train(templates_path, tree_path, sequences_path, kb_dir, llm, **provider_opts):
    """Build training knowledge bases from normal sequences."""
    catalog, tree = stages.load_template_catalog(templates_path), stages.TopicTree.load(tree_path)
    provider = _provider(provider_opts)
    stages.require_llm_setup(llm == "on", provider)
    sequences = stages.load_sequences(sequences_path, catalog)
    kbs = stages.train(catalog, tree, sequences, kb_dir, llm == "on", provider)
    sizes = {level: len(kbs.train[level].entries) for level in kbs.train}
    click.echo(f"trained KBs: {sizes}")


@main.command()
@click.option("--templates", "templates_path", required=True, type=click.Path(exists=True))
@click.option("--tree", "tree_path", required=True, type=click.Path(exists=True))
@click.option("--kb-dir", required=True, type=click.Path(exists=True))
@click.option("--test", "test_path", required=True, type=click.Path(exists=True))
@click.option("--levels", default="SAE", type=click.Choice(list(LEVEL_PRESETS)))
@click.option("--detector", "detector_spec", default="exact",
              help="exact | automaton, with per-level overrides like exact:entity=automaton")
@click.option("--llm", default="off", type=click.Choice(["on", "off"]))
@click.option("--m", default=5, type=int, help="Retrieved normal examples per prompt.")
@click.option("--early-exit", default="on", type=click.Choice(["on", "off"]))
@click.option("--report", "report_path", required=True, type=click.Path())
@_provider_options
def detect(templates_path, tree_path, kb_dir, test_path, levels, detector_spec, llm,
           m, early_exit, report_path, **provider_opts):
    """Run hybrid detection over test sequences."""
    config = stages.detect_config(levels, detector_spec, llm == "on", m, early_exit == "on")
    catalog, tree = stages.load_template_catalog(templates_path), stages.TopicTree.load(tree_path)
    kbs, provider = stages.KnowledgeBaseSet.load_dir(kb_dir), _provider(provider_opts)
    stages.require_llm_setup(config.llm_enabled, provider, all(kb.llm for kb in kbs.train.values()))
    sequences = stages.load_sequences(test_path, catalog)
    reports, _ = stages.detect(catalog, tree, kbs, kb_dir, sequences, report_path, config, provider)
    flagged = sum(1 for r in reports if r.final_verdict)
    undecided = stages.undecided_by_provider(reports)
    note = f", {undecided} undecided by provider errors" if undecided else ""
    click.echo(f"{flagged}/{len(reports)} sequences flagged abnormal{note}; report at {report_path}")


@main.command()
@click.option("--report", "report_path", required=True, type=click.Path(exists=True))
@click.option("--test", "test_path", required=True, type=click.Path(exists=True),
              help="Labeled test sequences (labels read from here).")
@click.option("--templates", "templates_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", default=None, type=click.Path())
def evaluate(report_path, test_path, templates_path, out_path):
    """Score a detection report against sequence labels."""
    m = stages.score_report(stages.load_template_catalog(templates_path), test_path, report_path, out_path)
    click.echo(
        f"P={m['precision']:.4f} R={m['recall']:.4f} F1={m['f1']:.4f} "
        f"(tp={m['tp']} fp={m['fp']} tn={m['tn']} fn={m['fn']})"
    )


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
def pipeline(config_path):
    """Run extract -> build -> train -> detect -> eval from one config file."""
    result = stages.run_pipeline(config_path)
    if result.metrics:
        m = result.metrics["metrics"]
        click.echo(f"P={m['precision']:.4f} R={m['recall']:.4f} F1={m['f1']:.4f}")
    click.echo("pipeline completed")


@main.command("make-dataset")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", default=7, type=int)
@click.option("--n-train", default=200, type=int)
@click.option("--n-test", default=800, type=int)
@click.option("--anomaly-rate", default=0.10, type=float)
@click.option("--benign-unseen-rate", default=0.0, type=float)
def make_dataset(out_dir, seed, n_train, n_test, anomaly_rate, benign_unseen_rate):
    """Generate the bundled synthetic login-flow corpus."""
    corpus = make_corpus(
        n_train=n_train, n_test=n_test, anomaly_rate=anomaly_rate,
        seed=seed, benign_unseen_rate=benign_unseen_rate,
    )
    write_corpus(corpus, out_dir)
    click.echo(f"wrote corpus ({n_train} train / {n_test} test) to {out_dir}")


if __name__ == "__main__":
    main()
