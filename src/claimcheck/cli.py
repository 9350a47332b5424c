"""Command-line interface.

Subcommands cover the full workflow: ``ingest`` a corpus into a normalized
store, ``gist-eval`` headline/summary similarity to reference claims,
``run`` a pipeline variant to a records file, ``train`` and ``evaluate`` a
classifier on those records, and ``stats`` for label distributions.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import fixtures
from .config import PipelineConfig, build_classifier, build_summarizer, load_config
from .corpus import (
    Article,
    DatasetKind,
    ingest,
    label_distribution,
    load_store,
    normalize_articles,
    save_store,
)
from .errors import ClaimCheckError
from .pipeline import (
    PipelineVariant,
    annotate_predictions,
    build_examples,
    build_runtime,
    read_records,
    run_gist_experiment,
    run_pipeline,
    write_records,
)
from .veracity import HashedLinearClassifier, evaluate, split_dataset, train

logger = logging.getLogger(__name__)


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    if getattr(args, "provider", None):
        config = dataclasses.replace(
            config, provider=dataclasses.replace(config.provider, kind=args.provider)
        )
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(
            config, seed=args.seed, train=dataclasses.replace(config.train, seed=args.seed)
        )
    return config


def _load_corpus(source: str, dataset: str | None) -> list[Article]:
    """Resolve a corpus argument: the literal ``fixture``, a normalized
    store, or a raw file (needs ``--dataset``)."""
    if source == fixtures.FIXTURE_CORPUS_NAME:
        source, dataset = fixtures.fixture_corpus_path(), DatasetKind.FIXTURE.value
    if not dataset:
        return load_store(source)
    return normalize_articles(ingest(source, DatasetKind(dataset)).articles).articles


def _cmd_ingest(args: argparse.Namespace) -> int:
    path = fixtures.fixture_corpus_path() if args.path == fixtures.FIXTURE_CORPUS_NAME else args.path
    result = ingest(path, DatasetKind(args.dataset), fmt=args.format)
    normalized = normalize_articles(result.articles)
    save_store(normalized.articles, args.out)
    print(f"rows read:          {result.rows_read}")
    print(f"dropped empty:      {result.dropped_empty}")
    print(f"skipped malformed:  {result.skipped_malformed}")
    print(f"dropped by label:   {normalized.dropped}")
    print(f"articles stored:    {len(normalized.articles)} -> {args.out}")
    return 0


def _cmd_gist_eval(args: argparse.Namespace) -> int:
    config = _load_config(args)
    articles = _load_corpus(args.corpus, args.dataset)
    report = run_gist_experiment(
        articles,
        [build_summarizer(config.summarizer)],
        sample_size=args.sample_size,
        seed=config.seed,
    )
    print(f"sample size: {report.sample_size}")
    print(f"{'signal':<24}{'ROUGE-1 F1':>12}{'ROUGE-L F1':>12}")
    for row in report.rows:
        print(f"{row.signal:<24}{row.rouge1_f1:>12.2f}{row.rouge_l_f1:>12.2f}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    articles = _load_corpus(args.corpus, args.dataset)
    runtime = build_runtime(config)
    variant = PipelineVariant(args.pipeline)
    records = run_pipeline(articles, variant, runtime)
    out = args.out or f"records_{variant.value}.jsonl"
    write_records(records, out)
    counts = label_distribution(records)
    errors = sum(1 for r in records if r.error)
    print(f"{len(records)} records -> {out}")
    for label, count in counts.items():
        print(f"  {label.name.lower():<14}{count}")
    if errors:
        print(f"  errors        {errors}")
    return 0


def _train_setup(args: argparse.Namespace, config: PipelineConfig):
    """The records file and its train/validation/test examples."""
    records = read_records(args.records)
    articles_by_id = None
    if args.features == "content":
        if not args.corpus:
            raise ClaimCheckError("content features require --corpus")
        articles_by_id = {a.id: a for a in _load_corpus(args.corpus, args.dataset)}
    splits = split_dataset(records, config.train)
    return records, [build_examples(part, args.features, articles_by_id) for part in splits]


def _cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args)
    _, (train_set, val_set, _) = _train_setup(args, config)
    backend = build_classifier(config.classifier)
    result = train(backend, train_set, val_set, config.train)
    for stats in result.log:
        print(
            f"epoch {stats.epoch}: train loss {stats.train_loss:.6f}, "
            f"validation LA {stats.val_label_accuracy:.4f}"
        )
    print(f"best epoch: {result.best_epoch} (validation LA {result.best_val_label_accuracy:.4f})")
    backend.save(args.out)
    print(f"model -> {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    records, (_, _, test_set) = _train_setup(args, config)
    backend = HashedLinearClassifier.load(args.model)
    report = evaluate(backend, test_set)
    print(f"label accuracy: {report.label_accuracy:.4f}")
    print(f"macro F1:       {report.macro_f1:.4f}")
    print(f"{'class':<14}{'precision':>10}{'recall':>10}{'f1':>10}{'support':>10}")
    for metrics in report.per_class:
        print(
            f"{metrics.label.name.lower():<14}{metrics.precision:>10.4f}"
            f"{metrics.recall:>10.4f}{metrics.f1:>10.4f}{metrics.support:>10}"
        )
    if report.missing_classes:
        names = ", ".join(label.name.lower() for label in report.missing_classes)
        print(f"absent from gold and predictions: {names}")
    if args.annotated_out:
        write_records(annotate_predictions(records, backend), args.annotated_out)
        print(f"annotated records -> {args.annotated_out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    items = read_records(args.records) if args.records else _load_corpus(args.corpus, args.dataset)
    counts = label_distribution(items)
    print(f"{'label':<14}{'count':>8}")
    for label, count in counts.items():
        print(f"{label.name.lower():<14}{count:>8}")
    if unlabeled := len(items) - sum(counts.values()):
        print(f"{'(unlabeled)':<14}{unlabeled:>8}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimcheck",
        description="Check-worthy claim ranking, evidence retrieval, and veracity scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")

    p_ingest = sub.add_parser("ingest", help="normalize a corpus file into a store")
    p_ingest.add_argument("--path", default=fixtures.FIXTURE_CORPUS_NAME, help="corpus file or 'fixture'")
    p_ingest.add_argument("--dataset", choices=[d.value for d in DatasetKind], default="fixture")
    p_ingest.add_argument("--format", choices=["csv", "jsonl"], default=None)
    p_ingest.add_argument("--out", type=Path, required=True)
    p_ingest.set_defaults(func=_cmd_ingest)

    p_gist = sub.add_parser("gist-eval", help="score headline/summary against reference claims")
    common(p_gist)
    p_gist.add_argument("--corpus", default=fixtures.FIXTURE_CORPUS_NAME)
    p_gist.add_argument("--dataset", default=None)
    p_gist.add_argument("--sample-size", type=int, default=None)
    p_gist.set_defaults(func=_cmd_gist_eval)

    p_run = sub.add_parser("run", help="run one pipeline variant, write records")
    common(p_run)
    p_run.add_argument("--pipeline", required=True, choices=[v.value for v in PipelineVariant])
    p_run.add_argument("--corpus", default=fixtures.FIXTURE_CORPUS_NAME)
    p_run.add_argument("--dataset", default=None)
    p_run.add_argument("--provider", choices=["fixture", "live"], default=None)
    p_run.add_argument("--out", type=Path, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_train = sub.add_parser("train", help="train a classifier from a records file")
    common(p_train)
    p_train.add_argument("--records", type=Path, required=True)
    p_train.add_argument("--features", choices=["concat", "content"], default="concat")
    p_train.add_argument("--corpus", default=None, help="needed for content features")
    p_train.add_argument("--dataset", default=None)
    p_train.add_argument("--out", type=Path, required=True)
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a trained classifier on the test split")
    common(p_eval)
    p_eval.add_argument("--records", type=Path, required=True)
    p_eval.add_argument("--model", type=Path, required=True)
    p_eval.add_argument("--features", choices=["concat", "content"], default="concat")
    p_eval.add_argument("--corpus", default=None)
    p_eval.add_argument("--dataset", default=None)
    p_eval.add_argument("--annotated-out", type=Path, default=None)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_stats = sub.add_parser("stats", help="label distribution of records or a corpus")
    p_stats.add_argument("--records", type=Path, default=None)
    p_stats.add_argument("--corpus", default=fixtures.FIXTURE_CORPUS_NAME)
    p_stats.add_argument("--dataset", default=None)
    p_stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="[%(levelname)s] %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ClaimCheckError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
