#!/usr/bin/env python3
"""Measure how much retrieved evidence lifts veracity classification.

Builds a synthetic corpus whose labels are decidable only from evidence
text, runs the headline pipeline over it, then trains two classifiers on
the resulting records: one on article content alone, one on the
claim+evidence concatenation. Both share the split, the epoch budget, and
the hyperparameters; the printed gap is attributable to the evidence
plumbing.

Article bodies are label-independent filler, so a content-only classifier
cannot beat chance on held-out items. The canned search results for the
three non-NEI classes carry class-specific marker sentences, and the NEI
group gets no results at all.

    python scripts/evidence_gain_experiment.py [--n-per-class N] [--seed S] [--epochs E]
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from claimcheck.config import PipelineConfig  # noqa: E402
from claimcheck.corpus import Article, DatasetKind, VeracityLabel  # noqa: E402
from claimcheck.pipeline import (  # noqa: E402
    PipelineRuntime,
    PipelineVariant,
    build_examples,
    build_runtime,
    derive_stages,
    run_pipeline,
)
from claimcheck.providers import FixtureSearchProvider, normalize_query_key  # noqa: E402
from claimcheck.veracity import HashedLinearClassifier, TrainConfig, evaluate, split_dataset, train  # noqa: E402

_FILLER_VOCAB = (
    "council", "residents", "meeting", "plans", "local", "report", "figures",
    "project", "officials", "comment", "budget", "review", "season", "update",
    "committee", "region", "program", "notes", "survey", "draft", "agenda",
    "members", "street", "annual", "public", "library", "harbor", "market",
)

# One marker sentence per decidable class; tokens here are the only
# label-correlated text anywhere in the synthetic corpus.
CLASS_MARKERS = {
    VeracityLabel.FALSE: "Independent reviewers debunked the central story as fabricated nonsense.",
    VeracityLabel.PARTIAL_TRUE: "Investigators found the account partially supported but with key numbers overstated.",
    VeracityLabel.TRUE: "Official records confirmed the report as fully accurate and well sourced.",
}

_RAW_LABELS = {
    VeracityLabel.FALSE: "false",
    VeracityLabel.PARTIAL_TRUE: "mixture",
    VeracityLabel.TRUE: "true",
}

_EVIDENCE_DOMAIN = "factnews.org"
_PUBLISHED = date(2017, 6, 15)
_EVIDENCE_DATE = "2017-07-10"


def _filler_sentence(rng: random.Random, words: int = 8) -> str:
    chosen = [rng.choice(_FILLER_VOCAB) for _ in range(words)]
    return " ".join(chosen).capitalize() + "."


def build_synthetic_corpus(
    runtime: PipelineRuntime, n_per_class: int = 50, seed: int = 0
) -> tuple[list[Article], FixtureSearchProvider]:
    """Create articles plus a provider keyed on their p1 queries.

    The class cycle is FALSE, PARTIAL_TRUE, TRUE, NEI, so the corpus is
    balanced. Queries are derived through the pipeline's own stage code so
    the mapping keys always match what a run will ask for.
    """
    rng = random.Random(seed)
    articles: list[Article] = []
    mapping: dict[str, list[dict]] = {}
    cycle = (VeracityLabel.FALSE, VeracityLabel.PARTIAL_TRUE, VeracityLabel.TRUE, VeracityLabel.NEI)

    for i in range(4 * n_per_class):
        label = cycle[i % 4]
        headline = f"Town bulletin {i}: " + " ".join(rng.choice(_FILLER_VOCAB) for _ in range(5))
        body = " ".join(_filler_sentence(rng) for _ in range(4))
        article = Article(
            id=f"syn-{i:04d}",
            headline=headline,
            body=body,
            dataset=DatasetKind.FIXTURE,
            raw_label=_RAW_LABELS.get(label, "true"),
            published=_PUBLISHED,
            source_domain="example.net",
            label=label if label is not VeracityLabel.NEI else VeracityLabel.TRUE,
        )
        articles.append(article)

        if label is VeracityLabel.NEI:
            continue  # no entry: the provider misses and the pipeline assigns NEI
        stages = derive_stages(article, PipelineVariant.P1_HEADLINE, runtime)
        mapping[normalize_query_key(stages.query.text)] = [
            {
                "url": f"https://{_EVIDENCE_DOMAIN}/story-{i}",
                "domain": _EVIDENCE_DOMAIN,
                "title": f"Coverage of bulletin {i}",
                "body": f"{CLASS_MARKERS[label]} {_filler_sentence(rng)}",
                "published": _EVIDENCE_DATE,
            }
        ]
    return articles, FixtureSearchProvider(mapping)


@dataclass(frozen=True)
class EvidenceGainOutcome:
    content_label_accuracy: float
    concat_label_accuracy: float

    @property
    def gain(self) -> float:
        return self.concat_label_accuracy - self.content_label_accuracy


def run_evidence_gain_experiment(
    runtime: PipelineRuntime,
    n_per_class: int = 50,
    seed: int = 7,
    epochs: int = 3,
) -> EvidenceGainOutcome:
    """Train content-only vs claim+evidence classifiers on one pipeline run.

    Both models share the same record split, the same epoch budget, and the
    same hyperparameters; only the feature route differs.
    """
    articles, provider = build_synthetic_corpus(runtime, n_per_class=n_per_class, seed=seed)
    run_runtime = replace(runtime, provider=provider)
    records = run_pipeline(articles, PipelineVariant.P1_HEADLINE, run_runtime)

    config = TrainConfig(epochs=epochs, seed=seed)
    train_records, val_records, test_records = split_dataset(records, config)
    articles_by_id = {a.id: a for a in articles}

    accuracies = {}
    for kind in ("content", "concat"):
        backend = HashedLinearClassifier(seed=seed)
        train(
            backend,
            build_examples(train_records, kind, articles_by_id),
            build_examples(val_records, kind, articles_by_id),
            config,
        )
        report = evaluate(backend, build_examples(test_records, kind, articles_by_id))
        accuracies[kind] = report.label_accuracy
    return EvidenceGainOutcome(
        content_label_accuracy=accuracies["content"],
        concat_label_accuracy=accuracies["concat"],
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-per-class", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=3)
    args = parser.parse_args()

    runtime = build_runtime(PipelineConfig())
    outcome = run_evidence_gain_experiment(
        runtime, n_per_class=args.n_per_class, seed=args.seed, epochs=args.epochs
    )
    print(f"articles:                {4 * args.n_per_class} (balanced over 4 labels)")
    print(f"content-only LA:         {outcome.content_label_accuracy:.3f}")
    print(f"claim+evidence LA:       {outcome.concat_label_accuracy:.3f}")
    print(f"gain (LA points x 100):  {100 * outcome.gain:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
