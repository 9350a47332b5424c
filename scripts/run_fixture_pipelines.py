#!/usr/bin/env python3
"""Run all three pipeline variants over the fixture corpus.

Writes one records file per variant and prints the assigned-label
distribution side by side, which makes the variant differences (notably how
often each one ends with no usable evidence) directly visible.

    python scripts/run_fixture_pipelines.py [--out-dir OUT]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from claimcheck import fixtures  # noqa: E402
from claimcheck.config import PipelineConfig  # noqa: E402
from claimcheck.corpus import DatasetKind, VeracityLabel, ingest, label_distribution, normalize_articles  # noqa: E402
from claimcheck.pipeline import (  # noqa: E402
    PipelineVariant,
    build_runtime,
    run_pipeline,
    write_records,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("out"))
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    articles = normalize_articles(
        ingest(fixtures.fixture_corpus_path(), DatasetKind.FIXTURE).articles
    ).articles
    runtime = build_runtime(PipelineConfig())

    distributions = {}
    for variant in PipelineVariant:
        records = run_pipeline(articles, variant, runtime)
        out = args.out_dir / f"records_{variant.value}.jsonl"
        write_records(records, out)
        distributions[variant.value] = label_distribution(records)
        print(f"{variant.value}: {len(records)} records -> {out}")

    print()
    header = f"{'label':<14}" + "".join(f"{v:>8}" for v in distributions)
    print(header)
    for label in VeracityLabel:
        row = f"{label.name.lower():<14}" + "".join(
            f"{distributions[v][label]:>8}" for v in distributions
        )
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
