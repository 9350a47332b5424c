"""Golden records: fixed inputs must keep producing byte-identical files.

The hashes below were taken from the shipped fixture corpus and fixture
search file. A change that moves any of them changes what ``run``,
``ingest`` or ``evaluate --annotated-out`` writes; such a change has to
explain every byte and regenerate the fixtures
(``scripts/build_fixtures.py``) rather than edit these pins.
"""

import hashlib

import pytest

from claimcheck.corpus import save_store
from claimcheck.pipeline import (
    PipelineVariant,
    annotate_predictions,
    build_examples,
    run_pipeline,
    write_records,
)
from claimcheck.veracity import HashedLinearClassifier, TrainConfig, split_dataset, train

GOLDEN_SHA256 = {
    PipelineVariant.P1_HEADLINE: "c9a23a1dd6c12da120538c6039baf82bfb0761a866cf2f97792aa86a323af3d4",
    PipelineVariant.P2_SUMMARY: "d2a4a87e18007ec959e945bb0a1310a1b316c950a004879efe812c3c689cc51a",
    PipelineVariant.P3_HEADLINE_PLUS_SUMMARY: "d580914df0c395963f83cf2d13d8df5a9b72e44873809ed42c61b6fa3d0a6e33",
}
# The normalized fixture corpus as ``save_store`` writes it.
STORE_SHA256 = "01c79e810e8b1079064c639f3e28fbaf7de71a8be9b17b19a04c7d6265c6d748"
# p2 records with predicted labels and probabilities filled in.
ANNOTATED_P2_SHA256 = "3681581da209cfbbd1f0d3304197c83777af71c33973c1df85fd3f809af4ae25"


@pytest.mark.parametrize("variant", list(PipelineVariant), ids=lambda v: v.value)
def test_fixture_records_hash_is_pinned(variant, fixture_articles, runtime, tmp_path):
    path = tmp_path / f"records_{variant.value}.jsonl"
    write_records(run_pipeline(fixture_articles, variant, runtime), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[variant]


def test_fixture_store_hash_is_pinned(fixture_articles, tmp_path):
    path = tmp_path / "store.jsonl"
    save_store(fixture_articles, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == STORE_SHA256


def test_annotated_records_hash_is_pinned(fixture_articles, runtime, tmp_path):
    # Unlike the run pins, these records carry predicted labels and
    # probabilities, so the float encoding of the prediction fields is pinned too.
    records = run_pipeline(fixture_articles, PipelineVariant.P2_SUMMARY, runtime)
    train_part, val_part, _ = split_dataset(records, TrainConfig(seed=3))
    backend = HashedLinearClassifier(dimension=64, seed=0)
    train(backend, build_examples(train_part, "concat"), build_examples(val_part, "concat"), TrainConfig(seed=3))
    path = tmp_path / "annotated_p2.jsonl"
    write_records(annotate_predictions(records, backend), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ANNOTATED_P2_SHA256
