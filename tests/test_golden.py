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
    PipelineVariant.P1_HEADLINE: "3dda259251846984a7ae8be9e38d8da748c02e2ca021ad5f9c3db0e37c615449",
    PipelineVariant.P2_SUMMARY: "fae4b53057b81606ddc79ada53a01fdc00f12569cae6e390bdc64bb13ae58e48",
    PipelineVariant.P3_HEADLINE_PLUS_SUMMARY: "8f15d768474d4bc1bed198d2eeb896bf0eae6c75942f9620ec98248500c26ebb",
}
# The normalized fixture corpus as ``save_store`` writes it.
STORE_SHA256 = "01c79e810e8b1079064c639f3e28fbaf7de71a8be9b17b19a04c7d6265c6d748"
# p2 records with predicted labels and probabilities filled in.
ANNOTATED_P2_SHA256 = "d6dc2e323e1062cf8ebd4dba314be78f6679ba6594c187fe7c3312f21d46307f"


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
