"""Golden records: fixed inputs must keep producing byte-identical files.

The hashes below were taken from the shipped fixture corpus and fixture
search file. A change that moves any of them changes what ``run`` writes;
such a change has to explain every byte and regenerate the fixtures
(``scripts/build_fixtures.py``) rather than edit these pins.
"""

import hashlib

import pytest

from claimcheck.pipeline import PipelineVariant, run_pipeline, write_records

GOLDEN_SHA256 = {
    PipelineVariant.P1_HEADLINE: "3dda259251846984a7ae8be9e38d8da748c02e2ca021ad5f9c3db0e37c615449",
    PipelineVariant.P2_SUMMARY: "fae4b53057b81606ddc79ada53a01fdc00f12569cae6e390bdc64bb13ae58e48",
    PipelineVariant.P3_HEADLINE_PLUS_SUMMARY: "8f15d768474d4bc1bed198d2eeb896bf0eae6c75942f9620ec98248500c26ebb",
}


@pytest.mark.parametrize("variant", list(PipelineVariant), ids=lambda v: v.value)
def test_fixture_records_hash_is_pinned(variant, fixture_articles, runtime, tmp_path):
    path = tmp_path / f"records_{variant.value}.jsonl"
    write_records(run_pipeline(fixture_articles, variant, runtime), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[variant]
