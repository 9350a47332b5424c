from collections import Counter

import pytest
from hypothesis import HealthCheck, settings

from claimcheck import encode, fixtures
from claimcheck.config import PipelineConfig
from claimcheck.corpus import DatasetKind, ingest, normalize_articles
from claimcheck.pipeline import build_runtime

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# A deeper oracle run: ``pytest --hypothesis-profile thorough``.
settings.register_profile(
    "thorough", max_examples=2000, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def fixture_articles():
    result = ingest(fixtures.fixture_corpus_path(), DatasetKind.FIXTURE)
    return normalize_articles(result.articles).articles


@pytest.fixture(scope="session")
def runtime():
    return build_runtime(PipelineConfig())


@pytest.fixture()
def token_scans(monkeypatch):
    """Counts of the texts ``has_tokens`` scans on the row path of ``EncoderBackend.distances``."""
    scans = Counter()
    real = encode.has_tokens

    def counted(text):
        scans[text] += 1
        return real(text)

    monkeypatch.setattr(encode, "has_tokens", counted)
    return scans


@pytest.fixture()
def hashed_batches(monkeypatch):
    """The texts of each ``HashedFeaturizer.bucket_ids`` call, a list per call."""
    batches = []
    real = encode.HashedFeaturizer.bucket_ids

    def recorded(self, texts):
        batches.append(list(texts))
        return real(self, texts)

    monkeypatch.setattr(encode.HashedFeaturizer, "bucket_ids", recorded)
    return batches
