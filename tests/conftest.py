import pytest
from hypothesis import HealthCheck, settings

from claimcheck import fixtures
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
