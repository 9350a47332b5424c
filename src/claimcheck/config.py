"""Declarative configuration and backend construction.

Config files are JSON with one object per subsystem. Every key has a
default that points at the shipped offline backends and fixture data, so an
empty config runs the whole pipeline hermetically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from . import fixtures, jsonio
from .encode import EncoderBackend, HashedBagEncoder
from .errors import ConfigError
from .evidence import (
    DEFAULT_MAX_EVIDENCE_ARTICLES,
    DEFAULT_MAX_EVIDENCE_SENTENCES,
    DEFAULT_MAX_RESULTS,
    DEFAULT_QUERY_WORD_LIMIT,
    DEFAULT_WINDOW_MONTHS,
    CredibleDomainList,
    SearchProvider,
)
from .providers import FixtureSearchProvider, LiveSearchProvider, RateLimiter
from .summarize import DEFAULT_MAX_TOKENS, LeadSummarizer, SummarizerBackend
from .veracity import ClassifierSettings, HashedLinearClassifier, TrainConfig


@dataclass(frozen=True)
class EncoderSettings:
    dimension: int = 256
    seed: int = 0


@dataclass(frozen=True)
class SummarizerSettings:
    max_tokens: int = DEFAULT_MAX_TOKENS


@dataclass(frozen=True)
class ProviderSettings:
    kind: str = "fixture"  # fixture | live
    fixture_path: str | None = None  # defaults to the shipped file
    endpoint: str | None = None
    api_key_env: str = "CLAIMCHECK_SEARCH_API_KEY"
    cache_dir: str | None = None
    requests_per_second: float = 3.0  # 0 = no limit
    timeout: float = 10.0

    def __post_init__(self) -> None:
        if not self.requests_per_second >= 0:  # also rejects NaN
            raise ValueError(f"requests_per_second must be non-negative, got {self.requests_per_second}")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")


@dataclass(frozen=True)
class PipelineConfig:
    encoder: EncoderSettings = field(default_factory=EncoderSettings)
    summarizer: SummarizerSettings = field(default_factory=SummarizerSettings)
    classifier: ClassifierSettings = field(default_factory=ClassifierSettings)
    provider: ProviderSettings = field(default_factory=ProviderSettings)
    train: TrainConfig = field(default_factory=TrainConfig)
    credible_list_path: str | None = None  # defaults to the shipped test list
    claims_k: int = 3
    query_word_limit: int = DEFAULT_QUERY_WORD_LIMIT
    date_window_months: int = DEFAULT_WINDOW_MONTHS
    max_search_results: int = DEFAULT_MAX_RESULTS
    max_evidence_articles: int = DEFAULT_MAX_EVIDENCE_ARTICLES
    max_evidence_sentences: int = DEFAULT_MAX_EVIDENCE_SENTENCES
    seed: int = 0

    def __post_init__(self) -> None:
        if self.date_window_months < 0:
            raise ValueError(f"date_window_months must be non-negative, got {self.date_window_months}")
        for name in ("claims_k", "query_word_limit", "max_search_results", "max_evidence_articles",
                     "max_evidence_sentences"):
            if (value := getattr(self, name)) < 1:
                raise ValueError(f"{name} must be positive, got {value}")


def config_from_dict(data: dict) -> PipelineConfig:
    return jsonio.CODEC.decode(PipelineConfig, data, "config", error=ConfigError)


def load_config(path: str | Path) -> PipelineConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def build_encoder(settings: EncoderSettings) -> EncoderBackend:
    return HashedBagEncoder(dimension=settings.dimension, seed=settings.seed)


def build_summarizer(settings: SummarizerSettings) -> SummarizerBackend:
    return LeadSummarizer(max_tokens=settings.max_tokens)


def build_classifier(settings: ClassifierSettings) -> HashedLinearClassifier:
    return HashedLinearClassifier(**vars(settings))


def build_provider(settings: ProviderSettings) -> SearchProvider:
    if settings.kind == "fixture":
        path = settings.fixture_path or fixtures.fixture_search_path()
        return FixtureSearchProvider.from_file(path)
    if settings.kind == "live":
        if not settings.endpoint:
            raise ConfigError("live provider requires provider.endpoint")
        return LiveSearchProvider(
            endpoint=settings.endpoint,
            api_key_env=settings.api_key_env,
            cache_dir=settings.cache_dir,
            rate_limiter=RateLimiter(requests_per_second=settings.requests_per_second),
            timeout=settings.timeout,
        )
    raise ConfigError(f"unknown provider kind {settings.kind!r} (available: fixture, live)")


def load_credible_list(config: PipelineConfig) -> CredibleDomainList:
    path = config.credible_list_path or fixtures.credible_domains_path()
    return CredibleDomainList.from_file(path)

