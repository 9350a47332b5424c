"""Paths to the data files shipped inside the package.

The fixture corpus, the canned search results, and the small credible-domain
list let every pipeline stage run end to end with no network and no model
downloads.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

FIXTURE_CORPUS_NAME = "fixture"


def _data_path(name: str) -> Path:
    return Path(str(resources.files("claimcheck").joinpath("data", name)))


def fixture_corpus_path() -> Path:
    """12-article raw corpus in the line-delimited record schema."""
    return _data_path("fixture_corpus.jsonl")


def fixture_search_path() -> Path:
    """Canned search results keyed by normalized query text."""
    return _data_path("fixture_search.json")


def credible_domains_path() -> Path:
    """Small test allowlist; production lists are operator-provided."""
    return _data_path("credible_domains.txt")
