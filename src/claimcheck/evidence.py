"""Evidence gathering: bounded queries, retrieval, filtering, and selection.

A query is the article headline plus either its selected claim sentences or
its summary, cut to a word budget. Results come back through a provider
interface, get filtered on publication date and source credibility, and the
surviving articles contribute the evidence sentences closest to the claim.
"""

from __future__ import annotations

import calendar
import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass
from datetime import date
from math import isnan
from pathlib import Path
from typing import Sequence

from .claimrank import nearest_first
from .corpus import Article
from .encode import EncoderBackend
from .encode import cosine_distance, encode  # noqa: F401  (unused; perfbench's tracer wraps ``evidence.<name>``)
from .errors import ConfigError, FatalSearchError, unwrap
from .textproc import list_entries, split_sentences

logger = logging.getLogger(__name__)

DEFAULT_QUERY_WORD_LIMIT = 40
DEFAULT_MAX_RESULTS = 35
DEFAULT_MAX_EVIDENCE_ARTICLES = 3
DEFAULT_MAX_EVIDENCE_SENTENCES = 3
DEFAULT_WINDOW_MONTHS = 3


@dataclass(frozen=True)
class Query:
    text: str

    def __post_init__(self) -> None:
        if not self.text or not self.text.strip():
            raise ValueError("query text must be non-empty")


def build_query(
    headline: str,
    claims_or_summary: str,
    word_limit: int = DEFAULT_QUERY_WORD_LIMIT,
) -> Query:
    """Concatenate headline and claim/summary text, keep the first words.

    The output is always the exact word-sequence prefix of
    ``headline + " " + claims_or_summary``, at most ``word_limit`` words.
    """
    if not headline or not headline.strip():
        raise ValueError("cannot build a query from an empty headline")
    if word_limit < 1:
        raise ValueError(f"word limit must be positive, got {word_limit}")
    words = headline.split()
    if claims_or_summary:
        words += claims_or_summary.split()
    return Query(text=" ".join(words[:word_limit]))


@dataclass(frozen=True)
class SearchResult:
    url: str
    domain: str
    title: str
    body: str
    provider_rank: int  # 1-based position in the provider response
    published: date | None = None


class SearchProvider(ABC):
    """Web-search slot. Implementations return results in provider order."""

    name: str

    @abstractmethod
    def search(self, query_text: str) -> list[SearchResult]:
        """Run a query and return ranked results."""


def search(provider: SearchProvider, query: Query, max_results: int = DEFAULT_MAX_RESULTS) -> list[SearchResult]:
    """Query a provider, keep at most ``max_results`` in provider order."""
    results = list(provider.search(query.text))
    ranks = [r.provider_rank for r in results]
    if len(set(ranks)) != len(ranks):
        raise FatalSearchError(f"provider {provider.name!r} returned duplicate ranks")
    return results[:max_results]


def shift_months(day: date, months: int) -> date:
    """Shift by whole calendar months, clamping to the end of short months."""
    month_index = day.year * 12 + (day.month - 1) + months
    year, month0 = divmod(month_index, 12)
    month = month0 + 1
    return date(year, month, min(day.day, calendar.monthrange(year, month)[1]))


def date_window(article_date: date, evidence_date: date, months: int = DEFAULT_WINDOW_MONTHS) -> bool:
    """True iff the evidence date falls within +/- ``months`` calendar months.

    Bounds are inclusive; month arithmetic clamps (e.g. a May 31 article has
    a February 28/29 lower bound).
    """
    lower = shift_months(article_date, -months)
    upper = shift_months(article_date, months)
    return lower <= evidence_date <= upper


# Second-level labels that, under a two-letter country code, take one more
# label: "bbc.co.uk", "dawn.com.pk", "pib.gov.in". A rule, not the Public
# Suffix List, so other country-code layouts (say "city.kawasaki.jp") reduce
# to their last two labels.
_SECOND_LEVEL_LABELS = frozenset({"ac", "co", "com", "edu", "go", "gov", "mil", "ne", "net", "or", "org"})


def registrable_domain(value: str) -> str | None:
    """Reduce a host name or URL to its registrable domain, lowercased.

    Returns None when no registrable domain can be derived (empty input,
    bare labels, IP addresses).
    """
    if not value:
        return None
    host = value.strip().lower()
    if "://" in host:
        host = host.split("://", 1)[1]
    host = host.split("/", 1)[0].split("?", 1)[0]
    if "@" in host:
        host = host.rsplit("@", 1)[1]
    host = host.split(":", 1)[0].rstrip(".")
    if not host:
        return None
    labels = host.split(".")
    if len(labels) < 2 or any(not label for label in labels):
        return None
    if all(label.isdigit() for label in labels):
        return None  # IPv4 literal
    country = labels[-1]
    if (len(labels) >= 3 and labels[-2] in _SECOND_LEVEL_LABELS
            and len(country) == 2 and country.isascii() and country.isalpha()):
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])


@dataclass(frozen=True)
class CredibleDomainList:
    """Allowlist of registrable domains considered credible sources."""

    domains: frozenset[str]

    def __post_init__(self) -> None:
        if not self.domains:
            raise ConfigError("credible domain list is empty")

    @classmethod
    def from_file(cls, path: str | Path) -> "CredibleDomainList":
        """One domain per line (see ``list_entries``). An entry must be a
        registrable domain, since ``is_credible`` compares only those."""
        domains = list_entries(path)
        for entry in domains:
            if "/" in entry or ":" in entry:
                raise ConfigError(f"credible-list entry {entry!r} carries a scheme or path")
            if (registrable := registrable_domain(entry)) != entry:
                raise ConfigError(
                    f"credible-list entry {entry!r} is not a registrable domain (registrable form: {registrable!r})"
                )
        return cls(domains=frozenset(domains))


def is_credible(domain: str, credible: CredibleDomainList) -> bool:
    """True iff the registrable domain of ``domain`` is in the allowlist."""
    reg = registrable_domain(domain)
    if reg is None:
        logger.warning("domain %r is unparseable; treating as non-credible", domain)
        return False
    return reg in credible.domains


@dataclass(frozen=True)
class EvidenceArticle:
    """A search result that passed both filters at construction time."""

    result: SearchResult
    date_check_applicable: bool  # False when the source article has no date
    passed_filters: bool = True


@dataclass(frozen=True)
class EvidenceSentence:
    text: str
    distance: float
    source_url: str
    article_order: int  # 0-based order among surviving evidence articles
    sentence_index: int  # 0-based position within its evidence article


@dataclass(frozen=True)
class EvidenceSet:
    articles: tuple[EvidenceArticle, ...] = ()
    sentences: tuple[EvidenceSentence, ...] = ()
    concatenated: str = ""

    @property
    def is_empty(self) -> bool:
        return not self.articles


def gather_evidence(
    article: Article,
    claim_text: str,
    query: Query,
    provider: SearchProvider,
    credible: CredibleDomainList,
    backend: EncoderBackend,
    months: int = DEFAULT_WINDOW_MONTHS,
    max_results: int = DEFAULT_MAX_RESULTS,
    max_articles: int = DEFAULT_MAX_EVIDENCE_ARTICLES,
    max_sentences: int = DEFAULT_MAX_EVIDENCE_SENTENCES,
) -> EvidenceSet:
    """Search, filter, and pick the evidence sentences closest to the claim:
    ``retrieve``, then ``select_evidence`` for one article."""
    survivors = retrieve(article, query, provider, credible, months, max_results, max_articles)
    return unwrap(select_evidence([claim_text], [survivors], backend, max_sentences)[0])


def retrieve(
    article: Article,
    query: Query,
    provider: SearchProvider,
    credible: CredibleDomainList,
    months: int = DEFAULT_WINDOW_MONTHS,
    max_results: int = DEFAULT_MAX_RESULTS,
    max_articles: int = DEFAULT_MAX_EVIDENCE_ARTICLES,
) -> tuple[EvidenceArticle, ...]:
    """Search, then keep the first ``max_articles`` results, in provider
    order, that pass both filters.

    A result must come from a credible registrable domain and carry a
    publication date inside the article's window. A result without a date
    fails the window check; an article without a date passes it (the
    record keeps a flag so this is auditable).
    """
    survivors: list[EvidenceArticle] = []
    applicable = article.published is not None
    if applicable:  # ``date_window``'s bounds, once per article
        lower, upper = shift_months(article.published, -months), shift_months(article.published, months)
    for result in search(provider, query, max_results=max_results):
        if not is_credible(result.domain, credible):
            continue
        if result.published is None:
            continue  # undated evidence is conservatively rejected
        if applicable and not lower <= result.published <= upper:
            continue
        survivors.append(EvidenceArticle(result=result, date_check_applicable=applicable))
        if len(survivors) == max_articles:
            break
    return tuple(survivors)


def select_evidence(
    claims: Sequence[str],
    survivors: Sequence[tuple[EvidenceArticle, ...]],
    backend: EncoderBackend,
    max_sentences: int = DEFAULT_MAX_EVIDENCE_SENTENCES,
) -> list:
    """Evidence sets for ``claims[i]`` and ``survivors[i]``, through one
    ``nearest_first`` over all claims and their survivors' sentences.

    Candidates are the survivors' sentences with tokens; the top
    ``max_sentences`` by distance to the claim (ties by article order, then
    sentence position) form the evidence text E. Without survivors the set
    is empty and the claim is not encoded. Entry ``i`` is instead the input
    error that selecting for article ``i`` alone raises, if any: a claim
    without tokens is one.
    """
    results: list = [EvidenceSet() for _ in claims]
    pending = [  # (article, its sentences as (article order, sentence position, text))
        (i, [
            (order, idx, sentence)
            for order, evidence_article in enumerate(kept)
            for idx, sentence in enumerate(split_sentences(evidence_article.result.body))
        ])
        for i, kept in enumerate(survivors) if kept
    ]
    heads, tails = [claims[i] for i, _ in pending], [[text for _, _, text in c] for _, c in pending]
    for (i, candidates), ranking in zip(pending, nearest_first(heads, tails, backend)):
        if isinstance(ranking, Exception):
            results[i] = ranking
            continue
        # Positions follow (article order, sentence position), so ties break by those. A sentence
        # without tokens has distance NaN and ranks last: it is no candidate.
        _, positions, distances = ranking
        chosen = [(candidates[p], d) for p, d in zip(positions[:max_sentences], distances) if not isnan(d)]
        top = tuple(
            EvidenceSentence(sentence, distance, survivors[i][order].result.url, order, idx)
            for (order, idx, sentence), distance in chosen
        )
        results[i] = EvidenceSet(articles=survivors[i], sentences=top, concatenated=" ".join(s.text for s in top))
    return results
