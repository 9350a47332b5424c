#!/usr/bin/env python3
"""Regenerate committed fixture data that depends on package internals.

Outputs:
  src/claimcheck/data/fixture_search.json   canned search results keyed by
                                            the exact query text each
                                            pipeline variant derives for the
                                            fixture corpus
  tests/data/encoder_pins.json              pinned reference-encoder vectors

Rerun after changing the fixture corpus, the tokenizer, the encoder, the
summarizer, or the query-building rules:

    python scripts/build_fixtures.py

The script asserts the scenario design before writing: articles meant to
end up with no evidence must not have a usable entry under any variant.
"""

from __future__ import annotations

import json
import random
import sys
from datetime import timedelta
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from claimcheck import fixtures  # noqa: E402
from claimcheck.config import PipelineConfig, load_credible_list  # noqa: E402
from claimcheck.corpus import DatasetKind, ingest, normalize_articles  # noqa: E402
from claimcheck.encode import reference_encode  # noqa: E402
from claimcheck.evidence import Query, retrieve  # noqa: E402
from claimcheck.pipeline import PipelineVariant, build_runtime, derive_stages  # noqa: E402
from claimcheck.providers import FixtureSearchProvider, normalize_query_key  # noqa: E402

CREDIBLE = [
    "factnews.org",
    "reuters.com",
    "apnews.com",
    "news.bbc.co.uk",  # subdomain on purpose: exercises registrable-domain matching
    "npr.org",
    "citydesk.net",
    "wireupdate.com",
    "civicledger.org",
]
NON_CREDIBLE = ["rumormill.example", "viralscoop.net", "blogplanet.info", "chatterfeed.biz"]

EXTRA_SENTENCES = [
    "Regional reporters reviewed the underlying documents on Thursday.",
    "Officials answered questions at a short afternoon briefing.",
    "Independent analysts said the figures match public filings.",
    "A follow-up report is expected later in the year.",
    "Community groups asked for further detail on the timeline.",
    "The statement was archived alongside earlier coverage of the story.",
]

IN_WINDOW_DAYS = [-80, -45, -20, 15, 40, 75]
OUT_OF_WINDOW_DAYS = [-220, -160, 150, 210]

# Scenario: under p1 and p2, the first ten articles get usable evidence,
# index 10 gets an entry whose results all fail the filters, and index 11
# has no entry at all. Under p3 most articles get no entry, so the
# no-evidence outcome is clearly more common there. Queries are plain text
# keys, so two variants can derive the same query for an article; the
# builder detects that and shares the entry instead of fighting over it.
GOOD_INDEXES_P1_P2 = set(range(10))
ALL_FILTERED_INDEX = 10
P3_TARGET_NEI = 6

PIN_TEXTS = [
    "the quick brown fox",
    "jumps over the lazy dog",
    "numbers 42 and 7 survive tokenization",
    "Punctuation, should. not! matter?",
    "repetition repetition repetition",
]
PIN_DIMENSION = 16
PIN_SEED = 0


def _evidence_body(article, rng: random.Random) -> str:
    extras = rng.sample(EXTRA_SENTENCES, 2)
    return f"{article.claim} {extras[0]} {extras[1]}"


def _dated(article, rng: random.Random, offsets) -> str:
    if article.published is None:
        return "2017-06-01"  # article has no date, so any evidence date passes
    return (article.published + timedelta(days=rng.choice(offsets))).isoformat()


def _good_results(article, idx: int, variant: PipelineVariant, rng: random.Random) -> list[dict]:
    results = []
    n_credible = 2 + (idx % 3)  # 2..4 in-window credible results
    for g in range(n_credible):
        domain = CREDIBLE[(idx + g) % len(CREDIBLE)]
        results.append(
            {
                "url": f"https://{domain}/{article.id}-{variant.value}-{g}",
                "domain": domain,
                "title": f"Coverage: {article.headline}",
                "body": _evidence_body(article, rng),
                "published": _dated(article, rng, IN_WINDOW_DAYS),
            }
        )
    noise_domain = NON_CREDIBLE[idx % len(NON_CREDIBLE)]
    results.append(
        {
            "url": f"https://{noise_domain}/{article.id}-{variant.value}-x",
            "domain": noise_domain,
            "title": f"Hot take: {article.headline}",
            "body": _evidence_body(article, rng),
            "published": _dated(article, rng, IN_WINDOW_DAYS),
        }
    )
    stale_domain = CREDIBLE[(idx + 5) % len(CREDIBLE)]
    results.append(
        {
            "url": f"https://{stale_domain}/{article.id}-{variant.value}-old",
            "domain": stale_domain,
            "title": f"From the archive: {article.headline}",
            "body": _evidence_body(article, rng),
            # Articles without a date pass the window check anyway, so give
            # those an undated result instead to keep one reject per entry.
            "published": None
            if article.published is None
            else _dated(article, rng, OUT_OF_WINDOW_DAYS),
        }
    )
    if rng.random() < 0.5 and article.published is not None:
        undated_domain = CREDIBLE[(idx + 3) % len(CREDIBLE)]
        results.append(
            {
                "url": f"https://{undated_domain}/{article.id}-{variant.value}-undated",
                "domain": undated_domain,
                "title": f"Explainer: {article.headline}",
                "body": _evidence_body(article, rng),
                "published": None,
            }
        )
    rng.shuffle(results)
    return results


def _all_filtered_results(article, variant: PipelineVariant, rng: random.Random) -> list[dict]:
    results = []
    for g, domain in enumerate(NON_CREDIBLE[:2]):
        results.append(
            {
                "url": f"https://{domain}/{article.id}-{variant.value}-{g}",
                "domain": domain,
                "title": f"Rumor roundup: {article.headline}",
                "body": _evidence_body(article, rng),
                "published": _dated(article, rng, IN_WINDOW_DAYS),
            }
        )
    results.append(
        {
            "url": f"https://{CREDIBLE[0]}/{article.id}-{variant.value}-old",
            "domain": CREDIBLE[0],
            "title": f"From the archive: {article.headline}",
            "body": _evidence_body(article, rng),
            "published": _dated(article, rng, OUT_OF_WINDOW_DAYS),
        }
    )
    results.append(
        {
            "url": f"https://{CREDIBLE[1]}/{article.id}-{variant.value}-undated",
            "domain": CREDIBLE[1],
            "title": f"Explainer: {article.headline}",
            "body": _evidence_body(article, rng),
            "published": None,
        }
    )
    return results


def build_search_fixture() -> dict:
    articles = normalize_articles(
        ingest(fixtures.fixture_corpus_path(), DatasetKind.FIXTURE).articles
    ).articles
    assert len(articles) == 12, f"fixture corpus should hold 12 articles, found {len(articles)}"

    config = PipelineConfig()
    runtime = build_runtime(config, provider=FixtureSearchProvider({}))
    credible = load_credible_list(config)
    rng = random.Random(0)
    mapping: dict[str, list[dict]] = {}

    def query_key(article, variant) -> str:
        return normalize_query_key(derive_stages(article, variant, runtime).query.text)

    def usable(article, key) -> bool:
        return bool(retrieve(article, Query(key), FixtureSearchProvider(mapping), credible))

    for variant in (PipelineVariant.P1_HEADLINE, PipelineVariant.P2_SUMMARY):
        for idx, article in enumerate(articles):
            key = query_key(article, variant)
            if key in mapping:
                continue  # both variants derived the same query: share it
            if idx in GOOD_INDEXES_P1_P2:
                mapping[key] = _good_results(article, idx, variant, rng)
            elif idx == ALL_FILTERED_INDEX:
                mapping[key] = _all_filtered_results(article, variant, rng)

    # p3 queries can coincide with p1/p2 ones (same headline prefix, same
    # leading sentences). Articles whose p3 query already resolves to usable
    # evidence are forced into the good set; the no-evidence set is filled
    # from the rest, highest index first.
    p3 = PipelineVariant.P3_HEADLINE_PLUS_SUMMARY
    p3_keys = {article.id: query_key(article, p3) for article in articles}
    p3_nei_ids: list[str] = []
    p3_good_ids: list[str] = []
    for idx in range(len(articles) - 1, -1, -1):
        article = articles[idx]
        key = p3_keys[article.id]
        if usable(article, key):
            p3_good_ids.append(article.id)
        elif idx == ALL_FILTERED_INDEX:
            if key not in mapping:
                mapping[key] = _all_filtered_results(article, p3, rng)
            p3_nei_ids.append(article.id)
        elif len(p3_nei_ids) < P3_TARGET_NEI:
            p3_nei_ids.append(article.id)
        else:
            if key not in mapping:
                mapping[key] = _good_results(article, idx, p3, rng)
            p3_good_ids.append(article.id)

    # Final audit with the real predicates, per variant and article.
    nei_counts = {}
    for variant in PipelineVariant:
        nei_ids = [a.id for a in articles if not usable(a, query_key(a, variant))]
        nei_counts[variant.value] = len(nei_ids)
        print(f"  {variant.value}: no-evidence articles = {sorted(nei_ids)}")
    for variant in (PipelineVariant.P1_HEADLINE, PipelineVariant.P2_SUMMARY):
        for idx, article in enumerate(articles):
            expect_usable = idx in GOOD_INDEXES_P1_P2
            assert usable(article, query_key(article, variant)) == expect_usable, (
                f"{article.id}/{variant.value}: scenario violated"
            )
    assert sorted(p3_nei_ids) == sorted(
        a.id for a in articles if not usable(a, p3_keys[a.id])
    ), "p3 scenario drifted from the audit"
    assert nei_counts["p3"] >= nei_counts["p2"] > 0, "p3 must have at least as many no-evidence articles"
    return {"format": "fixture-search.v1", "queries": mapping}


def build_encoder_pins() -> dict:
    pins = []
    for text in PIN_TEXTS:
        vector = reference_encode(text, dimension=PIN_DIMENSION, seed=PIN_SEED)
        pins.append(
            {
                "text": text,
                "dimension": PIN_DIMENSION,
                "seed": PIN_SEED,
                "first8": [float(v) for v in vector[:8]],
            }
        )
    return {"format": "encoder-pins.v1", "pins": pins}


def main() -> int:
    search_path = REPO_ROOT / "src" / "claimcheck" / "data" / "fixture_search.json"
    search_payload = build_search_fixture()
    search_path.write_text(json.dumps(search_payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(search_payload['queries'])} fixture queries -> {search_path}")

    pins_path = REPO_ROOT / "tests" / "data" / "encoder_pins.json"
    pins_path.parent.mkdir(parents=True, exist_ok=True)
    pins_payload = build_encoder_pins()
    pins_path.write_text(json.dumps(pins_payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(pins_payload['pins'])} encoder pins -> {pins_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
