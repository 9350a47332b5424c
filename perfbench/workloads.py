"""Seeded workload generator: corpus, search responses and ground truth.

Every input the benchmark feeds to claimcheck is made here from a workload
shape and a seed, so the same seed always gives byte-identical files. The
generator decides each search result's fate (kept, non-credible, out of
window, undated or past the result cap) when it builds the result, and it
writes that knowledge to ``truth.json`` for the oracle checks. Query keys
are derived per variant with ``derive_stages``, as
``scripts/build_fixtures.py`` does, so every variant's query is served.

Run as a script to generate one workload:

    python3 perfbench/workloads.py --workload small --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from claimcheck.config import PipelineConfig  # noqa: E402
from claimcheck.pipeline import PipelineVariant, build_runtime, derive_stages  # noqa: E402
from claimcheck.corpus import Article, DatasetKind  # noqa: E402
from claimcheck.providers import FixtureSearchProvider, ResponseCache, normalize_query_key  # noqa: E402
from claimcheck.textproc import DEFAULT_ABBREVIATIONS  # noqa: E402

CREDIBLE_LIST = SRC / "claimcheck" / "data" / "credible_domains.txt"
NON_CREDIBLE = (
    "rumormill.com",
    "clickfarm.net",
    "dailyhoax.info",
    "news.rumormill.co.uk",
    "reuters.com.mirror-site.net",
    "bbc-news.example.org",
)
SUBDOMAIN_PREFIXES = ("", "www.", "news.", "world.")
RAW_LABELS = {"true": 2, "false": 0, "mostly true": 1, "mixture": 1, "mostly false": 1}
VARIANTS = tuple(PipelineVariant)
REPLAY_PROVIDER = "live"  # LiveSearchProvider.name, the response-cache key namespace

# Kept evidence must sit well inside the +/-3 calendar-month window (89 days
# at its shortest) and rejected evidence well outside it (92 days at most).
IN_WINDOW_DAYS = 80
OUT_OF_WINDOW_DAYS = (100, 400)
SUMMARY_MAX_TOKENS = 180  # LeadSummarizer default window
RESULT_CAP = 35
EVIDENCE_ARTICLES = 3

KEPT = "kept"
NON_CREDIBLE_FATE = "non_credible"
OUT_OF_WINDOW = "out_of_window"
UNDATED = "undated"
PAST_CAP = "past_cap"


@dataclass(frozen=True)
class Shape:
    """Size and search behaviour of one workload."""

    name: str
    articles: int
    body_sentences: int
    sentence_words: tuple[int, int]
    vocabulary: int
    provider: str  # "fixture" (fixture-search JSON) or "cache" (warm response cache)
    shard_articles: int  # articles per timed run_pipeline call; divides ``articles``


# Why each workload exists is recorded with it in BENCHMARK.json.
SHAPES = {
    shape.name: shape
    for shape in (
        Shape("small", 2000, 4, (6, 10), 600, "fixture", 100),
        Shape("news", 300, 40, (10, 18), 20000, "fixture", 10),
        Shape("replay", 1000, 12, (8, 14), 5000, "cache", 50),
    )
}


class _Words:
    """Zipf-distributed pseudo-words; none is an abbreviation the splitter guards."""

    def __init__(self, rng: random.Random, size: int):
        syllables = [c + v for c in "bcdfghklmnprstvz" for v in "aeiou"]
        seen: set[str] = set()
        words: list[str] = []
        while len(words) < size:
            word = "".join(rng.choice(syllables) for _ in range(rng.randint(1, 4)))
            if word not in seen and word not in DEFAULT_ABBREVIATIONS:
                seen.add(word)
                words.append(word)
        self._words = words
        self._cum = list(itertools.accumulate(1.0 / rank for rank in range(1, size + 1)))
        self._rng = rng

    def phrase(self, low: int, high: int) -> str:
        words = self._rng.choices(self._words, cum_weights=self._cum, k=self._rng.randint(low, high))
        return " ".join([words[0].capitalize(), *words[1:]])

    def sentences(self, count: int, lengths: tuple[int, int]) -> list[str]:
        return [self.phrase(*lengths) + "." for _ in range(count)]


def _credible_domains() -> list[str]:
    domains = []
    for line in CREDIBLE_LIST.read_text(encoding="utf-8").splitlines():
        entry = line.split("#", 1)[0].strip().lower()
        if entry:
            domains.append(entry)
    return domains


def _fates(shape: Shape, rng: random.Random) -> list[str]:
    """Fates of one article's results in provider order; [] means no entry."""
    if shape.name == "small":
        return [] if rng.random() < 0.25 else [KEPT]
    if shape.name == "news":
        fates = [KEPT] * 6 + [NON_CREDIBLE_FATE] * 2 + [OUT_OF_WINDOW, UNDATED]
        rng.shuffle(fates)
        return fates
    rejected = rng.choices((NON_CREDIBLE_FATE, OUT_OF_WINDOW, UNDATED), weights=(6, 2, 2), k=RESULT_CAP)
    if rng.random() >= 1 / 3:  # two thirds of articles find one or two kept results
        for position in rng.sample(range(RESULT_CAP), rng.randint(1, 2)):
            rejected[position] = KEPT
    return rejected + [PAST_CAP] * 5


def _result(article: Article, index: int, fate: str, words: _Words, shape: Shape,
            credible: list[str], rng: random.Random) -> tuple[dict, list[str]]:
    if fate == NON_CREDIBLE_FATE:
        domain = rng.choice(NON_CREDIBLE)
    else:
        domain = rng.choice(SUBDOMAIN_PREFIXES) + rng.choice(credible)
    if fate == UNDATED:
        published = None
    elif fate == OUT_OF_WINDOW:
        offset = rng.randint(*OUT_OF_WINDOW_DAYS) * rng.choice((-1, 1))
        published = (article.published + timedelta(days=offset)).isoformat()
    else:
        published = (article.published + timedelta(days=rng.randint(-IN_WINDOW_DAYS, IN_WINDOW_DAYS))).isoformat()
    if shape.name == "small":
        count = 2
    elif shape.name == "news":
        count = 30
    else:
        count = 3 if fate == KEPT else 1
    sentences = words.sentences(count, shape.sentence_words)
    item = {
        "url": f"https://{domain}/{article.id}/{index}",
        "domain": domain,
        "title": words.phrase(4, 8),
        "body": " ".join(sentences),
        "published": published,
    }
    return item, sentences


def _summary(sentences: list[str]) -> str:
    """The lead summary, computed from the generator's own word counts."""
    taken, total = [], 0
    for sentence in sentences:
        count = len(sentence.split())
        if total + count > SUMMARY_MAX_TOKENS:
            break
        taken.append(sentence)
        total += count
    return " ".join(taken)


def generate(shape: Shape, seed: int, out: Path) -> None:
    """Write corpus.jsonl, the search input and truth.json for one workload."""
    rng = random.Random(f"{shape.name}:{seed}")
    words = _Words(rng, shape.vocabulary)
    credible = _credible_domains()
    runtime = build_runtime(PipelineConfig(), provider=FixtureSearchProvider({}))
    start = date(2016, 1, 1)

    corpus_lines: list[str] = []
    responses: dict[str, list[dict]] = {}
    truth: dict[str, dict] = {}
    for i in range(shape.articles):
        raw_label = rng.choice(sorted(RAW_LABELS))
        body_sentences = words.sentences(shape.body_sentences, shape.sentence_words)
        article = Article(
            id=f"{shape.name}-{seed}-{i:05d}",
            headline=words.phrase(8, 12),
            body=" ".join(body_sentences),
            dataset=DatasetKind.FIXTURE,
            raw_label=raw_label,
            published=start + timedelta(days=rng.randrange(4 * 365)),
            source_domain="example.com",
        )
        corpus_lines.append(
            json.dumps(
                {
                    "id": article.id,
                    "headline": article.headline,
                    "body": article.body,
                    "published": article.published.isoformat(),
                    "source_domain": article.source_domain,
                    "raw_label": raw_label,
                },
                sort_keys=True,
            )
        )
        fates = _fates(shape, rng)
        results, evidence = [], []
        for index, fate in enumerate(fates, start=1):
            item, sentences = _result(article, index, fate, words, shape, credible, rng)
            results.append(item)
            if fate == KEPT and len(evidence) < EVIDENCE_ARTICLES:
                evidence.append({"url": item["url"], "sentences": sentences})
        truth[article.id] = {
            "headline": article.headline,
            "body_sentences": body_sentences,
            "summary": _summary(body_sentences),
            "gold": RAW_LABELS[raw_label],
            "fates": fates,
            "evidence": evidence,
        }
        if not results:
            continue
        for variant in VARIANTS:
            query = derive_stages(article, variant, runtime).query.text
            owner = responses.setdefault(query, results)
            if owner is not results:
                raise RuntimeError(f"two articles derive the query {query!r}; change the seed")

    out.mkdir(parents=True, exist_ok=True)
    (out / "corpus.jsonl").write_text("\n".join(corpus_lines) + "\n", encoding="utf-8")
    if shape.provider == "fixture":
        mapping = {normalize_query_key(query): results for query, results in responses.items()}
        payload = {"format": "fixture-search.v1", "queries": mapping}
        (out / "search.json").write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    else:
        cache = ResponseCache(out / "cache")
        for query, results in responses.items():
            cache.put(ResponseCache.key(REPLAY_PROVIDER, query), results)
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(SHAPES[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
