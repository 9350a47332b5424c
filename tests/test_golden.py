"""Golden records: fixed inputs must keep producing byte-identical files.

The hashes below were taken from the shipped fixture corpus and fixture
search file. A change that moves any of them changes what ``run``,
``ingest`` or ``evaluate --annotated-out`` writes; such a change has to
explain every byte and regenerate the fixtures
(``scripts/build_fixtures.py``) rather than edit these pins.
"""

import hashlib
from datetime import date

import pytest

from claimcheck.config import PipelineConfig
from claimcheck.corpus import Article, DatasetKind, normalize_articles, save_store
from claimcheck.evidence import SearchProvider, SearchResult, registrable_domain
from claimcheck.pipeline import (
    PipelineVariant,
    annotate_predictions,
    build_examples,
    build_runtime,
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


# Non-ASCII records: the fixture files are all ASCII, so these articles and
# results carry curly quotes, em dashes, accented words and ``?``/``!``
# endings, which take ``tokenize``'s regex lane and the Unicode boundary
# pattern. Every non-ASCII code point is a Latin-1 letter or a General
# Punctuation mark, whose classes are the same from Unicode 13.0 to 15.1,
# and no sentence starts with a quote or a digit.
NON_ASCII_SHA256 = {
    PipelineVariant.P1_HEADLINE: "06f32081b7de68b2aa03197aab41d8c43bdc03d4b7b6ec828f4726c5822b89ef",
    PipelineVariant.P2_SUMMARY: "e20b2974893fb6c3ae765feae3faaae582cedfec32796005424152e86518d5f7",
    PipelineVariant.P3_HEADLINE_PLUS_SUMMARY: "b4952fccf19873065b40f4c14e5e9510dbcbc6a1c9091fdcceee11f0d3b32633",
}
_NON_ASCII_ARTICLES = [
    (
        "na-1",
        "Z\u00fcrich council approves caf\u00e9 tax \u2014 or does it?",
        "The Z\u00fcrich council voted on Monday to tax every caf\u00e9 terrace in the old town. "
        "Critics called the plan \u201ca tax on sunshine,\u201d and the mayor\u2019s office disagreed. "
        "Did the council really approve it? Minutes from the meeting show the vote was postponed \u2014 twice! "
        "\u00c9mile Durand, who chairs the finance committee, said no date was set. "
        "Residents of Wiedikon remain unconvinced.",
        "false",
    ),
    (
        "na-2",
        "Se\u00f1ora Garc\u00eda wins S\u00e3o Paulo marathon",
        "Ana Garc\u00eda crossed the finish line first in S\u00e3o Paulo on Sunday. "
        "Race officials confirmed her time \u2014 a personal best \u2014 within the hour. "
        "Was the course shorter than usual? Organizers said \u201cno change\u201d was made to the route! "
        "Spectators lined the Avenida Paulista for the whole morning.",
        "true",
    ),
    (
        "na-3",
        "Reservoir report raises na\u00efve questions",
        "A report on the reservoir asked whether the na\u00efve r\u00e9sum\u00e9 of its engineer was checked. "
        "Was it? The utility\u2019s spokesperson said the co\u00f6perative audit took 3 months. "
        "\u00d6zlem Yilmaz, an auditor, called the findings \u201csound\u201d and \u201ccomplete\u201d in a memo. "
        "Nothing else was disclosed!",
        "true",
    ),
]
_NON_ASCII_RESULTS = {
    "z\u00fcrich": [
        ("https://www.reuters.com/z1", "Z\u00fcrich vote delayed", date(2019, 4, 2),
         "The Z\u00fcrich council postponed its caf\u00e9 tax vote \u2014 again. "
         "A spokesperson said the matter was \u201cstill open\u201d for now. Was a new date set? No date was given!"),
        ("https://blog.example/z2", "Rumour mill", date(2019, 4, 3), "Z\u00fcrich banned caf\u00e9s, they say."),
        ("https://apnews.com/z3", "Terraces in the old town", date(2019, 5, 20),
         "Caf\u00e9 owners in Z\u00fcrich welcomed the delay. \u00c9mile Durand declined to comment."),
    ],
    "se\u00f1ora": [
        ("https://www.bbc.co.uk/s1", "S\u00e3o Paulo marathon result", date(2019, 6, 10),
         "Ana Garc\u00eda won the S\u00e3o Paulo marathon on Sunday. "
         "Officials said the route was unchanged \u2014 as in past years."),
        ("https://npr.org/s2", "Old race", date(2018, 1, 5), "Garc\u00eda finished second that year."),
    ],
    "reservoir": [
        ("https://citydesk.net/r1", "Auditor\u2019s note", date(2019, 2, 14),
         "\u00d6zlem Yilmaz checked the reservoir r\u00e9sum\u00e9 files. "
         "Her note calls them \u201ccomplete\u201d \u2014 with one caveat! Did anyone object? Nobody did."),
    ],
}


class _NonAsciiProvider(SearchProvider):
    """Answers a query with the results listed under its first word."""

    name = "non-ascii"

    def search(self, query_text):
        entries = _NON_ASCII_RESULTS.get(query_text.split()[0].lower(), [])
        return [
            SearchResult(url, registrable_domain(url), title, body, provider_rank=rank, published=day)
            for rank, (url, title, day, body) in enumerate(entries, start=1)
        ]


@pytest.mark.parametrize("variant", list(PipelineVariant), ids=lambda v: v.value)
def test_non_ascii_records_hash_is_pinned(variant, tmp_path):
    articles = normalize_articles(
        Article(aid, headline, body, DatasetKind.FIXTURE, label, date(2019, 4, 1), "example.com")
        for aid, headline, body, label in _NON_ASCII_ARTICLES
    ).articles
    runtime = build_runtime(PipelineConfig(), provider=_NonAsciiProvider())
    path = tmp_path / f"records_{variant.value}.jsonl"
    write_records(run_pipeline(articles, variant, runtime), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == NON_ASCII_SHA256[variant]
