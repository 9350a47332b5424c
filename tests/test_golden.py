"""Golden records: fixed inputs must keep producing byte-identical files.

The hashes below were taken from the shipped fixture corpus and fixture
search file. A change that moves any of them changes what ``run``,
``ingest`` or ``evaluate --annotated-out`` writes; such a change has to
explain every byte and regenerate the fixtures
(``scripts/build_fixtures.py``) rather than edit these pins.
"""

import hashlib
import json
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath

from claimcheck.config import PipelineConfig
from claimcheck.corpus import Article, DatasetKind, ingest, normalize_articles, save_store
from claimcheck.fixtures import fixture_corpus_path
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

TESTS = Path(__file__).resolve().parent
GOLDEN_SHA256 = {
    PipelineVariant.P1_HEADLINE: "064a8d63981b2a25a69e66b509d71a63377cfeab870019e5b289f00bae5f0352",
    PipelineVariant.P2_SUMMARY: "f10285a16348b98b5615f0bb91a01ab0f7f6a89bf7c1d7a8da4fb14f67e7a90e",
    PipelineVariant.P3_HEADLINE_PLUS_SUMMARY: "40752da20b95e041a69244c7c7190f434aa551d928ae9fee419585080c709ce1",
}
# The normalized fixture corpus as ``save_store`` writes it.
STORE_SHA256 = "01c79e810e8b1079064c639f3e28fbaf7de71a8be9b17b19a04c7d6265c6d748"
# p2 records with predicted labels and probabilities filled in.
ANNOTATED_P2_SHA256 = "0ff2001fd36698cd37105b260a486daf353f2883b3309946e8f78f4231647af2"


def _records_sha256(articles, runtime, variant, directory: Path) -> str:
    path = directory / f"records_{variant.value}.jsonl"
    write_records(run_pipeline(articles, variant, runtime), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("variant", list(PipelineVariant), ids=lambda v: v.value)
def test_fixture_records_hash_is_pinned(variant, fixture_articles, runtime, tmp_path):
    assert _records_sha256(fixture_articles, runtime, variant, tmp_path) == GOLDEN_SHA256[variant]


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
    PipelineVariant.P1_HEADLINE: "4551672a2b38067f3b023718d221d34857d46b80fa886d010882890a107e4a68",
    PipelineVariant.P2_SUMMARY: "29965eef7864e39160578a6f82b9bbfdaca8c7162b654f658afb55ce7132e652",
    PipelineVariant.P3_HEADLINE_PLUS_SUMMARY: "58ca74ae11a417395d2b53bb4221c506578c32b1c430cbfa4a5481e79c06890b",
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


def _non_ascii_inputs():
    articles = normalize_articles(
        Article(aid, headline, body, DatasetKind.FIXTURE, label, date(2019, 4, 1), "example.com")
        for aid, headline, body, label in _NON_ASCII_ARTICLES
    ).articles
    return articles, build_runtime(PipelineConfig(), provider=_NonAsciiProvider())


@pytest.mark.parametrize("variant", list(PipelineVariant), ids=lambda v: v.value)
def test_non_ascii_records_hash_is_pinned(variant, tmp_path):
    assert _records_sha256(*_non_ascii_inputs(), variant, tmp_path) == NON_ASCII_SHA256[variant]


def golden_sha256s(directory: Path) -> dict[str, str]:
    """The fixture and non-ASCII records hashes of every variant, computed here."""
    fixture = normalize_articles(ingest(fixture_corpus_path(), DatasetKind.FIXTURE).articles).articles
    runtime, hashes = build_runtime(PipelineConfig()), {}
    for variant in PipelineVariant:
        hashes[f"fixture-{variant.value}"] = _records_sha256(fixture, runtime, variant, directory)
        hashes[f"non-ascii-{variant.value}"] = _records_sha256(*_non_ascii_inputs(), variant, directory)
    return hashes


# CPU paths that change the bits of BLAS kernels and of numpy's SIMD loops.
_CORETYPES = ("Haswell", "Nehalem")
_NO_AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def test_records_have_the_same_bytes_on_every_cpu_path(tmp_path):
    # The annotated records are left out: the classifier's BLAS products and SIMD ``exp`` still vary.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")):
        pytest.skip(f"numpy's BLAS ({blas.get('name')}) is no DYNAMIC_ARCH OpenBLAS: OPENBLAS_CORETYPE picks no kernel")
    disabled = " ".join(name for name in _NO_AVX512 if name in _multiarray_umath.__cpu_dispatch__)
    configurations = [
        {"OPENBLAS_CORETYPE": coretype, **({"NPY_DISABLE_CPU_FEATURES": features} if features else {})}
        for coretype in _CORETYPES
        for features in dict.fromkeys(["", disabled])
    ]
    code = "import json, pathlib, sys, test_golden; print(json.dumps(test_golden.golden_sha256s(pathlib.Path(sys.argv[1]))))"
    base = {key: value for key, value in os.environ.items() if key not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    base["PYTHONPATH"] = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")])
    children = []
    for n, cpu in enumerate(configurations):
        (tmp_path / str(n)).mkdir()
        command = [sys.executable, "-c", code, str(tmp_path / str(n))]
        env = {**base, **cpu}
        children.append(subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    expected = {**{f"fixture-{v.value}": GOLDEN_SHA256[v] for v in PipelineVariant},
                **{f"non-ascii-{v.value}": NON_ASCII_SHA256[v] for v in PipelineVariant}}
    for cpu, child in zip(configurations, children):
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, f"{cpu}: {err}"
        assert json.loads(out.splitlines()[-1]) == expected, cpu
