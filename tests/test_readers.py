"""What every reader shares: a file that is not UTF-8 raises the reader's own
error, naming the file, and a date reads only as ``YYYY-MM-DD``."""

import json
from datetime import date

import pytest

from claimcheck import config, corpus, jsonio, pipeline, providers
from claimcheck.errors import ConfigError, FatalSearchError, IngestError
from claimcheck.evidence import CredibleDomainList
from claimcheck.veracity import HashedLinearClassifier


def _cache_get(path):
    return providers.ResponseCache(path.parent).get(path.stem)


@pytest.mark.parametrize(
    "read,error",
    [
        (config.load_config, ConfigError),
        (HashedLinearClassifier.load, ConfigError),
        (_cache_get, FatalSearchError),
        (lambda path: corpus.ingest(path, corpus.DatasetKind.FIXTURE, "jsonl"), IngestError),
        (lambda path: corpus.ingest(path, corpus.DatasetKind.SNOPES, "csv"), IngestError),
        (pipeline.read_records, ValueError),
        (corpus.load_store, IngestError),
        (CredibleDomainList.from_file, ConfigError),
    ],
    ids=["config", "classifier", "cache", "ingest-jsonl", "ingest-csv", "records", "store", "credible-list"],
)
def test_non_utf8_file_raises_the_readers_error_naming_the_file(tmp_path, read, error):
    path = tmp_path / "0123abcd.json"
    path.write_bytes(b"ab\xffcd\n")
    with pytest.raises(error) as excinfo:
        read(path)
    assert type(excinfo.value) is error  # not the bare UnicodeDecodeError, itself a ValueError
    assert str(path) in str(excinfo.value)
    assert "can't decode byte 0xff in position 2" in str(excinfo.value)


def _ingested_date(tmp_path, text):
    path = tmp_path / "corpus.jsonl"
    row = {"id": "a", "headline": "Headline.", "body": "Body.", "raw_label": "true", "published": text}
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    result = corpus.ingest(path, corpus.DatasetKind.FIXTURE, "jsonl")
    if result.warnings:
        raise IngestError(result.warnings[0])
    return result.articles[0].published


def _searched_date(tmp_path, text):
    provider = providers.FixtureSearchProvider({"q": [{"url": "https://a.example.com/x", "published": text}]})
    return provider.search("q")[0].published


def _stored_date(tmp_path, text):
    article = corpus.Article(id="a", headline="Headline.", body="Body.", dataset=corpus.DatasetKind.FIXTURE,
                             raw_label="true")
    stored = dict(json.loads(jsonio.CODEC.dumps(article)), published=text)
    path = tmp_path / "store.jsonl"
    path.write_text(json.dumps(stored) + "\n", encoding="utf-8")
    return corpus.load_store(path)[0].published


_DATE_READERS = pytest.mark.parametrize(
    "read,message",
    [
        (_ingested_date, "row 1: bad published date"),
        (_searched_date, "malformed published date"),
        (_stored_date, "bad store field 'published'"),
    ],
    ids=["ingest", "search-result", "store"],
)


@_DATE_READERS
def test_an_iso_calendar_date_reads(tmp_path, read, message):
    assert read(tmp_path, "2017-06-15") == date(2017, 6, 15)


# Python 3.11 and later also read the first three as dates; 3.10 does not.
@_DATE_READERS
@pytest.mark.parametrize("text", ["20170615", "2017-W24-4", "2017W24", "2017-6-15", "２０１７-06-15"])
def test_only_yyyy_mm_dd_reads_as_a_date(tmp_path, read, message, text):
    with pytest.raises((IngestError, FatalSearchError), match=message):
        read(tmp_path, text)
