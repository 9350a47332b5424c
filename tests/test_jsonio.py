"""The dataclass <-> JSON codec behind records, the article store and config.

Round trips run on generated values; bad input must surface as the error
type each reader documents (``ValueError`` for records, ``IngestError`` for
the store, ``ConfigError`` for config), never as a bare ``TypeError`` or
``KeyError``, because the CLI reports only package errors, ``ValueError``
and ``OSError`` as errors.
"""

import dataclasses
import errno
import functools
import io
import json
import math
import tracemalloc
from datetime import date
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from claimcheck import jsonio
from claimcheck import pipeline as pipeline_module
from claimcheck.cli import main
from claimcheck.config import (
    ClassifierSettings,
    EncoderSettings,
    PipelineConfig,
    ProviderSettings,
    SummarizerSettings,
    config_from_dict,
)
from claimcheck.corpus import Article, DatasetKind, VeracityLabel, load_store, save_store
from claimcheck.errors import ConfigError, IngestError
from claimcheck.evidence import EvidenceArticle, EvidenceSentence, EvidenceSet, SearchResult
from claimcheck.pipeline import PipelineRecord, PipelineVariant, read_records, write_records
from claimcheck.veracity import HashedLinearClassifier, TrainConfig
from oracles import PLAIN_BY_LOOPS, RECORDS_BY_LOOPS, canonical_json_by_encoder

texts = st.text(max_size=30)
optional_texts = st.none() | texts
floats = st.floats(allow_nan=False, allow_infinity=False)
optional_labels = st.none() | st.sampled_from(VeracityLabel)
optional_dates = st.none() | st.dates()

articles = st.builds(
    Article,
    id=texts,
    headline=texts,
    body=texts,
    dataset=st.sampled_from(DatasetKind),
    raw_label=texts,
    published=optional_dates,
    source_domain=optional_texts,
    label=optional_labels,
    claim=optional_texts,
)

search_results = st.builds(
    SearchResult,
    url=texts,
    domain=texts,
    title=texts,
    body=texts,
    provider_rank=st.integers(),
    published=optional_dates,
)

evidence_sets = st.builds(
    EvidenceSet,
    articles=st.lists(
        st.builds(EvidenceArticle, result=search_results, date_check_applicable=st.booleans(), passed_filters=st.booleans()),
        max_size=3,
    ).map(tuple),
    sentences=st.lists(
        st.builds(
            EvidenceSentence,
            text=texts,
            distance=floats,
            source_url=texts,
            article_order=st.integers(),
            sentence_index=st.integers(),
        ),
        max_size=3,
    ).map(tuple),
    concatenated=texts,
)

# A ranking as its two parallel fields: (sentence indices, distances).
rankings = st.none() | st.lists(st.tuples(st.integers(), floats), max_size=4).map(
    lambda pairs: (tuple(i for i, _ in pairs), tuple(d for _, d in pairs))
)


def _record(ranking, **fields) -> PipelineRecord:
    ranked, distances = ranking or (None, None)
    return PipelineRecord(**fields, ranked=ranked, distances=distances)


records = st.builds(
    _record,
    ranking=rankings,
    article_id=texts,
    variant=st.sampled_from(PipelineVariant),
    gold_label=optional_labels,
    label=optional_labels,
    signal_kind=optional_texts,
    signal_text=optional_texts,
    claim=optional_texts,
    query=optional_texts,
    article_date_missing=st.booleans(),
    evidence=st.none() | evidence_sets,
    predicted_label=optional_labels,
    predicted_probabilities=st.none() | st.lists(floats, max_size=4).map(tuple),
    error=optional_texts,
)


def _as_stored(record: PipelineRecord) -> PipelineRecord:
    """What a record reads back as: no result bodies, and timings (which
    ``replace`` does not copy) left out."""
    evidence = record.evidence
    if evidence is not None:
        evidence = dataclasses.replace(
            evidence,
            articles=tuple(
                dataclasses.replace(a, result=dataclasses.replace(a.result, body="")) for a in evidence.articles
            ),
        )
    return dataclasses.replace(record, evidence=evidence)


@given(st.lists(articles, max_size=4))
def test_store_roundtrip(tmp_path_factory, items):
    path = tmp_path_factory.mktemp("store") / "store.jsonl"
    save_store(items, path)
    assert load_store(path) == items


@given(st.lists(records, max_size=3), st.dictionaries(texts, floats, max_size=2))
def test_records_roundtrip(tmp_path_factory, items, timings):
    for record in items:
        record.timings.update(timings)
    path = tmp_path_factory.mktemp("records") / "records.jsonl"
    write_records(items, path)
    loaded = read_records(path)
    assert loaded == [_as_stored(r) for r in items]
    # Reading and writing again gives the same bytes.
    again = path.with_name("again.jsonl")
    write_records(loaded, again)
    assert again.read_bytes() == path.read_bytes()


# Values whose text the generated writers must give exactly as the C encoder
# does, among them values of another type than their field's hint, which the
# writers hand to the C encoder: a str enum member is a str, an int enum
# member or a bool an int, an int or a bool may sit where a float is declared.
wide_texts = texts | st.sampled_from(["naïve café", "\u2028\x85", "\ud800", "\U0001f600", "\x00\x1f\x7f", '"q" \\ / {}%'])
str_values = wide_texts | st.sampled_from(PipelineVariant) | st.sampled_from(DatasetKind)
int_values = st.integers() | st.integers(min_value=2**63) | st.booleans() | st.sampled_from(VeracityLabel)
float_values = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf]) | st.integers() | st.booleans()
wide_labels = st.none() | st.sampled_from(VeracityLabel) | st.integers(0, 3)
wide_dates = st.none() | st.dates() | st.datetimes()


def _lists_of(values):
    return st.lists(values, max_size=4).map(tuple) | st.lists(values, max_size=4)


wide_evidence = st.builds(
    EvidenceSet,
    articles=_lists_of(
        st.builds(
            EvidenceArticle,
            result=st.builds(
                SearchResult, url=str_values, domain=str_values, title=str_values, body=str_values,
                provider_rank=int_values, published=wide_dates,
            ),
            date_check_applicable=st.booleans(),
            passed_filters=st.booleans() | int_values,
        )
    ),
    sentences=_lists_of(
        st.builds(
            EvidenceSentence, text=str_values, distance=float_values, source_url=str_values,
            article_order=int_values, sentence_index=int_values,
        )
    ),
    concatenated=str_values,
)
wide_records = st.builds(
    _record,
    ranking=st.none() | st.tuples(st.lists(st.tuples(int_values, float_values), max_size=4), st.sampled_from([tuple, list])).map(
        lambda drawn: (drawn[1](i for i, _ in drawn[0]), drawn[1](d for _, d in drawn[0]))
    ),
    article_id=str_values,
    variant=st.sampled_from(PipelineVariant) | st.sampled_from(["p1", "x"]),
    gold_label=wide_labels,
    label=wide_labels,
    signal_kind=st.none() | str_values,
    signal_text=st.none() | str_values,
    claim=st.none() | str_values,
    query=st.none() | str_values,
    article_date_missing=st.booleans(),
    evidence=st.none() | wide_evidence,
    predicted_label=wide_labels,
    predicted_probabilities=st.none() | _lists_of(float_values),
    error=st.none() | str_values,
)
wide_articles = st.builds(
    Article, id=str_values, headline=str_values, body=str_values, dataset=st.sampled_from(DatasetKind),
    raw_label=str_values, published=wide_dates, source_domain=st.none() | str_values, label=wide_labels,
    claim=st.none() | str_values,
)
positive_ints = st.integers(min_value=1) | st.just(2**70)
wide_configs = st.builds(
    PipelineConfig,
    encoder=st.builds(EncoderSettings, dimension=int_values, seed=int_values),
    summarizer=st.builds(SummarizerSettings, max_tokens=int_values),
    classifier=st.builds(
        ClassifierSettings, dimension=int_values, seed=int_values, learning_rate=float_values,
        batch_size=st.none() | int_values,
    ),
    provider=st.builds(
        ProviderSettings, kind=str_values, fixture_path=st.none() | str_values, endpoint=st.none() | str_values,
        api_key_env=str_values, cache_dir=st.none() | str_values,
        requests_per_second=st.floats(min_value=0) | st.integers(min_value=0),  # +inf is allowed
        timeout=st.floats(min_value=0, exclude_min=True) | positive_ints,
    ),
    train=st.builds(
        TrainConfig, epochs=positive_ints, seed=int_values,
        split=st.sampled_from([(0.8, 0.1, 0.1), (1, 0, 0), (1.0, -0.0, 0), (0.25, 0.5, 0.25)]),
        learning_rate=st.floats(min_value=1e-300, max_value=1e300) | positive_ints,
    ),
    credible_list_path=st.none() | str_values,
    claims_k=positive_ints,
    query_word_limit=positive_ints,
    date_window_months=st.integers(min_value=0),
    max_search_results=positive_ints,
    max_evidence_articles=positive_ints,
    max_evidence_sentences=positive_ints,
    seed=int_values,
)


@pytest.mark.parametrize(
    "codec, values",
    [(pipeline_module._RECORDS, wide_records), (jsonio.CODEC, wide_articles), (jsonio.CODEC, wide_configs)],
    ids=["records", "store", "config"],
)
@given(data=st.data())
def test_writer_text_is_the_encoders(codec, values, data):
    value = data.draw(values)
    assert codec.dumps(value) == canonical_json_by_encoder(value)


def test_writer_text_of_a_value_no_hint_describes():
    # A dataclass or date inside a field of another type goes to the C encoder, which asks the writer.
    article = Article(id="a", headline="h", body="b", dataset=DatasetKind.FIXTURE, raw_label="true")
    record = _record(None, article_id=[article, date(2020, 1, 2)], variant=PipelineVariant.P1_HEADLINE)
    assert pipeline_module._RECORDS.dumps(record) == canonical_json_by_encoder(record)
    with pytest.raises(TypeError, match="no JSON form for object"):
        jsonio.CODEC.dumps({"x": object()})


# A wrong-typed value, planted in a stored form that reads.
_WRONG_VALUES = [None, True, 0, -1, 2.5, "x", "p9", "2020-13-01", [], [1], ["x"], [None], [[]], {}, {"k": 1}]


def _paths(value, path=()) -> list[tuple]:
    children = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    return [p for key, child in children for p in _paths(child, path + (key,))] + [path]  # the root last


def _planted(data, stored: dict) -> str:
    """``stored`` as a JSON line, with one value at a random path replaced or deleted, or one key added."""
    path = data.draw(st.sampled_from(_paths(stored)))
    wrong = data.draw(st.sampled_from(_WRONG_VALUES))
    owner = functools.reduce(lambda value, key: value[key], path[:-1], stored)
    value = owner[path[-1]] if path else stored
    change = data.draw(st.sampled_from(["replace", "add", "delete"] if type(owner) is dict and path else ["replace", "add"]))
    if change == "add" and type(value) is dict:
        value[data.draw(st.sampled_from(["bogus", "body", "schema", "timings"]))] = wrong
    elif change == "delete":
        del owner[path[-1]]
    elif path:
        owner[path[-1]] = wrong
    else:
        stored = wrong
    return json.dumps(stored)


def _first_or_error(read, path):
    try:
        return read(path)[0]
    except (ValueError, IngestError) as exc:
        return str(exc)


_V1_LINES = (Path(__file__).parent / "data" / "records_p1.v1.jsonl").read_text(encoding="utf-8").splitlines()


@given(st.one_of(records.map(canonical_json_by_encoder), st.sampled_from(_V1_LINES)), st.data())
def test_record_reader_errors_are_the_loop_decoders(tmp_path_factory, line, data):
    line = _planted(data, json.loads(line))
    path = tmp_path_factory.mktemp("planted") / "records.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    assert _first_or_error(read_records, path) == RECORDS_BY_LOOPS.read_line(PipelineRecord, line, "record")


@given(articles.map(canonical_json_by_encoder), st.data())
def test_store_reader_errors_are_the_loop_decoders(tmp_path_factory, line, data):
    line = _planted(data, json.loads(line))
    path = tmp_path_factory.mktemp("planted") / "store.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    assert _first_or_error(load_store, path) == PLAIN_BY_LOOPS.read_line(Article, line, "store")


def _record_line(**changes) -> dict:
    line = {"schema": "pipeline-record.v1", "article_id": "a1", "variant": "p1"}
    line.update(changes)
    return line


def _v2_line(**changes) -> dict:
    return _record_line(schema="pipeline-record.v2", **changes)


_ARTICLE = {
    "url": "https://example.org/a",
    "domain": "example.org",
    "title": "t",
    "published": "2020-01-02",
    "provider_rank": 1,
    "passed_filters": True,
    "date_check_applicable": True,
}
_EVIDENCE = {"articles": [_ARTICLE], "sentences": [], "concatenated": ""}


def _write_lines(path, *objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")


def test_minimal_record_line_reads(tmp_path):
    path = tmp_path / "records.jsonl"
    _write_lines(path, _record_line(evidence=_EVIDENCE))
    (record,) = read_records(path)
    assert record.variant is PipelineVariant.P1_HEADLINE
    assert record.evidence.articles[0].result.body == ""


@pytest.mark.parametrize(
    "line, message",
    [
        (_record_line(bogus=1), r"unknown record keys: \['bogus'\]"),
        (_record_line(timings={"total": 1.0}), "unknown record keys"),  # in memory only
        (_record_line(evidence=dict(_EVIDENCE, extra=1)), "unknown keys in record field 'evidence'"),
        (_record_line(evidence=dict(_EVIDENCE, articles=[dict(_ARTICLE, extra=1)])), "unknown keys"),
        (_record_line(ranked=[{"index": 0, "text": "s", "distance": 0.1, "rank": 1, "x": 2}]), "unknown keys"),
        ({"schema": "pipeline-record.v1", "variant": "p1"}, "article_id"),
        (_record_line(variant="p9"), "variant"),
        (_record_line(variant=None), "variant"),
        (_record_line(gold_label=7), "gold_label"),
        (_record_line(gold_label=[1]), "gold_label"),
        (_record_line(ranked=5), "ranked"),
        (_record_line(ranked=[5]), "ranked"),
        (_record_line(ranked=[{"index": 0}]), "ranked"),
        (_record_line(evidence=[]), "evidence"),
        (_record_line(evidence=dict(_EVIDENCE, articles=[[1]])), "evidence.articles"),
        (_record_line(evidence=dict(_EVIDENCE, articles=[dict(_ARTICLE, published=5)])), "published"),
        (_record_line(evidence=dict(_EVIDENCE, articles=[dict(_ARTICLE, published="2020-13-01")])), "published"),
        (_record_line(evidence=dict(_EVIDENCE, articles=[{"url": "u"}])), "evidence.articles"),
        (_record_line(predicted_probabilities=0.5), "predicted_probabilities"),
        (_record_line(article_date_missing=1), "article_date_missing"),
        (_record_line(ranked=[{"index": "0", "text": "s", "distance": 0.1, "rank": 1}]), "expected int, got str"),
        ({"schema": "other.v9"}, "schema"),
        ([1, 2], "expected an object, got list"),
        ("text", "expected an object, got str"),
        (None, "expected an object, got NoneType"),
        (_record_line(predicted_probabilities=["x", None]), r"field 'predicted_probabilities': .*expected float, got str"),
        (_record_line(predicted_probabilities=[0.5, None]), r"field 'predicted_probabilities': .*expected float, got NoneType"),
        (_record_line(predicted_probabilities=[0.5, True]), r"field 'predicted_probabilities': .*expected float, got bool"),
        (_record_line(distances=[0.1]), r"unknown record keys: \['distances'\]"),  # not a v1 field
        (_v2_line(ranked=["0"], distances=[0.1]), r"bad record field 'ranked': item 0: expected int, got str"),
        (_v2_line(ranked=[0], distances=["0.1"]), r"bad record field 'distances': item 0: expected float, got str"),
        (_v2_line(ranked=[0.0], distances=[0.1]), r"bad record field 'ranked': item 0: expected int, got float"),
        (_v2_line(ranked=[0, 1], distances=[0.1]), "bad record: ranked and distances must both be null, or lists of one length"),
        (_v2_line(ranked=[], distances=[0.1]), "ranked and distances must both be null"),
        (_v2_line(ranked=[0]), "ranked and distances must both be null"),
        (_v2_line(distances=[0.1], ranked=None), "ranked and distances must both be null"),
        (_v2_line(ranked=[{"index": 0, "text": "s", "distance": 0.1, "rank": 1}], distances=[0.1]), "'ranked': item 0: expected int"),
    ],
)
def test_bad_record_line_is_a_value_error(tmp_path, line, message):
    path = tmp_path / "records.jsonl"
    _write_lines(path, line)
    with pytest.raises(ValueError, match=message) as excinfo:
        read_records(path)
    assert str(excinfo.value).startswith("record line 1: ")


def test_int_items_read_as_floats(tmp_path):
    path = tmp_path / "records.jsonl"
    _write_lines(path, _record_line(predicted_probabilities=[1, 0, 0.0, 0]))
    (record,) = read_records(path)
    assert record.predicted_probabilities == (1, 0, 0.0, 0)


def test_record_error_names_the_line(tmp_path):
    path = tmp_path / "records.jsonl"
    _write_lines(path, _record_line(), _record_line(), _record_line(bogus=1))
    with pytest.raises(ValueError, match="record line 3: "):
        read_records(path)
    path.write_text("{broken\n", encoding="utf-8")
    with pytest.raises(ValueError, match="record line 1: invalid JSON"):
        read_records(path)


_STORED_ARTICLE = {"id": "a", "headline": "h", "body": "b", "dataset": "fixture", "raw_label": "true"}


def test_store_line_may_hold_raw_line_separators(tmp_path):
    # JSON allows U+0085, U+2028 and U+2029 raw inside strings; only line ends split lines.
    body = "one\x85two\u2028three\u2029four"
    article = Article(id="a", headline="h", body=body, dataset=DatasetKind.FIXTURE, raw_label="true")
    stored = json.dumps(dict(_STORED_ARTICLE, body=article.body), ensure_ascii=False)
    (tmp_path / "store.jsonl").write_text(stored + "\r\n" + stored.replace('"a"', '"b"') + "\n", encoding="utf-8")
    assert load_store(tmp_path / "store.jsonl") == [article, dataclasses.replace(article, id="b")]


@pytest.mark.parametrize(
    "line, message",
    [
        (dict(_STORED_ARTICLE, bogus=1), r"unknown store keys: \['bogus'\]"),
        ({"id": "a"}, "headline"),
        (dict(_STORED_ARTICLE, dataset="zzz"), "dataset"),
        (dict(_STORED_ARTICLE, label=9), "label"),
        (dict(_STORED_ARTICLE, published=5), "published"),
        (dict(_STORED_ARTICLE, published="not a date"), "published"),
        (dict(_STORED_ARTICLE, headline=5), "headline"),
        ([1], "expected an object"),
    ],
)
def test_bad_store_line_is_an_ingest_error(tmp_path, line, message):
    path = tmp_path / "store.jsonl"
    _write_lines(path, line)
    with pytest.raises(IngestError, match=message):
        load_store(path)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"train": {"epochs": 1, "bogus": 1}}, r"unknown keys in config field 'train': \['bogus'\]"),
        ({"encoder": []}, "encoder"),
        ({"train": {"split": 5}}, "train.split"),
        ({"train": {"split": [0.5, 0.5]}}, "split must be three"),
        ({"train": {"epochs": "x"}}, "train.epochs"),
        ({"claims_k": "2"}, r"bad config field 'claims_k': expected int, got str"),
        ({"provider": {"endpoint": 5}}, "provider.endpoint"),
        ([], "config"),
        ({"train": {"split": [0.5, "0.25", 0.25]}}, r"bad config field 'train.split': .*expected float, got str"),
        ({"workers": 2}, r"unknown config keys: \['workers'\]"),
        ({"encoder": {"model_id": "m"}}, r"unknown keys in config field 'encoder': \['model_id'\]"),
        ({"summarizer": {"model_id": "m"}}, r"unknown keys in config field 'summarizer': \['model_id'\]"),
        ({"summarizer": {"min_tokens": 60}}, r"unknown keys in config field 'summarizer': \['min_tokens'\]"),
        ({"provider": {"max_in_flight": 2}}, r"unknown keys in config field 'provider': \['max_in_flight'\]"),
        ({"min_claim_sentence_tokens": 0}, r"unknown config keys: \['min_claim_sentence_tokens'\]"),
        ({"encoder": {"backend": "hashed"}}, r"unknown keys in config field 'encoder': \['backend'\]"),
        ({"summarizer": {"backend": "lead"}}, r"unknown keys in config field 'summarizer': \['backend'\]"),
        ({"classifier": {"backend": "hashed_linear"}}, r"unknown keys in config field 'classifier': \['backend'\]"),
        ({"max_evidence_articles": 0}, "max_evidence_articles must be positive, got 0"),
        ({"max_evidence_articles": -1}, "max_evidence_articles must be positive, got -1"),
        ({"max_evidence_sentences": 0}, "max_evidence_sentences must be positive, got 0"),
        ({"max_search_results": -1}, "max_search_results must be positive, got -1"),
        ({"max_search_results": 0}, "max_search_results must be positive, got 0"),
        ({"date_window_months": -3}, "date_window_months must be non-negative, got -3"),
        ({"claims_k": 0}, "claims_k must be positive, got 0"),
        ({"query_word_limit": 0}, "query_word_limit must be positive, got 0"),
        ({"provider": {"requests_per_second": -2, "timeout": -1}}, "requests_per_second must be non-negative, got -2"),
        ({"provider": {"requests_per_second": -0.5}}, r"bad config field 'provider': requests_per_second must be non-neg"),
        ({"provider": {"requests_per_second": float("nan")}}, "requests_per_second must be non-negative, got nan"),
        ({"provider": {"timeout": -1}}, r"bad config field 'provider': timeout must be positive, got -1"),
        ({"provider": {"timeout": 0}}, "timeout must be positive, got 0"),
        ({"train": {"learning_rate": float("nan")}}, "learning rate must be positive and finite, got nan"),
        ({"train": {"learning_rate": float("inf")}}, "learning rate must be positive and finite, got inf"),
        ({"train": {"split": [0.8, float("nan"), 0.1]}}, r"split must be three non-negative ratios, got \(0.8, nan, 0.1\)"),
        ({"abbreviations_path": "x"}, r"unknown config keys: \['abbreviations_path'\]"),
    ],
)
def test_bad_config_is_a_config_error(data, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(data)


def test_config_split_reads_as_tuple():
    config = config_from_dict({"train": {"split": [0.6, 0.2, 0.2], "learning_rate": 1}})
    assert config.train.split == (0.6, 0.2, 0.2)
    assert config.train.learning_rate == 1  # an int is a valid float


def test_cli_reports_bad_config_value(tmp_path, capsys):
    # A value of the wrong type is bad input, reported before any article runs.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"claims_k": "2"}), encoding="utf-8")
    assert main(["run", "--pipeline", "p1", "--config", str(config)]) == 1
    assert "error: bad config field 'claims_k'" in capsys.readouterr().err


def test_cli_reports_bad_records_file(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    _write_lines(path, _record_line(ranked=[5]))
    assert main(["stats", "--records", str(path)]) == 1
    assert "error: record line 1: bad record field 'ranked'" in capsys.readouterr().err


class _FullDisk:
    """A text file whose ``write`` stores half its text, then fails as a full disk does."""

    def __init__(self, file):
        self._file = file

    def write(self, text):
        self._file.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._file.close()


_OLD_RECORD = PipelineRecord(article_id="old", variant=PipelineVariant.P1_HEADLINE)
_OLD_ARTICLE = Article(id="old", headline="h", body="b", dataset=DatasetKind.FIXTURE, raw_label="true")


@pytest.mark.parametrize(
    "write, old, new",
    [
        (write_records, _OLD_RECORD, dataclasses.replace(_OLD_RECORD, article_id="new")),
        (save_store, _OLD_ARTICLE, dataclasses.replace(_OLD_ARTICLE, id="new")),
        (lambda models, path: models[0].save(path), HashedLinearClassifier(dimension=8, seed=1), HashedLinearClassifier(dimension=8, seed=2)),
    ],
    ids=["records", "store", "model"],
)
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, write, old, new):
    path = tmp_path / "out.jsonl"
    write([old], path)
    before = path.read_bytes()
    real_open = Path.open
    monkeypatch.setattr(Path, "open", lambda self, *args, **kwargs: _FullDisk(real_open(self, *args, **kwargs)))
    with pytest.raises(OSError) as excinfo:
        write([new] * 50, path)
    monkeypatch.undo()
    assert excinfo.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]  # no temp file left behind


class _FullOnWrite:
    """A text file whose ``k``-th ``write`` fails as a full disk does; the writes before it succeed."""

    def __init__(self, file, k):
        self._file, self._left = file, k

    def write(self, text):
        self._left -= 1
        if not self._left:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._file.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._file.close()


_STREAMED_WRITES = pytest.mark.parametrize(
    "write, old, new",
    [
        (write_records, _OLD_RECORD, dataclasses.replace(_OLD_RECORD, article_id="new")),
        (save_store, _OLD_ARTICLE, dataclasses.replace(_OLD_ARTICLE, id="new")),
    ],
    ids=["records", "store"],
)


@_STREAMED_WRITES
def test_source_that_fails_midway_keeps_the_old_file(tmp_path, write, old, new):
    path = tmp_path / "out.jsonl"
    write([old], path)
    before = path.read_bytes()

    def failing_source():
        yield from [new] * 400
        # Lines already sit in the temp file: they are written as they come, not joined first.
        assert [p.stat().st_size > 0 for p in tmp_path.iterdir() if p.name.endswith(".part")] == [True]
        raise RuntimeError("the source failed")

    with pytest.raises(RuntimeError, match="the source failed"):
        write(failing_source(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


@_STREAMED_WRITES
@pytest.mark.parametrize("k", [1, 2, 37])
def test_disk_that_fills_on_the_kth_write_keeps_the_old_file(tmp_path, monkeypatch, write, old, new, k):
    path = tmp_path / "out.jsonl"
    write([old], path)
    before = path.read_bytes()
    real_open = Path.open
    monkeypatch.setattr(Path, "open", lambda self, *args, **kwargs: _FullOnWrite(real_open(self, *args, **kwargs), k))
    with pytest.raises(OSError) as excinfo:
        write([new] * 50, path)
    monkeypatch.undo()
    assert excinfo.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


_ODD_TEXTS = ["plain", "\xe9 \xfc \xdf", "a\u2028b\u2029c", "\U0001f600", "\x85 next line", "tab\tcr\rnew\nline", "crlf\r\n", ""]


@pytest.mark.parametrize(
    "codec, write, values",
    [
        (pipeline_module._RECORDS, write_records, [dataclasses.replace(_OLD_RECORD, article_id=t, claim=t) for t in _ODD_TEXTS]),
        (jsonio.CODEC, save_store, [dataclasses.replace(_OLD_ARTICLE, id=t, body=t) for t in _ODD_TEXTS]),
    ],
    ids=["records", "store"],
)
def test_streamed_write_has_the_bytes_of_write_text(tmp_path, codec, write, values):
    write(values, tmp_path / "streamed")
    (tmp_path / "whole").write_text("".join(codec.dumps(value) + "\n" for value in values), encoding="utf-8")
    assert (tmp_path / "streamed").read_bytes() == (tmp_path / "whole").read_bytes()


@given(pieces=st.lists(st.sampled_from(_ODD_TEXTS) | st.text(max_size=20), max_size=8))
def test_replace_text_of_pieces_has_the_bytes_of_write_text(tmp_path_factory, pieces):
    folder = tmp_path_factory.mktemp("pieces")
    jsonio.replace_text(folder / "streamed", iter(pieces))
    jsonio.replace_text(folder / "string", "".join(pieces))
    (folder / "whole").write_text("".join(pieces), encoding="utf-8")
    assert (folder / "streamed").read_bytes() == (folder / "string").read_bytes() == (folder / "whole").read_bytes()


def test_write_records_holds_about_one_line(tmp_path):
    base = read_records(Path(__file__).parent / "data" / "records_p1.v1.jsonl")
    records = [dataclasses.replace(base[i % len(base)], article_id=f"a-{i}") for i in range(2000)]
    path = tmp_path / "records.jsonl"
    tracemalloc.start()
    try:
        write_records(records, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Joining the lines first would hold the file's text about twice over.
    assert peak < path.stat().st_size / 4

# jsonio.load: json.loads of a file; a fixture-search file is decoded a chunk at a time.

_SPACES = st.sampled_from(["", " ", "\n", "\r\n", "\t", "\n    "])
# Text a guessed cut can land in: brackets, commas, quotes, escapes and non-ASCII.
_PIECES = [",", "}", "]", "{", "[", '"', "\\", ":", '], "', "é", "\xa0", " ", "\U0001f600", "\n", "a", " "]
_NUMBERS = st.one_of(
    st.integers(-(10**20), 10**20).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "-0", "1E5", "-2.5e-3", "123456789012345678901234567890"]),
)


@st.composite
def _json_string(draw):
    text = "".join(draw(st.lists(st.sampled_from(_PIECES), max_size=6)))
    return json.dumps(text, ensure_ascii=draw(st.booleans()))


@st.composite
def _json_text(draw, depth=0, kinds=("object", "list", "scalar")):
    """JSON text with random whitespace: objects nested up to 3 deep, and duplicate keys."""
    space = functools.partial(draw, _SPACES)
    kind = draw(st.sampled_from(kinds if depth < 4 else ["scalar"]))
    if kind == "scalar":
        return draw(st.one_of(_NUMBERS, st.sampled_from(["true", "false", "null"]), _json_string()))
    if kind == "list":
        items = draw(st.lists(_json_text(depth + 1), max_size=4))
        return "[" + space() + ",".join(f"{space()}{item}{space()}" for item in items) + space() + "]"
    keys = draw(st.lists(st.sampled_from(['"a"', '"b"', '"queries"']) | _json_string(), max_size=5))
    members = [f"{space()}{key}{space()}:{space()}{draw(_json_text(depth + 1))}{space()}" for key in keys]
    return "{" + space() + ",".join(members) + space() + "}"


@st.composite
def _fixture_text(draw):
    """A top-level object whose last member is an object, as in a fixture-search file, and
    the length in bytes of the text up to that object's "{"."""
    space = functools.partial(draw, _SPACES)
    before = draw(st.lists(st.sampled_from(['"format": "fixture-search.v1"', '"queries": [1.5, null]', '"n": -7']), max_size=2))
    key = draw(st.sampled_from(['"queries"', '"qu\\u00e9ries"', '"a\\"b"']))
    head = "{" + space() + "".join(f"{member},{space()}" for member in before) + f"{key}{space()}:{space()}"
    return head + draw(_json_text(1, ["object"])) + space() + "}", len(head.encode("utf-8")) + 1


def _today(path):
    """How a fixture-search file was read before ``jsonio.load``."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _outcome(read, path):
    try:
        return repr(read(path))  # repr: NaN equals itself, and 1 differs from 1.0
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _load_in_chunks(path, chunk):
    with mock.patch.object(Path, "read_text", side_effect=AssertionError("fixture text was handed to json.loads")):
        return jsonio.load(path, chunk)


@given(_json_text(), st.integers(1, 64) | st.just(jsonio.LOAD_CHUNK_BYTES))
def test_load_equals_json_loads(tmp_path_factory, text, chunk):
    path = tmp_path_factory.getbasetemp() / "load.json"  # examples run one at a time
    path.write_bytes(text.encode("utf-8"))
    assert repr(jsonio.load(path, chunk)) == repr(json.loads(text))


@given(_fixture_text(), st.data())
def test_fixture_text_is_decoded_in_chunks(tmp_path_factory, fixture, data):
    text, head = fixture
    chunk = data.draw(st.integers(head, head + 64) | st.just(jsonio.LOAD_CHUNK_BYTES))
    path = tmp_path_factory.getbasetemp() / "load.json"  # examples run one at a time
    path.write_bytes(text.encode("utf-8"))
    assert repr(_load_in_chunks(path, chunk)) == repr(json.loads(text))


@given(_fixture_text(), st.data())
def test_broken_text_fails_as_before(tmp_path_factory, fixture, data):
    raw = fixture[0].encode("utf-8")
    chunk = data.draw(st.integers(1, fixture[1] + 64) | st.just(jsonio.LOAD_CHUNK_BYTES))
    cut = data.draw(st.integers(0, len(raw)))
    raw = raw[:cut] + data.draw(st.sampled_from([b"", b"x", b"}", b",", b'"', b"\xff", b"\xc3"])) + raw[cut + 1 :]
    path = tmp_path_factory.getbasetemp() / "load.json"  # examples run one at a time
    path.write_bytes(raw)
    assert _outcome(functools.partial(jsonio.load, chunk_bytes=chunk), path) == _outcome(_today, path)


@pytest.mark.parametrize("chunk", [*range(7, 25), jsonio.LOAD_CHUNK_BYTES])
@pytest.mark.parametrize(
    "text",
    [
        # Numbers that straddle a chunk edge.
        *(
            f'{{"q": {{"a": [{n}], "b": {{"c": [{n}, {n}]}}, "d": [{n}]}}}}'
            for n in ["123456789", "-12.5e+10", "-Infinity", "NaN"]
        ),
        # Strings that look like cuts.
        '{"q": {"k": ["x],", "y},"], "z": {"w": "] , "}, "r": {}}}',
        '{"q": {"a": ["], \\"b\\": ["], "b": [{"c": "}, \\"d\\""}], "e": {}}}',
        '{"q": {"a": [1], "b": "x] , "}}',
        '{"q": {}}',
        '{"f": "x, \\"q\\": {", "q": {"a": [1]}}',
    ],
)
def test_fixture_text_at_chunk_edges(tmp_path, chunk, text):
    (tmp_path / "doc.json").write_text(text, encoding="utf-8")
    head = text.index("{", text.index('"q":')) + 1
    assert repr(_load_in_chunks(tmp_path / "doc.json", max(chunk, head))) == repr(json.loads(text))


def test_a_long_member_is_read_in_few_chunks():
    # Each read takes as much again as is left undecoded, so a member is decoded O(log size) times.
    class Counted(io.BytesIO):
        reads = 0

        def read(self, size=-1):
            self.reads += 1
            return super().read(size)

    text = json.dumps({"q": {"a": ["x" * 100_000], "b": ["y" * 100_000]}})
    handle = Counted(text.encode("utf-8"))
    assert jsonio._load_last_member_in_runs(handle, 64) == json.loads(text)
    assert handle.reads < 40


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, jsonio.LOAD_CHUNK_BYTES])
@pytest.mark.parametrize(
    "text",
    [
        '{1: 2}',
        '{"a": 1,}',
        '{"a": {"b": [1],, "c": [2]}}',
        '{"a": {"b": [1], }, "c": [2]}',
        '{"a": {, "b": [1]}}',
        '{"a": {"b": [1]}}}',
        '{"q": {"a": [1]}, "r": [2]}}',
        '{"a": {"b": [1], "c": [2]}',
        '{"a" 1}',
        '{"a": 1} x',
        '{"a": -12.}',
        '[1, 2,]',
        "",
        '\ufeff{"a": 1}',
    ],
)
def test_invalid_text_fails_as_before(tmp_path, chunk, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert _outcome(functools.partial(jsonio.load, chunk_bytes=chunk), path) == _outcome(_today, path)
    assert _outcome(_today, path).startswith("JSONDecodeError")


@pytest.fixture(scope="module")
def big_fixture(tmp_path_factory):
    """A fixture-search file of about 8 MB, shaped like the ones the benchmark writes."""
    body = 'Body text, with commas, ], "quotes" and more. ' * 8
    results = [
        {"body": body, "domain": "example.com", "published": None, "title": f"T {j}", "url": f"https://example.com/{j}"}
        for j in range(4)
    ]
    queries = {f"query number {i} " + "word " * 30: results for i in range(4000)}
    path = tmp_path_factory.mktemp("big") / "search.json"
    path.write_text(json.dumps({"format": "fixture-search.v1", "queries": queries}, sort_keys=True), encoding="utf-8")
    assert path.stat().st_size > 7 * jsonio.LOAD_CHUNK_BYTES
    return path


def test_load_holds_about_one_chunk_of_text(big_fixture):
    tracemalloc.start()
    try:
        value = jsonio.load(big_fixture)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == _today(big_fixture)
    # json.loads of the whole text would peak about 8 MB above what it keeps.
    assert peak - kept <= 3 * jsonio.LOAD_CHUNK_BYTES


def test_load_shares_key_strings(big_fixture):
    results = [result for entries in jsonio.load(big_fixture)["queries"].values() for result in entries]
    assert len(results) == 16000
    # json.loads shares each key string across the file; a decoded run shares them across the run.
    runs = big_fixture.stat().st_size // jsonio.LOAD_CHUNK_BYTES + 2
    assert len({id(key) for result in results for key in result}) <= 5 * runs
