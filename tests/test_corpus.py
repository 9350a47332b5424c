import json
import random
from collections import Counter

import pytest

from claimcheck.corpus import (
    DEFAULT_LABEL_TABLE,
    DROP,
    Article,
    DatasetKind,
    VeracityLabel,
    ingest,
    label_distribution,
    load_store,
    normalize_articles,
    normalize_label,
    save_store,
)
from claimcheck.errors import IngestError, LabelMappingError


def _jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return path


def _row(i, **overrides):
    row = {
        "id": f"a-{i}",
        "headline": f"Headline number {i}",
        "body": f"Body sentence {i}. Another sentence {i}.",
        "published": "2017-05-01",
        "source_domain": "example.com",
        "raw_label": "true",
    }
    row.update(overrides)
    return row


class TestIngest:
    def test_three_rows(self, tmp_path):
        path = _jsonl(tmp_path / "c.jsonl", [_row(i) for i in range(3)])
        result = ingest(path, DatasetKind.FIXTURE)
        assert [a.id for a in result.articles] == ["a-0", "a-1", "a-2"]
        assert result.rows_read == 3
        assert result.dropped_empty == 0
        assert result.skipped_malformed == 0
        assert result.articles[0].raw_label == "true"
        assert result.articles[0].label is None  # normalization is separate

    def test_empty_body_dropped(self, tmp_path):
        path = _jsonl(tmp_path / "c.jsonl", [_row(0), _row(1, body="  ")])
        result = ingest(path, DatasetKind.FIXTURE)
        assert len(result.articles) == 1
        assert result.dropped_empty == 1

    def test_empty_headline_dropped(self, tmp_path):
        path = _jsonl(tmp_path / "c.jsonl", [_row(0, headline="")])
        result = ingest(path, DatasetKind.FIXTURE)
        assert result.articles == []
        assert result.dropped_empty == 1

    def test_duplicate_id_is_fatal(self, tmp_path):
        path = _jsonl(tmp_path / "c.jsonl", [_row(0), _row(0)])
        with pytest.raises(IngestError, match="duplicate"):
            ingest(path, DatasetKind.FIXTURE)

    def test_malformed_line_skipped_with_count(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [json.dumps(_row(0)), "{not json", json.dumps(_row(2))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = ingest(path, DatasetKind.FIXTURE)
        assert len(result.articles) == 2
        assert result.skipped_malformed == 1
        assert result.warnings

    @pytest.mark.parametrize("key", ["id", "headline", "body", "raw_label"])
    def test_null_required_value_is_malformed(self, tmp_path, key):
        path = _jsonl(tmp_path / "c.jsonl", [_row(0, **{key: None}), _row(1)])
        result = ingest(path, DatasetKind.FIXTURE)
        assert [a.id for a in result.articles] == ["a-1"]
        assert result.skipped_malformed == 1
        assert result.warnings == [f"row 1: null keys ['{key}']"]

    @pytest.mark.parametrize(
        "key, value",
        [("headline", ["x", "y"]), ("id", {"k": 1}), ("body", []), ("raw_label", ["true"]), ("claim", {"text": "c"}),
         ("source_domain", ["example.com"])],
    )
    def test_object_or_list_value_is_malformed(self, tmp_path, key, value):
        path = _jsonl(tmp_path / "c.jsonl", [_row(0, **{key: value}), _row(1)])
        result = ingest(path, DatasetKind.FIXTURE)
        assert [a.id for a in result.articles] == ["a-1"]
        assert result.skipped_malformed == 1
        assert result.warnings == [f"row 1: object or list values for keys ['{key}']"]

    def test_number_values_read_as_text(self, tmp_path):
        path = _jsonl(tmp_path / "c.jsonl", [_row(0, id=17)])
        assert ingest(path, DatasetKind.FIXTURE).articles[0].id == "17"

    def test_bad_date_is_malformed(self, tmp_path):
        path = _jsonl(tmp_path / "c.jsonl", [_row(0, published="not-a-date")])
        result = ingest(path, DatasetKind.FIXTURE)
        assert result.articles == []
        assert result.skipped_malformed == 1

    def test_missing_date_is_kept(self, tmp_path):
        path = _jsonl(tmp_path / "c.jsonl", [_row(0, published=None)])
        result = ingest(path, DatasetKind.FIXTURE)
        assert result.articles[0].published is None

    def test_unknown_dataset(self, tmp_path):
        path = _jsonl(tmp_path / "c.jsonl", [_row(0)])
        with pytest.raises(IngestError, match="unknown dataset"):
            ingest(path, "tabloid")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            ingest(tmp_path / "missing.jsonl", DatasetKind.FIXTURE)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "id,headline,body,published,source_domain,raw_label\n"
            "s-1,Big headline,Some body text.,2017-01-05,example.com,mostly true\n"
            "s-2,Other headline,More body text.,,example.org,false\n",
            encoding="utf-8",
        )
        result = ingest(path, DatasetKind.SNOPES)
        assert [a.id for a in result.articles] == ["s-1", "s-2"]
        assert result.articles[0].raw_label == "mostly true"
        assert result.articles[1].published is None

    def test_csv_missing_required_column(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,headline,raw_label\nx,y,true\n", encoding="utf-8")
        with pytest.raises(IngestError, match="missing required columns"):
            ingest(path, DatasetKind.SNOPES)

    def test_csv_short_row_is_malformed(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "id,headline,body,published,source_domain,raw_label\n"
            "s-1,Big headline\n"
            "s-2,Other headline,More body text.,,example.org,false\n",
            encoding="utf-8",
        )
        result = ingest(path, DatasetKind.SNOPES)
        assert [a.id for a in result.articles] == ["s-2"]
        assert result.skipped_malformed == 1

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_jsonl_splits_only_at_line_ends(self, tmp_path, separator):
        # JSON allows these raw inside strings; str.splitlines() would cut the row there.
        rows = [_row(i, body=f"First one.{separator}Second one.") for i in range(2)]
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n", encoding="utf-8")
        result = ingest(path, DatasetKind.FIXTURE)
        assert (result.rows_read, result.skipped_malformed) == (2, 0)
        assert [a.body for a in result.articles] == [f"First one.{separator}Second one."] * 2

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_jsonl_line_ends(self, tmp_path, newline):
        path = tmp_path / "c.jsonl"
        path.write_bytes(newline.join(json.dumps(_row(i)) for i in range(3)).encode("utf-8"))
        result = ingest(path, DatasetKind.FIXTURE)
        assert [a.id for a in result.articles] == ["a-0", "a-1", "a-2"]

    def test_raw_vertical_tab_is_one_malformed_row(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [json.dumps(_row(0)), json.dumps(_row(1)).replace("Body", "Bo\x0bdy"), json.dumps(_row(2))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = ingest(path, DatasetKind.FIXTURE)
        assert (result.rows_read, result.skipped_malformed) == (3, 1)
        assert [a.id for a in result.articles] == ["a-0", "a-2"]

    @pytest.mark.parametrize("inner", ["\u2028", "\x85", "\n", "\r\n"])
    def test_csv_quoted_field_keeps_its_line_breaks(self, tmp_path, inner):
        path = tmp_path / "c.csv"
        path.write_bytes(
            (
                "id,headline,body,published,source_domain,raw_label\r\n"
                f's-1,Big headline,"First one.{inner}Second one.",2017-01-05,example.com,false\r\n'
                "s-2,Other headline,More body text.,,example.org,false\r\n"
            ).encode("utf-8")
        )
        result = ingest(path, DatasetKind.SNOPES)
        assert [a.body for a in result.articles] == [f"First one.{inner}Second one.", "More body text."]

    def test_deterministic(self, tmp_path):
        path = _jsonl(tmp_path / "c.jsonl", [_row(i) for i in range(5)])
        first = ingest(path, DatasetKind.FIXTURE).articles
        second = ingest(path, DatasetKind.FIXTURE).articles
        assert first == second


class TestNormalizeLabel:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("true", VeracityLabel.TRUE),
            ("false", VeracityLabel.FALSE),
            ("mostly true", VeracityLabel.PARTIAL_TRUE),
            ("mixture", VeracityLabel.PARTIAL_TRUE),
            ("mostly false", VeracityLabel.PARTIAL_TRUE),
        ],
    )
    def test_five_way_table(self, raw, expected):
        assert normalize_label(raw, DatasetKind.SNOPES) is expected

    def test_opinion_drops(self):
        assert normalize_label("Opinion", DatasetKind.DNF300) is DROP

    def test_case_and_whitespace_insensitive(self):
        assert normalize_label("  Mostly False  ", DatasetKind.SNOPES) is VeracityLabel.PARTIAL_TRUE
        assert normalize_label("TRUE", DatasetKind.SNOPES) is VeracityLabel.TRUE

    def test_unmapped_label_is_an_error(self):
        with pytest.raises(LabelMappingError, match="unmapped"):
            normalize_label("pants on fire", DatasetKind.DNF300)

    def test_empty_label_is_an_error(self):
        with pytest.raises(LabelMappingError):
            normalize_label("   ", DatasetKind.SNOPES)

    def test_total_over_documented_labels(self):
        for raw in DEFAULT_LABEL_TABLE:
            normalize_label(raw, DatasetKind.SNOPES)  # must not raise


class TestNormalizeArticles:
    def test_opinion_rows_leave_corpus(self, tmp_path):
        rows = [_row(0), _row(1, raw_label="opinion"), _row(2, raw_label="mixture")]
        path = _jsonl(tmp_path / "c.jsonl", rows)
        ingested = ingest(path, DatasetKind.FIXTURE)
        normalized = normalize_articles(ingested.articles)
        assert [a.id for a in normalized.articles] == ["a-0", "a-2"]
        assert normalized.dropped == 1
        assert normalized.articles[0].label is VeracityLabel.TRUE
        assert normalized.articles[1].label is VeracityLabel.PARTIAL_TRUE

    def test_count_conservation(self, tmp_path):
        rows = [
            _row(0),
            _row(1, body=""),
            _row(2, raw_label="opinion"),
            _row(3, published="bogus"),
            _row(4, raw_label="mostly false"),
        ]
        path = _jsonl(tmp_path / "c.jsonl", rows)
        ingested = ingest(path, DatasetKind.FIXTURE)
        normalized = normalize_articles(ingested.articles)
        distributed = sum(label_distribution(normalized.articles).values())
        assert (
            distributed
            + normalized.dropped
            + ingested.dropped_empty
            + ingested.skipped_malformed
            == ingested.rows_read
        )


class TestLabelDistribution:
    def test_empty(self):
        counts = label_distribution([])
        assert counts == {label: 0 for label in VeracityLabel}

    def test_counting(self):
        articles = [
            Article("1", "h", "b", DatasetKind.FIXTURE, "true", label=VeracityLabel.TRUE),
            Article("2", "h", "b", DatasetKind.FIXTURE, "true", label=VeracityLabel.TRUE),
            Article("3", "h", "b", DatasetKind.FIXTURE, "x", label=VeracityLabel.NEI),
        ]
        counts = label_distribution(articles)
        assert counts[VeracityLabel.TRUE] == 2
        assert counts[VeracityLabel.NEI] == 1
        assert counts[VeracityLabel.FALSE] == 0
        assert counts[VeracityLabel.PARTIAL_TRUE] == 0

    def test_unlabeled_is_not_counted(self):
        counts = label_distribution([Article("1", "h", "b", DatasetKind.FIXTURE, "true")])
        assert counts == {label: 0 for label in VeracityLabel}

    def test_recount_oracle_on_random_articles(self):
        rng = random.Random(99)
        articles = [
            Article(
                f"r-{i}", "h", "b", DatasetKind.FIXTURE, "x",
                label=VeracityLabel(rng.randrange(4)),
            )
            for i in range(50)
        ]
        counts = label_distribution(articles)
        brute = Counter(a.label for a in articles)
        for label in VeracityLabel:
            assert counts[label] == brute.get(label, 0)
        assert sum(counts.values()) == 50


class TestStore:
    def test_roundtrip(self, tmp_path, fixture_articles):
        path = tmp_path / "store.jsonl"
        save_store(fixture_articles, path)
        loaded = load_store(path)
        assert loaded == fixture_articles

    def test_corrupt_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text("{broken\n", encoding="utf-8")
        with pytest.raises(IngestError, match="invalid JSON"):
            load_store(path)


def test_fixture_corpus_shape(fixture_articles):
    assert len(fixture_articles) == 12
    assert all(a.label is not None for a in fixture_articles)
    assert all(a.claim for a in fixture_articles)
    # One article deliberately has no publication date.
    assert sum(1 for a in fixture_articles if a.published is None) == 1
