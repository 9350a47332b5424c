import dataclasses
import json
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

from claimcheck import claimrank, encode, evidence, textproc
from claimcheck.corpus import VeracityLabel, label_distribution
from claimcheck.claimrank import nearest_first
from claimcheck.encode import HashedBagEncoder
from claimcheck.errors import PipelineError, RetryableSearchError
from claimcheck.evidence import SearchProvider
from claimcheck import pipeline as pipeline_module
from claimcheck.config import PipelineConfig
from claimcheck.pipeline import (
    PipelineVariant,
    annotate_predictions,
    build_examples,
    build_runtime,
    read_records,
    run_gist_experiment,
    run_pipeline,
    write_records,
)
from claimcheck.summarize import LeadSummarizer, SummarizerBackend, summarize
from claimcheck.textproc import rouge1, rouge_l, split_sentences, tokenize
from claimcheck.veracity import NO_EVIDENCE, HashedLinearClassifier
import oracles
from oracles import record_by_article

V1_RECORDS = Path(__file__).parent / "data" / "records_p1.v1.jsonl"


@pytest.fixture(scope="module")
def records_by_variant(fixture_articles, runtime):
    return {
        variant: run_pipeline(fixture_articles, variant, runtime) for variant in PipelineVariant
    }


class TestRunPipeline:
    def test_one_record_per_article(self, fixture_articles, records_by_variant):
        for records in records_by_variant.values():
            assert [r.article_id for r in records] == [a.id for a in fixture_articles]
            assert not any(r.error for r in records)

    def test_nei_iff_empty_evidence(self, records_by_variant):
        for records in records_by_variant.values():
            for record in records:
                assert (record.label is VeracityLabel.NEI) == record.evidence.is_empty

    def test_gold_label_preserved(self, fixture_articles, records_by_variant):
        gold = {a.id: a.label for a in fixture_articles}
        for records in records_by_variant.values():
            for record in records:
                assert record.gold_label is gold[record.article_id]
                if not record.evidence.is_empty:
                    assert record.label is record.gold_label

    def test_p1_p2_claim_counts(self, fixture_articles, runtime, records_by_variant):
        sentences = {a.id: split_sentences(a.body) for a in fixture_articles}
        for variant in (PipelineVariant.P1_HEADLINE, PipelineVariant.P2_SUMMARY):
            for record in records_by_variant[variant]:
                expected = min(3, len(sentences[record.article_id]))
                assert len(record.ranked) == len(sentences[record.article_id])
                claim_sentences = [sentences[record.article_id][i] for i in record.ranked][:expected]
                assert record.claim == " ".join(claim_sentences)

    @pytest.mark.parametrize("variant", [PipelineVariant.P1_HEADLINE, PipelineVariant.P2_SUMMARY], ids=lambda v: v.value)
    def test_ranking_indexes_the_body_sentences(self, variant, fixture_articles, runtime, records_by_variant):
        articles = {a.id: a for a in fixture_articles}
        for record in records_by_variant[variant]:
            article = articles[record.article_id]
            sentences = split_sentences(article.body)
            assert sorted(record.ranked) == list(range(len(sentences)))
            keys = list(zip(record.distances, record.ranked))
            assert all(a < b for a, b in zip(keys, keys[1:]))  # closest first, ties by index
            claims = [sentences[i] for i in record.ranked[: runtime.config.claims_k]]
            assert record.claim == " ".join(claims)
            alone = claimrank.rank_sentences(article.body, record.signal_text, runtime.encoder)
            assert alone[0] == sentences
            ranked, distances = alone[1:]
            assert record.ranked == ranked
            assert [d.hex() for d in record.distances] == [d.hex() for d in distances]  # bit-equal

    def test_p3_has_no_ranking_and_uses_gist_directly(self, fixture_articles, runtime, records_by_variant):
        headlines = {a.id: a.headline for a in fixture_articles}
        bodies = {a.id: a.body for a in fixture_articles}
        for record in records_by_variant[PipelineVariant.P3_HEADLINE_PLUS_SUMMARY]:
            assert record.ranked is None
            summary = summarize(runtime.summarizer, bodies[record.article_id])
            assert record.claim == f"{headlines[record.article_id]} {summary}"
            assert record.signal_text == record.claim

    def test_p3_no_evidence_at_least_as_common_as_p2(self, records_by_variant):
        def nei_count(variant):
            return sum(1 for r in records_by_variant[variant] if r.label is VeracityLabel.NEI)

        assert nei_count(PipelineVariant.P3_HEADLINE_PLUS_SUMMARY) >= nei_count(
            PipelineVariant.P2_SUMMARY
        )
        assert nei_count(PipelineVariant.P2_SUMMARY) > 0

    def test_signal_kinds(self, records_by_variant):
        kinds = {
            PipelineVariant.P1_HEADLINE: "headline",
            PipelineVariant.P2_SUMMARY: "summary",
            PipelineVariant.P3_HEADLINE_PLUS_SUMMARY: "headline_plus_summary",
        }
        for variant, records in records_by_variant.items():
            assert {r.signal_kind for r in records} == {kinds[variant]}

    def test_undated_article_flagged(self, records_by_variant):
        record = next(
            r for r in records_by_variant[PipelineVariant.P1_HEADLINE] if r.article_id == "fx-009"
        )
        assert record.article_date_missing
        assert all(not ea.date_check_applicable for ea in record.evidence.articles)

    def test_byte_identical_reruns(self, fixture_articles, runtime, tmp_path):
        for variant in PipelineVariant:
            paths = []
            for tag in ("a", "b"):
                records = run_pipeline(fixture_articles, variant, runtime)
                path = tmp_path / f"{variant.value}-{tag}.jsonl"
                write_records(records, path)
                paths.append(path)
            assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_empty_input(self, runtime):
        assert run_pipeline([], PipelineVariant.P1_HEADLINE, runtime) == []


class _FailOn(SearchProvider):
    name = "failing"

    def __init__(self, inner, poison: str):
        self._inner = inner
        self._poison = poison

    def search(self, query_text):
        if self._poison in query_text.lower():
            raise RetryableSearchError("provider busy")
        return self._inner.search(query_text)


class TestBatchResilience:
    def test_single_article_failure_is_captured(self, fixture_articles, runtime):
        # fx-004's headline starts with "New bridge toll", poison on that.
        failing = dataclasses.replace(
            runtime, provider=_FailOn(runtime.provider, "bridge toll")
        )
        records = run_pipeline(fixture_articles, PipelineVariant.P1_HEADLINE, failing)
        by_id = {r.article_id: r for r in records}
        assert by_id["fx-004"].error is not None
        assert "RetryableSearchError" in by_id["fx-004"].error
        assert by_id["fx-004"].label is None
        others = [r for r in records if r.article_id != "fx-004"]
        assert all(r.error is None for r in others)

    def test_all_articles_failing_raises(self, fixture_articles, runtime):
        class Dead(SearchProvider):
            name = "dead"

            def search(self, query_text):
                raise RetryableSearchError("endpoint down")

        dead_runtime = dataclasses.replace(runtime, provider=Dead())
        with pytest.raises(PipelineError, match="every article failed"):
            run_pipeline(fixture_articles, PipelineVariant.P1_HEADLINE, dead_runtime)


def test_a_new_runtime_keeps_no_earlier_split(fixture_articles):
    # The split memo is per process; a runtime must not keep a dropped one's texts alive.
    split_sentences(fixture_articles[0].body)
    assert textproc._split_sentences.cache_info().currsize > 0
    build_runtime(PipelineConfig())
    assert textproc._split_sentences.cache_info().currsize == 0


def test_p2_ranks_each_body_from_its_kept_split(fixture_articles):
    # p2 splits a block's bodies to summarize them and again to rank them; the
    # second split must be a lookup, in every block. Nothing else is split:
    # the searches find nothing.
    class Nothing(SearchProvider):
        name = "nothing"

        def search(self, query_text):
            return []

    count = pipeline_module.BLOCK_ARTICLES + 3
    articles = [
        dataclasses.replace(a, id=f"a{i}", body=f"{a.body} Copy {i} ends here.")
        for i, a in enumerate(fixture_articles[i % 12] for i in range(count))
    ]
    run_pipeline(articles, PipelineVariant.P2_SUMMARY, build_runtime(PipelineConfig(), provider=Nothing()))
    info = textproc._split_sentences.cache_info()
    assert (info.misses, info.hits) == (count, count)


def test_programming_error_propagates(fixture_articles, runtime):
    # Only input errors become one errored record; a bug in a backend stops the batch.
    class Broken(SearchProvider):
        name = "broken"

        def search(self, query_text):
            if "bridge toll" in query_text.lower():
                raise TypeError("unsupported operand")
            return runtime.provider.search(query_text)

    broken = dataclasses.replace(runtime, provider=Broken())
    with pytest.raises(TypeError, match="unsupported operand"):
        run_pipeline(fixture_articles, PipelineVariant.P1_HEADLINE, broken)


class _EmptySummaryOn(SummarizerBackend):
    name = "empty-on"

    def __init__(self, inner, poison: str):
        super().__init__(inner.max_tokens)
        self._inner = inner
        self._poison = poison

    def summarize(self, body):
        return "" if self._poison in body.lower() else self._inner.summarize(body)


class _PoisonedRows(HashedBagEncoder):
    """Breaks the unit-norm contract on every row whose text holds ``zzpoison``."""

    name = "poisoned"

    def encode_batch(self, texts):
        rows = super().encode_batch(texts)
        rows[[i for i, text in enumerate(texts) if "zzpoison" in text.lower()]] *= 2.0
        return rows


class _PoisonedEvidence(SearchProvider):
    name = "poisoned-evidence"

    def __init__(self, inner, trigger: str):
        self._inner = inner
        self._trigger = trigger

    def search(self, query_text):
        results = self._inner.search(query_text)
        if self._trigger not in query_text.lower():
            return results
        return [dataclasses.replace(r, body=f"{r.body} Zzpoison evidence line.") for r in results]


class _CountingEncoder(HashedBagEncoder):
    """Counts ``encode_batch`` calls; its own ``encode_batch`` puts it on the row path."""

    def __init__(self):
        super().__init__()
        self.batches = 0

    def encode_batch(self, texts):
        self.batches += 1
        return super().encode_batch(texts)


def _edge_articles(base, tag):
    return [
        dataclasses.replace(base, id=f"{tag}-no-sentence", body="   "),
        dataclasses.replace(base, id=f"{tag}-punctuation-only", body=f"... {base.body}"),
        dataclasses.replace(base, id=f"{tag}-summary-fails", body=f"{base.body} Zzsummaryfail ends it."),
        dataclasses.replace(base, id=f"{tag}-headline-no-tokens", headline="..."),
        dataclasses.replace(
            base,
            id=f"{tag}-non-ascii",
            body=f"{base.body} \u201cIt was never built,\u201d she said. \u00c9mile agreed \u2014 twice. "
            "See \u0130nc. X denied it.",
        ),
    ]


@pytest.fixture(scope="module")
def mixed_articles(fixture_articles):
    """Fixture articles, edge cases in both blocks, and more articles than one block holds."""
    copies = [dataclasses.replace(a, id=f"{a.id}-copy{n}") for n in range(10) for a in fixture_articles]
    articles = [*fixture_articles, *_edge_articles(fixture_articles[1], "first"), *copies]
    articles += _edge_articles(fixture_articles[2], "last")
    assert len(articles) > pipeline_module.BLOCK_ARTICLES
    return articles


@pytest.fixture(scope="module")
def mixed_runtime(runtime):
    # fx-004's query holds "bridge toll": its search raises a retryable error.
    return dataclasses.replace(
        runtime,
        provider=_FailOn(runtime.provider, "bridge toll"),
        summarizer=_EmptySummaryOn(runtime.summarizer, "zzsummaryfail"),
    )


def _bytes(records, path):
    write_records(records, path)
    return path.read_bytes()


class TestMatchesPerArticleOracle:
    @pytest.mark.parametrize("variant", list(PipelineVariant))
    def test_same_bytes_as_one_article_at_a_time(self, variant, mixed_articles, mixed_runtime, tmp_path):
        records = run_pipeline(mixed_articles, variant, mixed_runtime)
        expected = [record_by_article(article, variant, mixed_runtime) for article in mixed_articles]
        assert _bytes(records, tmp_path / "run.jsonl") == _bytes(expected, tmp_path / "oracle.jsonl")
        errors = {r.error.split(":")[0] for r in records if r.error}
        if variant is PipelineVariant.P1_HEADLINE:
            assert errors == {"ValueError", "EncodeError", "RetryableSearchError"}
        else:
            assert {"SummarizeError", "RetryableSearchError"} <= errors

    @pytest.mark.parametrize("variant", list(PipelineVariant))
    def test_a_bad_row_fails_only_its_own_article(self, variant, fixture_articles, runtime, tmp_path):
        poisoned_headline = dataclasses.replace(
            fixture_articles[1], headline=f"{fixture_articles[1].headline} zzpoison"
        )
        poisoned_body = dataclasses.replace(
            fixture_articles[2], body=f"{fixture_articles[2].body} Zzpoison closes the body."
        )
        articles = [fixture_articles[0], poisoned_headline, poisoned_body, *fixture_articles[3:]]
        poisoned = dataclasses.replace(
            runtime, encoder=_PoisonedRows(), provider=_PoisonedEvidence(runtime.provider, "reservoir")
        )
        records = run_pipeline(articles, variant, poisoned)
        expected = [record_by_article(article, variant, poisoned) for article in articles]
        assert _bytes(records, tmp_path / "run.jsonl") == _bytes(expected, tmp_path / "oracle.jsonl")
        failed = {r.article_id for r in records if r.error}
        assert failed == {
            PipelineVariant.P1_HEADLINE: {"fx-001", "fx-002", "fx-003"},
            PipelineVariant.P2_SUMMARY: {"fx-001", "fx-003"},
            PipelineVariant.P3_HEADLINE_PLUS_SUMMARY: {"fx-001"},
        }[variant]
        for record in records:
            if record.error:
                assert record.error == "EncodeError: backend 'poisoned' returned a non-unit vector"

    @pytest.mark.parametrize("variant", list(PipelineVariant))
    @pytest.mark.parametrize("count", [12, pipeline_module.BLOCK_ARTICLES, pipeline_module.BLOCK_ARTICLES + 1])
    def test_encode_batch_calls_per_block(self, variant, count, fixture_articles, runtime):
        articles = [
            dataclasses.replace(fixture_articles[i % 12], id=f"a{i}") for i in range(count)
        ]
        counting = _CountingEncoder()
        run_pipeline(articles, variant, dataclasses.replace(runtime, encoder=counting))
        blocks = -(-count // pipeline_module.BLOCK_ARTICLES)
        per_block = 2 if variant is PipelineVariant.P3_HEADLINE_PLUS_SUMMARY else 4
        assert counting.batches <= per_block * blocks

    @pytest.mark.parametrize("variant", list(PipelineVariant))
    def test_token_scans_cover_every_text_and_no_more(self, variant, mixed_articles, mixed_runtime, monkeypatch):
        # On the row path, run_pipeline scans each text exactly as often as the
        # oracle checks it by hand: once per ranking or evidence pool that holds
        # it. The check inside the oracle's ``encode`` calls is the encoder
        # contract, not a scan.
        mixed_runtime = dataclasses.replace(mixed_runtime, encoder=_CountingEncoder())
        scans = []
        real = encode.has_tokens

        def counted(text):
            scans[-1][text] += 1
            return real(text)

        monkeypatch.setattr(encode, "has_tokens", counted)
        scans.append(Counter())
        run_pipeline(mixed_articles, variant, mixed_runtime)
        monkeypatch.setattr(encode, "has_tokens", real)
        monkeypatch.setattr(oracles, "has_tokens", counted)
        scans.append(Counter())
        for article in mixed_articles:
            record_by_article(article, variant, mixed_runtime)
        by_pipeline, by_oracle = scans
        assert by_pipeline == by_oracle


    @pytest.mark.parametrize("variant", list(PipelineVariant))
    def test_each_text_is_hashed_once_per_ranking(self, variant, mixed_articles, mixed_runtime, monkeypatch, hashed_batches):
        # The hashed encoder's ranking makes one ``bucket_ids`` call, over its heads and then every tail text.
        rankings = []

        def recorded(heads, tails, backend):
            rankings.append([*heads, *chain.from_iterable(tails)])
            return nearest_first(heads, tails, backend)

        monkeypatch.setattr(claimrank, "nearest_first", recorded)
        monkeypatch.setattr(evidence, "nearest_first", recorded)
        run_pipeline(mixed_articles, variant, mixed_runtime)
        assert hashed_batches == rankings
        blocks = -(-len(mixed_articles) // pipeline_module.BLOCK_ARTICLES)
        assert len(rankings) == blocks * (1 if variant is PipelineVariant.P3_HEADLINE_PLUS_SUMMARY else 2)


class TestRecordsIO:
    def test_roundtrip(self, records_by_variant, tmp_path):
        records = records_by_variant[PipelineVariant.P2_SUMMARY]
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        loaded = read_records(path)
        # Writing what was read gives the same bytes.
        again = tmp_path / "again.jsonl"
        write_records(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_schema_tag_present(self, records_by_variant, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(records_by_variant[PipelineVariant.P1_HEADLINE], path)
        for line in path.read_text().splitlines():
            assert json.loads(line)["schema"] == "pipeline-record.v2"

    def test_v1_file_reads_as_todays_records(self, fixture_articles, runtime, tmp_path):
        # tests/data/records_p1.v1.jsonl was written by the v1 writer from the fixture corpus.
        path = tmp_path / "records.jsonl"
        write_records(run_pipeline(fixture_articles, PipelineVariant.P1_HEADLINE, runtime), path)
        upgraded = read_records(V1_RECORDS)
        assert upgraded == read_records(path)
        again = tmp_path / "again.jsonl"
        write_records(upgraded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_v1_ranking_is_ordered_by_rank(self, tmp_path):
        entries = [
            {"index": 2, "text": "c", "distance": 0.5, "rank": 3},
            {"index": 0, "text": "a", "distance": 0.125, "rank": 1},
            {"index": 1, "text": "b", "distance": 0.25, "rank": 2},
        ]
        path = tmp_path / "records.jsonl"
        line = {"schema": "pipeline-record.v1", "article_id": "a", "variant": "p1", "ranked": entries}
        path.write_text(json.dumps(line) + "\n" + json.dumps(dict(line, ranked=None)) + "\n", encoding="utf-8")
        ranked, unranked = read_records(path)
        assert (ranked.ranked, ranked.distances) == ((0, 1, 2), (0.125, 0.25, 0.5))
        assert (unranked.ranked, unranked.distances) == (None, None)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"schema": "other.v9"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="schema"):
            read_records(path)

    def test_timings_not_persisted(self, records_by_variant, tmp_path):
        record = records_by_variant[PipelineVariant.P1_HEADLINE][0]
        assert record.timings  # populated in memory
        path = tmp_path / "records.jsonl"
        write_records([record], path)
        assert "timings" not in json.loads(path.read_text())

    def test_replay_reproduces_features(self, records_by_variant, tmp_path):
        records = records_by_variant[PipelineVariant.P2_SUMMARY]
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        replayed = build_examples(read_records(path), "concat")
        original = build_examples(records, "concat")
        assert replayed == original

    def test_nei_examples_carry_no_evidence_marker(self, records_by_variant):
        examples = build_examples(records_by_variant[PipelineVariant.P1_HEADLINE], "concat")
        by_label = {}
        for ex in examples:
            by_label.setdefault(ex.label, []).append(ex)
        for ex in by_label[VeracityLabel.NEI]:
            assert ex.text.endswith(NO_EVIDENCE)

    def test_content_examples_need_articles(self, records_by_variant, fixture_articles):
        records = records_by_variant[PipelineVariant.P1_HEADLINE]
        with pytest.raises(ValueError, match="articles_by_id"):
            build_examples(records, "content")
        examples = build_examples(
            records, "content", {a.id: a for a in fixture_articles}
        )
        assert len(examples) == len([r for r in records if r.label is not None])

    def test_label_distribution_recount(self, records_by_variant):
        records = records_by_variant[PipelineVariant.P3_HEADLINE_PLUS_SUMMARY]
        counts = label_distribution(records)
        for label in VeracityLabel:
            assert counts[label] == sum(1 for r in records if r.label is label)
        assert sum(counts.values()) == len(records)

    def test_annotate_predictions(self, records_by_variant):
        records = records_by_variant[PipelineVariant.P1_HEADLINE]
        backend = HashedLinearClassifier(dimension=64, seed=0)
        annotated = annotate_predictions(records, backend)
        for record in annotated:
            assert record.predicted_label is not None
            assert sum(record.predicted_probabilities) == pytest.approx(1.0, abs=1e-6)

    def test_annotated_records_keep_their_timings(self, records_by_variant):
        records = records_by_variant[PipelineVariant.P1_HEADLINE]
        assert all(record.timings for record in records)
        annotated = annotate_predictions(records, HashedLinearClassifier(dimension=64, seed=0))
        for source, record in zip(records, annotated):
            assert record.timings == source.timings
            assert record.timings is not source.timings


class TestGistExperiment:
    def test_headline_equal_to_claim_scores_100(self, fixture_articles):
        articles = [dataclasses.replace(a, claim=a.headline) for a in fixture_articles]
        report = run_gist_experiment(articles, [])
        assert report.sample_size == 12
        headline_row = report.rows[0]
        assert headline_row.signal == "headline"
        assert headline_row.rouge1_f1 == pytest.approx(100.0, abs=1e-9)
        assert headline_row.rouge_l_f1 == pytest.approx(100.0, abs=1e-9)

    def test_single_article_matches_hand_scores(self, fixture_articles):
        article = dataclasses.replace(
            fixture_articles[0],
            headline="city reservoir full again",
            claim="city reservoir almost full",
        )
        report = run_gist_experiment([article], [LeadSummarizer()])
        expected_1 = rouge1(tokenize(article.headline), tokenize(article.claim)).f1 * 100
        expected_l = rouge_l(tokenize(article.headline), tokenize(article.claim)).f1 * 100
        assert report.rows[0].rouge1_f1 == pytest.approx(expected_1, abs=1e-9)
        assert report.rows[0].rouge_l_f1 == pytest.approx(expected_l, abs=1e-9)

        summary = summarize(LeadSummarizer(), article.body)
        expected_s = rouge1(tokenize(summary), tokenize(article.claim)).f1 * 100
        assert report.rows[1].signal == "summary:lead"
        assert report.rows[1].rouge1_f1 == pytest.approx(expected_s, abs=1e-9)

    def test_articles_without_claims_are_skipped(self, fixture_articles):
        articles = [dataclasses.replace(a, claim=None) for a in fixture_articles[:6]]
        articles += fixture_articles[6:]
        report = run_gist_experiment(articles, [])
        assert report.sample_size == 6

    def test_no_claims_is_an_error(self, fixture_articles):
        articles = [dataclasses.replace(a, claim=None) for a in fixture_articles]
        with pytest.raises(ValueError, match="reference claim"):
            run_gist_experiment(articles, [])

    def test_sample_size_caps_and_is_seeded(self, fixture_articles):
        first = run_gist_experiment(fixture_articles, [], sample_size=5, seed=2)
        second = run_gist_experiment(fixture_articles, [], sample_size=5, seed=2)
        assert first.sample_size == 5
        assert first == second
