"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (run with ``-s`` to see them
live); a failure reads as the usual pytest FAILED line for that criterion.
Tolerances and runtime budgets are part of the criteria and are asserted,
not logged.
"""

import dataclasses
import random
import sys
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from claimcheck.claimrank import rank_sentences
from claimcheck.corpus import VeracityLabel
from claimcheck.encode import HashedBagEncoder, reference_encode
from claimcheck.evidence import (
    CredibleDomainList,
    Query,
    build_query,
    date_window,
    gather_evidence,
    is_credible,
    shift_months,
)
from claimcheck.pipeline import PipelineVariant, run_pipeline, write_records
from claimcheck.providers import FixtureSearchProvider
from claimcheck.textproc import rouge1, rouge_l, split_sentences
from claimcheck.veracity import (
    HashedLinearClassifier,
    TrainConfig,
    score_predictions,
    split_dataset,
)
from oracles import (
    clipped_unigram_overlap,
    in_window_by_walking,
    lcs_length_full_table,
    precision_recall_f1,
    shift_months_by_walking,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from evidence_gain_experiment import run_evidence_gain_experiment  # noqa: E402


def _report(line: str) -> None:
    print(f"ACCEPTANCE {line}: PASS")


def test_criterion_1_rouge_matches_brute_force_oracles():
    started = time.monotonic()
    rng = random.Random(20240601)
    vocabulary = [f"w{i}" for i in range(10)]
    for _ in range(200):
        candidate = [rng.choice(vocabulary) for _ in range(rng.randint(0, 20))]
        reference = [rng.choice(vocabulary) for _ in range(rng.randint(0, 20))]

        expected = precision_recall_f1(
            clipped_unigram_overlap(candidate, reference), len(candidate), len(reference)
        )
        got = rouge1(candidate, reference)
        assert abs(got.precision - expected[0]) <= 1e-9
        assert abs(got.recall - expected[1]) <= 1e-9
        assert abs(got.f1 - expected[2]) <= 1e-9

        expected = precision_recall_f1(
            lcs_length_full_table(candidate, reference), len(candidate), len(reference)
        )
        got = rouge_l(candidate, reference)
        assert abs(got.precision - expected[0]) <= 1e-9
        assert abs(got.recall - expected[1]) <= 1e-9
        assert abs(got.f1 - expected[2]) <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(f"1 rouge-oracle-equivalence ({elapsed:.2f}s)")


def test_criterion_2_ranking_matches_full_sort():
    started = time.monotonic()
    rng = random.Random(7130)
    vocabulary = [f"t{i}" for i in range(30)]
    backend = HashedBagEncoder(dimension=256, seed=0)
    signal_text = "anchor words for the ranking signal"

    for _ in range(50):
        sentences = [
            (" ".join(rng.choice(vocabulary) for _ in range(rng.randint(4, 9)))).capitalize() + "."
            for _ in range(9)
        ]
        insert_at = rng.randrange(len(sentences) + 1)
        injected = "Anchor words for the ranking signal."
        sentences.insert(insert_at, injected)
        body = " ".join(sentences)

        _, ranked, got = rank_sentences(body, signal_text, backend)
        assert len(ranked) == len(got) == 10
        assert ranked[0] == insert_at
        assert got[0] < 1e-9

        signal_vec = reference_encode(signal_text, 256, 0)
        distances = [
            1.0 - float(np.dot(signal_vec, reference_encode(s, 256, 0)))
            for s in split_sentences(body)
        ]
        order = sorted(range(len(distances)), key=lambda i: (distances[i], i))
        assert list(ranked) == order
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(f"2 ranking-correctness ({elapsed:.2f}s)")


def test_criterion_3_query_word_bound_and_prefix():
    rng = random.Random(99)
    vocabulary = [f"q{i}" for i in range(25)]
    for _ in range(500):
        headline_words = [rng.choice(vocabulary) for _ in range(rng.randint(1, 200))]
        claim_words = [rng.choice(vocabulary) for _ in range(rng.randint(0, 200))]
        query = build_query(" ".join(headline_words), " ".join(claim_words))
        words = query.text.split()
        assert len(words) <= 40
        assert words == (headline_words + claim_words)[: len(words)]
        assert len(words) == min(40, len(headline_words) + len(claim_words))
    _report("3 query-bound")


def test_criterion_4_filter_algebra_and_calendar_windows(fixture_articles):
    rng = random.Random(2468)

    # Calendar boundaries against the day-enumeration oracle.
    start = date(2013, 6, 1)
    for _ in range(100):
        article_date = start + timedelta(days=rng.randrange(0, 2000))
        evidence_date = article_date + timedelta(days=rng.randrange(-150, 150))
        assert date_window(article_date, evidence_date) == in_window_by_walking(
            article_date, evidence_date
        )
        assert shift_months(article_date, 3) == shift_months_by_walking(article_date, 3)
        assert shift_months(article_date, -3) == shift_months_by_walking(article_date, -3)

    # Randomized result sets: output is a subset and satisfies both predicates.
    backend = HashedBagEncoder(dimension=256, seed=0)
    allowlist = CredibleDomainList(frozenset({"example.com", "factnews.org"}))
    domains = ["example.com", "factnews.org", "junk.net", "spam.biz"]
    article = dataclasses.replace(fixture_articles[0], published=date(2017, 6, 15))
    query = Query("fixed query")
    for _ in range(40):
        entries = []
        for i in range(rng.randint(0, 14)):
            published = None
            if rng.random() < 0.8:
                published = (article.published + timedelta(days=rng.randrange(-250, 250))).isoformat()
            entries.append(
                {
                    "url": f"https://{rng.choice(domains)}/r{i}",
                    "domain": rng.choice(domains),
                    "title": "t",
                    "body": "Evidence sentence one. Evidence sentence two.",
                    "published": published,
                }
            )
        provider = FixtureSearchProvider({"fixed query": entries})
        evidence = gather_evidence(
            article, "evidence sentence", query, provider, allowlist, backend, max_articles=99
        )
        urls = {e["url"] for e in entries}
        for ea in evidence.articles:
            assert ea.result.url in urls
            assert is_credible(ea.result.domain, allowlist)
            assert ea.result.published is not None
            assert date_window(article.published, ea.result.published)
    _report("4 filter-algebra")


def test_criterion_5_metrics_hand_case_and_confusion_identity():
    report = score_predictions([0, 0, 1, 2, 3], [0, 1, 1, 2, 3])
    assert abs(report.label_accuracy - 0.8) <= 1e-6
    assert abs(report.macro_f1 - 0.8333333333333333) <= 1e-6

    rng = random.Random(31337)
    for _ in range(100):
        n = rng.randint(1, 50)
        gold = [rng.randrange(4) for _ in range(n)]
        pred = [rng.randrange(4) for _ in range(n)]
        rep = score_predictions(gold, pred)
        confusion = rep.confusion
        f1s = []
        for c in range(4):
            tp = confusion[c, c]
            col = confusion[:, c].sum()
            row = confusion[c, :].sum()
            precision = tp / col if col else 0.0
            recall = tp / row if row else 0.0
            f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
        assert abs(rep.label_accuracy - float(np.trace(confusion)) / n) <= 1e-9
        assert abs(rep.macro_f1 - sum(f1s) / 4) <= 1e-9
    _report("5 metrics")


def test_criterion_6_gradient_check():
    np_rng = np.random.default_rng(4096)
    rng = random.Random(4096)
    h = 1e-5
    for _ in range(20):
        backend = HashedLinearClassifier(dimension=16, seed=0)
        backend.weights = np_rng.normal(scale=0.7, size=backend.weights.shape)
        backend.bias = np_rng.normal(scale=0.7, size=backend.bias.shape)
        texts = [
            " ".join(f"v{rng.randrange(10)}" for _ in range(rng.randint(2, 12)))
            for _ in range(6)
        ]
        features = np.stack([backend.features(t) for t in texts])
        labels = np.array([rng.randrange(4) for _ in range(6)], dtype=np.intp)
        _, grad_w, grad_b = backend.batch_loss_and_grad(features, labels)

        for _ in range(4):
            i, j = rng.randrange(4), rng.randrange(16)
            for param, grad, index in (
                (backend.weights, grad_w, (i, j)),
                (backend.bias, grad_b, (i,)),
            ):
                original = param[index]
                param[index] = original + h
                loss_plus = backend.batch_loss_and_grad(features, labels)[0]
                param[index] = original - h
                loss_minus = backend.batch_loss_and_grad(features, labels)[0]
                param[index] = original
                numeric = (loss_plus - loss_minus) / (2 * h)
                denom = max(abs(numeric), abs(grad[index]), 1e-8)
                assert abs(numeric - grad[index]) / denom < 1e-4
    _report("6 gradient-check")


def test_criterion_7_end_to_end_determinism_and_nei(fixture_articles, runtime, tmp_path):
    started = time.monotonic()
    sentences = {a.id: split_sentences(a.body) for a in fixture_articles}
    for variant in PipelineVariant:
        runs = []
        for tag in ("first", "second"):
            records = run_pipeline(fixture_articles, variant, runtime)
            assert len(records) == 12
            path = tmp_path / f"{variant.value}-{tag}.jsonl"
            write_records(records, path)
            runs.append((records, path))

        (records, path_a), (_, path_b) = runs
        assert path_a.read_bytes() == path_b.read_bytes()

        for record in records:
            assert record.error is None
            assert (record.label is VeracityLabel.NEI) == record.evidence.is_empty
            if variant is PipelineVariant.P3_HEADLINE_PLUS_SUMMARY:
                assert record.ranked is None
            else:
                expected = min(3, len(sentences[record.article_id]))
                claim_texts = [sentences[record.article_id][i] for i in record.ranked[:expected]]
                assert record.claim == " ".join(claim_texts)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(f"7 end-to-end-determinism-and-nei ({elapsed:.2f}s)")


def test_criterion_8_evidence_lifts_label_accuracy_by_20_points(runtime):
    outcome = run_evidence_gain_experiment(runtime, n_per_class=50, seed=7, epochs=3)
    assert outcome.gain >= 0.20, (
        f"claim+evidence LA {outcome.concat_label_accuracy:.3f} vs "
        f"content-only LA {outcome.content_label_accuracy:.3f}"
    )
    _report(
        "8 evidence-gain "
        f"(content {outcome.content_label_accuracy:.2f}, "
        f"concat {outcome.concat_label_accuracy:.2f})"
    )


def test_criterion_9_split_harness():
    for n, expected in ((100, (80, 10, 10)), (101, (81, 10, 10)), (1000, (800, 100, 100))):
        items = list(range(n))
        first = split_dataset(items, TrainConfig(seed=11))
        assert tuple(len(p) for p in first) == expected
        combined = first[0] + first[1] + first[2]
        assert sorted(combined) == items and len(set(combined)) == n
        second = split_dataset(items, TrainConfig(seed=11))
        assert first == second
    _report("9 split-harness")
