import dataclasses
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from claimcheck.claimrank import nearest_first, rank_block, rank_sentences
from claimcheck.config import PipelineConfig
from claimcheck.encode import NO_TOKENS, HashedBagEncoder
from claimcheck.errors import EncodeError
from claimcheck.pipeline import PipelineVariant, build_runtime, derive_stages
from claimcheck.textproc import split_sentences
from oracles import bucket_counts, distance_of, nearest_first_by_sorting, squared_cosine

_VOCAB = [
    "council", "harbor", "budget", "library", "bridge", "transit", "school",
    "reservoir", "festival", "stadium", "recycling", "ferry", "archive",
    "permit", "audit", "playground", "museum", "orchard", "tunnel", "market",
]


def _random_article(rng: random.Random, n_sentences: int = 10) -> str:
    sentences = []
    for _ in range(n_sentences):
        words = [rng.choice(_VOCAB) for _ in range(rng.randint(4, 9))]
        sentences.append(" ".join(words).capitalize() + ".")
    return " ".join(sentences)


@pytest.fixture(scope="module")
def backend():
    return HashedBagEncoder(dimension=256, seed=0)


class TestRankSentences:
    def test_signal_identical_sentence_ranks_first(self, backend):
        body = "Alpha beta gamma delta. Harbor dredging resumes next month. Zeta eta theta iota."
        signal = "Harbor dredging resumes next month."
        _, ranked, distances = rank_sentences(body, signal, backend)
        assert ranked[0] == 1
        assert distances[0] < 1e-9

    def test_identical_sentences_keep_document_order(self, backend):
        body = "Same words here. Same words here. Same words here."
        signal = "different signal text"
        _, ranked, distances = rank_sentences(body, signal, backend)
        assert ranked == (0, 1, 2)
        assert distances[0] == distances[1] == distances[2]

    def test_every_sentence_appears_once(self, backend):
        body = _random_article(random.Random(5))
        signal = "council budget audit"
        sentences, ranked, distances = rank_sentences(body, signal, backend)
        assert sentences == split_sentences(body)
        assert sorted(ranked) == list(range(len(sentences)))
        assert len(distances) == len(ranked)

    def test_matches_brute_force_sort(self, backend):
        rng = random.Random(17)
        for _ in range(10):
            body = _random_article(rng)
            signal_text = " ".join(rng.choice(_VOCAB) for _ in range(5))
            _, ranked, got = rank_sentences(body, signal_text, backend)

            # Oracle: full sort over independently recomputed rationals.
            sentences = split_sentences(body)
            head = bucket_counts(backend, signal_text)
            squares = [squared_cosine(head, bucket_counts(backend, s)) for s in sentences]
            order = sorted(range(len(sentences)), key=lambda i: (-squares[i], i))
            assert list(ranked) == order
            assert list(got) == [distance_of(squares[i]) for i in order]

    def test_rank_invariant_under_monotone_distance_transform(self, backend):
        body = _random_article(random.Random(23))
        signal = "library archive budget"
        _, ranked, distances = rank_sentences(body, signal, backend)
        transformed = sorted(zip(distances, ranked), key=lambda pair: (3.0 * pair[0] + 1.0, pair[1]))
        assert [index for _, index in transformed] == list(ranked)

    def test_permutation_invariance_for_distinct_distances(self, backend):
        # Sentence i repeats the signal word i+1 times next to one unique
        # filler token, so distances strictly decrease with i: no ties.
        sentences = [("Stadium " * (i + 1)).strip() + f" filler{i}." for i in range(8)]
        signal = "stadium"

        split, ranked, distances = rank_sentences(" ".join(sentences), signal, backend)
        assert len(set(distances)) == len(distances), "fixture must have distinct distances"

        shuffled = sentences[:]
        random.Random(31).shuffle(shuffled)
        split_shuffled, permuted, _ = rank_sentences(" ".join(shuffled), signal, backend)
        assert [split_shuffled[i] for i in permuted] == [split[i] for i in ranked]

    def test_empty_body(self, backend):
        signal = "anything"
        with pytest.raises(ValueError):
            rank_sentences("   ", signal, backend)

    def test_a_signal_without_tokens_leaves_its_body_unscanned(self, token_scans):
        body = "Harbor crews dredge. Ships wait."
        rejected, ranking = rank_block([body, body], ["...", "Harbor crews"], _OwnRows(dimension=256, seed=0))
        assert type(rejected) is EncodeError and str(rejected) == NO_TOKENS
        assert ranking[0] == ["Harbor crews dredge.", "Ships wait."]
        assert token_scans == {"...": 1, "Harbor crews": 1, "Harbor crews dredge.": 1, "Ships wait.": 1}

    def test_a_ranking_hashes_each_text_once_in_one_call(self, backend, token_scans, hashed_batches):
        body = "Harbor crews dredge. Ships wait."
        rejected, ranking = rank_block([body, body], ["...", "Harbor crews"], backend)
        assert type(rejected) is EncodeError and str(rejected) == NO_TOKENS
        assert ranking[0] == ["Harbor crews dredge.", "Ships wait."]
        assert hashed_batches == [["...", "Harbor crews", *split_sentences(body), *split_sentences(body)]]
        assert token_scans == {}

    def test_empty_signal_rejected(self, fixture_articles, runtime):
        article = dataclasses.replace(fixture_articles[0], headline="  ")
        with pytest.raises(ValueError, match="^internal signal text must be non-empty$"):
            derive_stages(article, PipelineVariant.P1_HEADLINE, runtime)


class _OwnRows(HashedBagEncoder):
    """The hashed encoder's rows from an ``encode_batch`` of its own, so ranked on the row path."""

    def encode_batch(self, texts):
        return super().encode_batch(texts)


class _Breaking(HashedBagEncoder):
    """Breaks the embedding contract on rows whose text holds the word
    ``nan`` (a NaN entry) or ``double`` (twice a unit row)."""

    name = "breaking"

    def encode_batch(self, texts):
        rows = super().encode_batch(texts)
        for row, words in zip(rows, (text.split() for text in texts)):
            if "nan" in words:
                row[0] = np.nan
            if "double" in words:
                row *= 2.0
        return rows


def test_a_bad_sentence_row_comes_before_a_sentence_without_tokens():
    body = "... Harbor double ferry. Ferry audit."
    [row_path] = rank_block([body], ["harbor"], _Breaking(dimension=8, seed=1))
    [by_counts] = rank_block([body], ["harbor"], HashedBagEncoder(dimension=8, seed=1))
    assert type(row_path) is EncodeError and str(row_path) == "backend 'breaking' returned a non-unit vector"
    assert type(by_counts) is EncodeError and str(by_counts) == NO_TOKENS


def _plain(entry):
    """An entry of ``nearest_first`` with its distances as exact hex strings."""
    if isinstance(entry, Exception):
        return type(entry), str(entry)
    tail, positions, distances = entry
    return list(tail), positions, [distance.hex() for distance in distances]


# Few words in short texts, so tails repeat sentences and distances tie often; "--" alone has no tokens.
_text = st.lists(st.sampled_from(["harbor", "budget", "ferry", "audit", "nan", "double", "--"]), min_size=1, max_size=3)
_block = st.lists(st.tuples(_text.map(" ".join), st.lists(_text.map(" ".join), max_size=8)), max_size=6)
# A tail longer than an insertion sort's cutoff whose ties an unstable sort reorders.
_TIED = ("harbor", ["ferry audit", "budget", "ferry audit", "harbor audit"] * 8)


@pytest.mark.parametrize(
    "backend", [HashedBagEncoder(dimension=256, seed=0), _Breaking(dimension=8, seed=1)], ids=["hashed", "breaking"]
)
@given(block=_block)
@example(block=[])
@example(block=[("harbor", []), ("budget", ["ferry", "ferry", "budget"]), ("audit", [])])
@example(block=[_TIED, ("double", ["harbor"]), ("ferry", ["budget", "nan ferry"]), _TIED])
@example(block=[("--", ["harbor"]), ("ferry", ["--", "budget", "-- --", "nan"]), ("harbor", ["--"])])
def test_nearest_first_is_the_sorting_oracle_per_entry(backend, block):
    heads, tails = [head for head, _ in block], [tail for _, tail in block]
    got = list(map(_plain, nearest_first(heads, tails, backend)))
    assert got == list(map(_plain, nearest_first_by_sorting(backend, heads, tails)))
    assert got == [_plain(nearest_first([head], [tail], backend)[0]) for head, tail in block]


# Two tails of a seed-1 ``news`` p2 ranking whose distances are equal as rationals.
_NEWS_TIE = (
    "Davusato ba cise tifakuka birefula vehurevi luneli tifakuka lovuzicu gece lovuzicu",
    [
        "Cibeko sokabepu rugupofo mevi pedohi tifakuka vafucifi likecine zesovuvi tifakuka.",
        "Lovuzicu hokigima mecidasi birefula salusu vimiku ke cifide duheseni tifakuka sivotara zu.",
    ],
)


def test_a_tie_in_the_rational_keeps_position_order(backend):
    head, tail = _NEWS_TIE
    squares = [squared_cosine(bucket_counts(backend, head), bucket_counts(backend, text)) for text in tail]
    assert squares[0] == squares[1]
    [(_, positions, distances)] = nearest_first([head], [tail], backend)
    assert positions == (0, 1)
    assert distances[0].hex() == distances[1].hex() == distance_of(squares[0]).hex()


# Texts from few words, some of them repeated, so distinct tails often tie as rationals.
_words = st.lists(st.sampled_from(["harbor", "budget", "ferry", "audit", "tide", "silt", "barge"]), min_size=1, max_size=6)


@given(block=st.lists(st.tuples(_words.map(" ".join), st.lists(_words.map(" ".join), max_size=12)), max_size=5))
@example(block=[_NEWS_TIE])
def test_nearest_first_ranks_by_the_rational_with_ties_by_position(backend, block):
    heads, tails = [head for head, _ in block], [tail for _, tail in block]
    for (head, tail), (_, positions, distances) in zip(block, nearest_first(heads, tails, backend)):
        head_counts = bucket_counts(backend, head)
        squares = [squared_cosine(head_counts, bucket_counts(backend, tail[p])) for p in positions]
        for (first, a), (second, b) in zip(zip(squares, positions), zip(squares[1:], positions[1:])):
            assert first > second or (first == second and a < b)
        assert [d.hex() for d in distances] == [distance_of(square).hex() for square in squares]


class TestClaim:
    """The pipeline's claim: the first ``claims_k`` ranked sentences, joined by spaces."""

    def _claim(self, fixture_articles, n=5, k=3):
        body = _random_article(random.Random(41), n)
        article = dataclasses.replace(fixture_articles[0], headline="museum tunnel orchard", body=body)
        runtime = build_runtime(PipelineConfig(claims_k=k))
        stages = derive_stages(article, PipelineVariant.P1_HEADLINE, runtime)
        sentences, ranked, distances = rank_sentences(body, stages.signal, runtime.encoder)
        assert (stages.ranked, stages.distances) == (ranked, distances)
        return stages.claim, [sentences[i] for i in ranked], body

    def test_top_three_in_rank_order(self, fixture_articles):
        claim, in_rank_order, _ = self._claim(fixture_articles, 5)
        assert claim == " ".join(in_rank_order[:3])

    def test_short_article_keeps_all(self, fixture_articles):
        claim, in_rank_order, _ = self._claim(fixture_articles, 2)
        assert len(in_rank_order) == 2
        assert claim == " ".join(in_rank_order)

    def test_k_one(self, fixture_articles):
        claim, in_rank_order, _ = self._claim(fixture_articles, 5, k=1)
        assert claim == in_rank_order[0]

    def test_claims_are_verbatim_substrings(self, fixture_articles):
        claim, in_rank_order, body = self._claim(fixture_articles, 7)
        for sentence in in_rank_order[:3]:
            assert sentence in body and sentence in claim
