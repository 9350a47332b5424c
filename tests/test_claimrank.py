import random

import numpy as np
import pytest

from claimcheck.claimrank import (
    InternalSignal,
    SignalKind,
    rank_sentences,
    select_claims,
)
from claimcheck.encode import HashedBagEncoder, reference_encode
from claimcheck.textproc import split_sentences

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
        signal = InternalSignal(SignalKind.HEADLINE, "Harbor dredging resumes next month.")
        ranked = rank_sentences(body, signal, backend)
        assert ranked[0].index == 1
        assert ranked[0].rank == 1
        assert ranked[0].distance < 1e-9

    def test_identical_sentences_keep_document_order(self, backend):
        body = "Same words here. Same words here. Same words here."
        signal = InternalSignal(SignalKind.HEADLINE, "different signal text")
        ranked = rank_sentences(body, signal, backend)
        assert [r.index for r in ranked] == [0, 1, 2]
        assert [r.rank for r in ranked] == [1, 2, 3]

    def test_every_sentence_appears_once(self, backend):
        body = _random_article(random.Random(5))
        signal = InternalSignal(SignalKind.HEADLINE, "council budget audit")
        ranked = rank_sentences(body, signal, backend)
        assert sorted(r.index for r in ranked) == list(range(len(split_sentences(body))))

    def test_matches_brute_force_sort(self, backend):
        rng = random.Random(17)
        for _ in range(10):
            body = _random_article(rng)
            signal_text = " ".join(rng.choice(_VOCAB) for _ in range(5))
            signal = InternalSignal(SignalKind.HEADLINE, signal_text)
            ranked = rank_sentences(body, signal, backend)

            # Oracle: full sort over independently recomputed distances.
            sentences = split_sentences(body)
            signal_vec = reference_encode(signal_text, 256, 0)
            distances = [
                1.0 - float(np.dot(signal_vec, reference_encode(s, 256, 0))) for s in sentences
            ]
            order = sorted(range(len(sentences)), key=lambda i: (distances[i], i))
            assert [r.index for r in ranked] == order
            assert [r.distance for r in ranked] == [min(2.0, max(0.0, distances[i])) for i in order]

    def test_rank_invariant_under_monotone_distance_transform(self, backend):
        body = _random_article(random.Random(23))
        signal = InternalSignal(SignalKind.HEADLINE, "library archive budget")
        ranked = rank_sentences(body, signal, backend)
        transformed = sorted(ranked, key=lambda r: (3.0 * r.distance + 1.0, r.index))
        assert [r.index for r in transformed] == [r.index for r in ranked]

    def test_permutation_invariance_for_distinct_distances(self, backend):
        # Sentence i repeats the signal word i+1 times next to one unique
        # filler token, so distances strictly decrease with i: no ties.
        sentences = [("Stadium " * (i + 1)).strip() + f" filler{i}." for i in range(8)]
        signal = InternalSignal(SignalKind.HEADLINE, "stadium")

        baseline = rank_sentences(" ".join(sentences), signal, backend)
        distances = [r.distance for r in baseline]
        assert len(set(distances)) == len(distances), "fixture must have distinct distances"

        shuffled = sentences[:]
        random.Random(31).shuffle(shuffled)
        permuted = rank_sentences(" ".join(shuffled), signal, backend)
        assert [r.text for r in permuted] == [r.text for r in baseline]

    def test_empty_body(self, backend):
        signal = InternalSignal(SignalKind.HEADLINE, "anything")
        with pytest.raises(ValueError):
            rank_sentences("   ", signal, backend)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            InternalSignal(SignalKind.HEADLINE, "  ")


class TestSelectClaims:
    def _ranked(self, backend, n=5):
        rng = random.Random(41)
        body = _random_article(rng, n)
        signal = InternalSignal(SignalKind.HEADLINE, "museum tunnel orchard")
        return rank_sentences(body, signal, backend), body

    def test_top_three_in_rank_order(self, backend):
        ranked, _ = self._ranked(backend, 5)
        claims = select_claims(ranked, 3)
        assert [s.rank for s in claims.sentences] == [1, 2, 3]
        assert claims.concatenated == " ".join(s.text for s in ranked[:3])

    def test_short_article_keeps_all(self, backend):
        ranked, _ = self._ranked(backend, 2)
        claims = select_claims(ranked, 3)
        assert len(claims.sentences) == 2

    def test_k_one(self, backend):
        ranked, _ = self._ranked(backend, 5)
        claims = select_claims(ranked, 1)
        assert len(claims.sentences) == 1
        assert claims.concatenated == ranked[0].text

    def test_claims_are_verbatim_substrings(self, backend):
        ranked, body = self._ranked(backend, 7)
        claims = select_claims(ranked, 3)
        for sentence in claims.sentences:
            assert sentence.text in body

    def test_empty_input(self):
        with pytest.raises(ValueError):
            select_claims([], 3)

    def test_bad_k(self, backend):
        ranked, _ = self._ranked(backend, 5)
        with pytest.raises(ValueError):
            select_claims(ranked, 0)
