"""Rank article sentences against an internal signal; pick check-worthy ones.

The signal is text the article already contains (its headline) or text
derived from it (a generated summary). Sentences close to the signal in
embedding space are treated as the article's check-worthy claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .encode import EncoderBackend, cosine_distance, encode, encode_batch
from .textproc import split_sentences


class SignalKind(str, Enum):
    HEADLINE = "headline"
    SUMMARY = "summary"
    HEADLINE_PLUS_SUMMARY = "headline_plus_summary"


@dataclass(frozen=True)
class InternalSignal:
    kind: SignalKind
    text: str

    def __post_init__(self) -> None:
        if not self.text or not self.text.strip():
            raise ValueError("internal signal text must be non-empty")


@dataclass(frozen=True)
class RankedSentence:
    """A body sentence with its distance to the signal and resulting rank."""

    index: int  # 0-based position in the article body
    text: str
    distance: float
    rank: int  # 1 = closest to the signal


@dataclass(frozen=True)
class ClaimSet:
    sentences: tuple[RankedSentence, ...]
    concatenated: str


def rank_sentences(
    article_body: str,
    signal: InternalSignal,
    backend: EncoderBackend,
    abbreviations: frozenset[str] | None = None,
) -> list[RankedSentence]:
    """Order body sentences by ascending cosine distance to the signal.

    Ties break by original position, so runs are reproducible. Every body
    sentence appears exactly once.
    """
    sentences = split_sentences(article_body, abbreviations)
    if not sentences:
        raise ValueError("article body yields no sentences to rank")

    signal_vec = encode(backend, signal.text)
    distances = cosine_distance(signal_vec, encode_batch(backend, sentences))
    scored = [(distance, index, text) for index, (distance, text) in enumerate(zip(distances, sentences))]
    scored.sort(key=lambda item: (item[0], item[1]))
    return [
        RankedSentence(index=index, text=text, distance=distance, rank=rank)
        for rank, (distance, index, text) in enumerate(scored, start=1)
    ]


def select_claims(ranked: list[RankedSentence], k: int = 3) -> ClaimSet:
    """Keep the top ``min(k, len(ranked))`` sentences, joined in rank order."""
    if not ranked:
        raise ValueError("cannot select claims from an empty ranking")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    top = tuple(ranked[:k])
    return ClaimSet(sentences=top, concatenated=" ".join(s.text for s in top))
