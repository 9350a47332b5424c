"""Rank article sentences against an internal signal.

The signal is text the article already contains (its headline) or text
derived from it (a generated summary). Sentences close to the signal in
embedding space are treated as the article's check-worthy claims: the
pipeline joins the first ``claims_k`` of a ranking into its claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .encode import NO_TOKENS, EncoderBackend, cosine_distance, encode_pairs
from .encode import encode  # noqa: F401  (unused; perfbench's tracer wraps ``claimrank.encode``)
from .errors import EncodeError, unwrap
from .textproc import has_tokens, split_sentences


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


def rank_sentences(
    article_body: str,
    signal: InternalSignal,
    backend: EncoderBackend,
    abbreviations: frozenset[str] | None = None,
) -> tuple[list[str], tuple[int, ...], tuple[float, ...]]:
    """Order body sentences by ascending cosine distance to the signal.

    Returns ``(sentences, ranked, distances)``: the body's ``split_sentences``
    list, every sentence's index in it closest first, and their distances in
    the same order. Ties break by original position, so runs are
    reproducible. This is ``rank_block`` for one article.
    """
    return unwrap(rank_block([article_body], [signal], backend, abbreviations)[0])


def rank_block(
    bodies: list[str],
    signals: list[InternalSignal],
    backend: EncoderBackend,
    abbreviations: frozenset[str] | None = None,
) -> list:
    """``rank_sentences`` for each ``(bodies[i], signals[i])``, with one
    ``encode_batch`` for all signals and one for all body sentences. Entry
    ``i`` is the ranking, or the input error that ranking article ``i``
    alone raises."""
    results: list = [None] * len(bodies)
    pending = []  # (article, its sentences, whether every one has tokens)
    for i, (body, signal) in enumerate(zip(bodies, signals)):
        sentences = split_sentences(body, abbreviations)
        if not sentences:
            results[i] = ValueError("article body yields no sentences to rank")
        elif not has_tokens(signal.text):
            results[i] = EncodeError(NO_TOKENS)
        else:
            pending.append((i, sentences, all(map(has_tokens, sentences))))
    # A sentence without tokens fails its article once the signal's row has passed.
    pairs = encode_pairs(backend, [signals[i].text for i, _, _ in pending], [s if ok else () for _, s, ok in pending])
    for (i, sentences, ok), pair in zip(pending, pairs):
        if isinstance(pair, Exception):
            results[i] = pair
        elif not ok:
            results[i] = EncodeError(NO_TOKENS)
        else:
            # (distance, position) pairs, so ties break by position.
            distances, ranked = zip(*sorted(zip(cosine_distance(*pair), range(len(sentences)))))
            results[i] = sentences, ranked, distances
    return results

