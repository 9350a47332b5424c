"""Rank article sentences against an internal signal.

The signal is text the article already contains (its headline) or text
derived from it (a generated summary). Sentences close to the signal in
embedding space are treated as the article's check-worthy claims: the
pipeline joins the first ``claims_k`` of a ranking into its claim. The same
nearest-first step later ranks evidence sentences against that claim.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .encode import NO_TOKENS, EncoderBackend, clamped_distance, encode_pairs
from .encode import cosine_distance, encode  # noqa: F401  (unused; perfbench's tracer wraps ``claimrank.<name>``)
from .errors import EncodeError, unwrap
from .textproc import has_tokens, split_sentences


def nearest_first(heads: Sequence[str], tails: Sequence[Sequence[str]], backend: EncoderBackend) -> list:
    """``(tails[i], positions, distances)`` for each ``i``: every position in
    ``tails[i]``, closest to ``heads[i]`` first (ties by position), and their
    distances in that order. Head and tail texts must have tokens, so callers
    check a head before they scan its tail; an entry ``encode_pairs`` fails
    gets its error. One ``encode_batch`` covers the heads, one the tails;
    one ``np.vecdot`` per entry fills the block's one array of dot products,
    and one clamp and one stable ``np.lexsort`` rank every entry.
    """
    results = encode_pairs(backend, heads, tails)
    ranked = [i for i, pair in enumerate(results) if not isinstance(pair, Exception)]
    sizes = np.fromiter((len(tails[i]) for i in ranked), np.intp, len(ranked))
    ends = np.cumsum(sizes)
    starts = ends - sizes
    spans = list(zip(ranked, starts.tolist(), ends.tolist()))
    dots = np.empty(sizes.sum())
    for i, lo, hi in spans:
        np.vecdot(*results[i], out=dots[lo:hi])
    distances = clamped_distance(dots)
    owner = np.repeat(np.arange(len(ranked)), sizes)
    # Sorted by owner first, row k still belongs to owner[k]; stable, so ties keep position order.
    order = np.lexsort((distances, owner))
    positions, distances = (order - starts[owner]).tolist(), distances[order].tolist()
    for i, lo, hi in spans:
        results[i] = tails[i], tuple(positions[lo:hi]), tuple(distances[lo:hi])
    return results


def rank_sentences(
    article_body: str, signal: str, backend: EncoderBackend
) -> tuple[list[str], tuple[int, ...], tuple[float, ...]]:
    """Order body sentences by ascending cosine distance to the signal text.

    Returns ``(sentences, ranked, distances)``: the body's ``split_sentences``
    list, every sentence's index in it closest first, and their distances in
    the same order, as ``nearest_first`` gives them. This is ``rank_block``
    for one article.
    """
    return unwrap(rank_block([article_body], [signal], backend)[0])


def rank_block(bodies: list[str], signals: list[str], backend: EncoderBackend) -> list:
    """``rank_sentences`` for each ``(bodies[i], signals[i])``, through one
    ``nearest_first``. Entry ``i`` is the ranking, or the input error that
    ranking article ``i`` alone raises."""
    split = [split_sentences(body) for body in bodies]
    results: list = [
        ValueError("article body yields no sentences to rank") if not sentences
        else None if has_tokens(signal) else EncodeError(NO_TOKENS)
        for sentences, signal in zip(split, signals)
    ]
    pending = [i for i, result in enumerate(results) if result is None]
    ok = [all(map(has_tokens, split[i])) for i in pending]
    # A sentence without tokens fails its article once the signal's row has passed.
    tails = [split[i] if good else () for i, good in zip(pending, ok)]
    rankings = nearest_first([signals[i] for i in pending], tails, backend)
    for i, good, ranking in zip(pending, ok, rankings):
        results[i] = ranking if good or isinstance(ranking, Exception) else EncodeError(NO_TOKENS)
    return results
