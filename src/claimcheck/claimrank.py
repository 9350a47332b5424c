"""Rank article sentences against an internal signal.

The signal is text the article already contains (its headline) or text
derived from it (a generated summary). Sentences close to the signal in
embedding space are treated as the article's check-worthy claims: the
pipeline joins the first ``claims_k`` of a ranking into its claim. The same
nearest-first step later ranks evidence sentences against that claim.
"""

from __future__ import annotations

from math import isnan
from typing import Sequence

import numpy as np

from .encode import NO_TOKENS, EncoderBackend
from .encode import cosine_distance, encode  # noqa: F401  (unused; perfbench's tracer wraps ``claimrank.<name>``)
from .errors import EncodeError, unwrap
from .textproc import split_sentences


def nearest_first(heads: Sequence[str], tails: Sequence[Sequence[str]], backend: EncoderBackend) -> list:
    """``(tails[i], positions, distances)`` for each ``i``: every position in
    ``tails[i]``, closest to ``heads[i]`` first (ties by position), and their
    distances in that order, as ``backend.distances`` gives them; a tail
    text without tokens has distance NaN and ranks last. An entry that
    ``distances`` fails gets its error. One stable ``np.lexsort`` ranks
    every entry.
    """
    results = backend.distances(heads, tails)
    ranked = [i for i, result in enumerate(results) if not isinstance(result, Exception)]
    sizes = np.fromiter((len(tails[i]) for i in ranked), np.intp, len(ranked))
    ends = np.cumsum(sizes)
    starts = ends - sizes
    distances = np.concatenate([np.empty(0), *(results[i] for i in ranked)])
    owner = np.repeat(np.arange(len(ranked)), sizes)
    # Sorted by owner first, row k still belongs to owner[k]; stable, so ties keep position order.
    order = np.lexsort((distances, owner))
    positions, distances = (order - starts[owner]).tolist(), distances[order].tolist()
    for i, lo, hi in zip(ranked, starts.tolist(), ends.tolist()):
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
    ranking article ``i`` alone raises: a body without sentences, else the
    error ``distances`` gives the entry, else a sentence without tokens."""
    split = [split_sentences(body) for body in bodies]
    results: list = [None if sentences else ValueError("article body yields no sentences to rank") for sentences in split]
    pending = [i for i, result in enumerate(results) if result is None]
    for i, ranking in zip(pending, nearest_first([signals[i] for i in pending], [split[i] for i in pending], backend)):
        # A sentence without tokens has distance NaN, so it ranks last.
        results[i] = EncodeError(NO_TOKENS) if not isinstance(ranking, Exception) and isnan(ranking[2][-1]) else ranking
    return results
