"""Sentence-embedding backend contract plus a deterministic reference encoder.

Embeddings are plain float64 numpy vectors. Every backend must emit
unit-norm vectors of its declared dimension, which reduces cosine distance
to ``1 - dot``. The reference encoder is a seeded hashed bag-of-tokens; it
exists so the whole pipeline runs offline and byte-reproducibly.
"""

from __future__ import annotations

import functools
import hashlib
from abc import ABC, abstractmethod
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import INPUT_ERRORS, EncodeError
from .textproc import has_tokens, tokenize_batch

Embedding = np.ndarray

_NORM_TOLERANCE = 1e-9
NO_TOKENS = "text has no tokens to encode"


@functools.cache
def _keyed_blake2b(seed: int):
    return hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little", signed=True))


def stable_bucket(token: str, seed: int, buckets: int) -> int:
    """Map a token to a bucket index, stable across runs and platforms.

    Uses keyed BLAKE2b rather than the interpreter's randomized ``hash``.
    """
    hasher = _keyed_blake2b(seed).copy()
    hasher.update(token.encode("utf-8"))
    return int.from_bytes(hasher.digest(), "little") % buckets


class HashedFeaturizer(dict):
    """Hashed bag-of-tokens rows: bucket counts scaled to unit L2 norm.

    The featurizer is its own token table: token -> ``stable_bucket(token,
    seed, dimension)``, filled on first use. It is owned by one encoder or
    classifier instance and lives as long as its owner. A key's value
    depends only on the token, so a warm table gives the same rows as a
    cold one, whatever was encoded before. Row ``i`` is bit-identical to
    accumulating one count per token of ``texts[i]`` and dividing by the
    counts' L2 norm: counts are integers, so the sum of squares is exact
    whatever the summation order.
    """

    def __init__(self, dimension: int, seed: int):
        super().__init__()
        self.dimension = dimension
        self.seed = seed

    def __missing__(self, token: str) -> int:
        bucket = self[token] = stable_bucket(token, self.seed, self.dimension)
        return bucket

    def bucket_ids(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Every token's bucket, text by text in token order, and each text's token count."""
        tokens, counts = tokenize_batch(texts)
        return np.fromiter(map(self.__getitem__, tokens), np.intp, len(tokens)), counts

    def unit_cells(self, ids: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero cells of ``unit_rows(ids, counts)``: flat indices, ascending, and their values."""
        n, d = len(counts), self.dimension
        cells, hits = np.unique(np.repeat(np.arange(0, n * d, d), counts) + ids, return_counts=True)
        owner, hits = cells // d, hits.astype(np.float64)
        return cells, hits / np.sqrt(np.bincount(owner, weights=hits * hits, minlength=n))[owner]

    def unit_rows(self, ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Unit rows from ``ids`` cut into runs of ``counts`` (none: a zero row), nonzero cells only."""
        cells, values = self.unit_cells(ids, counts)
        rows = np.zeros((len(counts), self.dimension))
        rows.ravel()[cells] = values
        return rows


class EncoderBackend(ABC):
    """Text-to-vector backend.

    Implementations must be deterministic for a fixed configuration, and
    row ``i`` of a batch must depend on ``texts[i]`` alone: encoding a text
    in any batch gives the same unit-norm row of ``dimension`` entries.
    """

    name: str
    dimension: int

    @abstractmethod
    def encode_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Encode texts with tokens into an ``(n, dimension)`` matrix of unit-norm rows."""


class HashedBagEncoder(EncoderBackend):
    """Seeded hashed bag-of-tokens encoder, L2-normalized.

    Deterministic, dependency-free stand-in for a neural sentence encoder:
    token counts are accumulated into ``dimension`` buckets chosen by a
    keyed stable hash, then normalized to unit length.
    """

    name = "hashed"

    def __init__(self, dimension: int = 256, seed: int = 0):
        if dimension < 8:
            raise ValueError(f"encoder dimension must be >= 8, got {dimension}")
        self.dimension = int(dimension)
        self.seed = int(seed)
        self._featurizer = HashedFeaturizer(self.dimension, self.seed)

    def encode_batch(self, texts: Sequence[str]) -> np.ndarray:
        ids, counts = self._featurizer.bucket_ids(texts)
        if not counts.all():
            raise EncodeError(NO_TOKENS)
        return self._featurizer.unit_rows(ids, counts)


def reference_encode(text: str, dimension: int = 256, seed: int = 0) -> Embedding:
    """Encode ``text`` with a hashed bag-of-tokens encoder built on the spot."""
    return HashedBagEncoder(dimension=dimension, seed=seed).encode_batch([text])[0]


def _fault(backend: EncoderBackend, array: np.ndarray, shape: tuple[int, ...]) -> EncodeError | None:
    """How ``array``, returned for ``shape``, breaks the embedding contract; None if it does not."""
    if array.shape != shape:
        return EncodeError(f"backend {backend.name!r} returned shape {array.shape}, expected {shape}")
    norms = np.sqrt(np.add.reduce(array * array, axis=-1))  # ``np.linalg.norm(axis=-1)``'s arithmetic, bit for bit
    if np.all(np.abs(norms - 1.0) <= _NORM_TOLERANCE):  # never true for a row holding NaN or an infinity
        return None
    if not np.all(np.isfinite(array)):
        return EncodeError(f"backend {backend.name!r} returned non-finite entries")
    return EncodeError(f"backend {backend.name!r} returned a non-unit vector")  # entries finite, so a norm is off


def encode(backend: EncoderBackend, text: str) -> Embedding:
    """Encode ``text`` with ``backend`` and enforce the embedding contract.

    Raises EncodeError when the text has no tokens or when the backend's
    ``encode_batch([text])`` is not one row, or its row has the wrong shape,
    non-finite entries, or a norm off unit by more than 1e-9.
    """
    if not has_tokens(text):
        raise EncodeError(NO_TOKENS)
    rows = np.asarray(backend.encode_batch([text]), dtype=np.float64)
    if rows.ndim != 2 or len(rows) != 1:
        raise _fault(backend, rows, (1, backend.dimension))
    # The row is checked as a vector, as ``encode_pairs`` checks a bad entry's head.
    if (fault := _fault(backend, rows[0], (backend.dimension,))) is not None:
        raise fault
    return rows[0]


def encode_pairs(backend: EncoderBackend, heads: Sequence[str], tails: Sequence[Sequence[str]]) -> list:
    """``(encode(heads[i]), the rows of tails[i])`` for every ``i``, from
    one ``encode_batch`` for all heads and one for all tail texts, which
    must have tokens. Both matrices are checked whole; only if one fails is
    each entry checked alone, so a bad row makes its own entry the error
    that entry alone raises. A backend error, or rows that cannot be
    matched to the texts, is every entry's error.
    """
    flat = list(chain.from_iterable(tails))
    try:
        head_rows, tail_rows = (np.asarray(backend.encode_batch(texts), dtype=np.float64) for texts in (heads, flat))
    except INPUT_ERRORS as exc:
        return [exc] * len(heads)
    d = backend.dimension
    fault = _fault(backend, head_rows, (len(heads), d)) or _fault(backend, tail_rows, (len(flat), d))
    if fault is not None and (len(head_rows), len(tail_rows)) != (len(heads), len(flat)):
        return [fault] * len(heads)
    pairs, lo = [], 0
    for row, tail in enumerate(tails):
        pair = head_rows[row], tail_rows[lo : lo + len(tail)]
        if fault is not None:  # find the entries that the bad rows belong to
            pair = _fault(backend, pair[0], (d,)) or _fault(backend, pair[1], (len(tail), d)) or pair
        pairs.append(pair)
        lo += len(tail)
    return pairs


def clamped_distance(dots: np.ndarray) -> np.ndarray:
    """``1 - dots`` clamped to [0, 2] against rounding noise, NaN kept (``np.clip`` costs twice this on a scalar)."""
    return np.minimum(np.maximum(1.0 - dots, 0.0), 2.0)


def cosine_distance(a: Embedding, b: Embedding) -> float | list[float]:
    """Return ``1 - dot(a, b)``, clamped to [0, 2] against rounding noise.

    Inputs are assumed unit-norm (the embedding contract); under that
    assumption 0 means identical direction and 2 means antipodal. A matrix
    ``b`` gives one distance per row from one ``np.vecdot`` (a BLAS ``ddot``
    per row), so a row's distance is bit-identical to passing that row alone.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if b.shape[-1:] != a.shape or b.ndim > 2:
        raise ValueError(f"embedding dimension mismatch: {a.shape} vs {b.shape}")
    return clamped_distance(np.vecdot(a, b)).tolist()
