"""Sentence-embedding backend contract plus a deterministic reference encoder.

Embeddings are plain float64 numpy vectors. Every backend must emit
unit-norm vectors of its declared dimension, which reduces cosine distance
to ``1 - dot``. The reference encoder is a seeded hashed bag-of-tokens; it
exists so the whole pipeline runs offline and byte-reproducibly.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from abc import ABC, abstractmethod
from itertools import chain, compress, repeat
from typing import Sequence

import numpy as np

from .errors import INPUT_ERRORS, EncodeError
from .textproc import ascii_token_spans, has_tokens, tokenize

Embedding = np.ndarray

_NORM_TOLERANCE = 1e-9
NO_TOKENS = "text has no tokens to encode"


@functools.cache
def _keyed_blake2b(seed: int):
    return hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little", signed=True))


def _digest_bucket(data: bytes, seed: int, buckets: int) -> int:
    hasher = _keyed_blake2b(seed).copy()
    hasher.update(data)
    return int.from_bytes(hasher.digest(), "little") % buckets


def stable_bucket(token: str, seed: int, buckets: int) -> int:
    """Map a token to a bucket index, stable across runs and platforms.

    Uses keyed BLAKE2b rather than the interpreter's randomized ``hash``.
    """
    return _digest_bucket(token.encode("utf-8"), seed, buckets)


# A key packs a token's bytes into up to three little-endian uint64 words:
# tokens of up to 24 bytes. ``tokenize``'s ASCII tokens hold no zero byte, so
# packing is exact, a short token's trailing words are 0 and a slot whose
# first word is 0 is empty. ``_MASKS[k]`` keeps a word's first ``k`` bytes.
_KEY_WORDS = 3
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)  # 2**64 / golden ratio, odd
_WINDOW_STEPS = np.arange(1, 9)


class _KeyTable:
    """Token keys of ``width`` words -> buckets, by open addressing with
    linear probing in numpy arrays kept at most half full. A whole batch of
    keys is found, or placed, one probe round at a time."""

    def __init__(self, width: int, seed: int, dimension: int):
        self.width, self.seed, self.dimension, self.used = width, seed, dimension, 0
        self.words = np.zeros((width, 64), np.uint64)
        self.buckets = np.zeros(64, np.intp)

    def _home(self, keys: np.ndarray) -> np.ndarray:
        mixed = keys[0] * _FIBONACCI
        for word in keys[1:]:
            mixed = (mixed ^ word) * _FIBONACCI
        return (mixed >> np.uint64(65 - self.buckets.size.bit_length())).astype(np.intp)

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        """Each key's slot: the one holding it, or the empty one that ends its probe. Every key
        tries its home slot at once; the few that go on scan ``_WINDOW_STEPS`` further slots a round."""
        slots, last = self._home(keys), self.buckets.size - 1
        stored = self.words[0][slots]
        stop = stored == keys[0]
        for word in range(1, self.width):
            stop &= self.words[word][slots] == keys[word]
        todo = np.flatnonzero(~stop & (stored != 0))
        while todo.size:
            at, rows = (slots[todo, None] + _WINDOW_STEPS) & last, np.arange(todo.size)
            stop = self.words[0][at] == keys[0, todo, None]
            for word in range(1, self.width):
                stop &= self.words[word][at] == keys[word, todo, None]
            stop |= self.words[0][at] == 0
            step = stop.argmax(axis=1)
            going = ~stop[rows, step]
            step[going] = -1  # a probe that goes on starts the next round after this window
            slots[todo] = at[rows, step]
            todo = todo[going]
        return slots

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """The bucket of each key, a column of ``keys``; a new key's bucket is its token's ``stable_bucket``."""
        slots = self._slots(keys)
        new = self.words[0][slots] == 0
        if new.any():
            fresh = np.unique(keys[:, new], axis=1) if self.width > 1 else np.unique(keys[0, new])[None]
            if self._insert(fresh):
                slots = self._slots(keys)
            else:
                slots[new] = self._slots(keys[:, new])
        return self.buckets[slots]

    def _insert(self, keys: np.ndarray) -> bool:
        """Place keys that the table lacks, first doubling it as often as staying half full needs;
        whether it doubled."""
        tokens = keys.T.astype("<u8", order="C").view(f"S{8 * self.width}").ravel().tolist()  # trailing zero bytes dropped
        buckets = np.fromiter(map(_digest_bucket, tokens, repeat(self.seed), repeat(self.dimension)), np.intp, len(tokens))
        self.used += len(tokens)
        grown = 2 * self.used > self.buckets.size
        if grown:
            held = self.words[0] != 0
            keys = np.concatenate([self.words[:, held], keys], axis=1)
            buckets = np.concatenate([self.buckets[held], buckets])
            slots = self.buckets.size << ((2 * self.used - 1) // self.buckets.size).bit_length()
            self.words, self.buckets = np.zeros((self.width, slots), np.uint64), np.zeros(slots, np.intp)
        slots, todo, last = self._home(keys), np.arange(len(buckets)), self.buckets.size - 1
        while todo.size:
            at = slots[todo]
            free = np.flatnonzero(self.words[0][at] == 0)
            self.buckets[at[free]] = todo[free]  # an empty slot's bucket is free to mark who claims it
            won = free[self.buckets[at[free]] == todo[free]]  # one claimant for each free slot
            self.words[:, at[won]], self.buckets[at[won]] = keys[:, todo[won]], buckets[todo[won]]
            todo = np.delete(todo, won)
            slots[todo] = (slots[todo] + 1) & last
        return grown


class HashedFeaturizer(dict):
    """Hashed bag-of-tokens rows: bucket counts scaled to unit L2 norm.

    A token's bucket is ``stable_bucket(token, seed, dimension)``, hashed
    once per featurizer, on first use, and kept for the featurizer's life.
    The tokens of ASCII texts are kept as packed keys, one ``_KeyTable`` for
    each key width; tokens over ``8 * _KEY_WORDS`` bytes and the tokens of
    non-ASCII texts are kept as ``str`` in the featurizer itself, a dict.
    One lock makes each batch's lookups and inserts atomic. A bucket
    depends only on its token, so a warm featurizer gives the same rows as
    a cold one, whatever was encoded before. Row ``i`` is bit-identical to
    accumulating one count per token of ``texts[i]`` and dividing by the
    counts' L2 norm: counts are integers, so the sum of squares is exact
    whatever the summation order.
    """

    def __init__(self, dimension: int, seed: int):
        super().__init__()
        self.dimension = dimension
        self.seed = seed
        self._tables = [_KeyTable(width, seed, dimension) for width in range(1, _KEY_WORDS + 1)]
        self._lock = threading.Lock()

    def __missing__(self, token: str) -> int:
        bucket = self[token] = stable_bucket(token, self.seed, self.dimension)
        return bucket

    def bucket_ids(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Every token's bucket, text by text in token order, and each text's token count."""
        ascii = np.fromiter(map(str.isascii, texts), bool, len(texts))
        if ascii.all():
            with self._lock:
                return self._ascii_ids(texts)
        other = [tokenize(text) for text, plain in zip(texts, ascii) if not plain]
        counts = np.zeros(len(texts), np.intp)
        counts[~ascii] = np.fromiter(map(len, other), np.intp, len(other))
        with self._lock:
            plain_ids, counts[ascii] = self._ascii_ids([text for text, plain in zip(texts, ascii) if plain])
            other_ids = np.fromiter(map(self.__getitem__, chain.from_iterable(other)), np.intp)
        ids, plain_tokens = np.empty(counts.sum(), np.intp), np.repeat(ascii, counts)
        ids[plain_tokens], ids[~plain_tokens] = plain_ids, other_ids
        return ids, counts

    def _ascii_ids(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """``bucket_ids`` of ASCII texts: keys of up to ``_KEY_WORDS`` words read straight from the bytes."""
        data, starts, ends, counts = ascii_token_spans(texts)
        buffer = np.frombuffer(data + bytes(8 * _KEY_WORDS), np.uint8)
        words = np.ndarray((buffer.size - 7,), "<u8", buffer, strides=(1,))  # the 8 bytes from each offset
        lengths = ends - starts
        if lengths.max(initial=0) <= 8:  # the common batch: one-word keys, no sorting by width
            return self._tables[0].lookup((words[starts] & _MASKS[lengths])[None]), counts
        ids, width = np.empty(len(starts), np.intp), (lengths + 7) >> 3
        for table in self._tables:
            at = np.flatnonzero(width == table.width)
            ids[at] = table.lookup(np.stack([
                words[starts[at] + 8 * w] & _MASKS[np.clip(lengths[at] - 8 * w, 0, 8)] for w in range(table.width)
            ]))
        wide = np.flatnonzero(width > _KEY_WORDS)
        ids[wide] = [self[data[s:e].decode("ascii")] for s, e in zip(starts[wide].tolist(), ends[wide].tolist())]
        return ids, counts

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


def _run_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The sums of ``values`` cut into consecutive runs of ``lengths``, in exact integers."""
    totals = np.zeros(len(values) + 1, np.int64)
    np.cumsum(values, out=totals[1:])
    ends = np.cumsum(lengths)
    return totals[ends] - totals[ends - lengths]


def _count_distances(dots: np.ndarray, n_heads: np.ndarray, n_tails: np.ndarray) -> np.ndarray:
    """``1 - sqrt(dot**2 / (n_head * n_tail))``, NaN where ``n_tail`` is 0, for
    integer arrays with ``dot**2 <= n_head * n_tail``: the cosine distance of
    two count vectors with dot product ``dot`` and squared norms ``n_head``
    and ``n_tail``.

    Each step is one correctly rounded IEEE operation: the division (of
    float64 integers, exact below 2**53, or else of Python ints), the
    square root and the subtraction. So the bits are the same on every CPU,
    equal rationals give equal distances, a larger rational never gives a
    larger distance, and two distinct rationals of one head give distinct
    distances whenever ``n_head * n_tail * n_tail'`` is at most 2**50.
    """
    scale = n_heads * n_tails.astype(np.float64)  # exact below 2**53, and at least 2**53 otherwise
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.square(dots.astype(np.float64)) / scale
    for k in np.flatnonzero(scale >= 2.0**53).tolist():
        ratio[k] = int(dots[k]) ** 2 / (int(n_heads[k]) * int(n_tails[k]))
    return 1.0 - np.sqrt(ratio)


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

    def distances(self, heads: Sequence[str], tails: Sequence[Sequence[str]]) -> list:
        """For each ``i``, the input error that ``(heads[i], tails[i])`` alone
        raises, or the cosine distance from ``heads[i]`` to each text of
        ``tails[i]``, NaN for a text without tokens.

        The row path: a head without tokens is ``EncodeError(NO_TOKENS)`` and
        its tail is not scanned; the other heads and their tail texts with
        tokens go through ``encode_pairs``, so a row that breaks the
        embedding contract is its entry's error. One ``np.vecdot`` per entry
        gives the dot products, and ``clamped_distance`` the distances.
        """
        results: list = [None if has_tokens(head) else EncodeError(NO_TOKENS) for head in heads]
        pending = [i for i, result in enumerate(results) if result is None]
        scanned = [np.fromiter(map(has_tokens, tails[i]), bool, len(tails[i])) for i in pending]
        encoded = [list(compress(tails[i], keep)) for i, keep in zip(pending, scanned)]
        for i, keep, pair in zip(pending, scanned, encode_pairs(self, [heads[i] for i in pending], encoded)):
            if isinstance(pair, Exception):
                results[i] = pair
                continue
            results[i] = np.full(len(keep), np.nan)
            results[i][keep] = clamped_distance(np.vecdot(*pair))
        return results


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

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "encode_batch" in vars(cls) and "distances" not in vars(cls):
            cls.distances = EncoderBackend.distances  # its own rows: rank them, and check them, on the row path

    def encode_batch(self, texts: Sequence[str]) -> np.ndarray:
        ids, counts = self._featurizer.bucket_ids(texts)
        if not counts.all():
            raise EncodeError(NO_TOKENS)
        return self._featurizer.unit_rows(ids, counts)

    def distances(self, heads: Sequence[str], tails: Sequence[Sequence[str]]) -> list:
        """``EncoderBackend.distances`` from bucket counts, with no rows.

        One ``bucket_ids`` call covers the heads and every tail text; a count
        of 0 is a text without tokens. For a head ``h`` and a tail text ``t``,
        ``dot`` is the sum of ``h``'s bucket counts over ``t``'s tokens and
        ``n_h``, ``n_t`` are the sums of squared bucket counts, all exact
        integers, and ``_count_distances`` gives the distance.
        """
        n, d = len(heads), self.dimension
        sizes = np.fromiter(map(len, tails), np.intp, n)
        ids, counts = self._featurizer.bucket_ids([*heads, *chain.from_iterable(tails)])
        split, tail_counts = counts[:n].sum(), counts[n:]
        head_cells = np.bincount(np.repeat(np.arange(0, n * d, d), counts[:n]) + ids[:split], minlength=n * d)
        n_head = np.square(head_cells).reshape(n, d).sum(axis=1)
        owner = np.repeat(np.arange(n), sizes)
        dots = _run_sums(head_cells[np.repeat(owner * d, tail_counts) + ids[split:]], tail_counts)
        text_starts = np.arange(0, len(tail_counts) * d, d)
        cells, hits = np.unique(np.repeat(text_starts, tail_counts) + ids[split:], return_counts=True)
        n_tail = _run_sums(np.square(hits), np.bincount(cells // d, minlength=len(tail_counts)))
        rows = np.split(_count_distances(dots, n_head[owner], n_tail), np.cumsum(sizes)[:-1])
        return [row if count else EncodeError(NO_TOKENS) for row, count in zip(rows, counts[:n].tolist())]


def reference_encode(text: str, dimension: int = 256, seed: int = 0) -> Embedding:
    """Encode ``text`` with a hashed bag-of-tokens encoder built on the spot."""
    return HashedBagEncoder(dimension=dimension, seed=seed).encode_batch([text])[0]


def _fault(backend: EncoderBackend, array: np.ndarray, shape: tuple[int, ...]) -> EncodeError | None:
    """How ``array``, returned for ``shape``, breaks the embedding contract; None if it does not."""
    if array.shape != shape:
        return EncodeError(f"backend {backend.name!r} returned shape {array.shape}, expected {shape}")
    # A screen: ``vecdot`` sums the squares in another order, but each sum is within
    # d * 2**-53 of the exact one (relative), so their norms differ by at most about
    # d * 2**-53, plus an ulp for each square root. A row within the tolerance less
    # twice that passes the exact check too; any other matrix, or a d too large, gets it.
    margin = 2 * (shape[-1] + 2) * 2.0**-53
    if margin < _NORM_TOLERANCE and np.all(np.abs(np.sqrt(np.vecdot(array, array)) - 1.0) <= _NORM_TOLERANCE - margin):
        return None
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
