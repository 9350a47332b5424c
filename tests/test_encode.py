import hashlib
import json
import string
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from claimcheck.encode import (
    NO_TOKENS,
    EncoderBackend,
    HashedBagEncoder,
    HashedFeaturizer,
    cosine_distance,
    encode,
    encode_pairs,
    reference_encode,
    stable_bucket,
)
from claimcheck.encode import _fault
from claimcheck.errors import EncodeError
from claimcheck.textproc import has_tokens, tokenize
from oracles import encode_rows, hashed_bag_by_loop

PINS_PATH = Path(__file__).parent / "data" / "encoder_pins.json"


@pytest.fixture(scope="module")
def backend():
    return HashedBagEncoder(dimension=64, seed=0)


def _row(backend, text):
    """The backend's unchecked row for one text."""
    return backend.encode_batch([text])[0]


class TestHashedBagEncoder:
    def test_deterministic(self, backend):
        first = _row(backend, "the same text twice")
        second = _row(backend, "the same text twice")
        assert np.array_equal(first, second)

    def test_unit_norm(self, backend):
        vec = _row(backend, "a handful of ordinary tokens here")
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9

    def test_count_scaling_is_removed(self, backend):
        # "a b" and "a b a b" point in exactly the same direction.
        d = cosine_distance(_row(backend, "a b"), _row(backend, "a b a b"))
        assert d == pytest.approx(0.0, abs=1e-12)
        assert cosine_distance(_row(backend, "a"), _row(backend, "a a a")) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_disjoint_buckets_are_orthogonal(self, backend):
        # First verify the chosen tokens really occupy different buckets,
        # then orthogonality (distance 1) follows from the construction.
        b_alpha = stable_bucket("alpha", backend.seed, backend.dimension)
        b_bravo = stable_bucket("bravo", backend.seed, backend.dimension)
        assert b_alpha != b_bravo
        d = cosine_distance(_row(backend, "alpha"), _row(backend, "bravo"))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_no_tokens_is_an_error(self, backend):
        for text in ("", "   ", "..,!?"):
            with pytest.raises(EncodeError):
                backend.encode_batch([text])

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            HashedBagEncoder(dimension=4)

    def test_seed_changes_vectors(self):
        a = reference_encode("same text", dimension=64, seed=0)
        b = reference_encode("same text", dimension=64, seed=1)
        assert not np.array_equal(a, b)


class TestStableBucket:
    TOKENS = ["alpha", "", "x", "straße", "İstanbul", "日本語", "don’t", "a" * 300]

    @staticmethod
    def _reference(token, seed, buckets):
        key = seed.to_bytes(8, "little", signed=True)
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key).digest()
        return int.from_bytes(digest, "little") % buckets

    @pytest.mark.parametrize("buckets", [2, 256, 1 << 20])
    def test_matches_the_keyed_blake2b_formula(self, buckets):
        # Seeds interleave, so a keyed state reused across seeds or tokens would show.
        for _ in range(2):
            for token in self.TOKENS:
                for seed in (0, 1, -5, 2**62):
                    assert stable_bucket(token, seed, buckets) == self._reference(token, seed, buckets)

    def test_seed_outside_64_bits_is_rejected(self):
        with pytest.raises(OverflowError):
            stable_bucket("alpha", 2**63, 256)


class TestEncodeContract:
    def test_happy_path(self, backend):
        vec = encode(backend, "plain text")
        assert vec.shape == (64,)

    def test_empty_text_rejected(self, backend):
        with pytest.raises(EncodeError):
            encode(backend, "  ")

    def test_non_unit_backend_rejected(self):
        class Broken(EncoderBackend):
            name = "broken"
            dimension = 8

            def encode_batch(self, texts):
                return np.ones((len(texts), 8))

        with pytest.raises(EncodeError, match="non-unit"):
            encode(Broken(), "text")

    def test_wrong_shape_rejected(self):
        class Short(EncoderBackend):
            name = "short"
            dimension = 8

            def encode_batch(self, texts):
                return np.stack([np.ones(4) / np.linalg.norm(np.ones(4))] * len(texts))

        with pytest.raises(EncodeError, match=r"shape \(4,\), expected \(8,\)"):
            encode(Short(), "text")

    @pytest.mark.parametrize("rows", [np.zeros((0, 8)), np.ones((2, 8)) / np.sqrt(8), np.ones(8) / np.sqrt(8)])
    def test_one_row_per_text(self, rows):
        class Miscounted(EncoderBackend):
            name = "miscounted"
            dimension = 8

            def encode_batch(self, texts):
                return rows

        with pytest.raises(EncodeError, match=r"expected \(1, 8\)"):
            encode(Miscounted(), "text")


# (seed, dimension) pairs; each gets its own bucket table.
_SETTINGS = [(0, 256), (3, 64), (-7, 1024), (11, 8)]
_texts = st.lists(
    st.text(alphabet=st.sampled_from("abcdeXYZ019 .,!?\u00e9\u00df"), min_size=1, max_size=60).filter(has_tokens),
    min_size=1,
    max_size=12,
)


class TestBatchedEncoding:
    @given(_texts, st.sampled_from(_SETTINGS))
    def test_rows_are_bit_identical_to_per_text_encoding(self, texts, setting):
        seed, dimension = setting
        matrix = HashedBagEncoder(dimension=dimension, seed=seed).encode_batch(texts)
        assert matrix.shape == (len(texts), dimension)
        for text, row in zip(texts, matrix):
            assert np.array_equal(row, reference_encode(text, dimension=dimension, seed=seed))
            assert np.array_equal(row, hashed_bag_by_loop(text, dimension, seed))

    @given(_texts, st.sampled_from(_SETTINGS))
    def test_token_table_agrees_with_stable_bucket(self, texts, setting):
        seed, dimension = setting
        featurizer = HashedFeaturizer(dimension, seed)
        ids, counts = featurizer.bucket_ids(texts)
        assert ids.tolist() == [stable_bucket(token, seed, dimension) for text in texts for token in tokenize(text)]
        # The str table holds only the tokens of non-ASCII texts and tokens over 24 bytes.
        kept = {token for text in texts for token in tokenize(text) if not text.isascii() or len(token) > 24}
        assert set(featurizer) == kept
        assert all(bucket == stable_bucket(token, seed, dimension) for token, bucket in featurizer.items())

    def test_warm_table_gives_the_same_bits(self, backend):
        texts = ["alpha bravo alpha", "charlie", "bravo bravo delta"]
        cold = backend.encode_batch(texts)
        assert np.array_equal(backend.encode_batch(list(reversed(texts))), cold[::-1])

    def test_concurrent_fills_of_one_table_agree(self):
        # More threads than cores and a short switch interval, so table fills
        # from different threads interleave.
        texts = [" ".join(f"tok{(i * 7 + j) % 500}" for j in range(40)) for i in range(64)]
        expected = HashedBagEncoder(dimension=128, seed=5).encode_batch(texts)
        shared = HashedBagEncoder(dimension=128, seed=5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(shared.encode_batch, texts[i::8]) for i in range(8)]
                results = [future.result(timeout=30) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for i, matrix in enumerate(results):
            assert np.array_equal(matrix, expected[i::8])
        # Each distinct token was placed once, under the bucket that ``stable_bucket`` gives it.
        vocabulary = sorted({token for text in texts for token in tokenize(text)})
        assert shared._featurizer._tables[0].used == len(vocabulary)
        ids, _ = shared._featurizer.bucket_ids([" ".join(vocabulary)])
        assert ids.tolist() == [stable_bucket(token, 5, 128) for token in vocabulary]

    def test_empty_token_list_gives_a_zero_row(self):
        featurizer = HashedFeaturizer(16, 0)
        rows = featurizer.unit_rows(*featurizer.bucket_ids(["...", "a"]))
        assert not rows[0].any()
        assert np.linalg.norm(rows[1]) == 1.0

    def test_contract_checks_the_whole_matrix(self, backend):
        matrix = encode_rows(backend, ["one text", "another text"])
        assert matrix.shape == (2, 64)
        assert encode_rows(backend, []).shape == (0, 64)

    def test_text_without_tokens_fails_the_batch(self, backend):
        with pytest.raises(EncodeError, match="no tokens"):
            encode_rows(backend, ["fine", "..."])
        with pytest.raises(EncodeError, match="no tokens"):
            backend.encode_batch(["fine", "..."])

    def test_the_reference_encoder_gives_the_contract_message(self):
        with pytest.raises(EncodeError, match=f"^{NO_TOKENS}$"):
            reference_encode("...")

    @pytest.mark.parametrize(
        "vector,message",
        [
            (np.ones(8), "non-unit"),
            (np.ones(4) / np.linalg.norm(np.ones(4)), "shape"),
            (np.full(8, np.nan), "non-finite"),
        ],
    )
    def test_a_bad_batch_is_rejected(self, vector, message):
        class Broken(EncoderBackend):
            name = "broken"
            dimension = 8

            def encode_batch(self, texts):
                return np.stack([vector] * len(texts))

        with pytest.raises(EncodeError, match=message):
            encode_rows(Broken(), ["text", "more"])
        (pair,) = encode_pairs(Broken(), ["text"], [["more"]])
        assert isinstance(pair, EncodeError) and message in str(pair)


_ascii_texts = st.lists(
    st.text(alphabet=st.sampled_from("abcdeXYZ019 .,!?"), min_size=1, max_size=60).filter(has_tokens),
    min_size=1,
    max_size=12,
)


_batches = st.lists(st.one_of(_ascii_texts, _texts), min_size=1, max_size=5)


class TestOnePassRows:
    @given(_batches, st.sampled_from(_SETTINGS))
    def test_warm_rows_are_cold_rows_bit_for_bit(self, batches, setting):
        seed, dimension = setting
        warm = HashedBagEncoder(dimension=dimension, seed=seed)
        # Every batch again in reverse, and all texts in one batch: texts seen
        # before, in other batches and orders, next to new ones.
        everything = [text for texts in batches for text in texts]
        for texts in [*batches, *(texts[::-1] for texts in batches), everything[::-1]]:
            rows = warm.encode_batch(texts)
            assert rows.tobytes() == HashedBagEncoder(dimension=dimension, seed=seed).encode_batch(texts).tobytes()
            for text, row in zip(texts, rows):
                assert np.array_equal(row, hashed_bag_by_loop(text, dimension, seed))

    def test_repeated_text_in_one_batch(self):
        backend = HashedBagEncoder(dimension=64, seed=0)
        rows = backend.encode_batch(["x y", "z", "x y"])
        assert rows[0].tobytes() == rows[2].tobytes() == reference_encode("x y", dimension=64).tobytes()

    def test_empty_batch(self):
        assert HashedBagEncoder(dimension=64, seed=0).encode_batch([]).shape == (0, 64)


class _Faulty(HashedBagEncoder):
    """Breaks the contract on rows whose text names a fault, or for a whole batch."""

    name = "faulty"

    def __init__(self, batch_fault=None):
        super().__init__(dimension=16, seed=1)
        self.batch_fault = batch_fault

    def encode_batch(self, texts):
        if self.batch_fault == "raises":
            raise EncodeError("backend refused the batch")
        rows = super().encode_batch(texts)
        if self.batch_fault == "short":
            return rows[:, :8]
        if self.batch_fault == "missing-row":
            return rows[1:]
        for i, text in enumerate(texts):
            if "nan" in text:
                rows[i, 0] = np.nan
            if "double" in text:
                rows[i] *= 2.0
        return rows


def _alone(backend, head, tail):
    """What encoding one pair through ``encode`` and ``encode_rows`` gives."""
    try:
        return encode(backend, head), encode_rows(backend, tail)
    except EncodeError as exc:
        return exc


class TestEncodePairs:
    HEADS = ["first head", "double head", "third head", "fourth head", "fifth head"]
    TAILS = [["a b", "c d"], ["e f"], [], ["double g", "nan h"], ["i j", "k", "l m n"]]

    @pytest.mark.parametrize("batch_fault", [None, "short"])
    def test_each_entry_is_what_it_gives_alone(self, batch_fault):
        backend = _Faulty(batch_fault)
        pairs = encode_pairs(backend, self.HEADS, self.TAILS)
        assert len(pairs) == len(self.HEADS)
        for pair, head, tail in zip(pairs, self.HEADS, self.TAILS):
            alone = _alone(backend, head, tail)
            if isinstance(alone, EncodeError):
                assert isinstance(pair, EncodeError) and str(pair) == str(alone)
            else:
                assert np.array_equal(pair[0], alone[0]) and np.array_equal(pair[1], alone[1])
        failed = [i for i, pair in enumerate(pairs) if isinstance(pair, EncodeError)]
        assert failed == ([1, 3] if batch_fault is None else [0, 1, 2, 3, 4])
        if batch_fault is None:  # a non-finite row outranks a non-unit one in the same entry
            assert "non-finite" in str(pairs[3])

    @pytest.mark.parametrize("batch_fault,message", [("raises", "refused"), ("missing-row", "shape")])
    def test_a_batch_failure_fails_every_entry(self, batch_fault, message):
        pairs = encode_pairs(_Faulty(batch_fault), self.HEADS, self.TAILS)
        assert all(isinstance(pair, EncodeError) and message in str(pair) for pair in pairs)


def _unit(d, hot=0):
    row = np.zeros(d)
    row[hot] = 1.0
    return row


class TestContractCheck:
    """``_fault``'s verdicts where one pass of row norms cannot clear the array."""

    BACKEND = HashedBagEncoder(dimension=8, seed=0)

    @pytest.mark.parametrize(
        "array,verdict",
        [
            pytest.param(np.full(8, 1e200), "returned a non-unit vector", id="finite-but-norm-overflows"),
            pytest.param(np.array([_unit(8), np.r_[np.inf, np.zeros(7)]]), "returned non-finite entries", id="inf"),
            pytest.param(np.array([np.r_[np.nan, np.zeros(7)], 2.0 * _unit(8)]), "returned non-finite entries",
                         id="nan-row-before-non-unit-row"),
            pytest.param(np.array([_unit(8, 1), 3.0 * _unit(8)]), "returned a non-unit vector", id="non-unit"),
            pytest.param(_unit(8, 3), None, id="unit-vector"),
            pytest.param(np.array([_unit(8, 2), np.full(8, 8 ** -0.5)]), None, id="unit-rows"),
        ],
    )
    def test_verdict(self, array, verdict):
        with np.errstate(over="ignore"):  # 1e200 squared is inf, and numpy warns
            fault = _fault(self.BACKEND, array, array.shape)
        if verdict is None:
            assert fault is None
        else:
            assert type(fault) is EncodeError and str(fault) == f"backend 'hashed' {verdict}"

    def test_shape_comes_first(self):
        fault = _fault(self.BACKEND, np.full((1, 4), np.nan), (1, 8))
        assert str(fault) == "backend 'hashed' returned shape (1, 4), expected (1, 8)"


def _dense_unit(seed, shape):
    rows = np.random.default_rng(seed).normal(size=shape)
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


_EDGE_BACKEND = HashedBagEncoder(dimension=256, seed=0)


@pytest.mark.parametrize(
    "array,verdicts",
    [
        pytest.param(_EDGE_BACKEND.encode_batch(["the quick brown fox jumps over the lazy dog"])[0],
                     "uuuuxxxxxxxxxuuuuu", id="hashed-vector"),
        pytest.param(_EDGE_BACKEND.encode_batch(["alpha bravo", "charlie delta echo",
                                                 "one two three four five six seven eight nine ten"]),
                     "uuuuxxxxxxxxxxuuuu", id="hashed-matrix"),
        pytest.param(_dense_unit(0, 256), "uuuuxxxxxxxxuuuuuu", id="dense-vector"),
        pytest.param(_dense_unit(1, (8, 256)), "uuuuxxxxxxxxxxuuuu", id="dense-matrix"),
    ],
)
def test_contract_verdicts_at_the_tolerance_edge(array, verdicts):
    """Unit rows scaled to 1 + 1e-9 and 1 - 1e-9, each -4 to +4 ulps: "u" passes, "x" is a non-unit fault."""
    scales = [base + k * np.spacing(base) for base in (1.0 + 1e-9, 1.0 - 1e-9) for k in range(-4, 5)]
    faults = [_fault(_EDGE_BACKEND, array * scale, array.shape) for scale in scales]
    assert all(f is None or str(f) == "backend 'hashed' returned a non-unit vector" for f in faults)
    assert "".join("u" if f is None else "x" for f in faults) == verdicts


_key_token = st.one_of(
    st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=40),  # every key width, and wider
    st.text(alphabet=string.digits, min_size=1, max_size=30),
)
_key_separator = st.sampled_from([" ", "  ", ", ", "...", "-", "_", "\n", "\u2019", " caf\u00e9 ", "\u00df", "\u0130"])


@st.composite
def _key_batches(draw):
    """Batches over a small vocabulary, so tokens repeat within and across texts; some texts are
    empty, punctuation only, or non-ASCII."""
    vocabulary = draw(st.lists(_key_token, min_size=1, max_size=20))
    word = st.tuples(st.sampled_from(vocabulary), _key_separator).map("".join)
    text = st.one_of(st.lists(word, max_size=12).map("".join), st.sampled_from(["", " ", "...", "?!", "-_-"]))
    return draw(st.lists(text, max_size=10))


def _grown(seed, dimension):
    """A featurizer whose three key tables have each doubled at least three times (64 -> 512 slots)."""
    featurizer = HashedFeaturizer(dimension, seed)
    featurizer.bucket_ids([" ".join(f"{word}{i}" for i in range(150) for word in ("w", "wordword", "w" * 17))])
    return featurizer


# One warm, grown featurizer per setting, shared by every example of the key-table test.
_WARM = {setting: _grown(*setting) for setting in _SETTINGS}


def _tokens_and_counts(texts):
    return [token for text in texts for token in tokenize(text)], [len(tokenize(text)) for text in texts]


class TestKeyTable:
    @given(st.lists(_key_batches(), min_size=1, max_size=3), st.sampled_from(_SETTINGS))
    def test_bucket_ids_equal_stable_bucket_per_token(self, batches, setting):
        seed, dimension = setting
        cold = HashedFeaturizer(dimension, seed)
        assert all(table.buckets.size >= 512 for table in _WARM[setting]._tables)
        for texts in batches:
            tokens, counts = _tokens_and_counts(texts)
            for featurizer in (cold, _WARM[setting]):
                ids, got_counts = featurizer.bucket_ids(texts)
                assert got_counts.tolist() == counts
                assert ids.tolist() == [stable_bucket(token, seed, dimension) for token in tokens]

    @given(st.lists(st.text(max_size=40), max_size=12), st.sampled_from(_SETTINGS))
    def test_mixed_batch_matches_stable_bucket_per_token(self, texts, setting):
        seed, dimension = setting
        ids, counts = HashedFeaturizer(dimension, seed).bucket_ids(texts)
        tokens, expected = _tokens_and_counts(texts)
        assert counts.tolist() == expected
        assert ids.tolist() == [stable_bucket(token, seed, dimension) for token in tokens]

    def test_keys_that_share_a_home_slot_probe_past_it(self):
        # Every key hashed to slot 0: one cluster, longer than a probe window, through every doubling.
        featurizer = HashedFeaturizer(64, 1)
        for table in featurizer._tables:
            table._home = lambda keys: np.zeros(keys.shape[1], np.intp)
        vocabulary = [f"w{i}" for i in range(150)] + [f"wordsword{i}" for i in range(40)]
        for lo in (0, 3, 40, 100, 190):
            ids, _ = featurizer.bucket_ids([" ".join(vocabulary[:lo]), " ".join(reversed(vocabulary))])
            tokens = vocabulary[:lo] + vocabulary[::-1]
            assert ids.tolist() == [stable_bucket(token, 1, 64) for token in tokens]
        assert [table.used for table in featurizer._tables] == [150, 40, 0]

    @pytest.mark.parametrize("setting", _SETTINGS)
    def test_a_table_grown_through_doublings_keeps_every_bucket(self, setting):
        seed, dimension = setting
        featurizer = HashedFeaturizer(dimension, seed)
        words = ("k", "key", "keyword", "keywordsx", "keywords" * 2 + "x")
        vocabulary = [f"{word}{i}" for i in range(700) for word in words]
        first = [table.buckets.size for table in featurizer._tables]
        for lo in range(0, len(vocabulary), 500):  # inserts that grow the tables, batch after batch
            featurizer.bucket_ids([" ".join(vocabulary[lo : lo + 500])])
        assert all(table.buckets.size >= 8 * size for table, size in zip(featurizer._tables, first))
        assert all(2 * table.used <= table.buckets.size for table in featurizer._tables)
        ids, _ = featurizer.bucket_ids([" ".join(vocabulary), "KEY1 key1"])
        assert ids.tolist() == [stable_bucket(token, seed, dimension) for token in vocabulary + ["key1", "key1"]]


@given(
    st.integers(8, 4096),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.sampled_from([-1, 1]), st.booleans(), st.integers(-8, 8)), min_size=1, max_size=4),
)
def test_screened_verdicts_equal_the_exact_check(dimension, seed, offsets):
    """Rows scaled to 1 +- (tolerance +- k ulps), or to the screen's edge: the verdict is the
    exact check's, ``np.add.reduce(a * a)`` under a square root."""
    margin = 2 * (dimension + 2) * 2.0**-53
    bases = [1.0 + sign * (1e-9 - (margin if screen_edge else 0.0)) for sign, screen_edge, _ in offsets]
    scales = np.array([base + k * np.spacing(base) for base, (_, _, k) in zip(bases, offsets)])
    array = _dense_unit(seed, (len(offsets), dimension)) * scales[:, None]
    exact = np.all(np.abs(np.sqrt(np.add.reduce(array * array, axis=-1)) - 1.0) <= 1e-9)
    fault = _fault(_EDGE_BACKEND, array, array.shape)
    assert (fault is None) == exact
    if fault is not None:
        assert str(fault) == "backend 'hashed' returned a non-unit vector"


class TestCosineDistance:
    def test_matrix_gives_the_per_row_distances(self, backend):
        signal = _row(backend, "alpha bravo charlie")
        matrix = backend.encode_batch(["alpha", "bravo delta", "echo", "alpha bravo charlie"])
        assert cosine_distance(signal, matrix) == [cosine_distance(signal, row.copy()) for row in matrix]

    def test_matrix_clamps_each_row_and_keeps_nan(self):
        rows = np.array([[2.0, 0.0], [-3.0, 0.0], [0.5, 0.0], [np.nan, 0.0]])
        distances = cosine_distance(np.array([1.0, 0.0]), rows)
        assert distances[:3] == [0.0, 2.0, 0.5]
        assert np.isnan(distances[3])

    def test_a_vector_keeps_nan_as_a_matrix_row_does(self):
        assert np.isnan(cosine_distance(np.array([1.0, 0.0]), np.array([np.nan, 0.0])))

    def test_matrix_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_distance(np.ones(3), np.ones((2, 4)))

    def test_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        v /= np.linalg.norm(v)
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_antipodal(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_distance(np.ones(3), np.ones(4))

    def test_symmetry(self, backend):
        a = _row(backend, "first text sample")
        b = _row(backend, "second text sample")
        assert cosine_distance(a, b) == cosine_distance(b, a)


_raw_vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=3, max_size=3
).filter(lambda v: any(abs(x) > 1e-6 for x in v))


@given(_raw_vectors, _raw_vectors, st.floats(min_value=0.01, max_value=100),
       st.floats(min_value=0.01, max_value=100))
def test_scale_invariance_after_normalization(u, v, alpha, beta):
    u = np.array(u)
    v = np.array(v)
    base = cosine_distance(u / np.linalg.norm(u), v / np.linalg.norm(v))
    scaled = cosine_distance(alpha * u / np.linalg.norm(alpha * u), beta * v / np.linalg.norm(beta * v))
    assert scaled == pytest.approx(base, abs=1e-9)


def test_pinned_reference_vectors():
    payload = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    assert payload["format"] == "encoder-pins.v1"
    for pin in payload["pins"]:
        vector = reference_encode(pin["text"], dimension=pin["dimension"], seed=pin["seed"])
        np.testing.assert_allclose(vector[:8], np.array(pin["first8"]), atol=1e-12)
