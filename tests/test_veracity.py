import json
import logging
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimcheck.corpus import VeracityLabel
from claimcheck.encode import HashedFeaturizer, stable_bucket
from claimcheck.errors import ConfigError
from claimcheck.veracity import (
    NO_EVIDENCE,
    SEPARATOR,
    EvalReport,
    HashedLinearClassifier,
    LabeledText,
    TrainConfig,
    evaluate,
    featurize_concat,
    featurize_content,
    label_accuracy,
    predict_texts,
    score_predictions,
    split_dataset,
    train,
)
from oracles import hashed_bag_by_loop, predict_one_text, train_by_refeaturizing


class TestFeaturizeContent:
    def test_short_body_kept_whole(self):
        body = " ".join(f"w{i}" for i in range(300))
        assert featurize_content(body) == body

    def test_long_body_truncated_to_500_words(self):
        words = [f"w{i}" for i in range(900)]
        out = featurize_content(" ".join(words))
        assert out.split() == words[:500]

    def test_n_one(self):
        assert featurize_content("first second third", 1) == "first"

    def test_empty_body(self):
        with pytest.raises(ValueError):
            featurize_content("   ")

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            featurize_content("text", 0)


class TestFeaturizeConcat:
    def test_separator_form(self):
        assert featurize_concat("a", "b") == f"a {SEPARATOR} b"

    def test_empty_evidence_marker(self):
        assert featurize_concat("a", "") == f"a {SEPARATOR} {NO_EVIDENCE}"
        assert featurize_concat("a", "   ") == f"a {SEPARATOR} {NO_EVIDENCE}"

    def test_deterministic(self):
        assert featurize_concat("claim text", "evidence text") == featurize_concat(
            "claim text", "evidence text"
        )

    def test_empty_claim(self):
        with pytest.raises(ValueError):
            featurize_concat("  ", "evidence")


class TestSplitDataset:
    @pytest.mark.parametrize("n,expected", [(100, (80, 10, 10)), (101, (81, 10, 10)), (1000, (800, 100, 100))])
    def test_exact_sizes(self, n, expected):
        parts = split_dataset(list(range(n)), TrainConfig(seed=3))
        assert tuple(len(p) for p in parts) == expected

    def test_disjoint_and_exhaustive(self):
        items = list(range(137))
        train_part, val_part, test_part = split_dataset(items, TrainConfig(seed=5))
        combined = train_part + val_part + test_part
        assert sorted(combined) == items
        assert len(set(combined)) == len(items)

    def test_seed_reproducible(self):
        items = list(range(64))
        first = split_dataset(items, TrainConfig(seed=9))
        second = split_dataset(items, TrainConfig(seed=9))
        assert first == second
        different = split_dataset(items, TrainConfig(seed=10))
        assert first != different

    def test_too_few_items(self):
        with pytest.raises(ValueError, match="at least 10"):
            split_dataset(list(range(9)), TrainConfig())

    def test_custom_ratios(self):
        parts = split_dataset(list(range(50)), TrainConfig(split=(0.6, 0.2, 0.2)))
        assert tuple(len(p) for p in parts) == (30, 10, 10)


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TrainConfig(split=(0.5, 0.2, 0.2))

    def test_learning_rate_positive(self):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(learning_rate=0.0)


# Four marker tokens, one per class; the test asserts they land in distinct
# hash buckets before relying on separability.
_MARKERS = {
    VeracityLabel.FALSE: "debunked",
    VeracityLabel.PARTIAL_TRUE: "overstated",
    VeracityLabel.TRUE: "confirmed",
    VeracityLabel.NEI: "unresolved",
}


def _separable_set(n_per_class=6):
    examples = []
    for label, marker in _MARKERS.items():
        for i in range(n_per_class):
            examples.append(LabeledText(f"{marker} {marker} item {i}", label))
    return examples


class TestTraining:
    def test_markers_hash_to_distinct_buckets(self):
        buckets = {stable_bucket(m, 0, 256) for m in _MARKERS.values()}
        assert len(buckets) == 4

    def test_separable_set_reaches_full_training_accuracy(self):
        backend = HashedLinearClassifier(dimension=256, seed=0, learning_rate=1.0)
        examples = _separable_set()
        result = train(backend, examples, examples, TrainConfig(epochs=3, seed=0))
        assert label_accuracy(backend, examples) == 1.0
        assert result.best_val_label_accuracy == 1.0
        assert len(result.log) == 3

    def test_same_seed_same_final_loss(self):
        examples = _separable_set()
        losses = []
        for _ in range(2):
            backend = HashedLinearClassifier(dimension=256, seed=0, learning_rate=1.0)
            result = train(backend, examples, examples, TrainConfig(epochs=3, seed=0))
            losses.append(result.log[-1].train_loss)
        assert losses[0] == losses[1]

    def test_loss_non_increasing_with_small_step_full_batch(self):
        examples = _separable_set()
        backend, oracle = (
            HashedLinearClassifier(dimension=256, seed=0, learning_rate=0.05, batch_size=len(examples)) for _ in range(2)
        )
        losses = [stats.train_loss for stats in train(backend, examples, examples, TrainConfig(epochs=6)).log]
        assert all(a >= b for a, b in zip(losses, losses[1:]))
        assert losses == [loss for loss, _ in train_by_refeaturizing(oracle, examples, examples, 6)[0]]

    def test_single_class_warns_but_trains(self, caplog):
        examples = [LabeledText(f"text {i}", VeracityLabel.TRUE) for i in range(8)]
        backend = HashedLinearClassifier(dimension=256, seed=0)
        with caplog.at_level(logging.WARNING):
            train(backend, examples, examples, TrainConfig(epochs=1))
        assert "single class" in caplog.text

    def test_best_validation_epoch_snapshot_restored(self):
        backend = HashedLinearClassifier(dimension=256, seed=0, learning_rate=1.0)
        examples = _separable_set()
        result = train(backend, examples, examples, TrainConfig(epochs=3, seed=0))
        np.testing.assert_array_equal(backend.weights, result.params["weights"])

    def test_empty_sets_rejected(self):
        backend = HashedLinearClassifier(dimension=256)
        examples = _separable_set()
        with pytest.raises(ValueError):
            train(backend, [], examples, TrainConfig())
        with pytest.raises(ValueError):
            train(backend, examples, [], TrainConfig())


class TestReferenceClassifier:
    def test_zero_parameters_give_uniform_prediction(self):
        backend = HashedLinearClassifier(dimension=64, seed=0)
        probs = backend.predict_proba(backend.featurize(["whatever text appears here"]))[0]
        np.testing.assert_allclose(probs, [0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_probabilities_sum_to_one_on_random_inputs(self):
        rng = random.Random(8)
        np_rng = np.random.default_rng(8)
        backend = HashedLinearClassifier(dimension=64, seed=0)
        backend.weights = np_rng.normal(size=backend.weights.shape)
        backend.bias = np_rng.normal(size=backend.bias.shape)
        for _ in range(100):
            text = " ".join(f"w{rng.randrange(40)}" for _ in range(rng.randint(1, 30)))
            probs = backend.predict_proba(backend.featurize([text]))[0]
            assert abs(float(probs.sum()) - 1.0) <= 1e-6
            assert np.all(probs >= 0)

    def test_gradient_matches_central_finite_differences(self):
        np_rng = np.random.default_rng(123)
        rng = random.Random(123)
        for _ in range(20):
            backend = HashedLinearClassifier(dimension=16, seed=0)
            backend.weights = np_rng.normal(scale=0.5, size=backend.weights.shape)
            backend.bias = np_rng.normal(scale=0.5, size=backend.bias.shape)
            texts = [
                " ".join(f"w{rng.randrange(12)}" for _ in range(rng.randint(2, 10)))
                for _ in range(5)
            ]
            features = np.stack([backend.features(t) for t in texts])
            labels = np.array([rng.randrange(4) for _ in range(5)], dtype=np.intp)
            _, grad_w, grad_b = backend.batch_loss_and_grad(features, labels)

            h = 1e-5
            for _ in range(3):  # spot-check a few coordinates per draw
                i = rng.randrange(4)
                j = rng.randrange(16)
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

    @pytest.mark.parametrize("seed,dimension", [(0, 1024), (5, 32)])
    def test_features_are_bit_identical_to_the_hashing_loop(self, seed, dimension):
        backend = HashedLinearClassifier(dimension=dimension, seed=seed)
        texts = ["claim text [SEP] [NO_EVIDENCE]", "Evidence: 42 units, 42 again.", "", "..."]
        for text in texts + texts:  # the second round reads a warm token table
            assert np.array_equal(backend.features(text), hashed_bag_by_loop(text, dimension, seed))

    def test_snapshot_roundtrip(self, tmp_path):
        backend = HashedLinearClassifier(dimension=64, seed=3, learning_rate=0.5)
        examples = _separable_set(3)
        train(backend, examples, examples, TrainConfig(epochs=2, seed=1))
        path = tmp_path / "model.json"
        backend.save(path)
        loaded = HashedLinearClassifier.load(path)
        text = "confirmed item"
        np.testing.assert_allclose(
            loaded.predict_proba(loaded.featurize([text])), backend.predict_proba(backend.featurize([text]))
        )

    def test_snapshot_format_guard(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "other"}', encoding="utf-8")
        with pytest.raises(ConfigError, match="format"):
            HashedLinearClassifier.load(path)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            HashedLinearClassifier(dimension=4)
        with pytest.raises(ValueError):
            HashedLinearClassifier(learning_rate=-1)
        with pytest.raises(ValueError):
            HashedLinearClassifier(batch_size=0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_is_rejected(self, rate):
        with pytest.raises(ValueError, match="learning rate must be positive and finite"):
            HashedLinearClassifier(learning_rate=rate)

    def test_snapshot_with_a_nan_learning_rate_is_an_error(self, tmp_path):
        path = tmp_path / "model.json"
        HashedLinearClassifier(dimension=8).save(path)
        path.write_text(path.read_text(encoding="utf-8").replace('"learning_rate": 1.0', '"learning_rate": NaN'))
        with pytest.raises(ConfigError, match="positive and finite, got nan"):
            HashedLinearClassifier.load(path)

    @pytest.mark.parametrize(
        "field,value,kind",
        [("batch_size", 8.5, "float"), ("batch_size", True, "bool"), ("batch_size", None, "NoneType"),
         ("dimension", 8.9, "float"), ("seed", "7", "str")],
    )
    def test_snapshot_field_of_the_wrong_type_is_an_error(self, tmp_path, field, value, kind):
        path = tmp_path / "model.json"
        HashedLinearClassifier(dimension=8).save(path)
        path.write_text(json.dumps(dict(json.loads(path.read_text(encoding="utf-8")), **{field: value})))
        with pytest.raises(ConfigError, match=re.escape(f"snapshot {path} is malformed: ") + f".*'{field}': expected int, got {kind}"):
            HashedLinearClassifier.load(path)

    @pytest.mark.parametrize(
        "field,value",
        [("weights", [["1"] * 8, [True] * 8, [0.0] * 8, [0.0] * 8]), ("bias", ["0.5", False, 1, 2]),
         ("bias", [0.5, None, 1, 2]), ("weights", [[0.0] * 8] * 3 + [[0.0] * 7 + [[0.0]]]),
         ("bias", [10**400, 0, 0, 0])],
    )
    def test_snapshot_parameter_that_is_not_a_float_is_an_error(self, tmp_path, field, value):
        path = tmp_path / "model.json"
        HashedLinearClassifier(dimension=8).save(path)
        path.write_text(json.dumps(dict(json.loads(path.read_text(encoding="utf-8")), **{field: value})))
        with pytest.raises(ConfigError, match=re.escape(f"snapshot {path} is malformed: ")):
            HashedLinearClassifier.load(path)

    def test_snapshot_parameters_of_ints_and_floats_load(self, tmp_path):
        path = tmp_path / "model.json"
        HashedLinearClassifier(dimension=8).save(path)
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(dict(snapshot, weights=[[1, 0.5] * 4] * 4, bias=[0, 1, -2.5, 3])))
        model = HashedLinearClassifier.load(path)
        assert model.weights.tolist() == [[1.0, 0.5] * 4] * 4 and model.bias.tolist() == [0.0, 1.0, -2.5, 3.0]


class TestScorePredictions:
    def test_perfect_predictions(self):
        gold = [0, 1, 2, 3]
        report = score_predictions(gold, gold)
        assert report.label_accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert report.missing_classes == ()

    def test_hand_computed_example(self):
        report = score_predictions([0, 0, 1, 2, 3], [0, 1, 1, 2, 3])
        assert report.label_accuracy == pytest.approx(0.8, abs=1e-9)
        assert report.macro_f1 == pytest.approx((2 / 3 + 2 / 3 + 1 + 1) / 4, abs=1e-9)

    def test_constant_predictor_on_balanced_set(self):
        gold = [0, 1, 2, 3] * 10
        report = score_predictions(gold, [2] * 40)
        assert report.label_accuracy == pytest.approx(0.25)

    def test_permutation_invariance(self):
        rng = random.Random(55)
        gold = [rng.randrange(4) for _ in range(60)]
        pred = [rng.randrange(4) for _ in range(60)]
        base = score_predictions(gold, pred)
        order = list(range(60))
        rng.shuffle(order)
        permuted = score_predictions([gold[i] for i in order], [pred[i] for i in order])
        assert permuted.label_accuracy == base.label_accuracy
        assert permuted.macro_f1 == base.macro_f1
        np.testing.assert_array_equal(permuted.confusion, base.confusion)

    def test_confusion_matrix_recomputation_identity(self):
        rng = random.Random(321)
        for _ in range(100):
            n = rng.randint(1, 40)
            gold = [rng.randrange(4) for _ in range(n)]
            pred = [rng.randrange(4) for _ in range(n)]
            report = score_predictions(gold, pred)
            confusion = report.confusion
            assert confusion.sum() == n
            # Row sums equal gold counts; trace over total equals LA.
            for c in range(4):
                assert confusion[c, :].sum() == gold.count(c)
            assert report.label_accuracy == pytest.approx(
                float(np.trace(confusion)) / n, abs=1e-9
            )
            # Per-class metrics recomputed from the matrix match the report.
            f1s = []
            for c in range(4):
                tp = confusion[c, c]
                precision = tp / confusion[:, c].sum() if confusion[:, c].sum() else 0.0
                recall = tp / confusion[c, :].sum() if confusion[c, :].sum() else 0.0
                f1 = (
                    2 * precision * recall / (precision + recall)
                    if precision + recall
                    else 0.0
                )
                f1s.append(f1)
                assert report.per_class[c].precision == pytest.approx(precision, abs=1e-9)
                assert report.per_class[c].recall == pytest.approx(recall, abs=1e-9)
                assert report.per_class[c].f1 == pytest.approx(f1, abs=1e-9)
            assert report.macro_f1 == pytest.approx(sum(f1s) / 4, abs=1e-9)

    def test_absent_class_is_flagged(self):
        report = score_predictions([0, 1, 1], [0, 1, 0])
        assert VeracityLabel.TRUE in report.missing_classes
        assert VeracityLabel.NEI in report.missing_classes

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            score_predictions([0], [0, 1])

    def test_empty(self):
        with pytest.raises(ValueError):
            score_predictions([], [])


class TestEvaluate:
    def test_trained_backend_scores_perfectly_on_separable_set(self):
        backend = HashedLinearClassifier(dimension=256, seed=0, learning_rate=1.0)
        examples = _separable_set()
        train(backend, examples, examples, TrainConfig(epochs=3, seed=0))
        report = evaluate(backend, examples)
        assert isinstance(report, EvalReport)
        assert report.label_accuracy == 1.0
        assert report.macro_f1 == 1.0

    def test_empty_test_set(self):
        with pytest.raises(ValueError):
            evaluate(HashedLinearClassifier(dimension=64), [])


def _random_texts(rng, n):
    return [" ".join(f"w{rng.randrange(300)}" for _ in range(rng.randint(0, 25))) for _ in range(n)]


def _random_examples(rng, n):
    return [LabeledText(text, VeracityLabel(rng.randrange(4))) for text in _random_texts(rng, n)]


class TestMatrixContract:
    """Batched featurizing and prediction against one-text-at-a-time oracles."""

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 200])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 50.0))
    def test_predict_proba_rows_equal_the_one_text_path(self, n, seed, scale):
        rng = random.Random(seed)
        np_rng = np.random.default_rng(seed)
        backend = HashedLinearClassifier(dimension=64, seed=seed % 7)
        backend.weights = np_rng.normal(scale=scale, size=backend.weights.shape)
        backend.bias = np_rng.normal(scale=scale, size=backend.bias.shape)
        texts = _random_texts(rng, n)
        features = backend.featurize(texts)
        probabilities = backend.predict_proba(features)
        assert features.shape == (n, 64) and probabilities.shape == (n, 4)
        for text, row, probs in zip(texts, features, probabilities):
            assert np.array_equal(row, backend.features(text))
            assert np.array_equal(row, hashed_bag_by_loop(text, 64, seed % 7))
            assert np.array_equal(probs, predict_one_text(backend, text))
        assert np.array_equal(predict_texts(backend, texts), probabilities)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_scoring_passes_match_the_one_text_path(self, n):
        rng = random.Random(n)
        backend = HashedLinearClassifier(dimension=32, seed=1)
        backend.weights = np.random.default_rng(n).normal(size=backend.weights.shape)
        examples = _random_examples(rng, n)
        predicted = [int(np.argmax(predict_one_text(backend, ex.text))) for ex in examples]
        hits = sum(p == int(ex.label) for p, ex in zip(predicted, examples))
        assert label_accuracy(backend, examples) == hits / n
        expected = score_predictions([ex.label for ex in examples], predicted)
        assert np.array_equal(evaluate(backend, examples).confusion, expected.confusion)

    @pytest.mark.parametrize("batch_size", [1, 3, 8, 64, 300])  # 300: one full-batch step per epoch
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_train=st.integers(1, 300), n_val=st.integers(1, 70))
    @example(seed=0, n_train=203, n_val=70)  # three whole chunks, then a partial one ending on a partial minibatch
    def test_train_equals_refeaturizing_every_epoch(self, batch_size, seed, n_train, n_val):
        rng = random.Random(seed)
        train_set, val_set = _random_examples(rng, n_train), _random_examples(rng, n_val)
        config = TrainConfig(epochs=3, seed=0)
        backend = HashedLinearClassifier(dimension=64, seed=2, batch_size=batch_size)
        result = train(backend, train_set, val_set, config)
        oracle = HashedLinearClassifier(dimension=64, seed=2, batch_size=batch_size)
        log, params = train_by_refeaturizing(oracle, train_set, val_set, config.epochs)
        assert [(stats.train_loss, stats.val_label_accuracy) for stats in result.log] == log
        assert np.array_equal(result.params["weights"], params["weights"])
        assert np.array_equal(result.params["bias"], params["bias"])

    def test_train_featurizes_each_set_once(self, monkeypatch):
        # Every text is tokenized and hashed once over all epochs, training texts first.
        calls = []
        real = HashedFeaturizer.bucket_ids
        monkeypatch.setattr(HashedFeaturizer, "bucket_ids", lambda self, texts: calls.append(list(texts)) or real(self, texts))
        rng = random.Random(4)
        train_set, val_set = _random_examples(rng, 200), _random_examples(rng, 90)
        train(HashedLinearClassifier(dimension=64), train_set, val_set, TrainConfig(epochs=3))
        assert [text for texts in calls for text in texts] == [ex.text for ex in train_set + val_set]

    def test_training_and_scoring_read_the_hashed_once_rows(self, monkeypatch):
        # ``featurize`` builds a whole matrix at once; no training or scoring path may call it.
        monkeypatch.setattr(HashedLinearClassifier, "featurize", None)
        examples = _random_examples(random.Random(6), 70)
        backend = HashedLinearClassifier(dimension=32)
        train(backend, examples, examples, TrainConfig(epochs=1))
        assert label_accuracy(backend, examples) == evaluate(backend, examples).label_accuracy

    def test_train_holds_sparse_cells_and_one_chunk_of_rows(self):
        rng = random.Random(5)
        train_set, val_set = _random_examples(rng, 3000), _random_examples(rng, 300)
        backend = HashedLinearClassifier(dimension=1024, seed=0, batch_size=8)
        dense_bytes = len(train_set) * backend.dimension * 8  # the float64 training matrix, 24.6 MB
        tracemalloc.start()
        try:
            train(backend, train_set, val_set, TrainConfig(epochs=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4
