"""4-way veracity classification: features, splits, training, and metrics.

Two feature routes exist. The content route sees only the leading words of
the article body; the claim+evidence route sees the selected claim sentences
and the retrieved evidence text joined by a separator marker. The shipped
classifier is a linear softmax over hashed bag-of-tokens features with
analytically computed gradients, so training is fast, deterministic, and
checkable against finite differences.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import jsonio
from .corpus import VeracityLabel
from .encode import HashedFeaturizer
from .errors import ConfigError

logger = logging.getLogger(__name__)

SEPARATOR = "[SEP]"
NO_EVIDENCE = "[NO_EVIDENCE]"

NUM_CLASSES = 4
CLASS_ORDER = ("false", "partial_true", "true", "nei")
SNAPSHOT_FORMAT = "classifier-snapshot.v1"

DEFAULT_CONTENT_WORDS = 500

# Rows hashed, and densified, at once: bounds the token lists behind each
# hashing step and the feature rows held while scoring or training.
CHUNK_ROWS = 64


def featurize_content(article_body: str, n: int = DEFAULT_CONTENT_WORDS) -> str:
    """First ``min(n, available)`` whitespace words of the body."""
    if not article_body or not article_body.strip():
        raise ValueError("cannot featurize an empty body")
    if n < 1:
        raise ValueError(f"word budget must be positive, got {n}")
    return " ".join(article_body.split()[:n])


def featurize_concat(claim: str, evidence: str) -> str:
    """Join claim and evidence text with the separator marker.

    Empty evidence becomes the reserved no-evidence marker so the model can
    condition on "nothing was found" explicitly.
    """
    if not claim or not claim.strip():
        raise ValueError("cannot featurize an empty claim")
    evidence_part = evidence.strip() if evidence else ""
    return f"{claim} {SEPARATOR} {evidence_part or NO_EVIDENCE}"


@dataclass(frozen=True)
class LabeledText:
    text: str
    label: VeracityLabel


def _check_learning_rate(value: float) -> None:
    if not 0 < value < math.inf:  # also rejects NaN
        raise ValueError(f"learning rate must be positive and finite, got {value}")


@dataclass(frozen=True)
class ClassifierSettings:
    dimension: int = 1024
    seed: int = 0
    learning_rate: float = 1.0
    batch_size: int = 8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 3
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0
    learning_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if len(self.split) != 3 or not all(r >= 0 for r in self.split):  # also rejects NaN
            raise ValueError(f"split must be three non-negative ratios, got {self.split}")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ValueError(f"split ratios must sum to 1, got {self.split}")
        _check_learning_rate(self.learning_rate)


def split_dataset(items: Sequence, config: TrainConfig) -> tuple[list, list, list]:
    """Seeded shuffle then train/validation/test partition.

    Validation and test get ``floor(ratio * N)`` items each; the remainder
    goes to train. Partitions are disjoint and cover the input.
    """
    n = len(items)
    if n < 10:
        raise ValueError(f"need at least 10 items to split, got {n}")
    order = list(range(n))
    random.Random(config.seed).shuffle(order)
    n_val = math.floor(config.split[1] * n)
    n_test = math.floor(config.split[2] * n)
    n_train = n - n_val - n_test
    train = [items[i] for i in order[:n_train]]
    val = [items[i] for i in order[n_train : n_train + n_val]]
    test = [items[i] for i in order[n_train + n_val :]]
    return train, val, test


class HashedLinearClassifier:
    """Linear softmax over hashed bag-of-tokens features.

    Parameters start at zero, which makes the untrained prediction exactly
    uniform. Training is minibatch gradient descent on the mean
    cross-entropy, with batches taken in input order (no shuffling), so a
    run is fully determined by the data order and the hyperparameters.
    """

    name = "hashed_linear"

    def __init__(
        self,
        dimension: int = 1024,
        seed: int = 0,
        learning_rate: float = 1.0,
        batch_size: int = 8,
    ):
        if dimension < 8:
            raise ValueError(f"feature dimension must be >= 8, got {dimension}")
        _check_learning_rate(learning_rate)
        if batch_size < 1:
            raise ValueError(f"batch size must be positive, got {batch_size}")
        self.dimension = int(dimension)
        self.seed = int(seed)
        self.learning_rate = float(learning_rate)
        self.batch_size = batch_size
        self.weights = np.zeros((NUM_CLASSES, self.dimension), dtype=np.float64)
        self.bias = np.zeros(NUM_CLASSES, dtype=np.float64)
        self._featurizer = HashedFeaturizer(self.dimension, self.seed)

    def featurize(self, texts: Sequence[str]) -> np.ndarray:
        """``(len(texts), d)`` feature matrix; row ``i`` depends on ``texts[i]`` only."""
        return self._featurizer.unit_rows(*self._featurizer.bucket_ids(texts))

    def features(self, text: str) -> np.ndarray:
        """Feature row of one text."""
        return self.featurize([text])[0]

    def predict_proba(self, features: np.ndarray | _Rows) -> np.ndarray:
        """``(n, 4)`` class probabilities of ``n`` feature rows."""
        # One gemv per row: a single ``features @ weights.T`` gemm rounds
        # differently and would change the probabilities written to records.
        logits = np.array([self.weights @ row for row in features]).reshape(-1, NUM_CLASSES) + self.bias
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=1, keepdims=True)

    def batch_loss_and_grad(
        self, features: np.ndarray, labels: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Mean cross-entropy and its gradients w.r.t. weights and bias."""
        n = features.shape[0]
        logits = features @ self.weights.T + self.bias
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        probs = exp / exp.sum(axis=1, keepdims=True)
        loss = float(-np.mean(np.log(probs[np.arange(n), labels])))
        delta = probs
        delta[np.arange(n), labels] -= 1.0
        delta /= n
        return loss, delta.T @ features, delta.sum(axis=0)

    def train_epoch(self, features: np.ndarray | _Rows, labels: np.ndarray) -> float:
        """One pass over the rows, taken as slices of ``features``; returns the example-weighted
        mean of the per-batch losses, each measured before that batch's update."""
        n = len(features)
        if not n:
            raise ValueError("cannot train on an empty batch")
        step = self.batch_size
        total_loss = 0.0
        for start in range(0, n, step):
            batch = slice(start, start + step)
            loss, grad_w, grad_b = self.batch_loss_and_grad(features[batch], labels[batch])
            self.weights -= self.learning_rate * grad_w
            self.bias -= self.learning_rate * grad_b
            total_loss += loss * (min(start + step, n) - start)
        return total_loss / n

    def get_params(self) -> dict:
        return {"weights": self.weights.copy(), "bias": self.bias.copy()}

    def set_params(self, params: dict) -> None:
        weights = np.asarray(params["weights"], dtype=np.float64)
        bias = np.asarray(params["bias"], dtype=np.float64)
        if weights.shape != self.weights.shape or bias.shape != self.bias.shape:
            raise ValueError("parameter snapshot shape mismatch")
        self.weights = weights.copy()
        self.bias = bias.copy()

    def save(self, path: str | Path) -> None:
        snapshot = {
            "format": SNAPSHOT_FORMAT,
            "name": self.name,
            "dimension": self.dimension,
            "seed": self.seed,
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "class_order": list(CLASS_ORDER),
            "weights": self.weights.tolist(),
            "bias": self.bias.tolist(),
        }
        jsonio.replace_text(path, json.dumps(snapshot, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "HashedLinearClassifier":
        try:
            snapshot = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load classifier snapshot {path}: {exc}") from exc
        if not isinstance(snapshot, dict) or snapshot.get("format") != SNAPSHOT_FORMAT:
            raise ConfigError(f"snapshot {path} is not in {SNAPSHOT_FORMAT!r} format")
        try:
            if tuple(snapshot.get("class_order", ())) != CLASS_ORDER:
                raise ConfigError(f"snapshot {path} has an unexpected class order")
            # Older snapshots lack the training fields, which then take their defaults.
            settings = {key: snapshot[key] for key in ("dimension", "seed")}
            settings.update((key, snapshot[key]) for key in ("learning_rate", "batch_size") if key in snapshot)
            model = cls(**vars(jsonio.CODEC.decode(ClassifierSettings, settings, "classifier")))
            params = {key: np.asarray(snapshot[key], dtype=object) for key in ("weights", "bias")}
            for key, entries in params.items():  # ``np.asarray`` would read "1", true and null as numbers
                if not set(map(type, entries.ravel())) <= {int, float}:
                    raise ValueError(f"{key!r} holds an entry that is not a JSON number")
            model.set_params(params)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"snapshot {path} is malformed: {type(exc).__name__}: {exc}") from None
        return model


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_label_accuracy: float


@dataclass(frozen=True)
class TrainResult:
    log: tuple[EpochStats, ...]
    best_epoch: int
    best_val_label_accuracy: float
    params: dict


def predict_texts(backend: HashedLinearClassifier, texts: Sequence[str]) -> np.ndarray:
    """``(len(texts), 4)`` probabilities, read from the hashed-once rows of ``texts``."""
    return backend.predict_proba(_Rows(backend._featurizer, texts))


def _labels(examples: Sequence[LabeledText]) -> np.ndarray:
    return np.array([int(ex.label) for ex in examples], dtype=np.intp)


def _hit_rate(probabilities: np.ndarray, labels: np.ndarray) -> float:
    return int(np.count_nonzero(probabilities.argmax(axis=1) == labels)) / len(labels)


def label_accuracy(backend: HashedLinearClassifier, examples: Sequence[LabeledText]) -> float:
    """Fraction of examples whose argmax prediction matches the gold label."""
    if not examples:
        raise ValueError("cannot score an empty example set")
    return _hit_rate(predict_texts(backend, [ex.text for ex in examples]), _labels(examples))


class _Rows:
    """The feature rows of a text list, hashed once and kept as each chunk's nonzero cells;
    a chunk is densified, by a scatter, when a slice within it is taken."""

    def __init__(self, featurizer: HashedFeaturizer, texts: Sequence[str], chunk: int = CHUNK_ROWS):
        self._len, self._chunk, self._at, self._cells = len(texts), chunk, -1, []
        for start in range(0, len(texts), chunk):
            ids, counts = featurizer.bucket_ids(texts[start : start + chunk])
            self._cells.append(((len(counts), featurizer.dimension), *featurizer.unit_cells(ids, counts)))

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, rows: slice) -> np.ndarray:
        at, start = divmod(rows.start, self._chunk)
        if at != self._at:
            shape, cells, values = self._cells[at]
            self._at, self._rows = at, np.zeros(shape)
            self._rows.ravel()[cells] = values
        return self._rows[start : start + rows.stop - rows.start]

    def __iter__(self):
        for start in range(0, self._len, self._chunk):
            yield from self[start : start + self._chunk]


def train(
    backend: HashedLinearClassifier,
    train_set: Sequence[LabeledText],
    validation_set: Sequence[LabeledText],
    config: TrainConfig,
) -> TrainResult:
    """Run exactly ``config.epochs`` epochs; keep the best-validation snapshot.

    Both sets are hashed once, before the first epoch. An epoch densifies one
    chunk of whole minibatches at a time: ``CHUNK_ROWS`` rounded up to a
    multiple of the batch size, since splitting a minibatch would change its
    gemm. The backend is left holding the snapshot with the highest
    validation label accuracy (earliest epoch wins ties).
    """
    if not train_set:
        raise ValueError("training set is empty")
    if not validation_set:
        raise ValueError("validation set is empty")
    classes = {ex.label for ex in train_set}
    if len(classes) == 1:
        logger.warning("training set contains a single class (%s)", next(iter(classes)).name)

    chunk = -(-CHUNK_ROWS // (step := backend.batch_size)) * step
    train_features, train_labels = _Rows(backend._featurizer, [ex.text for ex in train_set], chunk), _labels(train_set)
    val_features, val_labels = _Rows(backend._featurizer, [ex.text for ex in validation_set]), _labels(validation_set)
    log: list[EpochStats] = []
    best_params: dict | None = None
    best_epoch = 0
    best_la = -1.0
    for epoch in range(1, config.epochs + 1):
        loss = backend.train_epoch(train_features, train_labels)
        val_la = _hit_rate(backend.predict_proba(val_features), val_labels)
        log.append(EpochStats(epoch=epoch, train_loss=loss, val_label_accuracy=val_la))
        if val_la > best_la:
            best_la = val_la
            best_epoch = epoch
            best_params = backend.get_params()
    assert best_params is not None
    backend.set_params(best_params)
    return TrainResult(
        log=tuple(log),
        best_epoch=best_epoch,
        best_val_label_accuracy=best_la,
        params=best_params,
    )


@dataclass(frozen=True)
class ClassMetrics:
    label: VeracityLabel
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    label_accuracy: float
    macro_f1: float
    per_class: tuple[ClassMetrics, ...]
    confusion: np.ndarray  # rows gold, columns predicted
    missing_classes: tuple[VeracityLabel, ...]  # absent from both gold and predictions


def score_predictions(
    gold: Sequence[VeracityLabel | int], predicted: Sequence[VeracityLabel | int]
) -> EvalReport:
    """Confusion matrix, label accuracy, and macro F1 from label vectors.

    Macro F1 is the unweighted mean over all four classes; a class absent
    from both gold and predictions contributes 0 and is flagged.
    """
    if len(gold) != len(predicted):
        raise ValueError("gold and predicted label vectors differ in length")
    if not gold:
        raise ValueError("cannot evaluate an empty test set")
    confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for g, p in zip(gold, predicted):
        confusion[int(g), int(p)] += 1

    total = int(confusion.sum())
    per_class = []
    missing = []
    for c in range(NUM_CLASSES):
        tp = int(confusion[c, c])
        gold_count = int(confusion[c, :].sum())
        pred_count = int(confusion[:, c].sum())
        precision = tp / pred_count if pred_count else 0.0
        recall = tp / gold_count if gold_count else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(
            ClassMetrics(
                label=VeracityLabel(c),
                precision=precision,
                recall=recall,
                f1=f1,
                support=gold_count,
            )
        )
        if gold_count == 0 and pred_count == 0:
            missing.append(VeracityLabel(c))
    return EvalReport(
        label_accuracy=float(np.trace(confusion)) / total,
        macro_f1=sum(m.f1 for m in per_class) / NUM_CLASSES,
        per_class=tuple(per_class),
        confusion=confusion,
        missing_classes=tuple(missing),
    )


def evaluate(backend: HashedLinearClassifier, test_set: Sequence[LabeledText]) -> EvalReport:
    """Score a backend's argmax predictions on a labeled test set."""
    if not test_set:
        raise ValueError("cannot evaluate on an empty test set")
    gold = [ex.label for ex in test_set]
    predicted = predict_texts(backend, [ex.text for ex in test_set]).argmax(axis=1).tolist()
    return score_predictions(gold, predicted)
