"""The batch loss and the end-to-end SGD training loop.

Per sample, the feature reconstruction loss sums squared errors over all
predicted steps and the classification loss sums cross-entropy over all
predicted steps; the batch averages sample losses. `total_loss` builds
the whole batch loss as one tape node, whose value and gradient equal
those of the chain of single ops bit for bit.
Runs are bit-for-bit reproducible from (config, dataset, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AnticipationModel
from .prediction import Rollout
from .tensor import ShapeError, _make, _send, sgd_step


class TrainingDiverged(RuntimeError):
    """Raised when a batch loss goes non-finite; names epoch and batch."""


@dataclass
class TrainConfig:
    lr: float = 0.001
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 10
    lam: float = 1.0  # weight on the feature reconstruction term
    seed: int = 0

    def __post_init__(self):
        # lr = 0 is allowed as an explicit null update (useful in tests)
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")


@dataclass
class EpochStats:
    epoch: int
    class_loss: float
    feature_loss: float
    total_loss: float
    train_acc_h1: float


def _log_softmax_data(a: np.ndarray) -> np.ndarray:
    shifted = a - a.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def total_loss(roll: Rollout, labels_onehot, target, lam: float):
    """The loss of a (B, horizon, ·) rollout as one node: (CE + lam SE) / B,
    where CE = -sum(labels * log_softmax(logits)) is the class loss and SE =
    sum((features - target)^2) the feature loss, each summed over every
    entry (no per-step averaging). Returns (node, CE, SE), the latter two
    as floats for the history. The labels and target take no gradient, and
    at lam 0 neither do the features."""
    logits, features = roll.logits, roll.features
    labels = np.asarray(labels_onehot, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if (logits.data.ndim < 2 or labels.shape != logits.data.shape
            or target.shape != features.data.shape):
        raise ShapeError(f"total_loss: labels {labels.shape} for logits {logits.data.shape}, "
                         f"target {target.shape} for features {features.data.shape}")
    y = _log_softmax_data(logits.data)
    diff = features.data - target
    class_sum, feature_sum = (y * labels).sum() * -1.0, (diff * diff).sum()
    scale = 1.0 / len(labels)
    total = (class_sum + feature_sum * lam if lam else class_sum) * scale

    def backward(g):
        g_class = g * scale
        g_y = (g_class * -1.0) * labels
        _send(logits, g_y - np.exp(y) * g_y.sum(axis=-1, keepdims=True))
        if lam:
            half = (g_class * lam) * diff
            _send(features, half + half)

    node = _make(total, (logits, features) if lam else (logits,), backward)
    return node, float(class_sum), float(feature_sum)


def check_samples(model: AnticipationModel, samples) -> None:
    """Every sample must match the model's window, horizon and class count."""
    if not samples:
        raise ValueError("empty dataset")
    c = model.config
    expected = {
        "observed": (c.seq_len, c.d_m),
        "future_features": (c.horizon, c.d_m),
        "future_labels": (c.horizon, c.n_classes),
    }
    for idx, s in enumerate(samples):
        for field, shape in expected.items():
            got = getattr(s, field).shape
            if got != shape:
                raise ValueError(f"sample {idx}: {field} shape {got} != {shape}")


def train(model: AnticipationModel, samples, config: TrainConfig) -> list[EpochStats]:
    """Mini-batch SGD with momentum over reshuffled samples.

    Each mini-batch runs as one graph over the (B, T, d_m) stack of its
    windows. History records per-epoch mean class loss, feature loss,
    total loss, and horizon-1 training accuracy. A non-finite batch loss
    aborts with the epoch/batch named rather than training on.
    """
    check_samples(model, samples)
    params = model.parameters()
    observed, future_features, future_labels = (
        np.stack([getattr(s, field) for s in samples])
        for field in ("observed", "future_features", "future_labels")
    )
    rng = np.random.default_rng(config.seed)
    n = len(samples)
    history: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        sum_lc = 0.0
        sum_lr = 0.0
        hits = 0
        for batch_idx, start in enumerate(range(0, n, config.batch_size)):
            batch = order[start : start + config.batch_size]
            labels = future_labels[batch]
            roll, _ = model.anticipate(observed[batch], rng=rng)
            loss, l_c, l_r = total_loss(roll, labels, future_features[batch], config.lam)
            if not np.isfinite(loss.data):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {batch_idx}"
                )
            sum_lc += l_c
            sum_lr += l_r
            hits += int((roll.logits.data[:, 0].argmax(-1) == labels[:, 0].argmax(-1)).sum())
            loss.backward()
            sgd_step(params, config.lr, config.momentum)
        history.append(
            EpochStats(
                epoch=epoch,
                class_loss=sum_lc / n,
                feature_loss=sum_lr / n,
                total_loss=(sum_lc + config.lam * sum_lr) / n,
                train_acc_h1=hits / n,
            )
        )
    return history


def write_history_csv(history, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,class_loss,feature_loss,total_loss,train_acc_h1\n")
        for row in history:
            fh.write(
                f"{row.epoch},{row.class_loss!r},{row.feature_loss!r},"
                f"{row.total_loss!r},{row.train_acc_h1!r}\n"
            )
