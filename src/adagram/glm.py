"""Logistic-regression and softmax models: loss, gradient, batch Hessian.

A K x m x n theta stacks K models on one batch: loss, gradient and
accuracy then give each model's value as it would be alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

# batch_hessian forms an n x n matrix; keep it a desk-scale diagnostic.
HESSIAN_FEATURE_CAP = 512


class Link(enum.Enum):
    SIGMOID = "sigmoid"
    SOFTMAX = "softmax"


@dataclass
class GlmModel:
    """Linear model theta (m x n) with a sigmoid or softmax link.

    Binary models use m = 1 and labels in {0, 1}; softmax models use one
    row per class.
    """

    theta: np.ndarray
    link: Link

    def __post_init__(self) -> None:
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.ndim not in (2, 3):
            raise ValueError(f"theta must be m x n, got shape {self.theta.shape}")
        if not np.isfinite(self.theta).all():
            raise ValueError("theta must be finite")

    @property
    def n_features(self) -> int:
        return self.theta.shape[-1]


@dataclass
class Batch:
    """Feature rows with integer labels, once checked in 0..label_bound-1."""

    x: np.ndarray
    y: np.ndarray
    label_bound: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y)
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"batch shapes do not line up: x {self.x.shape}, y {self.y.shape}"
            )
        if self.x.shape[0] < 1:
            raise ValueError("batch must contain at least one sample")

    @property
    def size(self) -> int:
        return self.x.shape[0]

    def rows(self, idx: np.ndarray) -> "Batch":
        """The rows at non-empty ``idx``; they need no checks of their own."""
        sub = object.__new__(type(self))
        sub.x, sub.y, sub.label_bound = self.x[idx], self.y[idx], self.label_bound
        return sub


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: exp never sees z > 0."""
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def check_labels(model: GlmModel, batch: Batch) -> np.ndarray:
    """The batch's labels as integers in range; recorded on the batch."""
    n_classes = 2 if model.link is Link.SIGMOID else model.theta.shape[-2]
    if 0 < batch.label_bound <= n_classes:
        return batch.y
    y = batch.y
    if not np.issubdtype(y.dtype, np.integer):
        y_int = y.astype(int)
        if not np.array_equal(y_int, y):
            raise ValueError("labels must be integers")
        y = y_int
    if y.min(initial=0) < 0 or y.max(initial=0) >= n_classes:
        raise ValueError(
            f"labels out of range: expected 0..{n_classes - 1}, "
            f"got [{y.min()}, {y.max()}]"
        )
    batch.y, batch.label_bound = y, n_classes
    return y


def _log_sum_exp(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=-1, keepdims=True)
    return (zmax + np.log(np.sum(np.exp(z - zmax), axis=-1, keepdims=True)))[..., 0]


def _logits(model: GlmModel, x: np.ndarray) -> np.ndarray:
    """x theta^T, (b,) binary or (b, m) softmax: one product per model."""
    if model.link is Link.SIGMOID:
        return (x @ model.theta[..., 0, :, None])[..., 0]
    return x @ model.theta.swapaxes(-1, -2)


def loss(model: GlmModel, batch: Batch):
    """Mean cross-entropy over the batch (an array of them for a stack).

    Per-sample terms use log-sum-exp; the reduction uses exactly rounded
    summation (math.fsum), so the value is independent of sample order.
    """
    y = check_labels(model, batch)
    z = _logits(model, batch.x)
    if model.link is Link.SIGMOID:
        terms = np.logaddexp(0.0, z) - y * z
    else:
        terms = _log_sum_exp(z) - z[..., np.arange(batch.size), y]
    means = []
    for t in terms.reshape(-1, batch.size):
        try:
            means.append(math.fsum(memoryview(t)) / batch.size)
        except (OverflowError, ValueError):  # non-negative terms: overflow is +inf
            means.append(math.inf)
    return means[0] if terms.ndim == 1 else np.array(means)


def gradient(model: GlmModel, batch: Batch) -> np.ndarray:
    """Mean cross-entropy gradient, an m x n matrix (K x m x n for a stack).

    Binary: (1/b) sum_i (sigma(theta^T x_i) - y_i) x_i.
    Softmax: (1/b) sum_i (p_i - onehot(y_i)) x_i^T.
    """
    y = check_labels(model, batch)
    z = _logits(model, batch.x)
    if model.link is Link.SIGMOID:
        resid = sigmoid(z) - y
        return (resid[..., None, :] @ batch.x) / batch.size
    p = np.exp(z - _log_sum_exp(z)[..., None])
    p[..., np.arange(batch.size), y] -= 1.0
    return p.swapaxes(-1, -2) @ batch.x / batch.size


def batch_hessian(model: GlmModel, batch: Batch) -> np.ndarray:
    """Cross-entropy Hessian H = (1/b) X^T diag(p (1 - p)) X, binary only.

    Diagnostic: forms an n x n matrix and is capped at desk scale; it is
    never called from an optimizer step.
    """
    if model.link is not Link.SIGMOID:
        raise ValueError("batch_hessian supports binary models only")
    n = model.n_features
    if n > HESSIAN_FEATURE_CAP:
        raise ValueError(
            f"batch_hessian capped at {HESSIAN_FEATURE_CAP} features, got {n}"
        )
    check_labels(model, batch)
    p = sigmoid(batch.x @ model.theta[0])
    weights = p * (1.0 - p)
    return (batch.x * weights[:, None]).T @ batch.x / batch.size


def predict(model: GlmModel, x: np.ndarray) -> np.ndarray:
    """Predicted class indices."""
    if model.link is Link.SIGMOID:
        return (_logits(model, x) >= 0.0).astype(int)
    return np.argmax(_logits(model, x), axis=-1)


def accuracy(model: GlmModel, x: np.ndarray, y: np.ndarray):
    """Share of correct predictions (an array of them for a stack)."""
    hits = np.mean(predict(model, x) == y, axis=-1)
    return float(hits) if hits.ndim == 0 else hits

