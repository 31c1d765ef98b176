"""Linear softmax classifier with cross-entropy loss and mini-batch SGD."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 50
    batch_size: int = 64
    seed: int = 0
    l2: float = 0.0

    def __post_init__(self):
        for name in ("learning_rate", "l2"):  # NaN passes any comparison
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.l2 < 0:
            raise ValueError("l2 must be nonnegative")


@dataclass
class ClassifierModel:
    W: np.ndarray  # (C, D)
    b: np.ndarray  # (C,)
    class_names: list[str]

    @property
    def n_classes(self) -> int:
        return self.W.shape[0]

    @property
    def dim(self) -> int:
        return self.W.shape[1]

    def __eq__(self, other):
        """Same class names, and ``W`` and ``b`` equal bit for bit."""
        if not isinstance(other, ClassifierModel):
            return NotImplemented
        return (
            self.class_names == other.class_names
            and self.W.tobytes() == other.W.tobytes()
            and self.b.tobytes() == other.b.tobytes()
        )


@dataclass(frozen=True)
class LabeledSet:
    """Feature rows X (n, dim) with their class indices y (n,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=float)
        y = np.asarray(self.y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-d, got shape {X.shape}")
        if y.ndim != 1 or y.dtype.kind not in "iu":
            raise ValueError(f"y must be a 1-d integer array, got {y.dtype} of shape {y.shape}")
        if y.shape[0] != X.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} labels")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y.astype(np.int64))

    def __len__(self) -> int:
        return self.X.shape[0]


def init_model(dim: int, class_names: Sequence[str], seed: int) -> ClassifierModel:
    """Uniform(-0.01, 0.01) weights from the given seed, zero biases."""
    names = [str(n) for n in class_names]
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if len(names) < 2:
        raise ValueError("need at least two classes")
    if len(set(names)) != len(names):
        raise ValueError("duplicate class names")
    rng = np.random.default_rng(seed)
    W = rng.uniform(-0.01, 0.01, size=(len(names), dim))
    return ClassifierModel(W=W, b=np.zeros(len(names)), class_names=names)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def _check_fits(data: LabeledSet, model: ClassifierModel) -> None:
    if data.X.shape[1] != model.dim:
        raise ValueError(f"feature dim {data.X.shape[1]} does not match model dim {model.dim}")
    if data.y.min() < 0 or data.y.max() >= model.n_classes:
        raise ValueError("label out of range")


def _loss_grad(
    W: np.ndarray, b: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, np.ndarray]:
    probs = _softmax_rows(X @ W.T + b)
    n = X.shape[0]
    loss = float(-np.log(probs[np.arange(n), y]).mean() + 0.5 * l2 * np.sum(W * W))
    probs[np.arange(n), y] -= 1.0
    probs /= n
    grad_w = probs.T @ X + l2 * W
    grad_b = probs.sum(axis=0)
    return loss, grad_w, grad_b


def loss_and_grad(
    model: ClassifierModel, batch: LabeledSet, l2: float = 0.0
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy plus (l2/2)*||W||_F^2, with its exact analytic gradients."""
    if not batch:
        raise ValueError("empty batch")
    _check_fits(batch, model)
    return _loss_grad(model.W, model.b, batch.X, batch.y, l2)


def train(
    model: ClassifierModel, data: LabeledSet, cfg: TrainConfig
) -> tuple[ClassifierModel, list[float]]:
    """Mini-batch SGD over shuffled epochs; returns the trained copy and per-epoch mean loss.

    Raises ValueError as soon as a batch loss is not finite, or when the last step leaves
    weights that are not (training diverged).
    """
    if not data:
        raise ValueError("no training data")
    _check_fits(data, model)
    X, y = data.X, data.y
    W = model.W.copy()
    b = model.b.copy()
    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    history: list[float] = []
    # an overflow shows up as a loss or weights that are not finite, reported below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                loss, grad_w, grad_b = _loss_grad(W, b, X[idx], y[idx], cfg.l2)
                if not np.isfinite(loss):
                    raise ValueError(
                        f"training diverged in epoch {epoch}: loss is {loss}; "
                        f"lower the learning rate (now {cfg.learning_rate:g})"
                    )
                W -= cfg.learning_rate * grad_w
                b -= cfg.learning_rate * grad_b
                epoch_loss += loss * idx.size
            history.append(epoch_loss / n)
    if not (np.isfinite(W).all() and np.isfinite(b).all()):  # the last step overflowed
        raise ValueError(
            f"training diverged in epoch {cfg.epochs}: the weights are not finite; "
            f"lower the learning rate (now {cfg.learning_rate:g})"
        )
    return ClassifierModel(W=W, b=b, class_names=list(model.class_names)), history


def evaluate(model: ClassifierModel, data: LabeledSet) -> tuple[float, np.ndarray]:
    """Top-1 accuracy and a (true, predicted) confusion count matrix.

    Argmax ties resolve to the lowest class index.
    """
    if not data:
        raise ValueError("no evaluation data")
    _check_fits(data, model)
    y = data.y
    pred = np.argmax(data.X @ model.W.T + model.b, axis=1)
    confusion = np.zeros((model.n_classes, model.n_classes), dtype=np.int64)
    np.add.at(confusion, (y, pred), 1)
    return float((pred == y).mean()), confusion
