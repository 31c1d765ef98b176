"""Linear softmax classifier with cross-entropy loss and mini-batch SGD."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sketch import splitmix64


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if seed >= 2**64:  # splitmix64 reads a seed modulo 2**64: a larger one would alias
        raise ValueError(f"seed must be below 2**64, got {seed}")


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
        _check_seed(self.seed)


@dataclass(frozen=True)
class ClassifierModel:
    """Weights ``W`` (C, D >= 1) and biases ``b`` (C,) of C >= 2 distinct ``class_names``.

    Frozen, so no field can be swapped for one that breaks these after the checks, and
    the names are held as a tuple copy, so they cannot change after them either.
    """

    W: np.ndarray  # (C, D)
    b: np.ndarray  # (C,)
    class_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "class_names", tuple(self.class_names))
        classes = len(self.class_names)
        if classes < 2:
            raise ValueError("need at least two classes")
        if len(set(self.class_names)) != classes:
            raise ValueError("duplicate class names")
        shape = np.shape(self.W)
        if len(shape) != 2 or shape[0] != classes or shape[1] < 1:
            raise ValueError(f"W must be ({classes}, D >= 1) for {classes} classes, not {shape}")
        if np.shape(self.b) != (classes,):
            raise ValueError(f"b must be ({classes},) for {classes} classes, not {np.shape(self.b)}")

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


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """Feature rows X (n, dim) and their class indices y (n,): row ``i`` has label ``y[i]``."""

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
        return self.y.shape[0]


def _streams(seed: int) -> tuple[int, int]:
    """The seeds of the init and order streams of ``seed``: its first two splitmix64 words."""
    init, order = splitmix64(seed, 2).tolist()
    return init, order


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """The order ``train`` visits ``n`` rows in, in epoch ``epoch`` (from 1).

    It is the stable argsort of that epoch's ``n`` words of the order stream of
    ``seed``, so every epoch's order is a permutation of ``range(n)``.
    """
    words = splitmix64(_streams(seed)[1], n, start=(epoch - 1) * n)
    return np.argsort(words, kind="stable")


def init_model(dim: int, class_names: Sequence[str], seed: int) -> ClassifierModel:
    """Zero biases, and weights ``-0.01 + 0.02 * u`` in [-0.01, 0.01).

    Each ``u`` is a uniform in [0, 1) from the top 53 bits of a word of the init
    stream of ``seed``, taken in row-major order.
    """
    names = [str(n) for n in class_names]
    if dim < 1:
        raise ValueError("dim must be >= 1")
    _check_seed(seed)
    words = splitmix64(_streams(seed)[0], len(names) * dim)
    u = (words >> np.uint64(11)).astype(float) * 2.0**-53
    W = (-0.01 + 0.02 * u).reshape(len(names), dim)
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
    W: np.ndarray, b: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float,
    grad_w: np.ndarray | None = None, scratch: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """The loss and its gradients; ``grad_w`` is written into the buffer ``grad_w``.

    ``grad_w`` and ``scratch`` are C-contiguous buffers shaped like W, made here when
    not given.  ``scratch`` holds ``W * W`` and then ``l2 * W``, so ``np.sum`` runs over
    one contiguous (C, D) array, as it did over the temporary ``W * W``.
    """
    if grad_w is None or scratch is None:
        grad_w, scratch = np.empty_like(W, order="C"), np.empty_like(W, order="C")
    probs = _softmax_rows(X @ W.T + b)
    n = X.shape[0]
    np.multiply(W, W, out=scratch)
    loss = float(-np.log(probs[np.arange(n), y]).mean() + 0.5 * l2 * np.sum(scratch))
    probs[np.arange(n), y] -= 1.0
    probs /= n
    np.matmul(probs.T, X, out=grad_w)
    np.multiply(l2, W, out=scratch)
    np.add(grad_w, scratch, out=grad_w)
    return loss, grad_w, probs.sum(axis=0)


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

    Epoch ``e`` visits the rows in ``_epoch_order(cfg.seed, e, n)``.  Raises ValueError
    as soon as a batch loss is not finite, or when the last step leaves weights that are
    not (training diverged).  Every step gathers its rows into one batch buffer and writes
    its (C, D) gradient and scratch into two more, all made once per call, so no step
    allocates an array as large as W or as its batch.
    """
    if not data:
        raise ValueError("no training data")
    _check_fits(data, model)
    y = data.y
    W = model.W.copy()
    b = model.b.copy()
    grad_w, scratch = np.empty_like(W), np.empty_like(W)
    n = len(data)
    batch = np.empty((min(cfg.batch_size, n), model.dim))
    history: list[float] = []
    # an overflow shows up as a loss or weights that are not finite, reported below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = _epoch_order(cfg.seed, epoch, n)
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                # "clip" gathers straight into the buffer (every index is in range);
                # "raise" would buffer its output anew on every step
                rows = np.take(data.X, idx, axis=0, out=batch[: idx.size], mode="clip")
                loss, _, grad_b = _loss_grad(W, b, rows, y[idx], cfg.l2, grad_w, scratch)
                if not np.isfinite(loss):
                    raise ValueError(
                        f"training diverged in epoch {epoch}: loss is {loss}; "
                        f"lower the learning rate (now {cfg.learning_rate:g})"
                    )
                W -= np.multiply(cfg.learning_rate, grad_w, out=scratch)
                b -= cfg.learning_rate * grad_b
                epoch_loss += loss * idx.size
            history.append(epoch_loss / n)
    if not (np.isfinite(W).all() and np.isfinite(b).all()):  # the last step overflowed
        raise ValueError(
            f"training diverged in epoch {cfg.epochs}: the weights are not finite; "
            f"lower the learning rate (now {cfg.learning_rate:g})"
        )
    return ClassifierModel(W=W, b=b, class_names=model.class_names), history


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
