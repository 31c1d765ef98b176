import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from scenefuse import classifier
from scenefuse.classifier import (
    ClassifierModel,
    LabeledSet,
    TrainConfig,
    _epoch_order,
    _streams,
    evaluate,
    init_model,
    loss_and_grad,
    train,
)
from scenefuse.data import Manifest, ManifestRow, join_labeled
from scenefuse.text import RowTable


def make_batch(rng, model, size):
    # one row then its label, row by row, so the draws interleave
    rows, labels = [], []
    for _ in range(size):
        rows.append(rng.standard_normal(model.dim))
        labels.append(int(rng.integers(0, model.n_classes)))
    return LabeledSet(X=np.stack(rows), y=np.array(labels))


class TestLabeledSet:
    def test_len_is_row_count_and_labels_are_int64(self):
        data = LabeledSet(X=[[1, 2], [3, 4], [5, 6]], y=[0, 1, 0])
        assert len(data) == 3
        assert data.X.dtype == np.float64 and data.y.dtype == np.int64

    @pytest.mark.parametrize(
        "X,y,match",
        [
            (np.zeros(3), [0, 1, 0], "X must be 2-d"),
            (np.zeros((3, 2)), [[0], [1], [0]], "y must be a 1-d integer array"),
            (np.zeros((3, 2)), [0.0, 1.0, 0.0], "y must be a 1-d integer array"),
            (np.zeros((3, 2)), [True, False, True], "y must be a 1-d integer array"),
            (np.zeros((3, 2)), [0, 1], "3 rows but y has 2 labels"),
        ],
    )
    def test_rejects_malformed_arrays(self, X, y, match):
        with pytest.raises(ValueError, match=match):
            LabeledSet(X=X, y=y)

    def test_a_contiguous_float_x_is_kept_not_copied(self):
        table = np.arange(24.0).reshape(8, 3)
        table.flags.writeable = False
        data = LabeledSet(table[3:7], [0, 1, 0, 1])
        assert np.shares_memory(data.X, table)
        assert data.X.ctypes.data == table[3:].ctypes.data

    @pytest.mark.parametrize(
        "X",
        [np.arange(24, dtype=np.float32).reshape(8, 3), np.arange(48.0).reshape(8, 6)[:, ::2]],
        ids=["float32", "strided"],
    )
    def test_any_other_x_is_copied_to_contiguous_float64(self, X):
        data = LabeledSet(X, np.zeros(8, dtype=int))
        assert not np.shares_memory(data.X, X)
        assert data.X.dtype == np.float64 and data.X.flags.c_contiguous
        assert data.X.tolist() == X.tolist()

    def test_sets_compare_and_hash_by_identity(self):
        # a generated __eq__ compared the arrays field by field, which numpy cannot answer
        a = LabeledSet(np.zeros((2, 2)), [0, 1])
        b = LabeledSet(np.zeros((2, 2)), [0, 1])
        assert a == a and a != b
        assert a in [b, a] and b not in [a]
        assert len({a, b, a}) == 2

    def test_feature_dim_checked_against_model(self):
        m = init_model(3, ["a", "b"], seed=0)
        with pytest.raises(ValueError, match="feature dim 2 does not match model dim 3"):
            train(m, LabeledSet(X=np.zeros((4, 2)), y=[0, 1, 0, 1]), TrainConfig(epochs=1))


class TestInitModel:
    def test_deterministic(self):
        a = init_model(4, ["x", "y", "z"], seed=5)
        b = init_model(4, ["x", "y", "z"], seed=5)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.b, b.b)

    def test_shapes(self):
        m = init_model(4, ["a", "b", "c"], seed=0)
        assert m.W.shape == (3, 4)
        assert m.b.shape == (3,)

    def test_seed_changes_weights(self):
        assert not np.array_equal(init_model(4, ["a", "b"], 1).W, init_model(4, ["a", "b"], 2).W)

    def test_duplicate_class_names(self):
        with pytest.raises(ValueError):
            init_model(4, ["a", "a"], seed=0)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            init_model(4, ["only"], seed=0)

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, r"^seed must be nonnegative, got -1$"),
         (2**64, r"^seed must be below 2\*\*64, got 18446744073709551616$")],
        ids=["negative", "2**64"],
    )
    def test_a_seed_outside_the_stream_range_is_named(self, seed, message):
        # splitmix64 reads a seed modulo 2**64, so 2**64 would draw seed 0's weights
        with pytest.raises(ValueError, match=message):
            init_model(4, ["a", "b"], seed=seed)
        with pytest.raises(ValueError, match=message):
            TrainConfig(seed=seed)

    def test_the_largest_seed_is_taken(self):
        assert TrainConfig(seed=2**64 - 1).seed == 2**64 - 1
        assert init_model(4, ["a", "b"], seed=2**64 - 1).W.shape == (2, 4)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**63, 2**64 - 1])
    def test_weights_lie_in_the_half_open_range_and_repeat_for_a_seed(self, seed):
        W = init_model(300, [f"c{i}" for i in range(40)], seed=seed).W
        assert W.min() >= -0.01 and W.max() < 0.01
        assert W.min() < -0.0099 and W.max() > 0.0099  # the range is covered, not a corner of it
        assert W.tobytes() == init_model(300, [f"c{i}" for i in range(40)], seed=seed).W.tobytes()

    def test_the_weights_are_the_init_stream_in_row_major_order(self):
        # the first rows of a wider model are the leading words of a narrower model's stream
        small = init_model(3, ["a", "b"], seed=5).W
        wide = init_model(6, ["a", "b"], seed=5).W
        assert small.ravel().tolist() == wide.ravel()[:6].tolist()


class TestStreams:
    @pytest.mark.parametrize("n", [1, 2, 10, 203, 4096])
    def test_every_epoch_order_is_a_permutation(self, n):
        for epoch in (1, 2, 50):
            assert sorted(_epoch_order(3, epoch, n).tolist()) == list(range(n))

    def test_two_epochs_and_two_seeds_give_different_orders(self):
        first = _epoch_order(3, 1, 200)
        assert first.tolist() != _epoch_order(3, 2, 200).tolist()
        assert first.tolist() != _epoch_order(4, 1, 200).tolist()
        assert first.tolist() == _epoch_order(3, 1, 200).tolist()

    def test_the_init_and_order_streams_differ(self):
        for seed in (0, 1, 2**64 - 1):
            init, order = _streams(seed)
            assert init != order
            assert (init, order) == _streams(seed)

    def test_training_visits_rows_in_the_epoch_order(self):
        # one row per batch: row i is the only one whose column i is not zero
        X = np.eye(5) * np.arange(1, 6)[:, None]
        data = LabeledSet(X, [0, 1, 0, 1, 0])
        model = init_model(5, ["a", "b"], seed=1)
        seen = []

        def step(W, b, X, *rest):  # X is the batch buffer, refilled each step: read it now
            seen.append(int(np.argmax(X[0])))
            return loss_grad(W, b, X, *rest)

        loss_grad = classifier._loss_grad
        cfg = TrainConfig(learning_rate=0.0, epochs=3, batch_size=1, seed=9)
        with mock.patch("scenefuse.classifier._loss_grad", step):
            train(model, data, cfg)
        assert seen == [row for epoch in (1, 2, 3) for row in _epoch_order(9, epoch, 5).tolist()]


def _softmax_of(model, x) -> np.ndarray:
    """softmax(Wx + b) of the row ``x``, through ``loss_and_grad``.

    With ``x`` labelled 0, the bias gradient is that softmax less one at index 0.
    """
    _, _, grad_b = loss_and_grad(model, LabeledSet(X=[x], y=[0]))
    grad_b[0] += 1.0
    return grad_b


class TestLossAndGrad:
    def test_softmax_is_uniform_at_zero_weights(self):
        m = ClassifierModel(W=np.zeros((3, 2)), b=np.zeros(3), class_names=["a", "b", "c"])
        assert np.allclose(_softmax_of(m, [1.0, -1.0]), [1 / 3] * 3)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        m = init_model(5, ["a", "b", "c", "d"], seed=1)
        for _ in range(20):
            probs = _softmax_of(m, rng.standard_normal(5) * 100)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs > 0) and np.all(probs < 1)

    def test_softmax_is_shift_invariant(self):
        W = np.array([[1.0, 2.0], [0.5, -1.0]])
        m1 = ClassifierModel(W=W, b=np.array([0.0, 1.0]), class_names=["a", "b"])
        m2 = ClassifierModel(W=W, b=np.array([100.0, 101.0]), class_names=["a", "b"])
        x = [0.3, -0.7]
        assert np.abs(_softmax_of(m1, x) - _softmax_of(m2, x)).max() < 1e-12

    def test_large_logits_stable(self):
        m = ClassifierModel(
            W=np.array([[1000.0], [0.0]]), b=np.zeros(2), class_names=["hot", "cold"]
        )
        probs = _softmax_of(m, [1.0])
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)

    def test_uniform_loss_is_log_c(self):
        m = ClassifierModel(W=np.zeros((4, 3)), b=np.zeros(4), class_names=list("abcd"))
        batch = LabeledSet(X=np.ones((1, 3)), y=[2])
        loss, _, _ = loss_and_grad(m, batch)
        assert loss == pytest.approx(math.log(4))

    def test_confident_correct_prediction_near_zero(self):
        m = ClassifierModel(
            W=np.array([[50.0], [-50.0]]), b=np.zeros(2), class_names=["a", "b"]
        )
        loss, _, _ = loss_and_grad(m, LabeledSet(X=[[1.0]], y=[0]))
        assert loss < 1e-12

    def test_empty_batch(self):
        m = init_model(2, ["a", "b"], seed=0)
        with pytest.raises(ValueError, match="empty batch"):
            loss_and_grad(m, LabeledSet(X=np.zeros((0, 2)), y=np.zeros(0, dtype=int)))

    def test_l2_term_included(self):
        W = np.array([[1.0, -2.0], [0.5, 0.0]])
        m = ClassifierModel(W=W, b=np.zeros(2), class_names=["a", "b"])
        batch = LabeledSet(X=np.zeros((1, 2)), y=[0])
        loss0, _, _ = loss_and_grad(m, batch, l2=0.0)
        loss1, _, _ = loss_and_grad(m, batch, l2=0.4)
        assert loss1 - loss0 == pytest.approx(0.2 * np.sum(W * W))

    @pytest.mark.parametrize("trial", range(5))
    def test_gradient_matches_finite_differences(self, trial):
        rng = np.random.default_rng(100 + trial)
        dims = int(rng.integers(2, 6))
        classes = int(rng.integers(2, 5))
        m = ClassifierModel(
            W=rng.standard_normal((classes, dims)) * 0.5,
            b=rng.standard_normal(classes) * 0.1,
            class_names=[f"c{i}" for i in range(classes)],
        )
        batch = make_batch(rng, m, size=int(rng.integers(1, 6)))
        l2 = float(rng.choice([0.0, 0.1]))
        _, grad_w, grad_b = loss_and_grad(m, batch, l2)
        step = 1e-5

        def loss_at(W, b):
            return loss_and_grad(ClassifierModel(W=W, b=b, class_names=m.class_names), batch, l2)[0]

        for idx in np.ndindex(m.W.shape):
            up, down = m.W.copy(), m.W.copy()
            up[idx] += step
            down[idx] -= step
            numeric = (loss_at(up, m.b) - loss_at(down, m.b)) / (2 * step)
            denom = max(abs(numeric), abs(grad_w[idx]), 1e-8)
            assert abs(numeric - grad_w[idx]) / denom < 1e-5
        for i in range(classes):
            up, down = m.b.copy(), m.b.copy()
            up[i] += step
            down[i] -= step
            numeric = (loss_at(m.W, up) - loss_at(m.W, down)) / (2 * step)
            denom = max(abs(numeric), abs(grad_b[i]), 1e-8)
            assert abs(numeric - grad_b[i]) / denom < 1e-5


class TestTrain:
    def test_zero_learning_rate_is_a_no_op(self):
        rng = np.random.default_rng(0)
        m = init_model(3, ["a", "b"], seed=1)
        data = make_batch(rng, m, 12)
        cfg = TrainConfig(learning_rate=0.0, epochs=5, batch_size=4, seed=2)
        trained, history = train(m, data, cfg)
        assert np.array_equal(trained.W, m.W)
        assert np.array_equal(trained.b, m.b)
        assert np.allclose(history, history[0], atol=1e-12)

    def test_separable_toy_set_reaches_perfect_accuracy(self):
        # 8 points in 2-d, classes split by the sign of the first coordinate
        feats = [
            (-2.0, 0.5), (-1.5, -1.0), (-1.0, 2.0), (-0.5, -0.5),
            (0.5, 1.0), (1.0, -2.0), (1.5, 0.0), (2.0, 1.5),
        ]
        data = LabeledSet(X=feats, y=[0 if f[0] < 0 else 1 for f in feats])
        m = init_model(2, ["neg", "pos"], seed=3)
        cfg = TrainConfig(learning_rate=0.5, epochs=200, batch_size=8, seed=4)
        trained, _ = train(m, data, cfg)
        accuracy, _ = evaluate(trained, data)
        assert accuracy == 1.0

    def test_same_seed_same_weights(self):
        rng = np.random.default_rng(5)
        m = init_model(4, ["a", "b", "c"], seed=6)
        data = make_batch(rng, m, 30)
        cfg = TrainConfig(learning_rate=0.1, epochs=10, batch_size=7, seed=8)
        t1, h1 = train(m, data, cfg)
        t2, h2 = train(m, data, cfg)
        assert t1.W.tobytes() == t2.W.tobytes()
        assert t1.b.tobytes() == t2.b.tobytes()
        assert h1 == h2

    def test_full_batch_descent_is_monotone(self):
        rng = np.random.default_rng(9)
        m = init_model(3, ["a", "b"], seed=10)
        data = make_batch(rng, m, 16)
        cfg = TrainConfig(learning_rate=0.01, epochs=40, batch_size=16, seed=11)
        _, history = train(m, data, cfg)
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-12)

    def test_does_not_mutate_input_model(self):
        rng = np.random.default_rng(12)
        m = init_model(3, ["a", "b"], seed=13)
        w_before = m.W.copy()
        train(m, make_batch(rng, m, 8), TrainConfig(epochs=2, seed=0))
        assert np.array_equal(m.W, w_before)

    def test_divergence_raises(self):
        rng = np.random.default_rng(14)
        m = init_model(3, ["a", "b"], seed=15)
        data = make_batch(rng, m, 16)
        with pytest.raises(ValueError, match="diverged"):
            train(m, data, TrainConfig(learning_rate=1e300, epochs=5, batch_size=4, seed=0))

    def test_a_last_step_that_overflows_the_weights_raises(self):
        # the one batch loss is finite (log 2), but the step it takes overflows W
        m = ClassifierModel(W=np.zeros((2, 3)), b=np.zeros(2), class_names=["a", "b"])
        data = LabeledSet(np.full((4, 3), 1e10), np.array([0, 1, 1, 1]))
        cfg = TrainConfig(learning_rate=1e300, epochs=1, batch_size=4)
        with pytest.raises(ValueError, match="diverged in epoch 1: the weights are not finite"):
            train(m, data, cfg)

    def test_rejects_negative_learning_rate(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)

    @pytest.mark.parametrize("name", ["learning_rate", "l2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_a_rate_or_penalty_that_is_not_finite(self, name, value):
        # NaN passes both "< 0" checks, and an infinite l2 trained until the loss overflowed
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            TrainConfig(**{name: value})


class TestEvaluate:
    def test_all_correct(self):
        m = ClassifierModel(
            W=np.array([[10.0, 0.0], [0.0, 10.0]]), b=np.zeros(2), class_names=["a", "b"]
        )
        data = LabeledSet(X=[[1.0, 0.0], [0.0, 1.0]], y=[0, 1])
        accuracy, confusion = evaluate(m, data)
        assert accuracy == 1.0
        assert np.array_equal(confusion, [[1, 0], [0, 1]])

    def test_tie_breaks_to_lowest_index(self):
        m = ClassifierModel(W=np.zeros((3, 2)), b=np.zeros(3), class_names=["a", "b", "c"])
        data = LabeledSet(X=np.ones((3, 2)), y=[0, 1, 2])
        _, confusion = evaluate(m, data)
        assert confusion[:, 0].sum() == 3  # everything predicted as class 0

    def test_confusion_row_sums_match_counts(self):
        rng = np.random.default_rng(14)
        m = init_model(3, ["a", "b", "c"], seed=15)
        data = make_batch(rng, m, 50)
        _, confusion = evaluate(m, data)
        per_class = np.bincount(data.y, minlength=3)
        assert np.array_equal(confusion.sum(axis=1), per_class)

    def test_empty_data(self):
        m = init_model(2, ["a", "b"], seed=0)
        with pytest.raises(ValueError):
            evaluate(m, LabeledSet(X=np.zeros((0, 2)), y=np.zeros(0, dtype=int)))

    def test_label_out_of_range(self):
        m = init_model(2, ["a", "b"], seed=0)
        with pytest.raises(ValueError):
            evaluate(m, LabeledSet(X=np.zeros((1, 2)), y=[5]))


def _reference_loss_grad(W, b, X, y, l2):
    """``classifier._loss_grad`` as it was before its step buffers: a new array per (C, D) term."""
    logits = X @ W.T + b
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    n = X.shape[0]
    loss = float(-np.log(probs[np.arange(n), y]).mean() + 0.5 * l2 * np.sum(W * W))
    probs[np.arange(n), y] -= 1.0
    probs /= n
    grad_w = probs.T @ X + l2 * W
    grad_b = probs.sum(axis=0)
    return loss, grad_w, grad_b


def _reference_train(model, data, cfg):
    """``classifier.train`` as it was before its step buffers, messages included: each
    batch is gathered into a new array, in the epoch order ``train`` takes."""
    y, W, b = data.y, model.W.copy(), model.b.copy()
    n = len(data)
    history = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = _epoch_order(cfg.seed, epoch, n)
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                loss, grad_w, grad_b = _reference_loss_grad(W, b, data.X[idx], y[idx], cfg.l2)
                if not np.isfinite(loss):
                    raise ValueError(
                        f"training diverged in epoch {epoch}: loss is {loss}; "
                        f"lower the learning rate (now {cfg.learning_rate:g})"
                    )
                W -= cfg.learning_rate * grad_w
                b -= cfg.learning_rate * grad_b
                epoch_loss += loss * idx.size
            history.append(epoch_loss / n)
    if not (np.isfinite(W).all() and np.isfinite(b).all()):
        raise ValueError(
            f"training diverged in epoch {cfg.epochs}: the weights are not finite; "
            f"lower the learning rate (now {cfg.learning_rate:g})"
        )
    return W, b, history


def _reference_evaluate(W, b, data, classes):
    """``classifier.evaluate`` as it was: the set's rows copied, then scored."""
    pred = np.argmax(data.X.copy() @ W.T + b, axis=1)
    confusion = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(confusion, (data.y, pred), 1)
    return float((pred == data.y).mean()), confusion


def _sets(rng, n, dim, classes, layout):
    """Train and test sets of n and n // 3 labeled rows; ``layout`` places them in X.

    "copies": each set owns its rows; "runs": views of one table, train rows first, then
    the test rows from an odd offset on; "scattered": ``join_labeled`` of one shuffled table.
    """
    n_test = n // 3
    X = rng.standard_normal((n + n_test + 1, dim))
    y = rng.integers(0, classes, n + n_test)
    if layout == "copies":
        return LabeledSet(X[:n], y[:n]), LabeledSet(X[n : n + n_test], y[n:])
    if layout == "runs":
        start = n | 1  # an odd row offset, past the train rows
        return LabeledSet(X[:n], y[:n]), LabeledSet(X[start : start + n_test], y[n:])
    rows = rng.permutation(len(X))
    ids = [f"r{i}" for i in range(len(X))]
    names = [f"c{i}" for i in range(classes)]
    manifest = Manifest(rows=tuple(
        ManifestRow(ids[row], names[label], "train" if at < n else "test")
        for at, (row, label) in enumerate(zip(rows, y))
    ))
    table = RowTable(ids, X)
    return tuple(join_labeled(manifest, table, split, names) for split in ("train", "test"))


class TestStepBuffers:
    """train with its batch and two (C, D) step buffers against a copy of the loop that
    allocated per step."""

    @pytest.mark.parametrize("layout", ["copies", "runs", "scattered"])
    @pytest.mark.parametrize("l2", [0.0, 0.003])
    @pytest.mark.parametrize(
        "n, dim, classes, batch",
        [(203, 17, 5, 16), (301, 24, 200, 64), (10, 3, 2, 64)],
        ids=["partial-last-batch", "200-classes", "one-short-batch"],
    )
    def test_weights_losses_and_scores_are_bit_identical(self, layout, l2, n, dim, classes, batch):
        rng = np.random.default_rng(n + classes)
        train_set, test_set = _sets(rng, n, dim, classes, layout)
        model = init_model(dim, [f"c{i}" for i in range(classes)], seed=4)
        cfg = TrainConfig(learning_rate=0.4, epochs=3, batch_size=batch, seed=9, l2=l2)
        trained, history = train(model, train_set, cfg)
        W, b, expected = _reference_train(model, train_set, cfg)
        assert (trained.W.tobytes(), trained.b.tobytes()) == (W.tobytes(), b.tobytes())
        assert history == expected
        accuracy, confusion = evaluate(trained, test_set)
        expected_accuracy, expected_confusion = _reference_evaluate(W, b, test_set, classes)
        assert accuracy == expected_accuracy
        assert confusion.tolist() == expected_confusion.tolist()
        got = loss_and_grad(trained, test_set, l2)
        want = _reference_loss_grad(W, b, test_set.X, test_set.y, l2)
        assert got[0] == want[0]
        assert [g.tobytes() for g in got[1:]] == [g.tobytes() for g in want[1:]]

    @pytest.mark.parametrize("rate, l2", [(1e300, 0.0), (1e300, 0.5), (1e154, 0.0)])
    def test_divergence_is_found_in_the_same_epoch_with_the_same_message(self, rate, l2):
        rng = np.random.default_rng(14)
        model = init_model(3, ["a", "b", "c"], seed=15)
        data = make_batch(rng, model, 37)
        cfg = TrainConfig(learning_rate=rate, epochs=6, batch_size=8, seed=2, l2=l2)
        with pytest.raises(ValueError) as expected:
            _reference_train(model, data, cfg)
        with pytest.raises(ValueError) as got:
            train(model, data, cfg)
        assert str(got.value) == str(expected.value)

    def test_a_step_allocates_no_array_as_large_as_w(self):
        # 200 x 2000 weights are 3.2 MB; each step used to make five arrays of that size
        rng = np.random.default_rng(3)
        model = init_model(2000, [f"c{i}" for i in range(200)], seed=1)
        data = LabeledSet(rng.standard_normal((40, 2000)), rng.integers(0, 200, 40))
        cfg = TrainConfig(epochs=2, batch_size=8, l2=0.01)
        tracemalloc.start()
        try:
            train(model, data, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the trained W and b, the two buffers, and one batch's small arrays
        assert peak < 3.5 * model.W.nbytes, peak


class TestScoringInPlace:
    def test_scoring_a_split_in_one_run_makes_no_copy_of_its_rows(self):
        # the test split is 3000 of 4001 rows (6.1 MB), from an odd row offset on
        rng = np.random.default_rng(8)
        table = RowTable([f"r{i}" for i in range(4001)], rng.standard_normal((4001, 256)))
        names = ["a", "b", "c", "d"]
        manifest = Manifest(rows=tuple(
            ManifestRow(image_id, names[label], "train" if i < 1001 else "test")
            for i, (image_id, label) in enumerate(zip(table, rng.integers(0, 4, 4001)))
        ))
        data = join_labeled(manifest, table, "test", names)
        assert np.shares_memory(data.X, table.matrix)
        model = init_model(256, names, seed=0)
        tracemalloc.start()
        try:
            accuracy, confusion = evaluate(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected_accuracy, expected_confusion = _reference_evaluate(model.W, model.b, data, 4)
        assert (accuracy, confusion.tolist()) == (expected_accuracy, expected_confusion.tolist())
        assert peak < data.X.nbytes / 8, peak
