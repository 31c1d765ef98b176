import math

import numpy as np
import pytest

from scenefuse.classifier import (
    ClassifierModel,
    LabeledSet,
    TrainConfig,
    evaluate,
    init_model,
    loss_and_grad,
    train,
)


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
