import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenefuse.sketch import (
    FusionSpec,
    SketchParams,
    circular_convolve,
    circular_convolve_naive,
    count_sketch,
    fuse_rows,
    make_sketch_params,
    mcb_fuse_batch,
    outer_sketch_oracle,
    splitmix64,
    support_mask,
)


class TestSplitmix64:
    def test_known_stream(self):
        # reference outputs of the standard splitmix64 mixer for seed 1234567
        expected = [6457827717110365317, 3203168211198807973, 9817491932198370423]
        assert [int(v) for v in splitmix64(1234567, 3)] == expected

    def test_deterministic(self):
        assert np.array_equal(splitmix64(42, 100), splitmix64(42, 100))

    def test_negative_seed_wraps(self):
        assert np.array_equal(splitmix64(-1, 4), splitmix64(0xFFFFFFFFFFFFFFFF, 4))


class TestMakeSketchParams:
    def test_repeated_calls_identical(self):
        p1 = make_sketch_params(100, 16, seed=9)
        p2 = make_sketch_params(100, 16, seed=9)
        assert np.array_equal(p1.h, p2.h)
        assert np.array_equal(p1.s, p2.s)

    def test_single_bucket(self):
        p = make_sketch_params(50, 1, seed=3)
        assert np.all(p.h == 0)

    def test_value_ranges(self):
        p = make_sketch_params(500, 7, seed=13)
        assert p.h.min() >= 0 and p.h.max() < 7
        assert set(np.unique(p.s)) <= {-1.0, 1.0}

    def test_bucket_counts_near_uniform(self):
        n, d = 10_000, 64
        p = make_sketch_params(n, d, seed=2024)
        counts = np.bincount(p.h, minlength=d)
        expected = n / d
        sigma = np.sqrt(n * (1 / d) * (1 - 1 / d))
        assert np.abs(counts - expected).max() < 5 * sigma
        chi2 = np.sum((counts - expected) ** 2 / expected)
        dof = d - 1
        assert chi2 < dof + 5 * np.sqrt(2 * dof)

    @pytest.mark.parametrize("n,d", [(0, 4), (4, 0)])
    def test_rejects_zero_sizes(self, n, d):
        with pytest.raises(ValueError):
            make_sketch_params(n, d, seed=0)


class TestCountSketch:
    def test_hand_example(self):
        p = SketchParams(
            input_dim=3, sketch_dim=2, h=np.array([0, 1, 0]), s=np.array([1.0, -1.0, 1.0]), seed=0
        )
        assert np.array_equal(count_sketch([1.0, 2.0, 3.0], p), [4.0, -2.0])

    def test_identity_sketch(self):
        p = SketchParams(input_dim=5, sketch_dim=5, h=np.arange(5), s=np.ones(5), seed=0)
        x = np.array([3.0, -1.0, 0.5, 2.0, 7.0])
        assert np.array_equal(count_sketch(x, p), x)

    def test_zero_vector(self):
        p = make_sketch_params(8, 4, seed=5)
        assert np.array_equal(count_sketch(np.zeros(8), p), np.zeros(4))

    def test_dimension_mismatch(self):
        p = make_sketch_params(8, 4, seed=5)
        with pytest.raises(ValueError):
            count_sketch(np.zeros(7), p)

    @given(
        alpha=st.floats(-5, 5, allow_nan=False),
        beta=st.floats(-5, 5, allow_nan=False),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(12)
        y = rng.standard_normal(12)
        p = make_sketch_params(12, 6, seed=seed)
        combined = count_sketch(alpha * x + beta * y, p)
        split = alpha * count_sketch(x, p) + beta * count_sketch(y, p)
        assert np.abs(combined - split).max() < 1e-12

    def test_bitwise_deterministic(self):
        x = np.random.default_rng(0).standard_normal(64)
        p = make_sketch_params(64, 16, seed=77)
        a = count_sketch(x, p)
        b = count_sketch(x, p)
        assert a.tobytes() == b.tobytes()

    def test_batch_rows_match_single_vectors(self):
        xs = np.random.default_rng(1).standard_normal((5, 12))
        p = make_sketch_params(12, 7, seed=78)
        batch = count_sketch(xs, p)
        assert batch.shape == (5, 7)
        for r in range(5):
            assert batch[r].tobytes() == count_sketch(xs[r], p).tobytes()

    @pytest.mark.parametrize("shape", [(), (2, 2, 8)])
    def test_rejects_scalars_and_3d(self, shape):
        p = make_sketch_params(8, 4, seed=5)
        with pytest.raises(ValueError, match="1-d vector or a 2-d batch"):
            count_sketch(np.zeros(shape), p)


class TestCircularConvolve:
    def test_impulse_identity(self):
        b = np.array([2.0, -1.0, 0.5, 3.0])
        out = circular_convolve([1.0, 0.0, 0.0, 0.0], b)
        assert np.abs(out - b).max() < 1e-12

    def test_hand_example_d2(self):
        assert np.allclose(circular_convolve([1.0, 2.0], [3.0, 4.0]), [11.0, 10.0])
        assert np.allclose(circular_convolve_naive([1.0, 2.0], [3.0, 4.0]), [11.0, 10.0])

    def test_fft_matches_naive(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            d = int(rng.choice([1, 2, 4, 8, 16, 32, 64]))
            a = rng.standard_normal(d)
            b = rng.standard_normal(d)
            assert np.abs(circular_convolve(a, b) - circular_convolve_naive(a, b)).max() < 1e-9

    def test_non_power_of_two_matches_naive(self):
        rng = np.random.default_rng(7)
        for d in (3, 5, 6, 7, 12, 33):
            a = rng.standard_normal(d)
            b = rng.standard_normal(d)
            assert np.abs(circular_convolve(a, b) - circular_convolve_naive(a, b)).max() < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            circular_convolve([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_batch_rows_match_single_vectors(self):
        rng = np.random.default_rng(8)
        for d in (7, 16):
            a = rng.standard_normal((4, d))
            b = rng.standard_normal((4, d))
            batch = circular_convolve(a, b)
            for r in range(4):
                assert batch[r].tobytes() == circular_convolve(a[r], b[r]).tobytes()
                assert np.abs(batch[r] - circular_convolve_naive(a[r], b[r])).max() < 1e-12

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            circular_convolve(np.zeros((2, 4)), np.zeros((3, 4)))


class TestMcbFuse:
    def test_zero_input_gives_zero(self):
        px = make_sketch_params(6, 8, seed=1)
        py = make_sketch_params(4, 8, seed=2)
        y = np.random.default_rng(0).standard_normal(4)
        assert np.array_equal(mcb_fuse_batch(np.zeros(6), y, px, py), np.zeros(8))
        assert np.array_equal(mcb_fuse_batch(np.zeros(6), y, px, py, normalize=False), np.zeros(8))

    def test_matches_outer_product_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            n1, n2 = int(rng.integers(1, 33)), int(rng.integers(1, 33))
            d = int(rng.choice([8, 16, 64]))
            seed_a = int(rng.integers(0, 2**31))
            px = make_sketch_params(n1, d, seed=seed_a)
            py = make_sketch_params(n2, d, seed=seed_a + 1)
            x = rng.standard_normal(n1)
            y = rng.standard_normal(n2)
            fused = mcb_fuse_batch(x, y, px, py, normalize=False)
            oracle = outer_sketch_oracle(x, y, px, py)
            assert np.abs(fused - oracle).max() < 1e-9

    def test_normalized_output_unit_norm(self):
        rng = np.random.default_rng(3)
        px = make_sketch_params(10, 16, seed=4)
        py = make_sketch_params(10, 16, seed=5)
        fused = mcb_fuse_batch(rng.standard_normal(10), rng.standard_normal(10), px, py, normalize=True)
        assert abs(np.linalg.norm(fused) - 1.0) < 1e-12

    def test_bilinear_in_each_argument(self):
        rng = np.random.default_rng(11)
        px = make_sketch_params(7, 8, seed=21)
        py = make_sketch_params(9, 8, seed=22)
        x1, x2 = rng.standard_normal(7), rng.standard_normal(7)
        y = rng.standard_normal(9)
        lhs = mcb_fuse_batch(2.5 * x1 + x2, y, px, py, normalize=False)
        rhs = 2.5 * mcb_fuse_batch(x1, y, px, py, normalize=False) + mcb_fuse_batch(x2, y, px, py, normalize=False)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_equal_seeds_rejected(self):
        px = make_sketch_params(4, 8, seed=9)
        py = make_sketch_params(4, 8, seed=9)
        with pytest.raises(ValueError):
            mcb_fuse_batch(np.ones(4), np.ones(4), px, py)

    def test_mismatched_sketch_dims_rejected(self):
        px = make_sketch_params(4, 8, seed=1)
        py = make_sketch_params(4, 16, seed=2)
        with pytest.raises(ValueError):
            mcb_fuse_batch(np.ones(4), np.ones(4), px, py)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(17)
        px = make_sketch_params(6, 16, seed=31)
        py = make_sketch_params(5, 16, seed=32)
        xs = rng.standard_normal((4, 6))
        ys = rng.standard_normal((4, 5))
        batch = mcb_fuse_batch(xs, ys, px, py, normalize=False)
        for r in range(4):
            single = mcb_fuse_batch(xs[r], ys[r], px, py, normalize=False)
            assert batch[r].tobytes() == single.tobytes()

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("d", [7, 16, 1000, 1024])
    def test_unreachable_buckets_are_exactly_zero(self, d, normalize):
        # few input dims at small d, so some buckets stay out of reach at every d
        n1, n2 = (3, 2) if d < 100 else (32, 32)
        px = make_sketch_params(n1, d, seed=41)
        py = make_sketch_params(n2, d, seed=42)
        recount = np.bincount(((px.h[:, None] + py.h[None, :]) % d).ravel(), minlength=d)
        unreachable = recount == 0
        assert unreachable.any()
        assert np.array_equal(support_mask(px, py), ~unreachable)
        rng = np.random.default_rng(d)
        fused = mcb_fuse_batch(
            rng.standard_normal((6, n1)), rng.standard_normal((6, n2)), px, py, normalize=normalize
        )
        assert fused[:, unreachable].tobytes() == np.zeros((6, unreachable.sum())).tobytes()

    @pytest.mark.parametrize("dims", [(1, 1), (3, 2), (32, 32), (300, 2048), (70, 5)])
    @pytest.mark.parametrize("d", [1, 2, 61, 64, 997, 1024, 16000])
    def test_support_mask_is_the_pair_hash_recount(self, d, dims):
        # the oracle sketches every (i, j) pair: dims above and below d, d prime and 2**k
        px = make_sketch_params(dims[0], d, seed=d)
        py = make_sketch_params(dims[1], d, seed=d + 1)
        recount = np.bincount(((px.h[:, None] + py.h[None, :]) % d).ravel(), minlength=d)
        assert np.array_equal(support_mask(px, py), recount > 0)

    def test_support_mask_makes_no_pair_matrix(self):
        # 2048-d image and 300-d text features at d=16000: the pair hashes alone take 4.9 MB
        px = make_sketch_params(2048, 16000, seed=1)
        py = make_sketch_params(300, 16000, seed=2)
        support_mask(px, py)  # numpy's FFT caches its plan on the first call
        tracemalloc.start()
        try:
            support_mask(px, py)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048 * 300 * 8 / 2  # half the pair matrix; about 0.9 MB here

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("d", [1000, 1024])
    def test_batch_matches_single_at_fusion_sizes(self, d, normalize):
        rng = np.random.default_rng(d + 1)
        px = make_sketch_params(32, d, seed=51)
        py = make_sketch_params(32, d, seed=52)
        xs = rng.standard_normal((8, 32))
        ys = rng.standard_normal((8, 32))
        batch = mcb_fuse_batch(xs, ys, px, py, normalize=normalize)
        for r in range(8):
            assert batch[r].tobytes() == mcb_fuse_batch(xs[r], ys[r], px, py, normalize=normalize).tobytes()

    def test_unbiased_inner_product_small(self):
        # quick version of the estimator check; the acceptance suite runs M=10000
        rng = np.random.default_rng(5)
        x = rng.standard_normal(16)
        y = rng.standard_normal(16)
        truth = float(x @ y)
        estimates = []
        for m in range(2000):
            p = make_sketch_params(16, 16, seed=50_000 + m)
            estimates.append(float(count_sketch(x, p) @ count_sketch(y, p)))
        estimates = np.asarray(estimates)
        stderr = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - truth) < 3 * stderr


class TestOuterSketchOracle:
    def test_one_by_one(self):
        px = make_sketch_params(1, 1, seed=1)
        py = make_sketch_params(1, 1, seed=2)
        out = outer_sketch_oracle([1.0], [1.0], px, py)
        assert np.array_equal(out, [px.s[0] * py.s[0]])

    def test_scaling(self):
        rng = np.random.default_rng(8)
        px = make_sketch_params(5, 8, seed=3)
        py = make_sketch_params(6, 8, seed=4)
        x, y = rng.standard_normal(5), rng.standard_normal(6)
        base = outer_sketch_oracle(x, y, px, py)
        scaled = outer_sketch_oracle(3.0 * x, y, px, py)
        assert np.abs(scaled - 3.0 * base).max() < 1e-12


CONCAT = FusionSpec(scheme="concat")
AVERAGE = FusionSpec(scheme="average")


class TestBaselineFusion:
    def test_concat(self):
        assert np.array_equal(fuse_rows([1.0, 2.0], [3.0], CONCAT), [1.0, 2.0, 3.0])

    def test_concat_empty_right(self):
        assert np.array_equal(fuse_rows([1.0, 2.0], [], CONCAT), [1.0, 2.0])

    def test_concat_dims_add(self):
        out = fuse_rows(np.zeros(1024), np.zeros(300), CONCAT)
        assert out.shape == (1324,)

    def test_average_idempotent(self):
        x = np.array([1.5, -2.0, 0.25])
        assert np.array_equal(fuse_rows(x, x, AVERAGE), x)

    def test_average_mean(self):
        assert np.array_equal(fuse_rows([2.0, 0.0], [0.0, 2.0], AVERAGE), [1.0, 1.0])

    def test_average_dim_mismatch_message(self):
        with pytest.raises(ValueError, match="average requires equal dims"):
            fuse_rows(np.zeros(1024), np.zeros(300), AVERAGE)


class TestFusionSpec:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            FusionSpec(scheme="sum")

    def test_rejects_equal_seeds(self):
        with pytest.raises(ValueError):
            FusionSpec(scheme="mcb", seeds=(3, 3))

    @pytest.mark.parametrize("seeds", [(0, 2**64), (-1, 2**64 - 1)])
    def test_rejects_seeds_equal_modulo_2_64(self, seeds):
        # splitmix64 reads a seed modulo 2**64, so such seeds draw the same hashes
        first, second = (make_sketch_params(5, 64, seed) for seed in seeds)
        assert np.array_equal(first.h, second.h) and np.array_equal(first.s, second.s)
        with pytest.raises(ValueError, match="mcb requires two distinct seeds"):
            FusionSpec("mcb", 64, seeds)
        with pytest.raises(ValueError, match="the two sketches must use distinct seeds"):
            mcb_fuse_batch(np.ones(5), np.ones(5), first, second)

    def test_concat_ignores_seed_equality(self):
        FusionSpec(scheme="concat", seeds=(3, 3))

    def test_fuse_rows_dispatch(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 6))
        concat = fuse_rows(a, b, FusionSpec(scheme="concat"))
        assert concat.shape == (3, 10)
        mcb = fuse_rows(a, b, FusionSpec(scheme="mcb", sketch_dim=8, seeds=(1, 2)))
        assert mcb.shape == (3, 8)
        with pytest.raises(ValueError, match="average requires equal dims"):
            fuse_rows(a, b, FusionSpec(scheme="average"))
        with pytest.raises(ValueError, match="row count mismatch"):
            fuse_rows(a, b[:2], FusionSpec(scheme="concat"))

    @pytest.mark.parametrize("spec, dim_a, dim_b", [
        (FusionSpec(scheme="concat"), 4, 6),
        (FusionSpec(scheme="average"), 5, 5),
        (FusionSpec(scheme="mcb", sketch_dim=8, seeds=(1, 2)), 4, 6),
        (FusionSpec(scheme="mcb", sketch_dim=3, seeds=(1, 2), normalize=False), 7, 2),
    ])
    def test_out_dim_is_the_width_fuse_rows_gives(self, spec, dim_a, dim_b):
        rng = np.random.default_rng(1)
        fused = fuse_rows(rng.standard_normal((2, dim_a)), rng.standard_normal((2, dim_b)), spec)
        assert fused.shape == (2, spec.out_dim(dim_a, dim_b))
