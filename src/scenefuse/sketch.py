"""Count-sketch fusion: compact bilinear pooling plus concat/average baselines.

The bilinear route sketches each modality with an independent signed hash and
circularly convolves the two sketches; the result equals a count sketch of the
full outer product without ever materializing it.  ``outer_sketch_oracle``
materializes that outer product and sketches it directly, so the identity can
be verified at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FUSION_SCHEMES = ("concat", "average", "mcb")

_MASK64 = 0xFFFFFFFFFFFFFFFF
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First ``count`` words of the splitmix64 stream for ``seed``.

    Fixed mixer so hash parameters regenerate identically on every platform;
    all arithmetic wraps modulo 2**64.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    steps = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + steps * _SM_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SM_MIX1
    z = (z ^ (z >> np.uint64(27))) * _SM_MIX2
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True, eq=False)
class SketchParams:
    """One signed-hash pair (h, s) mapping input_dim coordinates into sketch_dim buckets."""

    input_dim: int
    sketch_dim: int
    h: np.ndarray  # int64, values in [0, sketch_dim)
    s: np.ndarray  # float64, values in {-1.0, +1.0}
    seed: int


def make_sketch_params(input_dim: int, sketch_dim: int, seed: int) -> SketchParams:
    """Draw bucket and sign arrays from splitmix64(seed); same arguments, same arrays."""
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    if sketch_dim < 1:
        raise ValueError("sketch_dim must be >= 1")
    words = splitmix64(seed, 2 * input_dim)
    h = (words[:input_dim] % np.uint64(sketch_dim)).astype(np.int64)
    s = np.where(words[input_dim:] >> np.uint64(63), -1.0, 1.0)
    h.flags.writeable = False
    s.flags.writeable = False
    return SketchParams(input_dim=input_dim, sketch_dim=sketch_dim, h=h, s=s, seed=seed)


def _as_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {arr.shape}")
    return arr


def _as_rows(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d batch of vectors, got shape {arr.shape}")
    return arr


def _sketch_rows(rows: np.ndarray, params: SketchParams) -> np.ndarray:
    if rows.shape[1] != params.input_dim:
        raise ValueError(
            f"input dim {rows.shape[1]} does not match sketch input_dim {params.input_dim}"
        )
    out = np.zeros((rows.shape[0], params.sketch_dim))
    np.add.at(out.T, params.h, (rows * params.s).T)
    return out


def count_sketch(x, params: SketchParams) -> np.ndarray:
    """Project x into sketch_dim buckets: out[j] = sum over h[i]=j of s[i]*x[i]."""
    return _sketch_rows(_as_vector(x)[np.newaxis, :], params)[0]


def _convolve_rows(a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
    d = a_rows.shape[-1]
    freq = np.fft.rfft(a_rows, axis=-1) * np.fft.rfft(b_rows, axis=-1)
    return np.fft.irfft(freq, n=d, axis=-1)


def circular_convolve(a, b) -> np.ndarray:
    """Circular convolution out[j] = sum_i a[i] * b[(j - i) mod d].

    Computed for every length d as one real FFT product, ``irfft(rfft(a) * rfft(b))``.
    """
    a = _as_vector(a)
    b = _as_vector(b)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return _convolve_rows(a[np.newaxis, :], b[np.newaxis, :])[0]


def circular_convolve_naive(a, b) -> np.ndarray:
    """Plain O(d^2) circular convolution, kept independent as the reference oracle."""
    a = _as_vector(a)
    b = _as_vector(b)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    d = a.size
    out = np.zeros(d)
    for j in range(d):
        total = 0.0
        for i in range(d):
            total += a[i] * b[(j - i) % d]
        out[j] = total
    return out


def _check_pair(px: SketchParams, py: SketchParams) -> None:
    if px.sketch_dim != py.sketch_dim:
        raise ValueError(
            f"sketch dims must match: {px.sketch_dim} vs {py.sketch_dim}"
        )
    if px.seed == py.seed:
        raise ValueError("the two sketches must use distinct seeds")


def _signed_sqrt_l2_rows(rows: np.ndarray) -> np.ndarray:
    rows = np.sign(rows) * np.sqrt(np.abs(rows))
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows / np.where(norms == 0.0, 1.0, norms)


def support_mask(px: SketchParams, py: SketchParams) -> np.ndarray:
    """Buckets of the fused sketch that some pair hash (px.h[i] + py.h[j]) mod d reaches.

    Every other bucket of ``mcb_fuse`` is exactly zero for any input.
    """
    _check_pair(px, py)
    pair_h = (px.h[:, np.newaxis] + py.h[np.newaxis, :]) % px.sketch_dim
    return np.bincount(pair_h.ravel(), minlength=px.sketch_dim) > 0


def mcb_fuse_batch(xs, ys, px: SketchParams, py: SketchParams, normalize: bool = True) -> np.ndarray:
    """Row-wise compact bilinear fusion of two stacked feature batches.

    Buckets outside ``support_mask(px, py)`` are set to exactly 0.0, so FFT
    round-off never shows up where the sketch has no support.
    """
    reachable = support_mask(px, py)
    fused = _convolve_rows(_sketch_rows(_as_rows(xs), px), _sketch_rows(_as_rows(ys), py))
    fused[:, ~reachable] = 0.0
    if normalize:
        fused = _signed_sqrt_l2_rows(fused)
    return fused


def mcb_fuse(x, y, px: SketchParams, py: SketchParams, normalize: bool = True) -> np.ndarray:
    """Compact bilinear fusion: convolve the count sketches of x and y.

    Equals a count sketch of the outer product x (x) y under the pair hash
    h(i,j) = (px.h[i] + py.h[j]) mod d, s(i,j) = px.s[i] * py.s[j].  With
    ``normalize`` the result is passed through elementwise signed square root
    and then L2-normalized (a zero vector is left unchanged).
    """
    return mcb_fuse_batch(
        _as_vector(x)[np.newaxis, :], _as_vector(y)[np.newaxis, :], px, py, normalize
    )[0]


def outer_sketch_oracle(x, y, px: SketchParams, py: SketchParams) -> np.ndarray:
    """Sketch the materialized outer product directly. Verification only: O(n1*n2)."""
    _check_pair(px, py)
    x = _as_vector(x)
    y = _as_vector(y)
    if x.size != px.input_dim:
        raise ValueError(f"input dim {x.size} does not match sketch input_dim {px.input_dim}")
    if y.size != py.input_dim:
        raise ValueError(f"input dim {y.size} does not match sketch input_dim {py.input_dim}")
    d = px.sketch_dim
    pair_h = (px.h[:, np.newaxis] + py.h[np.newaxis, :]) % d
    pair_s = px.s[:, np.newaxis] * py.s[np.newaxis, :]
    weights = pair_s * np.outer(x, y)
    return np.bincount(pair_h.ravel(), weights=weights.ravel(), minlength=d)


def concat_fuse(x, y) -> np.ndarray:
    """x's entries followed by y's."""
    return np.concatenate([_as_vector(x), _as_vector(y)])


def average_fuse(x, y) -> np.ndarray:
    """Elementwise mean of two equal-length vectors."""
    x = _as_vector(x)
    y = _as_vector(y)
    if x.size != y.size:
        raise ValueError("average requires equal dims")
    return (x + y) / 2.0


@dataclass(frozen=True)
class FusionSpec:
    """How to combine two feature views: concat, average, or mcb (with sketch config)."""

    scheme: str = "mcb"
    sketch_dim: int = 1024
    seeds: tuple[int, int] = (1, 2)
    normalize: bool = True

    def __post_init__(self):
        if self.scheme not in FUSION_SCHEMES:
            raise ValueError(f"unknown fusion scheme {self.scheme!r}; expected one of {FUSION_SCHEMES}")
        if self.scheme == "mcb":
            if self.sketch_dim < 1:
                raise ValueError("sketch_dim must be >= 1")
            if self.seeds[0] == self.seeds[1]:
                raise ValueError("mcb requires two distinct seeds")

    def sketch_params(self, dim_a: int, dim_b: int) -> tuple[SketchParams, SketchParams]:
        """The hash pair that mcb fusion of dim_a- and dim_b-wide inputs uses."""
        return (
            make_sketch_params(dim_a, self.sketch_dim, self.seeds[0]),
            make_sketch_params(dim_b, self.sketch_dim, self.seeds[1]),
        )


def fuse_rows(a_rows, b_rows, spec: FusionSpec) -> np.ndarray:
    """Apply a FusionSpec row-by-row to two aligned feature batches."""
    a_rows = _as_rows(a_rows)
    b_rows = _as_rows(b_rows)
    if a_rows.shape[0] != b_rows.shape[0]:
        raise ValueError(f"row count mismatch: {a_rows.shape[0]} vs {b_rows.shape[0]}")
    if spec.scheme == "concat":
        return np.concatenate([a_rows, b_rows], axis=1)
    if spec.scheme == "average":
        if a_rows.shape[1] != b_rows.shape[1]:
            raise ValueError("average requires equal dims")
        return (a_rows + b_rows) / 2.0
    px, py = spec.sketch_params(a_rows.shape[1], b_rows.shape[1])
    return mcb_fuse_batch(a_rows, b_rows, px, py, normalize=spec.normalize)
