"""Count-sketch fusion: compact bilinear pooling plus concat/average baselines.

The bilinear route sketches each modality with an independent signed hash and
circularly convolves the two sketches; the result equals a count sketch of the
full outer product without ever materializing it.  ``outer_sketch_oracle``
materializes that outer product and sketches it directly, so the identity can
be verified at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _split

FUSION_SCHEMES = ("concat", "average", "mcb")

_MASK64 = 0xFFFFFFFFFFFFFFFF
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, count: int, start: int = 0) -> np.ndarray:
    """``count`` words of the splitmix64 stream for ``seed``, after its first ``start``.

    Fixed mixer so hash parameters and training streams regenerate identically on
    every platform and numpy version; all arithmetic wraps modulo 2**64.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if start < 0:
        raise ValueError("start must be nonnegative")
    steps = np.arange(start + 1, start + count + 1, dtype=np.uint64)
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
    # the support_mask of this hash with the last one it was paired with, by that object
    _support: dict = field(default_factory=dict, init=False, repr=False)


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


def _as_vectors(values, batch: bool = True) -> np.ndarray:
    """values as float64: one vector or, with ``batch``, a 2-d batch of row vectors."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 and not (batch and arr.ndim == 2):
        expected = "a 1-d vector or a 2-d batch of vectors" if batch else "a 1-d vector"
        raise ValueError(f"expected {expected}, got shape {arr.shape}")
    return arr


def count_sketch(x, params: SketchParams) -> np.ndarray:
    """Project x into sketch_dim buckets: out[j] = sum over h[i]=j of s[i]*x[i].

    x is one vector or a batch of row vectors; the sketch runs along the last axis.
    """
    x = _as_vectors(x)
    if x.shape[-1] != params.input_dim:
        raise ValueError(
            f"input dim {x.shape[-1]} does not match sketch input_dim {params.input_dim}"
        )
    out = np.zeros(x.shape[:-1] + (params.sketch_dim,))
    np.add.at(out.T, params.h, (x * params.s).T)
    return out


def circular_convolve(a, b) -> np.ndarray:
    """Circular convolution out[j] = sum_i a[i] * b[(j - i) mod d] along the last axis.

    a and b are two vectors or two row batches of the same shape.  Computed for
    every length d as one real FFT product, ``irfft(rfft(a) * rfft(b))``.
    """
    a = _as_vectors(a)
    b = _as_vectors(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    freq = np.fft.rfft(a, axis=-1) * np.fft.rfft(b, axis=-1)
    return np.fft.irfft(freq, n=a.shape[-1], axis=-1)


def circular_convolve_naive(a, b) -> np.ndarray:
    """Plain O(d^2) circular convolution, kept independent as the reference oracle."""
    a = _as_vectors(a, batch=False)
    b = _as_vectors(b, batch=False)
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
        raise ValueError(f"sketch dims must match: {px.sketch_dim} vs {py.sketch_dim}")
    if px.seed & _MASK64 == py.seed & _MASK64:  # splitmix64 reads a seed modulo 2**64
        raise ValueError("the two sketches must use distinct seeds")


def _signed_sqrt_l2(values: np.ndarray) -> np.ndarray:
    values = np.sign(values) * np.sqrt(np.abs(values))
    norms = np.linalg.norm(values, axis=-1, keepdims=True)
    return values / np.where(norms == 0.0, 1.0, norms)


def support_mask(px: SketchParams, py: SketchParams) -> np.ndarray:
    """Buckets of the fused sketch that some pair hash (px.h[i] + py.h[j]) mod d reaches.

    The mask is read-only and kept on ``px`` for its last partner: asked again for
    the same two objects, it is the same array, so a table fused block by block
    builds it once.

    Every other bucket of ``mcb_fuse_batch`` is exactly zero for any input.  The
    number of pairs that reach each bucket is the circular convolution of the two
    bucket counts (the count-sketch identity applied to the hashes themselves), so
    no (dim_a, dim_b) pair matrix is made.  Those numbers are integers; the FFT's
    round-off, at most of order eps * log2(d) * dim_a * dim_b (2e-9 at 2048 x 300
    and d=16000, where about 1e-11 is measured), stays far below the 0.5 at which a
    bucket counts as reached.
    """
    reachable = px._support.get(py)
    if reachable is None:
        _check_pair(px, py)
        counts = [np.bincount(p.h, minlength=p.sketch_dim) for p in (px, py)]
        reachable = circular_convolve(*counts) > 0.5
        reachable.flags.writeable = False
        px._support.clear()  # one partner's mask at a time, however many px meets
        px._support[py] = reachable
    return reachable


def mcb_fuse_batch(xs, ys, px: SketchParams, py: SketchParams, normalize: bool = True) -> np.ndarray:
    """Compact bilinear fusion: convolve the count sketches of xs and ys.

    xs and ys are one vector each or two batches with the same number of rows.
    Each output row equals a count sketch of the outer product x (x) y under
    the pair hash h(i,j) = (px.h[i] + py.h[j]) mod d, s(i,j) = px.s[i] * py.s[j].
    Buckets outside ``support_mask(px, py)`` are set to exactly 0.0, so FFT
    round-off never shows up where the sketch has no support.  With
    ``normalize`` each row is passed through elementwise signed square root and
    then L2-normalized (a zero row is left unchanged).
    """
    reachable = support_mask(px, py)
    fused = circular_convolve(count_sketch(xs, px), count_sketch(ys, py))
    fused[..., ~reachable] = 0.0
    if normalize:
        fused = _signed_sqrt_l2(fused)
    return fused


def outer_sketch_oracle(x, y, px: SketchParams, py: SketchParams) -> np.ndarray:
    """Sketch the materialized outer product directly. Verification only: O(n1*n2)."""
    _check_pair(px, py)
    x = _as_vectors(x, batch=False)
    y = _as_vectors(y, batch=False)
    if x.size != px.input_dim:
        raise ValueError(f"input dim {x.size} does not match sketch input_dim {px.input_dim}")
    if y.size != py.input_dim:
        raise ValueError(f"input dim {y.size} does not match sketch input_dim {py.input_dim}")
    d = px.sketch_dim
    pair_h = (px.h[:, np.newaxis] + py.h[np.newaxis, :]) % d
    pair_s = px.s[:, np.newaxis] * py.s[np.newaxis, :]
    weights = pair_s * np.outer(x, y)
    return np.bincount(pair_h.ravel(), weights=weights.ravel(), minlength=d)


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
            if self.seeds[0] & _MASK64 == self.seeds[1] & _MASK64:  # as splitmix64 reads them
                raise ValueError("mcb requires two distinct seeds")

    def out_dim(self, dim_a: int, dim_b: int) -> int:
        """The width of ``fuse_rows``' output for dim_a- and dim_b-wide inputs."""
        return {"concat": dim_a + dim_b, "average": dim_a, "mcb": self.sketch_dim}[self.scheme]

    def sketch_params(self, dim_a: int, dim_b: int) -> tuple[SketchParams, SketchParams]:
        """The hash pair that mcb fusion of dim_a- and dim_b-wide inputs uses, made anew."""
        return (make_sketch_params(dim_a, self.sketch_dim, self.seeds[0]),
                make_sketch_params(dim_b, self.sketch_dim, self.seeds[1]))


def fuse_rows(a_rows, b_rows, spec: FusionSpec) -> np.ndarray:
    """Apply a FusionSpec along the last axis of two aligned vectors or row batches.

    concat puts a's entries before b's, average takes the elementwise mean of
    equal-width inputs, and mcb is ``mcb_fuse_batch`` with ``spec.sketch_params``, made
    per call: ``fuse_tables`` fuses a whole table with one pair.
    """
    a_rows = _as_vectors(a_rows)
    b_rows = _as_vectors(b_rows)
    if a_rows.shape[:-1] != b_rows.shape[:-1]:
        raise ValueError(f"row count mismatch: {a_rows.shape[:-1]} vs {b_rows.shape[:-1]}")
    if spec.scheme == "concat":
        return np.concatenate([a_rows, b_rows], axis=-1)
    if spec.scheme == "average":
        if a_rows.shape[-1] != b_rows.shape[-1]:
            raise ValueError("average requires equal dims")
        return (a_rows + b_rows) / 2.0
    px, py = spec.sketch_params(a_rows.shape[-1], b_rows.shape[-1])
    return mcb_fuse_batch(a_rows, b_rows, px, py, normalize=spec.normalize)


def fuse_tables(a, b, b_rows, spec: FusionSpec) -> tuple[np.ndarray, float | None]:
    """Row i of the output fuses ``a[i]`` with ``b[b_rows[i]]``; beside it, mcb's occupancy.

    Filled one ``_split`` block of rows at a time, so no reordered copy of b and no
    temporary as large as the output is made.  mcb makes its hash pair once, and the
    occupancy is the share of buckets its ``support_mask`` holds; else it is None.
    """
    fused = np.empty((len(a), spec.out_dim(a.shape[1], b.shape[1])))
    blocks = _split.blocks(0, len(fused), fused.shape[1])
    if spec.scheme != "mcb":
        for block in blocks:
            fused[block] = fuse_rows(a[block], b[b_rows[block]], spec)
        return fused, None
    px, py = spec.sketch_params(a.shape[1], b.shape[1])
    for block in blocks:
        fused[block] = mcb_fuse_batch(a[block], b[b_rows[block]], px, py, normalize=spec.normalize)
    return fused, float(support_mask(px, py).mean())
