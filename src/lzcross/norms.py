"""Anisotropic Lorentz-Zygmund norms on periodic grids, and mixed sequence norms.

The scalar norm of a nonnegative profile v sorted on (0,1] is

    ( integral_0^1  v*(t)^tau (1 + |log2 t|)^(alpha tau) t^(tau/p - 1) dt )^(1/tau)

where v* is the decreasing rearrangement.  The multivariate version sorts
the sample magnitudes one axis at a time (axis 0 first) and then applies
the weighted integral per axis, innermost axis first.  Integrals are taken
over the piecewise-constant profile exactly, via Gauss-Legendre quadrature
after the substitution u = -log2 t which makes the integrand smooth.  So
every norm here is the norm of the sample step function, constant on each
grid cell, and not the norm of a polynomial between its samples.

A space with alpha = 0 and tau = p on every axis, with one p, is plain L_p
(MixedSpaceParams.lebesgue_index).  Its norm does not depend on the order of
the samples, so they are measured unsorted, as (sum_i w_i |v_i|^p)^(1/p)
with the weights w_i = prod_j 1/N_j: the exact L_p norm of the same step
function, with no quadrature.

Everything here is a pure function of its arguments; quadrature weights are
memoized per (N, p, alpha, tau).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .indexsets import MultiIndex, RationalLike, as_fraction, as_integer

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)
_LN2 = math.log(2.0)

DEFAULT_MAX_GRID_CELLS = 1 << 25  # largest dense grid or box a run allocates


@dataclass(frozen=True)
class ScalarSpaceParams:
    """One axis of the target space: primary index p, log exponent alpha, fine index tau.

    p is kept as an exact rational because ratios of expressions in 1/p
    later decide set membership; alpha and tau only ever enter quadrature
    weights and stay floats.
    """

    p: Fraction
    alpha: float
    tau: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", as_fraction(self.p))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "tau", float(self.tau))
        if not 1 < self.p:
            raise ValueError("p must exceed 1")
        if not 1.0 < self.tau < math.inf:
            raise ValueError("tau must lie in (1, infinity)")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")


@dataclass(frozen=True)
class MixedSpaceParams:
    """Per-axis scalar space parameters for the anisotropic mixed norm."""

    axes: tuple[ScalarSpaceParams, ...]

    def __post_init__(self) -> None:
        if len(self.axes) == 0:
            raise ValueError("at least one axis required")

    @classmethod
    def of(
        cls,
        p: Sequence[RationalLike],
        alpha: Sequence[float],
        tau: Sequence[float],
    ) -> "MixedSpaceParams":
        if not (len(p) == len(alpha) == len(tau)):
            raise ValueError("parameter lists must share one length")
        return cls(
            tuple(
                ScalarSpaceParams(as_fraction(pj), aj, tj)
                for pj, aj, tj in zip(p, alpha, tau)
            )
        )

    @property
    def m(self) -> int:
        return len(self.axes)

    def lebesgue_index(self) -> Fraction | None:
        """p when the space is plain L_p: one p, alpha = 0 and tau = p on every axis.

        tau is compared with float(p), the p the cell weights are taken
        with, so a space qualifies exactly when its weight t^(tau/p - 1)
        is t^0 there too.
        """
        p = self.axes[0].p
        if all(
            ax.p == p and ax.alpha == 0.0 and ax.tau == float(p) for ax in self.axes
        ):
            return p
        return None

    def is_plain_l2(self) -> bool:
        return self.lebesgue_index() == 2


def _validated_shape(shape: Sequence[int]) -> tuple[int, ...]:
    shape = tuple(as_integer(n, "shape entry") for n in shape)
    for n in shape:
        if n < 2 or n & (n - 1):
            raise ValueError("axis sample counts must be powers of two, at least 2")
    return shape


@dataclass(frozen=True)
class GridFunction:
    """Samples of a periodic function on the uniform product grid.

    values[i1, ..., im] is the sample at x_j = i_j / N_j on the unit torus;
    every N_j is a power of two.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.dtype.kind not in "fc":
            arr = arr.astype(np.complex128)
        _validated_shape(arr.shape)
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def to_json_dict(self) -> dict:
        arr = np.asarray(self.values, dtype=np.complex128)
        return {
            "m": self.m,
            "shape": list(self.shape),
            "re": [float(x) for x in arr.real.ravel()],
            "im": [float(x) for x in arr.imag.ravel()],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GridFunction":
        shape = _validated_shape(doc["shape"])
        if as_integer(doc["m"], "m") != len(shape):
            raise ValueError("m does not match shape arity")
        re = np.asarray(doc["re"], dtype=np.float64).reshape(shape)
        im_raw = doc.get("im")
        im = (
            np.zeros(shape)
            if im_raw is None
            else np.asarray(im_raw, dtype=np.float64).reshape(shape)
        )
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise ValueError("grid samples must be finite")
        return cls(re + 1j * im)


@dataclass(frozen=True)
class OrthantSamples:
    """Samples of a grid function that is even in every variable, on one orthant.

    values[i1, ..., im] with 0 <= i_j <= N_j/2 is the sample at x_j = i_j / N_j
    of the full grid `shape` = (N_1, ..., N_m); the sample at i_j > N_j/2
    equals the one at N_j - i_j.  values may be any strided view.
    """

    values: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        shape = _validated_shape(self.shape)
        if self.values.shape != tuple(n // 2 + 1 for n in shape):
            raise ValueError("orthant extents must be N_j/2 + 1 on a grid of N_j")
        object.__setattr__(self, "shape", shape)

    def to_grid(self) -> GridFunction:
        """Every sample of the full grid, each index i_j > N_j/2 read at N_j - i_j."""
        folds = [np.r_[0 : n // 2 + 1, n // 2 - 1 : 0 : -1] for n in self.shape]
        return GridFunction(self.values[np.ix_(*folds)])


_TILE = 64


def _tiled_copy(dst: np.ndarray, src: np.ndarray) -> None:
    """dst[...] = src, in 64 x 64 tiles of src's fastest axis and the last.

    When those differ, an element-wise copy reads or writes one of them a
    whole row apart; two 64 x 64 tiles fit in cache.
    """
    fast = int(np.argmin(np.abs(src.strides)))
    if fast == src.ndim - 1:
        dst[...] = src
        return
    src, dst = np.moveaxis(src, fast, -2), np.moveaxis(dst, fast, -2)
    for i in range(0, src.shape[-2], _TILE):
        for j in range(0, src.shape[-1], _TILE):
            tile = (..., slice(i, i + _TILE), slice(j, j + _TILE))
            dst[tile] = src[tile]


def iterated_rearrangement(data) -> np.ndarray:
    """Sort magnitudes in decreasing order along axis 0, 1, ..., m-1 in turn.

    The fresh magnitude array is negated, sorted in place in increasing
    order and negated back, so no sorted copy is made and the result stays
    C-contiguous; a view reversed on every axis would make the powers taken
    of it later several times slower.  Magnitudes are nonnegative, so every
    zero comes back as +0.0.

    data may also be OrthantSamples, whose rearrangement is that of
    data.to_grid(), value for value, without the full grid being sampled:
    every lane along axis a of the full grid holds its orthant lane plus the
    interior entries 1..N_a/2-1 once more, so each pass appends those
    slices along axis a before it sorts.  The copy that appends them also
    makes axis a the contiguous last axis: a strided sort is several times
    slower.
    """
    if isinstance(data, OrthantSamples):
        arr = np.abs(data.values).astype(np.float64, copy=False)
        np.negative(arr, out=arr)
        for axis, n in enumerate(data.shape):
            lanes = np.moveaxis(arr, axis, -1)
            h = lanes.shape[-1]
            arr = np.empty(lanes.shape[:-1] + (n,))
            _tiled_copy(arr[..., :h], lanes)
            del lanes
            arr[..., h:] = arr[..., 1 : h - 1]
            arr.sort(axis=-1)
            arr = np.moveaxis(arr, -1, axis)
        return np.negative(arr, out=arr)
    values = data.values if isinstance(data, GridFunction) else np.asarray(data)
    arr = np.abs(values).astype(np.float64, copy=False)
    np.negative(arr, out=arr)
    for axis in range(arr.ndim):
        arr.sort(axis=axis)
    return np.negative(arr, out=arr)


_UNIT_WINDOWS = 20000
_DOUBLING_WINDOWS = 64
_CELL_CHUNK = 8192  # cells per batch of Gauss-Legendre nodes: 1 MB per temporary


@functools.lru_cache(maxsize=128)
def _cell_weights(n_cells: int, p: float, alpha: float, tau: float) -> np.ndarray:
    """Integral of (1+|log2 t|)^(alpha tau) t^(tau/p-1) over each cell (i/N, (i+1)/N].

    In u = -log2 t the integrand is ln2 (1+u)^(alpha tau) 2^(-u tau/p) on a
    finite interval per cell, handled by 16-point Gauss-Legendre in batches
    of _CELL_CHUNK cells, so the temporaries do not grow with N.  The first
    cell reaches u = infinity and is summed over unit windows, then over
    doubling windows once 20,000 unit windows do not suffice, until the
    remainder is negligible.  A tail that does not converge to a finite
    value raises ArithmeticError rather than returning a truncated weight.
    """
    a, d = alpha * tau, tau / p

    def seg(mid: np.ndarray, half: np.ndarray) -> np.ndarray:
        u = mid[..., None] + half[..., None] * _GAUSS_NODES
        vals = (1.0 + u) ** a * np.exp2(-u * d)
        return _LN2 * half * (vals @ _GAUSS_WEIGHTS)

    # cell i spans u in [log2(N/(i+1)), log2(N/i)]; its width log2(1 + 1/i)
    # is taken directly, as the difference of the two ends would cancel to
    # about N * 2^-52 relative
    weights = np.empty(n_cells)
    for start in range(1, n_cells, _CELL_CHUNK):
        i = np.arange(start, min(start + _CELL_CHUNK, n_cells), dtype=np.float64)
        half = 0.5 * np.log1p(1.0 / i) / _LN2
        weights[start : start + len(i)] = seg(np.log2(n_cells / (i + 1.0)) + half, half)

    # first cell: unit windows from u0 = log2 N, then doubling windows, until
    # the tail is negligible
    total = 0.0
    lo, width = math.log2(n_cells), 1.0
    for step in range(_UNIT_WINDOWS + _DOUBLING_WINDOWS):
        if step >= _UNIT_WINDOWS:
            width *= 2.0
        hi = lo + width
        piece = float(seg(np.array([0.5 * (hi + lo)]), np.array([0.5 * (hi - lo)]))[0])
        total += piece
        converged = piece <= 1e-18 * total and step >= 2
        if converged:
            break
        lo += width
    if not (converged and math.isfinite(total)):
        raise ArithmeticError(
            f"first-cell weight did not converge (p={p}, alpha={alpha}, tau={tau})"
        )
    weights[0] = total
    weights.setflags(write=False)
    return weights


def cell_weights(n_cells: int, params: ScalarSpaceParams) -> np.ndarray:
    (n_cells,) = _validated_shape((n_cells,))
    return _cell_weights(n_cells, float(params.p), params.alpha, params.tau)


_COLUMNS = 256  # columns per batch of powers: N_0 x 256 floats per temporary


def _power_sums(
    g: np.ndarray, w: np.ndarray, power: float, magnitudes: bool = False
) -> np.ndarray:
    """sum_i w_i g[i, ...]**power, as np.tensordot(g**power, w, axes=(0, 0));
    of |g| when magnitudes is set.

    An array of two or more axes is reduced in batches of _COLUMNS columns
    of g.reshape(N_0, -1), so no power of the whole grid is ever held; on
    C-contiguous profiles the sums match the tensordot of the whole grid
    bit for bit.
    """

    def powers(x: np.ndarray) -> np.ndarray:
        if not magnitudes:
            return x**power
        x = np.abs(x)
        return np.power(x, power, out=x)

    if g.ndim == 1:
        return np.tensordot(powers(g), w, axes=(0, 0))
    cols = g.reshape(g.shape[0], -1)
    out = np.empty(cols.shape[1])
    for j in range(0, cols.shape[1], _COLUMNS):
        out[j : j + _COLUMNS] = np.tensordot(
            powers(cols[:, j : j + _COLUMNS]), w, axes=(0, 0)
        )
    return out.reshape(g.shape[1:])


def _lebesgue_norm(data, p: float) -> float:
    """(sum_i w_i |v_i|^p)^(1/p) over the samples v of a grid, unsorted.

    w_i = prod_j 1/N_j; an OrthantSamples index stands for the 1 or 2 grid
    indices it mirrors along each axis, so its weights per axis are
    [1, 2, ..., 2, 1] / N_j and the full grid is never built.  The axis
    slowest in memory is reduced first, so each batch of powers reads
    contiguous rows.
    """
    if isinstance(data, OrthantSamples):
        values = data.values
        weights = [np.r_[1.0, np.full(n // 2 - 1, 2.0), 1.0] / n for n in data.shape]
    else:
        values = data.values if isinstance(data, GridFunction) else np.asarray(data)
        weights = [np.full(n, 1.0 / n) for n in _validated_shape(values.shape)]
    order = sorted(range(values.ndim), key=lambda a: -abs(values.strides[a]))
    g = _power_sums(values.transpose(order), weights[order[0]], p, magnitudes=True)
    for axis in order[1:]:
        g = np.tensordot(g, weights[axis], axes=(0, 0))
    return float(g) ** (1.0 / p)


def anisotropic_norm(f, params: MixedSpaceParams) -> float:
    """Mixed Lorentz-Zygmund norm of grid samples.

    Magnitudes are rearranged axis by axis, then measured by profile_norm;
    in a plain L_p space (params.lebesgue_index()) they are summed unsorted.
    """
    p = params.lebesgue_index()
    if p is None:
        return profile_norm(iterated_rearrangement(f), params)
    if np.ndim(getattr(f, "values", f)) != params.m:
        raise ValueError("parameter arity does not match grid dimension")
    return _lebesgue_norm(f, float(p))


def profile_norm(prof: np.ndarray, params: MixedSpaceParams) -> float:
    """Mixed Lorentz-Zygmund norm of an iterated rearrangement.

    The weighted tau_j integral is applied per axis, axis 0 innermost; prof
    is read, never written, and its powers are taken a batch of columns at
    a time.
    """
    if prof.ndim != params.m:
        raise ValueError("parameter arity does not match grid dimension")
    g = prof
    for ax in params.axes:
        w = cell_weights(g.shape[0], ax)
        g = _power_sums(g, w, ax.tau) ** (1.0 / ax.tau)
    return float(g)


def _exponents(thetas: Sequence[float]) -> tuple[float, ...]:
    """Sequence-norm exponents as floats: at least one, each positive (inf allowed)."""
    thetas = tuple(float(t) for t in thetas)
    if not thetas:
        raise ValueError("at least one exponent required")
    if any(not t > 0.0 for t in thetas):
        raise ValueError("sequence exponents must be positive (inf allowed)")
    return thetas


def mixed_reduce(values: np.ndarray, thetas: Sequence[float]) -> float:
    """Iterated sequence norm of a dense nonnegative array, axis 0 innermost.

    Finite exponents theta contribute (sum x^theta)^(1/theta); infinite ones
    contribute the maximum.  Exponents below 1 give the usual quasi-norm.
    """
    thetas = _exponents(thetas)
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != len(thetas):
        raise ValueError("exponent arity does not match array dimension")
    if arr.size == 0:
        return 0.0
    if float(arr.min()) < 0.0:
        raise ValueError("sequence entries must be nonnegative")
    for theta in thetas:
        arr = arr.max(axis=0) if math.isinf(theta) else (arr**theta).sum(axis=0) ** (1.0 / theta)
    return float(arr)


def mixed_sequence_norm(
    values: Mapping[MultiIndex, float], thetas: Sequence[float]
) -> float:
    """Iterated sequence norm of a finitely supported map from level vectors."""
    thetas = _exponents(thetas)
    if not values:
        return 0.0
    m = len(thetas)
    support = [tuple(int(c) for c in s) for s in values]
    if any(len(s) != m or min(s) < 0 for s in support):
        raise ValueError("support entries must be nonnegative of matching arity")
    dims = tuple(max(s[j] for s in support) + 1 for j in range(m))
    arr = np.zeros(dims)
    for s, x in zip(support, values.values()):
        x = float(x)
        if not math.isfinite(x) or x < 0.0:
            raise ValueError("sequence values must be finite and nonnegative")
        arr[s] = x
    return mixed_reduce(arr, thetas)
