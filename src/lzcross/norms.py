"""Anisotropic Lorentz-Zygmund norms on periodic grids, and mixed sequence norms.

The scalar norm of a nonnegative profile v sorted on (0,1] is

    ( integral_0^1  v*(t)^tau (1 + |log2 t|)^(alpha tau) t^(tau/p - 1) dt )^(1/tau)

where v* is the decreasing rearrangement.  The multivariate version sorts
the sample magnitudes one axis at a time (axis 0 first) and then applies
the weighted integral per axis, innermost axis first.  The magnitudes are
raised to the first axis's tau before they are sorted, which x -> x^tau
(nondecreasing) leaves exact, so axis 0's integral is a weighted sum of
the rearranged powers (profile_norm).  The sorts along axes 0..m-2 are
taken slab by slab of the last axis and written into one output grid,
whose rows along the last axis are then sorted a block at a time
(iterated_rearrangement).  The samples of a function even in every
variable are given on one orthant (OrthantSamples, or OrthantSlabs drawn a
slab at a time).  The full grid's lane along any axis holds the orthant
lane's N/2 + 1 values, the interior ones twice, so the sorted full lane is
read off the orthant lane sorted at half width (HalfProfile): along a head
axis as the lane is written out, along the last axis when axis 0 is
summed, so each row of the output keeps N/2 + 1 values.  Such a
rearrangement holds half a grid and about two slabs besides its input.
Integrals are taken over the piecewise-constant profile exactly, via
Gauss-Legendre quadrature after the substitution u = -log2 t which makes
the integrand smooth.  So
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
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .indexsets import MultiIndex, RationalLike, as_fraction, as_integer

# the 16-point Gauss-Legendre rule on [-1, 1], numpy.polynomial.legendre's
# leggauss(16) bit for bit (tested), written out so that importing norms
# does not load numpy.polynomial
_GAUSS_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
    -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
    -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
    0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326,
    0.9894009349916499,
])
_GAUSS_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
    0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
    0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
    0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
    0.027152459411754176,
])
_LN2 = math.log(2.0)

# cells of the largest grid whose samples a run measures, and of the largest
# dense sequence box or frequency listing it allocates; an orthant's
# samples are about 1/2^m of their grid's cells, and their rearrangement
# holds half of them
DEFAULT_MAX_GRID_CELLS = 1 << 25


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


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Samples of a periodic function on the uniform product grid.

    values[i1, ..., im] is the sample at x_j = i_j / N_j on the unit torus;
    every N_j is a power of two.  Like the other sample holders it compares
    and hashes by identity (eq=False), as an array has no one truth value.
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
        """The samples of to_json_dict's document; a field of the wrong JSON
        type is refused, naming it."""
        if not isinstance(doc, dict):
            kind = type(doc).__name__
            raise ValueError(f"a grid function must be a JSON object, got {kind}")
        if not isinstance(doc["shape"], list):
            raise ValueError(f"shape must be a list of integers, got {doc['shape']!r}")
        shape = _validated_shape(doc["shape"])
        if as_integer(doc["m"], "m") != len(shape):
            raise ValueError("m does not match shape arity")

        def samples(key: str) -> np.ndarray:
            try:  # a boolean would be read as 1.0 or 0.0
                if any(isinstance(v, bool) for v in np.ravel(np.asarray(doc[key], object))):
                    raise TypeError
                return np.asarray(doc[key], dtype=np.float64).reshape(shape)
            except (TypeError, ValueError):
                cells = math.prod(shape)
                raise ValueError(f"{key} must be a list of {cells} numbers") from None

        re = samples("re")
        im = np.zeros(shape) if doc.get("im") is None else samples("im")
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise ValueError("grid samples must be finite")
        return cls(re + 1j * im)


@dataclass(frozen=True, eq=False)
class OrthantSamples:
    """Samples of a grid function that is even in every variable, on one orthant.

    values[i1, ..., im] with 0 <= i_j <= N_j/2 is the sample at x_j = i_j / N_j
    of the full grid `shape` = (N_1, ..., N_m); the sample at i_j > N_j/2
    equals the one at N_j - i_j.  values may be any strided view.  Compared
    and hashed by identity (eq=False).
    """

    values: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        shape = _validated_shape(self.shape)
        if self.values.shape != tuple(n // 2 + 1 for n in shape):
            raise ValueError("orthant extents must be N_j/2 + 1 on a grid of N_j")
        object.__setattr__(self, "shape", shape)

    def to_grid(self) -> GridFunction:
        """Every sample of the full grid, each index i_j > N_j/2 read at N_j - i_j.

        One fresh C-ordered grid is filled by 2^m slice copies: along each
        axis the orthant indices 0..N_j/2 go in as they are, and the
        interior ones N_j/2 - 1..1, read in reverse, fill N_j/2 + 1..N_j - 1.
        """
        grid = np.empty(self.shape, dtype=self.values.dtype)
        keep = [(slice(n // 2 + 1),) * 2 for n in self.shape]  # (to, at)
        mirror = [(slice(n // 2 + 1, None), slice(n // 2 - 1, 0, -1)) for n in self.shape]
        for part in itertools.product(*zip(keep, mirror)):
            to, at = zip(*part)
            grid[to] = self.values[at]
        return GridFunction(grid)

    def slabs(self, width: int) -> Iterator[np.ndarray]:
        """values[..., i : i + width] for i = 0, width, 2 width, ... in turn."""
        h = self.values.shape[-1]
        return (self.values[..., i : i + width] for i in range(0, h, width))


@dataclass(frozen=True)
class OrthantSlabs:
    """The orthant samples of the grid `shape`, as OrthantSamples would hold
    them, drawn one slab of the last axis at a time instead: slabs(width)
    yields the orthant's values[..., i : i + width] for i = 0, width,
    2 width, ... in turn, each valid until the next is drawn.
    iterated_rearrangement takes them in that order, so the orthant is
    never held whole."""

    slabs: Callable[[int], Iterator[np.ndarray]]
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", _validated_shape(self.shape))


_TILE = 64


def _tiled_copy(dst: np.ndarray, src: np.ndarray) -> None:
    """dst[...] = src, in 64 x 64 tiles of src's fastest axis and the last.

    When those differ, an element-wise copy reads or writes one of them a
    whole row apart; two 64 x 64 tiles fit in cache.  The walk gathers
    lanes this way; it writes its output grid by plain assignment, which
    is faster there.
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


_SLAB_CELLS = 1 << 18  # grid cells per slab or row block of the walk: 2 MB


@dataclass(frozen=True, eq=False)
class HalfProfile:
    """iterated_rearrangement of an orthant (OrthantSamples or OrthantSlabs),
    each row along the last axis kept at the orthant's h = N/2 + 1 values.

    rows has the shape (N_0, ..., N_{m-2}, h); each row S holds the orthant
    row's values, negated and sorted increasingly.  The full grid's row
    holds the values of orthant indices 0 and N/2 once and every other one
    twice.  With lo <= hi those two (negated), E the row S without its
    leftmost copy of hi and O without its leftmost copy of lo, the full
    row, negated and sorted increasingly, is E[0], O[0], E[1], O[1], ...,
    E[N/2-1], O[N/2-1].  drops[..., 0] and drops[..., 1] are, per row, the
    index in S of the entry E and O leave out.  Compared and hashed by
    identity (eq=False).
    """

    rows: np.ndarray
    drops: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        """The full grid's shape."""
        *heads, h = self.rows.shape
        return (*heads, 2 * (h - 1))

    def pairs(self, width: int) -> Iterator[tuple[int, np.ndarray]]:
        """(t, batch) for t = 0, width, 2 width, ... below N/2, width a
        divisor of N/2: batch is a C-contiguous array of the shape
        (N_0, ..., N_{m-2}, 2 width) that holds E[..., t : t + width] and then
        O[..., t : t + width].  The generator drops each batch before it
        gathers the next, so a caller that drops it too holds one at a time.

        A row whose dropped index lies at or past t + width gives S[t : t +
        width], one at or before t gives S[t + 1 : t + width + 1]; both are
        gathered, one window per row, in one pass, and a row whose dropped
        index lies inside the batch is patched before its drop.
        """
        *heads, h = self.rows.shape
        rows = self.rows.reshape(-1, h)
        drops = self.drops.reshape(-1)  # E, O of row 0, then of row 1, ...
        starts = np.repeat(np.arange(0, rows.size, h), 2)  # S[t] of each row
        windows = np.lib.stride_tricks.sliding_window_view(rows.reshape(-1), width)
        for t in range(0, h - 1, width):
            batch = windows[starts + (drops < t + width)]
            for i in np.flatnonzero((t < drops) & (drops < t + width)).tolist():
                cut = int(drops[i]) - t
                batch[i, :cut] = rows[i // 2, t : t + cut]
            yield t, batch.reshape(*heads, 2 * width)
            del batch
            starts += width

    def to_grid(self) -> np.ndarray:
        """The rearrangement of the full grid, as iterated_rearrangement
        returns it for the full grid's samples."""
        half = self.shape[-1] // 2
        ((_, batch),) = self.pairs(half)
        full = np.empty(self.shape)
        np.negative(batch[..., :half], out=full[..., 0::2])
        np.negative(batch[..., half:], out=full[..., 1::2])
        return full


def _count_below(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per row i of rows, sorted increasingly, the number of its entries
    below each entry of x[i] (np.searchsorted(rows[i], x[i])), by one
    bisection over every row at once.  A row is a row of the output grid
    along its last axis or a lane along a head axis."""
    n = rows.shape[1]
    at = np.arange(len(rows))[:, None]
    count = np.zeros(x.shape, dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        probe = np.minimum(count + step, n)
        count = np.where(rows[at, probe - 1] < x, probe, count)
        step >>= 1
    return count


def _half_sort(rows: np.ndarray) -> np.ndarray:
    """Sort an orthant's lanes, the rows (R, N/2 + 1) of rows, in place, in
    blocks of about _SLAB_CELLS cells, each while it is in cache, and
    return HalfProfile's drops (R, 2): per row the index of the leftmost
    copy of hi and of lo, its two endpoint values lo <= hi before the sort,
    by one bisection over every row."""
    ends = np.sort(rows[:, [0, -1]])
    step = max(1, _SLAB_CELLS // rows.shape[1])
    for r in range(0, len(rows), step):
        rows[r : r + step].sort(axis=-1)
    return _count_below(rows, ends[:, ::-1])  # E leaves out hi, O leaves out lo


def _lanes(slab: np.ndarray, axis: int) -> np.ndarray:
    """np.moveaxis(slab, axis, -1), C-contiguous: the view itself when it
    is, else a copy (_tiled_copy)."""
    lanes = np.moveaxis(slab, axis, -1)
    if lanes.flags.c_contiguous:
        return lanes
    gathered = np.empty(lanes.shape)
    _tiled_copy(gathered, lanes)
    return gathered


def _expand_orthant_lanes(lanes: np.ndarray, full: np.ndarray) -> None:
    """The full grid's lanes (..., N), sorted, into full from the orthant's
    lanes (..., N/2 + 1), C-contiguous, which are sorted in place.

    With lo <= hi a lane's two endpoints, E is the sorted lane S without
    its leftmost copy of hi and O without its leftmost copy of lo
    (_half_sort); the full lane is E[0], O[0], E[1], O[1], ...
    (HalfProfile).  E and then O are taken from every lane at once by
    one boolean mask and written to full[..., 0::2] and full[..., 1::2],
    so only one of them is held at a time.
    """
    *lead, h = lanes.shape
    rows = lanes.reshape(-1, h)
    drops = _half_sort(rows)
    keep = np.ones(rows.shape, dtype=bool)
    at = np.arange(len(rows))
    for j, drop in enumerate(drops.T):
        keep[at, drop] = False
        full[..., j::2] = rows[keep].reshape(*lead, h - 1)
        keep[at, drop] = True


def iterated_rearrangement(data, power: float = 1.0):
    """Sort magnitudes**power in decreasing order along axis 0, 1, ..., m-1 in turn.

    x -> x**power is nondecreasing on x >= 0 for a finite power > 0, so the
    result is the power of the rearranged magnitudes, bit for bit; any
    other power raises ValueError, as a decreasing map would reverse the
    sort.  A GridFunction or an array gives an array.  OrthantSamples or
    OrthantSlabs give a HalfProfile, whose to_grid() is the rearrangement
    of data.to_grid(), value for value, without the full grid being
    sampled: every lane along axis a of the full grid holds its orthant
    lane plus the interior entries 1..N_a/2-1 once more.

    The sorts along axes 0..m-2 never mix two indices of the last axis, so
    they are taken slab by slab of that axis, about _SLAB_CELLS grid cells
    each.  A slab's magnitudes are a fresh contiguous array, raised to the
    power there (numpy's strided power loop can differ from the contiguous
    one in the last bit) and negated.  Each sort runs along the contiguous
    last axis of its lanes (a strided sort is several times slower): in
    place where the lanes lie so already, else on a copy (_lanes).  Along
    every head axis an orthant's lanes are sorted at their N_a/2 + 1 values
    and expanded to the full grid's as they are written out
    (_expand_orthant_lanes), into the lanes of the next axis or the output
    grid; a full grid's lanes are sorted whole.  The last head axis's lanes
    go into the output grid by one plain assignment, at the slab's indices
    of the last axis.  The grid is then walked in blocks of about _SLAB_CELLS
    cells of whole rows along its last axis, each sorted while it is in
    cache.  A full grid's block is negated back, so its result is
    C-contiguous and every zero comes back as +0.0.  An orthant's rows keep
    their N/2 + 1 values and stay negated, with the leftmost copies of
    their two values at orthant indices 0 and N/2 (_half_sort).  So
    besides its input the walk holds its output, a grid or half of one, and
    about two slabs.
    """
    power = float(power)
    if not 0.0 < power < math.inf:
        raise ValueError("the power of a rearrangement must be finite and positive")
    orthant = isinstance(data, (OrthantSamples, OrthantSlabs))
    if not orthant:
        values = data.values if isinstance(data, GridFunction) else np.asarray(data)
    *heads, n = data.shape if orthant else values.shape
    h = n // 2 + 1 if orthant else n
    width = max(1, _SLAB_CELLS // math.prod(heads))
    if orthant:
        slabs = data.slabs(width)
    else:
        slabs = (values[..., i : i + width] for i in range(0, n, width))
    out = np.empty((*heads, h))
    i = 0  # not zip: its reused result tuple would keep the last slab drawn
    for slab in slabs:
        slab = np.abs(slab).astype(np.float64, copy=False)
        if power != 1.0:
            try:
                with np.errstate(over="raise"):
                    np.power(slab, power, out=slab)
            except FloatingPointError:
                raise ArithmeticError(
                    f"a sample magnitude to the power {power:g} overflows") from None
        np.negative(slab, out=slab)
        w = slab.shape[-1]
        for axis, n_a in enumerate(heads):
            last = axis + 1 == len(heads)
            lanes = _lanes(slab, axis)
            if orthant:
                if last:
                    full = np.moveaxis(out[..., i : i + w], axis, -1)
                else:
                    full = np.empty(lanes.shape[:-1] + (n_a,))
                _expand_orthant_lanes(lanes, full)
                slab = np.moveaxis(full, -1, axis)
                del full
            else:
                lanes.sort(axis=-1)
                slab = np.moveaxis(lanes, -1, axis)
                if last:
                    out[..., i : i + w] = slab
            del lanes
        if not heads:
            out[..., i : i + w] = slab
        del slab  # before the next one is drawn
        i += w
    rows = out.reshape(-1, h)
    if orthant:
        return HalfProfile(out, _half_sort(rows).reshape(*heads, 2))
    step = max(1, _SLAB_CELLS // h)
    for r in range(0, rows.shape[0], step):
        block = rows[r : r + step]
        block.sort(axis=-1)
        np.negative(block, out=block)
    return out


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


def _orthant_weights(n: int) -> np.ndarray:
    """[1, 2, ..., 2, 1] / n: the share of a grid of n samples that each
    orthant index 0..n/2 stands for."""
    weights = np.full(n // 2 + 1, 2.0 / n)
    weights[0] = weights[-1] = 1.0 / n
    return weights


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
        weights = [_orthant_weights(n) for n in data.shape]
    else:
        values = data.values if isinstance(data, GridFunction) else np.asarray(data)
        weights = [np.full(n, 1.0 / n) for n in _validated_shape(values.shape)]
    order = sorted(range(values.ndim), key=lambda a: -abs(values.strides[a]))
    g = _power_sums(values.transpose(order), weights[order[0]], p, magnitudes=True)
    for axis in order[1:]:
        g = np.tensordot(g, weights[axis], axes=(0, 0))
    return float(g) ** (1.0 / p)


def _orthant_lebesgue_norm(values: np.ndarray, p: float) -> float:
    """L_p norm on a grid of n points of the even samples whose orthant,
    indices 0..n/2, is the 1-D array values, with the bits of
    _lebesgue_norm on the mirrored grid: |v|^p is taken once per orthant
    sample, the powers are mirrored (OrthantSamples.to_grid) and summed
    with the full grid's weights 1/n, the array _lebesgue_norm sums.
    np.power gives a value the same bits at any length or offset of a
    contiguous array, so the mirrored powers are the powers of the
    mirrored samples."""
    n = 2 * (len(values) - 1)
    powers = np.abs(values)
    np.power(powers, p, out=powers)
    mirrored = OrthantSamples(powers, (n,)).to_grid().values
    return float(np.tensordot(mirrored, np.full(n, 1.0 / n), axes=(0, 0))) ** (1.0 / p)


def anisotropic_norm(f, params: MixedSpaceParams) -> float:
    """Mixed Lorentz-Zygmund norm of grid samples.

    Magnitudes are raised to tau_0 and rearranged axis by axis, then
    measured by profile_norm; in a plain L_p space
    (params.lebesgue_index()) they are summed unsorted, which OrthantSlabs,
    drawn for a rearrangement, cannot be.
    """
    p = params.lebesgue_index()
    if p is None:
        return profile_norm(iterated_rearrangement(f, params.axes[0].tau), params)
    if isinstance(f, OrthantSlabs):
        raise TypeError("orthant slabs are only rearranged; sum OrthantSamples")
    if np.ndim(getattr(f, "values", f)) != params.m:
        raise ValueError("parameter arity does not match grid dimension")
    return _lebesgue_norm(f, float(p))


def profile_norm(prof, params: MixedSpaceParams) -> float:
    """Mixed Lorentz-Zygmund norm from the iterated rearrangement of the
    magnitudes' tau_0-th powers, iterated_rearrangement(f, tau_0): an array,
    or a HalfProfile.

    The weighted tau_j integral is applied per axis, axis 0 innermost.  On
    axis 0 it is one weighted sum of prof, read in place when prof is a
    C-contiguous array.  A HalfProfile of two or more axes is summed one
    fresh contiguous batch of its E and O columns at a time
    (HalfProfile.pairs, about _COLUMNS columns), and the sums of its
    negated values are interleaved and negated back; a sum of negated
    terms is the negated sum, so the result matches the full profile's
    sum bit for bit.  On every later axis it is a weighted sum of the
    tau_j-th powers of the previous axis's roots.  Each root is taken on an
    ndarray, as numpy's float64 scalar power can differ from it in the last
    bit.
    """
    shape = prof.shape
    if len(shape) != params.m:
        raise ValueError("parameter arity does not match grid dimension")
    first, *rest = params.axes
    w = cell_weights(shape[0], first)
    if isinstance(prof, HalfProfile) and len(shape) > 1:
        # about _COLUMNS columns of prof.reshape(N_0, -1) per batch, as in
        # _power_sums: a power of two, so at least 4 unless the batch is the
        # whole profile.  BLAS sums 4 columns per vector, and a column
        # outside a vector would be summed another way
        per_index = math.prod(shape[1:-1])  # columns per last-axis index
        width = 1 << (max(1, _COLUMNS // (2 * per_index)).bit_length() - 1)
        width = min(width, shape[-1] // 2)
        g = np.empty(shape[1:])
        for t, batch in prof.pairs(width):
            sums = np.tensordot(batch, w, axes=(0, 0))
            del batch  # before the next one is gathered
            g[..., 2 * t : 2 * (t + width) : 2] = sums[..., :width]
            g[..., 2 * t + 1 : 2 * (t + width) : 2] = sums[..., width:]
        np.negative(g, out=g)
    else:
        if isinstance(prof, HalfProfile):
            prof = prof.to_grid()
        g = np.tensordot(prof, w, axes=(0, 0))
    g = g ** (1.0 / first.tau)
    for ax in rest:
        g = _power_sums(g, cell_weights(g.shape[0], ax), ax.tau) ** (1.0 / ax.tau)
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


def _check_cells(what: str, dims: tuple[int, ...]) -> None:
    """Refuse a dense array of shape dims above DEFAULT_MAX_GRID_CELLS cells,
    before it is allocated."""
    cells = math.prod(dims)
    if cells > DEFAULT_MAX_GRID_CELLS:
        raise ValueError(
            f"{what} {dims} needs {cells} cells, beyond the cell budget of "
            f"{DEFAULT_MAX_GRID_CELLS} (DEFAULT_MAX_GRID_CELLS)"
        )


def mixed_sequence_norm(
    values: Mapping[MultiIndex, float], thetas: Sequence[float]
) -> float:
    """Iterated sequence norm of a finitely supported map from level vectors,
    taken on a dense box up to its largest level per axis (_check_cells)."""
    thetas = _exponents(thetas)
    if not values:
        return 0.0
    m = len(thetas)
    support = [tuple(int(c) for c in s) for s in values]
    if any(len(s) != m or min(s) < 0 for s in support):
        raise ValueError("support entries must be nonnegative of matching arity")
    dims = tuple(max(s[j] for s in support) + 1 for j in range(m))
    _check_cells("the sequence array", dims)
    arr = np.zeros(dims)
    for s, x in zip(support, values.values()):
        x = float(x)
        if not math.isfinite(x) or x < 0.0:
            raise ValueError("sequence values must be finite and nonnegative")
        arr[s] = x
    return mixed_reduce(arr, thetas)
