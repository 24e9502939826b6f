"""Trigonometric polynomials: synthesis, analysis, block and cross truncation.

A spectral function is a finite set of integer frequency vectors with
complex coefficients, representing sum_k a_k exp(i <k, x>) with x on the
2 pi-periodic torus sampled at x_j = 2 pi i_j / N_j.  Synthesis and
analysis ride on the FFT; truncation sets are decided by the exact integer
arithmetic of indexsets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .indexsets import (
    Anisotropy,
    FrequencyIndex,
    MultiIndex,
    RationalLike,
    as_integer,
    axis_block,
    block_levels,
    cartesian_rows,
    cross_membership,
)
from .norms import (
    GridFunction,
    MixedSpaceParams,
    OrthantSamples,
    _orthant_weights,
    _validated_shape,
    anisotropic_norm,
)

Product = tuple[complex, list[np.ndarray]]  # (c, [K_1, ..., K_m]): product_factors


@dataclass(frozen=True)
class GridSpec:
    """Target sampling grid; every axis count is a power of two."""

    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", _validated_shape(self.shape))

    @property
    def m(self) -> int:
        return len(self.shape)

    @property
    def cells(self) -> int:
        return math.prod(self.shape)

    @classmethod
    def minimal_for(cls, bandwidth: Sequence[int]) -> "GridSpec":
        """Smallest power-of-two grid resolving the given per-axis bandwidth."""
        bw = tuple(int(b) for b in bandwidth)
        return cls(tuple(max(2, 1 << (2 * b + 1).bit_length()) for b in bw))


class SpectralFunction:
    """Finite trigonometric polynomial as frequency rows and their coefficients.

    Row i of the (N, m) int64 matrix `freqs` carries the coefficient
    `coeffs[i]`; rows keep the order they were given in, exact zeros are
    dropped and every coefficient must be finite.  `terms` is a {k: a}
    mapping or a (freqs, coeffs) pair of arrays whose rows are distinct.
    Every component must satisfy |k_j| < 2**63: -2**63 is the one int64
    whose absolute value, and so whose block level, does not fit in int64.
    Both arrays are fresh copies and read-only, so what is found out about
    them once, such as the sign symmetry, stays true.
    """

    def __init__(
        self, m: int, terms: Mapping[FrequencyIndex, complex] | tuple | None = None
    ) -> None:
        if terms is None or isinstance(terms, Mapping):
            terms = terms or {}
            if any(len(k) != m for k in terms):
                raise ValueError("frequency arity does not match m")
            terms = (list(terms), list(terms.values()))
        coeffs = np.asarray(terms[1], dtype=np.complex128)
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        try:
            freqs = np.asarray(terms[0], dtype=np.int64).reshape(len(coeffs), m)
            if (freqs == np.iinfo(np.int64).min).any():
                raise OverflowError
        except OverflowError:
            raise ValueError(
                "frequency components must satisfy |k_j| < 2**63"
            ) from None
        nonzero = coeffs != 0
        self.m, self.freqs, self.coeffs = m, freqs[nonzero], coeffs[nonzero]
        self.freqs.setflags(write=False)
        self.coeffs.setflags(write=False)

    @property
    def coefficients(self) -> dict[FrequencyIndex, complex]:
        """The frequency -> coefficient map, in row order."""
        return dict(zip(map(tuple, self.freqs.tolist()), self.coeffs.tolist()))

    def items(self) -> list[tuple[FrequencyIndex, complex]]:
        return sorted(self.coefficients.items())

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    def bandwidth(self) -> tuple[int, ...]:
        return tuple(np.abs(self.freqs).max(axis=0, initial=0).tolist())

    @functools.cached_property
    def sign_symmetric(self) -> bool:
        """Whether every coefficient is real and each single-axis sign flip
        maps the rows onto themselves, coefficient bits included.

        Rows are grouped by |k|; each group must be the whole orbit of |k|,
        2**(nonzero components of k) distinct sign patterns, under one
        coefficient bit pattern.  The answer is found once per polynomial.
        """
        if self.coeffs.imag.any():
            return False
        mags = np.abs(self.freqs)
        signs = (self.freqs < 0) @ (1 << np.arange(self.m, dtype=np.int64))
        bits = self.coeffs.real.view(np.int64)
        order = np.lexsort((signs, bits, *mags.T[::-1]))
        mags, signs, bits = mags[order], signs[order], bits[order]
        first = np.ones(len(order), dtype=bool)  # first row of its |k| group
        first[1:] = (mags[1:] != mags[:-1]).any(axis=1)
        inside = ~first[1:]
        starts = np.flatnonzero(first)
        sizes = np.diff(np.r_[starts, len(order)])
        return (
            np.array_equal(sizes, 1 << np.count_nonzero(mags[starts], axis=1))
            and bool((bits[1:] == bits[:-1])[inside].all())
            and bool((signs[1:] != signs[:-1])[inside].all())
        )

    @functools.cached_property
    def product_blocks(self) -> dict[MultiIndex, Product] | None:
        """{level: product_factors of the block's row arrays} over the
        nonzero blocks of f, in the order of block_rows, when every block is
        a constant on a product support; None as soon as one is not.
        Found once per polynomial; it keeps only the axis sets, not the
        blocks' rows."""
        out = {}
        for s, rows in block_rows(self).items():
            product = product_factors(self.freqs[rows], self.coeffs[rows])
            if product is None:
                return None
            out[s] = product
        return out

    def scaled(self, c: complex) -> "SpectralFunction":
        return SpectralFunction(self.m, (self.freqs, c * self.coeffs))

    def restrict(self, keep: np.ndarray) -> "SpectralFunction":
        """The rows selected by keep: a boolean mask (f itself if it keeps
        every row, as the arrays are read-only) or an array of row numbers."""
        if keep.dtype == bool and keep.shape == (self.n_terms,) and keep.all():
            return self
        return SpectralFunction(self.m, (self.freqs[keep], self.coeffs[keep]))

    def l2_norm(self) -> float:
        """Coefficient l2 norm; equals the mean-square norm of the samples.

        Each |a|^2 is re*re + im*im, and the terms are added one after another
        in row order, so the value does not depend on numpy's summation order.
        A sum of squares beyond the float range is taken again on the
        coefficients divided by their largest component.
        """

        def sum_sq(re: np.ndarray, im: np.ndarray) -> float:
            with np.errstate(over="ignore"):
                return sum((np.square(re) + np.square(im)).tolist())

        re, im = self.coeffs.real, self.coeffs.imag
        total = sum_sq(re, im)
        if math.isfinite(total):
            return math.sqrt(total)
        scale = float(max(np.abs(re).max(), np.abs(im).max()))
        value = scale * math.sqrt(sum_sq(re / scale, im / scale))
        if math.isinf(value):
            raise ArithmeticError("coefficient l2 norm exceeds the float range")
        return value

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "terms": [
                {"k": list(k), "re": float(a.real), "im": float(a.imag)}
                for k, a in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SpectralFunction":
        m = as_integer(doc["m"], "m")
        coeffs: dict[FrequencyIndex, complex] = {}
        for term in doc["terms"]:
            k = tuple(as_integer(c, "frequency component k") for c in term["k"])
            if k in coeffs:
                raise ValueError(f"duplicate frequency {list(k)} in polynomial terms")
            coeffs[k] = complex(float(term["re"]), float(term.get("im", 0.0)))
        return cls(m, coeffs)


def _resolving(f: SpectralFunction, grid: GridSpec | Sequence[int]) -> GridSpec:
    """grid as a GridSpec, checked to have f's arity and to resolve its
    bandwidth: a_k goes to k mod N_j, so every |k_j| must stay below N_j / 2,
    or distinct frequencies would alias."""
    if not isinstance(grid, GridSpec):
        grid = GridSpec(tuple(grid))
    if grid.m != f.m:
        raise ValueError("grid arity does not match spectral function")
    if any(2 * b >= n for b, n in zip(f.bandwidth(), grid.shape)):
        raise ValueError("grid too coarse for the bandwidth of f")
    return grid


def _samples(
    f: SpectralFunction, grid: GridSpec | Sequence[int]
) -> GridFunction | OrthantSamples:
    """f on the grid, by one of two syntheses.

    A sign-symmetric sum of uniform product blocks (_product_pieces) gives
    its orthant, filled from the blocks' 1-D axis factors
    (_product_orthant).  Any other f is sampled on the whole grid by a
    complex ifft (_complex_samples); a sign-symmetric one keeps the real
    part of its orthant, a fresh array, so the complex grid is freed before
    the orthant is measured.  The grid must resolve f (_resolving).
    """
    grid = _resolving(f, grid)
    pieces = _product_pieces(f)
    if pieces is not None:
        return _product_orthant(pieces, grid.shape)
    samples = _complex_samples(f.freqs, f.coeffs, grid.shape)
    if not f.sign_symmetric:
        return samples
    orthant = tuple(slice(n // 2 + 1) for n in grid.shape)
    return OrthantSamples(samples.values[orthant].real.copy(), grid.shape)


def _complex_samples(
    freqs: np.ndarray, coeffs: np.ndarray, shape: tuple[int, ...]
) -> GridFunction:
    """Samples on the whole grid `shape` of the polynomial with the
    coefficients coeffs on the rows of freqs: a_k is written into the full
    spectrum, which an ifft along every axis transforms in place."""
    spec = np.zeros(shape, dtype=np.complex128)
    # k mod N_j, as every N_j is a power of two; distinct rows stay distinct
    spec[tuple((freqs & (np.array(shape) - 1)).T)] = coeffs
    for axis in range(len(shape)):
        np.fft.ifft(spec, axis=axis, norm="forward", out=spec)
    return GridFunction(spec)


def synthesize(f: SpectralFunction, grid: GridSpec | Sequence[int]) -> GridFunction:
    """Evaluate the polynomial on the product grid via inverse FFTs.

    A sign-symmetric polynomial (f.sign_symmetric) is sampled on one
    orthant, from its axis factors or as the real part of a complex inverse
    FFT (_samples), and mirrored, so its samples are float64 and exactly
    even in every variable.  Every other one comes back as complex128
    samples of a complex inverse FFT.
    """
    samples = _samples(f, grid)
    return samples.to_grid() if isinstance(samples, OrthantSamples) else samples


def grid_norm(
    f: SpectralFunction, grid: GridSpec | Sequence[int], params: MixedSpaceParams
) -> float:
    """anisotropic_norm(synthesize(f, grid), params), keeping nothing between
    calls.

    grid_route(f, grid, params) names the samples measured.  "product": a
    plain L_p norm of a sign-symmetric sum of uniform product blocks
    (f.product_blocks) is summed from the blocks' 1-D axis factors
    (_product_norm); no grid of two or more axes is built.  "orthant": a
    sign-symmetric f without product blocks, or in any other space, is
    measured on its orthant only (OrthantSamples: filled from the same axis
    factors when f has product blocks, else cut from the complex grid) and
    rearranged.  "grid": any other f is sampled on the whole grid.
    Outside plain L_p the profile, and so the norm, equals the full grid's
    bit for bit; inside, the product and orthant sums agree with the full
    grid's to a relative 1e-13.
    """
    if grid_route(f, grid, params) == "product":
        shape, p = _resolving(f, grid).shape, float(params.lebesgue_index())
        return _product_norm(_product_pieces(f), shape, p)
    return anisotropic_norm(_samples(f, grid), params)


def grid_route(
    f: SpectralFunction, grid: GridSpec | Sequence[int], params: MixedSpaceParams
) -> str:
    """The samples grid_norm(f, grid, params) measures (see grid_norm).

    "product" for a plain L_p space, f sign-symmetric, with terms, and every
    block uniform on a product support (_product_pieces), in any number of
    variables; else "orthant" if f is sign-symmetric, else "grid".  The
    route is the same on every grid that resolves f.  The blocks are tested
    once per polynomial (f.product_blocks).
    """
    if params.lebesgue_index() is not None and f.m == params.m and _product_pieces(f):
        return "product"
    return "orthant" if f.sign_symmetric else "grid"


def _product_pieces(f: SpectralFunction) -> list[Product] | None:
    """f.product_blocks as a list when f is sign-symmetric with terms and
    every block is a uniform product, in any number of variables (in one,
    every block with one coefficient is); else None."""
    if f.n_terms and f.sign_symmetric and f.product_blocks is not None:
        return list(f.product_blocks.values())
    return None


def product_factors(freqs: np.ndarray, coeffs: np.ndarray) -> Product | None:
    """(c, [K_1, ..., K_m]) when the block of coefficients coeffs on the rows
    freqs is the constant c on the product K_1 x ... x K_m of its distinct
    frequencies per axis, else None.

    The rows are distinct, so they fill that product exactly when there are
    as many of them as it has points.
    """
    axis_sets = [_distinct(k) for k in freqs.T]
    uniform = coeffs.size and (coeffs == coeffs[0]).all()
    if uniform and math.prod(map(len, axis_sets)) == coeffs.size:
        return complex(coeffs[0]), axis_sets
    return None


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values), by a sort and a mask of the entries unlike their
    predecessor; np.unique hashes int64 arrays, many times slower here."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _axis_factor(k: np.ndarray, n: int) -> OrthantSamples:
    """Coefficient 1 on each frequency of the sign-symmetric axis set k, on
    the orthant of n points: a DCT-I, the irfft of the half-spectrum with 1
    at each k >= 0, of which the first n/2 + 1 outputs are kept."""
    spec = np.zeros(n // 2 + 1, dtype=np.complex128)
    spec[k[k >= 0]] = 1
    samples = np.fft.irfft(spec, n, norm="forward")
    return OrthantSamples(samples[: n // 2 + 1].copy(), (n,))


def _axis_samples(k: np.ndarray, n: int) -> GridFunction:
    """Coefficient 1 on each frequency of the sorted axis set k, sampled on
    n points: on its orthant and mirrored when k = -k, else by one complex
    ifft."""
    if np.array_equal(k, -k[::-1]):
        return _axis_factor(k, n).to_grid()
    return _complex_samples(k[:, None], np.ones(len(k)), (n,))


def block_norms(
    f: SpectralFunction, grid: GridSpec | Sequence[int], params: MixedSpaceParams
) -> dict[MultiIndex, float]:
    """{level: norm in params on the grid} over the nonzero blocks of f, in
    the order of block_rows.

    A block that is the constant c on a product of axis sets
    (product_factors of its rows; f.product_blocks when every block is one)
    has the norm |c| times the product of its axis factors' one-axis norms,
    each factor sampled on its own axis of the grid (_axis_samples); the
    product grid is never built.  Any other block is synthesized on the
    whole grid.  The grid must resolve f (_resolving).
    """
    shape = _resolving(f, grid).shape
    products, rows = f.product_blocks, {}
    if products is None:  # some block is not a uniform product
        rows = block_rows(f)
        products = {
            s: product_factors(f.freqs[r], f.coeffs[r]) for s, r in rows.items()
        }
    norms = {}
    for s, product in products.items():
        if product is None:  # not a uniform product
            block = synthesize(f.restrict(rows[s]), shape)
            norms[s] = anisotropic_norm(block, params)
            continue
        c, axis_sets = product
        factors = [
            anisotropic_norm(_axis_samples(k, n), MixedSpaceParams((ax,)))
            for k, n, ax in zip(axis_sets, shape, params.axes, strict=True)
        ]
        norms[s] = abs(c) * math.prod(factors)
    return norms


_ROWS = 256  # orthant rows per batch of _row_batches


def _factor_matrices(pieces: list[Product], shape: tuple[int, ...]) -> list[np.ndarray]:
    """[G_0, ..., G_{m-1}] of sum_b c_b prod_j D_{K_bj}(x_j) over the pieces
    (c_b, [K_b0, ...]), D_K the sum of exp(i k x) over k in K: column b of
    G_j is the orthant synthesis of K_bj on N_j points (_axis_factor), each
    distinct (K, N_j) made once, and G_0's columns are scaled by c_b."""

    @functools.cache
    def factor(k: bytes, n: int) -> np.ndarray:
        return _axis_factor(np.frombuffer(k, dtype=np.int64), n).values

    factors = [
        np.column_stack([factor(ks[j].tobytes(), n) for _, ks in pieces])
        for j, n in enumerate(shape)
    ]
    factors[0] *= np.array([c.real for c, _ in pieces])
    return factors


def _row_batches(heads: list[np.ndarray], width: int):
    """(first row number, index arrays at, G_0[at[0]] o ... o G_{k-1}[at[k-1]])
    per _ROWS orthant rows of the factor matrices heads, `width` columns
    each, in C order: every product starts from ones, so no heads make one
    batch of one row of ones."""
    half = tuple(len(g) for g in heads) or (1,)
    count = math.prod(half)
    for i in range(0, count, _ROWS):
        at = np.unravel_index(np.arange(i, min(i + _ROWS, count)), half)
        ones = np.ones((len(at[0]), width))
        yield i, at, math.prod((g[k] for g, k in zip(heads, at)), start=ones)


def _product_orthant(pieces: list[Product], shape: tuple[int, ...]) -> OrthantSamples:
    """The orthant of the sum of the pieces on the grid `shape`: each batch
    of rows over axes m-1..1 (_row_batches) times G_0^T, axis 0 contiguous."""
    *heads, last = _factor_matrices(pieces, shape)[::-1]
    values = np.empty((math.prod(map(len, heads)), len(last)))
    for i, _, rows in _row_batches(heads, len(pieces)):
        np.matmul(rows, last.T, out=values[i : i + len(rows)])
    return OrthantSamples(values.reshape([*map(len, heads), len(last)]).T, shape)


def _product_norm(pieces: list[Product], shape: tuple[int, ...], p: float) -> float:
    """Plain L_p norm on the grid `shape` of the sum of the pieces
    (_factor_matrices), from its 1-D axis factors.

    The sum is sign-symmetric (grid_route), so each K is too.  Each batch of
    orthant rows (_row_batches) times G_{m-1}^T samples them along the last
    axis in one reused buffer, and their powers are summed with the orthant
    weights [1, 2, ..., 2, 1] / N_j: no grid of two or more axes is held.
    """
    *heads, last = _factor_matrices(pieces, shape)
    *head_weights, w_last = (_orthant_weights(n) for n in shape)
    total, buf = 0.0, np.empty((min(_ROWS, math.prod(map(len, heads))), len(last)))
    for _, at, rows in _row_batches(heads, len(pieces)):
        batch = np.matmul(rows, last.T, out=buf[: len(rows)])
        np.abs(batch, out=batch)
        np.power(batch, p, out=batch)
        weights = math.prod(
            (w[k] for w, k in zip(head_weights, at)), start=np.ones(len(rows))
        )
        total += float(weights @ (batch @ w_last))
    return total ** (1.0 / p)


def analyze(g: GridFunction, band: Sequence[int]) -> SpectralFunction:
    """Recover coefficients for |k_j| <= band_j from grid samples.

    Inverts synthesize for bandlimited data; exact zeros are dropped so the
    zero grid maps to the empty polynomial.  Rows come in lexicographic order.
    """
    band = tuple(int(b) for b in band)
    if len(band) != g.m:
        raise ValueError("band arity does not match grid")
    if any(2 * b >= n for b, n in zip(band, g.shape)):
        raise ValueError("band too large for this grid")
    hat = np.fft.fftn(g.values) / math.prod(g.shape)
    freqs = cartesian_rows([range(-b, b + 1) for b in band])
    return SpectralFunction(g.m, (freqs, hat[tuple((freqs % np.array(g.shape)).T)]))


def block_rows(f: SpectralFunction) -> dict[MultiIndex, np.ndarray]:
    """Partition the rows of f by block level: {level: row numbers}, with
    lex-ordered keys and each block's rows in order (f.restrict(rows) is the
    block as a polynomial)."""
    levels = block_levels(f.freqs)
    order = np.lexsort(levels.T[::-1])  # stable, so rows keep their order
    ordered = levels[order]
    cuts = np.flatnonzero((ordered[1:] != ordered[:-1]).any(axis=1)) + 1
    groups = np.split(order, cuts) if f.n_terms else []
    return {tuple(levels[rows[0]].tolist()): rows for rows in groups}


def _cross_mask(f: SpectralFunction, n: RationalLike, gamma: Anisotropy) -> np.ndarray:
    if gamma.m != f.m:
        raise ValueError("anisotropy arity does not match spectral function")
    return cross_membership(n, gamma, block_levels(f.freqs).T)


def cross_truncate(
    f: SpectralFunction, n: RationalLike, gamma: Anisotropy
) -> SpectralFunction:
    """Keep the coefficients inside the step hyperbolic cross at level n."""
    return f.restrict(_cross_mask(f, n, gamma))


def truncation_error(
    f: SpectralFunction,
    n: RationalLike,
    gamma: Anisotropy,
    target: MixedSpaceParams,
    grid: GridSpec | Sequence[int] | None = None,
) -> float:
    """Norm of f minus its cross truncation in the target space.

    With a grid, the residual is measured by grid_norm.  When the target is
    plain L2 (target.is_plain_l2()) the coefficient l2 norm of the residual
    is the same quantity by Parseval; it cross-checks the grid value to a
    relative 1e-8, and when no grid is given it is returned directly
    (plain-L2 targets only).
    """
    residual = f.restrict(~_cross_mask(f, n, gamma))
    parseval = residual.l2_norm() if target.is_plain_l2() else None
    if grid is None:
        if parseval is None:
            raise ValueError(
                "a grid is required unless the target space is plain L2"
            )
        return parseval
    value = grid_norm(residual, grid, target)
    if parseval is not None:
        if abs(value - parseval) > 1e-8 * max(parseval, 1e-300):
            raise ArithmeticError(
                "grid quadrature disagrees with the coefficient l2 norm"
            )
    return value


def dirichlet_block(s: Sequence[int]) -> SpectralFunction:
    """Coefficient 1 on every frequency of the product block at level s."""
    freqs = cartesian_rows([axis_block(int(v)) for v in s])
    return SpectralFunction(len(s), (freqs, np.ones(len(freqs))))
