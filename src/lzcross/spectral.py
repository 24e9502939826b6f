"""Trigonometric polynomials: synthesis, analysis, block and cross truncation.

A spectral function is a finite set of integer frequency vectors with
complex coefficients, representing sum_k a_k exp(i <k, x>) with x on the
2 pi-periodic torus sampled at x_j = 2 pi i_j / N_j.  Synthesis and
analysis ride on the FFT; truncation sets are decided by the exact integer
arithmetic of indexsets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .indexsets import (
    Anisotropy,
    FrequencyIndex,
    MultiIndex,
    RationalLike,
    _distinct,
    as_integer,
    as_number,
    axis_block,
    block_levels,
    cartesian_rows,
    cross_membership,
)
from .norms import (
    GridFunction,
    MixedSpaceParams,
    OrthantSamples,
    OrthantSlabs,
    ScalarSpaceParams,
    _orthant_lebesgue_norm,
    _orthant_weights,
    _validated_shape,
    anisotropic_norm,
)

Product = tuple[complex, list[np.ndarray]]  # (c, [K_1, ..., K_m]): product_factors
Rows = tuple[np.ndarray, np.ndarray]  # (freqs, coeffs): a block off the product form
Blocks = Mapping[MultiIndex, Product | Rows]  # {level: entry}: SpectralFunction.blocks
AxisFactors = dict[tuple[bytes, int], np.ndarray]  # {(K, N): factor}: _orthant_factor


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
    def blocks(self) -> dict[MultiIndex, Product | Rows]:
        """{level: entry} over the nonzero blocks of f, in the order of
        block_rows: the block's product_factors, (c, [K_1, ..., K_m]), or,
        where it finds none, the block's own rows, (freqs, coeffs).  Found
        once per polynomial; a product keeps only its axis sets."""
        out = {}
        for s, rows in block_rows(self).items():
            freqs, coeffs = self.freqs[rows], self.coeffs[rows]
            out[s] = product_factors(freqs, coeffs) or (freqs, coeffs)
        return out

    @functools.cached_property
    def sign_symmetric(self) -> bool:
        """Whether every coefficient is real and each single-axis sign flip
        maps the rows onto themselves, coefficient bits included
        (_sign_symmetric of f.blocks).  Found once per polynomial."""
        return _sign_symmetric(self.blocks)

    def scaled(self, c: complex) -> "SpectralFunction":
        return SpectralFunction(self.m, (self.freqs, c * self.coeffs))

    def restrict(self, keep: np.ndarray) -> "SpectralFunction":
        """The rows selected by keep: a boolean mask (f itself if it keeps
        every row, as the arrays are read-only) or an array of row numbers."""
        if keep.dtype == bool and keep.shape == (self.n_terms,) and keep.all():
            return self
        return SpectralFunction(self.m, (self.freqs[keep], self.coeffs[keep]))

    def l2_norm(self) -> float:
        """Coefficient l2 norm; equals the mean-square norm of the samples
        (_parseval, each row once)."""
        return _parseval(self.coeffs)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "terms": [
                {"k": list(k), "re": float(a.real), "im": float(a.imag)}
                for k, a in self.items()
            ],
        }

    @classmethod
    def from_blocks(
        cls, m: int, blocks: Mapping[MultiIndex, Product]
    ) -> "SpectralFunction":
        """The polynomial with the coefficient c on every row of the product
        K_1 x ... x K_m (cartesian_rows) of each block (c, [K_1, ..., K_m]),
        the blocks' rows one block after another: when every block is such
        a product, what f.blocks reads back, up to the order of the blocks."""
        if not blocks:
            return cls(m)
        rows = [cartesian_rows(ks) for _, ks in blocks.values()]
        coeffs = [np.full(len(r), c) for (c, _), r in zip(blocks.values(), rows)]
        return cls(m, (np.concatenate(rows), np.concatenate(coeffs)))

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SpectralFunction":
        """The polynomial of to_json_dict's document; a field of the wrong
        JSON type is refused, naming it."""
        if not isinstance(doc, dict):
            kind = type(doc).__name__
            raise ValueError(f"a polynomial must be a JSON object, got {kind}")
        m = as_integer(doc["m"], "m")
        if not isinstance(doc["terms"], list):
            raise ValueError(f"terms must be a list, got {type(doc['terms']).__name__}")
        coeffs: dict[FrequencyIndex, complex] = {}
        for term in doc["terms"]:
            if not isinstance(term, dict) or not isinstance(term.get("k"), list):
                raise ValueError(f"each term must be an object with a list k, got {term!r}")
            k = tuple(as_integer(c, "frequency component k") for c in term["k"])
            if k in coeffs:
                raise ValueError(f"duplicate frequency {list(k)} in polynomial terms")
            re, im = term["re"], term.get("im", 0.0)
            coeffs[k] = complex(as_number(re, "term re"), as_number(im, "term im"))
        return cls(m, coeffs)


def _parseval(coeffs: np.ndarray, counts: Sequence[int] | None = None) -> float:
    """sqrt(sum |a|^2) over the coefficients, the i-th counted counts[i]
    times (once each without counts).

    Each |a|^2 is re*re + im*im, and the terms are added one after another
    in order, a repeated term as often as it counts, so the value does not
    depend on numpy's summation order and no repeat is listed.  A sum of
    squares beyond the float range is taken again on the coefficients
    divided by their largest component.
    """

    def sum_sq(re: np.ndarray, im: np.ndarray) -> float:
        with np.errstate(over="ignore"):
            squares = (np.square(re) + np.square(im)).tolist()
        if counts is None:
            return sum(squares)
        return sum(itertools.chain.from_iterable(map(itertools.repeat, squares, counts)))

    re, im = coeffs.real, coeffs.imag
    total = sum_sq(re, im)
    if math.isfinite(total):
        return math.sqrt(total)
    scale = float(max(np.abs(re).max(), np.abs(im).max()))
    value = scale * math.sqrt(sum_sq(re / scale, im / scale))
    if math.isinf(value):
        raise ArithmeticError("coefficient l2 norm exceeds the float range")
    return value


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


def _inverse_fft(spec: np.ndarray) -> GridFunction:
    """The samples of the full complex spectrum spec, by an ifft along
    every axis in place."""
    for axis in range(spec.ndim):
        np.fft.ifft(spec, axis=axis, norm="forward", out=spec)
    return GridFunction(spec)


def _block_samples(
    blocks: Blocks, shape: tuple[int, ...], factors: AxisFactors
) -> OrthantSlabs | OrthantSamples | GridFunction:
    """The sum of the blocks on the grid `shape`: a sign-symmetric list of
    products (_products) as OrthantSlabs drawn from the factor matrices of
    its blocks (_orthant_slabs), their axis factors read from the table
    factors (_orthant_factor), listing no row; any other, the empty one
    included, by one complex ifft of the spectrum filled block by block, c
    on the product of the K_j mod N_j or each row's coefficient at k mod
    N_j.  Of a sign-symmetric list the real part of the orthant is kept, a
    fresh array, so the complex grid is freed before the orthant is
    measured."""
    symmetric = _sign_symmetric(blocks)
    if symmetric and _products(blocks):
        pieces = [blocks[s] for s in sorted(blocks)]
        matrices = _factor_matrices(pieces, shape, factors)
        return OrthantSlabs(functools.partial(_orthant_slabs, matrices), shape)
    spec = np.zeros(shape, dtype=np.complex128)
    mask = np.array(shape) - 1  # k mod N_j, as every N_j is a power of two
    for a, b in blocks.values():
        if isinstance(b, list):  # (c, [K_1, ..., K_m])
            spec[np.ix_(*(k & n for k, n in zip(b, mask)))] = a
        else:  # (freqs, coeffs); distinct rows stay distinct
            spec[tuple((a & mask).T)] = b
    samples = _inverse_fft(spec)
    if not symmetric:
        return samples
    orthant = tuple(slice(n // 2 + 1) for n in shape)
    return OrthantSamples(samples.values[orthant].real.copy(), shape)


def _grid(blocks: Blocks, shape: tuple[int, ...]) -> GridFunction:
    """Every sample of the sum of the blocks on the grid `shape`
    (_block_samples): an orthant, drawn as one slab of the whole last axis
    if need be, is mirrored into float64 samples exactly even in every
    variable; any other list comes back as complex128 samples."""
    samples = _block_samples(blocks, shape, {})
    if isinstance(samples, OrthantSlabs):
        (values,) = samples.slabs(shape[-1] // 2 + 1)
        samples = OrthantSamples(values, shape)
    return samples.to_grid() if isinstance(samples, OrthantSamples) else samples


def synthesize(f: SpectralFunction, grid: GridSpec | Sequence[int]) -> GridFunction:
    """Evaluate the polynomial on the product grid via inverse FFTs, from
    its block list (_grid of f.blocks).

    A sign-symmetric polynomial (f.sign_symmetric) is sampled on one
    orthant, from its blocks' axis factors as one slab when every block is
    a product, else as the real part of a complex inverse FFT, and
    mirrored, so its samples are float64 and exactly even in every
    variable.  Every other one comes back as complex128 samples of one
    complex inverse FFT.
    """
    return _grid(f.blocks, _resolving(f, grid).shape)


def _check_space(f: SpectralFunction, params: MixedSpaceParams) -> None:
    if params.m != f.m:
        raise ValueError("space arity does not match spectral function")


def grid_norm(
    f: SpectralFunction, grid: GridSpec | Sequence[int], params: MixedSpaceParams
) -> float:
    """anisotropic_norm(synthesize(f, grid), params), keeping nothing between
    calls: _blocks_norm of f.blocks.

    grid_route(f, grid, params) names the samples measured: the blocks'
    1-D axis factors ("product"), f's orthant if f is sign-symmetric
    ("orthant"), else the whole grid ("grid").  Outside plain L_p the
    profile, and so the norm, equals the full grid's bit for bit; inside,
    the product and orthant sums agree with the full grid's to a relative
    1e-13.
    """
    shape = _resolving(f, grid).shape
    _check_space(f, params)
    return _blocks_norm(f.blocks, shape, params, {})


def grid_route(
    f: SpectralFunction, grid: GridSpec | Sequence[int], params: MixedSpaceParams
) -> str:
    """The samples grid_norm(f, grid, params) measures: _route of f.blocks.
    The route is the same on every grid that resolves f; a grid or space
    that grid_norm refuses is refused here too."""
    _resolving(f, grid)
    _check_space(f, params)
    return _route(f.blocks, params)


def _products(blocks: Blocks) -> bool:
    """Whether blocks lists one or more blocks, each a product
    (c, [K_1, ..., K_m]); a sign-symmetric such list is sampled from its
    axis factors."""
    return bool(blocks) and all(isinstance(b, list) for _, b in blocks.values())


def _route(blocks: Blocks, params: MixedSpaceParams) -> str:
    """The samples _blocks_norm(blocks, shape, params, factors) measures:
    "product", a plain L_p norm of a sign-symmetric list of products
    (_products), summed from their 1-D axis factors, no grid of two or
    more axes built; "orthant", any other sign-symmetric list, a list of
    products drawn slab by slab from the same factors and rearranged, the
    orthant never held, or the real orthant of one complex ifft; "grid",
    the rest, sampled on the whole grid (_block_samples)."""
    if not _sign_symmetric(blocks):
        return "grid"
    lebesgue = params.lebesgue_index() is not None
    return "product" if lebesgue and _products(blocks) else "orthant"


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


def _axis_factor(k: np.ndarray, n: int) -> OrthantSamples:
    """Coefficient 1 on each frequency of the sign-symmetric axis set k, on
    the orthant of n points: a DCT-I, the irfft of the half-spectrum with 1
    at each k >= 0, of which the first n/2 + 1 outputs are kept."""
    spec = np.zeros(n // 2 + 1, dtype=np.complex128)
    spec[k[k >= 0]] = 1
    samples = np.fft.irfft(spec, n, norm="forward")
    return OrthantSamples(samples[: n // 2 + 1].copy(), (n,))


def _orthant_factor(k: bytes, n: int, factors: AxisFactors) -> np.ndarray:
    """_axis_factor(K, n).values of the sign-symmetric axis set K, given as
    its int64 bytes k, from the table factors: each (K, n) is synthesized
    on first use and read from the table after.  A table starts empty in
    one call, of a class functional, a norm or a sampler, and is dropped
    when that call returns, so nothing is kept between calls; the block
    norms (_factor_norms) drop each factor after its last use."""
    if (k, n) not in factors:
        factors[k, n] = _axis_factor(np.frombuffer(k, dtype=np.int64), n).values
    return factors[k, n]


def block_norms(
    f: SpectralFunction, grid: GridSpec | Sequence[int], params: MixedSpaceParams
) -> dict[MultiIndex, float]:
    """{level: norm in params on the grid} over the nonzero blocks of f, in
    the order of block_rows: _factor_norms of f.blocks.  A product block is
    measured from its axis factors, and the product grid is never built;
    any other block is synthesized on the whole grid.  The grid must
    resolve f (_resolving)."""
    return _factor_norms(f.blocks, _resolving(f, grid).shape, params, {})


def _factor_norms(
    blocks: Blocks,
    shape: tuple[int, ...],
    params: MixedSpaceParams,
    factors: AxisFactors,
) -> dict[MultiIndex, float]:
    """{level: norm in params on the grid `shape`} of the blocks, in their
    order.  A product (c, [K_1, ..., K_m]) is |c| times the product of its
    axis factors' one-axis norms, each factor, coefficient 1 on K_j,
    sampled on its own axis of the grid and measured once per call for
    each distinct (axis set, N_j, axis space), in order of first use: when
    K_j = -K_j, its orthant from the table factors (_orthant_factor), in a
    plain L_p axis space raised to the power p at its N_j/2 + 1 samples and
    the powers mirrored (_orthant_lebesgue_norm), in any other the samples
    mirrored (OrthantSamples.to_grid) and rearranged; else by one complex
    ifft (_grid).  A factor leaves the table once its last distinct (K_j,
    N_j, axis space) is measured, so the block norms hold about one factor
    and its mirror at a time.  A block's own rows are measured on its whole
    grid, as synthesize samples them."""
    todo = {}  # each distinct (K_j bytes, N_j, axis space), by first use
    keyed = {  # each product's keys, a repeat read as todo holds it
        s: [
            todo.setdefault(t, t)
            for t in zip(map(np.ndarray.tobytes, b), shape, params.axes, strict=True)
        ]
        for s, (_, b) in blocks.items()
        if isinstance(b, list)
    }
    last = {(key, n): i for i, (key, n, _) in enumerate(todo)}

    def factor_norm(i: int, key: bytes, n: int, ax: ScalarSpaceParams) -> float:
        k = np.frombuffer(key, dtype=np.int64)
        space = MixedSpaceParams((ax,))
        if not np.array_equal(k, -k[::-1]):
            value = anisotropic_norm(_grid({(0,): (1 + 0j, [k])}, (n,)), space)
        elif (p := space.lebesgue_index()) is None:
            orthant = OrthantSamples(_orthant_factor(key, n, factors), (n,))
            value = anisotropic_norm(orthant.to_grid(), space)
        else:
            value = _orthant_lebesgue_norm(_orthant_factor(key, n, factors), float(p))
        if last[key, n] == i:
            factors.pop((key, n), None)
        return value

    norms = {t: factor_norm(i, *t) for i, t in enumerate(todo)}
    return {
        s: abs(a) * math.prod(map(norms.__getitem__, keyed[s]))
        if isinstance(b, list)
        else anisotropic_norm(_grid({s: (a, b)}, shape), params)
        for s, (a, b) in blocks.items()
    }


def _sign_symmetric(blocks: Blocks) -> bool:
    """SpectralFunction.sign_symmetric of the sum of the blocks.  A flip
    of axis j keeps each row's block, so the rows map onto themselves when
    each block's do.  A product's do when c is real and every sorted axis
    set K_j is -K_j.  A block's own rows are grouped by |k|; each group
    must be the whole orbit of |k|, 2**(nonzero components of k) distinct
    sign patterns, under one real coefficient bit pattern."""
    for a, b in blocks.values():
        if isinstance(b, list):
            if a.imag or not all(np.array_equal(k, -k[::-1]) for k in b):
                return False
            continue
        if b.imag.any():
            return False
        mags = np.abs(a)
        signs = (a < 0) @ (1 << np.arange(a.shape[1], dtype=np.int64))
        bits = b.real.view(np.int64)
        order = np.lexsort((signs, bits, *mags.T[::-1]))
        mags, signs, bits = mags[order], signs[order], bits[order]
        first = np.ones(len(order), dtype=bool)  # first row of its |k| group
        first[1:] = (mags[1:] != mags[:-1]).any(axis=1)
        inside = ~first[1:]
        starts = np.flatnonzero(first)
        sizes = np.diff(starts, append=len(order))
        if not (
            np.array_equal(sizes, 1 << np.count_nonzero(mags[starts], axis=1))
            and (bits[1:] == bits[:-1])[inside].all()
            and (signs[1:] != signs[:-1])[inside].all()
        ):
            return False
    return True


def _blocks_norm(
    blocks: Blocks,
    shape: tuple[int, ...],
    params: MixedSpaceParams,
    factors: AxisFactors,
) -> float:
    """Norm in params on the grid `shape` of the sum of the blocks: on the
    "product" route (_route) summed by _product_norm from the blocks' 1-D
    axis factors, taken in lexicographic order of their levels (block_rows
    order) from the table factors (_orthant_factor), else measured on
    _block_samples; 0.0 for no blocks."""
    if not blocks:
        return 0.0
    if _route(blocks, params) == "product":
        p = float(params.lebesgue_index())
        pieces = [blocks[s] for s in sorted(blocks)]
        return _product_norm(pieces, shape, p, factors)
    return anisotropic_norm(_block_samples(blocks, shape, factors), params)


_ROWS = 256  # orthant rows per batch of _product_norm
_SUB_ROWS = 32  # rows sampled at a time in a batch (_row_sums): 0.5 MB at N = 4096


def _factor_matrices(
    pieces: list[Product], shape: tuple[int, ...], factors: AxisFactors
) -> list[np.ndarray]:
    """[G_0, ..., G_{m-1}] of sum_b c_b prod_j D_{K_bj}(x_j) over the pieces
    (c_b, [K_b0, ...]), D_K the sum of exp(i k x) over k in K: column b of
    G_j is the orthant synthesis of K_bj on N_j points, read from the table
    factors (_orthant_factor), and G_0's columns are scaled by c_b."""
    matrices = [
        np.column_stack(
            [_orthant_factor(ks[j].tobytes(), n, factors) for _, ks in pieces]
        )
        for j, n in enumerate(shape)
    ]
    matrices[0] *= np.array([c.real for c, _ in pieces])
    return matrices


def _row_batches(heads: list[np.ndarray], width: int, size: int):
    """(index arrays at, G_0[at[0]] o ... o G_{k-1}[at[k-1]]) per `size`
    orthant rows of the factor matrices heads, `width` columns each, in C
    order, the last batch shorter: every product starts from ones, so no
    heads make one batch of one row of ones."""
    half = tuple(len(g) for g in heads) or (1,)
    count = math.prod(half)
    for i in range(0, count, size):
        at = np.unravel_index(np.arange(i, min(i + size, count)), half)
        ones = np.ones((len(at[0]), width))
        yield at, math.prod((g[k] for g, k in zip(heads, at)), start=ones)


def _orthant_slabs(factors: list[np.ndarray], width: int):
    """The orthant of a sum of blocks with the factor matrices
    [G_0, ..., G_{m-1}] (_factor_matrices), as slabs of `width` indices of
    its last axis in turn (OrthantSlabs), axis 0 contiguous: each slab of
    two or more axes is one batch of rows over axes m-1..1 (_row_batches)
    times G_0^T, and a sum of one variable is one row of ones times G_0^T,
    cut into slabs."""
    *heads, last = factors[::-1]
    half = [len(g) for g in factors]
    if not heads:
        (row,) = np.ones((1, last.shape[1])) @ last.T
        for i in range(0, half[0], width):
            yield row[i : i + width]
        return
    size = width * math.prod(half[1:-1])
    for _, rows in _row_batches(heads, last.shape[1], size):
        block = rows @ last.T
        del rows  # neither is held while the next slab is made
        yield block.reshape(-1, *half[-2:0:-1], half[0]).T
        del block


def _row_sums(
    rows: np.ndarray, last: np.ndarray, p: float, w_last: np.ndarray, buf: np.ndarray
) -> np.ndarray:
    """|rows @ last.T|^p @ w_last: each orthant row sampled along the last
    axis (last = G_{m-1}), raised to the power p and summed with the
    weights w_last, formed len(buf) rows at a time in the reused buffer
    buf, or whole, in an array of its own, when the rows are not a multiple
    of 4, so no slice is one row, which numpy hands to gemv instead of
    gemm.  The sums keep the whole batch's bits on the shapes the tests pin
    and on every registered benchmark workload, not on every shape:
    OpenBLAS's gemm rounds some entries of the last (Nyquist) column
    differently depending on the row count of the call."""
    step = len(buf) if len(rows) % 4 == 0 else len(rows)
    sums = np.empty(len(rows))
    for i in range(0, len(rows), step):
        part = rows[i : i + step]
        out = buf[: len(part)] if len(part) <= len(buf) else None
        batch = np.matmul(part, last.T, out=out)
        np.abs(batch, out=batch)
        np.power(batch, p, out=batch)
        np.matmul(batch, w_last, out=sums[i : i + len(part)])
    return sums


def _product_norm(
    pieces: list[Product], shape: tuple[int, ...], p: float, factors: AxisFactors
) -> float:
    """Plain L_p norm on the grid `shape` of the sum of the pieces
    (_factor_matrices), from its 1-D axis factors in the table factors.

    The sum is sign-symmetric (_route), so each K is too.  Each batch of
    _ROWS orthant rows (_row_batches) is sampled along the last axis and
    raised to the power p _SUB_ROWS rows at a time in one reused buffer
    (_row_sums), and its row sums are added with the orthant weights
    [1, 2, ..., 2, 1] / N_j, one batch after another: no grid of two or
    more axes is held.
    """
    *heads, last = _factor_matrices(pieces, shape, factors)
    *head_weights, w_last = (_orthant_weights(n) for n in shape)
    total, buf = 0.0, np.empty((min(_SUB_ROWS, math.prod(map(len, heads))), len(last)))
    for at, rows in _row_batches(heads, len(pieces), _ROWS):
        weights = math.prod(
            (w[k] for w, k in zip(head_weights, at)), start=np.ones(len(rows))
        )
        total += float(weights @ _row_sums(rows, last, p, w_last, buf))
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
    _check_space(f, target)
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
