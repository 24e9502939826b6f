"""Smoothness-class functional, derived rate exponents, and extremal functions.

The class is defined by a mixed-norm functional: the norm of the function
itself plus the iterated sequence norm, over block levels, of the weighted
norms of its dyadic block components.  Membership requires a zero mean in
every variable, i.e. no coefficient on any hyperplane k_j = 0.

From the class and target parameters a normalized weight vector gamma is
derived; its smallest component marks the dominant axis and the set of
axes tied at the minimum ratio gamma_j / gamma'_j drives the logarithmic
correction of the main convergence-rate term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .asymptotics import _inv, _tied_axes
from .indexsets import (
    Anisotropy,
    as_fraction,
    axis_block,
    cartesian_rows,
    layer_exact,
)
from .norms import MixedSpaceParams, anisotropic_norm, mixed_sequence_norm
from .spectral import (
    GridSpec,
    SpectralFunction,
    grid_norm,
    nonzero_blocks,
    synthesize,
)


@dataclass(frozen=True)
class BesovParams:
    """Parameters of the smoothness class: base space, smoothness, summability."""

    space: MixedSpaceParams
    r: tuple[Fraction, ...]
    thetas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", tuple(as_fraction(v) for v in self.r))
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        if not (len(self.r) == len(self.thetas) == self.space.m):
            raise ValueError("parameter arities must match the space dimension")
        if any(v <= 0 for v in self.r):
            raise ValueError("smoothness orders must be positive")
        if any(not t > 0.0 for t in self.thetas):
            raise ValueError("summability exponents must be positive (inf allowed)")

    @property
    def m(self) -> int:
        return self.space.m


@dataclass(frozen=True)
class TheoremParams:
    """Source class, target space, and the truncation weight vector."""

    source: BesovParams
    target: MixedSpaceParams
    gamma_prime: Anisotropy

    def __post_init__(self) -> None:
        m = self.source.m
        if self.target.m != m or self.gamma_prime.m != m:
            raise ValueError("source, target, and weights must share one dimension")
        for src_ax, tgt_ax, r in zip(
            self.source.space.axes, self.target.axes, self.source.r
        ):
            if not src_ax.p < tgt_ax.p:
                raise ValueError("each target index q_j must exceed the source p_j")
            if not r > 1 / src_ax.p - 1 / tgt_ax.p:
                raise ValueError("smoothness must exceed 1/p_j - 1/q_j on every axis")

    @property
    def m(self) -> int:
        return self.source.m


@dataclass(frozen=True)
class DerivedExponents:
    """Rate ingredients derived from TheoremParams.

    Axis indices are 0-based.  delta = min_j gamma_j / gamma'_j; A collects
    the axes attaining it and j1 = min A.  mu is the exponent
    of the logarithmic factor in the main rate term, and hypothesis_margin
    is the min-expression whose positivity the sharp two-sided rate needs.
    """

    gamma: Anisotropy
    rho_star: Fraction
    delta: Fraction
    A: tuple[int, ...]
    j1: int
    mu: float
    hypothesis_margin: float


def derived_exponents(tp: TheoremParams) -> DerivedExponents:
    """Derive the normalized weights and rate exponents, exactly.

    gamma_j = (r_j + 1/q_j - 1/p_j) / (r_j0 + 1/q_j0 - 1/p_j0) with j0 the
    smallest index minimizing the numerator; ties in the minimum ratio
    gamma_j / gamma'_j are resolved by exact rational comparison.
    """
    m = tp.m
    p = [ax.p for ax in tp.source.space.axes]
    q = [ax.p for ax in tp.target.axes]
    rho = [r + 1 / qj - 1 / pj for r, pj, qj in zip(tp.source.r, p, q)]
    j0 = min(range(m), key=lambda j: (rho[j], j))
    gamma = Anisotropy(tuple(rj / rho[j0] for rj in rho))
    gp = tp.gamma_prime
    if any(g_prime > g for g_prime, g in zip(gp.weights, gamma.weights)):
        raise ValueError("truncation weights may not exceed the derived gamma")
    delta, a_set = _tied_axes(gamma, gp)
    j1, jp = a_set[0], a_set[-1]

    alphas = [ax.alpha for ax in tp.source.space.axes]
    betas = [ax.alpha for ax in tp.target.axes]
    tau2 = [ax.tau for ax in tp.target.axes]
    thetas = tp.source.thetas
    mu = sum(betas[j] - alphas[j] for j in a_set) + sum(
        max(0.0, 1.0 / tau2[j] - _inv(thetas[j])) for j in a_set if j != j1
    )
    margin = min(
        sum(betas[j] - alphas[j] for j in a_set if j != jp)
        + sum(1.0 / tau2[j] - _inv(thetas[j]) for j in a_set if j != j1),
        betas[jp] - alphas[jp] + 1.0 / tau2[jp] - _inv(thetas[jp]),
    )
    return DerivedExponents(
        gamma=gamma,
        rho_star=rho[j0],
        delta=delta,
        A=a_set,
        j1=j1,
        mu=mu,
        hypothesis_margin=margin,
    )


def theoretical_rate(n: int, d: DerivedExponents) -> float:
    """Main rate term 2^(-n rho_star) n^mu at integer level n >= 1."""
    if n < 1:
        raise ValueError("rate is defined for n >= 1")
    return 2.0 ** (-n * float(d.rho_star)) * float(n) ** d.mu


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values), by a sort and a mask of the entries unlike their
    predecessor; np.unique hashes int64 arrays, many times slower here."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def block_norm(
    block: SpectralFunction, space: MixedSpaceParams, grid: GridSpec
) -> float:
    """Target-space norm of one block component on the given grid.

    Blocks with a constant coefficient on a product support factorize: the
    norm is |c| times the product of the one-axis norms of the axis factors,
    each in its own axis's space on its own axis of the grid.  It agrees
    with the norm of the full grid to rounding, and the product grid is
    never synthesized.
    """
    c = block.coeffs
    axis_sets = [_distinct(block.freqs[:, j]) for j in range(block.m)]
    if c.size and (c == c[0]).all() and math.prod(map(len, axis_sets)) == c.size:
        factors = []
        for k, n, ax in zip(axis_sets, grid.shape, space.axes, strict=True):
            axis_poly = SpectralFunction(1, (k[:, None], np.ones(len(k))))
            axis_grid = synthesize(axis_poly, GridSpec((n,)))
            factors.append(anisotropic_norm(axis_grid, MixedSpaceParams((ax,))))
        return abs(complex(c[0])) * math.prod(factors)
    return anisotropic_norm(synthesize(block, grid), space)


def besov_functional(
    f: SpectralFunction,
    params: BesovParams,
    grid: GridSpec | Sequence[int],
    exact: bool = True,
) -> float:
    """Class functional: whole-function norm plus weighted block-norm sequence norm.

    Requires the zero-mean support condition: any coefficient on a
    hyperplane k_j = 0 is rejected, since such functions lie outside the
    class.  The grid must resolve the full bandwidth of f.  With exact the
    whole-function norm is measured on the grid.  Without, it is replaced
    by its triangle-inequality upper bound, the sum of the block norms, and
    no full grid is synthesized; the sequence term is exact either way,
    since block norms factorize per axis.
    """
    if not isinstance(grid, GridSpec):
        grid = GridSpec(tuple(grid))
    if f.m != params.m or grid.m != params.m:
        raise ValueError("dimension mismatch between f, parameters, and grid")
    if (f.freqs == 0).any():
        raise ValueError(
            "zero-mean support condition violated: coefficient with some k_j = 0"
        )
    if not f.n_terms:
        return 0.0
    # the full grid goes first, so its temporaries are freed before the
    # blocks are split off; f keeps the samples for a residual that kept
    # every row, which is f itself
    first = grid_norm(f, grid, params.space) if exact else None
    norms = {
        s: block_norm(comp, params.space, grid)
        for s, comp in nonzero_blocks(f).items()
    }
    r = [float(v) for v in params.r]
    weighted = {
        s: 2.0 ** (sum(sj * rj for sj, rj in zip(s, r))) * v
        for s, v in norms.items()
    }
    seq = mixed_sequence_norm(weighted, params.thetas)
    if first is None:
        first = math.fsum(norms.values())
    return first + seq


def _coefficient(s_full: Sequence[int], tp: TheoremParams) -> float:
    out = 1.0
    for sj, ax, r in zip(s_full, tp.source.space.axes, tp.source.r):
        exponent = float(r) + 1.0 - 1.0 / float(ax.p)
        out *= 2.0 ** (-sj * exponent) * (sj + 1.0) ** (-ax.alpha)
    return out


def _spread_support(
    n: int, tp: TheoremParams, d: DerivedExponents, varying: Sequence[int]
) -> SpectralFunction:
    """Block-sum function over the layer of the given varying axes.

    The layer holds the level vectors on the varying axes with gamma-weighted
    sum exactly n and all entries >= 1; every block carries the prefactor
    n^(-sum_{j in A, j != j1} 1/theta_j).  Frozen axes carry the single
    harmonic k_j = 1: the lowest nonzero frequency, standing in for the
    empty level-zero block so the zero-mean support condition holds while
    the level sum is unchanged in order.
    """
    sub = Anisotropy(tuple(d.gamma.weights[j] for j in varying))
    layer = [s for s in layer_exact(n, sub) if min(s) >= 1]
    if not layer:
        raise ValueError(
            f"empty layer: no level vector on the axes {list(varying)} sums to n"
        )
    prefactor = float(n) ** (
        -sum(_inv(tp.source.thetas[j]) for j in d.A if j != d.j1)
    )
    m = tp.m
    freqs, coeffs = [], []
    for s_var in layer:
        s_full = [0] * m
        for pos, j in enumerate(varying):
            s_full[j] = s_var[pos]
        block = cartesian_rows(
            [axis_block(s_full[j]) if j in varying else [1] for j in range(m)]
        )
        freqs.append(block)
        coeffs.append(np.full(len(block), prefactor * _coefficient(s_full, tp)))
    return SpectralFunction(m, (np.concatenate(freqs), np.concatenate(coeffs)))


def extremal_f1(n: int, tp: TheoremParams) -> SpectralFunction:
    """Layer-spread extremal function realizing the lower rate bound.

    Sums uniform-coefficient blocks over all level vectors on the tied axes
    A with weighted sum exactly n (entries >= 1), scaled by
    n^(-sum_{j in A, j != j1} 1/theta_j).
    """
    if n < 1:
        raise ValueError("level must be a positive integer")
    d = derived_exponents(tp)
    return _spread_support(n, tp, d, d.A)


def extremal_f2(n: int, tp: TheoremParams) -> SpectralFunction:
    """Single-block extremal function just outside the level-n cross.

    Uses the lexicographically smallest level vector with all entries >= 1
    whose gamma'-weighted sum reaches n.
    """
    if n < 1:
        raise ValueError("level must be a positive integer")
    m = tp.m
    gp = tp.gamma_prime.weights
    s = [1] * m
    rem = as_fraction(n) - sum(gp[:-1], Fraction(0))
    s[-1] = max(1, math.ceil(rem / gp[-1]))
    c = _coefficient(s, tp)
    freqs = cartesian_rows([axis_block(sj) for sj in s])
    return SpectralFunction(m, (freqs, np.full(len(freqs), c)))


def extremal_f3(n: int, tp: TheoremParams) -> SpectralFunction:
    """Extremal function spread only over axes where the dual route is tight.

    B collects axes with tau2_j < theta_j; the layer varies on
    B' = (A intersect B) union {j1} and the remaining axes are frozen, with
    the same prefactor as extremal_f1.
    """
    if n < 1:
        raise ValueError("level must be a positive integer")
    d = derived_exponents(tp)
    b_set = {
        j
        for j, (ax, theta) in enumerate(zip(tp.target.axes, tp.source.thetas))
        if ax.tau < theta
    }
    b_prime = sorted((set(d.A) & b_set) | {d.j1})
    return _spread_support(n, tp, d, b_prime)
