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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .asymptotics import _inv, _tied_axes
from .indexsets import Anisotropy, MultiIndex, as_fraction, axis_block, layer_exact
from .norms import DEFAULT_MAX_GRID_CELLS, MixedSpaceParams, mixed_sequence_norm
from .spectral import (
    Blocks,
    GridSpec,
    Product,
    SpectralFunction,
    _blocks_norm,
    _factor_norms,
    _resolving,
    _route,
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


def besov_functional(
    f: SpectralFunction,
    params: BesovParams,
    grid: GridSpec | Sequence[int],
    exact: bool = True,
) -> float:
    """Class functional: whole-function norm plus weighted block-norm sequence norm.

    Requires the zero-mean support condition: any coefficient on a
    hyperplane k_j = 0 is rejected, since such functions lie outside the
    class.  The grid must resolve the full bandwidth of f.  The value is
    class_functional of f's block list (f.blocks): with exact the
    whole-function norm is grid_norm(f, grid, params.space), without, its
    triangle-inequality upper bound, the sum of the block norms
    (spectral.block_norms), and no full grid is synthesized.
    """
    if not isinstance(grid, GridSpec):
        grid = GridSpec(tuple(grid))
    if f.m != params.m or grid.m != params.m:
        raise ValueError("dimension mismatch between f, parameters, and grid")
    if (f.freqs == 0).any():
        raise ValueError(
            "zero-mean support condition violated: coefficient with some k_j = 0"
        )
    return class_functional(f.blocks, _resolving(f, grid), params, exact)[0]


def class_functional(
    blocks: Blocks, grid: GridSpec, params: BesovParams, exact: bool
) -> tuple[float, str]:
    """The class functional of the sum f of the blocks (a block list, as
    SpectralFunction.blocks or extremal_blocks give it) on a grid resolving
    f, and the route of its whole-function norm (spectral._route, as
    grid_route names it) or "bound".  With exact the whole-function norm is
    grid_norm's, from the blocks (_blocks_norm); without, its triangle
    bound, the sum of the block norms.  To it is added the sequence norm
    over the levels of the block norms (block_norms', from the blocks'
    axis factors) weighted by 2^<s, r>.  Both parts read one table of the
    blocks' sign-symmetric axis factors (spectral._orthant_factor), made
    for this call: each distinct (K, N_j) is synthesized once."""
    space = params.space
    factors = {}
    first = _blocks_norm(blocks, grid.shape, space, factors) if exact else None
    norms = _factor_norms(blocks, grid.shape, space, factors)
    r = [float(v) for v in params.r]
    weighted = {
        s: 2.0 ** (sum(sj * rj for sj, rj in zip(s, r))) * v
        for s, v in norms.items()
    }
    seq = mixed_sequence_norm(weighted, params.thetas)
    if first is None:
        return math.fsum(norms.values()) + seq, "bound"
    return first + seq, _route(blocks, space)


def _coefficient(s_full: Sequence[int], tp: TheoremParams) -> float:
    out = 1.0
    for sj, ax, r in zip(s_full, tp.source.space.axes, tp.source.r):
        exponent = float(r) + 1.0 - 1.0 / float(ax.p)
        out *= 2.0 ** (-sj * exponent) * (sj + 1.0) ** (-ax.alpha)
    return out


def extremal_levels(
    n: int, tp: TheoremParams, which: int, *, d: DerivedExponents | None = None
) -> list[list[int]]:
    """Block level vectors of the extremal function f_which at level n, in
    the order its blocks are listed; an axis held at the single harmonic
    k_j = 1 reads level 0.

    f_1 and f_3 spread over a layer of varying axes: the level vectors on
    them with gamma-weighted sum exactly n and all entries >= 1.  f_2 is one
    block.  Block s holds 2**sum(s) frequencies, and a function of more than
    DEFAULT_MAX_GRID_CELLS of them is refused here, before any is listed.
    d is derived_exponents(tp), computed here when not given.
    """
    if which not in (1, 2, 3):
        raise ValueError("which must be 1, 2, or 3")
    if n < 1:
        raise ValueError("level must be a positive integer")
    m = tp.m
    if which == 2:
        gp = tp.gamma_prime.weights
        s = [1] * m
        rem = as_fraction(n) - sum(gp[:-1], Fraction(0))
        s[-1] = max(1, math.ceil(rem / gp[-1]))
        levels = [s]
    else:
        d = d or derived_exponents(tp)
        varying = d.A if which == 1 else _tight_axes(tp, d)
        sub = Anisotropy(tuple(d.gamma.weights[j] for j in varying))
        if n > 64 * max(sub.weights):  # so sum(s) > 64 on the whole layer
            raise _too_many(n, "at least 2**64")
        layer = [s for s in layer_exact(n, sub) if min(s) >= 1]
        if not layer:
            raise ValueError(
                f"empty layer: no level vector on the axes {list(varying)} sums to n"
            )
        levels = []
        for s_var in layer:
            s_full = [0] * m
            for pos, j in enumerate(varying):
                s_full[j] = s_var[pos]
            levels.append(s_full)
    rows = sum(1 << min(sum(s), 64) for s in levels)  # exact below 2**64
    if rows > DEFAULT_MAX_GRID_CELLS:
        raise _too_many(n, rows if rows < 1 << 64 else "at least 2**64")
    return levels


def _too_many(n: int, count: int | str) -> ValueError:
    return ValueError(
        f"the extremal function at n={n} would hold {count} frequencies, "
        f"more than {DEFAULT_MAX_GRID_CELLS}"
    )


def _tight_axes(tp: TheoremParams, d: DerivedExponents) -> list[int]:
    """B' = (A intersect B) union {j1}, B the axes with tau2_j < theta_j."""
    b_set = {
        j
        for j, (ax, theta) in enumerate(zip(tp.target.axes, tp.source.thetas))
        if ax.tau < theta
    }
    return sorted((set(d.A) & b_set) | {d.j1})


def level_bandwidth(levels: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Per-axis bandwidth of the extremal function with these block levels
    (extremal_levels): 2**s_j - 1 at level s_j >= 1, and 1 at level 0."""
    return tuple(max(max(1, (1 << sj) - 1) for sj in axis) for axis in zip(*levels))


def extremal_blocks(
    n: int, tp: TheoremParams, which: int, *, d: DerivedExponents | None = None
) -> dict[MultiIndex, Product]:
    """The blocks of f_which at level n as {level: (c, [K_1, ..., K_m])}, in
    the order of extremal_levels, without listing a frequency: the
    coefficient prefactor * _coefficient(s) on the product of the axis sets
    axis_block(s_j), and K_j = [1] on an axis at level 0, which stands in
    for the empty level-zero block so the zero-mean support condition holds
    while the level sum is unchanged in order.  The key is the level of the
    block's rows (block_levels): 1 on such an axis.  A block whose
    coefficient underflows to 0 is left out, as f drops its rows.  d is
    derived_exponents(tp), computed here when not given."""
    levels = extremal_levels(n, tp, which, d=d)
    prefactor = 1.0
    if which != 2:
        d = d or derived_exponents(tp)
        thetas = tp.source.thetas
        prefactor = float(n) ** (-sum(_inv(thetas[j]) for j in d.A if j != d.j1))

    @functools.cache
    def axis_set(sj: int) -> np.ndarray:
        return axis_block(sj) if sj else np.ones(1, dtype=np.int64)

    blocks = {}
    for s in levels:
        c = prefactor * _coefficient(s, tp)
        if c:
            blocks[tuple(max(1, sj) for sj in s)] = (complex(c), list(map(axis_set, s)))
    return blocks


def _extremal(n: int, tp: TheoremParams, which: int) -> SpectralFunction:
    """f_which at level n: the rows of extremal_blocks, listed."""
    return SpectralFunction.from_blocks(tp.m, extremal_blocks(n, tp, which))


def extremal_f1(n: int, tp: TheoremParams) -> SpectralFunction:
    """Layer-spread extremal function realizing the lower rate bound.

    Sums uniform-coefficient blocks over all level vectors on the tied axes
    A with weighted sum exactly n (entries >= 1), scaled by
    n^(-sum_{j in A, j != j1} 1/theta_j).
    """
    return _extremal(n, tp, 1)


def extremal_f2(n: int, tp: TheoremParams) -> SpectralFunction:
    """Single-block extremal function just outside the level-n cross.

    Uses the lexicographically smallest level vector with all entries >= 1
    whose gamma'-weighted sum reaches n.
    """
    return _extremal(n, tp, 2)


def extremal_f3(n: int, tp: TheoremParams) -> SpectralFunction:
    """Extremal function spread only over axes where the dual route is tight.

    B collects axes with tau2_j < theta_j; the layer varies on
    B' = (A intersect B) union {j1} and the remaining axes are frozen, with
    the same prefactor as extremal_f1.
    """
    return _extremal(n, tp, 3)
