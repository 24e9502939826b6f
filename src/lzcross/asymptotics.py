"""Discrete asymptotic sums, their closed-form references, and order-of-growth fits.

Each lemma-style quantity comes in a pair: an exact finite evaluation (the
left-hand side) and the closed-form reference whose order it is claimed to
match.  ratio_scan tabulates their quotient over a level range; rate_fit
extracts empirical exponents from (level, value) data by least squares in
log2 coordinates.

All sums accumulate with math.fsum, so evaluation order cannot perturb the
result and exact symmetries of the summands survive in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .indexsets import Anisotropy, RationalLike, as_fraction, cross_membership, layer_exact
from .norms import _check_cells, mixed_reduce, mixed_sequence_norm


def _inv(theta: float) -> float:
    """1/theta with the convention 1/inf = 0."""
    return 0.0 if math.isinf(theta) else 1.0 / theta


# -- convolution-type sums ---------------------------------------------------


def lemma1_sum(l: int, alpha: float, beta: float) -> float:
    """sum_{s=0}^{l-1} (s+1)^(-alpha) (l-s)^(-beta)."""
    if l < 1:
        raise ValueError("l must be a positive integer")
    return math.fsum(
        (s + 1.0) ** (-alpha) * (l - s) ** (-beta) for s in range(l)
    )


def lemma1_interior_sum(l: int, beta: float) -> float:
    """sum_{0<s<l} s^(-1) (l-s)^(-beta), the boundary-free variant."""
    if l < 1:
        raise ValueError("l must be a positive integer")
    return math.fsum(s ** (-1.0) * (l - s) ** (-beta) for s in range(1, l))


def lemma1_reference(l: int, alpha: float, beta: float) -> float:
    """Closed-form order for the convolution sum, by parameter regime.

    alpha < 1, beta < 1:        (l+1)^(1-alpha-beta)
    alpha = beta = 1:           l^(-1) ln(1+l)
    alpha = 1, 0 < beta < 1:    l^(-beta) ln(1+l), for the interior sum
    """
    if l < 1:
        raise ValueError("l must be a positive integer")
    if alpha == 1.0 and beta == 1.0:
        return math.log(1.0 + l) / l
    if alpha == 1.0 and 0.0 < beta < 1.0:
        return l ** (-beta) * math.log(1.0 + l)
    if alpha < 1.0 and beta < 1.0:
        return (l + 1.0) ** (1.0 - alpha - beta)
    raise ValueError("no reference covers this (alpha, beta) regime")


def lemma2_sum(
    n: int,
    beta: float,
    theta: float,
    lam1: float,
    lam2: float,
    mode: Literal["decay", "growth"],
) -> float:
    """sum_{s=0}^{n} 2^(-+ s beta theta) (s+1)^(lam2 theta) (n-s+1)^(lam1 theta).

    mode "decay" uses the minus sign in the geometric factor, "growth" the plus.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not beta > 0 or not 0 < theta < math.inf:
        raise ValueError("beta must be positive and theta finite positive")
    if mode not in ("decay", "growth"):
        raise ValueError("mode must be decay or growth")
    sign = -1.0 if mode == "decay" else 1.0
    return math.fsum(
        2.0 ** (sign * s * beta * theta)
        * (s + 1.0) ** (lam2 * theta)
        * (n - s + 1.0) ** (lam1 * theta)
        for s in range(n + 1)
    )


def lemma2_reference(
    n: int,
    beta: float,
    theta: float,
    lam1: float,
    lam2: float,
    mode: Literal["decay", "growth"],
) -> float:
    """Order of lemma2_sum: (n+1)^(lam1 theta) decaying, 2^(n beta theta) (n+1)^(lam2 theta) growing."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if mode == "decay":
        return (n + 1.0) ** (lam1 * theta)
    if mode == "growth":
        return 2.0 ** (n * beta * theta) * (n + 1.0) ** (lam2 * theta)
    raise ValueError("mode must be decay or growth")


# -- weighted-layer sequence norms -------------------------------------------


def _tied_axes(
    gamma: Anisotropy, gamma_prime: Anisotropy
) -> tuple:
    """Exact delta = min gamma_j/gamma'_j and the axes attaining it."""
    ratios = [g / gp for g, gp in zip(gamma.weights, gamma_prime.weights)]
    delta = min(ratios)
    a_set = tuple(j for j, rho in enumerate(ratios) if rho == delta)
    return delta, a_set


def lemma3_lhs(
    n: int,
    gamma: Anisotropy,
    gamma_prime: Anisotropy,
    lams: Sequence[float],
    thetas: Sequence[float],
    alpha: float,
) -> float:
    """Mixed sequence norm of 2^(-alpha <s,gamma>) prod (s_j+1)^lam_j over the outer layer.

    The index set is {s in Z_+^m : <s, gamma'> >= n}; it is infinite, so the
    sum is evaluated on growing boxes until enlarging the box changes the
    value by less than 1e-13 relative twice in a row.  A box beyond 4096
    levels per axis or DEFAULT_MAX_GRID_CELLS cells raises ValueError before
    it is allocated, and a box value that is not finite (a term beyond the
    float range) raises ArithmeticError.  indexsets.cross_membership decides
    membership exactly; alpha > 0 makes the tail summable for any finite
    exponents.
    """
    if gamma.m != gamma_prime.m or len(lams) != gamma.m or len(thetas) != gamma.m:
        raise ValueError("dimension mismatch among weights and exponents")
    if not alpha > 0:
        raise ValueError("alpha must be positive for the tail to converge")
    gfloat = gamma.as_floats()

    def value_on_box(box: list[int]) -> float:
        dims = tuple(b + 1 for b in box)
        if max(box) > 4096:
            raise ValueError(f"lemma 3 box {dims} exceeds the limit of 4096 levels")
        _check_cells("lemma 3 box", dims)
        mesh = np.ix_(*(np.arange(b + 1) for b in box))
        level = sum(s * g for s, g in zip(mesh, gfloat))
        with np.errstate(over="ignore", invalid="ignore"):
            term = np.exp2(-alpha * level)
            for s, lam in zip(mesh, lams):
                term = term * (s + 1.0) ** lam
            term[cross_membership(n, gamma_prime, mesh)] = 0.0
            value = mixed_reduce(term, thetas)
        if not math.isfinite(value):
            raise ArithmeticError(f"lemma 3 box {dims} value at n={n} is not finite")
        return value

    box = [int(max(1, -(-as_fraction(n) // g)) + 8) for g in gamma_prime.weights]
    prev = value_on_box(box)
    stable = 0
    while True:
        box = [b + 16 for b in box]
        cur = value_on_box(box)
        if abs(cur - prev) <= 1e-13 * max(cur, 1e-300):
            stable += 1
            if stable >= 2:
                return cur
        else:
            stable = 0
        prev = cur


def lemma3_reference(
    n: int,
    gamma: Anisotropy,
    gamma_prime: Anisotropy,
    lams: Sequence[float],
    thetas: Sequence[float],
    alpha: float,
) -> float:
    """Order of lemma3_lhs: 2^(-n alpha delta) n^(sum_A lam_j + sum_{A minus j1} 1/theta_j).

    Requires the positivity condition
    min{ sum_{j in A, j != jmax} lam_j + sum_{j in A, j != j1} 1/theta_j,
         lam_jmax + 1/theta_jmax } > 0,
    where A holds the axes tying the exact minimum of gamma_j / gamma'_j.
    With a single tied axis only the second argument applies; the first
    would be an empty sum and must not veto the formula.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    delta, a_set = _tied_axes(gamma, gamma_prime)
    j1, jp = a_set[0], a_set[-1]
    condition = lams[jp] + _inv(thetas[jp])
    if len(a_set) > 1:
        condition = min(
            condition,
            sum(lams[j] for j in a_set if j != jp)
            + sum(_inv(thetas[j]) for j in a_set if j != j1),
        )
    if not condition > 0:
        raise ValueError("positivity condition fails; the order formula is void")
    exponent = sum(lams[j] for j in a_set) + sum(
        _inv(thetas[j]) for j in a_set if j != j1
    )
    return 2.0 ** (-n * alpha * float(delta)) * float(n) ** exponent


def lemma4_lhs(
    n: RationalLike,
    gamma: Anisotropy,
    lams: Sequence[float],
    epsilons: Sequence[float],
    alpha: float,
) -> float:
    """Mixed sequence norm of the same weights over the exact layer <s, gamma> = n.

    The layer is finite; an empty layer yields 0.  Its box, of
    floor(n / gamma_j) + 1 levels per axis, above DEFAULT_MAX_GRID_CELLS
    cells raises ValueError before the layer is listed.
    """
    if len(lams) != gamma.m or len(epsilons) != gamma.m:
        raise ValueError("dimension mismatch among weights and exponents")
    nq = as_fraction(n)
    box = tuple(max(0, nq // g) + 1 for g in gamma.weights)
    _check_cells(f"lemma 4 layer box at n={n}", box)
    nf = float(nq)
    values = {
        s: 2.0 ** (-alpha * nf)
        * math.prod((sj + 1.0) ** lam for sj, lam in zip(s, lams))
        for s in layer_exact(n, gamma)
    }
    return mixed_sequence_norm(values, epsilons)


def lemma4_reference(
    n: int, lams: Sequence[float], epsilons: Sequence[float], alpha: float
) -> float:
    """Order of lemma4_lhs: 2^(-n alpha) n^(sum lam_j + sum_{j>=2} 1/eps_j)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    exponent = sum(lams) + sum(_inv(e) for e in epsilons[1:])
    return 2.0 ** (-n * alpha) * float(n) ** exponent


# -- scans and fits -----------------------------------------------------------


@dataclass(frozen=True)
class RatioReport:
    """Tabulated lhs/rhs ratios over a level range."""

    relation: Literal["two-sided", "lower", "upper"]
    rows: tuple[tuple[int, float, float, float], ...]

    @property
    def min_ratio(self) -> float:
        return min(r[3] for r in self.rows)

    @property
    def max_ratio(self) -> float:
        return max(r[3] for r in self.rows)

    @property
    def spread(self) -> float:
        lo = self.min_ratio
        return math.inf if lo == 0.0 else self.max_ratio / lo

    def verdict(
        self,
        *,
        spread_threshold: float | None = None,
        lower_threshold: float | None = None,
        upper_threshold: float | None = None,
    ) -> bool:
        """True when the tabulated ratios meet the claim of this relation."""
        if self.relation == "two-sided":
            limit = 10.0 if spread_threshold is None else spread_threshold
            return self.spread <= limit
        if self.relation == "lower":
            limit = 0.1 if lower_threshold is None else lower_threshold
            return self.min_ratio >= limit
        limit = 10.0 if upper_threshold is None else upper_threshold
        return self.max_ratio <= limit


def ratio_scan(
    lhs: Callable[[int], float],
    rhs: Callable[[int], float],
    ns: Sequence[int],
    *,
    relation: Literal["two-sided", "lower", "upper"] = "two-sided",
) -> RatioReport:
    """Evaluate lhs(n)/rhs(n) over the given levels.

    References must be strictly positive; a vanishing lhs is recorded as
    ratio 0 and will fail any two-sided or lower verdict honestly.  A
    non-finite lhs or rhs is a numerical failure (ArithmeticError), a
    negative lhs or a reference <= 0 a ValueError.
    """
    if len(ns) == 0:
        raise ValueError("at least one level is required")
    rows = []
    for n in ns:
        lv, rv = float(lhs(n)), float(rhs(n))
        if not (math.isfinite(lv) and math.isfinite(rv)):
            raise ArithmeticError(f"non-finite value at n={n}")
        if rv <= 0 or lv < 0:
            raise ValueError(f"sign violation at n={n}: lhs={lv}, rhs={rv}")
        rows.append((int(n), lv, rv, lv / rv))
    return RatioReport(relation, tuple(rows))


@dataclass(frozen=True)
class RateFit:
    """Least-squares model log2 E = -slope n + polylog log2 n + intercept.

    The intercept is fitted but not kept: no verdict or output reads it.
    """

    slope: float
    polylog: float


def rate_fit(
    points: Sequence[tuple[int, float]], fix_slope: float | None = None
) -> RateFit:
    """Fit decay slope and log-power from (level, positive value) pairs.

    With fix_slope the geometric part is pinned and only the log-power and
    intercept are estimated.  Requires at least four points with distinct
    levels; a rank-deficient design is rejected.
    """
    if len(points) < 4:
        raise ValueError("at least four points are required")
    ns = np.array([float(n) for n, _ in points])
    vals = np.array([float(v) for _, v in points])
    if np.any(ns < 1) or np.any(vals <= 0):
        raise ValueError("levels must be >= 1 and values positive")
    y = np.log2(vals)
    if fix_slope is None:
        design = np.column_stack([-ns, np.log2(ns), np.ones_like(ns)])
    else:
        y = y + float(fix_slope) * ns
        design = np.column_stack([np.log2(ns), np.ones_like(ns)])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise ValueError("degenerate design: levels do not determine the fit")
    if fix_slope is None:
        slope, polylog = coef[0], coef[1]
    else:
        slope, polylog = fix_slope, coef[0]
    return RateFit(slope=float(slope), polylog=float(polylog))
