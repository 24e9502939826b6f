"""Discrete asymptotic sums, their closed-form references, and order-of-growth fits.

Each lemma-style quantity comes in a pair: an exact finite evaluation (the
left-hand side) and the closed-form reference whose order it is claimed to
match.  ratio_scan tabulates their quotient over a level range; rate_fit
extracts empirical exponents from (level, value) data by least squares in
log2 coordinates.

The sums of lemmas 1 and 2 accumulate with math.fsum, so evaluation order
cannot perturb the result and exact symmetries of the summands survive in
floating point.  Lemmas 3 and 4 take a mixed sequence norm by a budget
recursion over the level sum (_budget_norm).  It adds in the order of s,
the order in which numpy reduces a dense box along an axis, so on weights
that are exact in floating point it gives the dense box's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .indexsets import Anisotropy, RationalLike, _distinct, as_fraction
from .norms import _check_cells, _exponents


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


# a series stops once the bound on what it leaves out is at most this share
# of the smallest tail it enters: below a quarter of an ulp, so no term left
# out could move a sum taken in the order of s
_TAIL_SHARE = 2.0**-60

_DENSE_CELLS = 1 << 16  # a budget recursion array this small is held whole


def _tail_terms(
    alpha: float, gamma_j: float, lam: float, theta: float, first: int,
    check: Callable[[int], None], where: str,
) -> tuple[np.ndarray, float]:
    """u(s) = 2^(-alpha s gamma_j) (s+1)^lam for s = 0..K, K >= first, and a
    bound on the sum of u(s)^theta over s > K (0 when theta is inf).

    The ratios u(s+1)/u(s) tend to 2^(-alpha gamma_j) < 1, falling when
    lam > 0 and rising otherwise; with q their least upper bound over s >= K
    and t = u^theta, the terms left out sum to at most t(K) q^theta /
    (1 - q^theta).  K grows until that is at most _TAIL_SHARE of the sum of
    t over first..K.  For theta = inf, u falls from K on, so the maximum
    over s >= S is the maximum over S..K.  K + 1 is a multiple of 8
    (_budget_norm), and check(K + 1) runs before the terms are allocated.
    """
    rate = alpha * gamma_j
    # u falls from s = k0 on: ((k0+2)/(k0+1))^lam < 2^rate
    k = max(first, math.floor(1.0 / math.expm1(min(rate * math.log(2.0) / lam, 1.0)))
            if lam > 0 else 0)
    if math.isfinite(theta):  # the steps 2^-rate ratios take to the share
        k += math.ceil(-math.log2(_TAIL_SHARE) / (rate * theta))
    while True:
        k |= 7
        check(k + 1)
        s = np.arange(k + 1)
        u = np.exp2(-alpha * (s * gamma_j)) * (s + 1.0) ** lam
        t = u[first:] ** theta if math.isfinite(theta) else u[first:]
        if not (np.isfinite(u).all() and np.isfinite(t).all()):
            raise ArithmeticError(f"lemma 3 term {where} is not finite")
        q = max(2.0**-rate * ((k + 2.0) / (k + 1.0)) ** lam, 2.0**-rate)
        qt = q**theta if math.isfinite(theta) else q
        if qt >= 1.0:
            k = 2 * k + 1
        elif math.isinf(theta):
            return u, 0.0
        else:
            bound, tail = float(t[-1]) * qt / (1.0 - qt), float(t.sum())
            if not math.isfinite(tail):
                raise ArithmeticError(f"lemma 3 tail {where} is not finite")
            if bound <= _TAIL_SHARE * tail:
                return u, bound
            # t falls by at least qt a step, so this many more steps suffice
            k += 1 + math.ceil(math.log2(bound / tail / _TAIL_SHARE) / -math.log2(qt))


def _budget_norm(
    n: RationalLike,
    scale: Anisotropy,
    weights: Callable[[int, int, Callable[[int], None]], np.ndarray],
    thetas: Sequence[float],
    outer: bool,
    what: str,
) -> float:
    """Mixed sequence norm, axis 0 innermost as in norms.mixed_reduce, of
    u_0(s_0) ... u_{m-1}(s_{m-1}) over the layer <s, g> = N, or over the
    outer set <s, g> >= N when outer; (g, N) = scale.scaled(n).

    F_j(r), the norm over axes 0..j-1 when they must take the budget r, is
    F_0(r) = [r = 0] on the layer, [r <= 0] on the outer set, and
    F_{j+1}(r) = || u_j(s) F_j(r - g_j s) ||_{theta_j over s}; the value is
    F_m(N).  F_j is held on the budgets that axes j..m-1 leave, as sorted
    distinct integers (int64 below 2**63, Python integers above, as in
    indexsets.cross_membership).  Every budget below 0 (outer) or -1 (layer)
    stands at that floor, where F_j is the same: all spent, or overspent.

    weights(j, top, check) returns u_j(s) for s = 0..K, past top, the s_j
    from which the largest budget is spent (outer), or up to top, the
    largest s_j it allows (layer); it calls check(K + 1) first.  Axis j
    reduces a (rows) x (budgets) array, rows = top + 1 when there are two
    or more budgets and K + 1 rows would fill more than _DENSE_CELLS cells,
    K + 1 otherwise, adding in the order of s as numpy reduces a dense box
    along an axis; the array, and the series, are checked against
    DEFAULT_MAX_GRID_CELLS before they are allocated.  Rows past top hold
    u_j(s) F_j(floor) in every column; those left out are added after the
    array's sum, in blocks as tall.  Its last axis is one 1-D
    sum, which numpy takes in eight interleaved partial sums when it has up
    to 128 entries, with the last len % 8 after them; so the outer set's
    series have a multiple of 8 terms, and each term joins the partial sum
    of its index mod 8, as in a dense box.
    """
    g, total = scale.scaled(n)
    m = len(g)
    if not outer and total < 0:
        return 0.0
    floor = 0 if outer else -1
    # every budget and step lies within |N| + max(g) of 0
    dtype = np.int64 if abs(total) + max(g) < 1 << 63 else object
    reach = [None] * m + [np.array([max(total, floor)], dtype=dtype)]
    tops = [0] * m
    for j in range(m - 1, -1, -1):
        r = int(reach[j + 1].max())
        tops[j] = -(-r // g[j]) if outer else r // g[j]
        if j:
            _check_cells(f"{what} recursion array of axis {j}", (tops[j] + 1, len(reach[j + 1])))
            steps = np.arange(tops[j] + 1, dtype=dtype)[:, None] * g[j]
            reach[j] = _distinct(np.maximum(reach[j + 1] - steps, floor))
    # s >= tops[j] leaves every budget at the floor; numpy adds the rows of
    # two or more columns one after another, so those rows can be added
    # after the array's sum, but it sums one column pairwise: that is dense
    def held(j: int, rows: int) -> int:
        cols = len(reach[j + 1])
        return rows if cols == 1 or rows * cols <= _DENSE_CELLS else min(rows, tops[j] + 1)

    def check(j: int, rows: int) -> None:
        _check_cells(f"{what} recursion array of axis {j}", (held(j, rows), len(reach[j + 1])))
        _check_cells(f"{what} series of axis {j}", (rows,))

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        us = [weights(j, tops[j], lambda rows, j=j: check(j, rows)) for j in range(m)]
        for j, (u, theta) in enumerate(zip(us, thetas)):
            rows = held(j, len(u))
            steps = np.minimum(np.arange(rows, dtype=dtype), tops[j])
            cand = np.maximum(reach[j + 1] - steps[:, None] * g[j], floor)
            f = (cand == 0) if j == 0 else values[np.searchsorted(reach[j], cand)]
            del cand
            x = u[:rows, None] * f
            if j == m - 1:
                x = x[:, 0]
            inf = math.isinf(theta)
            values = x.max(axis=0) if inf else (x**theta).sum(axis=0)
            for i in range(rows, len(u), rows):  # u(s) F_j(floor) past x
                t = u[i : i + rows, None] * f[-1, 0]
                block = np.empty((len(t) + 1, len(values)))
                block[0], block[1:] = values, t if inf else t**theta
                values = block.max(axis=0) if inf else block.sum(axis=0)
            if not inf:
                values **= 1.0 / theta
    return float(values)


def lemma3_lhs(
    n: int,
    gamma: Anisotropy,
    gamma_prime: Anisotropy,
    lams: Sequence[float],
    thetas: Sequence[float],
    alpha: float,
    *,
    record: list | None = None,
) -> float:
    """Mixed sequence norm of 2^(-alpha <s,gamma>) prod (s_j+1)^lam_j over the outer layer.

    The index set {s in Z_+^m : <s, gamma'> >= n} is infinite.  The norm is
    a budget recursion over the integer level sums of gamma' (_budget_norm):
    past the budget each axis adds its series 2^(-alpha gamma_j s) (s+1)^lam_j,
    summed until a geometric bound on what is left is below _TAIL_SHARE of
    the smallest tail it enters (_tail_terms); alpha > 0 makes it summable
    for any finite exponents.  A non-finite term, tail or value (beyond the
    float range) raises ArithmeticError, and a series or recursion array
    above DEFAULT_MAX_GRID_CELLS cells ValueError.  With record, appends
    {"n", "tail_bound", "terms"}: per axis, the bound on the sum of
    u_j(s)^theta_j its series left out (0 for theta = inf), and its number
    of terms.
    """
    if gamma.m != gamma_prime.m or len(lams) != gamma.m or len(thetas) != gamma.m:
        raise ValueError("dimension mismatch among weights and exponents")
    if not alpha > 0:
        raise ValueError("alpha must be positive for the tail to converge")
    thetas = _exponents(thetas)
    gfloat = gamma.as_floats()
    bounds, terms = [], []

    def weights(j: int, top: int, check: Callable[[int], None]) -> np.ndarray:
        u, bound = _tail_terms(
            alpha, gfloat[j], lams[j], thetas[j], top, check, f"of axis {j} at n={n}"
        )
        bounds.append(bound)
        terms.append(len(u))
        return u

    value = _budget_norm(n, gamma_prime, weights, thetas, True, "lemma 3")
    if not math.isfinite(value):
        raise ArithmeticError(f"lemma 3 value at n={n} is not finite")
    if record is not None:
        record.append({"n": n, "tail_bound": bounds, "terms": terms})
    return value


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

    The layer is finite; an empty layer yields 0.  On it 2^(-alpha <s,gamma>)
    is the constant 2^(-alpha n), which stays outside the budget recursion
    (_budget_norm) of the weights (s_j+1)^lam_j.  A recursion array above
    DEFAULT_MAX_GRID_CELLS cells raises ValueError before any is allocated,
    and a non-finite term or value ArithmeticError.
    """
    if len(lams) != gamma.m or len(epsilons) != gamma.m:
        raise ValueError("dimension mismatch among weights and exponents")
    epsilons = _exponents(epsilons)

    def weights(j: int, top: int, check: Callable[[int], None]) -> np.ndarray:
        check(top + 1)
        u = (np.arange(top + 1) + 1.0) ** lams[j]
        if not np.isfinite(u).all():
            raise ArithmeticError(f"lemma 4 term of axis {j} at n={n} is not finite")
        return u

    value = 2.0 ** (-alpha * float(as_fraction(n))) * _budget_norm(
        n, gamma, weights, epsilons, False, "lemma 4"
    )
    if not math.isfinite(value):
        raise ArithmeticError(f"lemma 4 value at n={n} is not finite")
    return value


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
