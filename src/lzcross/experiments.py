"""End-to-end empirical rate experiments at desk scale.

The main experiment normalizes an extremal function by its class functional,
measures how far it sits from the level-n hyperbolic cross in the target
norm, and compares the decay of that error against the predicted main rate
term.  Levels are evaluated one after another on the calling thread and
reported in ascending level order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .asymptotics import RateFit, RatioReport, rate_fit, ratio_scan
from .classes import (
    DerivedExponents,
    TheoremParams,
    class_functional,
    derived_exponents,
    extremal_blocks,
    extremal_levels,
    level_bandwidth,
    theoretical_rate,
)
from .indexsets import Anisotropy, cross_cardinality, cross_membership
from .norms import DEFAULT_MAX_GRID_CELLS, MixedSpaceParams
from .spectral import (
    Blocks,
    GridSpec,
    SpectralFunction,
    _blocks_norm,
    _parseval,
    truncation_error,
)


@dataclass(frozen=True)
class RatePoint:
    """One level of theorem1_rate_experiment, evaluated from f's block list;
    its class functional is exact unless the normalizer is "bound" (the
    triangle bound above the cell budget).  The *_s fields are the wall
    seconds of its three stages: building the block list, its class
    functional (with the route), and its truncation error."""

    n: int
    error: float
    reference: float
    normalizer: str  # "product", "orthant" or "grid" (spectral._route), or "bound"
    support_size: int
    blocks: int
    grid_cells: int
    build_s: float
    normalize_s: float
    truncate_s: float


@dataclass(frozen=True)
class TheoremRateResult:
    derived: DerivedExponents
    points: tuple[RatePoint, ...]
    fit_free: RateFit
    fit_pinned: RateFit
    report: RatioReport


def theorem1_rate_experiment(
    tp: TheoremParams,
    ns: Sequence[int],
    *,
    which: int = 1,
    max_grid_cells: int = DEFAULT_MAX_GRID_CELLS,
) -> TheoremRateResult:
    """Normalized cross-truncation error of an extremal function versus the rate.

    For each level n the chosen extremal function is scaled to unit class
    functional and its distance from the level-n cross is measured in the
    target norm.  Every level's block levels are found first, and a level
    whose polynomial would hold more than DEFAULT_MAX_GRID_CELLS
    frequencies, or, for a target other than plain L2, whose grid exceeds
    the cell budget, is refused before any level is built.  Each level is
    then evaluated from its block list, listing no frequency row on any
    route, and gives the values of besov_functional and truncation_error
    on its rows bit for bit (_rate_level); a level whose every block
    underflows to 0 raises ArithmeticError.  Each point records the route
    of its class functional (spectral._route, as grid_route names it for
    the rows), or "bound" above the cell budget.  Returns free-slope and
    pinned-slope fits of the error decay plus the tabulated error/rate
    ratios.
    """
    if which not in (1, 2, 3):
        raise ValueError("which must be 1, 2, or 3")
    if len(ns) < 4:  # rate_fit's minimum, checked before any level is built
        raise ValueError("at least four points are required")
    d = derived_exponents(tp)
    for n in ns:
        levels = extremal_levels(int(n), tp, which, d=d)
        if tp.target.is_plain_l2():
            continue
        cells = GridSpec.minimal_for(level_bandwidth(levels)).cells
        if cells > max_grid_cells:
            raise ValueError(
                f"non-L2 target at n={n} needs a residual grid of {cells} "
                f"cells, beyond the cell budget of {max_grid_cells}"
            )

    points = sorted(
        (_rate_level(int(n), tp, which, max_grid_cells, d) for n in ns),
        key=lambda pt: pt.n,
    )

    data = [(pt.n, pt.error) for pt in points]
    fit_free = rate_fit(data)
    fit_pinned = rate_fit(data, fix_slope=float(d.rho_star))
    by_n = {pt.n: pt for pt in points}
    report = ratio_scan(
        lambda n: by_n[n].error,
        lambda n: by_n[n].reference,
        sorted(by_n),
        relation="two-sided",
    )
    return TheoremRateResult(
        derived=d,
        points=tuple(points),
        fit_free=fit_free,
        fit_pinned=fit_pinned,
        report=report,
    )


def _rate_level(
    n: int, tp: TheoremParams, which: int, max_grid_cells: int, d: DerivedExponents
) -> RatePoint:
    """Level n of theorem1_rate_experiment, from the blocks of f_which
    (extremal_blocks) on the minimal grid resolving them; d is
    derived_exponents(tp).  No frequency row is listed, on any route.  A
    level whose every block underflows to 0 raises ArithmeticError, as
    its class functional would be 0."""
    start = time.perf_counter()
    blocks = extremal_blocks(n, tp, which, d=d)
    if not blocks:
        raise ArithmeticError(
            f"every block coefficient of f{which} at n={n} underflows to 0, "
            "so there is no class functional to normalize by"
        )
    grid = GridSpec.minimal_for(level_bandwidth(blocks))
    exact = grid.cells <= max_grid_cells
    built = time.perf_counter()
    normalizer, route = class_functional(blocks, grid, tp.source, exact)
    normalized = time.perf_counter()
    raw = _truncation_error(blocks, n, grid, tp)
    return RatePoint(
        n=n,
        error=raw / normalizer,
        reference=theoretical_rate(n, d),
        normalizer=route,
        support_size=sum(math.prod(map(len, ks)) for _, ks in blocks.values()),
        blocks=len(blocks),
        grid_cells=grid.cells,
        build_s=built - start,
        normalize_s=normalized - built,
        truncate_s=time.perf_counter() - normalized,
    )


def _truncation_error(blocks: Blocks, n: int, grid: GridSpec, tp: TheoremParams) -> float:
    """truncation_error of the sum f of the blocks at level n, with no grid
    for a plain-L2 target: a block is in the cross when its level is.  The
    Parseval sum counts each residual block's |c|^2 once per row, in f's
    row order; on any other target the residual is measured from its
    blocks (_blocks_norm), with a table of axis factors of its own."""
    keys = np.array(list(blocks), dtype=np.int64)
    inside = cross_membership(n, tp.gamma_prime, keys.T)
    outside = {s: b for (s, b), kept in zip(blocks.items(), inside) if not kept}
    if tp.target.is_plain_l2():
        coeffs = np.array([c for c, _ in outside.values()], dtype=np.complex128)
        return _parseval(coeffs, [math.prod(map(len, ks)) for _, ks in outside.values()])
    return _blocks_norm(outside, grid.shape, tp.target, {})


def approx_error_scan(
    f: SpectralFunction,
    gamma: Anisotropy,
    target: MixedSpaceParams,
    ns: Sequence[int],
    grid: GridSpec | None = None,
) -> list[tuple[int, float, int]]:
    """Cross-truncation error and cross cardinality per level.

    Rows are (n, error, card) in ascending n, where card counts the
    frequencies of the level-n cross.  Plain-L2 targets run grid-free.
    """
    return sorted(
        (int(n), truncation_error(f, n, gamma, target, grid), cross_cardinality(n, gamma))
        for n in ns
    )
