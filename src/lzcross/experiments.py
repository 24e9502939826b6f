"""End-to-end empirical rate experiments at desk scale.

The main experiment normalizes an extremal function by its class functional,
measures how far it sits from the level-n hyperbolic cross in the target
norm, and compares the decay of that error against the predicted main rate
term.  Points are independent across levels, so they may be evaluated on a
thread pool; results are merged in ascending level order either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .asymptotics import RateFit, RatioReport, rate_fit, ratio_scan
from .classes import (
    BesovParams,
    DerivedExponents,
    TheoremParams,
    besov_functional,
    derived_exponents,
    extremal_f1,
    extremal_f2,
    extremal_f3,
    extremal_levels,
    level_bandwidth,
    theoretical_rate,
)
from .indexsets import Anisotropy, cross_cardinality
from .norms import DEFAULT_MAX_GRID_CELLS, MixedSpaceParams
from .spectral import GridSpec, SpectralFunction, grid_route, truncation_error


def _parallel_map(fn: Callable, items: Sequence, threads: int) -> list:
    """fn over items on up to `threads` threads; results in input order."""
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a pool needs it

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def class_normalizer(
    f: SpectralFunction,
    params: BesovParams,
    grid: GridSpec,
    max_grid_cells: int = DEFAULT_MAX_GRID_CELLS,
) -> tuple[float, bool]:
    """besov_functional of f, exact within the cell budget and with the
    triangle bound (exact=False) above it, and whether it was exact.

    For the block-built extremal functions the replaced term is a vanishing
    fraction of the total, the bound being attained block by block.
    """
    exact = grid.cells <= max_grid_cells
    return besov_functional(f, params, grid, exact), exact


@dataclass(frozen=True)
class RatePoint:
    """One level of theorem1_rate_experiment; its class functional is exact
    unless the normalizer is "bound" (class_normalizer).  The *_s fields are
    the wall seconds of its three stages: building f, its class functional
    (with the route), and its truncation error."""

    n: int
    error: float
    reference: float
    normalizer: str  # "product", "orthant" or "grid" (grid_route), or "bound"
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


_EXTREMAL_BUILDERS: dict[int, Callable[[int, TheoremParams], SpectralFunction]] = {
    1: extremal_f1,
    2: extremal_f2,
    3: extremal_f3,
}


def theorem1_rate_experiment(
    tp: TheoremParams,
    ns: Sequence[int],
    *,
    which: int = 1,
    max_grid_cells: int = DEFAULT_MAX_GRID_CELLS,
    threads: int = 1,
) -> TheoremRateResult:
    """Normalized cross-truncation error of an extremal function versus the rate.

    For each level n the chosen extremal function is scaled to unit class
    functional and its distance from the level-n cross is measured in the
    target norm; plain-L2 targets use the exact coefficient route, any other
    target synthesizes the residual on the minimal resolving grid.  Every
    level's block levels are found first, and a level whose polynomial
    would hold more than DEFAULT_MAX_GRID_CELLS frequencies, or, for such a
    target, whose grid exceeds the cell budget, is refused before any level
    is built.  Each point records the samples its class functional measured
    (grid_route), or "bound" above the cell budget.  Returns free-slope and
    pinned-slope fits of the error decay plus the tabulated error/rate
    ratios.
    """
    if which not in _EXTREMAL_BUILDERS:
        raise ValueError("which must be 1, 2, or 3")
    if len(ns) < 4:  # rate_fit's minimum, checked before any level is built
        raise ValueError("at least four points are required")
    build = _EXTREMAL_BUILDERS[which]
    d = derived_exponents(tp)
    plain_l2 = tp.target.is_plain_l2()
    blocks = {}
    for n in ns:
        levels = extremal_levels(int(n), tp, which)
        blocks[n] = len(levels)
        if plain_l2:
            continue
        cells = GridSpec.minimal_for(level_bandwidth(levels)).cells
        if cells > max_grid_cells:
            raise ValueError(
                f"non-L2 target at n={n} needs a residual grid of {cells} "
                f"cells, beyond the cell budget of {max_grid_cells}"
            )

    def eval_point(n: int) -> RatePoint:
        start = time.perf_counter()
        f = build(int(n), tp)
        grid = GridSpec.minimal_for(f.bandwidth())
        built = time.perf_counter()
        normalizer, exact = class_normalizer(
            f, tp.source, grid, max_grid_cells=max_grid_cells
        )
        route = grid_route(f, grid, tp.source.space) if exact else "bound"
        normalized = time.perf_counter()
        raw = truncation_error(
            f, n, tp.gamma_prime, tp.target, None if plain_l2 else grid
        )
        return RatePoint(
            n=int(n),
            error=raw / normalizer,
            reference=theoretical_rate(int(n), d),
            normalizer=route,
            support_size=f.n_terms,
            blocks=blocks[n],
            grid_cells=grid.cells,
            build_s=built - start,
            normalize_s=normalized - built,
            truncate_s=time.perf_counter() - normalized,
        )

    points = _parallel_map(eval_point, ns, threads)
    points.sort(key=lambda pt: pt.n)

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


def approx_error_scan(
    f: SpectralFunction,
    gamma: Anisotropy,
    target: MixedSpaceParams,
    ns: Sequence[int],
    grid: GridSpec | None = None,
    *,
    threads: int = 1,
) -> list[tuple[int, float, int]]:
    """Cross-truncation error and cross cardinality per level.

    Rows are (n, error, card) in ascending n, where card counts the
    frequencies of the level-n cross.  Plain-L2 targets run grid-free.
    """

    def eval_point(n: int) -> tuple[int, float, int]:
        err = truncation_error(f, n, gamma, target, grid)
        return int(n), err, cross_cardinality(n, gamma)

    rows = _parallel_map(eval_point, ns, threads)
    rows.sort(key=lambda row: row[0])
    return rows
