"""A theorem1 rate level evaluated from its block list, held bit for bit to
the same level evaluated on the listed rows of its extremal polynomial."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lzcross import experiments, spectral
from lzcross.classes import (
    BesovParams,
    TheoremParams,
    besov_functional,
    derived_exponents,
    extremal_blocks,
    extremal_f1,
    extremal_f2,
    extremal_f3,
    extremal_levels,
)
from lzcross.indexsets import Anisotropy, axis_block, block_levels
from lzcross.norms import (
    DEFAULT_MAX_GRID_CELLS,
    MixedSpaceParams,
    anisotropic_norm,
    mixed_sequence_norm,
)
from lzcross.spectral import (
    GridSpec,
    SpectralFunction,
    _parseval,
    block_norms,
    block_rows,
    grid_route,
    truncation_error,
)

BUILDERS = {1: extremal_f1, 2: extremal_f2, 3: extremal_f3}


def theorem_params(p, q, r, *, alpha=None, tau1=None, thetas=None, beta=None,
                   tau2=None, gamma_prime=None):
    m = len(p)
    source = BesovParams(
        MixedSpaceParams.of(p, alpha or [0.0] * m, tau1 or [float(Fraction(v)) for v in p]),
        tuple(Anisotropy.of(r).weights),
        tuple(thetas or [math.inf] * m),
    )
    target = MixedSpaceParams.of(q, beta or [0.0] * m, tau2 or [2.0] * m)
    return TheoremParams(source, target, Anisotropy.of(gamma_prime or [1] * m))


LZ = {"beta": [0.5, 0.5], "tau2": [3.0, 3.0]}
# (params, levels, cell budget): plain-L2 and Lorentz-Zygmund targets, one,
# two and three axes, levels above the budget ("bound"), a source space
# that is not plain L_p ("orthant"), and axes held at k_j = 1 ("grid")
CASES = [
    (theorem_params(["3/2"], ["2"], ["1"]), (6, 9), DEFAULT_MAX_GRID_CELLS),
    (theorem_params(["3/2"], ["3"], ["1"], beta=[0.5], tau2=[3.0]), (6, 9), 512),
    (theorem_params(["3/2"] * 2, ["2"] * 2, ["1"] * 2), (6, 9), 4096),
    (theorem_params(["3/2"] * 2, ["2"] * 2, ["1"] * 2, **LZ), (5, 8), DEFAULT_MAX_GRID_CELLS),
    (theorem_params(["3/2"] * 2, ["2"] * 2, ["1"] * 2, tau1=[2.0, 2.0], **LZ), (5, 7),
     DEFAULT_MAX_GRID_CELLS),
    (theorem_params(["3/2"] * 2, ["3"] * 2, ["1"] * 2, tau2=[3.0, 3.0],
                    gamma_prime=["1", "1/2"]), (5, 8), DEFAULT_MAX_GRID_CELLS),
    (theorem_params(["3/2"] * 2, ["2"] * 2, ["1", "2"]), (5, 8), 1024),
    (theorem_params(["3/2"] * 2, ["2"] * 2, ["1", "2"], **LZ), (5, 7), DEFAULT_MAX_GRID_CELLS),
    (theorem_params(["3/2"] * 2, ["2"] * 2, ["1"] * 2, alpha=[0.5, 0.25],
                    thetas=[2.0, 2.0], **LZ), (5, 7), DEFAULT_MAX_GRID_CELLS),
    (theorem_params(["3/2"] * 3, ["2"] * 3, ["1"] * 3), (4, 6), 4096),
    # every block inside the cross: an empty residual, in L2 and in LZ
    (theorem_params(["3/2"] * 2, ["2"] * 2, ["1"] * 2, gamma_prime=["1/2"] * 2), (5, 6),
     DEFAULT_MAX_GRID_CELLS),
    (theorem_params(["3/2"] * 2, ["2"] * 2, ["1"] * 2, gamma_prime=["1/2"] * 2, **LZ),
     (5, 6), DEFAULT_MAX_GRID_CELLS),
    (theorem_params(["3/2", "2", "3/2"], ["2", "3", "2"], ["1", "2", "1"],
                    beta=[0.5, 0.0, 0.5], tau2=[3.0, 3.0, 2.0]), (4, 5),
     DEFAULT_MAX_GRID_CELLS),
    # block (3, 3) of f1 at n=6 underflows to 0 and is left out, as f drops
    # its rows: four nonzero blocks on five levels
    (theorem_params(["3/2"] * 2, ["2"] * 2, ["165"] * 2, alpha=[21.0, 21.0]), (6, 6),
     DEFAULT_MAX_GRID_CELLS),
]


def row_norm(f, shape, space):
    """The norm of f's samples by a complex ifft of its listed rows, each
    a_k written at k mod N_j, which grid_norm would take from f's block
    list."""
    spec = np.zeros(shape, dtype=np.complex128)
    spec[tuple((f.freqs % np.array(shape)).T)] = f.coeffs
    return anisotropic_norm(spectral._inverse_fft(spec), space)


def functional(first, norms, params):
    """The class functional from its whole-function norm and block norms:
    first plus the sequence norm of the block norms weighted by 2^<s, r>."""
    r = [float(v) for v in params.r]
    weighted = {s: 2.0 ** sum(sj * rj for sj, rj in zip(s, r)) * v for s, v in norms.items()}
    return first + mixed_sequence_norm(weighted, params.thetas)


def row_level(n, tp, which, max_grid_cells):
    """The level on the rows of f_which: besov_functional, grid_route and
    truncation_error of the listed polynomial, as before block lists.  On
    the "grid" route the whole-function norm and a non-L2 residual are
    sampled from the listed rows (row_norm)."""
    f = BUILDERS[which](n, tp)
    grid = GridSpec.minimal_for(f.bandwidth())
    exact = grid.cells <= max_grid_cells
    route = grid_route(f, grid, tp.source.space) if exact else "bound"
    plain_l2 = tp.target.is_plain_l2()
    if route == "grid":
        first = row_norm(f, grid.shape, tp.source.space)
        normalizer = functional(first, block_norms(f, grid, tp.source.space), tp.source)
    else:
        normalizer = besov_functional(f, tp.source, grid, exact)
    if route == "grid" and not plain_l2:
        residual = f.restrict(~spectral._cross_mask(f, n, tp.gamma_prime))
        raw = row_norm(residual, grid.shape, tp.target)
    else:
        raw = truncation_error(f, n, tp.gamma_prime, tp.target, None if plain_l2 else grid)
    return {
        "error": (raw / normalizer).hex(), "normalizer": normalizer.hex(),
        "raw": raw.hex(), "route": route, "support_size": f.n_terms,
        "blocks": len(block_rows(f)), "grid_cells": grid.cells,
    }


def block_level(n, tp, which, max_grid_cells, monkeypatch):
    """experiments._rate_level, with the class functional and the raw error
    it computed on the way."""
    seen = {}
    for name in ("class_functional", "_truncation_error"):
        original = getattr(experiments, name)

        def recording(*args, name=name, original=original):
            seen[name] = original(*args)
            return seen[name]

        monkeypatch.setattr(experiments, name, recording)
    pt = experiments._rate_level(n, tp, which, max_grid_cells, derived_exponents(tp))
    normalizer, route = seen["class_functional"]
    assert route == pt.normalizer
    return {
        "error": pt.error.hex(), "normalizer": normalizer.hex(),
        "raw": seen["_truncation_error"].hex(), "route": pt.normalizer,
        "support_size": pt.support_size, "blocks": pt.blocks, "grid_cells": pt.grid_cells,
    }


@pytest.mark.parametrize("case", range(len(CASES)))
def test_block_levels_match_the_row_levels_to_the_last_bit(case, monkeypatch):
    tp, (lo, hi), budget = CASES[case]
    for which in (1, 2, 3):
        for n in range(lo, hi + 1):
            want = row_level(n, tp, which, budget)
            assert block_level(n, tp, which, budget, monkeypatch) == want, (which, n)


def test_the_cases_take_every_route_and_leave_empty_residuals():
    routes, empty = set(), 0
    for tp, (lo, hi), budget in CASES:
        for n in (lo, hi):
            routes.add(row_level(n, tp, 1, budget)["route"])
            f = extremal_f1(n, tp)
            empty += spectral.cross_truncate(f, n, tp.gamma_prime).n_terms == f.n_terms
    assert routes == {"product", "orthant", "grid", "bound"}
    assert empty == 4


def test_rate_experiment_points_are_the_row_levels():
    tp, (lo, hi), budget = CASES[2]
    result = experiments.theorem1_rate_experiment(
        tp, range(lo, hi + 1), max_grid_cells=budget
    )
    for pt in result.points:
        want = row_level(pt.n, tp, 1, budget)
        assert (pt.error.hex(), pt.normalizer) == (want["error"], want["route"])


def test_block_keys_are_the_levels_of_their_rows_in_listing_order():
    # an axis held at k_j = 1 reads level 1 in the key, where extremal_levels
    # reads 0; the blocks come in the order of extremal_levels, and only
    # the blocks of f's rows are listed
    for tp, (lo, _), _ in CASES:
        for which in (1, 2, 3):
            blocks = extremal_blocks(lo, tp, which)
            levels = extremal_levels(lo, tp, which)
            keys = [tuple(max(1, sj) for sj in s) for s in levels]
            assert list(blocks) == [key for key in keys if key in blocks]
            f = BUILDERS[which](lo, tp)
            assert sorted(blocks) == list(block_rows(f))
            start = 0
            for s, (c, axis_sets) in blocks.items():
                size = math.prod(map(len, axis_sets))
                rows = f.freqs[start : start + size]
                assert (block_levels(rows) == s).all()
                assert (f.coeffs[start : start + size] == c).all()
                start += size
            assert start == f.n_terms


def test_product_sums_take_their_blocks_in_lexicographic_order(monkeypatch):
    # _product_norm and _factor_matrices see the blocks in block_rows order,
    # whatever order the block list gives them in, so a sum of blocks gets
    # the bits of grid_norm of its rows
    levels = [(3, 1), (1, 2), (2, 2), (1, 3)]
    blocks = {
        s: (complex(0.5 + i), [np.array(axis_block(sj)) for sj in s])
        for i, s in enumerate(levels)
    }
    f = SpectralFunction.from_blocks(2, blocks)
    assert list(f.blocks) == sorted(levels)
    seen = []
    for name in ("_product_norm", "_factor_matrices"):
        original = getattr(spectral, name)

        def recording(pieces, *args, name=name, original=original):
            seen.append((name, [c for c, _ in pieces]))
            return original(pieces, *args)

        monkeypatch.setattr(spectral, name, recording)
    shape = (16, 16)
    for space in (
        MixedSpaceParams.of(["3/2"] * 2, [0.0] * 2, [1.5] * 2),
        MixedSpaceParams.of(["2"] * 2, [0.5] * 2, [3.0] * 2),
    ):
        seen.clear()
        got = spectral._blocks_norm(blocks, shape, space, {})
        assert seen and all(cs == [blocks[s][0] for s in sorted(levels)] for _, cs in seen)
        assert got.hex() == spectral.grid_norm(f, shape, space).hex()


def test_parseval_counts_each_block_once_per_row_in_listing_order(monkeypatch):
    # the plain-L2 error is the Parseval sum of the residual's rows in f's
    # row order: each block's |c|^2 repeated once per row, block by block
    seen = []
    original = experiments._parseval

    def recording(coeffs, counts=None):
        seen.append((coeffs, counts))
        return original(coeffs, counts)

    monkeypatch.setattr(experiments, "_parseval", recording)
    for tp, (n, _), budget in CASES:
        if not tp.target.is_plain_l2():
            continue
        for which in (1, 2, 3):
            seen.clear()
            experiments._rate_level(n, tp, which, budget, derived_exponents(tp))
            ((coeffs, counts),) = seen
            f = BUILDERS[which](n, tp)
            residual = f.restrict(~spectral._cross_mask(f, n, tp.gamma_prime))
            assert np.array_equal(np.repeat(coeffs, counts), residual.coeffs)


def blocks_of(coefficients, sizes):
    """A block list of one axis: block i holds sizes[i] frequencies from
    level i + 1 on with the coefficient coefficients[i]."""
    return {
        (i + 1,): (complex(c), [np.arange(1 << i, (1 << i) + size)])
        for i, (c, size) in enumerate(zip(coefficients, sizes))
    }


@pytest.mark.parametrize(
    "coefficients",
    [
        [1.0, 3.0, -0.5, 1e-3, 7.0 + 2.0j],
        [1.0, 1e-8, 1e-8, 2e-8, 1e-8],  # the order of the additions shows
        [0.1, 0.7, 1.3, 0.3, 1e-8],  # a repeated square is added, not multiplied
        [1e160, -2e160, 1.0, 3e159, 0.5j],  # squares beyond the float range
        [1e-170, 2e-170, 3e-170, 1.0, 1e-200],  # squares below it
        [],  # an empty residual
    ],
)
def test_parseval_of_a_block_list_is_the_l2_norm_of_its_rows(coefficients):
    sizes = [3, 1, 5, 2, 4][: len(coefficients)]
    blocks = blocks_of(coefficients, sizes)
    f = SpectralFunction.from_blocks(1, blocks)
    coeffs = np.array([c for c, _ in blocks.values()], dtype=np.complex128)
    assert _parseval(coeffs, sizes).hex() == f.l2_norm().hex()
    assert _parseval(np.repeat(coeffs, sizes)).hex() == f.l2_norm().hex()


def test_parseval_beyond_the_float_range_after_rescaling_raises():
    coeffs = np.array([1e308, 1e308])
    with pytest.raises(ArithmeticError, match="float range"):
        _parseval(coeffs, [2, 2])


def test_a_plain_l2_level_lists_no_row_and_holds_far_less_than_its_rows():
    # rate-2d-l2 at n=14: thirteen blocks of 2**14 rows, 212,992 rows in all;
    # the rows alone (int64 pairs and complex coefficients, 32 bytes a row)
    # took 6.8 MB, and the level now holds its 1-D axis factors at most
    tp = theorem_params(["3/2"] * 2, ["2"] * 2, ["1"] * 2)
    d = derived_exponents(tp)
    experiments._rate_level(14, tp, 1, DEFAULT_MAX_GRID_CELLS, d)  # fills the weight cache
    rows = sum(2 ** sum(s) for s in extremal_levels(14, tp, 1))
    assert rows == 212_992
    tracemalloc.start()
    try:
        pt = experiments._rate_level(14, tp, 1, DEFAULT_MAX_GRID_CELLS, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pt.normalizer == "bound" and pt.support_size == rows
    assert peak < rows * 32
