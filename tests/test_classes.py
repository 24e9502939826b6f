"""Class functional, derived rate exponents, extremal polynomials."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lzcross import classes, spectral
from lzcross.classes import (
    BesovParams,
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
from lzcross.indexsets import Anisotropy, containing_block, rho_block
from lzcross.norms import MixedSpaceParams, anisotropic_norm
from lzcross.spectral import (
    GridSpec,
    SpectralFunction,
    block_norms,
    block_rows,
    grid_norm,
    grid_route,
    synthesize,
)


def make_tp(p, q, r, *, alpha=None, beta=None, tau1=None, tau2=None,
            thetas=None, gamma_prime=None):
    m = len(p)
    alpha = alpha or [0.0] * m
    beta = beta or [0.0] * m
    tau1 = tau1 or [float(Fraction(str(v))) for v in p]
    tau2 = tau2 or [2.0] * m
    thetas = thetas or [math.inf] * m
    gamma_prime = gamma_prime or [1] * m
    source = BesovParams(
        MixedSpaceParams.of(p, alpha, tau1), tuple(Fraction(str(v)) for v in r),
        tuple(thetas),
    )
    target = MixedSpaceParams.of(q, beta, tau2)
    return TheoremParams(source, target, Anisotropy.of(gamma_prime))


def test_theorem_params_validation():
    with pytest.raises(ValueError):
        make_tp(["3/2"], ["3/2"], [1])  # q must exceed p
    with pytest.raises(ValueError):
        make_tp(["3/2"], [2], ["1/6"])  # r must exceed 1/p - 1/q
    with pytest.raises(ValueError):
        BesovParams(MixedSpaceParams.of([2, 2], [0.0] * 2, [2.0] * 2), (Fraction(1),), (1.0, 1.0))


def test_derived_exponents_single_axis():
    d = derived_exponents(make_tp(["3/2"], [2], [1]))
    assert d.rho_star == Fraction(5, 6)
    assert d.gamma.weights == (Fraction(1),)
    assert d.A == (0,) and d.j1 == 0
    assert d.delta == 1
    assert d.mu == 0.0


def test_derived_exponents_two_axes_tied():
    tp = make_tp(["3/2", "3/2"], [3, 3], [1, 1])
    d = derived_exponents(tp)
    assert d.rho_star == Fraction(2, 3)
    assert d.A == (0, 1) and d.j1 == 0
    assert d.mu == pytest.approx(0.5)  # one tied axis past j1, theta infinite
    bounded = make_tp(["3/2", "3/2"], [3, 3], [1, 1], thetas=[2.0, 2.0])
    assert derived_exponents(bounded).mu == pytest.approx(0.0)


def test_derived_exponents_permutation_equivariant():
    fwd = make_tp(
        ["3/2", "5/4"], [2, 2], [1, "3/2"],
        alpha=[0.25, 0.0], beta=[0.5, 1.0], thetas=[3.0, 4.0],
    )
    rev = make_tp(
        ["5/4", "3/2"], [2, 2], ["3/2", 1],
        alpha=[0.0, 0.25], beta=[1.0, 0.5], thetas=[4.0, 3.0],
    )
    df, dr = derived_exponents(fwd), derived_exponents(rev)
    assert df.rho_star == dr.rho_star == Fraction(5, 6)
    assert df.mu == pytest.approx(dr.mu)
    assert df.A == (0,) and dr.A == (1,)


def test_derived_exponents_rejects_oversized_weights():
    with pytest.raises(ValueError):
        derived_exponents(
            make_tp(["3/2", "3/2"], [2, 2], [1, 1], gamma_prime=[2, 2])
        )


def test_theoretical_rate_values():
    d = derived_exponents(make_tp(["3/2", "3/2"], [3, 3], [1, 1]))
    assert theoretical_rate(9, d) == pytest.approx(0.046875, rel=1e-14)
    single = derived_exponents(make_tp(["3/2"], [2], [1]))
    assert theoretical_rate(1, single) == pytest.approx(2.0 ** (-5.0 / 6.0))
    with pytest.raises(ValueError):
        theoretical_rate(0, d)


def single_block_params():
    space = MixedSpaceParams.of(["3/2", "3/2"], [0.0, 0.0], [1.5, 1.5])
    return BesovParams(space, (Fraction(1), Fraction(1)), (2.0, 2.0))


def test_besov_functional_empty_and_zero_mean():
    params = single_block_params()
    grid = GridSpec((8, 8))
    assert besov_functional(SpectralFunction(2, {}), params, grid) == 0.0
    bad = SpectralFunction(2, {(0, 1): 1.0})
    with pytest.raises(ValueError, match="zero-mean"):
        besov_functional(bad, params, grid)


def test_besov_functional_single_block_identity():
    params = single_block_params()
    f = SpectralFunction(2, {k: 0.3 for k in rho_block((2, 1))})
    grid = GridSpec((16, 8))
    base = anisotropic_norm(synthesize(f, grid), params.space)
    got = besov_functional(f, params, grid)
    # one block at levels (2,1) and unit smoothness: weight 2^(2+1)
    assert got == pytest.approx(base * (1.0 + 8.0), rel=1e-12)


def test_besov_functional_homogeneous():
    params = single_block_params()
    f = SpectralFunction(
        2, {(1, 1): 1.0, (-1, 2): 0.5j, (3, -5): 0.25, (2, 3): -1.0}
    )
    grid = GridSpec((16, 16))
    base = besov_functional(f, params, grid)
    assert besov_functional(f.scaled(-2.5), params, grid) == pytest.approx(
        2.5 * base, rel=1e-12
    )


def test_block_norm_product_path_matches_dense(monkeypatch):
    # a uniform block on a product support is synthesized on its axis grids
    # only, a sign-symmetric axis set on its orthant by the DCT-I and any
    # other by a complex ifft; any other block is synthesized on the whole
    # grid
    calls = []
    for name in ("_axis_factor", "_inverse_fft"):
        original = getattr(spectral, name)

        def spy(*args, name=name, original=original):
            shape = getattr(args[-1], "shape", args[-1])
            calls.append((name, shape if isinstance(shape, tuple) else (shape,)))
            return original(*args)

        monkeypatch.setattr(spectral, name, spy)
    grid = GridSpec((16, 8))
    uniform = SpectralFunction(2, {k: 0.7 for k in rho_block((2, 1))})
    coeffs = {k: 0.7 for k in rho_block((2, 1))}
    coeffs[(2, 1)] = 0.1  # break uniformity, forcing the grid path
    ragged = SpectralFunction(2, coeffs)
    # uniform on {2, 3} x {-1, 1}: a product whose axis-0 set is one-sided
    one_sided = SpectralFunction(2, {(k0, k1): 0.7 for k0 in (2, 3) for k1 in (-1, 1)})
    expected = {
        uniform: [("_axis_factor", (16,)), ("_axis_factor", (8,))],
        ragged: [("_inverse_fft", (16, 8))],
        one_sided: [("_inverse_fft", (16,)), ("_axis_factor", (8,))],
    }
    for space in (
        MixedSpaceParams.of(["3/2", 2], [0.5, 0.0], [2.0, 3.0]),
        MixedSpaceParams.of(["3/2"] * 2, [0.0] * 2, [1.5] * 2),  # plain L_{3/2}
    ):
        for block, synthesized in expected.items():
            calls.clear()
            got = block_norms(block, grid, space)
            assert list(got) == [(2, 1)]
            assert calls == synthesized
            dense = anisotropic_norm(synthesize(block, grid), space)
            assert got[(2, 1)] == pytest.approx(dense, rel=1e-12)


def test_block_norms_measure_each_distinct_axis_factor_once(monkeypatch):
    # on a square grid with one space on both axes, block (s, t) of f1 shares
    # its axis sets with block (t, s): each distinct (axis set, N_j, axis
    # space) is sampled and measured once per call, nothing is kept for the
    # next call, and every norm keeps the bits of one measure per block
    tp = make_tp(["3/2", "3/2"], [2, 2], [1, 1])
    f = extremal_f1(9, tp)
    grid = GridSpec.minimal_for(f.bandwidth())
    space = MixedSpaceParams.of(["3/2"] * 2, [0.5] * 2, [2.0] * 2)
    # eight blocks (s, 9 - s) on the layer: sixteen axis factors, eight distinct
    assert grid.shape[0] == grid.shape[1] and len(f.blocks) == 8
    assert spectral._products(f.blocks)

    def axis_factor(k, n):  # coefficient 1 on the axis set k, on n points
        return synthesize(SpectralFunction(1, {(kj,): 1.0 for kj in k.tolist()}), (n,))

    want = {
        s: abs(c) * math.prod(
            anisotropic_norm(axis_factor(k, n), MixedSpaceParams((ax,)))
            for k, n, ax in zip(sets, grid.shape, space.axes)
        )
        for s, (c, sets) in f.blocks.items()
    }
    distinct = {
        (k.tobytes(), n, ax)
        for _, sets in f.blocks.values()
        for k, n, ax in zip(sets, grid.shape, space.axes)
    }
    calls = []
    original = spectral._axis_factor

    def spy(k, n):
        calls.append((k.tobytes(), n))
        return original(k, n)

    monkeypatch.setattr(spectral, "_axis_factor", spy)
    for _ in range(2):
        calls.clear()
        got = block_norms(f, grid, space)
        assert {s: v.hex() for s, v in got.items()} == {s: v.hex() for s, v in want.items()}
        assert len(calls) == len(set(calls)) == len(distinct) == 8


def test_triangle_bound_on_a_held_axis_samples_no_bivariate_grid(monkeypatch):
    # r = (1, 2): axis 1 is not tied, so f1 holds it at the one harmonic
    # k_1 = +1; f1 is not sign-symmetric, but each block is still measured
    # from its 1-D axis factors, and only the exact norm samples the grid,
    # from the block list
    tp = make_tp(["3/2", "3/2"], [2, 2], [1, 2])
    f = extremal_f1(8, tp)
    assert not f.sign_symmetric and spectral._products(f.blocks)
    grid = GridSpec.minimal_for(f.bandwidth())
    shapes = []
    for name in ("_axis_factor", "_inverse_fft"):
        original = getattr(spectral, name)

        def spy(*args, original=original):
            shape = getattr(args[-1], "shape", args[-1])
            shapes.append(shape if isinstance(shape, tuple) else (shape,))
            return original(*args)

        monkeypatch.setattr(spectral, name, spy)
    bound = besov_functional(f, tp.source, grid, exact=False)
    blocks = block_rows(f)
    assert len(shapes) == 2 * len(blocks) and all(len(s) == 1 for s in shapes)
    norms = block_norms(f, grid, tp.source.space)
    for s, rows in blocks.items():
        dense = anisotropic_norm(synthesize(f.restrict(rows), grid), tp.source.space)
        assert norms[s] == pytest.approx(dense, rel=1e-12)
    shapes.clear()
    exact = besov_functional(f, tp.source, grid, exact=True)
    assert grid.shape in shapes and exact <= bound * (1 + 1e-12)


def test_triangle_bound_refuses_a_grid_too_coarse_for_f():
    # the block norms check the grid once, on the product path as on the
    # dense one; |k_0| reaches 3 at level 2
    params = single_block_params()
    coeffs = {k: 0.3 for k in rho_block((2, 1))}
    uniform = SpectralFunction(2, coeffs)
    ragged = SpectralFunction(2, {**coeffs, (2, 1): 0.1})
    assert spectral._products(uniform.blocks) and not spectral._products(ragged.blocks)
    for f in (uniform, ragged):
        assert besov_functional(f, params, (8, 8), exact=False) > 0.0
        for coarse in ((4, 8), (8, 2)):
            with pytest.raises(ValueError, match="too coarse"):
                besov_functional(f, params, coarse, exact=False)


def test_plain_lebesgue_norm_of_f1_holds_under_a_quarter_of_its_grid():
    # the product route forms 256 orthant rows at a time from the 1-D axis
    # factors of the nine blocks; the orthant alone is 513 x 513 floats
    tp = make_tp(["3/2", "3/2"], [2, 2], [1, 1])
    f = extremal_f1(10, tp)
    grid = GridSpec((1024, 1024))
    space = tp.source.space
    tracemalloc.start()
    try:
        grid_norm(f, grid, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid_route(f, grid, space) == "product"
    assert peak < 1024 * 1024 * 8 / 4


def test_bound_level_holds_about_one_axis_factor_at_a_time():
    # at a bound level of criterion 9's parameters (n = 16, a 65536^2 grid)
    # the block norms take each axis factor's orthant from the table and
    # drop it after its last use: the call holds one orthant, its mirrored
    # axis, the norm's two temporaries of that axis and each distinct axis
    # set's bytes once, less than the table of every factor would hold
    tp = make_tp(["3/2", "3/2"], [2, 2], [1, 1])
    blocks = classes.extremal_blocks(16, tp, 1)
    grid = GridSpec.minimal_for(level_bandwidth(blocks))
    n = grid.shape[0]
    assert grid.shape == (n, n) == (65536, 65536)
    distinct = {
        (k.tobytes(), size)
        for _, axis_sets in blocks.values()
        for k, size in zip(axis_sets, grid.shape)
    }
    keys = sum(len(k) for k, _ in distinct)
    orthant, axis = (n // 2 + 1) * 8, n * 8
    bound = keys + orthant + 3 * axis + 64 * 1024
    assert bound < len(distinct) * orthant
    tracemalloc.start()
    try:
        value, route = classes.class_functional(blocks, grid, tp.source, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert route == "bound" and value > 0.0
    assert peak <= bound


def test_class_functional_splits_the_blocks_once(monkeypatch):
    # the product route of the whole-function norm and the block norms share
    # one split of f into blocks
    calls = []
    original = spectral.block_levels

    def counting(freqs):
        calls.append(None)
        return original(freqs)

    monkeypatch.setattr(spectral, "block_levels", counting)
    tp = make_tp(["3/2", "3/2"], [2, 2], [1, 1])
    f = extremal_f1(8, tp)
    grid = GridSpec.minimal_for(f.bandwidth())
    assert grid_route(f, grid, tp.source.space) == "product"
    besov_functional(f, tp.source, grid)
    assert len(calls) == 1


def test_class_functional_synthesizes_each_distinct_axis_factor_once(monkeypatch):
    # the whole-function norm and the block norms of one call read one table
    # of axis factors: each distinct (K, N_j) is synthesized once, block
    # (s, t) sharing its axis sets with block (t, s) on the square grid, and
    # the next call synthesizes them again, as no table outlives its call;
    # outside plain L_p the whole function is drawn slab by slab on its
    # orthant from that same table
    calls = []
    original = spectral._axis_factor

    def spy(k, n):
        calls.append((k.tobytes(), n))
        return original(k, n)

    monkeypatch.setattr(spectral, "_axis_factor", spy)
    one = make_tp(["3/2"], [2], [1])
    two = make_tp(["3/2", "3/2"], [2, 2], [1, 1])
    # axes of two Lorentz-Zygmund spaces: each factor is measured in both
    mixed = make_tp(["3/2", "3/2"], [2, 2], [1, 1], alpha=[0.5, 0.0], tau1=[2.0, 3.0])
    cases = [(one, 10, True), (one, 10, False), (two, 8, True), (two, 8, False),
             (mixed, 8, True), (mixed, 8, False)]
    for tp, n, exact in cases:
        blocks = classes.extremal_blocks(n, tp, 1)
        grid = GridSpec.minimal_for(level_bandwidth(blocks))
        distinct = {
            (k.tobytes(), size)
            for _, axis_sets in blocks.values()
            for k, size in zip(axis_sets, grid.shape)
        }
        assert len(distinct) == (1 if tp is one else 7)
        values = []
        for _ in range(2):
            calls.clear()
            value, route = classes.class_functional(blocks, grid, tp.source, exact)
            assert route == (
                "bound" if not exact else "orthant" if tp is mixed else "product"
            )
            assert len(calls) == len(set(calls)) and set(calls) == distinct
            values.append(value.hex())
        assert values[0] == values[1]


def test_extremal_f1_single_axis():
    tp = make_tp(["3/2"], [2], [1])
    f = extremal_f1(4, tp)
    assert sorted(f.coefficients) == rho_block((4,))
    want = 2.0 ** (-4 * (1 + 1 - 2.0 / 3.0))
    for _, a in f.items():
        assert a == pytest.approx(want, rel=1e-15)
    with pytest.raises(ValueError):
        extremal_f1(0, tp)


def test_extremal_f1_layer_spread():
    tp = make_tp(["3/2", "3/2"], [2, 2], [1, 1])
    f = extremal_f1(6, tp)
    assert set(block_rows(f)) == {(1, 5), (2, 4), (3, 3), (4, 2), (5, 1)}
    assert f.n_terms == 5 * 2**6
    assert f.coefficients[(1, 16)] == pytest.approx(2.0**-8, rel=1e-14)


def test_extremal_f2_block_choice():
    tp = make_tp(["3/2", "3/2"], [2, 2], [1, 1])
    f = extremal_f2(4, tp)
    assert set(block_rows(f)) == {(1, 3)}
    assert f.n_terms == 16
    assert f.coefficients[(1, 4)] == pytest.approx(2.0 ** (-16.0 / 3.0), rel=1e-14)
    single = extremal_f2(3, make_tp(["3/2"], [2], [1]))
    assert sorted(single.coefficients) == rho_block((3,))


def test_extremal_f3_collapses():
    wide = make_tp(["3/2", "3/2"], [2, 2], [1, 1])  # thetas infinite, B = all
    assert extremal_f3(5, wide).coefficients == extremal_f1(5, wide).coefficients
    tight = make_tp(["3/2", "3/2"], [2, 2], [1, 1], thetas=[2.0, 2.0])
    f = extremal_f3(5, tight)  # B empty, spread collapses to axis j1
    # frozen axes hold the lowest nonzero harmonic, landing in block level 1
    assert set(block_rows(f)) == {(5, 1)}
    assert all(k[1] == 1 for k in f.coefficients)
    assert f.n_terms == 2**5


def test_extremal_levels_describe_the_built_function():
    # rows and bandwidth follow from the levels alone; level 0 is k_j = 1
    cases = [
        make_tp(["3/2"], [2], [1]),
        make_tp(["3/2", "3/2"], [2, 2], [1, 1]),
        make_tp(["3/2", "3/2"], [2, 2], [1, 1], thetas=[2.0, 2.0]),
        make_tp(["3/2", "2"], [2, 3], [1, 2], gamma_prime=["1", "1/2"]),
    ]
    for tp in cases:
        for which, build in ((1, extremal_f1), (2, extremal_f2), (3, extremal_f3)):
            for n in (3, 6):
                levels = extremal_levels(n, tp, which)
                f = build(n, tp)
                assert sum(2 ** sum(s) for s in levels) == f.n_terms
                assert level_bandwidth(levels) == f.bandwidth()


def test_extremal_function_over_the_row_cap_lists_no_frequency(monkeypatch):
    # block s holds 2**sum(s) frequencies; 2**25 is the cap
    one = make_tp(["3/2"], [2], [1])
    assert extremal_levels(25, one, 1) == [[25]]

    def listing(*args):
        raise AssertionError("a frequency was listed")

    monkeypatch.setattr(classes, "axis_block", listing)
    for build in (extremal_f1, extremal_f2, extremal_f3):
        with pytest.raises(ValueError, match="n=26 would hold 67108864 frequencies, "
                                             "more than 33554432"):
            build(26, one)
    two = make_tp(["3/2", "3/2"], [2, 2], [1, 1])
    for tp, which in ((one, 1), (one, 2), (two, 1), (two, 3)):
        # the layer of 10**12 level vectors is not listed either
        with pytest.raises(ValueError, match=f"n={10**12} would hold at least 2\\*\\*64"):
            extremal_levels(10**12, tp, which)
    with pytest.raises(ValueError, match="which must be 1, 2, or 3"):
        extremal_levels(4, one, 4)


def test_extremals_satisfy_zero_mean():
    tp = make_tp(["3/2", "3/2"], [2, 2], [1, 1])
    for build in (extremal_f1, extremal_f2, extremal_f3):
        for k in build(5, tp).coefficients:
            assert 0 not in k


def test_extremal_f1_sits_outside_its_cross():
    tp = make_tp(["3/2", "3/2"], [2, 2], [1, 1])
    d = derived_exponents(tp)
    f = extremal_f1(6, tp)
    for k in f.coefficients:
        s = containing_block(k)
        assert sum(g * sj for g, sj in zip(d.gamma.weights, s)) >= 6


def test_class_normalizer_exact_and_estimated():
    # the normalizer of a rate level, and of the extremal command, is the
    # class functional, exact within the cell budget and the triangle bound
    # above it
    tp = make_tp(["3/2", "3/2"], [2, 2], [1, 1])
    f = extremal_f2(4, tp)
    grid = GridSpec((8, 32))
    exact = besov_functional(f, tp.source, grid)
    est = besov_functional(f, tp.source, grid, exact=False)
    # one block: the triangle bound is attained, the estimate is exact
    assert est == pytest.approx(exact, rel=1e-12)
    bad = SpectralFunction(2, {(0, 1): 1.0})
    with pytest.raises(ValueError, match="zero-mean"):
        besov_functional(bad, tp.source, grid, exact=False)


def test_rate_1d_class_functional_powers_orthants_and_builds_no_index_vector(monkeypatch):
    # rate-1d's level 16 on its grid of N points: each factor's magnitudes
    # are raised to p at the N/2 + 1 orthant samples, never at all N, and
    # no index vector is built by np.r_ or gathered through np.ix_
    powered, built = [], []
    power, r_, ix_ = np.power, np.r_, np.ix_

    def spy_power(x, *args, **kwargs):
        powered.append(np.size(x))
        return power(x, *args, **kwargs)

    class SpyIndex:
        def __getitem__(self, key):
            built.append("np.r_")
            return r_[key]

    def spy_ix(*args):
        built.append("np.ix_")
        return ix_(*args)

    tp = make_tp(["3/2"], [2], [1])  # bench/params/rate-1d.json
    blocks = classes.extremal_blocks(16, tp, 1)
    grid = GridSpec.minimal_for(level_bandwidth(blocks))
    (n,) = grid.shape
    want = classes.class_functional(blocks, grid, tp.source, True)
    monkeypatch.setattr(np, "power", spy_power)
    monkeypatch.setattr(np, "r_", SpyIndex())
    monkeypatch.setattr(np, "ix_", spy_ix)
    got = classes.class_functional(blocks, grid, tp.source, True)
    assert got[0].hex() == want[0].hex() and got[1] == want[1] == "product"
    # one power for the whole-function norm, one per distinct axis factor
    distinct = {k.tobytes() for _, (k,) in blocks.values()}
    assert powered == [n // 2 + 1] * (1 + len(distinct))
    assert built == []
