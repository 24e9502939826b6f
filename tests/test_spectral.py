"""FFT synthesis and analysis, block splitting, cross truncation."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lzcross.indexsets import Anisotropy, axis_block, rho_block
from lzcross.norms import (
    GridFunction,
    MixedSpaceParams,
    ScalarSpaceParams,
    anisotropic_norm,
)
from lzcross.spectral import (
    GridSpec,
    SpectralFunction,
    analyze,
    block_rows,
    cross_truncate,
    dirichlet_block,
    grid_norm,
    grid_route,
    synthesize,
    truncation_error,
)
from lzcross.spectral import _axis_factor, _factor_norms


def random_poly(rng, m, band, terms):
    coeffs = {}
    while len(coeffs) < terms:
        k = tuple(int(rng.integers(-b, b + 1)) for b in band)
        coeffs[k] = complex(rng.standard_normal(), rng.standard_normal())
    return SpectralFunction(m, coeffs)


def test_grid_spec_validation_and_sizing():
    with pytest.raises(ValueError):
        GridSpec((6,))
    assert GridSpec((4, 8)).cells == 32
    assert GridSpec.minimal_for((0,)).shape == (2,)
    assert GridSpec.minimal_for((3,)).shape == (8,)
    assert GridSpec.minimal_for((8, 3)).shape == (32, 8)
    # the smallest admitted grid really does resolve the band: 2b < N
    for b in range(0, 40):
        (n,) = GridSpec.minimal_for((b,)).shape
        assert 2 * b < n <= max(2, 4 * b + 2)


def test_spectral_function_basics():
    f = SpectralFunction(2, {(1, -2): 1.0, (0, 5): 0.0, (-1, 1): 2j})
    assert f.n_terms == 2  # exact zeros dropped
    assert sorted(f.coefficients) == [(-1, 1), (1, -2)]
    assert f.bandwidth() == (1, 2)
    assert f.scaled(2.0).coefficients[(-1, 1)] == 4j
    assert SpectralFunction(1, {}).bandwidth() == (0,)
    with pytest.raises(ValueError):
        SpectralFunction(2, {(1,): 1.0})


def test_spectral_json_roundtrip():
    f = SpectralFunction(1, {(3,): 1.0, (-2,): 0.5 - 0.25j})
    back = SpectralFunction.from_json_dict(f.to_json_dict())
    assert back.coefficients == f.coefficients


def test_synthesize_single_harmonic():
    f = SpectralFunction(1, {(1,): 1.0})
    got = synthesize(f, (8,)).values
    want = np.exp(2j * np.pi * np.arange(8) / 8)
    assert np.allclose(got, want, atol=1e-14)


def test_synthesize_cosine_pair():
    f = SpectralFunction(1, {(1,): 0.5, (-1,): 0.5})
    got = synthesize(f, GridSpec((8,))).values
    want = np.cos(2 * np.pi * np.arange(8) / 8)
    assert np.allclose(got, want, atol=1e-14)
    assert np.allclose(got.imag, 0.0, atol=1e-15)


def test_synthesize_empty_and_aliasing():
    assert np.all(synthesize(SpectralFunction(2, {}), (4, 4)).values == 0)
    with pytest.raises(ValueError):
        synthesize(SpectralFunction(1, {(4,): 1.0}), (8,))
    with pytest.raises(ValueError):
        synthesize(SpectralFunction(1, {(3,): 1.0}), (4, 4))


def test_real_polynomials_synthesize_to_real_samples():
    f = dirichlet_block((3, 2))
    got = synthesize(f, (32, 16)).values
    assert got.dtype == np.float64
    x0, x1 = np.meshgrid(np.arange(32) / 32, np.arange(16) / 16, indexing="ij")
    want = sum(
        np.cos(2 * np.pi * (k0 * x0 + k1 * x1)) for k0, k1 in f.freqs.tolist()
    )
    assert np.abs(got - want).max() <= 1e-12
    assert synthesize(SpectralFunction(2, {}), (4, 4)).values.dtype == np.float64
    # a single harmonic is not real, so its samples stay complex
    assert synthesize(SpectralFunction(1, {(1,): 1.0}), (8,)).values.dtype == np.complex128


def test_analyze_constants_and_zero():
    g = GridFunction(np.full((4, 4), 2.5))
    f = analyze(g, (1, 1))
    assert f.coefficients == {(0, 0): 2.5}
    assert analyze(GridFunction(np.zeros((8,))), (3,)).n_terms == 0
    with pytest.raises(ValueError):
        analyze(g, (2, 1))


def test_analyze_synthesize_roundtrip():
    # agreement is coefficientwise: transform noise may park tiny values
    # on frequencies outside the original support
    rng = np.random.default_rng(21)
    for m, band, grid in [(1, (3,), (16,)), (2, (3, 5), (16, 16))]:
        f = random_poly(rng, m, band, 7)
        back = analyze(synthesize(f, grid), band)
        for k in set(back.coefficients) | set(f.coefficients):
            assert abs(back.coefficients.get(k, 0) - f.coefficients.get(k, 0)) <= 1e-12


def test_parseval_identity():
    rng = np.random.default_rng(22)
    f = random_poly(rng, 2, (5, 7), 12)
    samples = synthesize(f, (16, 16)).values
    rms = float(np.sqrt(np.mean(np.abs(samples) ** 2)))
    assert abs(f.l2_norm() - rms) <= 1e-12 * rms


def test_blocks_partition_support():
    rng = np.random.default_rng(23)
    f = random_poly(rng, 1, (7,), 9)
    split = block_rows(f)
    assert list(split) == sorted(split)
    merged = {}
    for rows in split.values():
        merged.update(f.restrict(rows).coefficients)
    assert merged == f.coefficients


def test_cross_truncate_examples():
    gamma = Anisotropy.of([1, 1])
    f = SpectralFunction(2, {k: 1.0 for k in rho_block((1, 1))})
    assert cross_truncate(f, 2, gamma).n_terms == 0
    assert cross_truncate(f, 3, gamma).coefficients == f.coefficients
    assert cross_truncate(f, 0, gamma).n_terms == 0
    with pytest.raises(ValueError):
        cross_truncate(f, 1, Anisotropy.of([1]))


def test_cross_truncate_idempotent():
    rng = np.random.default_rng(24)
    gamma = Anisotropy.of([1, "1/2"])
    f = random_poly(rng, 2, (9, 9), 25)
    once = cross_truncate(f, 3, gamma)
    twice = cross_truncate(once, 3, gamma)
    assert once.coefficients == twice.coefficients


def test_truncation_error_parseval_tail():
    l2 = MixedSpaceParams.of([2], [0.0], [2.0])
    gamma = Anisotropy.of([1])
    f = SpectralFunction(1, {(3,): 1.0, (9,): 1.0})
    # frequency 9 sits in block 4, which level n=3 discards
    assert truncation_error(f, 3, gamma, l2) == pytest.approx(1.0, abs=1e-15)
    assert truncation_error(f, 5, gamma, l2) == 0.0
    grid_value = truncation_error(f, 3, gamma, l2, GridSpec((32,)))
    assert grid_value == pytest.approx(1.0, rel=1e-8)


def test_truncation_error_homogeneity_and_guard():
    gamma = Anisotropy.of([1])
    l2 = MixedSpaceParams.of([2], [0.0], [2.0])
    f = SpectralFunction(1, {(3,): 0.5, (9,): 2.0})
    assert truncation_error(f.scaled(2.0), 3, gamma, l2) == pytest.approx(
        2.0 * truncation_error(f, 3, gamma, l2), rel=1e-14
    )
    lorentz = MixedSpaceParams.of([2], [1.0], [2.0])
    with pytest.raises(ValueError):
        truncation_error(f, 3, gamma, lorentz)  # needs a grid


def test_truncation_error_rejects_arity_mismatch():
    f = SpectralFunction(2, {(1, 8): 1.0, (1, 1): 1.0})
    l2 = MixedSpaceParams.of([2, 2], [0.0] * 2, [2.0] * 2)
    with pytest.raises(ValueError, match="anisotropy arity does not match"):
        truncation_error(f, 2, Anisotropy.of([1]), l2, None)


def test_truncation_error_rejects_a_target_of_another_arity():
    # without a grid the Parseval value of the residual was returned, for
    # a 3-axis target on a 2-variable f sqrt(5)
    f = SpectralFunction(2, {(1, 8): 1.0, (1, 1): 1.0, (2, 9): 2.0})
    l2 = MixedSpaceParams.of([2] * 3, [0.0] * 3, [2.0] * 3)
    for grid in (None, GridSpec((8, 32))):
        with pytest.raises(ValueError, match="space arity does not match"):
            truncation_error(f, 2, Anisotropy.of([1, 1]), l2, grid)


def test_grid_route_names_no_route_for_a_space_of_another_arity():
    # grid_norm refuses such a space, so grid_route names no route for it
    for f in (dirichlet_block((2, 2)), SpectralFunction(2), SpectralFunction(2, {(1, 3): 1j})):
        for m in (1, 3):
            space = MixedSpaceParams.of(["3/2"] * m, [0.0] * m, [1.5] * m)
            with pytest.raises(ValueError, match="space arity does not match"):
                grid_route(f, (16, 16), space)
            with pytest.raises(ValueError, match="space arity does not match"):
                grid_norm(f, (16, 16), space)


def test_grid_route_refuses_the_grids_grid_norm_refuses():
    f = SpectralFunction(2, {(9, 3): 1.0, (-9, 3): 1.0, (9, -3): 1.0, (-9, -3): 1.0})
    space = MixedSpaceParams.of(["3/2"] * 2, [0.0] * 2, [1.5] * 2)
    assert grid_route(f, (32, 8), space) == "product"
    for grid, match in (((16, 8), "too coarse"), ((32,), "grid arity")):
        for measure in (grid_route, grid_norm):
            with pytest.raises(ValueError, match=match):
                measure(f, grid, space)


def test_truncation_error_monotone_in_level():
    rng = np.random.default_rng(25)
    f = random_poly(rng, 2, (15, 15), 30)
    gamma = Anisotropy.of([1, 1])
    l2 = MixedSpaceParams.of([2, 2], [0.0] * 2, [2.0] * 2)
    errs = [truncation_error(f, n, gamma, l2) for n in range(1, 8)]
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-15


def test_dirichlet_block_coefficients():
    assert dirichlet_block((1,)).coefficients == {(-1,): 1.0, (1,): 1.0}
    assert dirichlet_block((0,)).coefficients == {(0,): 1.0}
    for s in range(1, 7):
        assert dirichlet_block((s,)).n_terms == 2**s
    assert dirichlet_block((2, 1)).n_terms == 8


def test_dirichlet_block_l2_norm_value():
    # Parseval: all-ones coefficients on 2^s frequencies
    for s in range(1, 6):
        f = dirichlet_block((s,))
        assert f.l2_norm() == pytest.approx(math.sqrt(2.0**s), rel=1e-14)


def test_sign_symmetry_is_detected_exactly():
    f = dirichlet_block((2, 2))
    assert f.sign_symmetric
    for arr in (f.freqs, f.coeffs):  # read-only, so the answer cannot go stale
        with pytest.raises(ValueError):
            arr[0] = 2
    assert dirichlet_block((3, 0, 1)).sign_symmetric
    # a frozen axis: k_2 = +1 only
    assert not SpectralFunction(2, {(1, 1): 1.0, (-1, 1): 1.0}).sign_symmetric
    # a whole orbit under a complex coefficient
    assert not SpectralFunction(1, {(1,): 1j, (-1,): 1j}).sign_symmetric
    # a missing mirror row
    assert not f.restrict(np.arange(1, f.n_terms)).sign_symmetric
    # a mirror coefficient one ulp off
    coeffs = f.coeffs.real.copy()
    coeffs[0] = np.nextafter(coeffs[0], 2.0)
    assert not SpectralFunction(2, (f.freqs, coeffs)).sign_symmetric


def test_complex_synthesis_holds_one_complex_grid():
    # the full spectrum is transformed in place and returned as the samples;
    # what else is held scales with the rows, not with the grid
    grid = GridSpec((1024, 1024))
    f = dirichlet_block((4, 4)).scaled(1 + 1j)
    synthesize(f.scaled(2.0), grid)  # plans the transforms
    tracemalloc.start()
    try:
        samples = synthesize(f, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.values.dtype == np.complex128
    assert peak <= grid.cells * 16 + 64 * 1024


def test_powered_orthant_factor_norms_keep_the_bits_of_the_mirrored_grid():
    # a sign-symmetric factor in a plain L_p axis space is raised to the
    # power p at its N/2 + 1 orthant samples and the powers are mirrored:
    # the sum must have the bits of the norm of the mirrored samples, on
    # every dyadic block, a few unions of them, and every grid resolving them
    unions = [
        np.sort(np.concatenate([axis_block(s) for s in levels]))
        for levels in ([0, 3], [2, 5], range(1, 9), range(0, 17))
    ]
    sets = [axis_block(s) for s in range(17)] + unions
    for p in ("5/4", "3/2", "2", "3", "7/2"):
        space = MixedSpaceParams((ScalarSpaceParams(Fraction(p), 0.0, float(Fraction(p))),))
        for n in (1 << e for e in range(1, 18)):
            for k in (k for k in sets if 2 * k[-1] < n):
                orthant = _axis_factor(k, n)
                want = anisotropic_norm(orthant.to_grid(), space)
                got = _factor_norms({(0,): (1 + 0j, [k])}, (n,), space, {})
                assert got[(0,)].hex() == want.hex(), (p, n, k[-1], len(k))
