"""Array-backed spectral functions against a per-frequency Python oracle.

The oracle keeps a polynomial as a dict in insertion order, takes block
levels from int.bit_length, decides cross membership with Fraction level
sums, and synthesizes by summing exponentials point by point.
"""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lzcross import spectral
from lzcross.indexsets import Anisotropy, axis_block
from lzcross.norms import (
    GridFunction,
    MixedSpaceParams,
    OrthantSamples,
    OrthantSlabs,
    anisotropic_norm,
    iterated_rearrangement,
    profile_norm,
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

K_MAX = 2**63 - 1  # largest accepted |k_j|

WEIGHTS = {1: [["1"], ["1/2"], ["3/2"]], 2: [["1/3", "2/3"], ["1", "1"], ["1/2", "1"]]}

signs = st.sampled_from([1, -1])
components = st.one_of(
    st.integers(-40, 40),
    # both sides of every block boundary 2**e
    st.builds(lambda e, d, sign: sign * (2**e + d), st.integers(1, 62),
              st.integers(-1, 1), signs),
    st.builds(lambda d, sign: sign * (K_MAX - d), st.integers(0, 3), signs),
)
coefficients = st.one_of(
    st.just(0j),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)
levels_n = st.one_of(
    st.sampled_from([0, 1, 2, 3, 21, 42, 63, 64, 126]),
    st.fractions(min_value=0, max_value=130, max_denominator=6),
)


@st.composite
def polynomials(draw, component=components, max_m=2):
    m = draw(st.integers(1, max_m))
    keys = draw(st.lists(st.tuples(*[component] * m), max_size=12, unique=True))
    values = draw(st.lists(coefficients, min_size=len(keys), max_size=len(keys)))
    return m, dict(zip(keys, values))


def oracle_level(k):
    return tuple(abs(kj).bit_length() for kj in k)


def oracle_level_sum(k, weights):
    return sum(Fraction(w) * s for w, s in zip(weights, oracle_level(k)))


def oracle_inside(k, n, weights):
    return oracle_level_sum(k, weights) < Fraction(n)


def nonzero(terms):
    return {k: complex(a) for k, a in terms.items() if a != 0}


@given(polynomials())
@settings(deadline=None)
def test_blocks_and_bandwidth_match_oracle(poly):
    m, terms = poly
    f = SpectralFunction(m, terms)
    kept = nonzero(terms)
    groups = {}
    for k, a in kept.items():
        groups.setdefault(oracle_level(k), {})[k] = a
    blocks = block_rows(f)
    assert list(blocks) == sorted(groups)
    for s, rows in blocks.items():
        # same members, in the order they were given
        assert list(f.restrict(rows).coefficients.items()) == list(groups[s].items())
    assert f.bandwidth() == tuple(
        max((abs(k[j]) for k in kept), default=0) for j in range(m)
    )


@given(polynomials(), st.data())
@settings(deadline=None)
def test_cross_truncation_matches_oracle(poly, data):
    m, terms = poly
    weights = data.draw(st.sampled_from(WEIGHTS[m]))
    kept = nonzero(terms)
    # levels on the boundary of the cross are where float level sums go wrong
    boundary = sorted({oracle_level_sum(k, weights) for k in kept})
    if boundary:
        n = data.draw(st.one_of(levels_n, st.sampled_from(boundary)))
    else:
        n = data.draw(levels_n)
    gamma = Anisotropy.of(weights)
    f = SpectralFunction(m, terms)
    inside = {k: a for k, a in kept.items() if oracle_inside(k, n, weights)}
    outside = {k: a for k, a in kept.items() if k not in inside}
    kept_rows = cross_truncate(f, n, gamma).coefficients.items()
    assert list(kept_rows) == list(inside.items())
    want = math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in outside.values()))
    l2 = MixedSpaceParams.of([2] * m, [0.0] * m, [2.0] * m)
    assert truncation_error(f, n, gamma, l2) == want


@given(polynomials(component=st.integers(-5, 5)))
@settings(deadline=None, max_examples=50)
def test_analyze_synthesize_matches_oracle(poly):
    m, terms = poly
    f = SpectralFunction(m, terms)
    kept = nonzero(terms)
    band = (5,) * m
    grid = GridSpec.minimal_for(band)
    tol = 1e-12 * (1.0 + sum(abs(a) for a in kept.values()))
    g = synthesize(f, grid)
    for idx in itertools.product(*(range(n) for n in grid.shape)):
        x = [2 * math.pi * i / n for i, n in zip(idx, grid.shape)]
        want = 0j
        for k, a in kept.items():
            want += a * cmath.exp(1j * sum(kj * xj for kj, xj in zip(k, x)))
        assert abs(g.values[idx] - want) <= tol
    back = analyze(g, band).coefficients
    box = list(itertools.product(*(range(-b, b + 1) for b in band)))
    assert list(back) == [k for k in box if k in back]  # lexicographic rows
    for k in box:
        assert abs(back.get(k, 0) - kept.get(k, 0)) <= tol


@st.composite
def synthesis_inputs(draw):
    """Polynomials with |k_j| <= 3 in m = 1..3 variables, Hermitian or not."""
    m = draw(st.integers(1, 3))
    keys = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * m), max_size=10, unique=True))
    values = draw(st.lists(coefficients, min_size=len(keys), max_size=len(keys)))
    hermitian = draw(st.booleans())
    terms = {}
    for k, a in zip(keys, values):
        terms[k] = a
        if hermitian:  # a_{-k} = conj(a_k); a_0 is real
            minus = tuple(-c for c in k)
            terms[minus] = a.conjugate() if minus != k else complex(a.real)
            terms[k] = terms[minus].conjugate()
    return m, terms, hermitian


@given(synthesis_inputs())
@example((3, {}, True))
@example((2, {(1, 0): 1 + 2j, (2, 0): 3.0, (0, 0): 1j}, False))
@settings(deadline=None)
def test_synthesize_matches_direct_sum(case):
    m, terms, _ = case
    grid = GridSpec.minimal_for((3,) * m)
    got = synthesize(SpectralFunction(m, terms), grid).values
    x = np.meshgrid(*(np.arange(n) / n for n in grid.shape), indexing="ij")
    want = np.zeros(grid.shape, dtype=np.complex128)
    for k, a in terms.items():
        want += a * np.exp(2j * np.pi * sum(kj * xj for kj, xj in zip(k, x)))
    tol = 1e-12 * (1.0 + sum(abs(a) for a in terms.values()))
    assert got.shape == grid.shape
    assert np.abs(got - want).max() <= tol


def test_frequency_range_is_checked():
    for k in (2**63, -(2**63), 2**70):
        with pytest.raises(ValueError, match=r"\|k_j\| < 2\*\*63"):
            SpectralFunction(1, {(k,): 1.0})
    freqs = np.array([[np.iinfo(np.int64).min]])
    with pytest.raises(ValueError, match=r"\|k_j\| < 2\*\*63"):
        SpectralFunction(1, (freqs, np.ones(1)))
    f = SpectralFunction(2, {(K_MAX, -K_MAX): 1.0, (1, 1): 1.0})
    assert f.bandwidth() == (K_MAX, K_MAX)
    assert list(block_rows(f)) == [(1, 1), (63, 63)]


def measured_variants(m, terms):
    """f, a copy of its rows (the same bytes), its frequencies under other
    coefficients, and the empty polynomial; two grid shapes; two spaces."""
    f = SpectralFunction(m, terms)
    variants = [
        f,
        f.restrict(np.ones(f.n_terms, dtype=bool)),
        SpectralFunction(m, (f.freqs, f.coeffs[::-1] * (1 + 1j))),
        SpectralFunction(m),
    ]
    grids = [GridSpec((8,) * m), GridSpec((16,) + (8,) * (m - 1))]
    spaces = [
        MixedSpaceParams.of(["3/2"] * m, [0.5] * m, [2.0] * m),
        MixedSpaceParams.of(["3"] * m, [-0.25] * m, [1.5] * m),
    ]
    return variants, grids, spaces


@st.composite
def measured_terms(draw):
    """Terms with |k_j| <= 3 in m = 1..3 variables."""
    m = draw(st.integers(1, 3))
    keys = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * m), max_size=8, unique=True))
    values = draw(st.lists(coefficients, min_size=len(keys), max_size=len(keys)))
    return m, dict(zip(keys, values))


@given(measured_terms())
@example((2, {(1, 2): 1 + 2j, (-3, 1): 0.5, (2, 2): -1.0}))
@settings(deadline=None)
def test_grid_norm_matches_the_norm_of_fresh_samples(case):
    variants, grids, spaces = measured_variants(*case)
    for f, grid, space in itertools.product(variants, grids, spaces):
        got = grid_norm(f, grid, space)
        want = anisotropic_norm(synthesize(f, grid), space)
        assert got.hex() == want.hex()


@st.composite
def sign_symmetric_polynomials(draw):
    """Real polynomials even in every variable, in m = 1..3 variables: whole
    orbits of |k| with |k_j| <= 3, k_j = 0 included, under coefficients from
    a small set, so sample magnitudes tie; on the minimal grid or one twice
    as fine per axis.  Every grid has samples at x_j = pi."""
    m = draw(st.integers(1, 3))
    mags = draw(st.lists(st.tuples(*[st.integers(0, 3)] * m), min_size=1, max_size=6,
                         unique=True))
    values = draw(st.lists(st.sampled_from([1.0, -1.0, 0.5, 2.0, 1e-3]),
                           min_size=len(mags), max_size=len(mags)))
    terms = {}
    for mag, a in zip(mags, values):
        for signs in itertools.product((1, -1), repeat=m):
            terms[tuple(sg * k for sg, k in zip(signs, mag))] = a
    f = SpectralFunction(m, terms)
    finer = draw(st.lists(st.sampled_from([1, 2]), min_size=m, max_size=m))
    shape = tuple(n * c for n, c in zip(GridSpec.minimal_for(f.bandwidth()).shape, finer))
    return f, shape


def full_spectrum_samples(f, shape):
    """The samples by one complex inverse FFT of the whole spectrum."""
    spec = np.zeros(shape, dtype=np.complex128)
    for k, a in f.coefficients.items():
        spec[tuple(kj % n for kj, n in zip(k, shape))] += a
    return np.fft.ifftn(spec, norm="forward")


@given(sign_symmetric_polynomials())
@example((SpectralFunction(3, {(0, 1, 0): 1.0, (0, -1, 0): 1.0}), (2, 4, 2)))
@settings(deadline=None)
def test_sign_symmetric_polynomials_match_the_full_inverse_fft(case):
    f, shape = case
    assert f.sign_symmetric
    want = full_spectrum_samples(f, shape)
    got = synthesize(f, shape).values
    assert got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-12 * float(np.abs(f.coeffs).sum())
    for axis, n in enumerate(shape):  # exactly even: sample i_j is sample N_j - i_j
        assert np.array_equal(got, np.take(got, -np.arange(n) % n, axis=axis))
    m = f.m
    for space in (
        MixedSpaceParams.of(["3/2"] * m, [0.5] * m, [3.0] * m),
        MixedSpaceParams.of(["3"] * m, [-0.25] * m, [1.5] * m),
    ):
        norm = anisotropic_norm(GridFunction(want), space)
        assert grid_norm(f, shape, space) == pytest.approx(norm, rel=1e-12)


@st.composite
def general_polynomials(draw, real):
    """A polynomial in m = 1..3 variables with |k_j| <= 5, real-valued
    (a_{-k} = conj(a_k)) when real, on its minimal grid or one twice as
    fine on some axes; real comes back first."""
    m = draw(st.integers(1, 3))
    keys = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * m), min_size=1,
                         max_size=8, unique=True))
    values = draw(st.lists(
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
        min_size=len(keys), max_size=len(keys),
    ))
    terms = {}
    for k, a in zip(keys, values):
        if real:
            minus = tuple(-kj for kj in k)
            a = a.real if k == minus else a
            terms[minus] = a.conjugate()
        terms[k] = a
    f = SpectralFunction(m, terms)
    finer = draw(st.lists(st.sampled_from([1, 2]), min_size=m, max_size=m))
    minimal = GridSpec.minimal_for(f.bandwidth()).shape
    return real, f, tuple(n * c for n, c in zip(minimal, finer))


@given(st.booleans().flatmap(general_polynomials))
@example((True, SpectralFunction(2, {(0, 0): 2.0, (1, -2): 1 + 1j, (-1, 2): 1 - 1j}),
          (4, 16)))
@example((False, SpectralFunction(3, {(0, 0, 0): 1j, (3, -1, 2): 0.5}), (16, 4, 16)))
@settings(deadline=None)
def test_general_polynomials_match_the_full_inverse_fft(case):
    _, f, shape = case
    assume(not f.sign_symmetric)
    got = synthesize(f, shape).values
    assert got.dtype == np.complex128
    want = full_spectrum_samples(f, shape)
    assert np.abs(got - want).max() <= 1e-12 * float(np.abs(f.coeffs).sum())


@st.composite
def lebesgue_cases(draw):
    """A sign-symmetric, a general real or a complex polynomial in m = 1..3
    variables, on its minimal grid or one twice as fine on some axes, and a
    plain L_p space."""
    kind = draw(st.sampled_from(["symmetric", "real", "complex"]))
    if kind == "symmetric":
        f, shape = draw(sign_symmetric_polynomials())
    else:
        _, f, shape = draw(general_polynomials(kind == "real"))
    p = draw(st.sampled_from(["4/3", "3/2", "2", "3"]))
    m = f.m
    space = MixedSpaceParams.of([p] * m, [0.0] * m, [float(Fraction(p))] * m)
    return kind, f, shape, space


@given(lebesgue_cases())
@settings(deadline=None)
def test_lebesgue_sums_match_the_quadrature_of_the_rearranged_samples(case):
    kind, f, shape, space = case
    assert space.lebesgue_index() is not None
    assert f.sign_symmetric or kind != "symmetric"
    samples = synthesize(f, shape)
    want = profile_norm(iterated_rearrangement(samples, space.axes[0].tau), space)
    assert grid_norm(f, shape, space) == pytest.approx(want, rel=1e-13)
    assert anisotropic_norm(samples, space) == pytest.approx(want, rel=1e-13)


def plain_lp(p, m):
    return MixedSpaceParams.of([p] * m, [0.0] * m, [float(Fraction(p))] * m)


@st.composite
def product_block_sums(draw):
    """Sign-symmetric sums of uniform product blocks in one, two or three
    variables: at up to five distinct level vectors (entries 0..5, or 0..3
    in three), the product of a sign-symmetric subset of each axis block
    under one nonzero coefficient; on the minimal grid or one twice as fine
    on some axes, with a plain L_p space."""
    m = draw(st.sampled_from([1, 2, 3]))
    level = st.integers(0, 3 if m == 3 else 5)
    levels = draw(st.lists(st.tuples(*[level] * m), min_size=1, max_size=5,
                           unique=True))
    terms = {}
    for s in levels:
        axis_sets = []
        for sj in s:
            positive = [k for k in axis_block(sj) if k >= 0]
            kept = draw(st.lists(st.sampled_from(positive), min_size=1, unique=True))
            axis_sets.append(sorted({sign * k for k in kept for sign in (1, -1)}))
        c = draw(st.floats(min_value=1e-3, max_value=1e3)) * draw(signs)
        for k in itertools.product(*axis_sets):
            terms[k] = c
    f = SpectralFunction(m, terms)
    finer = draw(st.lists(st.sampled_from([1, 2]), min_size=m, max_size=m))
    shape = tuple(n * c for n, c in zip(GridSpec.minimal_for(f.bandwidth()).shape, finer))
    return f, shape, plain_lp(draw(st.sampled_from(["4/3", "3/2", "2", "3"])), m)


@given(product_block_sums())
@example((SpectralFunction(2, {(k0, k1): -2.5 for k0 in (-1, 1) for k1 in (-3, -2, 2, 3)}),
          (4, 16), plain_lp("3/2", 2)))
@example((SpectralFunction(3, {(k0, k1, k2): 1.5 for k0 in (-1, 1)
                               for k1 in (-3, -2, 2, 3) for k2 in (-5, 5)}),
          (4, 16, 16), plain_lp("4/3", 3)))
@example((SpectralFunction(1, {(k,): -2.5 for k in (-3, -2, 2, 3)}), (16,), plain_lp("3/2", 1)))
@settings(deadline=None)
def test_product_route_matches_the_norm_of_the_samples(case):
    f, shape, space = case
    assert grid_route(f, shape, space) == "product"
    got = grid_norm(f, shape, space)
    assert grid_route(f, shape, space) == "product"
    want = anisotropic_norm(synthesize(f, shape), space)
    assert got == pytest.approx(want, rel=1e-13)


def kernel_calls(mp) -> list:
    """A list that gains (name, grid shape) for each call of the synthesis
    kernels _axis_factor(k, n) and _inverse_fft(spec), patched in through
    the monkeypatch mp."""
    calls = []
    for name in ("_axis_factor", "_inverse_fft"):
        original = getattr(spectral, name)

        def counting(*args, name=name, original=original):
            calls.append((name, getattr(args[-1], "shape", (args[-1],))))
            return original(*args)

        mp.setattr(spectral, name, counting)
    return calls


@given(product_block_sums())
@example((SpectralFunction(2, {(k0, k1): -2.5 for k0 in (-1, 1) for k1 in (-3, -2, 2, 3)}),
          (4, 16), plain_lp("3/2", 2)))
# K = {±2, ±3} on both axes of the first block and on axis 0 of the second
@example((SpectralFunction(2, {**{(k0, k1): 0.5 for k0 in (-3, -2, 2, 3)
                                  for k1 in (-3, -2, 2, 3)},
                               **{(k0, k1): -1.5 for k0 in (-3, -2, 2, 3)
                                  for k1 in (-5, 5)}}),
          (16, 16), plain_lp("2", 2)))
@example((SpectralFunction(1, {(k,): -2.5 for k in (-3, -2, 2, 3)}), (16,), plain_lp("3/2", 1)))
@settings(deadline=None)
def test_product_orthant_matches_the_full_inverse_fft(case):
    # the orthant of a product f, drawn from its axis factors as one slab,
    # axis 0 contiguous; only the 1-D factors are transformed, by the DCT-I
    f, shape, _ = case
    with pytest.MonkeyPatch.context() as mp:
        calls = kernel_calls(mp)
        stream = spectral._block_samples(f.blocks, shape, {})
        (got,) = stream.slabs(shape[-1] // 2 + 1)
    assert calls and all(name == "_axis_factor" and len(s) == 1 for name, s in calls)
    want = full_spectrum_samples(f, shape)[tuple(slice(n // 2 + 1) for n in shape)]
    assert stream.shape == shape and got.shape == want.shape
    assert got.strides[0] == got.itemsize
    assert np.abs(got - want).max() <= 1e-13 * float(np.abs(f.coeffs).sum())


def test_streamed_product_orthant_matches_the_held_one():
    # each slab is one batch of rows, width x 513 of them on the grid
    # (16, 1024, 8); slabs of any width join to the held orthant, the one
    # slab of the whole last axis, which synthesize mirrors
    cases = [
        (SpectralFunction(1, {(k,): -2.5 for k in (-3, -2, 2, 3)}), (16,)),
        (dirichlet_block((5, 7)), (64, 1024)),
        (dirichlet_block((3, 7, 2)), (16, 1024, 8)),
        (dirichlet_block((2, 3, 4)), (8, 32, 64)),
    ]
    for f, shape in cases:
        stream = spectral._block_samples(f.blocks, shape, {})
        assert isinstance(stream, OrthantSlabs) and stream.shape == shape
        (held,) = stream.slabs(shape[-1] // 2 + 1)
        want = full_spectrum_samples(f, shape)[tuple(slice(n // 2 + 1) for n in shape)]
        assert np.abs(held - want).max() <= 1e-13 * float(np.abs(f.coeffs).sum())
        for width in (1, 3, held.shape[-1] - 1, held.shape[-1]):
            slabs = list(stream.slabs(width))
            assert all(slab.strides[0] == slab.itemsize for slab in slabs)
            assert [slab.shape[-1] for slab in slabs[:-1]] == [width] * (len(slabs) - 1)
            joined = np.concatenate([slab.copy() for slab in slabs], axis=-1)
            assert joined.tobytes() == held.tobytes()
        space = MixedSpaceParams.of(["3/2"] * f.m, [0.5] * f.m, [3.0] * f.m)
        want = anisotropic_norm(OrthantSamples(held, shape), space)
        assert grid_norm(f, shape, space).hex() == want.hex()
        assert synthesize(f, shape).values.tobytes() == OrthantSamples(
            held, shape).to_grid().values.tobytes()


def test_blocks_off_the_product_form_reach_the_complex_fft_once(monkeypatch):
    # level (2, 2) holds the frequencies with |k_j| in {2, 3}; a ragged or
    # diagonal block makes f sampled whole by one complex ifft, of which the
    # real orthant is kept; a uniform polynomial of one variable is its own
    # axis factor
    calls = kernel_calls(monkeypatch)
    block = {(k0, k1): 1.0 for k0 in (-3, -2, 2, 3) for k1 in (-3, -2, 2, 3)}
    other = {(k0, k1): 0.5 for k0 in (-1, 1) for k1 in (-5, 5)}
    ragged = {**block, **{(k0, k1): 2.0 for k0 in (-3, 3) for k1 in (-3, 3)}}
    diagonal = {k: 1.0 for k in block if abs(k[0]) == abs(k[1])}
    for terms in (ragged, diagonal):
        f = SpectralFunction(2, {**terms, **other})
        assert f.sign_symmetric and not spectral._products(f.blocks)
        got = spectral._block_samples(f.blocks, (16, 16), {})
        assert calls == [("_inverse_fft", (16, 16))]
        assert got.values.shape == (9, 9) and got.values.dtype == np.float64
        assert synthesize(f, (16, 16)).values.dtype == np.float64
        calls.clear()
    single = SpectralFunction(1, {(k,): 1.0 for k in (-3, -2, 2, 3)})
    spectral._block_samples(single.blocks, (16,), {})
    assert calls == [("_axis_factor", (16,))]


@st.composite
def block_lists(draw):
    """Block lists {level: (c, [K_1, ..., K_m])} off the sign symmetry, or
    empty, in m = 1..3 variables: up to four distinct levels (entries 1..4,
    or 1..3 in three), each K_j a subset of the axis block, one-sided, held
    at the one harmonic k_j = +1 of level 1, or symmetric, under a real or
    complex c; on the minimal grid or one twice as fine on some axes."""
    m = draw(st.integers(1, 3))
    level = st.integers(1, 3 if m == 3 else 4)
    levels = draw(st.lists(st.tuples(*[level] * m), max_size=4, unique=True))
    blocks = {}
    for s in levels:
        axis_sets = [
            np.array(sorted(draw(st.lists(st.sampled_from(axis_block(sj)), min_size=1,
                                          unique=True))), dtype=np.int64)
            for sj in s
        ]
        c = draw(st.one_of(st.floats(min_value=1e-3, max_value=1e3),
                           st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3)))
        blocks[s] = (complex(c), axis_sets)
    assume(not blocks or not spectral._sign_symmetric(blocks))
    bandwidth = [(1 << sj) - 1 for sj in map(max, zip(*levels))] if levels else [0] * m
    minimal = GridSpec.minimal_for(bandwidth).shape
    finer = draw(st.lists(st.sampled_from([1, 2]), min_size=m, max_size=m))
    return m, blocks, tuple(n * c for n, c in zip(minimal, finer))


def row_samples(f, shape):
    """The samples by one complex ifft, axis by axis in place, of the
    spectrum holding each listed row's coefficient at k mod N_j."""
    spec = np.zeros(shape, dtype=np.complex128)
    spec[tuple((f.freqs % np.array(shape)).T)] = f.coeffs
    return spectral._inverse_fft(spec)


@given(block_lists())
@example((2, {(1, 2): (1 + 0j, [np.array([1]), np.array([-3, -2, 2, 3])]),
              (1, 3): (0.5 - 2j, [np.array([1]), np.array([4, 5, 6, 7])])}, (4, 16)))
@example((1, {}, (2,)))
@settings(deadline=None)
def test_block_samples_are_the_complex_samples_of_the_rows(case):
    # a block list off the sign symmetry is sampled on the whole grid from
    # a spectrum filled block by block: the array of its listed rows; the
    # empty list is sign-symmetric, so it keeps the real part of its orthant
    m, blocks, shape = case
    f = SpectralFunction.from_blocks(m, blocks)
    got = spectral._block_samples(blocks, shape, {})
    want = row_samples(f, shape)
    if not blocks:
        assert isinstance(got, OrthantSamples) and got.values.dtype == np.float64
        got, want = got.to_grid(), GridFunction(want.values.real)
    assert isinstance(got, GridFunction) and got.values.dtype == want.values.dtype
    assert np.array_equal(got.values, want.values)
    assert got.values.tobytes() == want.values.tobytes()


def test_polynomial_without_terms_has_norm_zero_on_every_route():
    empty = SpectralFunction(2)
    assert empty.sign_symmetric and empty.blocks == {}
    for p in ("3/2", "2"):
        assert grid_route(empty, (4, 4), plain_lp(p, 2)) == "orthant"
        assert grid_norm(empty, (4, 4), plain_lp(p, 2)) == 0.0


def test_blocks_off_the_product_form_take_the_fft_path():
    # level (2, 2) holds the frequencies with |k_j| in {2, 3}
    block = {(k0, k1): 1.0 for k0 in (-3, -2, 2, 3) for k1 in (-3, -2, 2, 3)}
    other = {(k0, k1): 0.5 for k0 in (-1, 1) for k1 in (-5, 5)}
    ragged = {**block, **{(k0, k1): 2.0 for k0 in (-3, 3) for k1 in (-3, 3)}}
    diagonal = {k: 1.0 for k in block if abs(k[0]) == abs(k[1])}
    space, shape = plain_lp("3/2", 2), (16, 16)
    for terms in (ragged, diagonal):
        f = SpectralFunction(2, {**terms, **other})
        assert f.sign_symmetric
        assert grid_route(f, shape, space) == "orthant"
        want = anisotropic_norm(spectral._block_samples(f.blocks, shape, {}), space)
        assert grid_norm(f, shape, space).hex() == want.hex()
    # the same blocks, each made whole and uniform, take the product route,
    # also after f was measured on the grid in another space; another space
    # rules it out, and so does a one-variable block off one coefficient
    f = SpectralFunction(2, {**block, **other})
    assert grid_route(f, shape, space) == "product"
    lz = MixedSpaceParams.of(["2"] * 2, [0.5] * 2, [3.0] * 2)
    grid_norm(f, shape, lz)
    assert grid_route(f, shape, space) == "product"
    assert grid_route(f, shape, lz) == "orthant"
    assert grid_route(f, (32, 16), space) == "product"
    single = SpectralFunction(1, {(k,): 1.0 for k in (-3, -2, 2, 3)})
    assert grid_route(single, (16,), plain_lp("3/2", 1)) == "product"
    uneven = SpectralFunction(1, {(k,): abs(k) - 1.0 for k in (-3, -2, 2, 3)})
    assert grid_route(uneven, (16,), plain_lp("3/2", 1)) == "orthant"
    # a grid that does not resolve f is refused on the product route too
    f = SpectralFunction(2, other)
    for coarse in ((2, 16), (4, 8)):  # |k_0| = 1 and |k_1| = 5
        with pytest.raises(ValueError, match="too coarse"):
            grid_norm(f, coarse, space)
