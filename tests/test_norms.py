"""Rearrangements, weighted scalar and mixed norms, sequence norms.

Analytic anchors used below:
  constant 1 with p = tau, alpha = 0          -> norm 1 (unit mass)
  indicator of measure a, alpha = 0           -> (p/tau)^(1/tau) a^(1/p)
  sum of all cell weights                     -> integral of the bare weight
  product samples                             -> per-axis factorization
"""

import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lzcross.norms import (
    GridFunction,
    HalfProfile,
    MixedSpaceParams,
    OrthantSamples,
    OrthantSlabs,
    ScalarSpaceParams,
    anisotropic_norm,
    cell_weights,
    iterated_rearrangement,
    mixed_reduce,
    mixed_sequence_norm,
    profile_norm,
)
from lzcross.indexsets import axis_block
from lzcross.norms import _cell_weights
from lzcross import norms, spectral
from lzcross.spectral import (
    GridSpec,
    SpectralFunction,
    dirichlet_block,
    grid_norm,
    synthesize,
)


def test_scalar_params_validation():
    ScalarSpaceParams(2, 0.0, 2.0)
    with pytest.raises(ValueError):
        ScalarSpaceParams(1, 0.0, 2.0)
    with pytest.raises(ValueError):
        ScalarSpaceParams(2, 0.0, 1.0)
    with pytest.raises(ValueError):
        ScalarSpaceParams(2, math.inf, 2.0)


def test_mixed_params_constructors():
    with pytest.raises(ValueError):
        MixedSpaceParams.of([2, 2], [0.0], [2.0, 2.0])
    leb = MixedSpaceParams.of([2] * 3, [0.0] * 3, [2.0] * 3)
    assert leb.m == 3 and leb.lebesgue_index() == 2
    l32 = MixedSpaceParams.of(["3/2"] * 2, [0.0] * 2, [1.5] * 2)
    assert l32.lebesgue_index() == Fraction(3, 2)  # plain L_{3/2}, not L2
    assert MixedSpaceParams.of([2], [1.0], [2.0]).lebesgue_index() is None
    # alpha = 0 and tau = p on every axis, but two p: a mixed norm, not L_p
    assert MixedSpaceParams.of([2, "3/2"], [0.0] * 2, [2.0, 1.5]).lebesgue_index() is None
    # tau is the float nearest p, as the options give it
    assert MixedSpaceParams.of(["4/3"], [0.0], [4 / 3]).lebesgue_index() == Fraction(4, 3)


def test_iterated_rearrangement_of_product_data():
    rng = np.random.default_rng(7)
    g = rng.random(4)
    h = rng.random(8)
    grid = np.outer(g, h)
    want = np.outer(np.sort(g)[::-1], np.sort(h)[::-1])
    got = iterated_rearrangement(grid)
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_iterated_rearrangement_idempotent():
    rng = np.random.default_rng(8)
    arr = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    once = iterated_rearrangement(arr)
    twice = iterated_rearrangement(once)
    assert np.array_equal(once, twice)


def flip_sort_rearrangement(data):
    """Decreasing sorts by flipping increasing ones: the reference formula."""
    arr = np.abs(np.asarray(data)).astype(np.float64)
    for axis in range(arr.ndim):
        arr = np.flip(np.sort(arr, axis=axis), axis=axis)
    return arr


def slab_cells(shape, lanes):
    """_SLAB_CELLS for the default slabs, for slabs of one index of the last
    axis, and for slabs of lanes - 1 indices, where `lanes` indices of the
    input's last axis are walked: these leave a last slab of one index, and
    an orthant's first slab ends at its last interior index N/2 - 1."""
    cells = math.prod(shape[:-1])
    return [norms._SLAB_CELLS, cells, max(1, lanes - 1) * cells]


tied_entries = st.sampled_from([0.0, -0.0, 1.5, -1.5, 2.0, 3j, -2.0 + 0j, 1e-300])
powers = st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0])


def flip_sort_powers(arr, power):
    """The reference rearrangement raised to power on a C-contiguous copy."""
    return np.ascontiguousarray(flip_sort_rearrangement(arr)) ** power


@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=3).flatmap(
        lambda shape: st.lists(
            tied_entries, min_size=math.prod(shape), max_size=math.prod(shape)
        ).map(lambda xs: np.array(xs).reshape(shape))
    ),
    powers,
)
@settings(deadline=None)
def test_rearrangements_match_flip_sort_bit_for_bit(arr, power):
    before = arr.copy()
    want = flip_sort_powers(arr, power)
    for cells in slab_cells(arr.shape, arr.shape[-1]):
        with mock.patch.object(norms, "_SLAB_CELLS", cells):
            got = iterated_rearrangement(arr, power)
        assert got.flags.c_contiguous
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bytes: +0.0 and -0.0 differ
    assert arr.tobytes() == before.tobytes()


@given(
    st.lists(st.sampled_from([2, 4, 8]), min_size=1, max_size=3).flatmap(
        lambda shape: st.tuples(
            st.just(tuple(shape)),
            st.lists(tied_entries, min_size=math.prod(n // 2 + 1 for n in shape),
                     max_size=math.prod(n // 2 + 1 for n in shape)),
            st.booleans(),
        )
    ),
    powers,
)
@settings(deadline=None)
def test_orthant_rearrangement_matches_the_full_grid_bit_for_bit(case, power):
    shape, entries, fortran = case
    values = np.array(entries).reshape(tuple(n // 2 + 1 for n in shape))
    if fortran:  # any memory layout of the orthant
        values = np.asfortranarray(values)
    orthant = OrthantSamples(values, shape)
    want = flip_sort_powers(orthant.to_grid().values, power)
    for cells in slab_cells(shape, values.shape[-1]):
        with mock.patch.object(norms, "_SLAB_CELLS", cells):
            got = iterated_rearrangement(orthant, power)
        assert isinstance(got, HalfProfile) and got.shape == shape
        assert got.rows.shape == shape[:-1] + (shape[-1] // 2 + 1,)
        full = got.to_grid()
        assert full.flags.c_contiguous
        assert full.dtype == np.float64 and full.shape == shape
        assert full.tobytes() == want.tobytes()


def streamed(orthant: OrthantSamples) -> OrthantSlabs:
    """The orthant's slabs drawn one at a time, each a fresh copy."""
    return OrthantSlabs(lambda width: (s.copy() for s in orthant.slabs(width)), orthant.shape)


@st.composite
def half_width_orthants(draw):
    """An orthant of up to three axes of N_j in {2, 4, 8, 16}, from tied
    entries, in C or Fortran order."""
    shape = tuple(draw(st.lists(st.sampled_from([2, 4, 8, 16]), min_size=1, max_size=3)))
    half = tuple(n // 2 + 1 for n in shape)
    entries = draw(st.lists(tied_entries, min_size=math.prod(half), max_size=math.prod(half)))
    values = np.array(entries).reshape(half)
    if draw(st.booleans()):
        values = np.asfortranarray(values)
    return OrthantSamples(values, shape)


@given(half_width_orthants(), powers)
# N = 2 has no interior; a row of one value has lo = hi; endpoints equal to
# interior values; all-zero lanes along the last axis and along axis 0
@example(OrthantSamples(np.array([[1.5, -2.0], [0.0, 3j]]), (2, 2)), 3.0)
@example(OrthantSamples(np.full((3, 5), 2.0), (4, 8)), 1.0)
@example(OrthantSamples(np.array([[2.0, 1.5, 2.0, 1.5, 2.0], [1.5, 2.0, 0.0, 2.0, 1.5],
                                  [0.0, 0.0, 0.0, 0.0, 0.0]]), (4, 8)), 1.5)
@example(OrthantSamples(np.zeros((3, 3, 5)), (4, 4, 8)), 7.0)
@example(OrthantSamples(np.array([[0.0, 0.0, 0.0], [-1.5, 0.0, 1.5], [0.0, 2.0, -0.0]]).T,
                        (4, 4)), 3.0)
@example(OrthantSamples(np.array([0.0, -0.0, 1.5, 1.5, 0.0]), (8,)), 1.0)
@settings(deadline=None)
def test_half_width_rearrangement_matches_flip_sort_bit_for_bit(orthant, power):
    # an orthant's rows along the last axis keep their N/2 + 1 values, for
    # every slab width and whether the orthant is held or drawn slab by
    # slab; E and O, the row without its leftmost hi and without its
    # leftmost lo, are the even and odd entries of the full grid's row in
    # batches of every width
    full = orthant.to_grid().values
    want = flip_sort_powers(full, power)
    *heads, n = orthant.shape
    for cells in slab_cells(orthant.shape, n // 2 + 1):
        with mock.patch.object(norms, "_SLAB_CELLS", cells):
            for source in (orthant, streamed(orthant)):
                got = iterated_rearrangement(source, power)
                assert got.rows.shape == (*heads, n // 2 + 1) and got.shape == full.shape
                assert got.to_grid().tobytes() == want.tobytes()
    negated = -want
    for width in (1 << k for k in range((n // 2).bit_length())):
        t_seen = []
        for t, batch in iterated_rearrangement(orthant, power).pairs(width):
            t_seen.append(t)
            assert batch.flags.c_contiguous and batch.shape == (*heads, 2 * width)
            even = negated[..., 2 * t : 2 * (t + width) : 2]
            odd = negated[..., 2 * t + 1 : 2 * (t + width) : 2]
            assert batch[..., :width].tobytes() == np.ascontiguousarray(even).tobytes()
            assert batch[..., width:].tobytes() == np.ascontiguousarray(odd).tobytes()
        assert t_seen == list(range(0, n // 2, width))
    # the full grid, real or complex, keeps whole rows in the same walk
    for grid in (full, full * (0.6 + 0.8j)):
        got = iterated_rearrangement(grid, power)
        assert got.tobytes() == flip_sort_powers(grid, power).tobytes()


@given(half_width_orthants(), st.data())
@settings(deadline=None)
def test_half_width_profile_norm_matches_the_full_profile_to_the_last_bit(orthant, data):
    # the first axis is summed over batches of E and O columns, down to the
    # narrowest (4 columns), as over the full profile
    m = len(orthant.shape)
    params = MixedSpaceParams.of(
        [data.draw(st.sampled_from(["3/2", "2", "3"])) for _ in range(m)],
        [data.draw(st.sampled_from([0.5, -0.25])) for _ in range(m)],
        [data.draw(st.sampled_from([1.5, 3.0, 7.0])) for _ in range(m)],
    )
    want = reference_profile_norm(orthant.to_grid().values, params)
    prof = iterated_rearrangement(orthant, params.axes[0].tau)
    for columns in (4, 8, norms._COLUMNS):
        with mock.patch.object(norms, "_COLUMNS", columns):
            assert profile_norm(prof, params).hex() == want.hex()
    assert anisotropic_norm(streamed(orthant), params).hex() == want.hex()


def test_rearrangement_refuses_a_power_that_is_not_finite_and_positive():
    # a decreasing map, or none at all, would silently reverse the sort
    arr = np.arange(8.0).reshape(2, 4)
    orthant = OrthantSamples(np.ones((2, 3)), (2, 4))
    for power in (0.0, -0.0, -1.5, math.inf, -math.inf, math.nan):
        for data in (arr, orthant):
            with pytest.raises(ValueError, match="finite and positive"):
                iterated_rearrangement(data, power)


def test_rearrangement_whose_power_overflows_is_a_numerical_failure():
    # an infinite power would sort as the largest value and leave a NaN or
    # an infinite norm; it is refused, on a full grid and on an orthant
    arr = np.full((2, 4), 1e200)
    for data in (arr, OrthantSamples(arr[:, :3], (2, 4))):
        with pytest.raises(ArithmeticError, match="to the power 2 overflows"):
            iterated_rearrangement(data, 2.0)


def test_orthant_rearrangement_of_orthants_wider_than_a_tile():
    # orthant extents 129 and 65 leave partial 64-wide tiles at every edge;
    # on the last two grids, 4096 cells per last-axis index, the 129 orthant
    # indices of the last axis span several slabs (64 + 64 + 1 at 2**18 cells)
    rng = np.random.default_rng(21)
    assert norms._SLAB_CELLS // 4096 < 129
    for shape in ((256, 128), (128, 4, 256), (4096, 256), (64, 64, 256)):
        values = rng.integers(-3, 4, size=tuple(n // 2 + 1 for n in shape)) / 4.0
        axis0_last = np.moveaxis(np.ascontiguousarray(np.moveaxis(values, 0, -1)), -1, 0)
        for layout in (values, np.asfortranarray(values), axis0_last):
            orthant = OrthantSamples(layout, shape)
            want = iterated_rearrangement(orthant.to_grid())
            assert iterated_rearrangement(orthant).to_grid().tobytes() == want.tobytes()


# lanes along axis 0 of an 8 x 8 grid's orthant, one per column: lo == hi;
# endpoints tied with interior values; the leftmost lo at 0 and the leftmost
# hi at h - 1; both inside the lane; signed zeros only
DESIGNED_HEAD_LANES = np.array([
    [2.0, 1.0, 3.0, 0.5, 2.0],
    [1.5, 1.5, 3.0, 1.5, 0.5],
    [9.0, 1.0, 2.0, 3.0, 0.25],
    [2.0, 1.0, 3.0, 0.5, 2.5],
    [0.0, -0.0, 0.0, 0.0, -0.0],
]).T


@pytest.mark.parametrize("power", [1.0, 3.0])
def test_head_lanes_at_half_width_match_flip_sort_bit_for_bit(power):
    # the designed lanes, N_0 = 2, and three axes with both heads at half
    # width; held in C order (strided lanes) and in Fortran order, and drawn
    # slab by slab, in slabs of every width; the held samples are left as
    # they were
    cases = [
        DESIGNED_HEAD_LANES,
        np.array([[1.5, 0.0, 2.0], [1.5, 3.0, -0.0]]),
        np.random.default_rng(33).integers(0, 4, size=(5, 3, 3)) / 2.0,
    ]
    for values in cases:
        shape = tuple(2 * (k - 1) for k in values.shape)
        want = flip_sort_powers(OrthantSamples(values, shape).to_grid().values, power)
        for layout in (np.ascontiguousarray(values), np.asfortranarray(values)):
            before = layout.copy()
            orthant = OrthantSamples(layout, shape)
            for cells in slab_cells(shape, values.shape[-1]):
                with mock.patch.object(norms, "_SLAB_CELLS", cells):
                    for source in (orthant, streamed(orthant)):
                        got = iterated_rearrangement(source, power).to_grid()
                        assert got.tobytes() == want.tobytes()
            assert layout.tobytes() == before.tobytes()


@given(half_width_orthants(), powers)
@settings(deadline=None)
def test_half_width_head_axes_match_flip_sort_bit_for_bit(orthant, power):
    want = flip_sort_powers(orthant.to_grid().values, power)
    for cells in slab_cells(orthant.shape, orthant.shape[-1] // 2 + 1):
        with mock.patch.object(norms, "_SLAB_CELLS", cells):
            for source in (orthant, streamed(orthant)):
                got = iterated_rearrangement(source, power).to_grid()
                assert got.tobytes() == want.tobytes()


def test_streamed_product_orthant_at_half_width_matches_flip_sort_bit_for_bit():
    # a product's orthant, drawn from its axis factors slab by slab
    for shape in ((16, 8), (8, 4, 8)):
        f = dirichlet_block((2, 1, 2)[: len(shape)])
        want = flip_sort_powers(synthesize(f, GridSpec(shape)).values, 3.0)
        for cells in slab_cells(shape, shape[-1] // 2 + 1):
            with mock.patch.object(norms, "_SLAB_CELLS", cells):
                stream = spectral._block_samples(f.blocks, shape, {})
                assert isinstance(stream, OrthantSlabs)
                got = iterated_rearrangement(stream, 3.0).to_grid()
                assert got.tobytes() == want.tobytes()


def sorted_widths(fn):
    """fn() and the set of lane widths, shape[-1], of every ndarray it sorts
    with ndarray.sort (np.sort included)."""
    widths = set()

    def record(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", "") == "sort":
            target = getattr(arg, "__self__", None)
            if isinstance(target, np.ndarray):
                widths.add(target.shape[-1])

    sys.setprofile(record)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, widths


def test_orthant_head_axes_sort_their_lanes_at_half_width():
    # a head axis of any N_a sorts an orthant's lanes at N_a/2 + 1 values.
    # Besides, the rows along the last axis keep their N/2 + 1 values, and
    # the walk sorts the two endpoints of each lane or row
    rng = np.random.default_rng(34)
    for shape in ((8, 8), (64, 8), (256, 8), (512, 8), (256, 64, 4),
                  (512, 8, 4), (64, 512, 4)):
        values = rng.integers(0, 5, size=tuple(n // 2 + 1 for n in shape)) / 4.0
        orthant = OrthantSamples(values, shape)
        got, widths = sorted_widths(lambda: iterated_rearrangement(orthant, 3.0))
        assert widths == {n // 2 + 1 for n in shape} | {2}
        want = iterated_rearrangement(orthant.to_grid(), 3.0)
        assert got.to_grid().tobytes() == want.tobytes()


def test_orthant_samples_mirror_each_interior_index():
    assert OrthantSamples(np.array([1.0, 2.0]), (2,)).to_grid().values.tolist() == [1.0, 2.0]
    full = OrthantSamples(np.arange(6.0).reshape(3, 2), (4, 2)).to_grid().values
    assert full.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [2.0, 3.0]]
    with pytest.raises(ValueError):
        OrthantSamples(np.zeros(4), (4,))  # a grid of 4 has an orthant of 3
    with pytest.raises(ValueError):
        OrthantSamples(np.zeros(3), (6,))


def test_gauss_legendre_literals_are_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert norms._GAUSS_NODES.tobytes() == nodes.tobytes()
    assert norms._GAUSS_WEIGHTS.tobytes() == weights.tobytes()


def test_importing_the_cli_does_not_load_numpy_polynomial():
    root = Path(__file__).resolve().parents[1]
    code = "import sys, lzcross.cli; print('numpy.polynomial' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_sample_holders_compare_and_hash_by_identity():
    # each holds an ndarray, which has no one truth value: == is identity
    values = np.arange(9.0).reshape(3, 3)
    orthant = OrthantSamples(values, (4, 4))
    holders = [
        (GridFunction(np.ones((4, 4))), GridFunction(np.ones((4, 4)))),
        (orthant, OrthantSamples(values.copy(), (4, 4))),
        (iterated_rearrangement(orthant, 2.0), iterated_rearrangement(orthant, 2.0)),
    ]
    assert isinstance(holders[2][0], HalfProfile)
    for a, b in holders:
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) != hash(b)
        assert a in {a} and b not in {a} and len({a, b, a}) == 2


def test_cell_weights_total_mass():
    # alpha = 0, p = tau: the weight is identically 1, each cell has mass 1/N
    w = cell_weights(64, ScalarSpaceParams(2, 0.0, 2.0))
    assert np.allclose(w, 1.0 / 64, rtol=1e-13)
    assert abs(float(w.sum()) - 1.0) < 1e-13


def test_cell_weights_logarithmic_mass():
    # integral of (1 - log2 t)^2 dt over (0,1] equals 1 + 2/ln2 + 2/ln2^2
    w = cell_weights(1024, ScalarSpaceParams(2, 1.0, 2.0))
    a = math.log(2.0)
    want = 1.0 + 2.0 / a + 2.0 / a**2
    assert abs(float(w.sum()) - want) < 1e-12 * want


def test_cell_weights_square_root_mass():
    # tau/p = 1/2: integral of t^(-1/2) is 2; tau = 1 is reachable only here
    w = _cell_weights(256, 2.0, 0.0, 1.0)
    assert abs(float(w.sum()) - 2.0) < 1e-12


def test_cell_weights_match_the_closed_form_cell_by_cell():
    # alpha = 0: W_i = N^-d ((i+1)^d - i^d) / d with d = tau/p, taken for
    # i >= 1 as i^d expm1(d log1p(1/i)) N^-d / d, which does not cancel; the
    # first cell is N^-d / d
    for n_cells in (2, 64, 1024, 1 << 17):
        for p, tau in ((1.25, 1.1), (1.5, 1.5), (2.0, 3.0), (3.0, 2.0), (6.0, 7.0)):
            d = tau / p
            i = np.arange(1, n_cells, dtype=np.float64)
            want = np.r_[1.0, i**d * np.expm1(d * np.log1p(1.0 / i))] * n_cells**-d / d
            np.testing.assert_allclose(
                _cell_weights(n_cells, p, 0.0, tau), want, rtol=1e-13, atol=0
            )


def test_cell_weights_slow_tail_first_cell():
    # p=1000, alpha=4, tau=1.25: the first-cell tail outlasts 20,000 unit
    # windows.  In v = 1 + u the first weight is
    # ln2 e^lam lam^-(a+1) Gamma(a+1, lam (1+u0)) with lam = (tau/p) ln2,
    # a = alpha tau = 5 and u0 = log2 N; for integer a,
    # Gamma(6, x) = 120 e^-x sum_{k<=5} x^k / k!.
    p, alpha, tau, n_cells = 1000.0, 4.0, 1.25, 2
    lam = tau / p * math.log(2.0)
    x = lam * (1.0 + math.log2(n_cells))
    gamma6 = 120.0 * math.exp(-x) * math.fsum(
        x**k / math.factorial(k) for k in range(6)
    )
    want = math.log(2.0) * math.exp(lam) * lam**-6 * gamma6
    got = float(_cell_weights(n_cells, p, alpha, tau)[0])
    assert abs(got - want) < 1e-12 * want


def test_cell_weights_unconverged_tail_raises():
    # tau/p = 2e-30: the weight 2^(-u tau/p) does not decay within any window
    with pytest.raises(ArithmeticError):
        _cell_weights(2, 1e30, 0.0, 2.0)
    # (1+u)^(alpha tau) overflows to infinity
    with pytest.raises(ArithmeticError), np.errstate(over="ignore"):
        _cell_weights(2, 2.0, 400.0, 2.0)


def test_scalar_norm_of_constant_one():
    for p in (2.0, 1.5, 3.0):
        params = MixedSpaceParams.of([p], [0.0], [p])
        v = np.ones(16)
        assert abs(anisotropic_norm(GridFunction(v), params) - 1.0) < 1e-12


def test_scalar_norm_indicator_formula():
    n = 1024
    for p, tau in ((2.0, 2.0), (1.5, 3.0)):
        params = MixedSpaceParams.of([p], [0.0], [tau])
        for k in range(1, 7):
            a = 2.0**-k
            v = np.zeros(n)
            v[: int(a * n)] = 1.0
            want = (p / tau) ** (1.0 / tau) * a ** (1.0 / p)
            assert abs(anisotropic_norm(GridFunction(v), params) - want) < 1e-8 * want


def test_scalar_norm_rejects_bad_profiles():
    params = ScalarSpaceParams(2, 0.0, 2.0)
    with pytest.raises(ValueError):
        anisotropic_norm(GridFunction(np.ones((4, 4))), MixedSpaceParams((params,)))
    with pytest.raises(ValueError):
        cell_weights(12, params)
    for space in (MixedSpaceParams((params,)), MixedSpaceParams.of([2], [0.5], [2.0])):
        with pytest.raises(ValueError, match="powers of two"):
            anisotropic_norm(np.ones(12), space)


def reference_profile_norm(grid: np.ndarray, params: MixedSpaceParams) -> float:
    """The mixed norm as the magnitude profile measured axis by axis: each
    axis's tau_j-th powers taken on batches of 256 columns of a C-contiguous
    array, summed against cell_weights, rooted on 0-d arrays."""
    g = np.ascontiguousarray(flip_sort_rearrangement(grid))
    for ax in params.axes:
        w = cell_weights(g.shape[0], ax)
        if g.ndim == 1:
            sums = np.tensordot(g**ax.tau, w, axes=(0, 0))
        else:
            cols = g.reshape(g.shape[0], -1)
            sums = np.empty(cols.shape[1])
            for j in range(0, cols.shape[1], 256):
                batch = cols[:, j : j + 256] ** ax.tau
                sums[j : j + 256] = np.tensordot(batch, w, axes=(0, 0))
            sums = sums.reshape(g.shape[1:])
        g = sums ** (1.0 / ax.tau)
    return float(g)


def test_profile_norm_takes_powers_of_a_contiguous_profile():
    # a reversed view would take numpy's strided power loop, which can differ
    # from the vectorized one in the last bit and move the block norms; the
    # walk takes the power on the contiguous magnitudes of each slab, so a
    # reversed input measures as its contiguous copy.  Only spaces other
    # than plain L_p sort, so this one has alpha != 0
    block = dirichlet_block((6,))  # on 256 points the two loops differ here
    mag = np.abs(synthesize(block, GridSpec((256,))).values)
    params = MixedSpaceParams.of(["3"], [0.5], [1.5])
    want = reference_profile_norm(mag, params)
    assert profile_norm(iterated_rearrangement(mag[::-1], 1.5), params) == want
    assert anisotropic_norm(mag[::-1], params) == want


@st.composite
def hex_oracle_cases(draw):
    """A grid of m <= 3 axes in one of five layouts, and a space of alpha != 0."""
    exps = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3).filter(
        lambda ks: sum(ks) <= 13))
    shape = tuple(1 << k for k in exps)
    layout = draw(st.sampled_from(["C", "F", "reversed", "complex", "orthant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "orthant":
        values = rng.standard_normal(tuple(n // 2 + 1 for n in shape))
        data = OrthantSamples(np.asfortranarray(values), shape)
        grid = data.to_grid().values
    else:
        grid = rng.standard_normal(shape)
        if layout == "complex":
            grid = grid + 1j * rng.standard_normal(shape)
        data = {
            "F": np.asfortranarray(grid),
            "reversed": grid[(slice(None, None, -1),) * len(shape)],
        }.get(layout, grid)
    m = len(shape)
    taus = [draw(st.sampled_from([1.25, 1.5, 2.0, 3.0, 4.5, 7.0])) for _ in range(m)]
    alphas = [draw(st.sampled_from([0.5, -0.25, 1.0])) for _ in range(m)]
    ps = [draw(st.sampled_from(["3/2", "2", "3"])) for _ in range(m)]
    return data, grid, MixedSpaceParams.of(ps, alphas, taus)


@given(hex_oracle_cases())
@settings(deadline=None)
def test_anisotropic_norm_matches_the_profile_formula_to_the_last_bit(case):
    # the first power is taken in the walk, on each slab's magnitudes, and
    # the first axis is a weighted sum of the rearranged powers; the norm
    # keeps every bit of the formula that powers the sorted profile
    data, grid, params = case
    want = reference_profile_norm(grid, params)
    assert anisotropic_norm(data, params).hex() == want.hex()


def test_anisotropic_norm_constant_one():
    params = MixedSpaceParams.of([2, 1.5], [0.0, 0.0], [2.0, 1.5])
    g = GridFunction(np.ones((8, 16)))
    assert abs(anisotropic_norm(g, params) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        anisotropic_norm(g, MixedSpaceParams.of([2] * 3, [0.0] * 3, [2.0] * 3))


def test_anisotropic_norm_plain_l2_is_rms():
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rms = float(np.sqrt(np.mean(np.abs(vals) ** 2)))
    got = anisotropic_norm(GridFunction(vals), MixedSpaceParams.of([2, 2], [0.0] * 2, [2.0] * 2))
    assert abs(got - rms) < 1e-10 * rms


def test_anisotropic_norm_homogeneous():
    rng = np.random.default_rng(12)
    vals = rng.standard_normal((4, 8))
    params = MixedSpaceParams.of([2, 1.5], [1.0, -0.5], [2.0, 3.0])
    base = anisotropic_norm(GridFunction(vals), params)
    for c in (3.0, -2.0, 1.5j):
        scaled = anisotropic_norm(GridFunction(c * vals), params)
        assert abs(scaled - abs(c) * base) < 1e-12 * base


def test_anisotropic_norm_monotone_in_magnitude():
    rng = np.random.default_rng(13)
    params = MixedSpaceParams.of([2, 1.5], [0.5, 0.0], [2.0, 2.0])
    for _ in range(5):
        f = rng.random((8, 4))
        g = f + rng.random((8, 4))
        assert anisotropic_norm(GridFunction(f), params) <= anisotropic_norm(
            GridFunction(g), params
        ) + 1e-15


def test_norm_of_synthesized_grid_holds_three_grids_at_most():
    params = MixedSpaceParams.of(["3/2", "3"], [0.5, -0.25], [2.0, 1.5])
    f = dirichlet_block((8, 8))
    anisotropic_norm(synthesize(f, (1024, 1024)), params)  # fills the weight cache
    grid_bytes = 1024 * 1024 * 8  # one float64 grid
    tracemalloc.start()
    try:
        anisotropic_norm(synthesize(f, (1024, 1024)), params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * grid_bytes


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_orthant_rearrangement_holds_its_output_grid_and_one_slab():
    # the walk sorts one slab of the last axis at a time and writes it into
    # the output grid, half a grid wide along the last axis, so besides that
    # it holds one slab of magnitudes (half a slab of orthant cells, raised
    # to its power in place) and one sorted slab; no N-wide grid.  The norm
    # sums that half grid's first axis one batch of 256 columns at a time,
    # two slabs here, with a few vectors of one index per row
    n = 2048
    values = np.asfortranarray(np.random.default_rng(22).standard_normal((n // 2 + 1,) * 2))
    orthant = OrthantSamples(values, (n, n))
    half_grid, slab_bytes = n * (n // 2 + 1) * 8, norms._SLAB_CELLS * 8
    assert n * n >= 16 * norms._SLAB_CELLS  # the walk takes many slabs
    assert n * norms._COLUMNS * 8 <= 2 * slab_bytes
    for power in (1.0, 3.0):
        peak = traced_peak(lambda: iterated_rearrangement(orthant, power))
        assert peak <= half_grid + 2 * slab_bytes
    lz = MixedSpaceParams.of(["3/2", "3"], [0.5, -0.25], [3.0, 1.5])
    for ax in lz.axes:  # fills the weight cache
        cell_weights(n, ax)
    vectors = 16 * n * 8
    assert traced_peak(lambda: anisotropic_norm(orthant, lz)) <= half_grid + 2 * slab_bytes + vectors


def test_lorentz_zygmund_grid_norm_of_a_product_holds_no_orthant():
    # a product f's orthant is drawn slab by slab, each one batch of rows
    # times G_0^T (255 rows here, fewer than spectral._ROWS): grid_norm
    # holds the half grid of the walk, one sorted slab, the magnitudes of
    # one slab of the orthant, one batch and the factor matrices, less than
    # the half grid and the orthant; the half-width profile is summed in
    # batches of two slabs
    n = 2048
    f = dirichlet_block((8, 8))
    assert f.sign_symmetric and spectral._products(f.blocks)  # tested untraced
    assert len(f.blocks) == 1
    grid = GridSpec((n, n))
    lz = MixedSpaceParams.of(["3/2", "3"], [0.5, -0.25], [3.0, 1.5])
    assert spectral.grid_route(f, grid, lz) == "orthant"
    grid_norm(f, grid, lz)  # fills the weight cache
    half_grid, slab_bytes = n * (n // 2 + 1) * 8, norms._SLAB_CELLS * 8
    magnitudes = (n // 2 + 1) * (norms._SLAB_CELLS // n) * 8
    orthant, factors = (n // 2 + 1) ** 2 * 8, 2 * (n // 2 + 1) * 8
    batch = spectral._ROWS * (n // 2 + 1) * 8
    bound = half_grid + slab_bytes + magnitudes + batch + factors + 64 * 1024
    assert bound < half_grid + orthant
    assert traced_peak(lambda: grid_norm(f, grid, lz)) <= bound


def test_grid_norm_holds_three_grids_on_every_call():
    # each call synthesizes, rearranges and measures the polynomial afresh
    params = MixedSpaceParams.of(["3/2", "3"], [0.5, -0.25], [2.0, 1.5])
    f = dirichlet_block((8, 8))
    grid = GridSpec((1024, 1024))
    grid_norm(f, grid, params)  # fills the weight cache
    grid_bytes = 1024 * 1024 * 8  # one float64 grid
    for g in (f, f, f.scaled(2.0)):
        assert traced_peak(lambda: grid_norm(g, grid, params)) <= 3.0 * grid_bytes


def test_profile_and_orthant_norms_take_their_powers_one_batch_of_columns_at_a_time():
    # neither the profile nor the orthant samples are raised to a power as a
    # whole: a norm of either holds one batch of full-height columns and a
    # few vectors of one grid row; the half-width profile gathers its
    # batches of E and O columns one at a time
    lz = MixedSpaceParams.of(["3/2", "3"], [0.5, -0.25], [2.0, 1.5])
    leb = MixedSpaceParams.of(["3/2"] * 2, [0.0] * 2, [1.5] * 2)
    f = dirichlet_block((8, 8))
    grid = GridSpec((1024, 1024))
    grid_norm(f, grid, lz)  # fills the weight cache
    prof = iterated_rearrangement(
        spectral._block_samples(f.blocks, grid.shape, {}), lz.axes[0].tau
    )
    assert isinstance(prof, HalfProfile)
    (orthant,) = spectral._block_samples(f.blocks, grid.shape, {}).slabs(513)
    samples = OrthantSamples(orthant, grid.shape)
    batch = 1024 * norms._COLUMNS * 8
    bound = batch + 128 * 1024
    assert traced_peak(lambda: profile_norm(prof, lz)) <= bound
    assert traced_peak(lambda: anisotropic_norm(samples, leb)) <= bound
    assert bound < 0.6 * 1024 * 1024 * 8  # the bound of a whole power is 1.5 grids


def test_lebesgue_grid_norm_does_not_depend_on_the_spaces_asked_before():
    leb = MixedSpaceParams.of(["3/2"] * 2, [0.0] * 2, [1.5] * 2)
    lz = MixedSpaceParams.of(["2"] * 2, [0.5] * 2, [3.0] * 2)
    grid = GridSpec((64, 32))
    general = SpectralFunction(2, {(3, -2): 1 + 0.5j, (-5, 7): 0.25, (1, 1): -1.0})
    for f in (dirichlet_block((4, 3)), general):
        first = grid_norm(f, grid, leb)
        grid_norm(f, grid, lz)
        assert grid_norm(f, grid, leb).hex() == first.hex()


def test_threads_measuring_one_polynomial_get_the_values_of_fresh_samples():
    # threads share f and its cached symmetry tests, and each call measures
    # samples of its own
    f = SpectralFunction(2, {(3, -2): 1 + 0.5j, (-5, 7): 0.25, (1, 1): -1.0})
    grids = [GridSpec((32, 32)), GridSpec((64, 16))]
    spaces = [MixedSpaceParams.of(["3/2"] * 2, [0.0] * 2, [1.5] * 2),
              MixedSpaceParams.of(["2", "3"], [0.5, -0.25], [3.0, 1.5])]
    want = {(g, q): anisotropic_norm(synthesize(f, grids[g]), spaces[q]).hex()
            for g in range(2) for q in range(2)}
    jobs = [(i // 2 % 2, i % 2) for i in range(400)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(grid_norm, f, grids[g], spaces[q]) for g, q in jobs]
            got = [fut.result(timeout=60).hex() for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want[job] for job in jobs]


def test_grid_norm_miss_on_a_symmetric_polynomial_holds_two_grids():
    # the orthant path never samples the full grid: the profile and its
    # powers are two grids, next to the reduced rows
    params = MixedSpaceParams.of(["3/2", "3"], [0.5, -0.25], [2.0, 1.5])
    f = dirichlet_block((8, 8))
    assert f.sign_symmetric
    grid = GridSpec((1024, 1024))
    grid_norm(f, grid, params)  # fills the weight cache
    other = f.scaled(2.0)
    grid_bytes = 1024 * 1024 * 8
    peak = traced_peak(lambda: grid_norm(other, grid, params))
    assert peak <= 2.0 * grid_bytes + 64 * 1024
    # the orthant drawn as one slab keeps its own 513 x 513 samples, not
    # the batches of rows it was joined from
    tracemalloc.start()
    try:
        (orthant,) = spectral._block_samples(other.blocks, grid.shape, {}).slabs(513)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert orthant.shape == (513, 513)
    assert kept <= 513 * 513 * 8 + 64 * 1024


def test_symmetric_polynomial_off_the_product_form_frees_its_complex_grid():
    # a ragged block puts f off the product form, so its orthant is cut from
    # one complex grid; that grid is freed before the orthant is rearranged,
    # so neither the synthesis nor the norm holds more than the two
    block = {(k0, k1): 1.0 for k0 in (-3, -2, 2, 3) for k1 in (-3, -2, 2, 3)}
    ragged = {**block, **{(k0, k1): 2.0 for k0 in (-3, 3) for k1 in (-3, 3)}}
    params = MixedSpaceParams.of(["3/2", "3"], [0.5, -0.25], [2.0, 1.5])
    grid = GridSpec((1024, 1024))
    f = SpectralFunction(2, ragged)
    assert f.sign_symmetric and not spectral._products(f.blocks)
    grid_norm(f, grid, params)  # fills the weight cache
    bound = 1024 * 1024 * 16 + 513 * 513 * 8 + 64 * 1024  # complex grid, orthant
    g = f.scaled(2.0)  # fresh, so its block list and symmetry test are traced too
    assert traced_peak(lambda: spectral._block_samples(g.blocks, grid.shape, {})) <= bound
    g = f.scaled(2.0)
    assert traced_peak(lambda: grid_norm(g, grid, params)) <= bound


def test_product_route_builds_no_grid():
    # the product test copies the 65,536 rows of the block once; neither
    # the 1024^2 grid nor its orthant is sampled, and no measurement moves
    # the route
    leb = MixedSpaceParams.of(["3/2"] * 2, [0.0] * 2, [1.5] * 2)
    lz = MixedSpaceParams.of(["3/2", "3"], [0.5, -0.25], [2.0, 1.5])
    grid = GridSpec((1024, 1024))
    f, g = dirichlet_block((8, 8)), dirichlet_block((8, 8))
    assert spectral.grid_route(g, grid, leb) == "product"
    assert traced_peak(lambda: grid_norm(f, grid, leb)) < 1024 * 1024 * 8
    for space in (lz, leb):
        grid_norm(g, grid, space)
        assert spectral.grid_route(g, grid, leb) == "product"
        assert spectral.grid_route(g, grid, lz) == "orthant"


def test_three_axis_product_route_holds_less_than_one_orthant():
    # the route walks the 65 x 65 orthant rows of the first two axes in
    # batches, so neither the 128^3 grid nor its 65^3 orthant is sampled
    leb = MixedSpaceParams.of(["3/2"] * 3, [0.0] * 3, [1.5] * 3)
    grid = GridSpec((128, 128, 128))
    f = dirichlet_block((4, 4, 4))
    assert spectral.grid_route(f, grid, leb) == "product"
    f = dirichlet_block((4, 4, 4))  # fresh, so its block tests are traced too
    assert traced_peak(lambda: grid_norm(f, grid, leb)) < 65**3 * 8


def symmetric_axis_set(rng, n):
    """A random axis set K = -K of frequencies below n / 2; {0} if none."""
    half = np.flatnonzero(rng.random(n // 2) < 0.5)
    return np.union1d(-half, half) if half.size else np.zeros(1, dtype=np.int64)


def run_on_one_blas_thread(call: str) -> None:
    """Run call, a function of this module called by name, in a fresh
    interpreter whose BLAS uses one thread, as byte-for-byte reruns do: a
    threaded OpenBLAS splits a product's rows among its threads at counts
    that need not be multiples of 4, which moves row sums in the last bits."""
    root = Path(__file__).resolve().parents[1]
    env = {
        **os.environ,
        **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"),
        "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")]),
    }
    code = f"import test_norms; test_norms.{call}()"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr


def check_product_norm_of_sliced_batches() -> None:
    rng = np.random.default_rng(37)
    shapes = [
        (64,), (1024, 64), (2, 512, 64), (4, 512, 64), (4, 256, 16), (64, 512, 16),
        (2, 2, 16, 64),
    ]
    for shape in shapes:
        pieces = [
            (complex(rng.standard_normal()), [symmetric_axis_set(rng, n) for n in shape])
            for _ in range(3)
        ]
        for p in (1.5, 3.0):
            sliced = spectral._product_norm(pieces, shape, p, {})
            with mock.patch.object(spectral, "_SUB_ROWS", spectral._ROWS):
                whole = spectral._product_norm(pieces, shape, p, {})
            assert sliced.hex() == whole.hex(), (shape, p)


def test_product_norm_keeps_its_bits_when_batches_are_sampled_in_slices():
    # a batch of orthant rows is sampled _SUB_ROWS rows at a time: the value
    # is the one of whole batches, for m = 1, 2 and 3 (and 4), with last
    # batches of 1 row (of 513), 2 (514), 3 (771), 131 and 33 (of 387 and
    # 8481, each sampled whole) and 36 (of 36: a slice of 32 and one of 4)
    run_on_one_blas_thread("check_product_norm_of_sliced_batches")


def check_row_sums_at_every_length() -> None:
    rng = np.random.default_rng(38)
    n = 4096
    heads, last = rng.standard_normal((spectral._ROWS, 5)), rng.standard_normal((n // 2 + 1, 5))
    w_last = norms._orthant_weights(n)
    buf = np.empty((spectral._SUB_ROWS, n // 2 + 1))
    for size in range(1, spectral._ROWS + 1):
        rows = heads[:size]
        whole = np.power(np.abs(rows @ last.T), 1.5) @ w_last
        assert spectral._row_sums(rows, last, 1.5, w_last, buf).tobytes() == whole.tobytes()


def test_row_sums_match_the_whole_batch_at_every_length():
    # every batch length from 1 to _ROWS, on one random factor pair: the
    # row sums taken in slices have the bytes of the whole batch's
    run_on_one_blas_thread("check_row_sums_at_every_length")


def test_product_norm_holds_one_slice_of_a_batch():
    # on a 4096^2 grid a batch of 256 orthant rows is 4.2 MB; the sum holds
    # one slice of _SUB_ROWS rows (0.5 MB), the two factor matrices and the
    # table of axis factors
    n = 4096
    pieces = [(1 + 0j, [axis_block(a), axis_block(b)]) for a, b in ((3, 9), (9, 3), (6, 6))]
    spectral._product_norm(pieces, (n, n), 1.5, {})  # fills the weight cache
    h = n // 2 + 1
    batch, sliced = spectral._ROWS * h * 8, spectral._SUB_ROWS * h * 8
    bound = sliced + 4 * len(pieces) * h * 8 + 64 * 1024
    assert bound < batch / 4
    assert traced_peak(lambda: spectral._product_norm(pieces, (n, n), 1.5, {})) <= bound


def test_synthesize_of_a_product_holds_its_grid_and_one_orthant():
    # a product f's orthant is drawn from its axis factors as one slab and
    # mirrored, in two and in three variables: the float64 grid next to one
    # orthant, below the grid and two orthants (the rows joined into the
    # slab are let go before the grid is made)
    for f, grid in ((dirichlet_block((8, 8)), GridSpec((1024, 1024))),
                    (dirichlet_block((5, 6, 5)), GridSpec((128, 256, 128)))):
        assert f.sign_symmetric and spectral._products(f.blocks)  # tested untraced
        assert len(f.blocks) == 1
        orthant = math.prod(n // 2 + 1 for n in grid.shape) * 8
        peak = traced_peak(lambda: synthesize(f, grid))
        assert peak <= grid.cells * 8 + orthant + 512 * 1024 < grid.cells * 8 + 2 * orthant


def test_product_grid_norm_is_the_product_of_axis_norms():
    rng = np.random.default_rng(14)
    g = rng.random(8)
    h = rng.random(16)
    params = MixedSpaceParams.of([2, 1.5], [0.0, 1.0], [2.0, 3.0])
    for space in (params, MixedSpaceParams.of(["3/2"] * 2, [0.0] * 2, [1.5] * 2)):
        full = anisotropic_norm(GridFunction(np.outer(g, h)), space)
        split = math.prod(
            anisotropic_norm(GridFunction(v), MixedSpaceParams((ax,)))
            for v, ax in zip((g, h), space.axes)
        )
        assert abs(full - split) < 1e-12 * full


def test_mixed_reduce_values():
    ones = np.ones((2, 3))
    assert mixed_reduce(ones, (1.0, 1.0)) == 6.0
    assert abs(
        mixed_reduce(ones, (2.0, 2.0)) - math.sqrt(6.0)
    ) < 1e-15
    assert mixed_reduce(ones, (math.inf, 1.0)) == 3.0
    assert mixed_reduce(np.zeros((2, 2)), (1.0, 1.0)) == 0.0
    with pytest.raises(ValueError):
        mixed_reduce(-ones, (1.0, 1.0))
    with pytest.raises(ValueError):
        mixed_reduce(ones, (1.0,))


@given(st.floats(min_value=0.25, max_value=4.0), st.integers(min_value=1, max_value=8))
@settings(deadline=None)
def test_mixed_reduce_homogeneous(scale, rows):
    arr = np.arange(rows * 3, dtype=float).reshape(rows, 3)
    spec = (1.5, math.inf)
    assert mixed_reduce(scale * arr, spec) == pytest.approx(
        scale * mixed_reduce(arr, spec), rel=1e-12, abs=1e-300
    )


def test_mixed_sequence_norm_over_support():
    spec = (1.0, 1.0)
    layer = [(0, 2), (1, 1), (2, 0)]
    values = {s: 0.25 for s in layer}
    assert mixed_sequence_norm(values, spec) == pytest.approx(0.75)
    # the support is the map's keys; levels between them count as zero
    assert mixed_sequence_norm({(0, 2): 1.0, (2, 0): 0.5}, spec) == 1.5
    assert mixed_sequence_norm({}, spec) == 0.0
    with pytest.raises(ValueError):
        mixed_sequence_norm({(0, 1): -1.0}, spec)
    with pytest.raises(ValueError):
        mixed_sequence_norm({(0, -1): 1.0}, spec)


def test_mixed_sequence_norm_refuses_a_box_over_the_cell_budget():
    # two levels on the axes span a 5793 x 5793 box, just past the 2**25-cell
    # budget; it is refused before its 268 MB are allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            mixed_sequence_norm({(5792, 0): 1.0, (0, 5792): 1.0}, (1.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "(5793, 5793) needs 33558849 cells" in str(info.value)
    assert str(norms.DEFAULT_MAX_GRID_CELLS) in str(info.value)
    assert peak < 1 << 20


def test_sequence_spec_validation():
    # exponents are a plain sequence: at least one, each positive, inf allowed
    assert mixed_reduce(np.full((2, 2), 2.0), [1.0, math.inf]) == 4.0
    assert mixed_reduce(np.ones((4, 1)), [0.5, 2]) == pytest.approx(16.0)
    assert mixed_sequence_norm({(1,): 2.0}, [math.inf]) == 2.0
    for bad in [(), (0.0,), (-1.0,)]:
        with pytest.raises(ValueError, match="exponent"):
            mixed_reduce(np.ones(2), bad)
        with pytest.raises(ValueError, match="exponent"):
            mixed_sequence_norm({(0,): 1.0}, bad)
        # checked before the early return for an empty input
        with pytest.raises(ValueError, match="exponent"):
            mixed_reduce(np.zeros(0), bad)
        with pytest.raises(ValueError, match="exponent"):
            mixed_sequence_norm({}, bad)
    with pytest.raises(ValueError, match="arity"):
        mixed_sequence_norm({(0, 1): 1.0}, (1.0,))


def test_grid_function_shape_and_json():
    with pytest.raises(ValueError):
        GridFunction(np.ones(3))
    rng = np.random.default_rng(15)
    vals = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    doc = GridFunction(vals).to_json_dict()
    back = GridFunction.from_json_dict(doc)
    assert np.allclose(back.values, vals, rtol=0, atol=0)
    real_only = GridFunction.from_json_dict(
        {"m": 1, "shape": [4], "re": [1, 2, 3, 4]}
    )
    assert np.array_equal(real_only.values.imag, np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction.from_json_dict({"m": 2, "shape": [4], "re": [0] * 4})
