"""Lemma-style sums against closed references, ratio scans, rate fits."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lzcross import asymptotics
from lzcross.asymptotics import (
    RatioReport,
    lemma1_interior_sum,
    lemma1_reference,
    lemma1_sum,
    lemma2_reference,
    lemma2_sum,
    lemma3_lhs,
    lemma3_reference,
    lemma4_lhs,
    lemma4_reference,
    rate_fit,
    ratio_scan,
)
from lzcross.indexsets import Anisotropy, as_fraction, cross_membership, layer_exact
from lzcross.norms import mixed_reduce, mixed_sequence_norm


def test_lemma1_sum_values():
    assert lemma1_sum(2, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert lemma1_sum(1, 0.7, -2.3) == 1.0
    assert lemma1_sum(4, 0.0, 0.0) == 4.0
    with pytest.raises(ValueError):
        lemma1_sum(0, 1.0, 1.0)


def test_lemma1_interior_sum_value():
    want = 1.0 * 3.0**-0.5 + 0.5 * 2.0**-0.5 + (1.0 / 3.0)
    assert lemma1_interior_sum(4, 0.5) == pytest.approx(want, rel=1e-15)


def test_lemma1_reference_cases():
    assert lemma1_reference(3, 0.25, 0.25) == pytest.approx(2.0, rel=1e-15)
    assert lemma1_reference(1, 1.0, 1.0) == pytest.approx(math.log(2.0))
    assert lemma1_reference(4, 1.0, 0.5) == pytest.approx(0.5 * math.log(5.0))
    with pytest.raises(ValueError):
        lemma1_reference(4, 2.0, 0.5)


def test_lemma1_reindex_symmetry():
    # the summand multiset is invariant under s -> l-1-s with swapped exponents
    for l in (1, 2, 3, 17, 256):
        for alpha, beta in ((0.25, 0.75), (1.0, 0.3), (-0.5, 1.2)):
            direct = lemma1_sum(l, alpha, beta)
            swapped = math.fsum(
                (l - s) ** (-alpha) * (s + 1.0) ** (-beta) for s in range(l)
            )
            assert abs(direct - swapped) <= 1e-12 * abs(direct)


def test_lemma2_sum_values():
    assert lemma2_sum(0, 1.0, 1.0, 3.0, -2.0, "decay") == 1.0
    assert lemma2_sum(1, 1.0, 1.0, 0.0, 0.0, "decay") == pytest.approx(1.5)
    assert lemma2_sum(1, 1.0, 1.0, 0.0, 0.0, "growth") == pytest.approx(3.0)
    with pytest.raises(ValueError):
        lemma2_sum(2, 1.0, 1.0, 0.0, 0.0, "sideways")
    with pytest.raises(ValueError):
        lemma2_sum(2, -1.0, 1.0, 0.0, 0.0, "decay")
    with pytest.raises(ValueError):
        lemma2_sum(2, 1.0, math.inf, 0.0, 0.0, "decay")


def test_lemma2_reference_values():
    assert lemma2_reference(7, 1.0, 2.0, -0.5, 0.0, "decay") == pytest.approx(0.125)
    assert lemma2_reference(3, 1.0, 1.0, 0.0, 0.0, "growth") == pytest.approx(8.0)
    assert lemma2_reference(0, 1.0, 1.0, 1.0, 1.0, "decay") == 1.0


def test_lemma3_single_axis_closed_forms():
    g = Anisotropy.of([1])
    sup = lemma3_lhs(5, g, g, [0.0], [math.inf], 1.0)
    assert sup == pytest.approx(2.0**-5, rel=1e-12)
    series = lemma3_lhs(5, g, g, [0.0], [1.0], 1.0)
    assert series == pytest.approx(2.0**-5 / (1.0 - 0.5), rel=1e-12)


def test_lemma3_two_axis_analytic_value():
    # gamma = gamma' = (1,1), lambda = 0, theta = (2,2), alpha = 1: the squared
    # norm is a weighted geometric series over diagonals t = s1+s2 >= n with
    # t+1 lattice points each, so sum_{t>=n} (t+1) x^t at x = 1/4 applies
    g = Anisotropy.of([1, 1])
    n, x = 8, 0.25
    want = math.sqrt(x**n * (n + 1 - n * x)) / (1.0 - x)
    got = lemma3_lhs(n, g, g, [0.0, 0.0], [2.0, 2.0], 1.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_lemma3_sup_norm_is_boundary_max():
    g = Anisotropy.of([1, "1/2"])
    gp = Anisotropy.of([1, "1/2"])
    n = 6
    got = lemma3_lhs(n, g, gp, [0.3, -0.2], [math.inf, math.inf], 0.8)
    best = 0.0
    for s1 in range(60):
        for s2 in range(120):
            if s1 + 0.5 * s2 >= n:
                val = (
                    2.0 ** (-0.8 * (s1 + 0.5 * s2))
                    * (s1 + 1.0) ** 0.3
                    * (s2 + 1.0) ** -0.2
                )
                best = max(best, val)
    assert got == pytest.approx(best, rel=1e-9)


def test_lemma3_validation():
    g = Anisotropy.of([1, 1])
    with pytest.raises(ValueError):
        lemma3_lhs(4, g, Anisotropy.of([1]), [0.0, 0.0], [2.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        lemma3_lhs(4, g, g, [0.0, 0.0], [2.0, 2.0], 0.0)


def test_lemma3_mask_is_exact_for_large_weights():
    # the integer weights of gamma' are about 1e18, so box level sums pass
    # 2**63; membership must still be exact.  Oracle: Fraction membership,
    # theta = (2, 2) makes the norm the root of a plain sum of squares
    g = Anisotropy.of([1, 1])
    gp = Anisotropy.of(["999999937/1000000007", "999999929/1000000009"])
    got = lemma3_lhs(4, g, gp, [0.0, 0.0], [2.0, 2.0], 1.0)
    w1, w2 = gp.weights
    want = math.sqrt(
        math.fsum(
            4.0 ** -(s1 + s2)
            for s1 in range(80)
            for s2 in range(80)
            if s1 * w1 + s2 * w2 >= 4
        )
    )
    assert got == pytest.approx(want, rel=1e-13)


def test_lemma3_first_box_is_checked_per_axis():
    # gamma = gamma' = 1/5000 puts the set at s >= 5000 on one axis, past a
    # 4096-level box; the series from there sums to 2^-2 / (1 - 2^(-2/5000))
    # at theta = 2, over about 155,000 terms
    g = Anisotropy.of(["1/5000"])
    want = math.sqrt(0.25 / (1.0 - 2.0 ** (-1 / 2500)))
    assert lemma3_lhs(1, g, g, [0.0], [2.0], 1.0) == pytest.approx(want, rel=1e-12)


def test_lemma3_reference_values():
    g = Anisotropy.of([1])
    assert lemma3_reference(4, g, g, [0.25], [2.0], 1.0) == pytest.approx(
        2.0**-4 * 4.0**0.25
    )
    g2 = Anisotropy.of([1, 1])
    assert lemma3_reference(4, g2, g2, [0.0, 0.0], [2.0, 2.0], 1.0) == (
        pytest.approx(0.125)
    )
    assert lemma3_reference(1, g2, g2, [0.5, 0.5], [2.0, 2.0], 1.5) == (
        pytest.approx(2.0**-1.5)
    )
    with pytest.raises(ValueError):
        # both tied exponents vanish, the positivity condition fails
        lemma3_reference(4, g2, g2, [0.0, 0.0], [math.inf, math.inf], 1.0)


def test_lemma4_values():
    g1 = Anisotropy.of([1])
    assert lemma4_lhs(3, g1, [2.0], [1.0], 1.0) == pytest.approx(2.0)
    g2 = Anisotropy.of([1, 1])
    assert lemma4_lhs(2, g2, [0.0, 0.0], [1.0, 1.0], 1.0) == pytest.approx(
        0.75, abs=1e-12
    )
    assert lemma4_lhs("1/2", g2, [0.0, 0.0], [1.0, 1.0], 1.0) == 0.0
    with pytest.raises(ValueError):
        lemma4_lhs(2, g2, [0.0], [1.0, 1.0], 1.0)
    # an empty layer does not let bad exponents through
    with pytest.raises(ValueError, match="exponents must be positive"):
        lemma4_lhs("1/2", g2, [0.0, 0.0], [0.0, -1.0], 1.0)


def test_lemma4_reference_values():
    assert lemma4_reference(3, [2.0], [1.0], 1.0) == pytest.approx(
        2.0**-3 * 3.0**2
    )
    assert lemma4_reference(4, [0.0, 0.0], [1.0, 1.0], 1.0) == pytest.approx(0.25)
    assert lemma4_reference(1, [0.0], [2.0], 0.7) == pytest.approx(2.0**-0.7)


def test_layer_norm_below_outer_norm():
    # the exact layer is a subset of the at-or-above set, norms are monotone
    g = Anisotropy.of([1, 1])
    for n in range(2, 11):
        inner = lemma4_lhs(n, g, [0.0, 0.0], [2.0, 2.0], 1.0)
        outer = lemma3_lhs(n, g, g, [0.0, 0.0], [2.0, 2.0], 1.0)
        assert inner <= outer + 1e-15


def test_references_positive():
    g2 = Anisotropy.of([1, 1])
    for n in (1, 5, 40):
        assert lemma1_reference(n, 0.25, 0.25) > 0
        assert lemma2_reference(n, 1.0, 2.0, 1.0, -1.0, "growth") > 0
        assert lemma3_reference(n, g2, g2, [0.0, 0.0], [2.0, 2.0], 1.0) > 0
        assert lemma4_reference(n, [0.0, 0.0], [1.0, 1.0], 1.0) > 0


def test_ratio_scan_reports():
    report = ratio_scan(lambda n: 2.0**-n, lambda n: 2.0**-n, [1, 2, 3, 4])
    assert report.spread == 1.0
    assert report.verdict()
    report = ratio_scan(
        lambda n: 2.0**-n, lambda n: 2.0 ** -(n + 1), [1, 2, 3], relation="upper"
    )
    assert report.max_ratio == pytest.approx(2.0)
    assert report.verdict(upper_threshold=2.0)
    assert not report.verdict(upper_threshold=1.5)
    lower = ratio_scan(
        lambda n: 1.0, lambda n: float(n), [1, 2, 4], relation="lower"
    )
    assert lower.min_ratio == 0.25
    assert lower.verdict(lower_threshold=0.2)


def test_ratio_scan_guards():
    with pytest.raises(ValueError):
        ratio_scan(lambda n: 1.0, lambda n: 1.0, [])
    with pytest.raises(ValueError):
        ratio_scan(lambda n: 1.0, lambda n: 0.0, [1])
    with pytest.raises(ValueError):
        ratio_scan(lambda n: -1.0, lambda n: 1.0, [1])
    for bad in (math.nan, math.inf):  # a numerical failure, not a bad input
        with pytest.raises(ArithmeticError, match="non-finite value at n=1"):
            ratio_scan(lambda n: bad, lambda n: 1.0, [1])
        with pytest.raises(ArithmeticError, match="non-finite value at n=1"):
            ratio_scan(lambda n: 1.0, lambda n: bad, [1])
    # a vanishing lhs is recorded, and honestly fails two-sided verdicts
    report = ratio_scan(lambda n: 0.0, lambda n: 1.0, [1, 2])
    assert report.spread == math.inf
    assert not report.verdict()


def test_rate_fit_exact_models():
    pts = [(n, 2.0 ** (-0.5 * n)) for n in range(4, 21)]
    fit = rate_fit(pts)
    assert abs(fit.slope - 0.5) < 1e-10
    assert abs(fit.polylog) < 1e-10
    pts = [(n, 2.0**-n * n**2) for n in range(4, 21)]
    fit = rate_fit(pts)
    assert abs(fit.slope - 1.0) < 1e-10 and abs(fit.polylog - 2.0) < 1e-10


def test_rate_fit_pinned_slope():
    pts = [(n, 2.0**-n * n**1.5) for n in range(4, 16)]
    fit = rate_fit(pts, fix_slope=1.0)
    assert fit.slope == 1.0
    assert abs(fit.polylog - 1.5) < 1e-10


def test_rate_fit_under_noise():
    rng = np.random.default_rng(31)
    rho = 0.8
    pts = [
        (n, 2.0 ** (-rho * n) * (1.0 + 0.05 * (2.0 * rng.random() - 1.0)))
        for n in range(4, 21)
    ]
    fit = rate_fit(pts)
    assert abs(fit.slope - rho) < 0.05


def test_rate_fit_guards():
    with pytest.raises(ValueError):
        rate_fit([(1, 1.0), (2, 0.5), (3, 0.25)])
    with pytest.raises(ValueError):
        rate_fit([(2, 1.0), (2, 0.5), (2, 0.25), (2, 0.125)])
    with pytest.raises(ValueError):
        rate_fit([(1, 1.0), (2, -0.5), (3, 0.25), (4, 0.1)])


def test_ratio_report_is_frozen_data():
    report = RatioReport("two-sided", ((1, 1.0, 1.0, 1.0),))
    assert report.min_ratio == report.max_ratio == 1.0
    with pytest.raises(AttributeError):
        report.rows = ()


# -- the budget recursion against the dense box --------------------------------


def dense_lemma3(n, gamma, gamma_prime, lams, thetas, alpha, box):
    """lemma3_lhs on a dense box of box[j] levels per axis: the weights, zero
    outside the set (cross_membership), reduced by mixed_reduce."""
    mesh = np.ix_(*(np.arange(b) for b in box))
    level = sum(s * g for s, g in zip(mesh, gamma.as_floats()))
    with np.errstate(under="ignore"):
        term = np.exp2(-alpha * level)
        for s, lam in zip(mesh, lams):
            term = term * (s + 1.0) ** lam
        term[cross_membership(n, gamma_prime, mesh)] = 0.0
        return mixed_reduce(term, thetas)


def dense_lemma4(n, gamma, lams, epsilons, alpha):
    """lemma4_lhs on a dense box: the layer listed (layer_exact) into
    mixed_sequence_norm."""
    scale = 2.0 ** (-alpha * float(as_fraction(n)))
    values = {
        s: scale * math.prod((sj + 1.0) ** lam for sj, lam in zip(s, lams))
        for s in layer_exact(n, gamma)
    }
    return mixed_sequence_norm(values, epsilons)


# weights of about 1 whose level sums, scaled to integers, pass 2**63
LARGE = ["999999937/1000000007", "999999929/1000000009", "999999893/1000000021"]
SMALL = ["1/2", "2/3", "1", "3/2", "2"]


@st.composite
def lemma_cases(draw):
    """m, gamma, gamma', lams, thetas, a level n and alpha.  alpha sets the
    fewest bits per level an axis's terms u_j^theta_j fall past the set,
    decay, so a dense box of 100 / decay levels past it leaves out less than
    2^-60 of the value; four axes take a faster decay for a small box."""
    m = draw(st.sampled_from([1, 2, 3, 4]))
    four = m == 4
    gamma = draw(st.lists(st.sampled_from(SMALL[2:] if four else SMALL), min_size=m, max_size=m))
    gamma_prime = draw(st.lists(st.sampled_from(SMALL + LARGE), min_size=m, max_size=m))
    lams = draw(st.lists(st.floats(-1.5, 1.5), min_size=m, max_size=m))
    thetas = draw(st.lists(
        st.sampled_from([1.0, 2.0, math.inf] if four else [0.5, 0.75, 1.0, 2.0, math.inf]),
        min_size=m, max_size=m,
    ))
    decay = draw(st.floats(*{1: (0.25, 4.0), 2: (2.0, 6.0), 3: (2.0, 6.0), 4: (8.0, 12.0)}[m]))
    alpha = decay / min(float(Fraction(g)) * min(t, 1.0) for g, t in zip(gamma, thetas))
    n = draw(st.integers(1, 3 if four else 4))
    return n, Anisotropy.of(gamma), Anisotropy.of(gamma_prime), lams, thetas, alpha, decay


@given(lemma_cases())
@example((4, Anisotropy.of([1, 1]), Anisotropy.of(LARGE[:2]), [0.0, 0.0], [2.0, 2.0], 1.0, 1.0))
@settings(deadline=None, max_examples=60)
def test_lemma3_recursion_matches_the_dense_box(case):
    n, gamma, gamma_prime, lams, thetas, alpha, decay = case
    box = [math.ceil(n / gp) + math.ceil(100 / decay) for gp in gamma_prime.weights]
    want = dense_lemma3(n, gamma, gamma_prime, lams, thetas, alpha, box)
    got = lemma3_lhs(n, gamma, gamma_prime, lams, thetas, alpha)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@given(lemma_cases(), st.sampled_from([1, 2, 3]), st.integers(0, 4))
@settings(deadline=None, max_examples=60)
def test_lemma4_recursion_matches_the_dense_layer(case, denominator, shift):
    # a level n off the lattice of gamma's level sums has an empty layer, 0.0
    n, gamma, gamma_prime, lams, thetas, alpha, _ = case
    level = Fraction(2 * n + shift, denominator)
    for weights in (gamma, gamma_prime):
        want = dense_lemma4(level, weights, lams, thetas, alpha)
        got = lemma4_lhs(level, weights, lams, thetas, alpha)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@given(st.integers(2, 300), st.integers(2, 40), st.integers(1, 299), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_rows_past_the_array_are_added_in_the_order_of_a_dense_sum(rows, width, head, seed):
    # the budget recursion holds `head` rows of an axis of two or more
    # budgets and adds the rows past them in blocks as tall after the
    # array's sum; numpy adds the rows of two or more columns one after
    # another, so that keeps the bits of the sum over every row
    head = min(head, rows - 1)
    rng = np.random.default_rng(seed)
    terms = rng.random((rows, width)) * 10.0 ** rng.integers(-12, 12, (rows, 1))
    got = terms[:head].sum(axis=0)
    for i in range(head, rows, head):
        got = np.vstack((got, terms[i : i + head])).sum(axis=0)
    assert got.tobytes() == terms.sum(axis=0).tobytes()


@given(lemma_cases())
@settings(deadline=None, max_examples=60)
def test_lemma3_rows_past_the_budget_keep_the_bits_of_the_whole_array(case):
    # with no array held whole, every axis of two or more budgets adds the
    # rows past its budget after the array's sum: the value keeps its bits
    n, gamma, gamma_prime, lams, thetas, alpha, _ = case
    whole = lemma3_lhs(n, gamma, gamma_prime, lams, thetas, alpha)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asymptotics, "_DENSE_CELLS", 0)
        split = lemma3_lhs(n, gamma, gamma_prime, lams, thetas, alpha)
    assert split.hex() == whole.hex()


def test_lemma4_holds_no_dense_box():
    # a dense box of this layer holds 65**4 cells (143 MB)
    g = Anisotropy.of([1] * 4)
    tracemalloc.start()
    try:
        value = lemma4_lhs(64, g, [0.0] * 4, [1.0] * 4, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == math.comb(67, 3) * 2.0**-64  # the layer's lattice points
    assert peak < 1 << 20


def test_lemma3_records_each_axis_tail():
    g = Anisotropy.of([1, 1])
    record = []
    for n in (4, 5):
        lemma3_lhs(n, g, g, [0.0, 0.0], [2.0, math.inf], 1.0, record=record)
    assert [r["n"] for r in record] == [4, 5]
    for r in record:
        first, last = r["tail_bound"]
        assert 0.0 < first <= 2.0**-60 * 4.0 ** -r["n"] and last == 0.0
        assert all(count % 8 == 0 and count > r["n"] for count in r["terms"])
