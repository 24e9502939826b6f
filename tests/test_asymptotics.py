"""Lemma-style sums against closed references, ratio scans, rate fits."""

import math

import numpy as np
import pytest

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
from lzcross.indexsets import Anisotropy


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
    # first box: 1/(1/5000) + 8 = 5008 levels, past the 4096-level axis limit
    g = Anisotropy.of(["1/5000"])
    with pytest.raises(ValueError, match=r"box \(5009,\) exceeds the limit of 4096"):
        lemma3_lhs(1, g, g, [0.0], [2.0], 1.0)


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
