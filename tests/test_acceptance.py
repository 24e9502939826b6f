"""Acceptance gate: ten pinned desk-scale criteria.

Every test prints one summary line with the measured quantities and the
pinned thresholds, then asserts them.  Tolerances and runtime budgets are
fixed here on purpose; loosening them is a contract change, not a fix.
"""

import hashlib
import json
import math
import time
from fractions import Fraction
from itertools import chain

import numpy as np

from lzcross.asymptotics import (
    lemma1_sum,
    lemma1_reference,
    lemma2_sum,
    lemma2_reference,
    lemma3_lhs,
    lemma3_reference,
    lemma4_lhs,
    lemma4_reference,
    ratio_scan,
)
from lzcross.classes import BesovParams, TheoremParams, besov_functional
from lzcross.cli import main
from lzcross.experiments import theorem1_rate_experiment
from lzcross.indexsets import Anisotropy, axis_block, containing_block, hyperbolic_cross
from lzcross.norms import GridFunction, MixedSpaceParams, anisotropic_norm
from lzcross.spectral import (
    GridSpec,
    SpectralFunction,
    analyze,
    cross_truncate,
    synthesize,
)

DYADIC_L = [16 * 2**k for k in range(9)]  # 16 .. 4096


def report(num, ok, detail):
    print(f"criterion {num:02d}: {detail} -> {'PASS' if ok else 'FAIL'}")


def test_criterion_01_lemma1_small_exponents():
    t0 = time.perf_counter()
    rep = ratio_scan(
        lambda l: lemma1_sum(l, 0.25, 0.25),
        lambda l: lemma1_reference(l, 0.25, 0.25),
        DYADIC_L,
    )
    elapsed = time.perf_counter() - t0
    ok = rep.spread < 5.0 and elapsed < 1.0
    report(1, ok, f"lemma1 a=b=0.25 spread={rep.spread:.4f} (<5) time={elapsed:.3f}s (<1)")
    assert rep.spread < 5.0
    assert elapsed < 1.0


def test_criterion_02_lemma1_harmonic_case():
    rep = ratio_scan(
        lambda l: lemma1_sum(l, 1.0, 1.0),
        lambda l: lemma1_reference(l, 1.0, 1.0),
        DYADIC_L,
    )
    worst = 0.0
    for l in DYADIC_L:
        if l > 1024:
            break
        direct = lemma1_sum(l, 1.0, 1.0)
        # same multiset of terms traversed from the other end
        swapped = math.fsum((l - s) ** -1.0 * (s + 1.0) ** -1.0 for s in range(l))
        worst = max(worst, abs(direct - swapped) / direct)
    ok = rep.spread < 10.0 and worst <= 1e-12
    report(2, ok, f"lemma1 a=b=1 spread={rep.spread:.4f} (<10) symmetry={worst:.2e} (<=1e-12)")
    assert rep.spread < 10.0
    assert worst <= 1e-12


def test_criterion_03_lemma2_both_signs():
    ns = list(range(8, 257))
    details = []
    for mode, theta, lam1, lam2, budget in (
        ("decay", 1.0, -0.5, 2.0, 1.0),
        ("growth", 2.0, 1.0, -1.0, 1.0),
    ):
        t0 = time.perf_counter()
        rep = ratio_scan(
            lambda n: lemma2_sum(n, 1.0, theta, lam1, lam2, mode),
            lambda n: lemma2_reference(n, 1.0, theta, lam1, lam2, mode),
            ns,
        )
        elapsed = time.perf_counter() - t0
        details.append((mode, rep.spread, elapsed))
        assert rep.spread < 10.0
        assert elapsed < budget
    ok = all(s < 10.0 and t < 1.0 for _, s, t in details)
    text = " ".join(f"{m}: spread={s:.4f} time={t:.3f}s" for m, s, t in details)
    report(3, ok, f"lemma2 {text} (<10, <1s each)")


def test_criterion_04_lemma3_two_axes():
    g = Anisotropy.of([1, 1])
    lams, thetas = [0.0, 0.0], [2.0, 2.0]
    rep = ratio_scan(
        lambda n: lemma3_lhs(n, g, g, lams, thetas, 1.0),
        lambda n: lemma3_reference(n, g, g, lams, thetas, 1.0),
        list(range(4, 49)),
    )
    # independent oracle: literal truncated double sum of the squared terms
    cap = 300
    tail = math.fsum(
        4.0 ** -(s1 + s2)
        for s1 in range(cap)
        for s2 in range(cap)
        if s1 + s2 >= 8
    )
    oracle = math.sqrt(tail)
    got = lemma3_lhs(8, g, g, lams, thetas, 1.0)
    rel = abs(got - oracle) / oracle
    ok = rep.spread < 10.0 and rel <= 1e-9
    report(4, ok, f"lemma3 spread={rep.spread:.4f} (<10) oracle rel={rel:.2e} (<=1e-9)")
    assert rep.spread < 10.0
    assert rel <= 1e-9


def test_criterion_05_lemma4_single_layer():
    g = Anisotropy.of([1, 1])
    lams, eps = [0.0, 0.0], [1.0, 1.0]
    rep = ratio_scan(
        lambda n: lemma4_lhs(n, g, lams, eps, 1.0),
        lambda n: lemma4_reference(n, lams, eps, 1.0),
        list(range(2, 65)),
        relation="lower",
    )
    at2 = lemma4_lhs(2, g, lams, eps, 1.0)
    rel = abs(at2 - 0.75) / 0.75
    ok = rep.min_ratio > 0.1 and rel <= 1e-12
    report(5, ok, f"lemma4 min_ratio={rep.min_ratio:.4f} (>0.1) n=2 value rel={rel:.2e} (<=1e-12)")
    assert rep.min_ratio > 0.1
    assert rel <= 1e-12


def test_criterion_06_norm_engine():
    rng = np.random.default_rng(61803)
    worst_parseval = 0.0
    for i in range(20):
        m = 1 + i % 2
        band = rng.integers(1, 33, size=m)
        coeffs = {}
        for _ in range(int(rng.integers(3, 15))):
            k = tuple(int(rng.integers(-b, b + 1)) for b in band)
            coeffs[k] = complex(rng.standard_normal(), rng.standard_normal())
        f = SpectralFunction(m, coeffs)
        if not f.coefficients:
            continue
        g = synthesize(f, GridSpec.minimal_for(f.bandwidth()))
        l2 = anisotropic_norm(g, MixedSpaceParams.of([2] * m, [0.0] * m, [2.0] * m))
        worst_parseval = max(worst_parseval, abs(l2 - f.l2_norm()) / f.l2_norm())

    worst_indicator = 0.0
    n_cells = 1024
    for p, tau in ((2.0, 2.0), (1.5, 3.0)):
        params = MixedSpaceParams.of([p], [0.0], [tau])
        for e in range(1, 11):
            a = 2.0**-e
            vals = np.zeros(n_cells)
            vals[: int(a * n_cells)] = 1.0
            got = anisotropic_norm(GridFunction(vals), params)
            want = (p / tau) ** (1.0 / tau) * a ** (1.0 / p)
            worst_indicator = max(worst_indicator, abs(got - want) / want)

    ok = worst_parseval <= 1e-10 and worst_indicator <= 1e-8
    report(
        6, ok,
        f"parseval rel={worst_parseval:.2e} (<=1e-10) indicator rel={worst_indicator:.2e} (<=1e-8)",
    )
    assert worst_parseval <= 1e-10
    assert worst_indicator <= 1e-8


def test_criterion_07_dirichlet_block_norms():
    from lzcross.spectral import dirichlet_block

    t0 = time.perf_counter()
    spreads = []
    for p, alpha, tau in ((2.0, 1.0, 2.0), (1.5, -0.5, 3.0)):
        params = MixedSpaceParams.of([p], [alpha], [tau])
        ratios = []
        for s in range(3, 11):
            g = synthesize(dirichlet_block((s,)), GridSpec((2 ** (s + 3),)))
            ref = 2.0 ** (s * (1.0 - 1.0 / p)) * (s + 1.0) ** alpha
            ratios.append(anisotropic_norm(g, params) / ref)
        spreads.append(max(ratios) / min(ratios))
    elapsed = time.perf_counter() - t0
    ok = all(s < 5.0 for s in spreads) and elapsed < 30.0
    report(
        7, ok,
        f"dirichlet spreads={spreads[0]:.4f},{spreads[1]:.4f} (<5) time={elapsed:.2f}s (<30)",
    )
    assert all(s < 5.0 for s in spreads)
    assert elapsed < 30.0


def univariate_params():
    source_space = MixedSpaceParams.of(["3/2"], [0.0], [1.5])
    source = BesovParams(source_space, (Fraction(1),), (math.inf,))
    target = MixedSpaceParams.of([2], [0.0], [2.0])
    return TheoremParams(source, target, Anisotropy.of([1]))


def test_criterion_08_rate_univariate():
    tp = univariate_params()
    assert tp.target.is_plain_l2()  # exact coefficient error path applies
    t0 = time.perf_counter()
    result = theorem1_rate_experiment(tp, list(range(6, 17)))
    elapsed = time.perf_counter() - t0
    rho = float(result.derived.rho_star)
    diff = abs(result.fit_free.slope - rho)
    ok = diff < 0.1 and elapsed < 10.0
    report(
        8, ok,
        f"slope={result.fit_free.slope:.4f} target={rho:.4f} |diff|={diff:.4f} (<0.1) "
        f"time={elapsed:.2f}s (<10)",
    )
    assert rho == 5.0 / 6.0
    assert diff < 0.1
    assert elapsed < 10.0


def bivariate_params():
    source_space = MixedSpaceParams.of(["3/2", "3/2"], [0.0, 0.0], [1.5, 1.5])
    source = BesovParams(source_space, (Fraction(1), Fraction(1)), (math.inf, math.inf))
    target = MixedSpaceParams.of([2, 2], [0.0, 0.0], [2.0, 2.0])
    return TheoremParams(source, target, Anisotropy.of([1, 1]))


def test_criterion_09_polylog_bivariate():
    tp = bivariate_params()
    t0 = time.perf_counter()
    result = theorem1_rate_experiment(tp, list(range(6, 15)))
    elapsed = time.perf_counter() - t0
    mu_hat = result.fit_pinned.polylog
    mu = result.derived.mu
    diff = abs(mu_hat - mu)
    spread = result.report.spread
    ok = diff < 0.3 and spread < 10.0 and elapsed < 60.0
    report(
        9, ok,
        f"mu_hat={mu_hat:.4f} mu={mu:.4f} |diff|={diff:.4f} (<0.3) "
        f"spread={spread:.4f} (<10) time={elapsed:.2f}s (<60)",
    )
    assert mu == 0.5
    assert diff < 0.3
    assert spread < 10.0
    assert elapsed < 60.0


def test_criterion_10_structural(tmp_path):
    t0 = time.perf_counter()

    # frequency blocks partition the integers
    flat = sorted(chain.from_iterable(axis_block(s) for s in range(4)))
    assert flat == list(range(-7, 8))
    for k1 in range(-7, 8):
        for k2 in range(-7, 8):
            s = containing_block((k1, k2))
            assert k1 in axis_block(s[0]) and k2 in axis_block(s[1])

    # crosses grow monotonically with the level
    g = Anisotropy.of(["1", "2/3"])
    prev = set(hyperbolic_cross(1, g))
    for n in range(2, 6):
        cur = set(hyperbolic_cross(n, g))
        assert prev < cur
        prev = cur

    # projection is idempotent and the transform pair inverts
    rng = np.random.default_rng(424242)
    coeffs = {
        (int(rng.integers(-9, 10)), int(rng.integers(-9, 10))):
            complex(rng.standard_normal(), rng.standard_normal())
        for _ in range(12)
    }
    f = SpectralFunction(2, coeffs)
    once = cross_truncate(f, 3, Anisotropy.of([1, 1]))
    twice = cross_truncate(once, 3, Anisotropy.of([1, 1]))
    assert once.coefficients == twice.coefficients

    grid = GridSpec.minimal_for(f.bandwidth())
    back = analyze(synthesize(f, grid), f.bandwidth())
    keys = set(f.coefficients) | set(back.coefficients)
    worst = max(
        abs(f.coefficients.get(k, 0.0) - back.coefficients.get(k, 0.0)) for k in keys
    )
    assert worst <= 1e-12

    # class functional is positively homogeneous
    h = SpectralFunction(
        2, {(1, 2): 1 + 0.5j, (-3, 5): 0.3, (2, -2): -1.2j, (7, 1): 0.9}
    )
    bp = BesovParams(
        MixedSpaceParams.of(["3/2", "3/2"], [0.0, 0.0], [1.5, 1.5]),
        (Fraction(1), Fraction(1)),
        (2.0, 2.0),
    )
    hgrid = GridSpec.minimal_for(h.bandwidth())
    base = besov_functional(h, bp, hgrid)
    scaled = besov_functional(h.scaled(3.5), bp, hgrid)
    assert abs(scaled - 3.5 * base) <= 1e-12 * abs(scaled)

    # reruns of the CLI are byte-identical
    for d in ("a", "b"):
        assert main(
            ["--out", str(tmp_path / d), "cross", "gen", "--n", "2", "--gamma", "1,1"]
        ) == 0
        assert main(
            ["--out", str(tmp_path / d), "lemma", "check", "--id", "4"]
        ) == 0
    for name in ("cross.json", "lemma4_report.csv", "lemma4_report.summary.json"):
        da = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
        db = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
        assert da == db

    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(10, ok, f"structural suite time={elapsed:.2f}s (<60)")
    assert elapsed < 60.0
