"""Exact block, cross, and layer enumeration."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lzcross.indexsets import (
    Anisotropy,
    axis_block,
    block_levels,
    containing_block,
    cross_cardinality,
    cross_layers,
    cross_membership,
    hyperbolic_cross,
    indices_to_json_dict,
    layer_exact,
    rho_block,
)


def level_value(gamma: Anisotropy, s) -> Fraction:
    """The exact level sum <s, gamma>."""
    return sum((w * k for w, k in zip(gamma.weights, s)), Fraction(0))


def listed_axis_block(s: int) -> list[int]:
    """The level-s axis block listed integer by integer: 0 at level 0, else
    the negative then the positive k with 2**(s-1) <= |k| < 2**s."""
    if s == 0:
        return [0]
    lo, hi = 1 << (s - 1), 1 << s
    return list(range(-hi + 1, -lo + 1)) + list(range(lo, hi))


def test_axis_block_levels():
    assert all(axis_block(s).dtype == np.int64 for s in range(4))
    assert axis_block(0).tolist() == [0]
    assert axis_block(1).tolist() == [-1, 1]
    assert axis_block(2).tolist() == [-3, -2, 2, 3]
    assert axis_block(3).tolist() == [-7, -6, -5, -4, 4, 5, 6, 7]


def test_axis_block_matches_the_listed_block():
    for s in range(21):
        got = axis_block(s)
        assert got.dtype == np.int64 and got.ndim == 1
        assert got.tolist() == listed_axis_block(s)


def test_axis_block_rejects_negative_level():
    with pytest.raises(ValueError):
        axis_block(-1)


def test_rho_block_products():
    assert rho_block((1,)) == [(-1,), (1,)]
    assert rho_block((0,)) == [(0,)]
    pts = rho_block((2, 1))
    assert len(pts) == 8
    assert set(pts) == {(a, b) for a in (-3, -2, 2, 3) for b in (-1, 1)}
    assert pts == sorted(pts)


def test_blocks_partition_the_lattice():
    # every k in [-7,7]^2 lies in exactly one product block with levels <= 3
    seen = {}
    for s1 in range(4):
        for s2 in range(4):
            for k in rho_block((s1, s2)):
                assert k not in seen
                seen[k] = (s1, s2)
    for k1 in range(-7, 8):
        for k2 in range(-7, 8):
            assert seen[(k1, k2)] == containing_block((k1, k2))
    assert len(seen) == 15 * 15


@given(st.lists(st.integers(min_value=-4096, max_value=4096), min_size=1, max_size=3))
@settings(deadline=None)
def test_containing_block_roundtrip(k):
    s = containing_block(k)
    # product blocks factor per axis, so membership does too
    for kj, sj in zip(k, s):
        assert kj in axis_block(sj)


def test_cross_layers_examples():
    g2 = Anisotropy.of([1, 1])
    assert cross_layers(2, g2) == [(0, 0), (0, 1), (1, 0)]
    assert cross_layers(0, g2) == []
    assert cross_layers(1, Anisotropy.of([1])) == [(0,)]


def test_cross_layers_rational_level():
    g = Anisotropy.of(["1/3"])
    # s/3 < 1 for s = 0, 1, 2
    assert cross_layers(1, g) == [(0,), (1,), (2,)]


def test_hyperbolic_cross_small():
    g2 = Anisotropy.of([1, 1])
    assert hyperbolic_cross(2, g2) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    assert hyperbolic_cross(0, g2) == []
    assert hyperbolic_cross(3, Anisotropy.of([1])) == [
        (k,) for k in range(-3, 4)
    ]


def test_one_dim_cross_cardinality():
    g = Anisotropy.of([1])
    for n in range(1, 11):
        pts = hyperbolic_cross(n, g)
        assert len(pts) == 2**n - 1
        assert cross_cardinality(n, g) == len(pts)


def test_cross_cardinality_matches_enumeration():
    for gamma, n in [
        (Anisotropy.of([1, 1]), 4),
        (Anisotropy.of(["2/3", 1]), Fraction(5, 2)),
        (Anisotropy.of([1, "1/2", 2]), 3),
    ]:
        card = len(hyperbolic_cross(n, gamma))
        assert cross_cardinality(n, gamma) == card
        assert cross_cardinality(n, gamma, cap=card) == card
        assert cross_cardinality(n, gamma, cap=0) == 1  # the block (0, ..., 0)


def test_capped_cross_cardinality_stops_on_a_huge_level():
    # blocks (0, 0), (0, 1), ..., (0, 4) hold 1 + 2 + ... + 16 = 31 > 20
    assert cross_cardinality(10**400, Anisotropy.of([1, 1]), cap=20) == 31


def test_cross_monotone_in_level():
    gamma = Anisotropy.of([1, "2/3"])
    levels = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
    crosses = [set(hyperbolic_cross(n, gamma)) for n in levels]
    for small, big in zip(crosses, crosses[1:]):
        assert small <= big


def test_in_cross_agrees_with_enumeration():
    gamma = Anisotropy.of(["1/2", 1])
    n = Fraction(5, 2)
    members = set(hyperbolic_cross(n, gamma))
    ks = [(k1, k2) for k1 in range(-8, 9) for k2 in range(-8, 9)]
    inside = cross_membership(n, gamma, block_levels(np.array(ks)).T)
    assert inside.tolist() == [k in members for k in ks]


def test_membership_is_exact_not_float():
    # 1/3 + 2/3 rounds to 1 in binary, but 5 * (1/3) rounds below 5/3: every
    # level sum must be compared exactly, on both sides of each boundary
    gamma = Anisotropy.of(["1/3", "2/3"])
    assert level_value(gamma, (1, 1)) == 1
    assert (1, 1) in layer_exact(1, gamma)
    assert (1, 1) not in cross_layers(1, gamma)
    levels = [(s1, s2) for s1 in range(64) for s2 in range(32)]
    values = [level_value(gamma, s) for s in levels]
    for n in sorted(set(values)):
        inside = cross_membership(n, gamma, np.array(levels).T)
        assert inside.tolist() == [v < n for v in values]


def test_membership_falls_back_to_python_integers():
    # the common denominator of these weights is about 1e18, so level sums
    # from s1 + s2 = 10 on pass 2**63: an int64 sum would wrap around
    gamma = Anisotropy.of(["999999937/1000000007", "999999929/1000000009"])
    levels = [(s1, s2) for s1 in range(12) for s2 in range(12)]
    values = [level_value(gamma, s) for s in levels]
    inside = cross_membership(4, gamma, np.array(levels).T)
    assert inside.tolist() == [v < 4 for v in values]
    # on the boundary: every s1 + s2 = 4 is inside, every s1 + s2 = 5 outside
    assert sum(inside.tolist()) == 15
    # a weight past 2**63 on an axis whose levels are all 0 adds nothing to
    # the largest sum, yet an int64 product with it would overflow
    gamma = Anisotropy.of(["1/4000000000", "4000000001"])
    inside = cross_membership(3, gamma, np.array([[0, 0], [5, 0]]).T)
    assert inside.tolist() == [True, True]


def test_layer_exact_examples():
    g2 = Anisotropy.of([1, 1])
    assert layer_exact(2, g2) == [(0, 2), (1, 1), (2, 0)]
    assert layer_exact(Fraction(1, 2), g2) == []
    assert layer_exact(0, g2) == [(0, 0)]
    g = Anisotropy.of(["1/2", "1/3"])
    assert layer_exact(1, g) == [(0, 3), (2, 0)]


def test_anisotropy_validation_and_scaling():
    with pytest.raises(ValueError):
        Anisotropy.of([])
    with pytest.raises(ValueError):
        Anisotropy.of([1, 0])
    w, bound = Anisotropy.of(["2/3", "1/2"]).scaled(Fraction(5, 4))
    # common denominator 12
    assert (w, bound) == ([8, 6], 15)


def test_index_json_roundtrip():
    gamma = Anisotropy.of([1, 1])
    pts = hyperbolic_cross(2, gamma)
    doc = indices_to_json_dict(2, pts)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["m"] == 2 and [tuple(row) for row in doc["indices"]] == pts
    with pytest.raises(ValueError):
        indices_to_json_dict(3, pts)


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
@settings(deadline=None)
def test_level_pairs_split_by_cross_and_layer(s1, s2):
    gamma = Anisotropy.of([1, "1/2"])
    n = Fraction(3)
    value = level_value(gamma, (s1, s2))
    in_layers = (s1, s2) in cross_layers(n, gamma)
    on_layer = (s1, s2) in layer_exact(n, gamma)
    assert in_layers == (value < n)
    assert on_layer == (value == n)


_weights = st.lists(
    st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6),
    min_size=1,
    max_size=3,
)


@given(
    _weights,
    st.fractions(min_value=0, max_value=8, max_denominator=6),
)
@settings(deadline=None, max_examples=60)
def test_walker_matches_box_enumeration(weights, n):
    """cross_layers, layer_exact and cross_membership, on the box's open mesh
    and on its rows, equal a brute-force box scan, in lex order."""
    gamma = Anisotropy.of(weights)
    box = [range(int(n / w) + 1) for w in gamma.weights]  # holds every s with sum <= n
    levels = list(itertools.product(*box))  # lex order
    values = [level_value(gamma, s) for s in levels]  # Fraction sums
    assert cross_layers(n, gamma) == [s for s, v in zip(levels, values) if v < n]
    assert layer_exact(n, gamma) == [s for s, v in zip(levels, values) if v == n]
    inside = [v < n for v in values]
    mesh = np.ix_(*(np.arange(len(r)) for r in box))
    assert cross_membership(n, gamma, mesh).ravel().tolist() == inside
    assert cross_membership(n, gamma, np.array(levels).T).tolist() == inside
