"""Dyadic frequency blocks, step hyperbolic crosses, and weighted layer sets.

Set membership here is always decided in exact integer arithmetic: weight
vectors are positive rationals, and every comparison of a weighted level
sum against a threshold is rescaled to integers first.  Floating point
never decides whether an index belongs to a set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

MultiIndex = tuple[int, ...]
FrequencyIndex = tuple[int, ...]

RationalLike = int | float | str | Fraction


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce to an exact Fraction; strings like "2/3" are accepted."""
    return Fraction(value)


@dataclass(frozen=True)
class Anisotropy:
    """Positive rational weight vector for level sums <s, gamma>."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.weights) == 0:
            raise ValueError("anisotropy needs at least one axis")
        if any(not isinstance(w, Fraction) for w in self.weights):
            object.__setattr__(
                self, "weights", tuple(as_fraction(w) for w in self.weights)
            )
        if any(w <= 0 for w in self.weights):
            raise ValueError("anisotropy weights must be positive")

    @classmethod
    def of(cls, values: Sequence[RationalLike]) -> "Anisotropy":
        return cls(tuple(as_fraction(v) for v in values))

    @property
    def m(self) -> int:
        return len(self.weights)

    def scaled(self, level: RationalLike) -> tuple[list[int], int]:
        """Integer weights and threshold sharing one common denominator.

        Returns (w, bound) with w_j = gamma_j * T and bound = level * T for
        the least T that clears every denominator, so that
        <s, gamma> ? level  iff  sum(s_j * w_j) ? bound  exactly.
        """
        lvl = as_fraction(level)
        t = math.lcm(lvl.denominator, *(w.denominator for w in self.weights))
        w = [int(g * t) for g in self.weights]
        return w, int(lvl * t)

    def level_value(self, s: Sequence[int]) -> Fraction:
        if len(s) != self.m:
            raise ValueError("index length does not match anisotropy")
        return sum((w * k for w, k in zip(self.weights, s)), Fraction(0))

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(w) for w in self.weights)


def axis_block(s: int) -> list[int]:
    """Harmonics of the one-dimensional dyadic block at level s, ascending.

    Level 0 carries the single frequency 0; level s >= 1 carries the
    frequencies with 2**(s-1) <= |k| < 2**s.
    """
    if s < 0:
        raise ValueError("block level must be nonnegative")
    if s == 0:
        return [0]
    lo, hi = 1 << (s - 1), 1 << s
    return list(range(-hi + 1, -lo + 1)) + list(range(lo, hi))


def rho_block(s: Sequence[int]) -> list[FrequencyIndex]:
    """Product dyadic block: Cartesian product of axis_block(s_j), lex order."""
    return list(itertools.product(*(axis_block(sj) for sj in s)))


def containing_block(k: Sequence[int]) -> MultiIndex:
    """The unique block level vector whose product block contains k."""
    return tuple(0 if kj == 0 else abs(kj).bit_length() for kj in k)


def cross_layers(n: RationalLike, gamma: Anisotropy) -> list[MultiIndex]:
    """Block levels s in Z_+^m with <s, gamma> < n, lexicographic order."""
    w, bound = gamma.scaled(n)
    m = gamma.m
    out: list[MultiIndex] = []
    prefix = [0] * m

    def rec(j: int, acc: int) -> None:
        if j == m:
            out.append(tuple(prefix))
            return
        s = 0
        while acc + s * w[j] < bound:
            prefix[j] = s
            rec(j + 1, acc + s * w[j])
            s += 1

    rec(0, 0)
    return out


def hyperbolic_cross(n: RationalLike, gamma: Anisotropy) -> list[FrequencyIndex]:
    """Frequencies of the step hyperbolic cross at level n, lex sorted.

    The cross is the union of the product blocks over cross_layers(n, gamma);
    the blocks are pairwise disjoint, so no deduplication is needed.
    """
    out: list[FrequencyIndex] = []
    for s in cross_layers(n, gamma):
        out.extend(rho_block(s))
    out.sort()
    return out


def cross_cardinality(n: RationalLike, gamma: Anisotropy) -> int:
    """Number of frequencies in the step hyperbolic cross at level n."""
    total = 0
    for s in cross_layers(n, gamma):
        size = 1
        for sj in s:
            size *= 1 if sj == 0 else 1 << sj
        total += size
    return total


def cross_membership(
    n: RationalLike, gamma: Anisotropy
) -> Callable[[Sequence[int]], bool]:
    """Exact membership test of frequencies in the level-n cross.

    The integer weights and threshold are taken once here, so testing many
    frequencies against one cross costs no rational arithmetic per frequency.
    """
    w, bound = gamma.scaled(n)

    def inside(k: Sequence[int]) -> bool:
        return sum(sj * wj for sj, wj in zip(containing_block(k), w)) < bound

    return inside


def layer_exact(n: RationalLike, gamma: Anisotropy) -> list[MultiIndex]:
    """Block levels with <s, gamma> equal to n exactly, lexicographic order."""
    w, bound = gamma.scaled(n)
    if bound < 0:
        return []
    m = gamma.m
    out: list[MultiIndex] = []
    prefix = [0] * m

    def rec(j: int, acc: int) -> None:
        if j == m - 1:
            rem = bound - acc
            if rem % w[j] == 0:
                prefix[j] = rem // w[j]
                out.append(tuple(prefix))
            return
        s = 0
        while acc + s * w[j] <= bound:
            prefix[j] = s
            rec(j + 1, acc + s * w[j])
            s += 1

    rec(0, 0)
    return out


def indices_to_json_dict(m: int, indices: Iterable[Sequence[int]]) -> dict:
    """JSON-ready dict {"m": ..., "indices": [[...], ...]} in lex order."""
    rows = sorted(tuple(int(c) for c in idx) for idx in indices)
    for row in rows:
        if len(row) != m:
            raise ValueError("index arity does not match m")
    return {"m": int(m), "indices": [list(r) for r in rows]}
