"""Dyadic frequency blocks, step hyperbolic crosses, and weighted layer sets.

Set membership here is always decided in exact integer arithmetic: weight
vectors are positive rationals, and every comparison of a weighted level
sum against a threshold is rescaled to integers first.  Floating point
never decides whether an index belongs to a set.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

MultiIndex = tuple[int, ...]
FrequencyIndex = tuple[int, ...]

RationalLike = int | float | str | Fraction


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce to an exact Fraction; strings like "2/3" are accepted."""
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def as_integer(value: object, name: str) -> int:
    """An integer field: an int, an integral float or a decimal string.

    A boolean or a non-integral number is refused, naming the field, rather
    than truncated.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_number(value: object, name: str) -> float:
    """A real field: a number or the text of one, as float() reads it.

    A boolean or anything else is refused, naming the field, rather than
    read as 1.0 or 0.0.
    """
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


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
        w = [t // g.denominator * g.numerator for g in self.weights]
        return w, t // lvl.denominator * lvl.numerator

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(w) for w in self.weights)


def axis_block(s: int) -> np.ndarray:
    """Harmonics of the one-dimensional dyadic block at level s, ascending,
    as an int64 array.

    Level 0 carries the single frequency 0; level s >= 1 carries the
    frequencies with 2**(s-1) <= |k| < 2**s.
    """
    if s < 0:
        raise ValueError("block level must be nonnegative")
    if s == 0:
        return np.zeros(1, dtype=np.int64)
    k = np.arange(1 << (s - 1), 1 << s, dtype=np.int64)
    return np.append(-k[::-1], k)


def rho_block(s: Sequence[int]) -> list[FrequencyIndex]:
    """Product dyadic block: Cartesian product of axis_block(s_j), lex order."""
    return list(map(tuple, cartesian_rows([axis_block(sj) for sj in s]).tolist()))


def cartesian_rows(axes: Sequence[Sequence[int]]) -> np.ndarray:
    """Cartesian product of per-axis values as int64 rows, first axis slowest."""
    grids = np.meshgrid(*(np.asarray(a, dtype=np.int64) for a in axes), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values), flattened, by a sort and a mask of the entries
    unlike their predecessor; np.unique hashes int64 arrays, many times
    slower here.  Object arrays of Python integers are taken too."""
    values = np.sort(values, axis=None)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def block_levels(freqs: np.ndarray) -> np.ndarray:
    """Block level of every entry of an int64 frequency array, same shape.

    Level 0 holds k = 0 and level s >= 1 holds 2**(s-1) <= |k| < 2**s, so the
    level is the bit length of |k|.  Exact for every int64 except -2**63,
    whose absolute value does not fit.
    """
    powers = np.left_shift(1, np.arange(63, dtype=np.int64))  # 2**0 .. 2**62
    return np.searchsorted(powers, np.abs(freqs), side="right")


def containing_block(k: Sequence[int]) -> MultiIndex:
    """The unique block level vector whose product block contains k."""
    return tuple(block_levels(np.asarray(k, dtype=np.int64)).tolist())


def _walk(n: RationalLike, gamma: Anisotropy, exact: bool) -> Iterator[MultiIndex]:
    """Block levels s in Z_+^m in lex order: <s, gamma> = n if exact, else < n.

    The level sums are Python integers (gamma.scaled), so any weights are
    exact.  The levels are generated one at a time, so a caller may stop early.
    """
    w, bound = gamma.scaled(n)
    last = len(w) - 1

    def rec(prefix: MultiIndex, rem: int) -> Iterator[MultiIndex]:
        j = len(prefix)
        top = (rem if exact else rem - 1) // w[j]  # largest s_j that can fit
        if j < last:
            for s in range(top + 1):
                yield from rec(prefix + (s,), rem - s * w[j])
        elif not exact:
            yield from (prefix + (s,) for s in range(top + 1))
        elif rem >= 0 and top * w[j] == rem:
            yield prefix + (top,)

    return rec((), bound)


def cross_layers(n: RationalLike, gamma: Anisotropy) -> list[MultiIndex]:
    """Block levels s in Z_+^m with <s, gamma> < n, lexicographic order."""
    return list(_walk(n, gamma, exact=False))


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


def cross_cardinality(
    n: RationalLike, gamma: Anisotropy, cap: int | None = None
) -> int:
    """Number of frequencies in the step hyperbolic cross at level n.

    Level 0 of an axis holds one frequency and level s >= 1 holds 2^s, so
    the block at levels s holds 2^(s_1 + ... + s_m).  With a cap the walk
    stops at the first block that takes the count above it, so a cross of
    any size, such as one at level 10**400, is answered within cap + 1 blocks.
    """
    total = 0
    for s in _walk(n, gamma, exact=False):
        total += 1 << sum(s)
        if cap is not None and total > cap:
            break
    return total


def cross_membership(
    n: RationalLike, gamma: Anisotropy, levels: Sequence[np.ndarray]
) -> np.ndarray:
    """Which block level vectors s lie in the level-n cross, <s, gamma> < n.

    levels holds one integer array per axis, broadcast against each other:
    rows go in as block_levels(freqs).T, a box as np.ix_ of its axes.  The
    exact level sums are int64 when the largest, the bound and every weight
    fit below 2**63 (the weights are positive, so no partial sum exceeds the
    largest), and Python integers otherwise.
    """
    w, bound = gamma.scaled(n)
    largest = sum(int(s.max(initial=0)) * wj for s, wj in zip(levels, w, strict=True))
    dtype = np.int64 if max(largest, abs(bound), *w) < 1 << 63 else object
    total = sum(np.asarray(s, dtype=dtype) * wj for s, wj in zip(levels, w, strict=True))
    return total < bound


def layer_exact(n: RationalLike, gamma: Anisotropy) -> list[MultiIndex]:
    """Block levels with <s, gamma> equal to n exactly, lexicographic order."""
    return list(_walk(n, gamma, exact=True))


def indices_to_json_dict(m: int, indices: Iterable[Sequence[int]]) -> dict:
    """JSON-ready dict {"m": ..., "indices": [[...], ...]} in lex order."""
    rows = sorted(tuple(int(c) for c in idx) for idx in indices)
    for row in rows:
        if len(row) != m:
            raise ValueError("index arity does not match m")
    return {"m": int(m), "indices": [list(r) for r in rows]}
