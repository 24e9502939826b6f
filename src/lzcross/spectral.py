"""Trigonometric polynomials: synthesis, analysis, block and cross truncation.

A spectral function is a finite map from integer frequency vectors to
complex coefficients, representing sum_k a_k exp(i <k, x>) with x on the
2 pi-periodic torus sampled at x_j = 2 pi i_j / N_j.  Synthesis and
analysis ride on the FFT; truncation sets are decided by the exact integer
arithmetic of indexsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .indexsets import (
    Anisotropy,
    FrequencyIndex,
    MultiIndex,
    RationalLike,
    containing_block,
    cross_membership,
    rho_block,
)
from .norms import GridFunction, MixedSpaceParams, _validated_shape, anisotropic_norm


@dataclass(frozen=True)
class GridSpec:
    """Target sampling grid; every axis count is a power of two."""

    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", _validated_shape(self.shape))

    @property
    def m(self) -> int:
        return len(self.shape)

    @property
    def cells(self) -> int:
        return math.prod(self.shape)

    @classmethod
    def minimal_for(cls, bandwidth: Sequence[int]) -> "GridSpec":
        """Smallest power-of-two grid resolving the given per-axis bandwidth."""
        bw = tuple(int(b) for b in bandwidth)
        return cls(tuple(max(2, 1 << (2 * b + 1).bit_length()) for b in bw))


@dataclass(frozen=True)
class SpectralFunction:
    """Finite trigonometric polynomial as a frequency -> coefficient map."""

    m: int
    coefficients: dict[FrequencyIndex, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[FrequencyIndex, complex] = {}
        for k, a in self.coefficients.items():
            kk = tuple(int(c) for c in k)
            if len(kk) != self.m:
                raise ValueError("frequency arity does not match m")
            a = complex(a)
            if a != 0:
                clean[kk] = a
        object.__setattr__(self, "coefficients", clean)

    def items(self) -> list[tuple[FrequencyIndex, complex]]:
        return sorted(self.coefficients.items())

    def support(self) -> list[FrequencyIndex]:
        return sorted(self.coefficients)

    @property
    def n_terms(self) -> int:
        return len(self.coefficients)

    def bandwidth(self) -> tuple[int, ...]:
        if not self.coefficients:
            return (0,) * self.m
        return tuple(
            max(abs(k[j]) for k in self.coefficients) for j in range(self.m)
        )

    def scaled(self, c: complex) -> "SpectralFunction":
        return SpectralFunction(
            self.m, {k: c * a for k, a in self.coefficients.items()}
        )

    def restrict(self, keep: Callable[[FrequencyIndex], bool]) -> "SpectralFunction":
        return SpectralFunction(
            self.m, {k: a for k, a in self.coefficients.items() if keep(k)}
        )

    def l2_norm(self) -> float:
        """Coefficient l2 norm; equals the mean-square norm of the samples."""
        return math.sqrt(sum(abs(a) ** 2 for a in self.coefficients.values()))

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "terms": [
                {"k": list(k), "re": float(a.real), "im": float(a.imag)}
                for k, a in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SpectralFunction":
        m = int(doc["m"])
        coeffs: dict[FrequencyIndex, complex] = {}
        for term in doc["terms"]:
            k = tuple(int(c) for c in term["k"])
            coeffs[k] = complex(float(term["re"]), float(term.get("im", 0.0)))
        return cls(m, coeffs)


def synthesize(f: SpectralFunction, grid: GridSpec | Sequence[int]) -> GridFunction:
    """Evaluate the polynomial on the product grid via an inverse FFT.

    Frequencies are placed at k mod N_j, so every |k_j| must stay below
    N_j / 2; otherwise distinct frequencies would alias.
    """
    if not isinstance(grid, GridSpec):
        grid = GridSpec(tuple(grid))
    if grid.m != f.m:
        raise ValueError("grid arity does not match spectral function")
    bw = f.bandwidth()
    if any(2 * b >= n for b, n in zip(bw, grid.shape)):
        raise ValueError("grid too coarse for the bandwidth of f")
    spec = np.zeros(grid.shape, dtype=np.complex128)
    if f.coefficients:
        ks = np.array(sorted(f.coefficients), dtype=np.int64)
        vals = np.array([f.coefficients[tuple(k)] for k in ks], dtype=np.complex128)
        flat = np.ravel_multi_index(
            tuple((ks[:, j] % grid.shape[j]) for j in range(f.m)), grid.shape
        )
        np.add.at(spec.ravel(), flat, vals)
    samples = np.fft.ifftn(spec) * grid.cells
    return GridFunction(samples)


def analyze(g: GridFunction, band: Sequence[int]) -> SpectralFunction:
    """Recover coefficients for |k_j| <= band_j from grid samples.

    Inverts synthesize for bandlimited data; exact zeros are dropped so the
    zero grid maps to the empty polynomial.
    """
    band = tuple(int(b) for b in band)
    if len(band) != g.m:
        raise ValueError("band arity does not match grid")
    if any(2 * b >= n for b, n in zip(band, g.shape)):
        raise ValueError("band too large for this grid")
    hat = np.fft.fftn(g.values) / math.prod(g.shape)
    coeffs: dict[FrequencyIndex, complex] = {}
    for k in np.ndindex(*(2 * b + 1 for b in band)):
        kk = tuple(ki - b for ki, b in zip(k, band))
        a = complex(hat[tuple(ki % n for ki, n in zip(kk, g.shape))])
        if a != 0:
            coeffs[kk] = a
    return SpectralFunction(g.m, coeffs)


def block_component(f: SpectralFunction, s: Sequence[int]) -> SpectralFunction:
    """Restriction of f to the product dyadic block at level vector s."""
    s = tuple(int(v) for v in s)
    if len(s) != f.m:
        raise ValueError("level arity does not match spectral function")
    return f.restrict(lambda k: containing_block(k) == s)


def nonzero_blocks(f: SpectralFunction) -> dict[MultiIndex, SpectralFunction]:
    """Partition the support of f by containing block level, lex-ordered keys."""
    groups: dict[MultiIndex, dict[FrequencyIndex, complex]] = {}
    for k, a in f.coefficients.items():
        groups.setdefault(containing_block(k), {})[k] = a
    return {
        s: SpectralFunction(f.m, coeffs) for s, coeffs in sorted(groups.items())
    }


def cross_truncate(
    f: SpectralFunction, n: RationalLike, gamma: Anisotropy
) -> SpectralFunction:
    """Keep the coefficients inside the step hyperbolic cross at level n."""
    if gamma.m != f.m:
        raise ValueError("anisotropy arity does not match spectral function")
    return f.restrict(cross_membership(n, gamma))


def truncation_error(
    f: SpectralFunction,
    n: RationalLike,
    gamma: Anisotropy,
    target: MixedSpaceParams,
    grid: GridSpec | Sequence[int] | None = None,
    *,
    l2_check_tol: float = 1e-8,
) -> float:
    """Norm of f minus its cross truncation in the target space.

    With a grid, the residual is synthesized and measured by
    anisotropic_norm.  When the target is plain L2 the coefficient l2 norm
    of the residual is the same quantity by Parseval; it is used as a
    cross-check against the grid value, and when no grid is given it is
    returned directly (plain-L2 targets only).
    """
    inside = cross_membership(n, gamma)
    residual = f.restrict(lambda k: not inside(k))
    plain_l2 = target.is_plain_l2()
    parseval = residual.l2_norm() if plain_l2 else None
    if grid is None:
        if parseval is None:
            raise ValueError(
                "a grid is required unless the target space is plain L2"
            )
        return parseval
    value = anisotropic_norm(synthesize(residual, grid), target)
    if parseval is not None:
        if abs(value - parseval) > l2_check_tol * max(parseval, 1e-300):
            raise ArithmeticError(
                "grid quadrature disagrees with the coefficient l2 norm"
            )
    return value


def dirichlet_block(s: Sequence[int]) -> SpectralFunction:
    """Coefficient 1 on every frequency of the product block at level s."""
    s = tuple(int(v) for v in s)
    return SpectralFunction(len(s), {k: 1.0 + 0.0j for k in rho_block(s)})
