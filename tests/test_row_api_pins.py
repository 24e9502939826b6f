"""The row API (grid_norm, grid_route, block_norms, besov_functional and
synthesize) on polynomials that mix product blocks with blocks off the
product form, pinned to the bits it gave before it read the block list
SpectralFunction.blocks.

The values were recorded with OpenBLAS on one thread; every grid here is
small enough that BLAS sums on one thread whatever it is set to.
"""

import hashlib
import itertools

import pytest

from lzcross.classes import BesovParams, besov_functional
from lzcross.norms import MixedSpaceParams
from lzcross.spectral import (
    GridSpec,
    SpectralFunction,
    block_norms,
    grid_norm,
    grid_route,
    synthesize,
)


def orbit(mag, c):
    """c on every sign pattern of the magnitudes mag."""
    return {
        tuple(s * k for s, k in zip(signs, mag)): c
        for signs in itertools.product((1, -1), repeat=len(mag))
    }


def product(c, *axis_sets):
    return {k: c for k in itertools.product(*axis_sets)}


POLYNOMIALS = {
    # sign-symmetric, every block a uniform product
    "products-2d": SpectralFunction(2, {
        **product(1.5, [-3, -2, 2, 3], [-1, 1]), **product(-0.75, [-1, 1], [-7, -5, 5, 7]),
        **product(0.5, [-3, 3], [-3, 3]),
    }),
    "products-3d": SpectralFunction(3, {
        **product(2.0, [-1, 1], [-3, 3], [-1, 1]),
        **product(0.5, [-3, -2, 2, 3], [-1, 1], [-2, 2]),
    }),
    # sign-symmetric, level (2, 2) off the product form: three orbits under
    # two coefficients, (3, 2) missing
    "symmetric-2d": SpectralFunction(2, {
        **product(1.5, [-3, -2, 2, 3], [-1, 1]),
        **orbit((2, 2), 1.0), **orbit((3, 3), -0.5), **orbit((2, 3), 0.25),
        **product(-0.75, [-1, 1], [-7, -5, 5, 7]),
    }),
    # sign-symmetric, level (2, 1, 2) off the product form
    "symmetric-3d": SpectralFunction(3, {
        **product(2.0, [-1, 1], [-3, 3], [-1, 1]),
        **orbit((2, 1, 2), 0.5), **orbit((3, 1, 3), 0.5), **orbit((3, 1, 2), -1.25),
    }),
    # products with axis 1 held at the one harmonic k_1 = +1
    "held-axis": SpectralFunction(2, {
        **product(0.8, [-3, -2, 2, 3], [1]), **product(-0.3, [-5, 5, 7, -7], [1]),
    }),
    "general": SpectralFunction(2, {
        (1, 2): 1 + 2j, (-3, 1): 0.5, (2, 2): -1.0, (3, -5): 0.25j, (-1, -1): 2.0,
    }),
    "empty": SpectralFunction(2),
}


def spaces(m):
    return {
        "L3/2": MixedSpaceParams.of(["3/2"] * m, [0.0] * m, [1.5] * m),
        "LZ": MixedSpaceParams.of(["3/2"] + ["2"] * (m - 1), [0.5] + [-0.25] * (m - 1),
                                  [3.0] * m),
    }


SYNTHESIZED = {
    "products-2d": ("float64", "ce951c3b04e958cea9d633ab22f1a62d71827b37dae68c5c37826de12ff00607"),
    "products-3d": ("float64", "780bc2f6789a04f498d4d361d4e8e55312463bea52d431395145f295f89f099a"),
    "symmetric-2d": ("float64", "ec4eb4aba603311b38e4a0e15a0d0a9c7e6b1f511e9965413108ed79d67a6045"),
    "symmetric-3d": ("float64", "b7d06497c537ba021918f09003906235ccfe5a23d227c66fba618ff2c4ef408b"),
    "held-axis": ("complex128", "53e48a0eae613e3804f2b0dbf5ec5ed309cd8c9f29b9697dbb570c8fc2b64977"),
    "general": ("complex128", "35de93d4c14f8134918be6c2195f998aae93a241a61b150dd3cb5e5e5deb8817"),
    "empty": ("float64", "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"),
}

# (polynomial, space): grid_norm, grid_route, block_norms, besov_functional
# exact and by the triangle bound
PINNED = {
    ("products-2d", "L3/2"): (
        "0x1.09decff04defcp+2", "product",
        {
            (1, 3): "0x1.c48a98a832048p+0",
            (2, 1): "0x1.e3b3308de57f8p+1",
            (2, 2): "0x1.cea013815f0dbp-1",
        },
        ["0x1.ccd98f27b4740p+7", "0x1.d1711aaf3b5d9p+7"],
    ),
    ("products-2d", "LZ"): (
        "0x1.8d947a39692d1p+1", "orthant",
        {
            (1, 3): "0x1.63c243dfe44eap+0",
            (2, 1): "0x1.798d50d936d9ep+1",
            (2, 2): "0x1.705dd049b5ec1p-1",
        },
        ["0x1.69f895c8c9f35p+7", "0x1.6de05b7b52a89p+7"],
    ),
    ("products-3d", "L3/2"): (
        "0x1.4de9ec347df06p+2", "product",
        {
            (1, 2, 1): "0x1.32ba69eb8aa7fp+2",
            (2, 1, 2): "0x1.929831dd78e80p+0",
        },
        ["0x1.93e61bc9ad65fp+10", "0x1.942f9253dbd0ep+10"],
    ),
    ("products-3d", "LZ"): (
        "0x1.6afb56d49ccb3p+1", "orthant",
        {
            (1, 2, 1): "0x1.6524eac117267p+1",
            (2, 1, 2): "0x1.ed9e8b5cfbbe6p-1",
        },
        ["0x1.ef0986b3d05b3p+9", "0x1.ef7f17ea94147p+9"],
    ),
    ("symmetric-2d", "L3/2"): (
        "0x1.2d06431509f37p+2", "orthant",
        {
            (1, 3): "0x1.c48a98a832048p+0",
            (2, 1): "0x1.e3b3308de57f8p+1",
            (2, 2): "0x1.064a9c6257870p+1",
        },
        ["0x1.cdf2cac0da542p+7", "0x1.d3bba50d435cap+7"],
    ),
    ("symmetric-2d", "LZ"): (
        "0x1.bab71872e1df2p+1", "orthant",
        {
            (1, 3): "0x1.63c243dfe44eap+0",
            (2, 1): "0x1.798d50d936d9ep+1",
            (2, 2): "0x1.95be9e4458057p+0",
        },
        ["0x1.6aad2041afd62p+7", "0x1.6f9b7ae791a2bp+7"],
    ),
    ("symmetric-3d", "L3/2"): (
        "0x1.7d84d9a8dd02bp+2", "orthant",
        {
            (1, 2, 1): "0x1.32ba69eb8aa7fp+2",
            (2, 1, 2): "0x1.b380c548b7c34p+1",
        },
        ["0x1.b43f87b58c31cp+11", "0x1.b48702aeffb68p+11"],
    ),
    ("symmetric-3d", "LZ"): (
        "0x1.a55c79d47fa4ap+1", "orthant",
        {
            (1, 2, 1): "0x1.6524eac117267p+1",
            (2, 1, 2): "0x1.c03eb4b9241cdp+0",
        },
        ["0x1.c11162f60e5cap+10", "0x1.c16156dbb2f17p+10"],
    ),
    ("held-axis", "L3/2"): (
        "0x1.9a52367a8cb5ap+0", "grid",
        {
            (2, 1): "0x1.7a9e65daf6d91p+0",
            (3, 1): "0x1.0e8a98ebfd47fp-1",
        },
        ["0x1.eafd22e5b3068p+4", "0x1.f1763aa31992fp+4"],
    ),
    ("held-axis", "LZ"): (
        "0x1.6e092bc8c2324p+0", "grid",
        {
            (2, 1): "0x1.533db2b7cb64ap+0",
            (3, 1): "0x1.081223446f1bdp-1",
        },
        ["0x1.c4c81fcc8fbb0p+4", "0x1.cb5bf955a3c70p+4"],
    ),
    ("general", "L3/2"): (
        "0x1.89b599341afebp+1", "grid",
        {
            (1, 1): "0x1.0000000000000p+1",
            (1, 2): "0x1.1e3779b97f4a8p+1",
            (2, 1): "0x1.0000000000000p-1",
            (2, 2): "0x1.0000000000000p+0",
            (2, 3): "0x1.0000000000000p-2",
        },
        ["0x1.8c4dacc9a0d7fp+6", "0x1.97f1bbcdcbfa5p+6"],
    ),
    ("general", "LZ"): (
        "0x1.448e05bc8f7c5p+1", "grid",
        {
            (1, 1): "0x1.a0d35479b5b27p+0",
            (1, 2): "0x1.d2066bf90a0b2p+0",
            (2, 1): "0x1.a0d35479b5b27p-2",
            (2, 2): "0x1.a0d35479b5b27p-1",
            (2, 3): "0x1.a0d35479b5b27p-3",
        },
        ["0x1.42c2ef892cc1bp+6", "0x1.4c1cca04bd40bp+6"],
    ),
    ("empty", "L3/2"): (
        "0x0.0p+0", "orthant",
        {},
        ["0x0.0p+0", "0x0.0p+0"],
    ),
    ("empty", "LZ"): (
        "0x0.0p+0", "orthant",
        {},
        ["0x0.0p+0", "0x0.0p+0"],
    ),
}


@pytest.mark.parametrize("name", list(POLYNOMIALS))
def test_synthesize_keeps_its_bytes_and_dtype(name):
    f = POLYNOMIALS[name]
    values = synthesize(f, GridSpec.minimal_for(f.bandwidth())).values
    assert (str(values.dtype), hashlib.sha256(values.tobytes()).hexdigest()) == SYNTHESIZED[name]


@pytest.mark.parametrize("key", list(PINNED))
def test_row_api_keeps_every_bit(key):
    name, space_name = key
    f = POLYNOMIALS[name]
    grid = GridSpec.minimal_for(f.bandwidth())
    space = spaces(f.m)[space_name]
    params = BesovParams(space, tuple(range(1, f.m + 1)), (2.0,) + (float("inf"),) * (f.m - 1))
    got = (
        grid_norm(f, grid, space).hex(),
        grid_route(f, grid, space),
        {s: v.hex() for s, v in block_norms(f, grid, space).items()},
        [besov_functional(f, params, grid, exact).hex() for exact in (True, False)],
    )
    assert got == PINNED[key]
    assert list(got[2]) == list(PINNED[key][2])  # block_rows order


def test_the_cases_take_every_route_and_both_kinds_of_block():
    routes = {route for _, route, _, _ in PINNED.values()}
    assert routes == {"product", "orthant", "grid"}
    kinds = {
        name: {isinstance(b, list) for _, b in f.blocks.values()}
        for name, f in POLYNOMIALS.items()
    }
    assert kinds["symmetric-2d"] == kinds["symmetric-3d"] == {True, False}
    assert kinds["products-2d"] == kinds["held-axis"] == {True} and kinds["empty"] == set()
    assert [f.sign_symmetric for f in POLYNOMIALS.values()] == [True] * 4 + [False] * 2 + [True]
