"""Host-speed kernels for bench/run.py, run in a helper process of their own.

Usage: python3 bench/calib.py

For every line read from standard input, times the two kernels once and
writes one line of JSON, [interpreter_s, numpy_s], to standard output; exits
at end of input.  The first pair is timed before any request, to warm numpy,
and is discarded.

The kernels run apart from bench/run.py because a child's ru_maxrss includes
the peak resident memory of the process that spawned it: arrays held by the
spawning process would show in every sample's peak_rss_mb.
"""

import sys
import time

import numpy as np

_RNG = np.random.default_rng(12345)
_REAL = _RNG.random(1 << 20)
_COMPLEX = _RNG.random(1 << 20) + 1j * _RNG.random(1 << 20)
_TERMS = {(i >> 8, -(i & 255)): complex(i, 1) for i in range(40_000)}


def interpreter_kernel() -> float:
    """Seconds for dict work on tuple keys and complex values, as lzcross's
    per-frequency code does."""
    t0 = time.perf_counter()
    clean = {}
    for k, a in _TERMS.items():
        kk = tuple(int(c) for c in k)
        a = complex(a)
        if a != 0:
            clean[kk] = a
    return time.perf_counter() - t0


def numpy_kernel() -> float:
    """Seconds to fault in a fresh 64 MiB array, then sort and FFT arrays
    larger than the CPU caches, as lzcross's grid code does."""
    t0 = time.perf_counter()
    np.ones(1 << 23)
    np.sort(_REAL)
    np.fft.fft(_COMPLEX)
    return time.perf_counter() - t0


def main() -> int:
    interpreter_kernel()
    numpy_kernel()
    for _ in sys.stdin:
        print(f"[{interpreter_kernel()!r}, {numpy_kernel()!r}]", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
