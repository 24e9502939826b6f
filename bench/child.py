"""One benchmark sample, run in a fresh process by bench/run.py.

Usage: python3 bench/child.py SPEC_JSON

The first statement imports lzcross.cli; the moment it returns is written out
as `ready` (CLOCK_MONOTONIC, shared with the parent), so the parent can take
set-up time as ready minus its own clock reading before the spawn.

SPEC_JSON holds:
  mode         "setup" (import and exit), "run", "trace" or "profile"
  src          the directory lzcross must be imported from
  invocations  list of {"argv": [...], "out": DIR}; each argv goes to cli.main
  result       path of the JSON file this process writes
"""

import time

import lzcross.cli

READY = time.monotonic()

import cProfile  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def tree_bytes(root: str) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def call_main(argv: list[str], stdout: io.StringIO) -> int:
    with contextlib.redirect_stdout(stdout):
        try:
            return lzcross.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 2


def top_functions(profile: cProfile.Profile, src: str, count: int = 10) -> list[dict]:
    stats = pstats.Stats(profile).stats
    rows = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)[:count]
    out = []
    for (filename, line, func), (_, ncalls, tottime, cumtime, _) in rows:
        where = os.path.relpath(filename, src) if filename.startswith(src) else "/".join(
            Path(filename).parts[-2:]
        )
        out.append({"function": f"{where}:{line}({func})", "ncalls": ncalls,
                    "tottime_s": tottime, "cumtime_s": cumtime})
    return out


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    loaded = os.path.realpath(lzcross.cli.__file__)
    if not loaded.startswith(src + os.sep):
        print(f"lzcross was imported from {loaded}, not from {src}", file=sys.stderr)
        return 4
    result: dict = {"ready": READY, "invocations": []}
    mode = spec["mode"]
    if mode == "setup":
        result["environment"] = environment()
    else:
        tracer = profile = None
        if mode == "trace":
            from layers import Tracer  # bench/ is sys.path[0] when run as a script

            tracer = Tracer()
            result["patched_sites"] = tracer.install()
        elif mode == "profile":
            profile = cProfile.Profile()
        for inv in spec["invocations"]:
            stdout = io.StringIO()
            if profile is not None:
                profile.enable()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            rc = call_main(inv["argv"], stdout)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if profile is not None:
                profile.disable()
            if tracer is not None:
                tracer.bytes_written += tree_bytes(inv["out"])
            result["invocations"].append(
                {"rc": rc, "run_s": wall, "cpu_s": cpu, "stdout": stdout.getvalue()}
            )
        if tracer is not None:
            result["layers"] = tracer.metrics()
        if profile is not None:
            result["profile_top10"] = top_functions(profile, src)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
