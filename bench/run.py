"""Benchmark of lzcross: named workloads through the public `lzcross.cli.main`.

Usage (from the repository root):

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--save FILE]
  python3 bench/run.py --workload all ...          # every workload, one after another
  python3 bench/run.py --workload NAME --write-reference

Every sample is a fresh `python3 bench/child.py` process that imports lzcross
from `src/` of this checkout and calls `lzcross.cli.main` once per invocation
of the workload, so each sample pays the set-up a command-line user pays.
Child processes run with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1
and lzcross's own `--threads` at its default of 1.

End-to-end metrics (--trace 0), each the median over the samples of one run:
  run_s        wall seconds inside cli.main, summed over the workload's invocations
  cpu_s        process CPU seconds over the same interval
  peak_rss_mb  peak resident memory of the sample's process (os.wait4 on that child)
  setup_s      spawn until lzcross is imported and ready to call main
run_s, cpu_s and setup_s are reported in calibrated seconds.  The speed of a
shared host drifts by tens of percent within half a minute, so a helper process
(bench/calib.py) times an interpreter kernel and a numpy kernel before the first
spawn and after every spawn.  Each sample's seconds are divided by its slowdown:
the mean kernel times of the calibrations before and after it, each over its
value in CAL_REF_S, weighted by the workload's interpreter share (the
interpreter's part of its profile; SETUP_INTERP_SHARE for set-up).  The raw
medians are printed beside the calibrated ones.
The human-readable lines also give a high percentile, the sample count and
failed_frac, the failed samples over those attempted.  A sample fails on a
nonzero exit, a FAIL verdict, or an output off the stored reference by more
than RTOL; byte identity with the reference is reported apart and is not a
failure.

--trace 1 runs one untraced sample, then samples traced by bench/layers.py,
then one sample under cProfile (kept out of the timed samples, since cProfile
doubles the run time), and reports the per-layer metrics.

Workloads are fixed parameter sets with no random inputs; the seed only
permutes the order of the lemma checks.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import LAYER_METRICS  # bench/ is sys.path[0] when run as a script

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PARAMS = BENCH / "params"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".bench_work"

RTOL = 1e-9  # relative tolerance of an output value against the reference
SETUP_SPAWNS = 5  # import-only processes per run, on top of one per sample
CHILD_TIMEOUT_S = 150
# median seconds of bench/calib.py's (interpreter, numpy) kernels on the 2-core Xeon
# VM of bench/results/BENCH_baseline.json, where a calibrated second is about a raw one
CAL_REF_S = (0.045, 0.085)
SETUP_INTERP_SHARE = 0.5  # Python imports: bytecode, and shared libraries loaded
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
UNITS = {
    **LAYER_METRICS,
    **END_TO_END,
    "trace.run_s": "s",
    "trace.overhead_frac": "ratio",
}


def _rate(params: str, *extra: str) -> list[tuple[str, list[str]]]:
    return [("theorem1", ["theorem1", "rate", "--params", str(PARAMS / params), *extra])]


def _lemmas() -> list[tuple[str, list[str]]]:
    cases = [(1, "1"), (1, "2"), (1, "3"), (2, "decay"), (2, "growth"), (3, None), (4, None)]
    out = []
    for lemma_id, case in cases:
        argv = ["lemma", "check", "--id", str(lemma_id)]
        tag = f"lemma{lemma_id}"
        if case is not None:
            argv += ["--case", case]
            tag += f"-{case}"
        out.append((tag, argv))
    return out


# name -> (why, interpreter share, invocations as (tag, argv without --out)); the
# share is the part of the workload's cProfile spent outside numpy, to a quarter
WORKLOADS = {
    "rate-1d": (
        "criterion-8 univariate rate at the default range 6:16; per-frequency Python dominates",
        1.0,
        _rate("rate-1d.json"),
    ),
    "rate-2d-l2": (
        "criterion-9 bivariate plain-L2 rate 6:14; exact normalizer FFT at n=12, "
        "triangle bound above, sets peak memory",
        0.5,
        _rate("rate-2d-l2.json", "--range", "6:14"),
    ),
    "rate-2d-lz": (
        "bivariate Lorentz-Zygmund target 6:12; grid synthesis and rearrangement of "
        "function and residual at every level",
        0.25,
        _rate("rate-2d-lz.json", "--range", "6:12"),
    ),
    "lemmas": (
        "lemma checks 1-4, all 7 cases at default ranges; asymptotics and fixed cli "
        "costs only, bypasses spectral and norms",
        0.5,
        _lemmas(),
    ),
}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


# -- host speed --------------------------------------------------------------


class Calibrator:
    """The bench/calib.py helper process, which times its kernels on request."""

    def __enter__(self) -> "Calibrator":
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "calib.py")], cwd=ROOT, env=_child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def kernels(self) -> tuple[float, float]:
        """(interpreter, numpy) kernel seconds, timed now."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError(f"bench/calib.py exited with {self.proc.wait()}")
        interp, numpy = json.loads(line)
        return interp, numpy

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def slowdown(sample: dict, interp_share: float) -> float:
    """How much slower than CAL_REF_S the host ran around `sample`."""
    interp, numpy = sample["cal_s"]
    return interp_share * interp / CAL_REF_S[0] + (1 - interp_share) * numpy / CAL_REF_S[1]


# -- child processes -------------------------------------------------------


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("LZCROSS_")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(mode: str, invocations: list[dict], workdir: Path) -> dict:
    """Run one child process; return its result plus set-up time and rusage."""
    workdir.mkdir(parents=True, exist_ok=True)
    spec_path, result_path, log_path = (workdir / n for n in ("spec.json", "result.json", "log.txt"))
    spec = {"mode": mode, "src": str(SRC), "invocations": invocations, "result": str(result_path)}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(log_path, "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=log,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.monotonic() - t0
    out = {"exit": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode == 0 and result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        out.update(result)
        out["setup_s"] = result["ready"] - t0
    else:
        out["log"] = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
    return out


def _invocations(workload: str, seed: int, sample_dir: Path) -> list[dict]:
    order = list(WORKLOADS[workload][2])
    random.Random(seed).shuffle(order)
    return [
        {"tag": tag, "out": str(sample_dir / tag), "argv": ["--out", str(sample_dir / tag), *argv]}
        for tag, argv in order
    ]


# -- output check ----------------------------------------------------------


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b or math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _same_within_tolerance(name: str, got: bytes, ref: bytes) -> bool:
    if name.endswith(".csv"):
        parse = lambda data: [  # noqa: E731
            [_cell(c) for c in row] for row in csv.reader(io.StringIO(data.decode("utf-8")))
        ]
    else:
        parse = lambda data: json.loads(data)  # noqa: E731
    return _close(parse(got), parse(ref))


def check_outputs(workload: str, tag: str, out_dir: Path) -> tuple[bool, bool, str]:
    """(within tolerance, byte-identical, note) for one invocation's output files."""
    ref_dir = REFERENCE / workload / tag
    want = sorted(p.name for p in ref_dir.iterdir())
    got = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if "manifest.json" not in got:
        return False, False, f"{tag}: no manifest.json"
    got.remove("manifest.json")
    if got != want:
        return False, False, f"{tag}: files {got} instead of {want}"
    within = identical = True
    note = ""
    for name in want:
        data, ref = (out_dir / name).read_bytes(), (ref_dir / name).read_bytes()
        identical = identical and data == ref
        if not _same_within_tolerance(name, data, ref):
            within = False
            note = f"{tag}/{name} differs from the reference beyond rtol={RTOL}"
    return within, identical, note


def run_sample(workload: str, seed: int, mode: str, sample_dir: Path) -> dict:
    invs = _invocations(workload, seed, sample_dir)
    try:
        res = spawn(mode, [{"argv": i["argv"], "out": i["out"]} for i in invs], sample_dir)
        return _judge(workload, mode, invs, res)
    finally:
        shutil.rmtree(sample_dir, ignore_errors=True)


def _judge(workload: str, mode: str, invs: list[dict], res: dict) -> dict:
    sample = {"mode": mode, "wall_s": res["wall_s"], "peak_rss_mb": res["peak_rss_mb"],
              "ok": False, "identical": False}
    if "ready" not in res:
        sample["note"] = f"child exited with {res['exit']}: {res.get('log', '').strip()}"
        return sample
    calls = res["invocations"]
    sample["setup_s"] = res["setup_s"]
    sample["run_s"] = math.fsum(c["run_s"] for c in calls)
    sample["cpu_s"] = math.fsum(c["cpu_s"] for c in calls)
    for key in ("layers", "profile_top10", "patched_sites"):
        if key in res:
            sample[key] = res[key]
    notes = []
    identical = True
    for inv, call in zip(invs, calls):
        if call["rc"] != 0 or "FAIL" in call["stdout"].split():
            notes.append(f"{inv['tag']}: exit {call['rc']}, stdout {call['stdout'].strip()!r}")
            identical = False
            continue
        within, same, note = check_outputs(workload, inv["tag"], Path(inv["out"]))
        identical = identical and same
        if not within:
            notes.append(note)
    sample["ok"] = not notes
    sample["identical"] = identical
    if notes:
        sample["note"] = "; ".join(notes)
    return sample


# -- a run -----------------------------------------------------------------


def _budget_left(start: float, seconds: float, samples: list[dict], reserve: float = 1.0) -> bool:
    """True while `reserve` more samples of typical length still fit in the run."""
    typical = statistics.median(s["wall_s"] + sum(s.get("cal_s", ())) for s in samples)
    return time.monotonic() - start + reserve * typical <= seconds


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    start = time.monotonic()
    counter = itertools.count()

    def fresh() -> Path:
        return workdir / f"s{next(counter)}"

    warm = spawn("setup", [], fresh())  # fills the bytecode cache; not counted
    if "ready" not in warm:
        raise SetupError(f"lzcross does not start: {warm.get('log', '').strip()}")
    run = {"workload": workload, "seed": seed, "seconds": seconds,
           "environment": warm["environment"], "setup_only": [], "samples": []}
    samples = run["samples"]
    if trace:
        samples.append(run_sample(workload, seed, "run", fresh()))
        while True:
            samples.append(run_sample(workload, seed, "trace", fresh()))
            traced = [s for s in samples if s["mode"] == "trace"]
            # one more traced sample plus the profiled one, which takes about two
            if not _budget_left(start, seconds, traced, reserve=3.0):
                break
        samples.append(run_sample(workload, seed, "profile", fresh()))
    else:
        with Calibrator() as cal:
            before = cal.kernels()

            def calibrated(sample: dict) -> dict:
                """Give `sample` the mean kernel times of the calibrations around it."""
                nonlocal before
                after = cal.kernels()
                sample["cal_s"] = [(b + a) / 2 for b, a in zip(before, after)]
                before = after
                return sample

            for _ in range(SETUP_SPAWNS):
                res = calibrated(spawn("setup", [], fresh()))
                if "setup_s" in res:
                    run["setup_only"].append({k: res[k] for k in ("setup_s", "cal_s")})
            while True:
                samples.append(calibrated(run_sample(workload, seed, "run", fresh())))
                if not _budget_left(start, seconds, samples):
                    break
    run["elapsed_s"] = time.monotonic() - start
    return run


def _high(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples above it, else the maximum."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    pct = math.floor(100 * (1 - 10 / n))
    return f"p{pct}", statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarize(run: dict, trace: bool) -> dict:
    """Metric values of one run, plus the lines that describe it."""
    samples = run["samples"]
    failed = sum(not s["ok"] for s in samples)
    timed = [s for s in samples if s["mode"] == "run" and "run_s" in s]
    lines = [
        f"workload {run['workload']} seed {run['seed']}: {len(samples)} samples in "
        f"{run['elapsed_s']:.1f} s, failed_frac {failed}/{len(samples)} = {failed / len(samples):.3f}, "
        f"byte-identical outputs {sum(s['identical'] for s in samples)}/{len(samples)}"
    ]
    lines += [f"  FAILED: {s['note']}" for s in samples if not s["ok"]]
    metrics: dict[str, float] = {}
    if trace:
        traced = [s for s in samples if s["mode"] == "trace" and "layers" in s]
        if traced:
            for name in traced[0]["layers"]:
                metrics[name] = statistics.median(s["layers"][name] for s in traced)
            trace_run = statistics.median(s["run_s"] for s in traced)
            metrics["trace.run_s"] = trace_run
            if timed:
                metrics["trace.overhead_frac"] = trace_run / timed[0]["run_s"] - 1.0
            lines.append(f"  traced samples {len(traced)} ({traced[0]['patched_sites']} lookup sites "
                         f"wrapped); traced run_s {trace_run:.4f} s"
                         + (f", untraced {timed[0]['run_s']:.4f} s" if timed else ""))
        for s in samples:
            if "profile_top10" in s:
                lines.append("  cProfile top-10 by own time (profiled sample, not timed):")
                lines += [
                    f"    {r['tottime_s']:8.3f} s own {r['cumtime_s']:8.3f} s cum "
                    f"{r['ncalls']:>9} calls  {r['function']}"
                    for r in s["profile_top10"]
                ]
    elif timed:
        share = WORKLOADS[run["workload"]][1]
        cals = [s["cal_s"] for s in run["setup_only"] + timed]
        lines.append(
            "  calibration  median kernels "
            + ", ".join(f"{statistics.median(c[i] for c in cals):.4f}" for i in (0, 1))
            + f" s (reference {CAL_REF_S[0]}, {CAL_REF_S[1]}), interpreter share {share}"
        )
        sources = {"run_s": timed, "cpu_s": timed, "peak_rss_mb": timed,
                   "setup_s": run["setup_only"] + timed}
        for name, source in sources.items():
            raw = [s[name] for s in source]
            if name == "peak_rss_mb":
                values = raw
            else:
                w = SETUP_INTERP_SHARE if name == "setup_s" else share
                values = [s[name] / slowdown(s, w) for s in source]
            label, high = _high(values)
            metrics[name] = statistics.median(values)
            lines.append(
                f"  {name:<12} median {metrics[name]:.4f} {END_TO_END[name]:<3} "
                f"{label} {high:.4f}  n={len(values)}"
                + ("" if values is raw else f"  (raw median {statistics.median(raw):.4f})")
            )
    return {"attempted": len(samples), "failed": failed, "metrics": metrics, "lines": lines}


# -- reporting ---------------------------------------------------------------


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "platform": platform.platform(),
        "thread_env": THREAD_ENV,
    }


def save(path: Path, mach: dict, run: dict, summary: dict, trace: bool) -> None:
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    doc["machine"] = mach
    doc.setdefault("workloads", {}).setdefault(run["workload"], {})[
        "traced" if trace else "untraced"
    ] = {
        **run,
        # per-sample layer values are summarized in metrics
        "samples": [{k: v for k, v in s.items() if k != "layers"} for s in run["samples"]],
        "metrics": summary["metrics"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def write_reference(workload: str, workdir: Path) -> None:
    sample_dir = workdir / "reference"
    invs = _invocations(workload, 0, sample_dir)
    res = spawn("run", [{"argv": i["argv"], "out": i["out"]} for i in invs], sample_dir)
    if "invocations" not in res or any(c["rc"] != 0 for c in res["invocations"]):
        raise SetupError(f"{workload}: reference run failed: {res}")
    shutil.rmtree(REFERENCE / workload, ignore_errors=True)
    for inv in invs:
        dest = REFERENCE / workload / inv["tag"]
        dest.mkdir(parents=True)
        for path in sorted(Path(inv["out"]).iterdir()):
            if path.name != "manifest.json":
                shutil.copyfile(path, dest / path.name)
    print(f"reference for {workload} written to {REFERENCE / workload}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--save", type=Path, help="merge the full results into this JSON file")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this checkout's outputs as the reference")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = WORK / str(os.getpid())
    try:
        if not (SRC / "lzcross" / "cli.py").is_file():
            raise SetupError(f"no lzcross sources at {SRC}")
        if args.write_reference:
            for name in names:
                write_reference(name, workdir)
            return 0
        mach = machine()
        # the calibration kernels and the samples, which inherit this, share one CPU
        mach["pinned_cpu"] = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {mach["pinned_cpu"]})
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            run = measure(name, args.seed, args.seconds, bool(args.trace), workdir / name)
            summary = summarize(run, bool(args.trace))
            env = run["environment"]
            print(f"machine: nproc {mach['nproc']} ({mach['nproc_usable']} usable, "
                  f"runs pinned to CPU {mach['pinned_cpu']}), "
                  f"cpu {mach['cpu']!r}, MemTotal {mach['mem_total_mb']} MB, "
                  f"python {env['python']}, numpy {env['numpy']}, blas {env['blas']} "
                  f"with {env['blas_threads']} threads ({', '.join(f'{k}={v}' for k, v in THREAD_ENV.items())})")
            print("\n".join(summary["lines"]))
            if args.save:
                save(args.save, mach, run, summary, bool(args.trace))
            total["attempted"] += summary["attempted"]
            total["failed"] += summary["failed"]
            prefix = "" if len(names) == 1 else f"{name}/"
            for metric, value in summary["metrics"].items():
                total["metrics"][prefix + metric] = {"value": value, "unit": UNITS[metric]}
        total["correct"] = total["failed"] == 0
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
