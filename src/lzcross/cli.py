"""Command-line front end: reproducible experiments with file-based outputs.

Every command runs through run(kind, options, out_dir), which writes a
manifest listing each emitted file with its content hash plus the
pass/fail verdicts, with status "ok".  A run that fails after its arguments
are parsed writes a manifest with status "error", the message and the exit
code instead.  Exit status: 0 when all verdicts pass, 1 when a verdict
fails, 2 for configuration or usage errors, 3 for unexpected faults, 4 for
numerical failures.  Identical configs produce byte-identical CSV bodies.

Config files are flat JSON; numeric fields accept exact rationals as
strings like "2/3", and a key the experiment kind does not read is a
configuration error.  Environment variables LZCROSS_CONFIG and LZCROSS_OUT
mirror the global flags.  Levels run one after another in one process; the
rows of `approx` are independent, so disjoint ranges may run as separate
processes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import __version__
from .asymptotics import (
    lemma1_interior_sum,
    lemma1_reference,
    lemma1_sum,
    lemma2_reference,
    lemma2_sum,
    lemma3_lhs,
    lemma3_reference,
    lemma4_lhs,
    lemma4_reference,
    ratio_scan,
)
from .classes import (
    BesovParams,
    TheoremParams,
    class_functional,
    extremal_blocks,
    level_bandwidth,
)
from .experiments import (
    DEFAULT_MAX_GRID_CELLS,
    approx_error_scan,
    theorem1_rate_experiment,
)
from .indexsets import (
    Anisotropy,
    as_fraction,
    as_integer,
    as_number,
    cross_cardinality,
    hyperbolic_cross,
    indices_to_json_dict,
)
from .norms import GridFunction, MixedSpaceParams, anisotropic_norm
from .spectral import GridSpec, SpectralFunction


class ConfigError(Exception):
    """Invalid or incomplete experiment configuration."""


@dataclass
class RunManifest:
    kind: str
    version: str
    config: dict
    wall_seconds: float
    outputs: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    status: str = "ok"

    def to_json_dict(self) -> dict:
        """The fields by name, as manifest.json holds them, uncopied:
        _write_json rebuilds every nested dict and list."""
        return {"kind": self.kind, "version": self.version, "config": self.config,
                "wall_seconds": self.wall_seconds, "outputs": self.outputs,
                "verdicts": self.verdicts, "summary": self.summary,
                "stats": self.stats, "status": self.status}


# -- small parsing helpers ----------------------------------------------------


def parse_range(text: str) -> list[int]:
    """Parse "a:b:linear" (step 1) or "a:b:dyadic" (doubling); default linear."""
    parts = str(text).split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"bad range {text!r}; expected a:b:dyadic|linear")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad range bounds in {text!r}") from exc
    mode = parts[2] if len(parts) == 3 else "linear"
    if a < 1 or b < a:
        raise ConfigError(f"range bounds must satisfy 1 <= a <= b, got {text!r}")
    if mode == "linear":
        return list(range(a, b + 1))
    if mode == "dyadic":
        out = []
        n = a
        while n <= b:
            out.append(n)
            n *= 2
        return out
    raise ConfigError(f"unknown range mode {mode!r}")


def _as_list(value) -> list:
    if isinstance(value, str):
        return [part.strip() for part in value.split(",")]
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _rational(value) -> Fraction:
    """An exact rational whose float is finite."""
    out = as_fraction(str(value))
    try:
        float(out)
    except OverflowError:
        raise ConfigError(f"{value!r} is beyond the float range") from None
    return out


def _option(o: dict, key: str, default, null: str = ""):
    """o[key], or default if absent; a null value or list entry is refused,
    naming key, with null appended to the message."""
    value = o.get(key, default)
    if value is None or isinstance(value, list) and None in value:
        raise ConfigError(f"{key} must not be null{null}")
    return value


def _floats(o: dict, key: str, default, null: str = "") -> list[float]:
    return [
        math.inf if str(v).lower() in ("inf", "infinity") else float(_rational(v))
        for v in _as_list(_option(o, key, default, null))
    ]


def _rationals(o: dict, key: str, default=(), null: str = "") -> list[Fraction]:
    return [_rational(v) for v in _as_list(_option(o, key, default, null))]


def _json_safe(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):  # JSON has no inf or nan: "inf", "-inf", "nan"
        return value if math.isfinite(value) else str(float(value))
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(_json_safe(doc), indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    import csv

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _threshold(o: dict, key: str, default: float) -> float:
    """A verdict threshold: a finite number > 0, since no other makes a verdict."""
    value = as_number(o.get(key, default), key)
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{key} must be a finite number > 0, got {value!r}")
    return value


def _integer(o: dict, key: str, default: int) -> int:
    return as_integer(o.get(key, default), key)


def _grid_budget(o: dict) -> int:
    value = _integer(o, "max_grid_cells", DEFAULT_MAX_GRID_CELLS)
    if value < 1:
        raise ConfigError(f"max_grid_cells must be at least 1, got {value}")
    return value


def _out_path(out_dir: Path, name: str) -> Path:
    if not isinstance(name, str):
        raise ConfigError(f"out must be a file name, got {name!r}")
    p = Path(name)
    return p if p.is_absolute() else out_dir / p


# -- experiment runners --------------------------------------------------------

# lemma id -> (default range, default relation, cases), and case -> (lhs, rhs,
# the parameters the case reads with their defaults, the fixed parameters it
# passes and echoes but does not read); a lemma without cases has the one
# case None.  The default of a per-axis list is its value on each axis of
# gamma, and a gamma_prime of None means gamma.  lhs and rhs take the level
# and the parameters by name and look each sum up by its name in this module
# when called, so a wrapper bound to that name sees every call.
_LEMMAS: dict[int, tuple] = {
    1: ("16:4096:dyadic", "two-sided", {
        1: (lambda l, **p: lemma1_sum(l, **p), lambda l, **p: lemma1_reference(l, **p),
            {"alpha": 0.25, "beta": 0.25}, {}),
        2: (lambda l, **p: lemma1_sum(l, **p), lambda l, **p: lemma1_reference(l, **p),
            {"alpha": 1.0, "beta": 1.0}, {}),
        3: (lambda l, alpha, beta: lemma1_interior_sum(l, beta),
            lambda l, **p: lemma1_reference(l, **p), {"beta": 0.5}, {"alpha": 1.0}),
    }),
    2: ("8:256:dyadic", "two-sided", {
        "decay": (lambda n, **p: lemma2_sum(n, mode="decay", **p),
                  lambda n, **p: lemma2_reference(n, mode="decay", **p),
                  {"beta": 1.0, "theta": 1.0, "lam1": -0.5, "lam2": 2.0}, {}),
        "growth": (lambda n, **p: lemma2_sum(n, mode="growth", **p),
                   lambda n, **p: lemma2_reference(n, mode="growth", **p),
                   {"beta": 1.0, "theta": 2.0, "lam1": 1.0, "lam2": -1.0}, {}),
    }),
    3: ("4:48:linear", "upper", {None: (
        lambda n, **p: lemma3_lhs(n, **p), lambda n, **p: lemma3_reference(n, **p),
        {"gamma": ["1", "1"], "gamma_prime": None, "lams": 0.0, "thetas": 2.0,
         "alpha": 1.0}, {})}),
    4: ("2:64:linear", "lower", {None: (
        lambda n, **p: lemma4_lhs(n, **p), lambda n, gamma, **p: lemma4_reference(n, **p),
        {"gamma": ["1", "1"], "lams": 0.0, "epsilons": 1.0, "alpha": 1.0}, {})}),
}
_LEMMA_KEYS = frozenset({"case"}.union(
    *(case[2] for *_, cases in _LEMMAS.values() for case in cases.values())
))


def _run_lemma_check(o: dict, out_dir: Path, manifest: RunManifest) -> list[Path]:
    lemma_id = _integer(o, "id", 0)
    if lemma_id not in _LEMMAS:
        raise ConfigError("lemma id must be 1, 2, 3, or 4")
    default_range, default_relation, cases = _LEMMAS[lemma_id]
    case = next(iter(cases))
    if case is not None:
        case = (_integer(o, "case", case) if isinstance(case, int)
                else str(o.get("case", case)))
        if case not in cases:
            choices = ", ".join(map(str, cases))
            raise ConfigError(f"lemma {lemma_id} case must be one of {choices}")
    lhs, rhs, defaults, fixed = cases[case]
    read = set(defaults) if case is None else {"case", *defaults}
    unread = sorted(_LEMMA_KEYS.intersection(o) - read)
    if unread:
        which = f"lemma {lemma_id}" + ("" if case is None else f" case {case}")
        raise ConfigError(f"{which} does not read {', '.join(unread)}")
    params = dict(fixed)
    null = "; only gamma_prime: null means gamma"
    for key, default in defaults.items():  # gamma first: the lists take its arity
        if key == "gamma_prime" and o.get(key) is None:
            params[key] = params["gamma"]
        elif key in ("gamma", "gamma_prime"):
            params[key] = Anisotropy.of(_rationals(o, key, default, null))
        elif key in ("lams", "thetas", "epsilons"):
            params[key] = _floats(o, key, [default] * params["gamma"].m, null)
        else:
            params[key] = float(_rational(_option(o, key, default, null)))
    ns = parse_range(o.get("range", default_range))
    relation = o.get("relation", default_relation)
    if relation not in ("two-sided", "lower", "upper"):
        raise ConfigError("relation must be two-sided, lower, or upper")
    spread_threshold = _threshold(o, "spread_threshold", 10.0)
    lower_threshold = _threshold(o, "lower_threshold", 0.1)
    upper_threshold = _threshold(o, "upper_threshold", 10.0)
    tails: list[dict] = []  # lemma 3's series per level, for the manifest only
    record = {"record": tails} if lemma_id == 3 else {}
    report = ratio_scan(
        lambda n: lhs(n, **params, **record), lambda n: rhs(n, **params), ns,
        relation=relation,
    )
    passed = report.verdict(
        spread_threshold=spread_threshold,
        lower_threshold=lower_threshold,
        upper_threshold=upper_threshold,
    )
    out_csv = _out_path(out_dir, o.get("out", f"lemma{lemma_id}_report.csv"))
    _write_csv(out_csv, ["n", "lhs", "rhs", "ratio"], report.rows)
    summary_path = out_csv.with_name(out_csv.stem + ".summary.json")
    spread = report.spread
    _write_json(
        summary_path,
        {
            "spread": spread if math.isfinite(spread) else None,
            "min_ratio": report.min_ratio,
            "max_ratio": report.max_ratio,
            "verdict": "within" if passed else "exceeded",
        },
    )
    manifest.verdicts.append(
        {
            "name": f"lemma{lemma_id} {relation} ratio window",
            "passed": passed,
            "detail": {
                "spread": spread if math.isfinite(spread) else None,
                "min_ratio": report.min_ratio,
                "max_ratio": report.max_ratio,
                "spread_threshold": spread_threshold,
                "lower_threshold": lower_threshold,
                "upper_threshold": upper_threshold,
            },
        }
    )
    echo = {"id": lemma_id, "case": case, **params}
    echo = {k: getattr(v, "weights", v) for k, v in echo.items() if v is not None}
    manifest.summary = {"params": _json_safe(echo), "points": len(ns)}
    if tails:
        manifest.stats = {"levels": tails}
    return [out_csv, summary_path]


def _run_cross_gen(o: dict, out_dir: Path, manifest: RunManifest) -> list[Path]:
    if "gamma" not in o:
        raise ConfigError("cross-gen requires gamma")
    gamma = Anisotropy.of(_rationals(o, "gamma"))
    n = as_fraction(str(o.get("n", 1)))
    budget = DEFAULT_MAX_GRID_CELLS  # counted before any frequency is listed
    if cross_cardinality(n, gamma, cap=budget) > budget:
        raise ConfigError(f"the cross at n={n} holds more than {budget} frequencies")
    indices = hyperbolic_cross(n, gamma)
    out = _out_path(out_dir, o.get("out", "cross.json"))
    _write_json(out, indices_to_json_dict(gamma.m, indices))
    manifest.summary = {"count": len(indices), "m": gamma.m, "n": str(n)}
    return [out]


def _space_from_options(o: dict, m: int, prefix: str) -> MixedSpaceParams:
    p = _rationals(o, f"{prefix}p", ["2"] * m)
    alpha = _floats(o, f"{prefix}alpha", [0.0] * len(p))
    tau = _floats(o, f"{prefix}tau", [float(v) for v in p])
    if not (len(p) == len(alpha) == len(tau) == m):
        raise ConfigError(f"{prefix or 'space'} parameter lists must have length {m}")
    return MixedSpaceParams.of(p, alpha, tau)


def _run_norm(o: dict, out_dir: Path, manifest: RunManifest) -> list[Path]:
    if "grid" not in o:
        raise ConfigError("norm requires a grid file")
    with open(o["grid"], "r", encoding="utf-8") as fh:
        g = GridFunction.from_json_dict(json.load(fh))
    params = _space_from_options(o, g.m, "")
    value = anisotropic_norm(g, params)
    print(f"{value:.12f}")
    manifest.summary = {"norm": value, "m": g.m, "shape": list(g.shape)}
    return []


def _run_approx_rate(o: dict, out_dir: Path, manifest: RunManifest) -> list[Path]:
    if "spectral" not in o:
        raise ConfigError("approx-rate requires a spectral file")
    with open(o["spectral"], "r", encoding="utf-8") as fh:
        f = SpectralFunction.from_json_dict(json.load(fh))
    if "gamma" not in o:
        raise ConfigError("approx-rate requires gamma")
    gamma = Anisotropy.of(_rationals(o, "gamma"))
    target = _space_from_options(o, f.m, "target_")
    ns = parse_range(o.get("range", "1:8:linear"))
    grid = None
    if "grid" in o:
        grid = GridSpec(tuple(as_integer(v, "grid") for v in _as_list(o["grid"])))
    rows = approx_error_scan(f, gamma, target, ns, grid)
    out = _out_path(out_dir, o.get("out", "approx.csv"))
    _write_csv(out, ["n", "error", "card"], rows)
    manifest.summary = {
        "error_kind": "projection",
        "points": len(rows),
        "grid_free": grid is None,
    }
    return [out]


def _theorem_params(o: dict) -> TheoremParams:
    if "p" not in o or "q" not in o or "r" not in o:
        raise ConfigError("theorem parameters require p, q, and r")
    p = _rationals(o, "p")
    m = len(p)
    source_space = MixedSpaceParams.of(
        p,
        _floats(o, "alpha", [0.0] * m),
        _floats(o, "tau1", [float(v) for v in p]),
    )
    thetas = _floats(o, "thetas", ["inf"] * m)
    source = BesovParams(source_space, tuple(_rationals(o, "r")), tuple(thetas))
    target = MixedSpaceParams.of(
        _rationals(o, "q"),
        _floats(o, "beta", [0.0] * m),
        _floats(o, "tau2", [2.0] * m),
    )
    # no gamma here for a null gamma_prime to stand for
    gamma_prime = Anisotropy.of(_rationals(o, "gamma_prime", ["1"] * m))
    return TheoremParams(source, target, gamma_prime)


def _run_extremal(o: dict, out_dir: Path, manifest: RunManifest) -> list[Path]:
    tp = _theorem_params(o)
    which = _integer(o, "which", 1)
    n = _integer(o, "n", 4)
    blocks = extremal_blocks(n, tp, which)
    # every block may underflow to 0, leaving f empty, bandwidth 0 per axis
    grid = GridSpec.minimal_for(level_bandwidth(blocks) or [0] * tp.m)
    exact = grid.cells <= _grid_budget(o)
    value, _ = class_functional(blocks, grid, tp.source, exact)
    f = SpectralFunction.from_blocks(tp.m, blocks)  # the rows of extremal.json
    out = _out_path(out_dir, o.get("out", "extremal.json"))
    _write_json(out, f.to_json_dict())
    sidecar = out.with_name(out.stem + ".sidecar.json")
    _write_json(sidecar, {"besov": value, "support_size": f.n_terms})
    manifest.summary = {
        "which": which,
        "n": n,
        "besov": value,
        "besov_exact": exact,
        "support_size": f.n_terms,
    }
    return [out, sidecar]


def _run_theorem1_rate(o: dict, out_dir: Path, manifest: RunManifest) -> list[Path]:
    tp = _theorem_params(o)
    ns = parse_range(o.get("range", "6:16:linear"))
    which = _integer(o, "which", 1)
    max_cells = _grid_budget(o)
    spread_threshold = _threshold(o, "spread_threshold", 10.0)
    fit_tolerance = _threshold(o, "fit_tolerance", 0.1)
    result = theorem1_rate_experiment(tp, ns, which=which, max_grid_cells=max_cells)
    out = _out_path(out_dir, o.get("out", "theorem1_rate.csv"))
    _write_csv(
        out,
        ["n", "error", "reference"],
        [(pt.n, pt.error, pt.reference) for pt in result.points],
    )
    rho_star = float(result.derived.rho_star)
    spread = result.report.spread
    spread_ok = result.report.verdict(spread_threshold=spread_threshold)
    slope_ok = abs(result.fit_free.slope - rho_star) <= fit_tolerance
    manifest.verdicts.append(
        {
            "name": "error/rate ratio spread within threshold",
            "passed": spread_ok,
            "detail": {"spread": spread if math.isfinite(spread) else None,
                       "threshold": spread_threshold},
        }
    )
    manifest.verdicts.append(
        {
            "name": "free-slope fit matches the predicted exponent",
            "passed": slope_ok,
            "detail": {"fitted": result.fit_free.slope, "expected": rho_star,
                       "tolerance": fit_tolerance},
        }
    )
    summary = {
        "rho_star": rho_star,
        "mu": result.derived.mu,
        "delta": str(result.derived.delta),
        "tied_axes": list(result.derived.A),
        "hypothesis_margin": result.derived.hypothesis_margin,
        "slope_free": result.fit_free.slope,
        "polylog_free": result.fit_free.polylog,
        "polylog_pinned": result.fit_pinned.polylog,
        "spread": spread if math.isfinite(spread) else None,
        "normalizer_exact": all(pt.normalizer != "bound" for pt in result.points),
    }
    summary_path = out.with_name(out.stem + ".summary.json")
    _write_json(summary_path, summary)
    manifest.summary = summary
    manifest.stats = {
        "levels": [
            {"n": pt.n, "support_size": pt.support_size, "grid_cells": pt.grid_cells,
             "normalizer_exact": pt.normalizer != "bound", "normalizer": pt.normalizer,
             "blocks": pt.blocks, "build_s": pt.build_s, "normalize_s": pt.normalize_s,
             "truncate_s": pt.truncate_s}
            for pt in result.points
        ]
    }
    return [out, summary_path]


_EXTREMAL_KEYS = frozenset(
    "p q r alpha tau1 thetas beta tau2 gamma_prime which n max_grid_cells out".split()
)

# kind -> (runner, the option keys it reads); any other key is a configuration error
_RUNNERS = {
    "lemma-check": (_run_lemma_check, _LEMMA_KEYS.union(
        "id range relation spread_threshold lower_threshold upper_threshold out".split()
    )),
    "cross-gen": (_run_cross_gen, frozenset({"n", "gamma", "out"})),
    "norm": (_run_norm, frozenset({"grid", "p", "alpha", "tau"})),
    "approx-rate": (_run_approx_rate, frozenset(
        "spectral gamma range grid target_p target_alpha target_tau out".split()
    )),
    "extremal": (_run_extremal, _EXTREMAL_KEYS),
    "theorem1-rate": (
        _run_theorem1_rate,
        _EXTREMAL_KEYS - {"n"} | {"range", "spread_threshold", "fit_tolerance"},
    ),
}


def run(kind: str, options: dict, out_dir: Path) -> RunManifest:
    """Execute one experiment, write its outputs and manifest, return the manifest."""
    out_dir = Path(out_dir)
    runner, keys = _RUNNERS[kind]
    unknown = sorted(set(options) - keys)
    if unknown:
        raise ConfigError(f"unknown option for {kind}: {', '.join(unknown)}")
    manifest = RunManifest(
        kind=kind,
        version=__version__,
        config=_json_safe(options),
        wall_seconds=0.0,
    )
    start = time.monotonic()
    outputs = runner(options, out_dir, manifest)
    manifest.wall_seconds = time.monotonic() - start

    def listed(p: Path) -> str:
        try:
            return str(p.relative_to(out_dir))
        except ValueError:
            return str(p)

    manifest.outputs = [
        {"path": listed(p), "sha256": _sha256(p)} for p in outputs
    ]
    _write_json(out_dir / "manifest.json", manifest.to_json_dict())
    return manifest


# -- argument parsing ----------------------------------------------------------


class _Command(argparse.ArgumentParser):
    """The parser of one command, constructed when argparse first hands it
    arguments: __init__ keeps its keywords, and the first parse_known_args
    runs ArgumentParser.__init__ with them and then populate, which adds the
    command's arguments and sub-commands.  An invocation so constructs the
    parser of the command it names alone; the top-level help and usage
    errors read only the names and help of the others."""

    def __init__(self, *, populate, **kwargs) -> None:
        self._deferred = kwargs, populate

    def parse_known_args(self, args=None, namespace=None):
        if self._deferred is not None:
            (kwargs, populate), self._deferred = self._deferred, None
            super().__init__(**kwargs)
            populate(self)
        return super().parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    # one help width for the invocation: argparse would ask the terminal for
    # it each time it makes a formatter, as it does for every argument added
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = argparse.ArgumentParser(
        prog="lzcross",
        description="Hyperbolic-cross approximation experiments and norm evaluation",
        formatter_class=formatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", default=os.environ.get("LZCROSS_CONFIG"),
                        help="JSON config file with experiment options")
    parser.add_argument("--out", dest="out_dir",
                        default=os.environ.get("LZCROSS_OUT", "."),
                        help="output directory (default: current directory)")
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(_Command, formatter_class=formatter),
    )
    sub.add_parser("lemma", help="asymptotic lemma ratio checks",
                   populate=_lemma_arguments)
    sub.add_parser("cross", help="index-set generation", populate=_cross_arguments)
    sub.add_parser("norm", help="mixed norm of grid samples", populate=_norm_arguments)
    sub.add_parser("approx", help="cross-truncation error scan",
                   populate=_approx_arguments)
    sub.add_parser("extremal", help="build a lower-bound extremal function",
                   populate=_extremal_arguments)
    sub.add_parser("theorem1", help="rate experiments", populate=_theorem1_arguments)
    return parser


def _subcommands(command: argparse.ArgumentParser):
    """The sub-commands of command: plain parsers, constructed when added,
    with command's help width."""
    return command.add_subparsers(
        dest="subcommand", required=True,
        parser_class=functools.partial(
            argparse.ArgumentParser, formatter_class=command.formatter_class
        ),
    )


def _lemma_arguments(lemma: argparse.ArgumentParser) -> None:
    check = _subcommands(lemma).add_parser("check")
    check.add_argument("--id", type=int, required=True, choices=[1, 2, 3, 4])
    check.add_argument("--case", help="lemma 1: 1|2|3; lemma 2: decay|growth")
    check.add_argument("--params", help="JSON file with lemma parameters")
    check.add_argument("--range", metavar="A:B:MODE")
    check.add_argument("--relation", choices=["two-sided", "lower", "upper"])
    check.add_argument("--spread-threshold", type=float)
    check.add_argument("--out", metavar="REPORT.CSV")
    check.set_defaults(kind="lemma-check")


def _cross_arguments(cross: argparse.ArgumentParser) -> None:
    gen = _subcommands(cross).add_parser("gen")
    gen.add_argument("--n", required=True, help="level, rational like 5/2 allowed")
    gen.add_argument("--gamma", required=True, help="comma-separated rationals")
    gen.add_argument("--out", metavar="CROSS.JSON")
    gen.set_defaults(kind="cross-gen")


def _norm_arguments(norm: argparse.ArgumentParser) -> None:
    norm.add_argument("--grid", required=True, help="GridFunction JSON file")
    norm.add_argument("--p", help="comma-separated per-axis p")
    norm.add_argument("--alpha", help="comma-separated per-axis alpha")
    norm.add_argument("--tau", help="comma-separated per-axis tau")
    norm.set_defaults(kind="norm")


def _approx_arguments(approx: argparse.ArgumentParser) -> None:
    approx.add_argument("--spectral", required=True, help="SpectralFunction JSON file")
    approx.add_argument("--gamma", required=True)
    approx.add_argument("--range", metavar="A:B:MODE")
    approx.add_argument("--target-p")
    approx.add_argument("--target-alpha")
    approx.add_argument("--target-tau")
    approx.add_argument("--grid", help="comma-separated residual grid shape")
    approx.add_argument("--out", metavar="ERRORS.CSV")
    approx.set_defaults(kind="approx-rate")


def _extremal_arguments(extremal: argparse.ArgumentParser) -> None:
    extremal.add_argument("--which", type=int, choices=[1, 2, 3])
    extremal.add_argument("--n", type=int, required=True)
    extremal.add_argument("--params", help="JSON file with class/target parameters")
    extremal.add_argument("--out", metavar="F.JSON")
    extremal.set_defaults(kind="extremal")


def _theorem1_arguments(theorem1: argparse.ArgumentParser) -> None:
    rate = _subcommands(theorem1).add_parser("rate")
    rate.add_argument("--params", help="JSON file with class/target parameters")
    rate.add_argument("--which", type=int, choices=[1, 2, 3])
    rate.add_argument("--range", metavar="A:B:MODE")
    rate.add_argument("--fit-tolerance", type=float)
    rate.add_argument("--spread-threshold", type=float)
    rate.add_argument("--out", metavar="RATE.CSV")
    rate.set_defaults(kind="theorem1-rate")


# namespace entries that are not experiment options
_NON_OPTIONS = frozenset({"config", "out_dir", "command", "subcommand", "kind", "params"})


def _json_number(text: str) -> float | str:
    """A JSON number as a float, or as its text, for its field to refuse, if not finite."""
    value = float(text)
    return value if math.isfinite(value) else text


def _collect_options(args: argparse.Namespace) -> dict:
    options: dict = {}
    for what, path in (("config", args.config), ("params", getattr(args, "params", None))):
        if not path:
            continue
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_json_number)
        if not isinstance(doc, dict):
            raise ConfigError(f"{what} file must hold a JSON object")
        options.update(doc)
    options.update(
        (key, value)
        for key, value in vars(args).items()
        if value is not None and key not in _NON_OPTIONS
    )
    return options


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        options = _collect_options(args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = run(args.kind, options, out_dir)
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        code, message = 2, f"error: {exc}"
    except ArithmeticError as exc:
        code, message = 4, f"numerical failure: {exc}"
    except Exception as exc:  # pragma: no cover - unexpected faults
        code, message = 3, f"fault: {exc!r}"
    else:
        for verdict in manifest.verdicts:
            state = "PASS" if verdict["passed"] else "FAIL"
            print(f"{state} {verdict['name']}")
        return 0 if all(v["passed"] for v in manifest.verdicts) else 1
    print(message, file=sys.stderr)
    failed = {"kind": args.kind, "version": __version__, "status": "error",
              "message": message, "exit_code": code}
    try:
        _write_json(Path(args.out_dir) / "manifest.json", failed)
    except OSError:
        pass  # the exit code still tells the failure
    return code


if __name__ == "__main__":
    sys.exit(main())
