"""Per-layer tracing of lzcross from outside the package.

Each public function of each lzcross module is replaced by a wrapper at every
place a caller looks it up: the module attribute, every `from .x import y`
binding in the other modules, and function tables such as
`experiments._EXTREMAL_BUILDERS`.  Nothing under `src/` is edited.

A wrapper records a span (name, start, end, parent span, work) in memory.
Per-frequency helpers are only counted, because a timer on each of their
hundreds of thousands of calls would cost about as much as the work it times.
Calls that raise are counted per module as `<module>.errors`.

`metrics()` reduces the spans to the per-layer metrics the benchmark reports.
bench/README.md lists the end-to-end metric and workloads each should move.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

MODULES = ("indexsets", "norms", "spectral", "classes", "asymptotics", "experiments", "cli")

# called once per frequency: count the calls, do not time them
COUNT_ONLY = frozenset({"indexsets.containing_block"})

EXTREMAL = ("classes.extremal_f1", "classes.extremal_f2", "classes.extremal_f3")
LEMMA_LHS = (
    "asymptotics.lemma1_sum",
    "asymptotics.lemma1_interior_sum",
    "asymptotics.lemma2_sum",
    "asymptotics.lemma3_lhs",
    "asymptotics.lemma4_lhs",
)

# name -> unit
LAYER_METRICS = {
    "indexsets.containing_block.calls": "count",
    "indexsets.layer_exact.s": "s",
    "spectral.synthesize.s": "s",
    "spectral.synthesize.calls": "count",
    "spectral.synthesize.cells": "cells",
    "spectral.nonzero_blocks.s": "s",
    "spectral.truncation_error.s": "s",
    "classes.extremal.s": "s",
    "classes.extremal.terms": "terms",
    "classes.besov_functional.s": "s",
    "classes.block_norm.s": "s",
    "classes.block_norm.calls": "count",
    "norms.anisotropic_norm.s": "s",
    "norms.anisotropic_norm.calls": "count",
    "norms.anisotropic_norm.cells": "cells",
    "norms.iterated_rearrangement.s": "s",
    "norms.cell_weights.s": "s",
    "norms.cell_weights.misses": "ratio",
    "norms.mixed_sequence_norm.s": "s",
    "experiments.class_normalizer.s": "s",
    "experiments.normalizer_bounded_levels": "count",
    "experiments.level_s.max": "s",
    "asymptotics.lemma_lhs.s": "s",
    "asymptotics.lemma3_lhs.boxes": "count",
    "asymptotics.lemma3_lhs.cells": "cells",
    "asymptotics.rate_fit.s": "s",
    "asymptotics.ratio_scan.s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    **{f"{mod}.errors": "count" for mod in MODULES},
}


def _grid_cells(args, result):
    values = getattr(args[0], "values", args[0])
    return int(getattr(values, "size", 0))


# name -> work(args, result): a number stored on the span
WORK = {
    "spectral.synthesize": lambda args, result: int(result.values.size),
    "norms.anisotropic_norm": _grid_cells,
    "norms.mixed_reduce": _grid_cells,
    "experiments.class_normalizer": lambda args, result: 0 if result[1] else 1,
    **{name: (lambda args, result: result.n_terms) for name in EXTREMAL},
}


class Tracer:
    """Holds the spans and counts of one process; install() patches lzcross."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, work, nested]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.bytes_written = 0
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def _timed(self, name: str, fn):
        module = name.split(".", 1)[0]
        work = WORK.get(name)
        spans, stack, active, errors = self.spans, self._stack, self._active, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, active[name] > 0]
            spans.append(span)
            stack.append(idx)
            active[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                span[2] = clock()
                active[name] -= 1
                stack.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        module = name.split(".", 1)[0]
        counts, errors = self.counts, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise

        return wrapper

    def install(self) -> int:
        """Patch every lookup site of every public lzcross function; return the site count."""
        mods = {m: importlib.import_module(f"lzcross.{m}") for m in MODULES}
        pkg = importlib.import_module("lzcross")
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    name = f"{short}.{obj.__name__}"
                    make = self._counted if name in COUNT_ONLY else self._timed
                    wrappers[obj] = make(name, obj)
        sites = 0
        for mod in (pkg, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    sites += 1
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if inspect.isfunction(val) and val in wrappers:
                            obj[key] = wrappers[val]
                            sites += 1
        return sites

    def metrics(self) -> dict[str, float]:
        """Reduce spans and counts to LAYER_METRICS (zeros where a layer did not run)."""
        total: Counter = Counter()
        calls: Counter = Counter()
        work: Counter = Counter()
        children: dict[int, list[int]] = {}
        for idx, (name, start, end, parent, amount, nested) in enumerate(self.spans):
            children.setdefault(parent, []).append(idx)
            calls[name] += 1
            work[name] += amount
            if not nested:
                total[name] += end - start

        def dur(idx: int) -> float:
            return self.spans[idx][2] - self.spans[idx][1]

        cli_self = 0.0
        level_max = 0.0
        boxes = box_cells = 0
        for idx, span in enumerate(self.spans):
            kids = children.get(idx, [])
            if span[0] == "cli.run":
                cli_self += dur(idx) - sum(dur(k) for k in kids)
            elif span[0] == "experiments.theorem1_rate_experiment":
                level_max = max(level_max, _longest_level(self.spans, kids))
            elif span[0] == "asymptotics.lemma3_lhs":
                reduces = [k for k in kids if self.spans[k][0] == "norms.mixed_reduce"]
                boxes += len(reduces)
                box_cells += sum(self.spans[k][4] for k in reduces)

        from lzcross import norms

        misses = norms._cell_weights.cache_info().misses
        out = {
            "indexsets.containing_block.calls": self.counts["indexsets.containing_block"],
            "indexsets.layer_exact.s": total["indexsets.layer_exact"],
            "spectral.synthesize.s": total["spectral.synthesize"],
            "spectral.synthesize.calls": calls["spectral.synthesize"],
            "spectral.synthesize.cells": work["spectral.synthesize"],
            "spectral.nonzero_blocks.s": total["spectral.nonzero_blocks"],
            "spectral.truncation_error.s": total["spectral.truncation_error"],
            "classes.extremal.s": sum(total[n] for n in EXTREMAL),
            "classes.extremal.terms": sum(work[n] for n in EXTREMAL),
            "classes.besov_functional.s": total["classes.besov_functional"],
            "classes.block_norm.s": total["classes.block_norm"],
            "classes.block_norm.calls": calls["classes.block_norm"],
            "norms.anisotropic_norm.s": total["norms.anisotropic_norm"],
            "norms.anisotropic_norm.calls": calls["norms.anisotropic_norm"],
            "norms.anisotropic_norm.cells": work["norms.anisotropic_norm"],
            "norms.iterated_rearrangement.s": total["norms.iterated_rearrangement"],
            "norms.cell_weights.s": total["norms.cell_weights"],
            "norms.cell_weights.misses": (
                misses / calls["norms.cell_weights"] if calls["norms.cell_weights"] else 0.0
            ),
            "norms.mixed_sequence_norm.s": total["norms.mixed_sequence_norm"],
            "experiments.class_normalizer.s": total["experiments.class_normalizer"],
            "experiments.normalizer_bounded_levels": work["experiments.class_normalizer"],
            "experiments.level_s.max": level_max,
            "asymptotics.lemma_lhs.s": sum(total[n] for n in LEMMA_LHS),
            "asymptotics.lemma3_lhs.boxes": boxes,
            "asymptotics.lemma3_lhs.cells": box_cells,
            "asymptotics.rate_fit.s": total["asymptotics.rate_fit"],
            "asymptotics.ratio_scan.s": total["asymptotics.ratio_scan"],
            "cli.self_s": cli_self,
            "cli.bytes_written": self.bytes_written,
        }
        for mod in MODULES:
            out[f"{mod}.errors"] = self.errors[mod]
        assert set(out) == set(LAYER_METRICS)
        return out


def _longest_level(spans: list[list], kids: list[int]) -> float:
    """Longest level of one rate experiment.

    A level runs from its extremal build to the end of its truncation error,
    the last layer call of each level (levels run one after another at the
    default of one thread).
    """
    longest = 0.0
    start = None
    for k in kids:
        name = spans[k][0]
        if name in EXTREMAL:
            start = spans[k][1]
        elif name == "spectral.truncation_error" and start is not None:
            longest = max(longest, spans[k][2] - start)
            start = None
    return longest
