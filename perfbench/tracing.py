"""Spans and call counts recorded from outside the program.

``Tracer.install`` replaces public functions of ``vacuumbeams`` wherever a
module binds them (``vacuumbeams.cli.correction_at``,
``vacuumbeams.correction.eval_asymptotic``, ...) and ``uninstall`` puts the
originals back.  Layer-boundary functions get a span (name, start, end,
parent) kept in memory; every other public function, the ``UnitSystem``
conversions included, only gets a call count, because its cost is far below
a span's.  Self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
import tracemalloc
from collections import Counter

# Functions timed with a span, by the name of their defining module.
SPANNED = {
    "cli": ("main", "validate_config", "build_scenario"),
    "correction": ("correction_at",),
    "integrals": ("eval_asymptotic", "eval_numeric"),
    "pressure": ("pressure_report",),
}
UNIT_CONVERSIONS = tuple(
    f"{q}_{d}_si" for q in ("length", "time", "power", "field") for d in ("to", "from")
)


def public_functions(package) -> dict[str, object]:
    """Public plain functions of the package, by ``module.name``."""
    out = {}
    for name in package.__all__:
        obj = getattr(package, name)
        if inspect.isfunction(obj):
            out[f"{obj.__module__.rsplit('.', 1)[-1]}.{name}"] = obj
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.numeric_calls: list[tuple] = []  # (span index, model, tol, result or None)
        self.numeric_peak_bytes = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def reset(self) -> None:
        self.spans, self.numeric_calls = [], []
        self.counts.clear()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        clock, stack = time.perf_counter, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_numeric(self, fn):
        """Record each eval_numeric call's model, tol and result (None if it raised)."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans) - 1  # the enclosing eval_numeric span
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.numeric_calls.append((index, bound.arguments["model"], bound.arguments["tol"], result))

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attribute, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_everywhere(self, package, original, replacement) -> None:
        for module in _modules(package):
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)

    def install(self, package) -> None:
        from vacuumbeams.background import BeamScenario
        from vacuumbeams.units import UnitSystem

        spanned = {f"{m}.{f}" for m, fs in SPANNED.items() for f in fs}
        functions = public_functions(package)
        functions.update({f"cli.{f}": getattr(package.cli, f) for f in SPANNED["cli"]})
        for name, fn in functions.items():
            if name == "integrals.eval_numeric":
                wrapped = self._span(name, self._observe_numeric(fn))
            elif name in spanned:
                wrapped = self._span(name, fn)
            else:
                wrapped = self._count(name, fn)
            self._patch_everywhere(package, fn, wrapped)
        from_si = BeamScenario.__dict__["from_si"].__func__
        self._patch(BeamScenario, "from_si", classmethod(self._span("background.from_si", from_si)))
        for attribute in UNIT_CONVERSIONS:
            self._patch(UnitSystem, attribute, self._count("units.conversions", UnitSystem.__dict__[attribute]))

    def install_memory_probe(self, package) -> None:
        """Record the tracemalloc peak inside each eval_numeric call instead of spans."""
        original = package.integrals.eval_numeric

        @functools.wraps(original)
        def probe(*args, **kwargs):
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            try:
                return original(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                self.numeric_peak_bytes = max(self.numeric_peak_bytes, peak - before)

        self._patch_everywhere(package, original, probe)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def _modules(package):
    prefix = package.__name__ + "."
    return [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix) and m is not None]


# -- aggregation ---------------------------------------------------------------


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total duration and self time (seconds)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _), child_s in zip(spans, child):
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_s
    return totals


def kl_exponent(spans: list[list], numeric_calls: list[tuple]) -> float:
    """Least-squares slope of log(seconds per eval_numeric call) against log(k L).

    0 when fewer than two distinct k L values were integrated.
    """
    points = [
        (math.log(model.k * model.L), math.log(spans[i][2] - spans[i][1]))
        for i, model, _, _ in numeric_calls
    ]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mean_x = statistics.fmean(x for x, _ in points)
    mean_y = statistics.fmean(y for _, y in points)
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx
