"""Run one workload through ``vacuumbeams.cli.main`` and measure it.

A pass runs every invocation of the workload once, in this process, each
into a fresh output directory.  The first pass's report and table bytes are
the reference: each later pass must reproduce them byte for byte, and the
reference is checked against the oracles after the timed passes, so oracle
work never lands in a timing or in the peak memory.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from importlib import metadata
from itertools import zip_longest
from pathlib import Path

from . import check, tracing
from .workloads import Workload

SETUP_REPEATS = 9
MIN_PASSES = 3
# items_per_s is scaled to the host speed at which ``reference_kernel`` takes
# this long: about its median on the 2-vCPU Intel Xeon the bounds were set on.
NOMINAL_REFERENCE_S = 0.015
REFERENCE_REPEATS = 3  # kernel runs after each timed pass
SETUP_SNIPPET = (
    "import json, pathlib, sys; sys.path.insert(0, sys.argv[1]); "
    "import vacuumbeams.cli as cli; "
    "cli.build_scenario(cli.validate_config(json.loads(pathlib.Path(sys.argv[2]).read_text())))"
)


@dataclass
class Pass:
    seconds: float
    outputs: list  # per invocation: (exit code or None, report bytes or None, table bytes or None)
    output_bytes: int


@dataclass
class Outcome:
    """Everything one run measured; ``metrics`` is what the final line reports."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict
    details: dict = field(default_factory=dict)


class Runner:
    def __init__(self, workload: Workload, src: Path, workdir: Path):
        import vacuumbeams
        import vacuumbeams.cli

        self.workload = workload
        self.src = src
        self.package = vacuumbeams
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_paths = []
        for i, inv in enumerate(workload.invocations):
            path = workdir / f"config{i}.json"
            path.write_text(json.dumps(inv.config, indent=1), encoding="utf-8")
            self.config_paths.append(path)
        self.reference: Pass | None = None
        self.mismatched: list[set] = []  # per compared pass: keys whose bytes differ
        self.oracle_spread = 0.0  # worst disagreement of the numeric oracle's two settings
        self.reference_s: list[float] = []  # reference_kernel times between passes
        self._count = 0

    def run_pass(self) -> Pass:
        """One timed pass; outputs are read back and deleted after the clock stops."""
        out_root = self.workdir / f"pass{self._count}"
        self._count += 1
        argvs = [
            [inv.subcommand, "--config", str(path), "--out", str(out_root / str(i)), "--format", "csv"]
            for i, (inv, path) in enumerate(zip(self.workload.invocations, self.config_paths))
        ]
        main = self.package.cli.main  # looked up here so an installed tracer is used
        codes = []
        start = time.perf_counter()
        for argv in argvs:
            try:
                codes.append(main(argv))
            except Exception:  # a crash fails the invocation's items; the run goes on
                traceback.print_exc()
                codes.append(None)
        seconds = time.perf_counter() - start
        outputs, size = [], 0
        for i, (inv, code) in enumerate(zip(self.workload.invocations, codes)):
            files = [out_root / str(i) / check.report_name(inv), out_root / str(i) / check.table_name(inv)]
            data = [f.read_bytes() if f.is_file() else None for f in files]
            size += sum(len(d) for d in data if d is not None)
            outputs.append((code, *data))
        shutil.rmtree(out_root, ignore_errors=True)
        result = Pass(seconds, outputs, size)
        if self.reference is None:
            self.reference = result
        else:
            self.mismatched.append(self.compare(result))
            result.outputs = None  # only the reference's bytes are kept
        return result

    def compare(self, other: Pass) -> set:
        """Keys of rows whose bytes differ from the reference pass."""
        keys = set()
        for inv, ref, out in zip(self.workload.invocations, self.reference.outputs, other.outputs):
            inv_keys = inv.row_keys()
            if ref[:2] != out[:2] or ref[2] is None or out[2] is None:
                keys.update((id(inv), k) for k in inv_keys)
                continue
            ref_lines, lines = ref[2].splitlines(), out[2].splitlines()
            for i, (a, b) in enumerate(zip_longest(ref_lines, lines)):
                if a != b:
                    rows = inv_keys if i == 0 else inv_keys[i - 1 : i]
                    keys.update((id(inv), k) for k in (rows or inv_keys[-1:]))
        return keys

    def passes_for(self, seconds: float, min_passes: int) -> list[Pass]:
        """Timed passes, each followed by untimed runs of ``reference_kernel``."""
        done, spent = [], 0.0
        while len(done) < min_passes or spent < seconds:
            done.append(self.run_pass())
            spent += done[-1].seconds
            self.reference_s += [reference_kernel() for _ in range(REFERENCE_REPEATS)]
        return done

    def verify(self, numeric_cache: dict) -> tuple[int, int, dict, list]:
        """(attempted, failed, per-key relative errors, first failure reasons) over all passes."""
        import vacuumbeams.cli as cli

        oracle_failed, errors, reasons = set(), {}, []
        for inv, path, (code, report, table) in zip(
            self.workload.invocations, self.config_paths, self.reference.outputs
        ):
            scenario, _ = cli.build_scenario(cli.validate_config(json.loads(path.read_text())))
            verdict = check.check(
                inv, scenario, code,
                None if report is None else report.decode(),
                None if table is None else table.decode(),
                numeric_cache,
            )
            errors.update(((id(inv), k), e) for k, e in verdict.errors.items())
            oracle_failed.update((id(inv), k) for k in verdict.failed)
            self.oracle_spread = max(self.oracle_spread, verdict.oracle_spread)
            reasons += [f"{path.name} {k}: {r}" for k, r in list(verdict.failed.items())[:3]]
        passes = 1 + len(self.mismatched)
        attempted = self.workload.items * passes
        failed = len(oracle_failed) + sum(len(oracle_failed | m) for m in self.mismatched)
        if any(self.mismatched):
            reasons.append(f"output bytes differ from the first pass in {sum(map(bool, self.mismatched))} passes")
        return attempted, failed, errors, reasons


def timing_summary(seconds: list[float]) -> dict:
    """Median pass time and the highest percentile with at least ten passes beyond it."""
    ordered = sorted(seconds)
    n = len(ordered)
    out = {"passes": n, "median_s": statistics.median(ordered), "tail": None}
    if n >= 20:
        pct = 100.0 * (1.0 - 10.0 / n)
        out["tail"] = {"percentile": pct, "seconds": ordered[n - 11]}
    return out


def reference_kernel() -> float:
    """Seconds for a fixed piece of interpreter-bound work.

    The host's speed drifts by tens of percent over minutes, because other
    tenants share its cores.  A run's passes and the kernel runs between them
    drift together, so their ratio is much steadier across runs than either
    alone; interpreter-bound work tracked the drift of every workload better
    than large-array work did.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(150_000):
        total += math.sqrt(i)
    return time.perf_counter() - start


def setup_seconds(src: Path, config: Path, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of fresh interpreters that import, validate and build the scenario."""
    times = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        # Popen.wait() without a timeout blocks in waitpid; with one it polls
        # in steps of up to 50 ms, which would quantize the measurement.
        child = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET, str(src), str(config)])
        if child.wait() != 0:
            raise RuntimeError(f"set-up interpreter exited with {child.returncode}")
        if i:  # the first one also writes the bytecode cache
            times.append(time.perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def environment(root: Path) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None  # a checkout that is not a git repository has none
    if (root / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "git_commit": commit,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _digits(errors: dict) -> float:
    worst = max(errors.values(), default=0.0)
    return -math.log10(max(worst, 1e-17))


def run_untraced(runner: Runner, seconds: float) -> Outcome:
    passes = runner.passes_for(seconds, MIN_PASSES)
    rss = peak_rss_mb()  # before any oracle work
    attempted, failed, errors, reasons = runner.verify({})
    setup = setup_seconds(runner.src, runner.config_paths[0])
    timing = timing_summary([p.seconds for p in passes])
    raw = runner.workload.items / timing["median_s"]
    host_speed = statistics.median(runner.reference_s) / NOMINAL_REFERENCE_S
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (raw * host_speed, "items/s"),
        "accuracy_digits": (_digits(errors), "digits"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    details = {
        "items_per_pass": runner.workload.items,
        "pass_time": timing,
        "pass_s": [p.seconds for p in passes],
        "items_per_s_raw": raw,
        "reference_kernel_s": runner.reference_s,
        "setup_s_samples": setup,
        "failed_ratio": failed / attempted,
        "numeric_oracle_spread": runner.oracle_spread,
        "failures": reasons[:10],
    }
    return Outcome(failed == 0, attempted, failed, metrics, details)


def _per_pass_layers(tracer: tracing.Tracer, output_bytes: int) -> dict:
    totals = tracing.span_totals(tracer.spans)

    def span(name):
        return totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    corr = span("correction.correction_at")
    numeric = span("integrals.eval_numeric")
    return {
        "cli.self_s": span("cli.main")["self_s"],
        "cli.output_bytes": output_bytes,
        "cli.validate_config.s": span("cli.validate_config")["s"],
        "cli.build_scenario.s": span("cli.build_scenario")["s"],
        "background.from_si.calls": span("background.from_si")["calls"],
        "background.from_si.s": span("background.from_si")["s"],
        "correction.correction_at.calls": corr["calls"],
        "correction.correction_at.self_s": corr["self_s"],
        "correction.correction_at.us_per_call": 1e6 * corr["s"] / corr["calls"] if corr["calls"] else 0.0,
        "integrals.eval_asymptotic.calls": span("integrals.eval_asymptotic")["calls"],
        "integrals.eval_asymptotic.s": span("integrals.eval_asymptotic")["s"],
        "units.conversions.calls": tracer.counts["units.conversions"],
        "sources.drive_constant.calls": tracer.counts["sources.drive_constant"],
        "integrals.eval_numeric.calls": numeric["calls"],
        "integrals.eval_numeric.s": numeric["s"],
        "integrals.eval_numeric.failed": sum(r is None for *_, r in tracer.numeric_calls),
        "integrals.eval_numeric.kL_exponent": tracing.kl_exponent(tracer.spans, tracer.numeric_calls),
        "pressure.pressure_report.calls": span("pressure.pressure_report")["calls"],
        "pressure.pressure_report.s": span("pressure.pressure_report")["s"],
    }


LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.validate_config.s": "s",
    "cli.build_scenario.s": "s",
    "background.from_si.calls": "count",
    "background.from_si.s": "s",
    "correction.correction_at.calls": "count",
    "correction.correction_at.self_s": "s",
    "correction.correction_at.us_per_call": "us",
    "integrals.eval_asymptotic.calls": "count",
    "integrals.eval_asymptotic.s": "s",
    "units.conversions.calls": "count",
    "sources.drive_constant.calls": "count",
    "integrals.eval_numeric.calls": "count",
    "integrals.eval_numeric.s": "s",
    "integrals.eval_numeric.failed": "count",
    "integrals.eval_numeric.kL_exponent": "exponent",
    "integrals.eval_numeric.peak_mb": "MB",
    "integrals.eval_numeric.err_over_tol": "ratio",
    "integrals.eval_numeric.est_over_err": "ratio",
    "pressure.pressure_report.calls": "count",
    "pressure.pressure_report.s": "s",
    "trace.overhead_frac": "ratio",
}


def _numeric_accuracy(numeric_calls: list[tuple], cache: dict) -> tuple[float, float]:
    """(worst achieved relative error / tol, median error_estimate / true error)."""
    over_tol, est_over_err = [], []
    for _, model, tol, result in numeric_calls:
        if result is None:
            continue
        ref, _ = check.numeric_reference(cache, model.rho, model.z, model.k, model.L, model.sign, tol)
        error = abs(result.value - ref)
        over_tol.append(error / abs(ref) / tol)
        if error > 0:
            est_over_err.append(result.error_estimate / error)
    return max(over_tol, default=0.0), (statistics.median(est_over_err) if est_over_err else 0.0)


def write_spans(path: Path, spans: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write("name,start_s,end_s,parent\n")
        origin = spans[0][1] if spans else 0.0
        for name, start, end, parent in spans:
            f.write(f"{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> Outcome:
    """Untraced passes, then traced ones, then one memory pass if the quadrature ran."""
    untraced = runner.passes_for(seconds / 2, 1)
    tracer = tracing.Tracer()
    tracer.install(runner.package)
    per_pass, numeric_calls, reached, traced_s = [], [], set(), []
    try:
        while not per_pass or sum(traced_s) < seconds / 2:
            tracer.reset()
            done = runner.run_pass()
            traced_s.append(done.seconds)
            per_pass.append(_per_pass_layers(tracer, done.output_bytes))
            reached |= {name for name, *_ in tracer.spans} | set(tracer.counts)
            numeric_calls = tracer.numeric_calls
            spans = tracer.spans
    finally:
        tracer.uninstall()
    write_spans(spans_path, spans)
    layers = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    layers["integrals.eval_numeric.peak_mb"] = 0.0
    if numeric_calls:
        tracemalloc.start()
        tracer.install_memory_probe(runner.package)
        try:
            runner.run_pass()
        finally:
            tracer.uninstall()
            tracemalloc.stop()
        layers["integrals.eval_numeric.peak_mb"] = tracer.numeric_peak_bytes / 1e6
    cache: dict = {}
    attempted, failed, _, reasons = runner.verify(cache)
    err_over_tol, est_over_err = _numeric_accuracy(numeric_calls, cache)
    layers["integrals.eval_numeric.err_over_tol"] = err_over_tol
    layers["integrals.eval_numeric.est_over_err"] = est_over_err
    base = statistics.median(p.seconds for p in untraced)
    layers["trace.overhead_frac"] = (statistics.median(traced_s) - base) / base
    public = set(tracing.public_functions(runner.package))
    metrics = {name: (layers[name], unit) for name, unit in LAYER_UNITS.items()}
    details = {
        "untraced_passes": len(untraced),
        "traced_passes": len(traced_s),
        "unreached": sorted(public - reached),
        "spans_file": str(spans_path),
        "failures": reasons[:10],
    }
    return Outcome(failed == 0, attempted, failed, metrics, details)
