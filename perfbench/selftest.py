"""The benchmark's own checks, at tiny workload sizes.

For every workload: a traced run must pass every check and reach the layers
it is meant to exercise; a reference table with one value perturbed by 1e-3,
or without its last row, must be caught by the oracle check; a pass whose
bytes differ from the first must be caught by the determinism check.  The numeric oracle is also compared with
a brute-force mpmath quadrature at low k*rho, including stationary points a
small part of a Fresnel width from an endpoint, where errors common to both
oracle settings would hide from their agreement check.
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path

import mpmath

from . import bench, oracles, workloads

# Column of the first complex value in each table, and a layer each workload must reach.
VALUE_COLUMN = {"field": 2, "integrals": 3}
MUST_REACH = {
    "field-grid-asym": "integrals.eval_asymptotic.calls",
    "integrals-kl-sweep": "integrals.eval_numeric.calls",
    "field-boundary-both": "integrals.eval_numeric.calls",
}


def _perturb(table: bytes, column: int) -> bytes:
    lines = table.decode().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if float(cells[column]) != 0.0:
            cells[column] = repr(float(cells[column]) * (1 + 1e-3))
            lines[i] = ",".join(cells)
            return ("\n".join(lines) + "\n").encode()
    raise ValueError("no non-zero value to perturb")


def _check_workload(name: str, src: Path, workdir: Path) -> list[str]:
    problems = []
    runner = bench.Runner(workloads.make(name, workloads.DEFAULT_SEED, "tiny"), src, workdir)
    outcome = bench.run_traced(runner, 0.0, workdir / "spans.csv")
    if not outcome.correct or outcome.failed:
        problems.append(f"clean run failed {outcome.failed} items: {outcome.details['failures']}")
    missing = set(bench.LAYER_UNITS) - set(outcome.metrics)
    if missing:
        problems.append(f"per-layer metrics missing: {sorted(missing)}")
    if not outcome.metrics[MUST_REACH[name]][0] > 0:
        problems.append(f"{MUST_REACH[name]} is 0")

    good = runner.reference
    code, report, table = good.outputs[0]
    column = VALUE_COLUMN[runner.workload.invocations[0].subcommand]
    bad = bench.Pass(good.seconds, [(code, report, _perturb(table, column))] + good.outputs[1:], good.output_bytes)
    truncated = table[: table.rstrip(b"\n").rfind(b"\n") + 1]
    short = bench.Pass(good.seconds, [(code, report, truncated)] + good.outputs[1:], good.output_bytes)
    runner.mismatched = []
    for broken, what in ((bad, "a value perturbed by 1e-3"), (short, "a table missing its last row")):
        runner.reference = broken
        if runner.verify({})[1] == 0:
            problems.append(f"{what} passed the oracle check")
    runner.reference = good
    runner.mismatched = [runner.compare(bad)]
    if runner.verify({})[1] == 0:
        problems.append("a pass with different bytes passed the determinism check")
    return problems


def _brute_force(rho: float, z: float, k: float, L: float, sign: int):
    """The axial integral by Gauss-Legendre over sub-intervals of ~1 rad of phase."""
    with mpmath.workdps(20):
        R, Z, K = mpmath.mpf(rho), mpmath.mpf(z), mpmath.mpf(k)

        def integrand(zp):
            s = mpmath.sqrt(R**2 + (Z - zp) ** 2)
            return mpmath.expj(K * (sign * zp + 3 * s)) / s

        n = int(4 * k * L) + 8
        cuts = [mpmath.mpf(L) * i / n for i in range(n + 1)]
        z0 = Z - sign * R / mpmath.sqrt(8)
        if 0 < z0 < L:
            cuts = sorted(cuts + [z0])
        return complex(sum(mpmath.quad(integrand, [a, b], method="gauss-legendre") for a, b in zip(cuts, cuts[1:])))


def _check_numeric_oracle() -> list[str]:
    # k*rho = 40 and k*L = 100, in lengths as large as the workloads' natural
    # units, so that roundings relative to rho are as large as there.
    k, L, rho = 1e-9, 1e11, 4e10
    edge, width = rho / math.sqrt(8.0), math.sqrt(rho / k)
    problems = []
    for z, sign in ((L / 2, +1), (L / 2, -1), (edge + 1e-6 * width, +1), (edge - 1e-6 * width, +1), (edge - 3 * width, +1)):
        value, _ = oracles.axial_integral(rho, z, k, L, sign, 1e-7)
        reference = _brute_force(rho, z, k, L, sign)
        error = abs(value - reference) / abs(reference)
        if not error < 1e-10:
            problems.append(f"numeric oracle off by {error:.2e} at z={z!r}, sign={sign:+d}")
    return problems


def run(src: Path, workdir: Path) -> int:
    problems = _check_numeric_oracle()
    print(f"{'FAIL' if problems else 'ok'}  numeric oracle against brute-force mpmath")
    for problem in problems:
        print(f"      {problem}")
    failures = bool(problems)
    try:
        for name in workloads.WORKLOADS:
            problems = _check_workload(name, src, workdir / name)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok'}  {name}")
            for problem in problems:
                print(f"      {problem}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0
