"""Check one CLI invocation's report and table against the oracles.

Every expected row is an item.  An item fails when its row is missing (the
CLI hit ``ConvergenceError`` or exited 3), when a column disagrees with the
oracle, or when its value misses the oracle by more than the allowed error:
the requested ``tol`` for numeric rows, the double-rounding bound of the
closed form for asymptotic rows.  Field errors are taken relative to the
size of the two terms, |P| (|I+| + |r| |I-|), so a near-cancellation of I+
and r I- does not inflate them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import mpmath

from . import oracles
from .workloads import Invocation

FIELD_COLUMNS = "rho_m,z_m,re_dEx,im_dEx,re_dBy,im_dBy,method,low_accuracy"
INTEGRAL_COLUMNS = "rho_m,z_m,sign,re_I,im_I,error_estimate,method,stationary_point_m,in_support,low_accuracy"


@dataclass
class Verdict:
    """Per-row outcome of one invocation, keyed like ``Invocation.row_keys``."""

    errors: dict = field(default_factory=dict)  # key -> relative error against the oracle
    failed: dict = field(default_factory=dict)  # key -> reason
    oracle_spread: float = 0.0  # worst disagreement of the two numeric-oracle settings

    def fail(self, key, reason: str) -> None:
        self.failed.setdefault(key, reason)


def table_name(inv: Invocation) -> str:
    return f"{inv.subcommand}_points.csv"


def report_name(inv: Invocation) -> str:
    return f"{inv.subcommand}_report.json"


def numeric_reference(cache: dict, rho, z, k, L, sign, tol) -> tuple[complex, float]:
    """``oracles.axial_integral``, computed once per set of arguments."""
    key = (rho, z, k, L, sign, tol)
    if key not in cache:
        cache[key] = oracles.axial_integral(*key)
    return cache[key]


class Oracle:
    """Cached oracle values for one scenario (natural-unit doubles)."""

    def __init__(self, scenario, tol: float, numeric_cache: dict):
        self.scenario = scenario
        self.k, self.L = scenario.k, scenario.L
        self.tol = tol
        self.closed = oracles.ClosedForm(self.k, self.L)
        self._numeric = numeric_cache

    def natural(self, rho_m: float, z_m: float) -> tuple[float, float]:
        length = self.scenario.units.length
        return rho_m / length, z_m / length

    def numeric(self, rho: float, z: float, sign: int) -> tuple[complex, float]:
        return numeric_reference(self._numeric, rho, z, self.k, self.L, sign, self.tol)

    def prefactor(self):
        """P = field unit * lambda * 16 r omega^2 E0^3 * T * e^{-3 i omega t}, t = 0."""
        sc = self.scenario
        with mpmath.workdps(oracles.DPS):
            mp = mpmath.mpf
            transverse = mp(sc.w0) ** 2 / 4 * (1 - mpmath.exp(-3 * (mp(sc.R) / mp(sc.w0)) ** 2))
            drive = 16 * mpmath.mpc(sc.r) * mp(sc.omega) ** 2 * mp(sc.amplitude) ** 3
            return mp(sc.units.field_amplitude) * mp(sc.constants.lambda_coupling) * drive * transverse


def _relative(out: complex, ref, scale) -> float:
    with mpmath.workdps(oracles.DPS):
        return float(abs(mpmath.mpc(out) - ref) / scale)


def _check_field_row(oracle: Oracle, cells: list[str], key, tol: float, pref, verdict: Verdict) -> None:
    rho_m, z_m, mode = key
    rho, z = oracle.natural(rho_m, z_m)
    ex = complex(float(cells[2]), float(cells[3]))
    by = complex(float(cells[4]), float(cells[5]))
    if cells[6] != mode:
        return verdict.fail(key, f"method {cells[6]} != {mode}")
    r = oracle.scenario.r
    if mode == "asymptotic":
        (i_p, in_p), (i_m, in_m) = oracle.closed(rho, z, +1), oracle.closed(rho, z, -1)
        flag = oracles.near_boundary(rho, z, oracle.k, oracle.L)
        allowed = oracles.rounding_bound(rho, z, oracle.k)
        if not (in_p or in_m):
            verdict.errors[key] = 0.0
            if ex != 0 or by != 0:
                verdict.fail(key, "non-zero value out of support")
            if cells[7] != ("true" if flag else "false"):
                verdict.fail(key, "low_accuracy flag")
            return
    else:
        (i_p, spread_p), (i_m, spread_m) = oracle.numeric(rho, z, +1), oracle.numeric(rho, z, -1)
        verdict.oracle_spread = max(verdict.oracle_spread, spread_p, spread_m)
        flag, allowed = False, tol
    if cells[7] != ("true" if flag else "false"):
        verdict.fail(key, "low_accuracy flag")
    with mpmath.workdps(oracles.DPS):
        i_p, i_m = mpmath.mpc(i_p), mpmath.mpc(i_m)
        scale = abs(pref) * (abs(i_p) + abs(r) * abs(i_m))
        err = max(
            _relative(ex, pref * (i_p + r * i_m), scale),
            _relative(by, pref * (i_p - r * i_m) / 3, scale / 3),
        )
    verdict.errors[key] = err
    if not err <= allowed:
        verdict.fail(key, f"relative error {err:.3e} > {allowed:.3e}")


def _check_integral_row(oracle: Oracle, cells: list[str], key, tol: float, verdict: Verdict) -> None:
    rho_m, z_m, (sign, mode) = key
    rho, z = oracle.natural(rho_m, z_m)
    value = complex(float(cells[3]), float(cells[4]))
    if int(cells[2]) != sign or cells[6] != mode:
        return verdict.fail(key, "sign or method column")
    estimate = float(cells[5])
    if not (math.isfinite(estimate) and estimate >= 0):
        verdict.fail(key, "error_estimate not finite and non-negative")
    support = oracles.in_support(rho, z, oracle.L, sign)
    if cells[8] != ("true" if support else "false"):
        verdict.fail(key, "in_support column")
    z0_m = float(oracles.stationary_point(rho, z, sign) * mpmath.mpf(oracle.scenario.units.length))
    if abs(float(cells[7]) - z0_m) > 8 * oracles.EPS * (abs(z_m) + rho_m):
        verdict.fail(key, "stationary_point_m column")
    if mode == "asymptotic":
        ref, _ = oracle.closed(rho, z, sign)
        flag = oracles.near_boundary(rho, z, oracle.k, oracle.L)
        allowed = oracles.rounding_bound(rho, z, oracle.k)
    else:
        ref, spread = oracle.numeric(rho, z, sign)
        verdict.oracle_spread = max(verdict.oracle_spread, spread)
        flag, allowed = False, tol
    if cells[9] != ("true" if flag else "false"):
        verdict.fail(key, "low_accuracy column")
    with mpmath.workdps(oracles.DPS):
        ref = mpmath.mpc(ref)
        if ref == 0:
            err = 0.0 if value == 0 else math.inf
        else:
            err = _relative(value, ref, abs(ref))
    verdict.errors[key] = err
    if not err <= allowed:
        verdict.fail(key, f"relative error {err:.3e} > {allowed:.3e}")


def _check_deltas(report: dict, rows: dict, keys: list, verdict: Verdict) -> None:
    """In ``both`` mode, validation_deltas must be |numeric - asymptotic| of each point's rows."""
    deltas = {(r[0], r[1]): r[2:] for r in report.get("validation_deltas", {}).get("rows", [])}
    for rho_m, z_m, mode in keys:
        num, asym = rows.get((rho_m, z_m, "numeric")), rows.get((rho_m, z_m, "asymptotic"))
        if mode != "numeric" or num is None or asym is None:
            continue
        ex = [complex(float(c[2]), float(c[3])) for c in (num, asym)]
        by = [complex(float(c[4]), float(c[5])) for c in (num, asym)]
        if deltas.get((rho_m, z_m)) != [abs(ex[0] - ex[1]), abs(by[0] - by[1])]:
            verdict.fail((rho_m, z_m, "numeric"), "validation_deltas row")


def _parse_rows(subcommand: str, lines: list[str]) -> dict | None:
    """Table rows by key, or None if a row is malformed or repeated."""
    rows = {}
    try:
        for line in lines[1:]:
            cells = line.split(",")
            tag = cells[6] if subcommand == "field" else (int(cells[2]), cells[6])
            rows[(float(cells[0]), float(cells[1]), tag)] = cells
    except (ValueError, IndexError):
        return None
    return rows if len(rows) == len(lines) - 1 else None


def check(
    inv: Invocation, scenario, exit_code, report_text: str | None, table_text: str | None, numeric_cache: dict
) -> Verdict:
    """Verdict for every expected row of one invocation's output.

    ``numeric_cache`` maps (rho, z, k, L, sign, tol) to the numeric oracle's
    (value, settings spread) and is shared with the traced run.
    """
    keys = inv.row_keys()
    verdict = Verdict()
    tol = inv.config["tol"]
    try:
        report = json.loads(report_text)
        lines = table_text.splitlines()
    except (TypeError, json.JSONDecodeError):
        for key in keys:
            verdict.fail(key, f"no readable output (exit code {exit_code})")
        return verdict
    columns = FIELD_COLUMNS if inv.subcommand == "field" else INTEGRAL_COLUMNS
    rows = _parse_rows(inv.subcommand, lines)
    if rows is None or set(rows) - set(keys):
        for key in keys:
            verdict.fail(key, "malformed, repeated or unexpected table rows")
        return verdict
    report_ok = report.get("converged") is True and report.get("point_count") == len(rows)
    if not (lines[0] == columns and report_ok and exit_code == 0):
        for key in keys:
            verdict.fail(key, f"report, header or exit code {exit_code}")
    oracle = Oracle(scenario, tol, numeric_cache)
    pref = oracle.prefactor()
    for key in keys:
        cells = rows.get(key)
        try:
            if cells is None:
                verdict.fail(key, "missing row")
            elif inv.subcommand == "field":
                _check_field_row(oracle, cells, key, tol, pref, verdict)
            else:
                _check_integral_row(oracle, cells, key, tol, verdict)
        except (ValueError, IndexError) as exc:
            verdict.fail(key, f"malformed row: {exc}")
    if inv.subcommand == "field":
        _check_deltas(report, rows, keys, verdict)
    return verdict
