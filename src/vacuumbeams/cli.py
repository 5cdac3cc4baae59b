"""Batch front end: JSON scenario configs in, deterministic reports out.

Subcommands: ``field`` (grid evaluation of the correction field), ``pressure``
(force report), ``integrals`` (axial integrals at grid points), ``validate``
(numeric-vs-asymptotic sweep over k*rho), ``preset ligo`` (built-in
high-power interferometer scenario).

Reports are byte-identical across runs for identical configs: floats are
written with 17 significant digits, key order is fixed, and no timestamps or
absolute paths are embedded.  Exit codes: 0 success, 2 invalid config,
3 numeric non-convergence (partial report written and flagged).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .background import BeamScenario
from .correction import complex_times, cone_geometry, correction_at, dimensionless_ratio
from .errors import ConfigError, ConvergenceError, DomainError, UnsupportedGeometryError
from .integrals import DEFAULT_MAX_NODES, MAX_NODES, PhaseModel, eval_asymptotic, eval_numeric, stationary_point
from .pressure import classical_force, pressure_report

# Externally quoted reference values, reported side by side with computed ones.
QUOTED_ELECTRON_RADIUS_M = 2.8e-15
QUOTED_QUANTUM_POWER_W = 6.7e7  # me^2 c^4 / hbar with hbar ~ 1.0e-34 J s
QUOTED_PRESSURE_FACTOR_ORDER = 1e-33

LIGO_PRESET = {
    "scenario": {
        "power_w": 750e3,
        "wavelength_m": 1000e-9,
        "w0_m": 0.1,
        "R_m": 0.1,
        "L_m": 4000.0,
        "r_modulus": 1.0,
        "r_phase_rad": 0.0,
    },
    "mode": "asymptotic",
    "tol": 1e-9,
}

MAX_GRID_POINTS = 1_000_000  # bounds the per-point arrays and tables of field and integrals
_MODES = ("numeric", "asymptotic", "both")
_FORMATS = ("json", "csv")
_FIELD_COLUMNS = ("rho_m", "z_m", "re_dEx", "im_dEx", "re_dBy", "im_dBy", "method", "low_accuracy")
_INTEGRAL_COLUMNS = ("rho_m", "z_m", "sign", "re_I", "im_I", "error_estimate", "method", "stationary_point_m")
_INTEGRAL_COLUMNS += ("in_support", "low_accuracy")


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt(value) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("reports must not contain non-finite numbers")
        return format(value, ".17g")
    if isinstance(value, (bool, int, str)) or value is None:
        return json.dumps(value)
    raise TypeError(f"unsupported report value {value!r}")


def dumps_report(obj, indent: int = 0) -> str:
    """JSON text with fixed key order and 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(k)}: {dumps_report(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{dumps_report(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _fmt(obj)


def _write_report(path: Path, report: dict) -> None:
    path.write_text(dumps_report(report) + "\n", encoding="utf-8")


def _cells(column, fmt: str, shape: tuple) -> tuple[str, np.ndarray | None]:
    """printf conversion and flat arguments of a column: constants inline, one float per point raw, else text."""
    if not isinstance(column, np.ndarray):
        return (_fmt(column).strip('"') if fmt == "csv" else _fmt(column)).replace("%", "%%"), None
    if column.dtype.kind == "f" and column.size == math.prod(shape):
        return "%.17g", column.ravel()
    if column.dtype == bool:
        text = np.where(column, "true", "false")
    else:
        text = [_fmt(v).strip('"') if fmt == "csv" else _fmt(v) for v in column.ravel().tolist()]
        text = np.array(text, dtype=object).reshape(column.shape)
    return "%s", (text if text.shape == shape else np.broadcast_to(text, shape)).ravel()


def _write_table(path: Path, columns: tuple[str, ...], coords: tuple, blocks: list[tuple], fmt: str) -> int:
    """Write a CSV or JSON table in bulk, point by point over the broadcast ``coords``; returns its row count.

    ``blocks`` holds per kind of row the values of the columns after ``coords`` and the mask of the points
    that have the row (None: all).  Within a point, rows follow the block order.
    """
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    size, parts, csv, written = math.prod(shape), [], fmt == "csv", 0
    lead = [_cells(c, fmt, shape) for c in coords]
    for cells, keep in blocks:
        specs, args = zip(*lead, *(_cells(cell, fmt, shape) for cell in cells))
        template = ",".join(specs) if csv else "[\n      " + ",\n      ".join(specs) + "\n    ]"
        keep = np.ones(size, dtype=bool) if keep is None else keep.ravel()
        parts.append((template, [a for a in args if a is not None], keep))
    raw = [a for _, args, _ in parts for a in args if a.dtype.kind == "f"]  # text columns were checked by _fmt
    if raw and not np.isfinite(np.concatenate(raw)).all():
        raise ValueError("reports must not contain non-finite numbers")
    head = ",".join(columns) + "\n" if csv else '{\n  "columns": ' + dumps_report(list(columns), 1) + ',\n  "rows": ['
    first, sep = ("", "\n") if csv else ("\n    ", ",\n    ")  # before the first row, between rows
    with open(path, "w", encoding="utf-8") as f:
        f.write(head)
        for start in range(0, size, 4096):  # 4096 points at a time: few rows and floats alive at once
            points = slice(start, start + 4096)
            per_block = []
            for template, args, keep in parts:
                rows = zip(*(a[points].tolist() for a in args))
                per_block.append([template % row if k else None for row, k in zip(rows, keep[points].tolist())])
            rows = [row for point in zip(*per_block) for row in point if row is not None]
            f.write((sep if written else first) + sep.join(rows) if rows else "")
            written += len(rows)
        f.write(("\n" if written else "") if csv else ("\n  ]" if written else "]") + "\n}\n")
    return written


# ---------------------------------------------------------------------------
# config validation


_REQUIRED = object()  # the default of a key that must be given
# section -> key -> (type, bound, default), in report order.  A float must be finite and its bound is
# "positive", "non-negative" or None; an int's bound is its minimum; a list holds positive numbers
# and must not be empty.  A default of None leaves an absent key out of the normalized config.
_SCHEMA = {
    "scenario": {
        "power_w": (float, "non-negative", None),
        "amplitude_sqrt_w_per_m": (float, "non-negative", None),
        "wavelength_m": (float, "positive", _REQUIRED),
        "w0_m": (float, "positive", _REQUIRED),
        "R_m": (float, "positive", _REQUIRED),
        "L_m": (float, "positive", _REQUIRED),
        "r_modulus": (float, "non-negative", 1.0),
        "r_phase_rad": (float, None, 0.0),
    },
    "grid": {
        "rho_min_m": (float, "positive", _REQUIRED),
        "rho_max_m": (float, "positive", _REQUIRED),
        "rho_count": (int, 1, _REQUIRED),
        "z_min_m": (float, None, _REQUIRED),
        "z_max_m": (float, None, _REQUIRED),
        "z_count": (int, 1, _REQUIRED),
        "t_s": (float, None, 0.0),
    },
    "sweep": {
        "rho_m": (float, "positive", _REQUIRED),
        "z_m": (float, None, _REQUIRED),
        "k_rho_values": (list, None, []),
    },
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _value(field: str, value, kind: type, bound):
    """One config value checked against its schema entry, converted to ``kind``."""
    if kind is list:
        if not isinstance(value, list) or not value:
            raise ConfigError(field, "must be a non-empty list")
        for i, v in enumerate(value):
            if not _is_number(v) or not math.isfinite(v) or v <= 0:
                raise ConfigError(f"{field}[{i}]", "must be a positive number")
        return [float(v) for v in value]
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(field, "must be an integer")
        if value < bound:
            raise ConfigError(field, f"must be >= {bound}")
        return value
    if not _is_number(value):
        raise ConfigError(field, "must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(field, "must be finite")
    if (bound == "positive" and value <= 0) or (bound == "non-negative" and value < 0):
        raise ConfigError(field, f"must be {bound}")
    return value


def _section(doc: dict, name: str) -> dict:
    """Section ``name`` of ``doc`` checked against the schema, with defaults filled, in report order."""
    obj = doc[name]
    if not isinstance(obj, dict):
        raise ConfigError(name, "must be an object")
    for key in obj:
        if key not in _SCHEMA[name]:
            raise ConfigError(f"{name}.{key}", "unknown key")
    out = {}
    for key, (kind, bound, default) in _SCHEMA[name].items():
        if key not in obj and default is _REQUIRED:
            raise ConfigError(f"{name}.{key}", "missing required value")
        if key in obj or default is not None:
            out[key] = _value(f"{name}.{key}", obj.get(key, default), kind, bound)
    return out


def validate_config(doc: dict) -> dict:
    """Strict validation; returns a normalized config with defaults filled."""
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be an object")
    for key in doc:
        if key not in ("mode", "tol", "max_nodes", *_SCHEMA):
            raise ConfigError(f"config.{key}", "unknown key")
    if "scenario" not in doc:
        raise ConfigError("scenario", "missing required section")
    scenario = _section(doc, "scenario")
    if ("power_w" in scenario) == ("amplitude_sqrt_w_per_m" in scenario):
        raise ConfigError("scenario.power_w", "give exactly one of power_w or amplitude_sqrt_w_per_m")
    if scenario["r_modulus"] > 1.0:
        raise ConfigError("scenario.r_modulus", "must not exceed 1")
    mode = doc.get("mode", "asymptotic")
    if mode not in _MODES:
        raise ConfigError("mode", f"must be one of {_MODES}")
    tol = _value("config.tol", doc.get("tol", 1e-9), float, None)
    if not (1e-14 < tol < 1e-2):
        raise ConfigError("tol", "must lie in (1e-14, 1e-2)")
    max_nodes = doc.get("max_nodes", DEFAULT_MAX_NODES)
    if isinstance(max_nodes, bool) or not isinstance(max_nodes, int) or max_nodes < 2:
        raise ConfigError("max_nodes", "must be an integer >= 2")
    if max_nodes > MAX_NODES:
        raise ConfigError("max_nodes", f"must not exceed {MAX_NODES}")
    config = {"scenario": scenario, "mode": mode, "tol": tol, "max_nodes": max_nodes}
    if "grid" in doc:
        config["grid"] = grid = _section(doc, "grid")
        min_rho = scenario["wavelength_m"] / 1e3
        if grid["rho_min_m"] < min_rho:
            raise ConfigError("grid.rho_min_m", f"must be >= wavelength/1e3 = {min_rho:.3e} m (axis singularity)")
        if grid["rho_max_m"] < grid["rho_min_m"]:
            raise ConfigError("grid.rho_max_m", "must be >= rho_min_m")
        if grid["z_max_m"] < grid["z_min_m"]:
            raise ConfigError("grid.z_max_m", "must be >= z_min_m")
        if grid["rho_count"] * grid["z_count"] > MAX_GRID_POINTS:
            raise ConfigError("grid.z_count", f"rho_count * z_count must not exceed {MAX_GRID_POINTS}")
    if "sweep" in doc:
        config["sweep"] = _section(doc, "sweep")
    return config


def build_scenario(config: dict) -> tuple[BeamScenario, list[str]]:
    """Construct the natural-unit scenario, collecting warning diagnostics."""
    sc = config["scenario"]
    r = sc["r_modulus"] * complex(math.cos(sc["r_phase_rad"]), math.sin(sc["r_phase_rad"]))
    power = {"power_w": sc["power_w"]} if "power_w" in sc else {"amplitude_si": sc["amplitude_sqrt_w_per_m"]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scenario = BeamScenario.from_si(
            wavelength_m=sc["wavelength_m"], w0_m=sc["w0_m"], R_m=sc["R_m"], L_m=sc["L_m"], r=r, **power
        )
    return scenario, [str(w.message) for w in caught]


# ---------------------------------------------------------------------------
# report assembly


def _constants_block(scenario: BeamScenario) -> dict:
    c = scenario.constants
    return {
        "alpha": c.alpha,
        "electron_rest_energy_j": c.electron_mass,
        "c_m_per_s": c.c_si,
        "hbar_j_s": c.hbar_si,
        "lambda_coupling_natural": c.lambda_coupling,
        "r0_m": c.r0,
        "r0_quoted_m": QUOTED_ELECTRON_RADIUS_M,
        "p_e_w": c.p_e,
        "p_e_quoted_w": QUOTED_QUANTUM_POWER_W,
    }


def _summary_block(scenario: BeamScenario, warnings_list: list[str]) -> dict:
    cone = cone_geometry(scenario)
    rho_edge = scenario.R
    summary = {
        "cone_semi_angle_rad": cone.semi_angle,
        "cone_semi_angle_deg": math.degrees(cone.semi_angle),
        "cone_frequency_ratio": cone.frequency_ratio,
        "classical_force_n": classical_force(scenario),
        "field_ratio_at_R_printed": dimensionless_ratio(scenario, rho_edge, form="printed"),
        "field_ratio_at_R_derived": dimensionless_ratio(scenario, rho_edge, form="derived"),
    }
    try:
        report = pressure_report(scenario)
        summary["pressure_factor"] = report.dimensionless_factor
        summary["pressure_factor_quoted_order"] = QUOTED_PRESSURE_FACTOR_ORDER
        summary["correction_force_end_n"] = report.correction_end
        summary["correction_force_origin_n"] = report.correction_origin
    except UnsupportedGeometryError as exc:
        summary["pressure_factor"] = None
        warnings_list.append(str(exc))
    return summary


def _grid(config: dict) -> tuple[BeamScenario, list[str], np.ndarray, np.ndarray]:
    """Scenario, its warnings, and the grid in metres as a rho column and a z row."""
    scenario, warn = build_scenario(config)
    grid = config["grid"]
    rho_m = np.linspace(grid["rho_min_m"], grid["rho_max_m"], grid["rho_count"])[:, None]
    return scenario, warn, rho_m, np.linspace(grid["z_min_m"], grid["z_max_m"], grid["z_count"])


def _each_point(units, rho_m, z_m, signs: tuple, evaluate, warn: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``evaluate(rho, z, sign)`` (natural units, two numbers) per grid point and sign, in row order.

    Returns them shaped (rho, z, signs, 2) and the mask of those that converged; failures add warnings.
    """
    values = []
    for rho in rho_m.ravel().tolist():
        for z in z_m.tolist():
            for sign in signs:
                try:
                    values.append(evaluate(units.length_from_si(rho), units.length_from_si(z), sign))
                except ConvergenceError as exc:
                    values.append(None)
                    where = "" if sign is None else f", sign={sign:+d}"
                    warn.append(f"non-convergence at rho={rho:.6g} m, z={z:.6g} m{where}: {exc}")
    shape = (rho_m.size, z_m.size, len(signs))
    keep = np.array([v is not None for v in values]).reshape(shape)
    return np.array([v or (0.0, 0.0) for v in values], dtype=complex).reshape(shape + (2,)), keep


def _write_grid(out_dir: Path, fmt: str, columns: tuple, coords: tuple, blocks: list, report: dict, tail: dict):
    """Write the table and report of field or integrals: ``report``'s keys, the table's, then ``tail``'s."""
    name = report["subcommand"]
    converged = all(keep is None or keep.all() for _, keep in blocks)
    out_dir.mkdir(parents=True, exist_ok=True)
    count = _write_table(out_dir / f"{name}_points.{fmt}", columns, coords, blocks, fmt)
    report.update(points_table=f"{name}_points.{fmt}", point_count=count, converged=converged, **tail)
    _write_report(out_dir / f"{name}_report.json", report)
    return report, 0 if converged else 3


def run_field(config: dict, out_dir: Path, fmt: str) -> tuple[dict, int]:
    """Grid evaluation of the correction field; returns (report, exit_code)."""
    scenario, warn, rho_m, z_m = _grid(config)
    units = scenario.units
    t = units.time_from_si(config["grid"]["t_s"])
    fields = {}  # mode -> dEx, dBy (natural units), low_accuracy, mask of rows kept
    if config["mode"] != "asymptotic":

        def numeric(rho, z, _):
            corr = correction_at(rho, z, t, scenario, "numeric", config["tol"], config["max_nodes"])
            return corr.delta_ex, corr.delta_by

        values, keep = _each_point(units, rho_m, z_m, (None,), numeric, warn)
        fields["numeric"] = (values[:, :, 0, 0], values[:, :, 0, 1], False, keep[:, :, 0])
    if config["mode"] != "numeric":
        corr = correction_at(units.length_from_si(rho_m), units.length_from_si(z_m), t, scenario)
        fields["asymptotic"] = (corr.delta_ex, corr.delta_by, corr.low_accuracy, None)
    scale, blocks, si = units.field_to_si(1.0), [], {}  # si: mode -> re, im of dEx and of dBy in sqrt(W)/m
    for mode, (ex, by, low, keep) in fields.items():
        si[mode] = (*complex_times(scale, ex.real, ex.imag), *complex_times(scale, by.real, by.imag))
        blocks.append(((*si[mode], mode, low), keep))
    tail = {"warnings": warn}
    if len(fields) == 2:
        d = np.subtract(si["numeric"], si["asymptotic"])
        deltas = [np.hypot(d[0], d[1]), np.hypot(d[2], d[3])]  # abs() of the complex differences
        rows = np.stack(np.broadcast_arrays(rho_m, z_m, *deltas), axis=-1)[fields["numeric"][3]].tolist()
        if rows:
            tail["validation_deltas"] = {"columns": ["rho_m", "z_m", "abs_delta_dEx", "abs_delta_dBy"], "rows": rows}
    report = {
        "subcommand": "field",
        "config": config,
        "constants": _constants_block(scenario),
        "summary": _summary_block(scenario, warn),
        "field_unit": "sqrt(W)/m (power-equivalent amplitude)",
    }
    return _write_grid(out_dir, fmt, _FIELD_COLUMNS, (rho_m, z_m), blocks, report, tail)


def run_pressure(config: dict, out_dir: Path) -> tuple[dict, int]:
    scenario, warn = build_scenario(config)
    report_obj = pressure_report(scenario)
    report = {
        "subcommand": "pressure",
        "config": config,
        "constants": _constants_block(scenario),
        "pressure": {
            "classical_force_n": report_obj.classical_force,
            "correction_end_n": report_obj.correction_end,
            "correction_origin_n": report_obj.correction_origin,
            "dimensionless_factor": report_obj.dimensionless_factor,
            "dimensionless_factor_quoted_order": QUOTED_PRESSURE_FACTOR_ORDER,
        },
        "warnings": warn,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir / "pressure_report.json", report)
    return report, 0


def run_integrals(config: dict, out_dir: Path, fmt: str) -> tuple[dict, int]:
    scenario, warn, rho_m, z_m = _grid(config)
    units = scenario.units
    if config["mode"] != "asymptotic":

        def numeric(rho, z, sign):
            res = eval_numeric(PhaseModel(rho, z, scenario.k, scenario.L, sign), config["tol"], config["max_nodes"])
            return res.value, res.error_estimate

        values, keep = _each_point(units, rho_m, z_m, (+1, -1), numeric, warn)
    blocks = []
    for s, sign in enumerate((+1, -1)):
        model = PhaseModel(units.length_from_si(rho_m), units.length_from_si(z_m), scenario.k, scenario.L, sign)
        z0, inside = stationary_point(model)
        z0_m = units.length_to_si(z0)
        if config["mode"] != "asymptotic":
            value, estimate = values[:, :, s, 0], values[:, :, s, 1].real
            cells = (value.real, value.imag, estimate, "numeric", z0_m, inside, False)
            blocks.append(((sign, *cells), keep[:, :, s]))
        if config["mode"] != "numeric":
            res = eval_asymptotic(model)
            cells = (res.value.real, res.value.imag, res.error_estimate, "asymptotic", z0_m, inside, res.low_accuracy)
            blocks.append(((sign, *cells), None))
    report = {"subcommand": "integrals", "config": config, "constants": _constants_block(scenario)}
    return _write_grid(out_dir, fmt, _INTEGRAL_COLUMNS, (rho_m, z_m), blocks, report, {"warnings": warn})


def validate_integrals(config: dict, out_dir: Path, fmt: str) -> tuple[dict, int]:
    """Sweep k*rho; tabulate numeric-vs-asymptotic deviation and check the trend."""
    sweep = config["sweep"]
    rho_m = sweep["rho_m"]
    z_m = sweep["z_m"]
    base_scenario, warn = build_scenario(config)
    rows = []
    converged = True
    for k_rho in sweep["k_rho_values"]:
        wavelength_m = 2.0 * math.pi / (k_rho / rho_m)
        scenario, extra = build_scenario({**config, "scenario": {**config["scenario"], "wavelength_m": wavelength_m}})
        warn.extend(f"k_rho={k_rho:.6g}: {message}" for message in extra)
        units = scenario.units
        model = PhaseModel(units.length_from_si(rho_m), units.length_from_si(z_m), scenario.k, scenario.L, +1)
        asym = eval_asymptotic(model)
        try:
            num = eval_numeric(model, tol=config["tol"], max_nodes=config["max_nodes"])
        except ConvergenceError as exc:
            converged = False
            warn.append(f"non-convergence at k_rho={k_rho:.6g}: {exc}")
            continue
        if asym.in_support:
            deviation = abs(num.value - asym.value) / abs(num.value)
            kind = "relative"
        else:
            deviation = abs(num.value)
            kind = "abs_numeric_modulus"
        rows.append((k_rho, deviation, kind))
    relative = sorted(((k, d) for k, d, kind in rows if kind == "relative"), key=lambda item: item[0])
    trend_ok = all(d2 <= 1.2 * d1 for (_, d1), (_, d2) in zip(relative, relative[1:]))
    if not trend_ok:
        warn.append("numeric-vs-asymptotic deviation is not non-increasing over the sweep")
    table_name = f"validate_table.{fmt}"
    report = {
        "subcommand": "validate",
        "config": config,
        "constants": _constants_block(base_scenario),
        "points_table": table_name,
        "trend_ok": trend_ok,
        "converged": converged,
        "warnings": warn,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    k_rho, *columns = [np.array(column) for column in zip(*rows)] if rows else [np.empty(0)] * 3
    _write_table(out_dir / table_name, ("k_rho", "deviation", "kind"), (k_rho,), [(columns, None)], fmt)
    _write_report(out_dir / "validate_report.json", report)
    return report, 0 if converged else 3


def run_preset(config: dict, out_dir: Path, name: str) -> tuple[dict, int]:
    scenario, warn = build_scenario(config)
    report = {
        "subcommand": "preset",
        "preset": name,
        "config": config,
        "constants": _constants_block(scenario),
        "summary": _summary_block(scenario, warn),
        "warnings": warn,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir / f"{name}_report.json", report)
    return report, 0


# ---------------------------------------------------------------------------
# entry point

_PRESETS = {"ligo": LIGO_PRESET}
# subcommand -> (runner, the config section it needs besides the scenario, the arguments it takes
# after the config and the output directory)
_COMMANDS = {
    "field": (run_field, "grid", ("format",)),
    "pressure": (run_pressure, None, ()),
    "integrals": (run_integrals, "grid", ("format",)),
    "validate": (validate_integrals, "sweep", ("format",)),
    "preset": (run_preset, None, ("name",)),
}


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc


def _merge(base: dict, doc, flags: dict) -> dict:
    """The config document ``doc`` over ``base`` (its scenario key by key), and the given flags over both."""
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be an object")
    merged = {**base, **doc, **flags}
    if "scenario" in base and isinstance(doc.get("scenario"), dict):
        merged["scenario"] = {**base["scenario"], **doc["scenario"]}
    return merged


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vacuumbeams",
        description="Quantum-vacuum corrections for counter-propagating beams",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, _, arguments) in _COMMANDS.items():
        p = sub.add_parser(name)
        if "name" in arguments:
            p.add_argument("name", choices=tuple(_PRESETS))
            p.add_argument("--config", help="optional JSON overrides merged onto the preset")
        else:
            p.add_argument("--config", required=True, help="JSON scenario config")
        p.add_argument("--mode", choices=_MODES, help="override config mode")
        p.add_argument("--tol", type=float, help="override integral tolerance")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=_FORMATS, default="csv", help="per-point table format")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    runner, section, arguments = _COMMANDS[args.subcommand]
    base = _PRESETS[args.name] if args.subcommand == "preset" else {}
    flags = {key: getattr(args, key) for key in ("mode", "tol") if getattr(args, key) is not None}
    try:
        doc = _load_config(args.config) if args.config else {}
        config = validate_config(_merge(base, doc, flags))
        if section is not None and section not in config:
            raise ConfigError(section, f"missing required section for the {args.subcommand} subcommand")
        _, code = runner(config, Path(args.out), *(getattr(args, a) for a in arguments))
        return code
    except (ConfigError, DomainError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numeric non-convergence: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
