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
from .correction import cone_geometry, correction_at, dimensionless_ratio
from .errors import ConfigError, ConvergenceError, DomainError, UnsupportedGeometryError
from .integrals import DEFAULT_MAX_NODES, PhaseModel, eval_asymptotic, eval_numeric
from .pressure import classical_force, pressure_report
from .units import codata_constants

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

_MODES = ("numeric", "asymptotic", "both")
_FORMATS = ("json", "csv")
_FIELD_COLUMNS = ("rho_m", "z_m", "re_dEx", "im_dEx", "re_dBy", "im_dBy", "method", "low_accuracy")


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("reports must not contain non-finite numbers")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
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


def _write_table(path: Path, columns: tuple[str, ...], rows: list[tuple], fmt: str) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(cell).strip('"') for cell in row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        payload = {"columns": list(columns), "rows": [list(row) for row in rows]}
        _write_report(path, payload)


# ---------------------------------------------------------------------------
# config validation


def _check_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}", "unknown key")


def _get_float(obj: dict, key: str, where: str, *, positive=False, nonneg=False, default=None):
    if key not in obj:
        if default is not None:
            return default
        raise ConfigError(f"{where}.{key}", "missing required value")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key}", "must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{where}.{key}", "must be finite")
    if positive and value <= 0:
        raise ConfigError(f"{where}.{key}", "must be positive")
    if nonneg and value < 0:
        raise ConfigError(f"{where}.{key}", "must be non-negative")
    return value


def _get_int(obj: dict, key: str, where: str, *, minimum: int) -> int:
    if key not in obj:
        raise ConfigError(f"{where}.{key}", "missing required value")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}", "must be an integer")
    if value < minimum:
        raise ConfigError(f"{where}.{key}", f"must be >= {minimum}")
    return value


def _validate_scenario(doc: dict) -> dict:
    if "scenario" not in doc or not isinstance(doc["scenario"], dict):
        raise ConfigError("scenario", "missing required section")
    sc = doc["scenario"]
    _check_keys(
        sc,
        ("power_w", "amplitude_sqrt_w_per_m", "wavelength_m", "w0_m", "R_m", "L_m", "r_modulus", "r_phase_rad"),
        "scenario",
    )
    has_power = "power_w" in sc
    has_amp = "amplitude_sqrt_w_per_m" in sc
    if has_power == has_amp:
        raise ConfigError("scenario.power_w", "give exactly one of power_w or amplitude_sqrt_w_per_m")
    out = {}
    if has_power:
        out["power_w"] = _get_float(sc, "power_w", "scenario", nonneg=True)
    else:
        out["amplitude_sqrt_w_per_m"] = _get_float(sc, "amplitude_sqrt_w_per_m", "scenario", nonneg=True)
    out["wavelength_m"] = _get_float(sc, "wavelength_m", "scenario", positive=True)
    out["w0_m"] = _get_float(sc, "w0_m", "scenario", positive=True)
    out["R_m"] = _get_float(sc, "R_m", "scenario", positive=True)
    out["L_m"] = _get_float(sc, "L_m", "scenario", positive=True)
    out["r_modulus"] = _get_float(sc, "r_modulus", "scenario", nonneg=True, default=1.0)
    if out["r_modulus"] > 1.0:
        raise ConfigError("scenario.r_modulus", "must not exceed 1")
    out["r_phase_rad"] = _get_float(sc, "r_phase_rad", "scenario", default=0.0)
    return out


def _validate_grid(doc: dict, wavelength_m: float) -> dict | None:
    if "grid" not in doc:
        return None
    grid = doc["grid"]
    if not isinstance(grid, dict):
        raise ConfigError("grid", "must be an object")
    _check_keys(
        grid,
        ("rho_min_m", "rho_max_m", "rho_count", "z_min_m", "z_max_m", "z_count", "t_s"),
        "grid",
    )
    out = {
        "rho_min_m": _get_float(grid, "rho_min_m", "grid", positive=True),
        "rho_max_m": _get_float(grid, "rho_max_m", "grid", positive=True),
        "rho_count": _get_int(grid, "rho_count", "grid", minimum=1),
        "z_min_m": _get_float(grid, "z_min_m", "grid"),
        "z_max_m": _get_float(grid, "z_max_m", "grid"),
        "z_count": _get_int(grid, "z_count", "grid", minimum=1),
        "t_s": _get_float(grid, "t_s", "grid", default=0.0),
    }
    min_rho = wavelength_m / 1e3
    if out["rho_min_m"] < min_rho:
        raise ConfigError("grid.rho_min_m", f"must be >= wavelength/1e3 = {min_rho:.3e} m (axis singularity)")
    if out["rho_max_m"] < out["rho_min_m"]:
        raise ConfigError("grid.rho_max_m", "must be >= rho_min_m")
    if out["z_max_m"] < out["z_min_m"]:
        raise ConfigError("grid.z_max_m", "must be >= z_min_m")
    return out


def _validate_sweep(doc: dict) -> dict | None:
    if "sweep" not in doc:
        return None
    sweep = doc["sweep"]
    if not isinstance(sweep, dict):
        raise ConfigError("sweep", "must be an object")
    _check_keys(sweep, ("rho_m", "z_m", "k_rho_values"), "sweep")
    values = sweep.get("k_rho_values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.k_rho_values", "must be a non-empty list")
    out_values = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(float(v)) or v <= 0:
            raise ConfigError(f"sweep.k_rho_values[{i}]", "must be a positive number")
        out_values.append(float(v))
    return {
        "rho_m": _get_float(sweep, "rho_m", "sweep", positive=True),
        "z_m": _get_float(sweep, "z_m", "sweep"),
        "k_rho_values": out_values,
    }


def validate_config(doc: dict) -> dict:
    """Strict validation; returns a normalized config with defaults filled."""
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be an object")
    _check_keys(doc, ("scenario", "grid", "mode", "tol", "max_nodes", "sweep"), "config")
    scenario = _validate_scenario(doc)
    mode = doc.get("mode", "asymptotic")
    if mode not in _MODES:
        raise ConfigError("mode", f"must be one of {_MODES}")
    tol = _get_float(doc, "tol", "config", default=1e-9)
    if not (1e-14 < tol < 1e-2):
        raise ConfigError("tol", "must lie in (1e-14, 1e-2)")
    max_nodes = doc.get("max_nodes", DEFAULT_MAX_NODES)
    if isinstance(max_nodes, bool) or not isinstance(max_nodes, int) or max_nodes < 2:
        raise ConfigError("max_nodes", "must be an integer >= 2")
    out = {"scenario": scenario, "mode": mode, "tol": tol, "max_nodes": max_nodes}
    grid = _validate_grid(doc, scenario["wavelength_m"])
    if grid is not None:
        out["grid"] = grid
    sweep = _validate_sweep(doc)
    if sweep is not None:
        out["sweep"] = sweep
    return out


def build_scenario(config: dict) -> tuple[BeamScenario, list[str]]:
    """Construct the natural-unit scenario, collecting warning diagnostics."""
    sc = config["scenario"]
    r = sc["r_modulus"] * complex(math.cos(sc["r_phase_rad"]), math.sin(sc["r_phase_rad"]))
    kwargs = dict(
        wavelength_m=sc["wavelength_m"],
        w0_m=sc["w0_m"],
        R_m=sc["R_m"],
        L_m=sc["L_m"],
        r=r,
        constants=codata_constants(),
    )
    if "power_w" in sc:
        kwargs["power_w"] = sc["power_w"]
    else:
        kwargs["amplitude_si"] = sc["amplitude_sqrt_w_per_m"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scenario = BeamScenario.from_si(**kwargs)
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


def _grid_values(grid: dict) -> tuple[list[float], list[float], float]:
    rho = [float(v) for v in np.linspace(grid["rho_min_m"], grid["rho_max_m"], grid["rho_count"])]
    z = [float(v) for v in np.linspace(grid["z_min_m"], grid["z_max_m"], grid["z_count"])]
    return rho, z, grid["t_s"]


def run_field(config: dict, out_dir: Path, fmt: str) -> tuple[dict, int]:
    """Grid evaluation of the correction field; returns (report, exit_code)."""
    scenario, warn = build_scenario(config)
    if "grid" not in config:
        raise ConfigError("grid", "missing required section for the field subcommand")
    rho_m, z_m, t_s = _grid_values(config["grid"])
    units = scenario.units
    t = units.time_from_si(t_s)
    modes = ("numeric", "asymptotic") if config["mode"] == "both" else (config["mode"],)
    rows = []
    deltas = []
    converged = True
    for rho in rho_m:
        for z in z_m:
            per_mode = {}
            for mode in modes:
                try:
                    corr = correction_at(
                        units.length_from_si(rho),
                        units.length_from_si(z),
                        t,
                        scenario,
                        mode=mode,
                        tol=config["tol"],
                        max_nodes=config["max_nodes"],
                    )
                except ConvergenceError as exc:
                    converged = False
                    warn.append(f"non-convergence at rho={rho:.6g} m, z={z:.6g} m: {exc}")
                    continue
                ex = units.field_to_si(1.0) * corr.delta_ex
                by = units.field_to_si(1.0) * corr.delta_by
                per_mode[mode] = (ex, by)
                rows.append((float(rho), float(z), ex.real, ex.imag, by.real, by.imag, mode, corr.low_accuracy))
            if len(per_mode) == 2:
                d_ex = abs(per_mode["numeric"][0] - per_mode["asymptotic"][0])
                d_by = abs(per_mode["numeric"][1] - per_mode["asymptotic"][1])
                deltas.append((float(rho), float(z), d_ex, d_by))
    table_name = f"field_points.{fmt}"
    report = {
        "subcommand": "field",
        "config": config,
        "constants": _constants_block(scenario),
        "summary": _summary_block(scenario, warn),
        "field_unit": "sqrt(W)/m (power-equivalent amplitude)",
        "points_table": table_name,
        "point_count": len(rows),
        "converged": converged,
        "warnings": warn,
    }
    if deltas:
        report["validation_deltas"] = {
            "columns": ["rho_m", "z_m", "abs_delta_dEx", "abs_delta_dBy"],
            "rows": [list(d) for d in deltas],
        }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(out_dir / table_name, _FIELD_COLUMNS, rows, fmt)
    _write_report(out_dir / "field_report.json", report)
    return report, 0 if converged else 3


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
    scenario, warn = build_scenario(config)
    if "grid" not in config:
        raise ConfigError("grid", "missing required section for the integrals subcommand")
    rho_m, z_m, _ = _grid_values(config["grid"])
    units = scenario.units
    numeric = config["mode"] in ("numeric", "both")
    asymptotic = config["mode"] in ("asymptotic", "both")
    rows = []
    converged = True
    for rho in rho_m:
        for z in z_m:
            for sign in (+1, -1):
                model = PhaseModel(
                    rho=units.length_from_si(rho),
                    z=units.length_from_si(z),
                    k=scenario.k,
                    L=scenario.L,
                    sign=sign,
                )
                results = []
                if numeric:
                    try:
                        results.append(eval_numeric(model, tol=config["tol"], max_nodes=config["max_nodes"]))
                    except ConvergenceError as exc:
                        converged = False
                        warn.append(f"non-convergence at rho={rho:.6g} m, z={z:.6g} m, sign={sign:+d}: {exc}")
                if asymptotic:
                    results.append(eval_asymptotic(model))
                for res in results:
                    rows.append(
                        (
                            float(rho),
                            float(z),
                            sign,
                            res.value.real,
                            res.value.imag,
                            res.error_estimate,
                            res.method,
                            units.length_to_si(res.stationary_point),
                            res.in_support,
                            res.low_accuracy,
                        )
                    )
    columns = (
        "rho_m",
        "z_m",
        "sign",
        "re_I",
        "im_I",
        "error_estimate",
        "method",
        "stationary_point_m",
        "in_support",
        "low_accuracy",
    )
    table_name = f"integrals_points.{fmt}"
    report = {
        "subcommand": "integrals",
        "config": config,
        "constants": _constants_block(scenario),
        "points_table": table_name,
        "point_count": len(rows),
        "converged": converged,
        "warnings": warn,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(out_dir / table_name, columns, rows, fmt)
    _write_report(out_dir / "integrals_report.json", report)
    return report, 0 if converged else 3


def validate_integrals(config: dict, out_dir: Path, fmt: str) -> tuple[dict, int]:
    """Sweep k*rho; tabulate numeric-vs-asymptotic deviation and check the trend."""
    if "sweep" not in config:
        raise ConfigError("sweep", "missing required section for the validate subcommand")
    sweep = config["sweep"]
    rho_m = sweep["rho_m"]
    z_m = sweep["z_m"]
    base_scenario, warn = build_scenario(config)
    rows = []
    converged = True
    for k_rho in sweep["k_rho_values"]:
        k_si = k_rho / rho_m
        wavelength_m = 2.0 * math.pi / k_si
        variant = dict(config["scenario"])
        variant["wavelength_m"] = wavelength_m
        scenario, extra = build_scenario({**config, "scenario": variant})
        warn.extend(f"k_rho={k_rho:.6g}: {message}" for message in extra)
        units = scenario.units
        model = PhaseModel(
            rho=units.length_from_si(rho_m),
            z=units.length_from_si(z_m),
            k=scenario.k,
            L=scenario.L,
            sign=+1,
        )
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
    relative = [(k, d) for k, d, kind in rows if kind == "relative"]
    relative.sort(key=lambda item: item[0])
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
    _write_table(out_dir / table_name, ("k_rho", "deviation", "kind"), rows, fmt)
    _write_report(out_dir / "validate_report.json", report)
    return report, 0 if converged else 3


def run_preset(name: str, override: dict | None, out_dir: Path) -> tuple[dict, int]:
    if name != "ligo":
        raise ConfigError("preset", f"unknown preset {name!r}")
    doc = {key: (dict(value) if isinstance(value, dict) else value) for key, value in LIGO_PRESET.items()}
    if override:
        for key, value in override.items():
            if key == "scenario" and isinstance(value, dict):
                doc["scenario"].update(value)
            else:
                doc[key] = value
    config = validate_config(doc)
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


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vacuumbeams",
        description="Quantum-vacuum corrections for counter-propagating beams",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("field", "pressure", "integrals", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON scenario config")
        p.add_argument("--mode", choices=_MODES, help="override config mode")
        p.add_argument("--tol", type=float, help="override integral tolerance")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=_FORMATS, default="csv", help="per-point table format")
    p = sub.add_parser("preset")
    p.add_argument("name", choices=("ligo",))
    p.add_argument("--config", help="optional JSON overrides merged onto the preset")
    p.add_argument("--mode", choices=_MODES, help="override config mode")
    p.add_argument("--tol", type=float, help="override integral tolerance")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=_FORMATS, default="csv", help="per-point table format")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        if args.subcommand == "preset":
            override = _load_config(args.config) if args.config else None
            _, code = run_preset(args.name, override, out_dir)
            return code
        doc = _load_config(args.config)
        if args.mode is not None:
            doc["mode"] = args.mode
        if args.tol is not None:
            doc["tol"] = args.tol
        config = validate_config(doc)
        if args.subcommand == "field":
            _, code = run_field(config, out_dir, args.format)
        elif args.subcommand == "pressure":
            _, code = run_pressure(config, out_dir)
        elif args.subcommand == "integrals":
            _, code = run_integrals(config, out_dir, args.format)
        else:
            _, code = validate_integrals(config, out_dir, args.format)
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
