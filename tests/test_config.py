"""Golden contract of config validation.

Every bad config exits 2 with one exact ``invalid config: <field>: <message>`` line on stderr and
writes nothing; a good config is echoed normalized, with its keys in a fixed order.
"""

import copy
import json
import math

import pytest

from vacuumbeams.cli import dumps_report, main, validate_config

FULL = {
    "scenario": {
        "power_w": 1000,
        "wavelength_m": 1e-6,
        "w0_m": 5e-4,
        "R_m": 5e-4,
        "L_m": 5e-3,
        "r_modulus": 1,
        "r_phase_rad": 0.25,
    },
    "grid": {
        "rho_min_m": 1e-3,
        "rho_max_m": 2e-3,
        "rho_count": 2,
        "z_min_m": 1e-3,
        "z_max_m": 4e-3,
        "z_count": 3,
        "t_s": 0,
    },
    "sweep": {"rho_m": 1e-3, "z_m": 2e-3, "k_rho_values": [100, 1e3]},
    "mode": "both",
    "tol": 1e-7,
    "max_nodes": 512,
}

FULL_ECHO = """{
  "scenario": {
    "power_w": 1000,
    "wavelength_m": 9.9999999999999995e-07,
    "w0_m": 0.00050000000000000001,
    "R_m": 0.00050000000000000001,
    "L_m": 0.0050000000000000001,
    "r_modulus": 1,
    "r_phase_rad": 0.25
  },
  "mode": "both",
  "tol": 9.9999999999999995e-08,
  "max_nodes": 512,
  "grid": {
    "rho_min_m": 0.001,
    "rho_max_m": 0.002,
    "rho_count": 2,
    "z_min_m": 0.001,
    "z_max_m": 0.0040000000000000001,
    "z_count": 3,
    "t_s": 0
  },
  "sweep": {
    "rho_m": 0.001,
    "z_m": 0.002,
    "k_rho_values": [
      100,
      1000
    ]
  }
}"""

MINIMAL_ECHO = """{
  "scenario": {
    "amplitude_sqrt_w_per_m": 2,
    "wavelength_m": 9.9999999999999995e-07,
    "w0_m": 0.10000000000000001,
    "R_m": 0.10000000000000001,
    "L_m": 4000,
    "r_modulus": 1,
    "r_phase_rad": 0
  },
  "mode": "asymptotic",
  "tol": 1.0000000000000001e-09,
  "max_nodes": 1024
}"""


def test_full_config_echo_is_normalized_in_report_order():
    doc = copy.deepcopy(FULL)
    doc = dict(reversed(list(doc.items())))  # input order does not matter
    doc["scenario"] = dict(reversed(list(doc["scenario"].items())))
    config = validate_config(doc)
    assert dumps_report(config) == FULL_ECHO
    counts = ("rho_count", "z_count")
    for section in ("scenario", "grid", "sweep"):
        for key, value in config[section].items():
            assert type(value) is (int if key in counts else list if key == "k_rho_values" else float), key
    assert [type(v) for v in config["sweep"]["k_rho_values"]] == [float, float]
    assert type(config["tol"]) is float and type(config["max_nodes"]) is int


def test_minimal_config_echo_fills_defaults():
    doc = {"scenario": {"L_m": 4000.0, "R_m": 0.1, "w0_m": 0.1, "wavelength_m": 1e-6, "amplitude_sqrt_w_per_m": 2}}
    assert dumps_report(validate_config(doc)) == MINIMAL_ECHO


def _set(section, **values):
    def mutate(doc):
        (doc if section is None else doc[section]).update(values)

    return mutate


def _drop(section, key):
    def mutate(doc):
        del (doc if section is None else doc[section])[key]

    return mutate


def _without(section, key):
    return {k: v for k, v in section.items() if k != key}


_INT_BELOW = "must be an integer >= 2"
_MODE = "must be one of ('numeric', 'asymptotic', 'both')"
_ONE_POWER = "give exactly one of power_w or amplitude_sqrt_w_per_m"

# (mutation of FULL, field, message); every case breaks exactly one rule
CASES = [
    # top level
    (_set(None, extra={}), "config.extra", "unknown key"),
    (_set(None, max_segments=64), "config.max_segments", "unknown key"),
    (_drop(None, "scenario"), "scenario", "missing required section"),
    (_set(None, scenario=[1.0]), "scenario", "must be an object"),
    (_set(None, mode="sideways"), "mode", _MODE),
    (_set(None, mode=1), "mode", _MODE),
    (_set(None, tol="1e-9"), "config.tol", "must be a number"),
    (_set(None, tol=True), "config.tol", "must be a number"),
    (_set(None, tol=math.nan), "config.tol", "must be finite"),
    (_set(None, tol=0.5), "tol", "must lie in (1e-14, 1e-2)"),
    (_set(None, tol=1e-14), "tol", "must lie in (1e-14, 1e-2)"),
    (_set(None, max_nodes=1), "max_nodes", _INT_BELOW),
    (_set(None, max_nodes=16.0), "max_nodes", _INT_BELOW),
    (_set(None, max_nodes=True), "max_nodes", _INT_BELOW),
    (_set(None, max_nodes=4097), "max_nodes", "must not exceed 4096"),
    # scenario
    (_set("scenario", unknown_key=1.0), "scenario.unknown_key", "unknown key"),
    (_set("scenario", amplitude_sqrt_w_per_m=1.0), "scenario.power_w", _ONE_POWER),
    (_drop("scenario", "power_w"), "scenario.power_w", _ONE_POWER),
    (_set("scenario", power_w="1e3"), "scenario.power_w", "must be a number"),
    (_set("scenario", power_w=-1.0), "scenario.power_w", "must be non-negative"),
    (_set("scenario", power_w=math.inf), "scenario.power_w", "must be finite"),
    (
        lambda doc: doc.update(scenario={**_without(doc["scenario"], "power_w"), "amplitude_sqrt_w_per_m": -1.0}),
        "scenario.amplitude_sqrt_w_per_m",
        "must be non-negative",
    ),
    (
        lambda doc: doc.update(scenario={**_without(doc["scenario"], "power_w"), "amplitude_sqrt_w_per_m": []}),
        "scenario.amplitude_sqrt_w_per_m",
        "must be a number",
    ),
    (_drop("scenario", "wavelength_m"), "scenario.wavelength_m", "missing required value"),
    (_drop("scenario", "w0_m"), "scenario.w0_m", "missing required value"),
    (_drop("scenario", "R_m"), "scenario.R_m", "missing required value"),
    (_drop("scenario", "L_m"), "scenario.L_m", "missing required value"),
    (_set("scenario", wavelength_m=0.0), "scenario.wavelength_m", "must be positive"),
    (_set("scenario", w0_m=-1e-3), "scenario.w0_m", "must be positive"),
    (_set("scenario", R_m=0), "scenario.R_m", "must be positive"),
    (_set("scenario", L_m=None), "scenario.L_m", "must be a number"),
    (_set("scenario", L_m=-math.inf), "scenario.L_m", "must be finite"),
    (_set("scenario", r_modulus=1.5), "scenario.r_modulus", "must not exceed 1"),
    (_set("scenario", r_modulus=-0.1), "scenario.r_modulus", "must be non-negative"),
    (_set("scenario", r_modulus="1"), "scenario.r_modulus", "must be a number"),
    (_set("scenario", r_phase_rad=math.inf), "scenario.r_phase_rad", "must be finite"),
    (_set("scenario", r_phase_rad=False), "scenario.r_phase_rad", "must be a number"),
    # grid
    (_set(None, grid=[]), "grid", "must be an object"),
    (_set("grid", dx=1.0), "grid.dx", "unknown key"),
    (_drop("grid", "rho_min_m"), "grid.rho_min_m", "missing required value"),
    (_drop("grid", "z_count"), "grid.z_count", "missing required value"),
    (_set("grid", rho_min_m=0.0), "grid.rho_min_m", "must be positive"),
    (_set("grid", rho_max_m=-2e-3), "grid.rho_max_m", "must be positive"),
    (_set("grid", rho_count=0), "grid.rho_count", "must be >= 1"),
    (_set("grid", rho_count=2.0), "grid.rho_count", "must be an integer"),
    (_set("grid", z_count=True), "grid.z_count", "must be an integer"),
    (_set("grid", z_min_m=math.nan), "grid.z_min_m", "must be finite"),
    (_set("grid", t_s="0"), "grid.t_s", "must be a number"),
    (_set("grid", rho_min_m=1e-10), "grid.rho_min_m", "must be >= wavelength/1e3 = 1.000e-09 m (axis singularity)"),
    (_set("grid", rho_max_m=5e-4), "grid.rho_max_m", "must be >= rho_min_m"),
    (_set("grid", z_max_m=0.0), "grid.z_max_m", "must be >= z_min_m"),
    (_set("grid", rho_count=1001, z_count=1000), "grid.z_count", "rho_count * z_count must not exceed 1000000"),
    # sweep
    (_set(None, sweep="rho"), "sweep", "must be an object"),
    (_set("sweep", x=1.0), "sweep.x", "unknown key"),
    (_set("sweep", k_rho_values=[]), "sweep.k_rho_values", "must be a non-empty list"),
    (_drop("sweep", "k_rho_values"), "sweep.k_rho_values", "must be a non-empty list"),
    (_set("sweep", k_rho_values=5.0), "sweep.k_rho_values", "must be a non-empty list"),
    (_set("sweep", k_rho_values=[1e2, -1.0]), "sweep.k_rho_values[1]", "must be a positive number"),
    (_set("sweep", k_rho_values=[True]), "sweep.k_rho_values[0]", "must be a positive number"),
    (_set("sweep", k_rho_values=[1e2, 1e3, math.nan]), "sweep.k_rho_values[2]", "must be a positive number"),
    (_set("sweep", rho_m=0.0), "sweep.rho_m", "must be positive"),
    (_drop("sweep", "z_m"), "sweep.z_m", "missing required value"),
]


def _run(tmp_path, capsys, argv, doc=None):
    """Exit code, stderr and whether the output directory exists after one CLI call."""
    out = tmp_path / "out"
    if doc is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [*argv, "--config", str(path)]
    capsys.readouterr()
    code = main([*argv, "--out", str(out)])
    return code, capsys.readouterr().err, out.exists()


@pytest.mark.parametrize("mutate,field,message", CASES)
def test_bad_config_exits_2_with_exact_message(tmp_path, capsys, mutate, field, message):
    doc = copy.deepcopy(FULL)
    mutate(doc)
    assert _run(tmp_path, capsys, ["field"], doc) == (2, f"invalid config: {field}: {message}\n", False)


@pytest.mark.parametrize(
    "argv,doc,line",
    [
        (["field"], [FULL], "config: top level must be an object"),
        (["field", "--mode", "numeric"], [FULL], "config: top level must be an object"),
        (["field", "--tol", "1e-8"], [FULL], "config: top level must be an object"),
        (["preset", "ligo"], [FULL], "config: top level must be an object"),
        (["preset", "ligo"], [], "config: top level must be an object"),
        (["preset", "ligo", "--tol", "0.5"], None, "tol: must lie in (1e-14, 1e-2)"),
        (["preset", "ligo", "--mode", "numeric", "--tol", "nan"], {}, "config.tol: must be finite"),
        (["field", "--tol", "0.5"], FULL, "tol: must lie in (1e-14, 1e-2)"),
        (["field"], _without(FULL, "grid"), "grid: missing required section for the field subcommand"),
        (["integrals"], _without(FULL, "grid"), "grid: missing required section for the integrals subcommand"),
        (["validate"], _without(FULL, "sweep"), "sweep: missing required section for the validate subcommand"),
        (["preset", "ligo"], {"scenario": {"r_modulus": 2.0}}, "scenario.r_modulus: must not exceed 1"),
        (["preset", "ligo"], {"scenario": {"amplitude_sqrt_w_per_m": 1.0}}, f"scenario.power_w: {_ONE_POWER}"),
        (["preset", "ligo"], {"scenario": None}, "scenario: must be an object"),
        (["preset", "ligo"], {"grid": 3}, "grid: must be an object"),
        (["preset", "ligo"], {"mode": "fast"}, f"mode: {_MODE}"),
    ],
)
def test_cli_paths_exit_2_with_exact_message(tmp_path, capsys, argv, doc, line):
    assert _run(tmp_path, capsys, argv, doc) == (2, f"invalid config: {line}\n", False)


def test_max_nodes_bound_is_inclusive():
    assert validate_config({**FULL, "max_nodes": 4096})["max_nodes"] == 4096


def test_preset_applies_mode_and_tol_flags(tmp_path, capsys):
    code, err, _ = _run(tmp_path, capsys, ["preset", "ligo", "--mode", "both", "--tol", "1e-8"])
    config = json.loads((tmp_path / "out" / "ligo_report.json").read_text())["config"]
    assert (code, err, config["mode"], config["tol"]) == (0, "", "both", 1e-8)
