import json
import math

import mpmath
import pytest

from vacuumbeams.cli import LIGO_PRESET, build_scenario, main, validate_config

BASE_CONFIG = {
    "scenario": {
        "power_w": 1e3,
        "wavelength_m": 1e-6,
        "w0_m": 5e-4,
        "R_m": 5e-4,
        "L_m": 5e-3,
        "r_modulus": 1.0,
        "r_phase_rad": 0.0,
    },
    "grid": {
        "rho_min_m": 1e-3,
        "rho_max_m": 2e-3,
        "rho_count": 2,
        "z_min_m": 1e-3,
        "z_max_m": 4e-3,
        "z_count": 2,
        "t_s": 0.0,
    },
    "mode": "both",
    "tol": 1e-7,
}


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_field_subcommand_both_modes(tmp_path):
    cfg = _write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["field", "--config", str(cfg), "--out", str(out)]) == 0
    table = (out / "field_points.csv").read_text().splitlines()
    assert table[0] == "rho_m,z_m,re_dEx,im_dEx,re_dBy,im_dBy,method,low_accuracy"
    assert len(table) == 1 + 2 * 2 * 2  # header + grid points x methods
    report = json.loads((out / "field_report.json").read_text())
    assert report["converged"] is True
    deltas = report["validation_deltas"]["rows"]
    assert len(deltas) == 4
    for row in deltas:
        assert all(math.isfinite(v) for v in row)


def test_field_report_is_deterministic(tmp_path):
    cfg = _write_config(tmp_path, BASE_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["field", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["field", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "field_report.json").read_bytes() == (out2 / "field_report.json").read_bytes()
    assert (out1 / "field_points.csv").read_bytes() == (out2 / "field_points.csv").read_bytes()


def test_field_rerun_from_echoed_config(tmp_path):
    cfg = _write_config(tmp_path, BASE_CONFIG)
    out1 = tmp_path / "a"
    assert main(["field", "--config", str(cfg), "--out", str(out1)]) == 0
    echoed = json.loads((out1 / "field_report.json").read_text())["config"]
    cfg2 = _write_config(tmp_path, echoed, name="echo.json")
    out2 = tmp_path / "b"
    assert main(["field", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert (out1 / "field_report.json").read_bytes() == (out2 / "field_report.json").read_bytes()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc["scenario"].update(R_m=-1.0),
        lambda doc: doc["scenario"].update(R_m=0.0),
        lambda doc: doc["scenario"].update(unknown_key=1.0),
        lambda doc: doc.update(extra_section={}),
        lambda doc: doc["scenario"].update(amplitude_sqrt_w_per_m=1.0),  # both power inputs
        lambda doc: doc["grid"].update(rho_min_m=0.0),
        lambda doc: doc["grid"].update(rho_count=0),
        lambda doc: doc.update(mode="sideways"),
        lambda doc: doc.update(tol=0.5),
        lambda doc: doc.update(max_nodes=0),
        lambda doc: doc["grid"].update(rho_count=1001, z_count=1000),  # over MAX_GRID_POINTS
        lambda doc: doc.update(max_nodes=8192),  # over MAX_NODES
    ],
)
def test_invalid_config_exits_2_without_outputs(tmp_path, mutate):
    doc = json.loads(json.dumps(BASE_CONFIG))
    mutate(doc)
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["field", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_missing_grid_exits_2(tmp_path):
    doc = json.loads(json.dumps(BASE_CONFIG))
    del doc["grid"]
    cfg = _write_config(tmp_path, doc)
    assert main(["field", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_pressure_subcommand(tmp_path):
    doc = {"scenario": dict(BASE_CONFIG["scenario"])}
    doc["scenario"].update(w0_m=0.05, R_m=0.05, L_m=10.0, power_w=1e5)
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["pressure", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "pressure_report.json").read_text())
    block = report["pressure"]
    assert block["classical_force_n"] > 0
    assert block["correction_origin_n"] == block["correction_end_n"]  # |r| = 1
    assert block["dimensionless_factor"] > 0


def test_pressure_unsupported_geometry_exits_2(tmp_path):
    doc = {"scenario": dict(BASE_CONFIG["scenario"])}
    doc["scenario"].update(w0_m=0.05, R_m=0.05, L_m=0.001)
    cfg = _write_config(tmp_path, doc)
    assert main(["pressure", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_integrals_subcommand(tmp_path):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["mode"] = "both"
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["integrals", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "integrals_points.csv").read_text().splitlines()
    assert lines[0].startswith("rho_m,z_m,sign,re_I,im_I,error_estimate,method")
    assert len(lines) == 1 + 2 * 2 * 2 * 2  # grid x signs x methods


def test_field_non_convergence_exits_3(tmp_path):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["mode"] = "numeric"
    doc["max_nodes"] = 4  # below the first n/2n pair of 16/32 nodes
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["field", "--config", str(cfg), "--out", str(out)]) == 3
    report = json.loads((out / "field_report.json").read_text())
    assert report["converged"] is False
    assert report["warnings"]


def test_integrals_non_convergence_exits_3(tmp_path):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["mode"] = "numeric"
    doc["max_nodes"] = 4  # below the first n/2n pair of 16/32 nodes
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["integrals", "--config", str(cfg), "--out", str(out)]) == 3
    report = json.loads((out / "integrals_report.json").read_text())
    assert report["converged"] is False
    assert report["warnings"]


def test_validate_subcommand_trend(tmp_path):
    doc = {
        "scenario": dict(BASE_CONFIG["scenario"]),
        "sweep": {"rho_m": 1e-3, "z_m": 2e-3, "k_rho_values": [1e2, 1e3, 1e4]},
        "tol": 1e-9,
    }
    doc["scenario"].update(L_m=1e-2)
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "validate_report.json").read_text())
    assert report["trend_ok"] is True
    lines = (out / "validate_table.csv").read_text().splitlines()
    assert lines[0] == "k_rho,deviation,kind"
    assert len(lines) == 4
    assert all(line.endswith("relative") for line in lines[1:])


def test_validate_shadow_point_reports_modulus(tmp_path):
    doc = {
        "scenario": dict(BASE_CONFIG["scenario"]),
        "sweep": {"rho_m": 1e-3, "z_m": 0.0, "k_rho_values": [1e4]},
    }
    doc["scenario"].update(L_m=1e-3)
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "validate_table.csv").read_text().splitlines()
    assert lines[1].endswith("abs_numeric_modulus")


def test_validate_empty_sweep_exits_2(tmp_path):
    doc = {
        "scenario": dict(BASE_CONFIG["scenario"]),
        "sweep": {"rho_m": 1e-3, "z_m": 2e-3, "k_rho_values": []},
    }
    cfg = _write_config(tmp_path, doc)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_preset_ligo(tmp_path):
    out = tmp_path / "out"
    assert main(["preset", "ligo", "--out", str(out)]) == 0
    report = json.loads((out / "ligo_report.json").read_text())
    summary = report["summary"]
    assert summary["cone_semi_angle_deg"] == pytest.approx(70.5288, abs=1e-3)
    assert summary["pressure_factor"] > 0
    assert summary["pressure_factor_quoted_order"] == 1e-33
    assert summary["field_ratio_at_R_printed"] > 0
    assert report["constants"]["p_e_quoted_w"] == 6.7e7


def test_preset_ligo_override(tmp_path):
    override = _write_config(tmp_path, {"scenario": {"L_m": 2000.0}}, name="override.json")
    out = tmp_path / "out"
    assert main(["preset", "ligo", "--config", str(override), "--out", str(out)]) == 0
    report = json.loads((out / "ligo_report.json").read_text())
    assert report["config"]["scenario"]["L_m"] == 2000.0


def test_cli_mode_and_tol_flags(tmp_path):
    cfg = _write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    code = main(["field", "--config", str(cfg), "--out", str(out), "--mode", "asymptotic", "--tol", "1e-8"])
    assert code == 0
    report = json.loads((out / "field_report.json").read_text())
    assert report["config"]["mode"] == "asymptotic"
    assert report["config"]["tol"] == 1e-8
    assert "validation_deltas" not in report


def test_json_table_format(tmp_path):
    cfg = _write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["field", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
    table = json.loads((out / "field_points.json").read_text())
    assert table["columns"][0] == "rho_m"
    assert len(table["rows"]) == 8


def test_missing_config_file_exits_2(tmp_path):
    assert main(["field", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["field", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_report_floats_have_17_significant_digits(tmp_path):
    out = tmp_path / "out"
    assert main(["preset", "ligo", "--out", str(out)]) == 0
    text = (out / "ligo_report.json").read_text()
    assert '"classical_force_n": 0.0050034614279722807' in text
    # report parses as plain JSON
    json.loads(text)


def test_dumps_report_rejects_non_finite():
    import pytest

    from vacuumbeams.cli import dumps_report

    with pytest.raises(ValueError):
        dumps_report({"bad": float("inf")})
    with pytest.raises(ValueError):
        dumps_report({"bad": float("nan")})


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_tables_reject_non_finite(tmp_path, bad):
    import numpy as np

    from vacuumbeams.cli import _write_table

    for x, y in [(bad, 0.5), (2.0, bad)]:  # a coordinate and a value column
        with pytest.raises(ValueError):
            _write_table(tmp_path / "t.csv", ("x", "y"), (np.array([1.0, x]),), [((np.array([0.5, y]),), None)], "csv")


def _ligo_field_rows(tmp_path, grid):
    doc = {"scenario": dict(LIGO_PRESET["scenario"]), "grid": grid, "mode": "asymptotic"}
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["field", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "field_points.csv").read_text().splitlines()
    assert len(lines) == 1 + grid["rho_count"] * grid["z_count"]
    scenario, _ = build_scenario(validate_config(doc))
    return scenario, [line.split(",") for line in lines[1:]]


_L = LIGO_PRESET["scenario"]["L_m"]
_EDGE = 1.0 / math.sqrt(8.0)  # support boundaries at z = rho/sqrt(8) and L - rho/sqrt(8), rho = 1 m
_WIDTH = math.sqrt(1.0 / (2.0 * math.pi / LIGO_PRESET["scenario"]["wavelength_m"]))  # Fresnel width at rho = 1 m


def _boundary_grid(z_edge):
    """rho = 1 m, z from -4 to +4 Fresnel widths around z_edge, in steps of 0.8 widths."""
    z_min, z_max = z_edge - 4 * _WIDTH, z_edge + 4 * _WIDTH
    return dict(rho_min_m=1.0, rho_max_m=1.0, rho_count=1, z_min_m=z_min, z_max_m=z_max, z_count=11)


@pytest.mark.parametrize(
    "grid",
    [
        # lit and shadow points over the whole arm and beyond both ends
        dict(rho_min_m=0.05, rho_max_m=300.0, rho_count=4, z_min_m=-250.0, z_max_m=4250.0, z_count=9),
        # the four support boundaries at rho = 1 m; beyond the outer two both terms vanish
        _boundary_grid(_EDGE),
        _boundary_grid(-_EDGE),
        _boundary_grid(_L - _EDGE),
        _boundary_grid(_L + _EDGE),
    ],
)
def test_field_table_matches_closed_form_oracle(tmp_path, grid):
    """Asymptotic LIGO-arm rows against the stationary-phase closed form in 30-digit mpmath."""
    scenario, rows = _ligo_field_rows(tmp_path, dict(grid, t_s=0.0))
    mp = mpmath.mpf
    flags = []
    with mpmath.workdps(30):
        k, L, r = mp(scenario.k), mp(scenario.L), mpmath.mpc(scenario.r)
        drive = 16 * r * mp(scenario.omega) ** 2 * mp(scenario.amplitude) ** 3
        w0, radius = mp(scenario.w0), mp(scenario.R)
        transverse = w0**2 / 4 * (1 - mpmath.exp(-3 * (radius / w0) ** 2))
        pref = mp(scenario.units.field_amplitude) * mp(scenario.constants.lambda_coupling) * drive * transverse
        for cells in rows:
            # the same double inputs as the CLI's natural-unit coordinates
            rho, z = (mp(float(c) / scenario.units.length) for c in cells[:2])
            terms, near = [], False
            for sign in (+1, -1):
                z0 = z - sign * rho / mpmath.sqrt(8)
                near |= abs(z0) < 3 * mpmath.sqrt(rho / k) or abs(z0 - L) < 3 * mpmath.sqrt(rho / k)
                phase = sign * k * z + mpmath.sqrt(8) * k * rho + mpmath.pi / 4
                lit = 0 < z0 < L
                terms.append(mpmath.sqrt(mpmath.pi / (mpmath.sqrt(2) * k * rho)) * mpmath.expj(phase) if lit else 0)
            ex, by = mpmath.mpc(float(cells[2]), float(cells[3])), mpmath.mpc(float(cells[4]), float(cells[5]))
            assert cells[6] == "asymptotic" and cells[7] == ("true" if near else "false")
            flags.append((terms != [0, 0], near))
            if terms == [0, 0]:
                assert cells[2:6] == ["0", "0", "0", "0"]
                continue
            scale = abs(pref) * (abs(terms[0]) + abs(r) * abs(terms[1]))
            assert abs(ex - pref * (terms[0] + r * terms[1])) <= 1e-9 * scale
            assert abs(by - pref * (terms[0] - r * terms[1]) / 3) <= 1e-9 * scale / 3
    lit, near = (set(column) for column in zip(*flags))
    assert True in lit
    assert near == ({True, False} if grid["rho_count"] == 1 else {False})
    assert (False in lit) == (not 0 < grid["z_min_m"] < _L)  # dark points only past an end
