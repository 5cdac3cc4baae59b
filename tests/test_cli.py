import json
import math

import pytest

from vacuumbeams.cli import main

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
