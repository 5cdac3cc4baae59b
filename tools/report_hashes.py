"""Print the SHA-256 of every output of a fixed set of CLI runs.

Run from anywhere as ``python3 tools/report_hashes.py``: it imports the package from the ``src``
directory next to this file, runs each invocation in-process into a temporary directory, and
prints one line per run (exit code and name) followed by one line per output file (hash and
name), then the hash of all of it.  Two checkouts whose printouts are equal wrote the same bytes,
so a refactor that must keep reports byte-identical can be checked with one command per side.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vacuumbeams.cli import LIGO_PRESET, main  # noqa: E402

TOY = {
    "scenario": {
        "power_w": 1e3,
        "wavelength_m": 1e-6,
        "w0_m": 5e-4,
        "R_m": 5e-4,
        "L_m": 5e-3,
        "r_modulus": 0.8,
        "r_phase_rad": 0.3,
    },
    # lit and shadow points, before, inside and beyond the arm
    "grid": {"rho_min_m": 1e-4, "rho_max_m": 6e-3, "rho_count": 4, "z_min_m": -1e-3, "z_max_m": 6e-3, "z_count": 5},
    "tol": 1e-9,
}
LIGO_GRID = {"rho_min_m": 0.05, "rho_max_m": 300.0, "rho_count": 40, "z_min_m": -250.0, "z_max_m": 4250.0, "z_count": 60}
SWEEP = {"rho_m": 1e-3, "z_m": 2e-3, "k_rho_values": [1e2, 1e3, 1e4]}
SHADOW_SWEEP = {"rho_m": 1e-3, "z_m": 0.0, "k_rho_values": [1e4]}


def _with(doc: dict, **changes) -> dict:
    return {**copy.deepcopy(doc), **changes}


def _scenario(**changes) -> dict:
    return {**TOY["scenario"], **changes}


# (name, argv before --config/--out, config document or None)
RUNS = [
    *(
        (f"field-{mode}-{fmt}", ["field", "--format", fmt], _with(TOY, mode=mode))
        for mode in ("asymptotic", "numeric", "both")
        for fmt in ("csv", "json")
    ),
    ("field-complex-r-t", ["field"], _with(TOY, mode="both", grid={**TOY["grid"], "t_s": 3e-16})),
    ("field-ligo-asymptotic", ["field"], {"scenario": LIGO_PRESET["scenario"], "grid": LIGO_GRID}),
    ("field-some-fail", ["field"], _with(TOY, mode="numeric", tol=1e-10, max_nodes=32)),
    ("field-all-fail", ["field", "--mode", "numeric"], _with(TOY, max_nodes=4)),
    *((f"integrals-{mode}", ["integrals", "--mode", mode], TOY) for mode in ("asymptotic", "numeric", "both")),
    ("integrals-both-json", ["integrals", "--format", "json"], _with(TOY, mode="both")),
    ("integrals-some-fail", ["integrals"], _with(TOY, mode="numeric", tol=1e-10, max_nodes=32)),
    ("validate", ["validate"], {"scenario": _scenario(L_m=1e-2), "sweep": SWEEP}),
    ("validate-json", ["validate", "--format", "json"], {"scenario": _scenario(L_m=1e-2), "sweep": SWEEP}),
    ("validate-shadow", ["validate"], {"scenario": _scenario(L_m=1e-3), "sweep": SHADOW_SWEEP}),
    ("validate-all-fail", ["validate"], {"scenario": TOY["scenario"], "sweep": SWEEP, "max_nodes": 4}),
    ("pressure", ["pressure"], {"scenario": _scenario(w0_m=0.05, R_m=0.05, L_m=10.0, power_w=1e5)}),
    ("preset-ligo", ["preset", "ligo"], None),
    ("preset-ligo-override", ["preset", "ligo"], {"scenario": {"L_m": 2000.0, "r_modulus": 0.5}, "grid": LIGO_GRID}),
]


def main_hashes() -> str:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, doc in RUNS:
            run_dir = Path(tmp) / name
            run_dir.mkdir()
            if doc is not None:
                (run_dir / "config.json").write_text(json.dumps(doc), encoding="utf-8")
                argv = [*argv, "--config", str(run_dir / "config.json")]
            code = main([*argv, "--out", str(run_dir / "out")])
            lines.append(f"exit {code}  {name}")
            for path in sorted((run_dir / "out").iterdir()):
                lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}")
    text = "\n".join(lines) + "\n"
    return text + f"{hashlib.sha256(text.encode()).hexdigest()}  all\n"


if __name__ == "__main__":
    sys.stdout.write(main_hashes())
