"""Seeded workload definitions: the configs the ``vacuumbeams`` CLI receives.

Each workload is a list of CLI invocations.  The seed jitters grid bounds and
wavenumbers inside each workload's stated ranges; the CLI only ever sees the
generated config files.  ``size="tiny"`` shrinks every workload for the
benchmark self-test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 1

LIGO_SCENARIO = {
    "power_w": 750e3,
    "wavelength_m": 1000e-9,
    "w0_m": 0.1,
    "R_m": 0.1,
    "L_m": 4000.0,
    "r_modulus": 1.0,
    "r_phase_rad": 0.0,
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``vacuumbeams <subcommand> --config <config>``."""

    subcommand: str  # "field" | "integrals"
    config: dict

    @property
    def modes(self) -> tuple[str, ...]:
        mode = self.config["mode"]
        return ("numeric", "asymptotic") if mode == "both" else (mode,)

    def grid(self) -> tuple[list[float], list[float]]:
        g = self.config["grid"]
        rho = [float(v) for v in np.linspace(g["rho_min_m"], g["rho_max_m"], g["rho_count"])]
        z = [float(v) for v in np.linspace(g["z_min_m"], g["z_max_m"], g["z_count"])]
        return rho, z

    def row_keys(self) -> list[tuple]:
        """Expected table rows in CLI order: (rho_m, z_m, tag).

        The tag is the mode for ``field`` rows and (sign, mode) for
        ``integrals`` rows.
        """
        rho, z = self.grid()
        if self.subcommand == "field":
            tags = list(self.modes)
        else:
            tags = [(sign, mode) for sign in (+1, -1) for mode in self.modes]
        return [(r, zz, tag) for r in rho for zz in z for tag in tags]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]

    @property
    def items(self) -> int:
        return sum(len(inv.row_keys()) for inv in self.invocations)


def _jitter(rng: random.Random, spread: float) -> float:
    return math.exp(rng.uniform(-spread, spread))


def field_grid_asym(seed: int, size: str = "full") -> Workload:
    """LIGO arm, asymptotic mode, rho x z grid over lit and shadow regions."""
    rng = random.Random(f"field-grid-asym:{seed}")
    rho_count, z_count = (120, 125) if size == "full" else (6, 7)
    config = {
        "scenario": dict(LIGO_SCENARIO),
        "grid": {
            "rho_min_m": 0.05 * _jitter(rng, 0.03),
            "rho_max_m": 300.0 * _jitter(rng, 0.03),
            "rho_count": rho_count,
            # z/L spans [-0.06, 1.06]: both ends have shadow points for small rho.
            "z_min_m": -250.0 * _jitter(rng, 0.03),
            "z_max_m": 4250.0 * _jitter(rng, 0.005),
            "z_count": z_count,
            "t_s": 0.0,
        },
        "mode": "asymptotic",
        "tol": 1e-9,
    }
    return Workload("field-grid-asym", (Invocation("field", config),))


def integrals_kl_sweep(seed: int, size: str = "full") -> Workload:
    """Few large numeric integrals with k*L stepping by half-decades."""
    rng = random.Random(f"integrals-kl-sweep:{seed}")
    L_m = 5e-3
    steps = 5 if size == "full" else 2
    nominal = [5e3 * 10 ** (i / 2) for i in range(steps)]
    if size == "tiny":
        nominal = [v / 10 for v in nominal]
    # Jitter each k*L, then rescale so their sum (which sets a pass's cost,
    # linear in k*L at the parent) stays at the nominal sum.
    jittered = [v * _jitter(rng, 0.05) for v in nominal]
    scale = sum(nominal) / sum(jittered)
    rho_m = 1e-3 * _jitter(rng, 0.02)
    invocations = []
    for kl in jittered:
        kl *= scale
        config = {
            "scenario": {
                "power_w": 1.0,
                "wavelength_m": 2.0 * math.pi * L_m / kl,
                "w0_m": 1e-3,
                "R_m": 1e-3,
                "L_m": L_m,
            },
            "grid": {
                "rho_min_m": rho_m,
                "rho_max_m": rho_m,
                "rho_count": 1,
                "z_min_m": L_m / 2,
                "z_max_m": L_m / 2,
                "z_count": 1,
            },
            "mode": "numeric",
            "tol": 1e-7,
        }
        invocations.append(Invocation("integrals", config))
    return Workload("integrals-kl-sweep", tuple(invocations))


def field_boundary_both(seed: int, size: str = "full") -> Workload:
    """Both modes on points straddling the support boundary z = rho/sqrt(8)."""
    rng = random.Random(f"field-boundary-both:{seed}")
    L_m = 1e-3
    kl = 6e3 * _jitter(rng, 0.02)
    k_si = kl / L_m
    rho_m = 5e-4 * _jitter(rng, 0.02)
    width = math.sqrt(rho_m / k_si)  # Fresnel width around the boundary
    half = 20 if size == "full" else 2
    centre = rho_m / math.sqrt(8.0) + rng.uniform(-0.5, 0.5) * width
    config = {
        "scenario": {
            "power_w": 1e3,
            "wavelength_m": 2.0 * math.pi / k_si,
            "w0_m": 1e-3,
            "R_m": 1e-3,
            "L_m": L_m,
        },
        "grid": {
            "rho_min_m": rho_m,
            "rho_max_m": rho_m,
            "rho_count": 1,
            "z_min_m": centre - (half - 0.5) * width,
            "z_max_m": centre + (half - 0.5) * width,
            "z_count": 2 * half,
            "t_s": 0.0,
        },
        "mode": "both",
        "tol": 1e-7,
    }
    return Workload("field-boundary-both", (Invocation("field", config),))


WORKLOADS = {
    "field-grid-asym": field_grid_asym,
    "integrals-kl-sweep": integrals_kl_sweep,
    "field-boundary-both": field_boundary_both,
}


def make(name: str, seed: int, size: str = "full") -> Workload:
    return WORKLOADS[name](seed, size)
