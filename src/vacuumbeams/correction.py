"""First-order vacuum correction field and the conical emission geometry.

Assembles the third-harmonic correction (dEx, dBy) from the axial integrals,

    dEx = lambda * C * T * (I+ + r I-) * e^{-3 i omega t}
    dBy = lambda * C * T * (I+ - r I-) * e^{-3 i omega t} / 3,

where C is the drive constant and T = (w0^2/4)(1 - e^{-3 (R/w0)^2}) the
transverse factor from the Gaussian cross-section.  The assembly is kept per
unit lambda internally; lambda multiplies once at the end.

The generated waves carry frequency 3*omega along the cone
(sqrt(8) e_rho +/- e_z)/3, half-angle arccos(1/3).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .background import BeamScenario
from .errors import DomainError
from .integrals import DEFAULT_MAX_NODES, PhaseModel, eval_asymptotic, eval_numeric
from .sources import drive_constant


@dataclass(frozen=True)
class CorrectionField:
    """Third-harmonic correction amplitudes at one point.

    ``low_accuracy`` propagates the Fresnel-zone flag of the asymptotic
    integrals (stationary point within 3 sqrt(rho/k) of an endpoint).
    """

    delta_ex: complex
    delta_by: complex
    mode: str  # "numeric" | "asymptotic"
    low_accuracy: bool


@dataclass(frozen=True, eq=False)
class ConeGeometry:
    """Directions, half-angle and frequency of the generated conical waves."""

    directions: np.ndarray  # shape (2, 3): (sqrt(8) e_rho +/- e_z)/3
    semi_angle: float  # arccos(1/3), rad
    frequency: float  # 3 omega, natural units
    frequency_ratio: float  # exactly 3


def transverse_factor(scenario: BeamScenario) -> float:
    """Cross-section reduction (w0^2/4)(1 - e^{-3 (R/w0)^2}) of the source."""
    return 0.25 * scenario.w0**2 * (1.0 - math.exp(-3.0 * (scenario.R / scenario.w0) ** 2))


def correction_at(
    rho: float,
    z: float,
    t: float,
    scenario: BeamScenario,
    mode: str = "asymptotic",
    tol: float = 1e-9,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> CorrectionField:
    """Correction field (dEx, dBy) at (rho, z, t) in natural field units.

    ``mode`` selects the axial-integral evaluator; ``tol`` and
    ``max_nodes`` apply to the numeric one.  In asymptotic mode the result
    is exactly zero where both stationary points are out of support.
    """
    if rho <= 0:
        raise DomainError("rho must be positive")
    if mode not in ("numeric", "asymptotic"):
        raise DomainError(f"unknown mode {mode!r}")
    plus = PhaseModel(rho=rho, z=z, k=scenario.k, L=scenario.L, sign=+1)
    minus = PhaseModel(rho=rho, z=z, k=scenario.k, L=scenario.L, sign=-1)
    if mode == "numeric":
        res_p = eval_numeric(plus, tol=tol, max_nodes=max_nodes)
        res_m = eval_numeric(minus, tol=tol, max_nodes=max_nodes)
    else:
        res_p = eval_asymptotic(plus)
        res_m = eval_asymptotic(minus)
    pref = drive_constant(scenario) * transverse_factor(scenario) * cmath.exp(-3j * scenario.omega * t)
    lam = scenario.constants.lambda_coupling
    delta_ex = lam * (pref * (res_p.value + scenario.r * res_m.value))
    delta_by = lam * (pref * (res_p.value - scenario.r * res_m.value)) / 3.0
    return CorrectionField(
        delta_ex=delta_ex,
        delta_by=delta_by,
        mode=mode,
        low_accuracy=res_p.low_accuracy or res_m.low_accuracy,
    )


def dimensionless_ratio(scenario: BeamScenario, rho: float, form: str = "printed") -> float:
    """|dEx|/E0 for one-sided support and |r| = 1, from dimensionless ratios.

    ``form="printed"`` evaluates

        (4 pi / 45) (r0/R)^2 (w0/lambda_L) (1 - e^{-3 (R/w0)^2})
            * sqrt(lambda_L / (2 sqrt(2) rho)) * (P / P_e),

    the commonly quoted form.  ``form="derived"`` evaluates the exact rewrite
    of the assembled field magnitude, which replaces the prefactor by
    (16/45) (w0/lambda_L)^2.  The two differ by exactly (pi/4)(lambda_L/w0);
    the derived form is the one consistent with :func:`correction_at`.
    """
    if rho <= 0:
        raise DomainError("rho must be positive")
    lam_l = 2.0 * math.pi / scenario.k  # natural units; every factor is a ratio
    common = (
        (scenario.constants.r0 / scenario.units.length_to_si(scenario.R)) ** 2
        * (1.0 - math.exp(-3.0 * (scenario.R / scenario.w0) ** 2))
        * math.sqrt(lam_l / (2.0 * math.sqrt(2.0) * rho))
        * (scenario.power_si / scenario.constants.p_e)
    )
    if form == "printed":
        return (4.0 * math.pi / 45.0) * (scenario.w0 / lam_l) * common
    if form == "derived":
        return (16.0 / 45.0) * (scenario.w0 / lam_l) ** 2 * common
    raise DomainError(f"unknown form {form!r}")


def cone_geometry(scenario: BeamScenario) -> ConeGeometry:
    """Conical propagation directions and 3*omega frequency of the emission."""
    e_rho = np.array([1.0, 0.0, 0.0])
    e_z = np.array([0.0, 0.0, 1.0])
    root8 = math.sqrt(8.0)
    directions = np.stack([(root8 * e_rho + e_z) / 3.0, (root8 * e_rho - e_z) / 3.0])
    return ConeGeometry(
        directions=directions,
        semi_angle=math.acos(1.0 / 3.0),
        frequency=3.0 * scenario.omega,
        frequency_ratio=3.0,
    )
