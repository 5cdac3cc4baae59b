"""Euler-Heisenberg cubic terms and the effective vacuum sources.

The quantum vacuum adds cubic corrections to the fields,

    dE = 2 (E^2 - B^2) E + 7 (E dot B) B
    dB = 2 (E^2 - B^2) B - 7 (E dot B) E,

which act as effective charge/current densities driving the first-order
correction field.  Cubic products of the complex analytic signals are taken
literally, which selects the third-harmonic component exactly; the
fundamental-frequency part of the real-field cube is excluded by that
convention.

The coupling lambda is factored out of everything stored here: ``j0`` is per
unit lambda, and the single multiplication by lambda happens in
:mod:`vacuumbeams.correction`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .background import BeamScenario, gaussian_profile


def delta_fields(e: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cubic vacuum terms (dE, dB) for complex 3-vectors e, b."""
    e = np.asarray(e, dtype=complex)
    b = np.asarray(b, dtype=complex)
    s = np.sum(e * e) - np.sum(b * b)
    p = np.sum(e * b)
    return 2.0 * s * e + 7.0 * p * b, 2.0 * s * b - 7.0 * p * e


@dataclass(frozen=True, eq=False)
class NonlinearSources:
    """Closed-form sources for the standing-wave background at one point.

    ``j0`` carries the effective current per unit coupling lambda (the 1/4pi
    of its definition is included); the effective density vanishes in the
    same bookkeeping.
    """

    delta_e: np.ndarray
    delta_b: np.ndarray
    j0: np.ndarray


def standing_wave_sources(rho: float, z: float, t: float, scenario: BeamScenario) -> NonlinearSources:
    """Closed-form dE, dB and per-lambda j0 for the standing wave.

    Keeps only terms of order omega in the curl (the transverse-gradient
    contribution, of relative order 1/(omega w0), is dropped).
    """
    u3 = gaussian_profile(rho, scenario) ** 3
    r = scenario.r
    osc3 = cmath.exp(-3j * scenario.omega * t)
    plus = cmath.exp(1j * scenario.k * z)
    minus = r * cmath.exp(-1j * scenario.k * z)
    base = 8.0 * r * osc3 * u3
    delta_e = np.array([base * (plus + minus), 0.0, 0.0], dtype=complex)
    delta_b = np.array([0.0, base * (plus - minus), 0.0], dtype=complex)
    j0x = (-16j * r * scenario.omega * osc3 * u3 * (plus + minus)) / (4.0 * math.pi)
    j0 = np.array([j0x, 0.0, 0.0], dtype=complex)
    return NonlinearSources(delta_e=delta_e, delta_b=delta_b, j0=j0)


def drive_constant(scenario: BeamScenario) -> complex:
    """Source strength C = 16 r omega^2 E0^3 of the correction-field wave equation."""
    return 16.0 * scenario.r * scenario.omega**2 * scenario.amplitude**3
