"""Physical constants and the naturalized Gaussian unit system.

All internal computations run in naturalized Gaussian units (hbar = c = 1,
alpha = e^2) with the electron rest energy as the energy unit.  The electron
mass is then exactly 1 and the base scales are

    length : reduced Compton wavelength  hbar c / (me c^2)   [m]
    time   : hbar / (me c^2)                                 [s]
    power  : quantum power  me^2 c^4 / hbar                  [W]

Field amplitudes cross the SI boundary through the power convention
P = pi R^2 E0^2, taken literally (no extra c/8pi or time-averaging factor).
The "SI-equivalent" amplitude is therefore sqrt(P_W / (pi R_m^2)), carrying
units of sqrt(W)/m, and maps onto the natural amplitude that reproduces the
same dimensionless power ratio P/P_e.  This module is the single place that
convention is defined; everything else converts through UnitSystem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# CODATA 2018 recommended values
FINE_STRUCTURE = 7.2973525693e-3
ELECTRON_MASS_KG = 9.1093837015e-31
SPEED_OF_LIGHT = 299792458.0  # m/s, exact
HBAR = 1.054571817e-34  # J s

ELECTRON_REST_ENERGY_J = ELECTRON_MASS_KG * SPEED_OF_LIGHT**2


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental inputs and the derived scales used throughout.

    ``lambda_coupling`` is the Euler-Heisenberg coefficient alpha^2/(45 pi me^4)
    in natural units (me = 1).  ``r0`` and ``p_e`` are the classical electron
    radius in meters and the quantum power in watts.
    """

    alpha: float
    electron_mass: float  # rest energy, J
    c_si: float
    hbar_si: float
    lambda_coupling: float
    r0: float
    p_e: float

    @property
    def length_m(self) -> float:
        """Meters per natural length unit (reduced Compton wavelength)."""
        return self.hbar_si * self.c_si / self.electron_mass

    @property
    def time_s(self) -> float:
        """Seconds per natural time unit."""
        return self.hbar_si / self.electron_mass


def derive_constants(
    alpha: float = FINE_STRUCTURE,
    electron_mass: float = ELECTRON_REST_ENERGY_J,
    c_si: float = SPEED_OF_LIGHT,
    hbar_si: float = HBAR,
) -> PhysicalConstants:
    """Derive all package constants from (alpha, electron rest energy).

    ``electron_mass`` is the rest energy in joules.  Deterministic: two calls
    with identical inputs compare equal field by field.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if electron_mass <= 0:
        raise DomainError("electron_mass must be positive")
    if c_si <= 0 or hbar_si <= 0:
        raise DomainError("c_si and hbar_si must be positive")
    length = hbar_si * c_si / electron_mass
    return PhysicalConstants(
        alpha=alpha,
        electron_mass=electron_mass,
        c_si=c_si,
        hbar_si=hbar_si,
        lambda_coupling=alpha**2 / (45.0 * math.pi),
        r0=alpha * length,
        p_e=electron_mass**2 / hbar_si,
    )


def codata_constants() -> PhysicalConstants:
    """Constants derived from the CODATA 2018 inputs above."""
    return derive_constants()


@dataclass(frozen=True)
class UnitSystem:
    """Multiplicative factors taking natural-unit values to SI.

    The factors are the scales listed in the module docstring.  Round trips
    are exact inverses up to floating point.
    """

    field_amplitude: float  # sqrt(W)/m per field unit
    length: float  # m per length unit
    time: float  # s per time unit
    power: float  # W per power unit

    @classmethod
    def natural(cls, constants: PhysicalConstants) -> "UnitSystem":
        return cls(
            field_amplitude=math.sqrt(constants.p_e) / constants.length_m,
            length=constants.length_m,
            time=constants.time_s,
            power=constants.p_e,
        )

    def length_to_si(self, x: float) -> float:
        return x * self.length

    def length_from_si(self, x: float) -> float:
        return x / self.length

    def time_to_si(self, x: float) -> float:
        return x * self.time

    def time_from_si(self, x: float) -> float:
        return x / self.time

    def power_to_si(self, x: float) -> float:
        return x * self.power

    def power_from_si(self, x: float) -> float:
        return x / self.power

    def field_to_si(self, x: float) -> float:
        return x * self.field_amplitude

    def field_from_si(self, x: float) -> float:
        return x / self.field_amplitude


def amplitude_from_power(power_w: float, radius_m: float, units: UnitSystem) -> float:
    """Peak amplitude E0 from beam power via P = pi R^2 E0^2.

    ``power_w`` and ``radius_m`` are SI; the result is in ``units`` (natural
    amplitude for the natural system).
    """
    if radius_m <= 0:
        raise DomainError("radius must be positive")
    if power_w < 0:
        raise DomainError("power must be non-negative")
    e0_si = math.sqrt(power_w / (math.pi * radius_m**2))
    return units.field_from_si(e0_si)
