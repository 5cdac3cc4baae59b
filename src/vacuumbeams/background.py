"""Linear standing-wave background of two counter-propagating beams.

The zeroth-order field is a linearly x-polarized collimated beam interfering
with its reflection (complex coefficient r), evaluated as a complex analytic
signal: physical fields are the real part, which is taken only at observable
extraction in :mod:`vacuumbeams.pressure`.

The transverse profile is the infinite-Rayleigh-range Gaussian
U(rho) = E0 exp(-rho^2/w0^2); the magnetic field uses the paraxial curl, whose
axial component is exact here because U does not depend on z.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .units import PhysicalConstants, UnitSystem, amplitude_from_power, codata_constants


class CollimationWarning(UserWarning):
    """The beam is not well collimated: 1/(omega w0) exceeds the threshold."""


@dataclass(frozen=True)
class BeamScenario:
    """All beam/interferometer parameters, stored in natural units.

    ``amplitude`` is the real peak field E0 >= 0, ``omega`` the angular
    frequency (the wavenumber k equals omega), ``r`` the complex reflection
    coefficient with |r| <= 1.  ``units`` converts back to SI at the API
    boundary; ``constants`` carries the coupling and derived scales.
    """

    amplitude: float
    w0: float
    R: float
    L: float
    omega: float
    r: complex
    units: UnitSystem
    constants: PhysicalConstants
    paraxial_threshold: float = 0.1

    def __post_init__(self):
        for name in ("amplitude", "w0", "R", "L", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if not cmath.isfinite(self.r):
            raise DomainError("r must be finite")
        for name in ("w0", "R", "L", "omega"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if self.amplitude < 0:
            raise DomainError("amplitude must be non-negative")
        if abs(self.r) > 1.0 + 1e-12:
            raise DomainError("|r| must not exceed 1")
        if self.collimation > self.paraxial_threshold:
            warnings.warn(
                f"1/(omega*w0) = {self.collimation:.3g} exceeds the paraxial "
                f"threshold {self.paraxial_threshold:.3g}",
                CollimationWarning,
                stacklevel=3,
            )

    @classmethod
    def from_si(
        cls,
        *,
        wavelength_m: float,
        w0_m: float,
        R_m: float,
        L_m: float,
        r: complex = 1.0 + 0.0j,
        power_w: float | None = None,
        amplitude_si: float | None = None,
        constants: PhysicalConstants | None = None,
        paraxial_threshold: float = 0.1,
    ) -> "BeamScenario":
        """Build a scenario from SI inputs.

        Exactly one of ``power_w`` (watts) or ``amplitude_si`` (the
        sqrt(W)/m power-equivalent amplitude) must be given.
        """
        if wavelength_m <= 0:
            raise DomainError("wavelength_m must be positive")
        if (power_w is None) == (amplitude_si is None):
            raise DomainError("give exactly one of power_w or amplitude_si")
        consts = constants if constants is not None else codata_constants()
        units = UnitSystem.natural(consts)
        if power_w is not None:
            amp = amplitude_from_power(power_w, R_m, units)
        else:
            if amplitude_si < 0:
                raise DomainError("amplitude_si must be non-negative")
            amp = units.field_from_si(amplitude_si)
        omega_si = 2.0 * math.pi * consts.c_si / wavelength_m
        return cls(
            amplitude=amp,
            w0=units.length_from_si(w0_m),
            R=units.length_from_si(R_m),
            L=units.length_from_si(L_m),
            omega=omega_si * units.time,
            r=complex(r),
            units=units,
            constants=consts,
            paraxial_threshold=paraxial_threshold,
        )

    @property
    def k(self) -> float:
        """Wavenumber; equal to omega with c = 1."""
        return self.omega

    @property
    def collimation(self) -> float:
        """Paraxial-validity metric 1/(omega w0); small means collimated."""
        return 1.0 / (self.omega * self.w0)

    @property
    def power(self) -> float:
        """Beam power pi R^2 E0^2 in natural units."""
        return math.pi * self.R**2 * self.amplitude**2

    @property
    def power_si(self) -> float:
        return self.units.power_to_si(self.power)

    @property
    def wavelength_si(self) -> float:
        """Laser wavelength 2 pi c / omega in meters."""
        return 2.0 * math.pi * self.constants.c_si * self.units.time / self.omega


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Complex E and B 3-vectors at one cylindrical point and time."""

    E: np.ndarray
    B: np.ndarray
    rho: float
    phi: float
    z: float
    t: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.E)) and np.all(np.isfinite(self.B))):
            raise DomainError("field components must be finite")


def gaussian_profile(rho: float, scenario: BeamScenario) -> float:
    """Transverse envelope U(rho) = E0 exp(-rho^2/w0^2)."""
    if rho < 0:
        raise DomainError("rho must be non-negative")
    return scenario.amplitude * math.exp(-(rho / scenario.w0) ** 2)


def linear_field(rho: float, z: float, t: float, scenario: BeamScenario, phi: float = 0.0) -> FieldSample:
    """Standing-wave analytic-signal field at (rho, phi, z, t).

    E = exp(-i omega t) U(rho) (e^{ikz} + r e^{-ikz}) x_hat and the paraxial
    B = (i omega)^{-1} curl E = exp(-i omega t) U(rho) (e^{ikz} - r e^{-ikz}) y_hat.
    """
    u = gaussian_profile(rho, scenario)
    osc = cmath.exp(-1j * scenario.omega * t)
    plus = cmath.exp(1j * scenario.k * z)
    minus = scenario.r * cmath.exp(-1j * scenario.k * z)
    ex = osc * u * (plus + minus)
    by = osc * u * (plus - minus)
    e = np.array([ex, 0.0, 0.0], dtype=complex)
    b = np.array([0.0, by, 0.0], dtype=complex)
    return FieldSample(E=e, B=b, rho=rho, phi=phi, z=z, t=t)


def field_invariants(sample: FieldSample) -> tuple[complex, complex]:
    """The complex bilinears (E dot B, E^2 - B^2) of the analytic signal.

    No conjugation: these are the Lorentz invariants of the complex fields,
    as used by the cubic vacuum terms.
    """
    e_dot_b = complex(np.sum(sample.E * sample.B))
    e2_minus_b2 = complex(np.sum(sample.E * sample.E) - np.sum(sample.B * sample.B))
    return e_dot_b, e2_minus_b2
