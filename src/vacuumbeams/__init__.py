"""Quantum-vacuum nonlinear corrections for counter-propagating light beams.

Computes the Euler-Heisenberg correction to the field of two collimated
counter-propagating beams (third-harmonic conical emission), the associated
axial oscillatory integrals by adaptive quadrature and by stationary-phase
closed form, and the vacuum correction to interferometer radiation pressure.
"""

from .background import (
    BeamScenario,
    CollimationWarning,
    FieldSample,
    field_invariants,
    gaussian_profile,
    linear_field,
)
from .correction import (
    ConeGeometry,
    CorrectionField,
    cone_geometry,
    correction_at,
    dimensionless_ratio,
    transverse_factor,
)
from .errors import ConfigError, ConvergenceError, DomainError, UnsupportedGeometryError
from .integrals import (
    IntegralResult,
    PhaseModel,
    eval_asymptotic,
    eval_numeric,
    fresnel_width,
    stationary_point,
)
from .pressure import (
    PressureReport,
    classical_force,
    poynting_correction_end,
    poynting_cross_term,
    pressure_correction_factor,
    pressure_report,
)
from .sources import NonlinearSources, delta_fields, drive_constant, standing_wave_sources
from .units import (
    PhysicalConstants,
    UnitSystem,
    amplitude_from_power,
    codata_constants,
    derive_constants,
)

__version__ = "0.1.0"

__all__ = [
    "BeamScenario",
    "CollimationWarning",
    "ConeGeometry",
    "ConfigError",
    "ConvergenceError",
    "CorrectionField",
    "DomainError",
    "FieldSample",
    "IntegralResult",
    "NonlinearSources",
    "PhaseModel",
    "PhysicalConstants",
    "PressureReport",
    "UnitSystem",
    "UnsupportedGeometryError",
    "amplitude_from_power",
    "classical_force",
    "codata_constants",
    "cone_geometry",
    "correction_at",
    "delta_fields",
    "derive_constants",
    "dimensionless_ratio",
    "drive_constant",
    "eval_asymptotic",
    "eval_numeric",
    "field_invariants",
    "fresnel_width",
    "gaussian_profile",
    "linear_field",
    "poynting_correction_end",
    "poynting_cross_term",
    "pressure_correction_factor",
    "pressure_report",
    "stationary_point",
    "standing_wave_sources",
    "transverse_factor",
]
