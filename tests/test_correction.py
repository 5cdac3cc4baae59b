import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from vacuumbeams import (
    BeamScenario,
    DomainError,
    cone_geometry,
    correction_at,
    dimensionless_ratio,
    transverse_factor,
)

ROOT8 = math.sqrt(8.0)


def _scenario(constants, natural_units, **overrides):
    params = dict(
        amplitude=1.3,
        w0=2000.0,
        R=4000.0,
        L=50000.0,
        omega=1.0,
        r=0.6 + 0.3j,
        units=natural_units,
        constants=constants,
    )
    params.update(overrides)
    return BeamScenario(**params)


def test_transverse_factor_limits(constants, natural_units):
    wide = _scenario(constants, natural_units, R=200.0 * 2000.0)
    np.testing.assert_allclose(transverse_factor(wide), wide.w0**2 / 4.0, rtol=1e-14)
    narrow = _scenario(constants, natural_units, R=1e-6 * 2000.0)
    assert transverse_factor(narrow) < 1e-9 * narrow.w0**2


def test_transverse_factor_gaussian_ring_oracle(constants, natural_units):
    # (3/4pi) * 2pi * int_0^R e^{-3 rho'^2/w0^2} rho' drho', by quadrature
    rng = np.random.default_rng(31)
    for _ in range(25):
        w0 = rng.uniform(500.0, 5000.0)
        radius = rng.uniform(0.2, 4.0) * w0
        sc = _scenario(constants, natural_units, w0=w0, R=radius)
        ring, _ = quad(lambda r: math.exp(-3.0 * (r / w0) ** 2) * r, 0.0, radius, epsabs=0.0, epsrel=1e-13)
        np.testing.assert_allclose(transverse_factor(sc), 1.5 * ring, rtol=1e-12)


def test_correction_rejects_bad_inputs(toy_scenario):
    with pytest.raises(DomainError):
        correction_at(0.0, 1.0, 0.0, toy_scenario)
    with pytest.raises(DomainError):
        correction_at(1.0, 1.0, 0.0, toy_scenario, mode="exact")


@pytest.mark.parametrize("rho,z", [(1.0, math.nan), (math.nan, 1.0), (1.0, math.inf)])
@pytest.mark.parametrize("mode", ["asymptotic", "numeric"])
def test_correction_rejects_non_finite(toy_scenario, rho, z, mode):
    with pytest.raises(DomainError):
        correction_at(rho, z, 0.0, toy_scenario, mode=mode)


def test_correction_zero_outside_both_supports(constants, natural_units):
    # rho large against L puts both stationary points out of support
    sc = _scenario(constants, natural_units, L=1000.0, omega=1.0, w0=2000.0, R=4000.0)
    rho = 2000.0
    z = 500.0
    assert z < rho / ROOT8 and z > sc.L - rho / ROOT8
    corr = correction_at(rho, z, 0.0, sc, mode="asymptotic")
    assert corr.delta_ex == 0.0 and corr.delta_by == 0.0


def test_asymptotic_assembly_matches_literal_formula(constants, natural_units):
    # dEx = 4 lambda E0^3 r w^2 w0^2 (1-e^{-3(R/w0)^2})
    #       * e^{-3iwt + i sqrt(8) k rho + i pi/4} sqrt(pi/(sqrt(2) k rho))
    #       * [e^{ikz} H(z - rho/sqrt(8)) + r e^{-ikz} H(L - rho/sqrt(8) - z)]
    rng = np.random.default_rng(37)
    lam = constants.lambda_coupling
    for _ in range(30):
        # omega kept small so phase arguments stay ~1e2 rad and the identity
        # can be checked at 1e-12 without argument-reduction noise
        w0 = rng.uniform(1500.0, 4000.0)
        sc = _scenario(
            constants,
            natural_units,
            amplitude=rng.uniform(0.2, 2.0),
            w0=w0,
            R=rng.uniform(0.5, 3.0) * w0,
            L=rng.uniform(2e4, 8e4),
            omega=0.01,
            r=rng.uniform(0.1, 1.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)),
        )
        rho = rng.uniform(10.0, 2.0 * w0)
        z = rng.uniform(0.0, sc.L)
        t = rng.uniform(0.0, 10.0)
        corr = correction_at(rho, z, t, sc, mode="asymptotic")
        k = sc.k
        heav_p = 1.0 if z - rho / ROOT8 > 0 else 0.0
        heav_m = 1.0 if sc.L - rho / ROOT8 - z > 0 else 0.0
        prefactor = (
            4.0
            * lam
            * sc.amplitude**3
            * sc.r
            * sc.omega**2
            * sc.w0**2
            * (1.0 - math.exp(-3.0 * (sc.R / sc.w0) ** 2))
            * cmath.exp(-3j * sc.omega * t + 1j * ROOT8 * k * rho + 1j * math.pi / 4.0)
            * math.sqrt(math.pi / (math.sqrt(2.0) * k * rho))
        )
        bracket_e = cmath.exp(1j * k * z) * heav_p + sc.r * cmath.exp(-1j * k * z) * heav_m
        bracket_b = cmath.exp(1j * k * z) * heav_p - sc.r * cmath.exp(-1j * k * z) * heav_m
        np.testing.assert_allclose(corr.delta_ex, prefactor * bracket_e, rtol=1e-12, atol=0)
        np.testing.assert_allclose(corr.delta_by, prefactor * bracket_b / 3.0, rtol=1e-12, atol=0)


def test_asymptotic_phase_one_sided(constants, natural_units):
    sc = _scenario(constants, natural_units, r=1.0 + 0.0j, L=4000.0, omega=1.0)
    rho = 1000.0
    z = sc.L - rho / (2.0 * ROOT8)  # right-mover only
    corr = correction_at(rho, z, 0.0, sc, mode="asymptotic")
    expected = (sc.k * z + ROOT8 * sc.k * rho + math.pi / 4.0) % (2.0 * math.pi)
    got = cmath.phase(corr.delta_ex) % (2.0 * math.pi)
    diff = abs(got - expected)
    assert min(diff, 2.0 * math.pi - diff) < 1e-8


def test_numeric_vs_asymptotic_mode(constants, natural_units):
    krho = 1e3
    sc = _scenario(constants, natural_units, omega=1.0, w0=2000.0, R=4000.0, L=10000.0)
    rho = krho / sc.k
    z = 2000.0
    num = correction_at(rho, z, 0.0, sc, mode="numeric", tol=1e-9)
    asym = correction_at(rho, z, 0.0, sc, mode="asymptotic")
    assert num.mode == "numeric" and asym.mode == "asymptotic"
    rel = abs(num.delta_ex - asym.delta_ex) / abs(num.delta_ex)
    assert rel <= krho**-0.5


def test_time_periodicity(toy_scenario):
    rho, z = 900.0, 12000.0
    period = 2.0 * math.pi / (3.0 * toy_scenario.omega)
    for t in (0.0, 0.37, 1.9):
        a = correction_at(rho, z, t, toy_scenario, mode="asymptotic")
        b = correction_at(rho, z, t + period, toy_scenario, mode="asymptotic")
        np.testing.assert_allclose(b.delta_ex, a.delta_ex, rtol=1e-12)
        np.testing.assert_allclose(b.delta_by, a.delta_by, rtol=1e-12)


def test_by_to_ex_ratio_one_sided():
    sc = BeamScenario.from_si(
        power_w=1e3, wavelength_m=1e-6, w0_m=0.01, R_m=0.01, L_m=0.004, r=1.0
    )
    units = sc.units
    rho = units.length_from_si(1e-3)
    z = sc.L - rho / (2.0 * ROOT8)
    asym = correction_at(rho, z, 0.0, sc, mode="asymptotic")
    np.testing.assert_allclose(abs(asym.delta_by / asym.delta_ex), 1.0 / 3.0, rtol=1e-14)
    # numeric mode retains the genuine shadow-side leakage of the left-moving
    # term (endpoint contribution ~1/k), a few percent at this geometry
    num = correction_at(rho, z, 0.0, sc, mode="numeric", tol=1e-9)
    assert abs(abs(num.delta_by / num.delta_ex) - 1.0 / 3.0) <= 0.05 * (1.0 / 3.0)


def test_low_accuracy_propagates():
    sc = BeamScenario.from_si(
        power_w=1e3, wavelength_m=1e-6, w0_m=0.01, R_m=0.01, L_m=0.004, r=1.0
    )
    units = sc.units
    rho = units.length_from_si(1e-3)
    width = math.sqrt(rho / sc.k)
    near = correction_at(rho, rho / ROOT8 + width, 0.0, sc, mode="asymptotic")
    assert near.low_accuracy
    mid = correction_at(rho, sc.L / 2.0, 0.0, sc, mode="asymptotic")
    assert not mid.low_accuracy


def test_ratio_zero_power():
    sc = BeamScenario.from_si(power_w=0.0, wavelength_m=1e-6, w0_m=0.1, R_m=0.1, L_m=10.0, r=1.0)
    assert dimensionless_ratio(sc, sc.R) == 0.0


def test_ratio_derived_matches_correction_field():
    # one-sided support, |r| = 1: the derived rewrite equals |dEx|/E0
    sc = BeamScenario.from_si(
        power_w=1e3, wavelength_m=1e-6, w0_m=0.01, R_m=0.01, L_m=0.1, r=cmath.exp(0.4j)
    )
    rho = sc.units.length_from_si(2e-3)
    z = sc.L - rho / (2.0 * ROOT8)
    corr = correction_at(rho, z, 0.0, sc, mode="asymptotic")
    ratio = abs(corr.delta_ex) / sc.amplitude
    np.testing.assert_allclose(dimensionless_ratio(sc, rho, form="derived"), ratio, rtol=1e-9)


def test_ratio_printed_vs_derived_relation():
    # the two published forms differ by exactly (pi/4)(lambda_L/w0)
    sc = BeamScenario.from_si(
        power_w=42.0, wavelength_m=1.3e-6, w0_m=0.03, R_m=0.05, L_m=10.0, r=1.0
    )
    rho = sc.units.length_from_si(1e-2)
    printed = dimensionless_ratio(sc, rho, form="printed")
    derived = dimensionless_ratio(sc, rho, form="derived")
    lam_l = 2.0 * math.pi / sc.k
    np.testing.assert_allclose(printed / derived, (math.pi / 4.0) * (lam_l / sc.w0), rtol=1e-12)


def test_ratio_scaling_laws():
    base = dict(wavelength_m=1e-6, w0_m=0.05, R_m=0.05, L_m=100.0, r=1.0)
    sc1 = BeamScenario.from_si(power_w=1e3, **base)
    sc2 = BeamScenario.from_si(power_w=2e3, **base)
    rho = sc1.units.length_from_si(1e-2)
    np.testing.assert_allclose(
        dimensionless_ratio(sc2, rho) / dimensionless_ratio(sc1, rho), 2.0, rtol=1e-12
    )
    np.testing.assert_allclose(
        dimensionless_ratio(sc1, rho) / dimensionless_ratio(sc1, 4.0 * rho), 2.0, rtol=1e-14
    )


def test_ratio_ligo_frozen_values(ligo_scenario):
    # frozen from direct evaluation of the two dimensionless formulas
    np.testing.assert_allclose(
        dimensionless_ratio(ligo_scenario, ligo_scenario.R, form="printed"),
        4.6750471457635705e-28,
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        dimensionless_ratio(ligo_scenario, ligo_scenario.R, form="derived"),
        5.952454899487433e-23,
        rtol=1e-12,
    )


def test_ratio_rejects_bad_inputs(ligo_scenario):
    with pytest.raises(DomainError):
        dimensionless_ratio(ligo_scenario, 0.0)
    with pytest.raises(DomainError):
        dimensionless_ratio(ligo_scenario, ligo_scenario.R, form="quoted")


def test_cone_geometry_values(toy_scenario):
    cone = cone_geometry(toy_scenario)
    np.testing.assert_allclose(cone.semi_angle, math.acos(1.0 / 3.0), rtol=0, atol=1e-15)
    assert math.degrees(cone.semi_angle) == pytest.approx(70.528779, abs=1e-5)
    norms = np.linalg.norm(cone.directions, axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-15)
    assert cone.directions[0] @ np.array([0.0, 0.0, 1.0]) == 1.0 / 3.0
    assert cone.directions[1] @ np.array([0.0, 0.0, 1.0]) == -1.0 / 3.0
    assert cone.frequency_ratio == 3.0
    np.testing.assert_allclose(cone.frequency, 3.0 * toy_scenario.omega, rtol=1e-15)
