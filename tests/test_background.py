import cmath
import math

import numpy as np
import pytest

from vacuumbeams import (
    BeamScenario,
    CollimationWarning,
    DomainError,
    field_invariants,
    gaussian_profile,
    linear_field,
)


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


def test_profile_special_points(toy_scenario):
    e0 = toy_scenario.amplitude
    w0 = toy_scenario.w0
    assert gaussian_profile(0.0, toy_scenario) == e0
    np.testing.assert_allclose(gaussian_profile(w0, toy_scenario), e0 / math.e, rtol=1e-14)
    np.testing.assert_allclose(
        gaussian_profile(w0 * math.sqrt(math.log(2.0)), toy_scenario), e0 / 2.0, rtol=1e-14
    )


def test_profile_strictly_decreasing(toy_scenario):
    rho = np.linspace(0.0, 5.0 * toy_scenario.w0, 200)
    values = np.array([gaussian_profile(r, toy_scenario) for r in rho])
    assert np.all(np.diff(values) < 0)


def test_profile_rejects_negative_rho(toy_scenario):
    with pytest.raises(DomainError):
        gaussian_profile(-1.0, toy_scenario)


def test_field_head_on_antinode(constants, natural_units):
    sc = _scenario(constants, natural_units, r=1.0 + 0.0j)
    sample = linear_field(500.0, 0.0, 0.0, sc)
    u = gaussian_profile(500.0, sc)
    np.testing.assert_allclose(sample.E[0], 2.0 * u, rtol=1e-14)
    assert abs(sample.B[1]) == 0.0


def test_field_head_on_node(constants, natural_units):
    sc = _scenario(constants, natural_units, r=1.0 + 0.0j)
    z = math.pi / 2.0  # k = 1
    sample = linear_field(500.0, z, 0.0, sc)
    u = gaussian_profile(500.0, sc)
    assert abs(sample.E[0]) < 1e-15 * u
    np.testing.assert_allclose(sample.B[1], 2j * u, rtol=1e-12)


def test_field_single_traveling_wave(constants, natural_units):
    sc = _scenario(constants, natural_units, r=0.0j)
    for z in (0.0, 1.7, 42.5):
        sample = linear_field(800.0, z, 0.3, sc)
        u = gaussian_profile(800.0, sc)
        np.testing.assert_allclose(abs(sample.E[0]), u, rtol=1e-14)
        np.testing.assert_allclose(abs(sample.B[1]), u, rtol=1e-14)


def test_invariants_closed_form(toy_scenario):
    rng = np.random.default_rng(3)
    for _ in range(40):
        rho = rng.uniform(0.0, 3.0 * toy_scenario.w0)
        z = rng.uniform(0.0, toy_scenario.L)
        t = rng.uniform(0.0, 20.0)
        sample = linear_field(rho, z, t, toy_scenario)
        e_dot_b, e2_minus_b2 = field_invariants(sample)
        u = gaussian_profile(rho, toy_scenario)
        expected = 4.0 * toy_scenario.r * cmath.exp(-2j * toy_scenario.omega * t) * u**2
        assert e_dot_b == 0.0
        np.testing.assert_allclose(e2_minus_b2, expected, rtol=1e-12)


def test_invariants_vanish_for_traveling_wave(constants, natural_units):
    sc = _scenario(constants, natural_units, r=0.0j)
    sample = linear_field(900.0, 12.3, 0.7, sc)
    e_dot_b, e2_minus_b2 = field_invariants(sample)
    assert e_dot_b == 0.0
    assert e2_minus_b2 == 0.0


def test_paraxial_b_matches_fd_curl(constants, natural_units):
    # central finite differences of (i omega)^-1 curl E on the full expression;
    # the dropped transverse term is bounded by the collimation ratio
    sc = _scenario(constants, natural_units)
    assert sc.collimation <= 1e-3

    def e_field(x, y, z, t):
        return linear_field(math.hypot(x, y), z, t, sc).E

    x0, y0, z0, t0 = 600.0, 450.0, 3.1, 0.4
    hz, hx = 1e-3, 0.05
    d_ex_dz = (e_field(x0, y0, z0 + hz, t0)[0] - e_field(x0, y0, z0 - hz, t0)[0]) / (2 * hz)
    d_ex_dy = (e_field(x0, y0 + hx, z0, t0)[0] - e_field(x0, y0 - hx, z0, t0)[0]) / (2 * hx)
    b_fd = np.array([0.0, d_ex_dz, -d_ex_dy], dtype=complex) / (1j * sc.omega)
    b_par = linear_field(math.hypot(x0, y0), z0, t0, sc).B
    rel = np.linalg.norm(b_par - b_fd) / np.linalg.norm(b_fd)
    assert rel <= 1e-2


@pytest.mark.parametrize("field,value", [("w0", 0.0), ("R", -1.0), ("L", 0.0), ("omega", 0.0)])
def test_scenario_rejects_nonpositive(constants, natural_units, field, value):
    with pytest.raises(DomainError):
        _scenario(constants, natural_units, **{field: value})


@pytest.mark.parametrize(
    "field,value",
    [
        ("amplitude", math.inf),
        ("w0", math.nan),
        ("R", math.inf),
        ("L", math.nan),
        ("omega", math.inf),
        ("r", complex(math.nan, 0.0)),
    ],
)
def test_scenario_rejects_non_finite(constants, natural_units, field, value):
    with pytest.raises(DomainError):
        _scenario(constants, natural_units, **{field: value})


@pytest.mark.parametrize("override", [dict(w0_m=math.nan), dict(power_w=math.inf), dict(L_m=math.inf)])
def test_from_si_rejects_non_finite(override):
    kwargs = dict(power_w=750e3, wavelength_m=1e-6, w0_m=0.1, R_m=0.1, L_m=4000.0)
    kwargs.update(override)
    with pytest.raises(DomainError):
        BeamScenario.from_si(**kwargs)


def test_scenario_rejects_overunity_reflection(constants, natural_units):
    with pytest.raises(DomainError):
        _scenario(constants, natural_units, r=1.0 + 0.1j)


def test_scenario_warns_when_not_collimated(constants, natural_units):
    with pytest.warns(CollimationWarning):
        _scenario(constants, natural_units, w0=5.0)


def test_scenario_threshold_configurable(constants, natural_units):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _scenario(constants, natural_units, w0=5.0, paraxial_threshold=0.5)


def test_field_sample_rejects_non_finite():
    from vacuumbeams import FieldSample

    with pytest.raises(DomainError):
        FieldSample(
            E=np.array([math.nan, 0, 0], dtype=complex),
            B=np.zeros(3, dtype=complex),
            rho=1.0,
            phi=0.0,
            z=0.0,
            t=0.0,
        )


def test_from_si_round_trip():
    sc = BeamScenario.from_si(
        power_w=750e3, wavelength_m=1e-6, w0_m=0.1, R_m=0.1, L_m=4000.0, r=1.0
    )
    np.testing.assert_allclose(sc.power_si, 750e3, rtol=1e-12)
    np.testing.assert_allclose(sc.wavelength_si, 1e-6, rtol=1e-12)
    np.testing.assert_allclose(sc.units.length_to_si(sc.w0), 0.1, rtol=1e-12)
    assert sc.k == sc.omega


def test_from_si_requires_one_power_input():
    with pytest.raises(DomainError):
        BeamScenario.from_si(wavelength_m=1e-6, w0_m=0.1, R_m=0.1, L_m=10.0)
    with pytest.raises(DomainError):
        BeamScenario.from_si(
            power_w=1.0, amplitude_si=1.0, wavelength_m=1e-6, w0_m=0.1, R_m=0.1, L_m=10.0
        )
