import math

import numpy as np
import pytest

from vacuumbeams import DomainError, amplitude_from_power, derive_constants
from vacuumbeams.units import UnitSystem


def test_lambda_coupling_value(constants):
    # independent hand evaluation of alpha^2/(45 pi) with me = 1
    np.testing.assert_allclose(constants.lambda_coupling, 3.7667627992459857e-07, rtol=1e-14)


def test_lambda_coupling_definition(constants):
    expected = constants.alpha * constants.alpha / (45.0 * math.pi)
    assert constants.lambda_coupling == expected


def test_classical_electron_radius(constants):
    assert abs(constants.r0 - 2.8e-15) / 2.8e-15 < 0.01
    # consistency with the inputs
    direct = constants.alpha * constants.hbar_si * constants.c_si / constants.electron_mass
    np.testing.assert_allclose(constants.r0, direct, rtol=1e-12)


def test_quantum_power_consistent_with_inputs(constants):
    direct = constants.electron_mass**2 / constants.hbar_si
    np.testing.assert_allclose(constants.p_e, direct, rtol=1e-12)


@pytest.mark.parametrize("alpha,mass", [(0.0, 1.0), (-1.0, 1.0), (0.007, 0.0), (0.007, -2.0)])
def test_derive_constants_rejects_nonpositive(alpha, mass):
    with pytest.raises(DomainError):
        derive_constants(alpha=alpha, electron_mass=mass)


def test_constants_are_pure_data(constants):
    again = derive_constants()
    assert constants == again
    with pytest.raises(Exception):
        constants.alpha = 1.0  # frozen


def test_amplitude_zero_power(natural_units):
    assert amplitude_from_power(0.0, 0.1, natural_units) == 0.0


def test_amplitude_sqrt2_scaling(natural_units):
    a1 = amplitude_from_power(1e3, 0.05, natural_units)
    a2 = amplitude_from_power(2e3, 0.05, natural_units)
    np.testing.assert_allclose(a2 / a1, math.sqrt(2.0), rtol=1e-14)


def test_amplitude_750kw_frozen(natural_units):
    # sqrt(750e3 / (pi * 0.1^2)) = 4886.025119029199 sqrt(W)/m, then the
    # documented natural conversion
    amp = amplitude_from_power(750e3, 0.1, natural_units)
    np.testing.assert_allclose(natural_units.field_to_si(amp), 4886.025119029199, rtol=1e-13)
    np.testing.assert_allclose(amp, 2.366627117770384e-13, rtol=1e-13)


def test_amplitude_inverse_relation(natural_units):
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.uniform(0.0, 10.0)
        radius_m = rng.uniform(1e-3, 1.0)
        power_w = math.pi * radius_m**2 * natural_units.field_to_si(x) ** 2
        np.testing.assert_allclose(
            amplitude_from_power(power_w, radius_m, natural_units), x, rtol=1e-12
        )


def test_amplitude_rejects_bad_inputs(natural_units):
    with pytest.raises(DomainError):
        amplitude_from_power(1.0, 0.0, natural_units)
    with pytest.raises(DomainError):
        amplitude_from_power(-1.0, 0.1, natural_units)


def test_round_trip_conversions(natural_units):
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(1e-6, 1e6)
        for to_si, from_si in [
            (natural_units.length_to_si, natural_units.length_from_si),
            (natural_units.time_to_si, natural_units.time_from_si),
            (natural_units.power_to_si, natural_units.power_from_si),
            (natural_units.field_to_si, natural_units.field_from_si),
        ]:
            np.testing.assert_allclose(from_si(to_si(x)), x, rtol=1e-12)
