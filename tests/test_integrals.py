import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from vacuumbeams import (
    ConvergenceError,
    DomainError,
    PhaseModel,
    eval_asymptotic,
    eval_numeric,
    fresnel_width,
    stationary_point,
)
from vacuumbeams.integrals import MAX_NODES

ROOT8 = math.sqrt(8.0)


def _phase(m, zp):
    """Phase w = sign z' + 3 s of the axial integrand and its derivatives w' and w''."""
    d = zp - m.z
    s = math.hypot(m.rho, d)
    return m.sign * zp + 3.0 * s, m.sign + 3.0 * d / s, 3.0 * m.rho**2 / s**3


def test_phase_at_closest_approach():
    for sign in (+1, -1):
        m = PhaseModel(rho=2.0, z=5.0, k=3.0, L=20.0, sign=sign)
        w, w1, _ = _phase(m, 5.0)
        np.testing.assert_allclose(w, sign * 5.0 + 3.0 * 2.0, rtol=1e-15)
        np.testing.assert_allclose(w1, sign * 1.0, rtol=1e-15)


def test_phase_stationary_point_derivatives():
    m = PhaseModel(rho=2.0, z=5.0, k=3.0, L=20.0, sign=+1)
    z0, _ = stationary_point(m)
    assert z0 == 5.0 - 2.0 / ROOT8
    w, w1, w2 = _phase(m, z0)
    assert abs(w1) < 1e-14
    np.testing.assert_allclose(w2, 16.0 * math.sqrt(2.0) / (9.0 * 2.0), rtol=1e-12)
    np.testing.assert_allclose(w, 5.0 + ROOT8 * 2.0, rtol=1e-14)


@pytest.mark.parametrize(
    "sign,z,expect",
    [
        (+1, 1.0 / ROOT8 + 5.0, True),
        (+1, 0.5 / ROOT8, False),
        (-1, 10.0 - 0.5 / ROOT8, False),
        (-1, 5.0, True),
    ],
)
def test_stationary_point_support(sign, z, expect):
    m = PhaseModel(rho=1.0, z=z, k=100.0, L=10.0, sign=sign)
    _, inside = stationary_point(m)
    assert inside is expect


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rho=0.0, z=1.0, k=1.0, L=1.0, sign=1),
        dict(rho=-1.0, z=1.0, k=1.0, L=1.0, sign=1),
        dict(rho=1.0, z=1.0, k=0.0, L=1.0, sign=1),
        dict(rho=1.0, z=1.0, k=1.0, L=-1.0, sign=1),
        dict(rho=1.0, z=1.0, k=1.0, L=1.0, sign=2),
        dict(rho=math.nan, z=1.0, k=1.0, L=1.0, sign=1),
        dict(rho=1.0, z=math.inf, k=1.0, L=1.0, sign=1),
        dict(rho=1.0, z=1.0, k=math.inf, L=1.0, sign=1),
        dict(rho=1.0, z=1.0, k=1.0, L=math.nan, sign=1),
    ],
)
def test_phase_model_validation(kwargs):
    with pytest.raises(DomainError):
        PhaseModel(**kwargs)


def test_numeric_empty_interval():
    m = PhaseModel(rho=1.0, z=0.5, k=1.0, L=0.0, sign=+1)
    res = eval_numeric(m)
    assert res.value == 0.0
    assert res.error_estimate == 0.0
    assert not res.in_support


def test_numeric_tol_domain():
    m = PhaseModel(rho=1.0, z=0.5, k=1.0, L=1.0, sign=+1)
    for tol in (1e-15, 1e-1, 0.5):
        with pytest.raises(DomainError):
            eval_numeric(m, tol=tol)
    for max_nodes in (1, MAX_NODES + 1):
        with pytest.raises(DomainError):
            eval_numeric(m, max_nodes=max_nodes)


@pytest.mark.parametrize("sign", [+1, -1])
def test_numeric_quasi_static_vs_quad(sign):
    # k (L + 3 diag) ~ 0.05: oscillation negligible, plain adaptive
    # quadrature is a valid oracle
    rho, z, k, L = 1.0, 0.5, 0.01, 1.0
    m = PhaseModel(rho=rho, z=z, k=k, L=L, sign=sign)
    res = eval_numeric(m, tol=1e-11)

    def f(zp, part):
        s = math.hypot(rho, z - zp)
        v = cmath.exp(1j * k * (sign * zp + 3.0 * s)) / s
        return v.real if part == "re" else v.imag

    oracle = (
        quad(f, 0.0, L, args=("re",), epsabs=1e-14, epsrel=1e-13)[0]
        + 1j * quad(f, 0.0, L, args=("im",), epsabs=1e-14, epsrel=1e-13)[0]
    )
    np.testing.assert_allclose(res.value, oracle, rtol=1e-10)


@pytest.mark.parametrize("sign", [+1, -1])
def test_numeric_mid_frequency_vs_quad(sign):
    # a few dozen oscillations: still within plain adaptive quadrature's reach
    rho, z, k, L = 1.0, 0.5, 50.0, 1.0
    m = PhaseModel(rho=rho, z=z, k=k, L=L, sign=sign)
    res = eval_numeric(m, tol=1e-11)

    def f(zp, part):
        s = math.hypot(rho, z - zp)
        v = cmath.exp(1j * k * (sign * zp + 3.0 * s)) / s
        return v.real if part == "re" else v.imag

    oracle = (
        quad(f, 0.0, L, args=("re",), epsabs=1e-13, epsrel=1e-12, limit=500)[0]
        + 1j * quad(f, 0.0, L, args=("im",), epsabs=1e-13, epsrel=1e-12, limit=500)[0]
    )
    np.testing.assert_allclose(res.value, oracle, rtol=1e-9, atol=1e-13)


_TWO_PI_LD = 2.0 * np.longdouble("3.141592653589793238462643383279502884")
_GL24 = np.polynomial.legendre.leggauss(24)


def _quad_reference(rho, z, k, L, sign):
    """Plain adaptive quadrature in z' with the phase rounded in double."""

    def f(zp):
        s = math.hypot(rho, z - zp)
        return cmath.exp(1j * k * (sign * zp + 3.0 * s)) / s

    points = [p for p in (z - sign * rho / ROOT8, z) if 0.0 < p < L]
    return quad(f, 0.0, L, complex_func=True, epsabs=0.0, epsrel=1e-11, limit=2000, points=points or None)[0]


def _composite_reference(rho, z, k, L, sign, pieces=512):
    """Composite 24-point Gauss-Legendre in z' with extended-precision phase anchors.

    Node phases are taken relative to their piece's midpoint, in the
    cancellation-free form k dx (sign + 3 (d + d_m)/(s + s_m)), and the
    midpoint phase k*w is reduced mod 2 pi in long double.  So, unlike the
    plain quadrature, it carries no rounding of the total phase, which is
    what limits the latter to ~1e-12.
    """
    edges = np.linspace(0.0, L, pieces + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    d_m = mid - z
    s_m = np.hypot(rho, d_m)
    dx = half[:, None] * _GL24[0]
    d = d_m[:, None] + dx
    s = np.hypot(rho, d)
    local = np.exp(1j * k * dx * (sign + 3.0 * (d + d_m[:, None]) / (s + s_m[:, None]))) / s
    mid_ld = mid.astype(np.longdouble)
    w_m = sign * mid_ld + 3.0 * np.sqrt(np.longdouble(rho) ** 2 + (mid_ld - np.longdouble(z)) ** 2)
    anchor = np.exp(1j * np.mod(np.longdouble(k) * w_m, _TWO_PI_LD).astype(float))
    parts = anchor * half * (local @ _GL24[1])
    return complex(math.fsum(parts.real), math.fsum(parts.imag))


# QUADPACK flags the phase rounding of its double-precision integrand as
# roundoff; it stays ~1e-12, far inside the rtol checked here.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("offset", [0.0, 1e-6, -1e-6, 0.5, -0.5, 1.0, -1.0, 4.0, -4.0, 20.0, -20.0])
@pytest.mark.parametrize("endpoint", ["start", "end"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_numeric_stationary_point_near_endpoint(sign, endpoint, offset):
    # k L = 1e3, k rho = 100: the stationary point sits `offset` Fresnel
    # widths from z' = 0 or z' = L, on either side, where it coalesces with
    # the endpoint.  About 640 oscillations: plain quadrature still resolves
    # them, and the composite reference does so to ~1e-14.
    rho, k, L = 0.1, 1e3, 1.0
    zp = 0.0 if endpoint == "start" else L
    z = zp + offset * math.sqrt(rho / k) + sign * rho / ROOT8
    res = eval_numeric(PhaseModel(rho=rho, z=z, k=k, L=L, sign=sign), tol=1e-10)
    np.testing.assert_allclose(res.value, _quad_reference(rho, z, k, L, sign), rtol=1e-10)
    reference = _composite_reference(rho, z, k, L, sign)
    np.testing.assert_allclose(res.value, reference, rtol=1e-10)
    assert res.error_estimate >= abs(res.value - reference)


def test_numeric_ligo_arm_matches_asymptotic(ligo_scenario):
    # k L ~ 2.5e10.  At rho = 1 m the stationary-phase value is good to ~1e-7.
    sc = ligo_scenario
    assert sc.k * sc.L > 2e10
    rho = sc.units.length_from_si(1.0)
    for sign in (+1, -1):
        m = PhaseModel(rho=rho, z=0.3 * sc.L, k=sc.k, L=sc.L, sign=sign)
        num = eval_numeric(m, tol=1e-7)
        assert num.error_estimate <= 1e-7 * abs(num.value)
        asym = eval_asymptotic(m)
        assert abs(num.value - asym.value) <= 1e-6 * abs(num.value)


def test_asymptotic_modulus_and_phase():
    rho = 1e-3
    k = 1e4 / rho
    m = PhaseModel(rho=rho, z=2e-3, k=k, L=1e-2, sign=+1)
    res = eval_asymptotic(m)
    np.testing.assert_allclose(abs(res.value), math.sqrt(math.pi / (math.sqrt(2.0) * 1e4)), rtol=1e-13)
    expected_phase = (k * 2e-3 + ROOT8 * 1e4 + math.pi / 4.0) % (2.0 * math.pi)
    got = cmath.phase(res.value) % (2.0 * math.pi)
    diff = abs(got - expected_phase)
    assert min(diff, 2.0 * math.pi - diff) < 1e-8
    assert res.error_estimate == 1e4**-0.5


def test_asymptotic_zero_out_of_support():
    rho = 1e-3
    m = PhaseModel(rho=rho, z=0.2 * rho / ROOT8, k=1e7, L=1e-2, sign=+1)
    res = eval_asymptotic(m)
    assert res.value == 0.0
    assert not res.in_support
    m = PhaseModel(rho=rho, z=1e-2 - 0.2 * rho / ROOT8, k=1e7, L=1e-2, sign=-1)
    assert eval_asymptotic(m).value == 0.0


def test_asymptotic_low_accuracy_flag():
    rho, k, L = 1e-3, 1e7, 1e-2
    width = math.sqrt(rho / k)
    near = PhaseModel(rho=rho, z=rho / ROOT8 + width, k=k, L=L, sign=+1)
    far = PhaseModel(rho=rho, z=rho / ROOT8 + 100.0 * width, k=k, L=L, sign=+1)
    assert eval_asymptotic(near).low_accuracy
    assert not eval_asymptotic(far).low_accuracy
    assert fresnel_width(near) == width


def test_numeric_matches_asymptotic_at_large_krho():
    rho, z, L = 1e-3, 2e-3, 1e-2
    krho = 1e3
    m = PhaseModel(rho=rho, z=z, k=krho / rho, L=L, sign=+1)
    num = eval_numeric(m, tol=1e-9)
    asym = eval_asymptotic(m)
    assert abs(num.value - asym.value) / abs(num.value) <= krho**-0.5


def test_asymptotic_convergence_monotone():
    rho, z, L = 1e-3, 2e-3, 1e-2
    deviations = []
    for krho in (1e2, 1e3, 1e4):
        m = PhaseModel(rho=rho, z=z, k=krho / rho, L=L, sign=+1)
        num = eval_numeric(m, tol=1e-9)
        asym = eval_asymptotic(m)
        deviations.append(abs(num.value - asym.value) / abs(num.value))
    for d1, d2 in zip(deviations, deviations[1:]):
        assert d2 <= 1.2 * d1
    assert deviations[-1] < deviations[0]


def test_halving_tol_consistency():
    rho, z, L = 1e-3, 2e-3, 1e-2
    m = PhaseModel(rho=rho, z=z, k=1e3 / rho, L=L, sign=+1)
    tol = 1e-6
    prev = eval_numeric(m, tol=tol)
    for _ in range(4):
        tol /= 2.0
        cur = eval_numeric(m, tol=tol)
        assert abs(cur.value - prev.value) <= prev.error_estimate + 1e-16
        prev = cur


def test_shadow_region_decay():
    rho = 1e-3
    krho = 1e4
    k = krho / rho
    width = math.sqrt(rho / k)
    boundary = rho / ROOT8
    for z in (0.0, boundary - 10.0 * width):
        assert boundary - z >= 3.0 * width
        m = PhaseModel(rho=rho, z=z, k=k, L=1e-3, sign=+1)
        res = eval_numeric(m, tol=1e-9)
        assert not res.in_support
        assert abs(res.value) <= 0.1 * math.sqrt(math.pi / (math.sqrt(2.0) * krho))


def test_numeric_phase_check():
    rho = 1e-3
    k = 1e4 / rho
    m = PhaseModel(rho=rho, z=2e-3, k=k, L=1e-2, sign=+1)
    res = eval_numeric(m, tol=1e-9)
    expected = (k * 2e-3 + ROOT8 * 1e4 + math.pi / 4.0) % (2.0 * math.pi)
    got = cmath.phase(res.value) % (2.0 * math.pi)
    diff = abs(got - expected)
    assert min(diff, 2.0 * math.pi - diff) < 0.1


def test_minus_integral_mirrors_plus():
    # I-(rho, z) = e^{-ikL} I+(rho, L-z) exactly, by substitution
    rho, L, k = 1e-3, 2e-3, 1e6
    for z in (0.4e-3, 0.7e-3, 1.5e-3):
        res_m = eval_numeric(PhaseModel(rho=rho, z=z, k=k, L=L, sign=-1), tol=1e-10)
        res_p = eval_numeric(PhaseModel(rho=rho, z=L - z, k=k, L=L, sign=+1), tol=1e-10)
        np.testing.assert_allclose(abs(res_m.value), abs(res_p.value), rtol=1e-9)
        np.testing.assert_allclose(
            res_m.value, cmath.exp(-1j * k * L) * res_p.value, rtol=1e-9
        )


def test_convergence_error_carries_best_value():
    m = PhaseModel(rho=1e-3, z=2e-3, k=1e6, L=1e-2, sign=+1)
    with pytest.raises(ConvergenceError) as excinfo:
        eval_numeric(m, tol=1e-9, max_nodes=8)
    err = excinfo.value
    assert np.isfinite(err.error_estimate)
    assert np.isfinite(err.best_value.real) and np.isfinite(err.best_value.imag)
