import cmath
import math

import numpy as np

from vacuumbeams import (
    BeamScenario,
    delta_fields,
    drive_constant,
    gaussian_profile,
    linear_field,
    standing_wave_sources,
)


def _random_complex_vectors(rng, n):
    return rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))


def test_delta_fields_zero():
    de, db = delta_fields(np.zeros(3, complex), np.zeros(3, complex))
    assert np.all(de == 0) and np.all(db == 0)


def test_delta_fields_null_plane_wave():
    # E = a x, B = a y: both invariants vanish identically
    a = 0.8 - 0.2j
    e = np.array([a, 0, 0], complex)
    b = np.array([0, a, 0], complex)
    de, db = delta_fields(e, b)
    assert np.all(de == 0) and np.all(db == 0)


def test_delta_fields_standing_wave_closed_form(toy_scenario):
    rng = np.random.default_rng(5)
    for _ in range(20):
        rho = rng.uniform(0.0, 2.0 * toy_scenario.w0)
        z = rng.uniform(0.0, toy_scenario.L)
        t = rng.uniform(0.0, 20.0)
        sample = linear_field(rho, z, t, toy_scenario)
        de, db = delta_fields(sample.E, sample.B)
        u3 = gaussian_profile(rho, toy_scenario) ** 3
        r = toy_scenario.r
        base = 8.0 * r * cmath.exp(-3j * toy_scenario.omega * t) * u3
        plus = cmath.exp(1j * toy_scenario.k * z)
        minus = r * cmath.exp(-1j * toy_scenario.k * z)
        np.testing.assert_allclose(de[0], base * (plus + minus), rtol=1e-12)
        np.testing.assert_allclose(db[1], base * (plus - minus), rtol=1e-12)
        assert de[1] == de[2] == 0.0
        assert db[0] == db[2] == 0.0


def test_cubic_homogeneity():
    rng = np.random.default_rng(17)
    es = _random_complex_vectors(rng, 1000)
    bs = _random_complex_vectors(rng, 1000)
    scales = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    for e, b, a in zip(es, bs, scales):
        de_scaled, db_scaled = delta_fields(a * e, a * b)
        de, db = delta_fields(e, b)
        np.testing.assert_allclose(de_scaled, a**3 * de, rtol=1e-12)
        np.testing.assert_allclose(db_scaled, a**3 * db, rtol=1e-12)


def test_duality_antisymmetry():
    rng = np.random.default_rng(19)
    es = _random_complex_vectors(rng, 1000)
    bs = _random_complex_vectors(rng, 1000)
    for e, b in zip(es, bs):
        de_dual, _ = delta_fields(b, -e)
        _, db = delta_fields(e, b)
        np.testing.assert_allclose(de_dual, -db, rtol=1e-12)


def test_sources_vanish_without_reflection(constants, natural_units):
    sc = BeamScenario(
        amplitude=1.0,
        w0=2000.0,
        R=4000.0,
        L=50000.0,
        omega=1.0,
        r=0.0j,
        units=natural_units,
        constants=constants,
    )
    src = standing_wave_sources(500.0, 2.0, 0.1, sc)
    assert np.all(src.delta_e == 0) and np.all(src.delta_b == 0)
    assert np.all(src.j0 == 0)


def test_sources_polarization_axes(toy_scenario):
    rng = np.random.default_rng(23)
    for _ in range(10):
        src = standing_wave_sources(
            rng.uniform(0, 2000.0), rng.uniform(0, 100.0), rng.uniform(0, 10.0), toy_scenario
        )
        assert src.delta_e[1] == src.delta_e[2] == 0.0
        assert src.delta_b[0] == src.delta_b[2] == 0.0
        assert src.j0[1] == src.j0[2] == 0.0


def test_current_matches_fd_oracle(toy_scenario):
    # (d/dt dE - curl dB)/(4 pi) by central differences on
    # delta_fields(linear_field(...)); agreement is limited by the dropped
    # order-1/(omega w0) transverse term
    sc = toy_scenario
    assert sc.collimation <= 1e-3
    x0, y0, z0, t0 = 0.5 * sc.w0, 0.0, 3.1, 0.4
    hz = ht = 1e-3
    hx = 0.05

    def cubic_terms(x, y, z, t):
        sample = linear_field(math.hypot(x, y), z, t, sc)
        return delta_fields(sample.E, sample.B)

    de_p, _ = cubic_terms(x0, y0, z0, t0 + ht)
    de_m, _ = cubic_terms(x0, y0, z0, t0 - ht)
    d_de_dt = (de_p - de_m) / (2 * ht)
    _, db_zp = cubic_terms(x0, y0, z0 + hz, t0)
    _, db_zm = cubic_terms(x0, y0, z0 - hz, t0)
    _, db_xp = cubic_terms(x0 + hx, y0, z0, t0)
    _, db_xm = cubic_terms(x0 - hx, y0, z0, t0)
    dg_dz = (db_zp[1] - db_zm[1]) / (2 * hz)
    dg_dx = (db_xp[1] - db_xm[1]) / (2 * hx)
    curl_db = np.array([-dg_dz, 0.0, dg_dx], dtype=complex)
    oracle = (d_de_dt - curl_db) / (4.0 * math.pi)
    src = standing_wave_sources(math.hypot(x0, y0), z0, t0, sc)
    rel = np.linalg.norm(src.j0 - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-3


def test_divergence_bounded_by_collimation(toy_scenario):
    # div dE = d(dEx)/dx is nonzero only through the transverse envelope;
    # relative to the order-omega source scale it is bounded by
    # (6 x / w0) * 1/(omega w0)
    sc = toy_scenario
    rng = np.random.default_rng(29)
    hx = 0.05
    for _ in range(10):
        x0 = rng.uniform(0.1 * sc.w0, sc.w0)
        z0 = rng.uniform(0.0, 100.0)
        t0 = rng.uniform(0.0, 10.0)

        def de_x(x):
            sample = linear_field(abs(x), z0, t0, sc)
            return delta_fields(sample.E, sample.B)[0][0]

        div = (de_x(x0 + hx) - de_x(x0 - hx)) / (2 * hx)
        scale = sc.omega * abs(de_x(x0))
        bound = 6.0 * x0 / sc.w0 * sc.collimation
        assert abs(div) / scale <= 1.1 * bound + 1e-10


def test_drive_constant_zero_reflection(constants, natural_units):
    sc = BeamScenario(
        amplitude=2.0,
        w0=2000.0,
        R=4000.0,
        L=50000.0,
        omega=1.0,
        r=0.0j,
        units=natural_units,
        constants=constants,
    )
    assert drive_constant(sc) == 0.0


def test_drive_constant_cubic_scaling(constants, natural_units):
    kwargs = dict(w0=2000.0, R=4000.0, L=50000.0, omega=1.0, r=0.3 + 0.1j, units=natural_units, constants=constants)
    c1 = drive_constant(BeamScenario(amplitude=1.1, **kwargs))
    c2 = drive_constant(BeamScenario(amplitude=2.2, **kwargs))
    np.testing.assert_allclose(c2, 8.0 * c1, rtol=1e-14)


def test_drive_constant_unit_inputs(constants, natural_units):
    sc = BeamScenario(
        amplitude=1.0,
        w0=100.0,
        R=200.0,
        L=1000.0,
        omega=1.0,
        r=1.0 + 0.0j,
        units=natural_units,
        constants=constants,
    )
    assert drive_constant(sc) == 16.0 + 0.0j
