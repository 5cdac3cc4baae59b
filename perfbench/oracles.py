"""Independent references for the axial integrals

    I(+/-)(rho, z) = integral_0^L e^{i k w(z')} / s dz',
    w = (+/-) z' + 3 s,  s = sqrt(rho^2 + (z - z')^2).

``ClosedForm`` evaluates the stationary-phase value the asymptotic mode
claims to compute, in mpmath from the same double inputs.  ``axial_integral``
computes the true integral with scipy's QUADPACK after changing variable to
the phase, so it shares no code or method with ``eval_numeric``: each
monotone branch of w is inverted in closed form, the first few periods next
to the branch start are integrated in t = sqrt(w - w_min), which removes the
1/sqrt singularity of dz'/dw at the stationary point, and the rest is a
Fourier integral in w handled by QAWO.  Every value is computed at two
settings, and the two must agree to a tenth of the requested tolerance.
"""

from __future__ import annotations

import cmath
import math
import warnings

import mpmath
from scipy import integrate

EPS = 2.0**-52
ROOT8 = math.sqrt(8.0)
DPS = 30
# (head length in periods of e^{ikw}, QUADPACK relative tolerance)
SETTINGS = ((4.0, 1e-12), (16.0, 1e-13))


class OracleError(RuntimeError):
    """The two oracle settings disagree by more than a tenth of ``tol``."""


def in_support(rho: float, z: float, L: float, sign: int) -> bool:
    """Whether the stationary point z - sign*rho/sqrt(8) lies in (0, L), exactly."""
    with mpmath.workdps(DPS):
        z0 = mpmath.mpf(z) - sign * mpmath.mpf(rho) / mpmath.sqrt(8)
        return bool(0 < z0 < mpmath.mpf(L))


def stationary_point(rho: float, z: float, sign: int):
    with mpmath.workdps(DPS):
        return mpmath.mpf(z) - sign * mpmath.mpf(rho) / mpmath.sqrt(8)


def near_boundary(rho: float, z: float, k: float, L: float) -> bool:
    """Stationary point of either sign within 3 Fresnel widths of 0 or L."""
    with mpmath.workdps(DPS):
        width = 3 * mpmath.sqrt(mpmath.mpf(rho) / mpmath.mpf(k))
        for sign in (+1, -1):
            z0 = stationary_point(rho, z, sign)
            if abs(z0) < width or abs(z0 - mpmath.mpf(L)) < width:
                return True
        return False


class ClosedForm:
    """sqrt(pi / (sqrt(2) k rho)) exp(i (sign k z + sqrt(8) k rho + pi/4)) in mpmath.

    The factor depending on rho and the one depending on (z, sign) are cached,
    since grid points share them; their product is exact to ``DPS`` digits.
    """

    def __init__(self, k: float, L: float):
        self.k = k
        self.L = L
        self._radial: dict[float, mpmath.mpc] = {}
        self._axial: dict[tuple[float, int], mpmath.mpc] = {}

    def __call__(self, rho: float, z: float, sign: int):
        """Closed-form value (an mpc, 0 out of support) and the support flag."""
        if not in_support(rho, z, self.L, sign):
            return mpmath.mpc(0), False
        with mpmath.workdps(DPS):
            if rho not in self._radial:
                krho = mpmath.mpf(self.k) * mpmath.mpf(rho)
                modulus = mpmath.sqrt(mpmath.pi / (mpmath.sqrt(2) * krho))
                self._radial[rho] = modulus * mpmath.expj(mpmath.sqrt(8) * krho + mpmath.pi / 4)
            if (z, sign) not in self._axial:
                self._axial[(z, sign)] = mpmath.expj(sign * mpmath.mpf(self.k) * mpmath.mpf(z))
            return self._radial[rho] * self._axial[(z, sign)], True


def rounding_bound(rho: float, z: float, k: float) -> float:
    """Relative error allowed for the closed form evaluated in doubles.

    Its phase k z + sqrt(8) k rho reaches 2.5e10 rad at the LIGO arm; each
    double rounding of it shifts the result by up to EPS * |phase| relative,
    whatever the evaluation order.  The constant covers the handful of such
    roundings plus those of the prefactor.
    """
    return 8.0 * EPS * (abs(k * z) + ROOT8 * k * rho + 8.0)


def _branch_pieces(rho: float, z: float, L: float, sign: int):
    """Monotone pieces of w over [0, L] in u = z' - z, with their branch (+1 right)."""
    u0 = -sign * rho / ROOT8
    ua, ub = -z, L - z
    if ua < u0 < ub:
        return [(ua, u0, -1), (u0, ub, +1)]
    return [(ua, ub, -1 if ub <= u0 else +1)]


def _piece(rho, z, k, sign, ua, ub, branch, head_periods, epsrel) -> complex:
    w_min = ROOT8 * rho  # minimum over u of W = w - sign*z, at u0
    u0 = -sign * rho / ROOT8

    # Both maps and the Jacobian are written in d = u - u0 without the
    # cancellation of sign*u + 3 s - w_min near the stationary point, which
    # would misplace an endpoint lying a small part of a Fresnel width from it.
    def v_of_u(u):
        d = u - u0
        return 8.0 * d * d / (3.0 * math.hypot(rho, u) + w_min - sign * u)

    def jacobian(v):  # (du/dv) / s = 1 / (w' s)
        d = (-sign * v + branch * 3.0 * math.sqrt(v * (v + 2.0 * w_min))) / 8.0
        u = u0 + d
        s = math.hypot(rho, u)
        if abs(d) < 0.25 * rho:  # w' = -8 d (u + u0) / (s (sign s - 3 u))
            return (sign * s - 3.0 * u) / (-8.0 * d * (u + u0))
        return 1.0 / ((sign + 3.0 * u / s) * s)

    va, vb = v_of_u(ua), v_of_u(ub)
    lo, hi = min(va, vb), max(va, vb)
    orient = 1.0 if vb >= va else -1.0
    mid = min(hi, lo + head_periods * 2.0 * math.pi / k)

    def head(t, part):
        v = t * t
        if v == 0.0:  # limit of 2 t (du/dv) / s at the stationary point
            s0 = 3.0 * rho / ROOT8
            amp = 2.0 * branch / (math.sqrt(2.0 * 3.0 * rho**2 / s0**3) * s0)
        else:
            amp = 2.0 * t * jacobian(v)
        return amp * part(k * (v - lo))

    tl, th = math.sqrt(lo), math.sqrt(mid)
    opts = dict(epsabs=0.0, epsrel=epsrel, limit=2000)
    total = complex(
        integrate.quad(head, tl, th, args=(math.cos,), **opts)[0],
        integrate.quad(head, tl, th, args=(math.sin,), **opts)[0],
    )
    if hi > mid:
        opts["maxp1"] = 200
        tail = complex(
            integrate.quad(lambda x: jacobian(mid + x), 0.0, hi - mid, weight="cos", wvar=k, **opts)[0],
            integrate.quad(lambda x: jacobian(mid + x), 0.0, hi - mid, weight="sin", wvar=k, **opts)[0],
        )
        total += tail * cmath.exp(1j * k * (mid - lo))
    with mpmath.workdps(DPS):
        phase = mpmath.mpf(k) * (sign * mpmath.mpf(z) + mpmath.mpf(w_min) + mpmath.mpf(lo))
        anchor = complex(mpmath.expj(phase))
    return orient * anchor * total


def _integral(rho, z, k, L, sign, head_periods, epsrel) -> complex:
    with warnings.catch_warnings():
        # Roundoff warnings near the requested accuracy are expected; the
        # two-setting agreement below is the accuracy check.
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return sum(
            (_piece(rho, z, k, sign, ua, ub, branch, head_periods, epsrel)
             for ua, ub, branch in _branch_pieces(rho, z, L, sign)),
            0j,
        )


def axial_integral(rho: float, z: float, k: float, L: float, sign: int, tol: float) -> tuple[complex, float]:
    """True value of I(sign) and the relative disagreement of the two settings."""
    first, second = (_integral(rho, z, k, L, sign, h, e) for h, e in SETTINGS)
    spread = abs(first - second) / abs(second)
    if not spread <= 0.1 * tol:
        raise OracleError(
            f"oracle settings disagree by {spread:.2e} (> tol/10) at rho={rho!r}, z={z!r}, k={k!r}, sign={sign:+d}"
        )
    return second, spread
