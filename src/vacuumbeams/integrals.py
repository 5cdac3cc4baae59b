"""Axial wave integrals of the correction field: quadrature and asymptotics.

The correction field reduces to two line integrals along the beam axis,

    I(+/-)(rho, z) = integral_0^L dz' e^{+/- i k z'} e^{3 i k s} / s,
    s = sqrt(rho^2 + (z - z')^2),

whose integrands oscillate with phase k * w(z'), w(z') = (+/-)z' + 3 s.  The
phase is stationary at z0' = z -/+ rho/sqrt(8); when that point lies inside
(0, L) the leading stationary-phase value is

    sqrt(pi / (sqrt(2) k rho)) * exp(i ((+/-) k z + sqrt(8) k rho + pi/4)),

and the integral is negligible otherwise.  ``eval_numeric`` computes the
integral to a requested relative tolerance; ``eval_asymptotic`` returns the
closed form, gated exactly by the stationary-point support.

Numerical strategy: numerical steepest descent in t = sgn(u - u0) sqrt(W - W0),
u = z' - z, W = (+/-)u + 3 s, in which the phase is exactly k t^2 plus a
constant and u(t) is explicit, so the stationary point is a regular point and
the cost does not grow with k L (see ``eval_numeric``).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DomainError

_ROOT8 = math.sqrt(8.0)


@dataclass(frozen=True)
class PhaseModel:
    """One axial integral: point (rho, z), wavenumber, length, sign; rho and z may be broadcasting arrays."""

    rho: float
    z: float
    k: float
    L: float
    sign: int

    def __post_init__(self):
        finite = np.logical_and.reduce(np.isfinite(self.rho) & np.isfinite(self.z), axis=None)
        if not (finite and math.isfinite(self.k) and math.isfinite(self.L)):
            raise DomainError("rho, z, k and L must be finite")
        if np.minimum.reduce(self.rho, axis=None, initial=np.inf) <= 0:
            raise DomainError("rho must be positive (the integrand is axis-singular)")
        if self.k <= 0:
            raise DomainError("k must be positive")
        if self.L < 0:
            raise DomainError("L must be non-negative")
        if self.sign not in (1, -1):
            raise DomainError("sign must be +1 or -1")


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    method: str  # "numeric" | "asymptotic"
    error_estimate: float
    stationary_point: Optional[float]
    in_support: bool
    low_accuracy: bool = False


def _unwrap(a):
    """A 0-d result as a Python scalar, any other as the array."""
    a = np.asarray(a)
    return a.item() if a.ndim == 0 else a


def _pack(re, im):
    """re + i im for parts of one shape, set part by part so that signed zeros survive."""
    out = np.array(re, dtype=complex)
    out.imag = im
    return _unwrap(out)


def stationary_point(model: PhaseModel) -> tuple[float, bool]:
    """Location z0' where w' vanishes, and whether 0 < z0' < L (arrays for an array model)."""
    z0 = model.z - model.sign * model.rho / _ROOT8
    return _unwrap(z0), _unwrap((0.0 < z0) & (z0 < model.L))


def fresnel_width(model: PhaseModel) -> float:
    """Transition-zone scale sqrt(rho/k) around a support boundary."""
    return _unwrap(np.sqrt(np.divide(model.rho, model.k)))


_E60, _ROOT8_E60 = 10**60, math.isqrt(8 * 10**120)  # 1 and sqrt(8) in units of 1e-60
_TWO_PI_E60 = 6283185307179586476925286766559005768394338798750211641949889


def _reduced(factor_e60: int, k: float, x) -> np.ndarray:
    """(factor k x) mod 2 pi per element of x, with k x formed exactly: good to ~1e-50 rad at any size."""
    pk, qk = float(k).as_integer_ratio()
    ratios = map(float.as_integer_ratio, np.ravel(x).tolist())
    return np.reshape([factor_e60 * pk * p // (qk * q) % _TWO_PI_E60 / _E60 for p, q in ratios], np.shape(x))


def eval_asymptotic(model: PhaseModel) -> IntegralResult:
    """Leading stationary-phase closed form, exactly zero out of support.

    Array rho and z give arrays of their broadcast shape in every field (a scalar model is the 0-d case,
    with Python scalars); ``low_accuracy`` flags a stationary point within 3 Fresnel widths of an end.
    The phase terms sign k z and sqrt(8) k rho (~1e10 rad at the LIGO arm, where double rounding would
    cost ~1e-6 rad) are reduced mod 2 pi exactly, once per element of z and of rho.
    """
    z0, inside = stationary_point(model)
    width = 3.0 * fresnel_width(model)
    krho = model.k * np.asarray(model.rho)
    phase = model.sign * _reduced(_E60, model.k, model.z) + _reduced(_ROOT8_E60, model.k, model.rho) + math.pi / 4
    modulus = np.sqrt(math.pi / (math.sqrt(2.0) * krho))
    # x ** -0.5 through libm's pow, once per rho: numpy's power may differ in the last bit
    estimate = np.reshape([x**-0.5 for x in np.ravel(krho).tolist()], krho.shape)
    return IntegralResult(
        value=_pack(np.where(inside, modulus * np.cos(phase), 0.0), np.where(inside, modulus * np.sin(phase), 0.0)),
        method="asymptotic",
        error_estimate=_unwrap(np.broadcast_to(estimate, np.shape(z0)).copy()),
        stationary_point=z0,
        in_support=inside,
        low_accuracy=_unwrap((abs(z0) < width) | (abs(z0 - model.L) < width)),
    )


# pi to extended precision; the endpoint phases k*w reach ~1e10 rad, so the
# modulus must be accurate well beyond double.
_TWO_PI_LD = 2.0 * np.longdouble("3.141592653589793238462643383279502884")
_CUT_PHASE = 30.0  # k T^2 (rad) at the cuts t = +/-T of the real piece
_FIRST_RULE = 16  # nodes per piece of the coarser rule in the first n/2n pair
DEFAULT_MAX_NODES = 1024  # node budget per piece of eval_numeric, also the CLI default
MAX_NODES = 4096  # largest budget: each doubling solves a dense n x n eigenproblem, ~8x the time of the last
_EPS, _EPS_LD = float(np.finfo(float).eps), float(np.finfo(np.longdouble).eps)


@functools.lru_cache(maxsize=32)
def _gauss_rules(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre rule on [-1, 1] and Gauss-Laguerre rule for e^{-q}.

    The Laguerre rule comes from the Golub-Welsch eigenproblem, which stays
    finite at the large n where numpy's ``laggauss`` overflows.
    """
    x, wx = np.polynomial.legendre.leggauss(n)
    off = np.arange(1.0, n)
    jacobi = np.diag(2.0 * np.arange(n) + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    q, vectors = np.linalg.eigh(jacobi)
    return x, wx, q, vectors[0] ** 2


def _unit_phase(phase) -> complex:
    """e^{i phase} for an extended-precision phase, reduced mod 2 pi first."""
    return cmath.exp(1j * float(np.mod(phase, _TWO_PI_LD)))


def _endpoint(model: PhaseModel, zp: float) -> tuple[float, float, complex]:
    """(t^2, sign of t, e^{i k w(z')}) at the endpoint z' of the integral.

    t^2 = W - W0 is formed as 8 d^2 / (3 s + W0 - sign u), d = u - u0, which
    has no cancellation however close the stationary point is.
    """
    u = zp - model.z
    s = math.hypot(model.rho, u)
    d = u + model.sign * model.rho / _ROOT8
    t2 = 8.0 * d * d / (3.0 * s + _ROOT8 * model.rho - model.sign * u)
    u_ld = np.longdouble(zp) - np.longdouble(model.z)
    w = model.sign * np.longdouble(zp) + 3.0 * np.sqrt(np.longdouble(model.rho) ** 2 + u_ld * u_ld)
    return t2, math.copysign(1.0, d), _unit_phase(np.longdouble(model.k) * w)


def _pieces(model: PhaseModel) -> tuple[Optional[tuple], list[tuple]]:
    """The t-integral as a real piece and signed steepest-descent paths.

    ``real`` is ``(lo, hi, factor)`` (None if [t_a, t_b] lies beyond T on one
    side) and each path is ``(tau^2, sign of tau, factor)``; ``factor`` is the
    piece's sign times the reduced phase e^{i k w} at its start.
    """
    t2_a, sign_a, phase_a = _endpoint(model, 0.0)
    t2_b, sign_b, phase_b = _endpoint(model, model.L)
    cut2 = _CUT_PHASE / model.k
    if t2_a > cut2 and t2_b > cut2 and sign_a == sign_b:
        return None, [(t2_a, sign_a, phase_a), (t2_b, sign_b, -phase_b)]
    w_min = model.sign * np.longdouble(model.z) + np.sqrt(np.longdouble(8)) * model.rho
    centre = _unit_phase(np.longdouble(model.k) * w_min)
    cut = centre * cmath.exp(1j * _CUT_PHASE)
    lo, hi = sign_a * math.sqrt(t2_a), sign_b * math.sqrt(t2_b)
    paths = []
    if t2_a > cut2:
        lo = -math.sqrt(cut2)
        paths += [(t2_a, -1.0, phase_a), (cut2, -1.0, -cut)]
    if t2_b > cut2:
        hi = math.sqrt(cut2)
        paths += [(cut2, 1.0, cut), (t2_b, 1.0, -phase_b)]
    return (lo, hi, centre), paths


def _amplitude(model: PhaseModel, t: np.ndarray) -> np.ndarray:
    """h(t) = (du/dt) / s, the integrand without e^{i k t^2}; analytic at t = 0.

    The principal square root is the right branch wherever Re(t^2) >= 0,
    which holds on the real axis and on every descent path.
    """
    w0 = _ROOT8 * model.rho
    t2 = t * t
    root = np.sqrt(t2 + 2.0 * w0)
    u = (3.0 * t * root - model.sign * (w0 + t2)) / 8.0
    s = (w0 + t2 - model.sign * u) / 3.0
    du = (3.0 * (t2 + w0) / root - model.sign * t) / 4.0
    return du / s


def _quadrature(model: PhaseModel, real, paths, n: int) -> tuple[complex, float, float]:
    """(sum, sum of |terms|, sum of |pieces|) of all pieces with n nodes each.

    A path from tau is t(p) = sgn(tau) sqrt(tau^2 + i p), on which
    e^{i k t^2} = e^{i k tau^2} e^{-k p}: Gauss-Laguerre in q = k p.
    """
    x, wx, q, wq = _gauss_rules(n)
    nodes, coefs = [], []
    if real is not None:
        lo, hi, factor = real
        half = 0.5 * (hi - lo)
        t = 0.5 * (lo + hi) + half * x
        nodes.append(t.astype(complex))
        coefs.append(factor * half * wx * np.exp(1j * (model.k * t * t)))
    for tau2, sign, factor in paths:
        t = sign * np.sqrt(tau2 + 1j * q / model.k)
        nodes.append(t)
        coefs.append(factor * wq * 0.5j / (model.k * t))  # dt = i dq / (2 k t)
    terms = np.concatenate(coefs) * _amplitude(model, np.concatenate(nodes))
    pieces = terms.reshape(-1, n).sum(axis=1)
    return complex(pieces.sum()), float(np.abs(terms).sum()), float(np.abs(pieces).sum())


def eval_numeric(model: PhaseModel, tol: float = 1e-9, max_nodes: int = DEFAULT_MAX_NODES) -> IntegralResult:
    """Numerical steepest-descent quadrature of the axial integral.

    In t = sgn(u - u0) sqrt(W - W0), with u = z' - z, W = sign u + 3 s and the
    stationary point u0 = -sign rho/sqrt(8), W0 = sqrt(8) rho, the integral is

        e^{i k (sign z + W0)} * integral_{t_a}^{t_b} e^{i k t^2} h(t) dt,

    with h = (du/dt)/s analytic through the stationary point t = 0 and u(t)
    explicit.  [t_a, t_b] is cut at +/-T, k T^2 = 30 rad: Gauss-Legendre on
    the part within [-T, T], Gauss-Laguerre on the steepest-descent paths
    from each endpoint and cut beyond T.  The cost does not grow with k L.

    Each piece gets n nodes, and n doubles from 16 until the a-posteriori
    ``error_estimate`` (absolute) meets ``tol`` relative to the value; the 2n
    value is returned.  The estimate is |I_2n - I_n| plus two rounding
    floors: 50 eps times the sum of the terms' moduli (QUADPACK's floor), and
    the extended-precision rounding of the phases k*w times the sum of the
    pieces' moduli.  Raises :class:`ConvergenceError` carrying the best value
    when 2n would exceed ``max_nodes``, which may not exceed ``MAX_NODES``.
    """
    if not (1e-14 < tol < 1e-2):
        raise DomainError("tol must lie in (1e-14, 1e-2)")
    if not 2 <= max_nodes <= MAX_NODES:
        raise DomainError(f"max_nodes must lie in [2, {MAX_NODES}]")
    z0, inside = stationary_point(model)
    if model.L == 0.0:
        return IntegralResult(0.0 + 0.0j, "numeric", 0.0, z0, inside)

    real, paths = _pieces(model)
    # |w| peaks at an endpoint; each extended-precision k*w carries ~4 roundings
    w_end = model.sign * model.L + 3.0 * math.hypot(model.rho, model.L - model.z)
    phase_rounding = 2.0 * _EPS_LD * model.k * max(3.0 * math.hypot(model.rho, model.z), abs(w_end))
    n = min(_FIRST_RULE, max_nodes // 2)
    coarse = _quadrature(model, real, paths, n)[0]
    while True:
        value, terms_total, pieces_total = _quadrature(model, real, paths, 2 * n)
        floor = 50.0 * _EPS * terms_total + phase_rounding * pieces_total
        estimate = abs(value - coarse) + floor
        if estimate <= tol * abs(value):
            return IntegralResult(value, "numeric", estimate, z0, inside)
        n *= 2
        # more nodes cannot help once the rules agree to within the rounding floor
        if 2 * n > max_nodes or abs(value - coarse) < floor:
            raise ConvergenceError(
                f"relative tolerance {tol} not reached with {n} nodes per piece "
                f"(estimate {estimate:.3e}, rounding floor {floor:.3e})",
                best_value=value,
                error_estimate=estimate,
            )
        coarse = value
