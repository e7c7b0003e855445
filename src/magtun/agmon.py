"""Agmon distance of the effective radial potential and the action constants.

The distance

    d(r) = int_0^r sqrt(rho^2/4 + v0(rho) - v0_min) d rho

controls the exponential decay of the single-well ground state.  All the
tunneling action constants are built from it:

    S0      = d(L)
    Sa      = d(L - a) + d(a)
    Shat    = min_{0<r<a} [ L r / 2 + d(L - r) + d(r) ]
    S(eps)  = min_r [ (1-eps) L r / 2 + d(sqrt((L-r)^2 + 2 eps L r)) + d(r) ]
    Ra      = S0 - Sa
    CL      = ((L - a)/2 + 2 sqrt(depth)) a

Outside the support the integrand is sqrt(rho^2/4 + depth) and d has the
closed-form tail  (rho/4) sqrt(rho^2 + 4 depth) + depth asinh(rho/(2 sqrt(depth))).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from .numerics import NumericalError, QuadratureSpec, integrate, minimize_1d

__all__ = [
    "AgmonProfile",
    "agmon_d",
    "action_S0",
    "action_Sa",
    "action_Shat",
    "action_S_eps",
    "action_g0",
    "remainder_Ra",
    "corridor_CL",
    "free_action_primitive",
]


def free_action_primitive(rho, vmin_abs):
    """Antiderivative of sqrt(rho^2/4 + vmin_abs)."""
    rho = np.asarray(rho, dtype=float)
    c = math.sqrt(vmin_abs)
    return rho / 4.0 * np.sqrt(rho * rho + 4.0 * vmin_abs) + \
        vmin_abs * np.arcsinh(rho / (2.0 * c))


class S0Result(NamedTuple):
    value: float
    variational: float
    u_star: float


class SaResult(NamedTuple):
    value: float
    variational: float
    u_star: float


class ShatResult(NamedTuple):
    value: float
    r0: float


class SepsResult(NamedTuple):
    value: float
    r_eps: float


class RaResult(NamedTuple):
    value: float
    direct: float
    bound: float


class CLResult(NamedTuple):
    value: float
    upper: float
    lower: float


class AgmonProfile:
    """Memoized d(r) for a well/separation pair.

    The integrand is tabulated densely on [0, a] (cumulative Simpson +
    cubic spline); beyond a the exact closed-form tail applies.  Instances
    are immutable after construction and safe to share.
    """

    def __init__(self, well, L, quadrature=None, n_grid=20001):
        self.well = well
        self.L = float(L)
        self.quadrature = quadrature or QuadratureSpec()
        a = well.a
        rs = np.linspace(0.0, a, n_grid)
        table = cumulative_simpson(self.integrand(rs), x=rs, initial=0.0)
        self._inner = CubicSpline(rs, table)
        self.d_a = float(table[-1])
        # independent quadrature cross-check carries the error bound
        val, err = integrate(lambda r: float(self.integrand(np.array([r]))[0]),
                             0.0, a, self.quadrature, return_error=True)
        self.d_a_error = abs(val - self.d_a) + err

    def integrand(self, rho):
        """sqrt(rho^2/4 + v0 - v0_min) = d'(rho)."""
        rho = np.asarray(rho, dtype=float)
        return np.sqrt(rho * rho / 4.0 + self.well.v0(rho) + self.well.depth)

    def d(self, r):
        r = np.asarray(r, dtype=float)
        a = self.well.a
        inner = self._inner(np.clip(r, 0.0, a))
        tail = self.d_a + free_action_primitive(np.maximum(r, a), self.well.depth) \
            - free_action_primitive(a, self.well.depth)
        out = np.where(r <= a, inner, tail)
        return float(out) if out.ndim == 0 else out

    def g0(self, r):
        """L r / 2 + d(L - r) + d(r), the hat-action integrand."""
        return self.L * np.asarray(r, dtype=float) / 2.0 + \
            self.d(self.L - np.asarray(r, dtype=float)) + self.d(r)

    def g_eps(self, r, eps):
        r = np.asarray(r, dtype=float)
        shifted = np.sqrt((self.L - r) ** 2 + 2.0 * eps * self.L * r)
        return (1.0 - eps) * self.L * r / 2.0 + self.d(shifted) + self.d(r)


def agmon_d(profile, r):
    """d(r) for r >= 0."""
    if np.any(np.asarray(r) < 0):
        raise ValueError("radius must be nonnegative")
    return profile.d(r)


def action_S0(profile, tol=1e-10):
    """S0 = d(L), with the variational value inf_{0<u<a} d(u) + d(L+u)."""
    a, L = profile.well.a, profile.L
    value = float(profile.d(L))
    res = minimize_1d(lambda u: float(profile.d(u) + profile.d(L + u)),
                      0.0, a, tol=tol)
    return S0Result(value, res.value, res.argmin)


def action_Sa(profile, tol=1e-10):
    """Sa = d(L-a) + d(a), with the variational value inf d(u) + d(L-u).

    The variational identity needs v0 < L(L-2a)/4 on [0, a]; automatic for
    the nonpositive wells this package admits.
    """
    a, L = profile.well.a, profile.L
    value = float(profile.d(L - a) + profile.d(a))
    res = minimize_1d(lambda u: float(profile.d(u) + profile.d(L - u)),
                      0.0, a, tol=tol)
    return SaResult(value, res.value, res.argmin)


def action_g0(profile, r):
    return profile.g0(r)


def action_Shat(profile, tol=1e-9):
    """Shat = min_{[0,a]} g0 with its minimizer r0; r0 must be interior."""
    a = profile.well.a
    res = minimize_1d(lambda r: float(profile.g0(r)), 0.0, a, tol=tol)
    if not (tol < res.argmin < a - tol):
        raise NumericalError(
            f"hat-action minimizer r0={res.argmin} not interior to (0, {a})",
            estimate=res.argmin, error_bound=(tol, a - tol))
    return ShatResult(res.value, res.argmin)


def action_S_eps(profile, eps, tol=1e-9):
    """S(eps) = min_r g(r, eps) for 0 < eps <= 1."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("need 0 < eps <= 1")
    a = profile.well.a
    res = minimize_1d(lambda r: float(profile.g_eps(r, eps)), 0.0, a, tol=tol)
    return SepsResult(res.value, res.argmin)


def remainder_Ra(profile):
    """Ra = S0 - Sa, cross-checked by its own defining integral."""
    well, L = profile.well, profile.L
    a, depth = well.a, well.depth
    value = float(profile.d(L) - profile.d(L - a) - profile.d(a))

    def ra_integrand(rho):
        return math.sqrt((L - rho) ** 2 / 4.0 + depth) - \
            float(profile.integrand(np.array([rho]))[0])

    direct = integrate(ra_integrand, 0.0, a, profile.quadrature)
    bound = ((L - a) / 2.0 + math.sqrt(depth)) * a
    if not (0.0 < value <= bound + 1e-12):
        raise NumericalError(f"Ra={value} outside (0, {bound}]",
                             estimate=value, error_bound=bound)
    return RaResult(value, direct, bound)


def corridor_CL(profile):
    """CL = ((L-a)/2 + 2 sqrt(depth)) a and the log-splitting corridor pair."""
    well, L = profile.well, profile.L
    a, depth = well.a, well.depth
    value = ((L - a) / 2.0 + 2.0 * math.sqrt(depth)) * a
    upper = float(free_action_primitive(L, depth))  # int_0^L sqrt(rho^2/4+depth)
    return CLResult(value, upper, upper - value)
