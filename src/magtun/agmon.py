"""Agmon distance of the effective radial potential and the action constants.

The distance

    d(r) = int_0^r sqrt(rho^2/4 + v0(rho) - v0_min) d rho

controls the exponential decay of the single-well ground state.  All the
tunneling action constants are built from it:

    S0      = d(L)
    Sa      = d(L - a) + d(a)
    S(eps)  = min_r [ (1-eps) L r / 2 + d(sqrt((L-r)^2 + 2 eps L r)) + d(r) ]
    Shat    = S(0) = min_{0<r<a} [ L r / 2 + d(L - r) + d(r) ]
    Ra      = S0 - Sa
    CL      = ((L - a)/2 + 2 sqrt(depth)) a
    Psi     = d(r) + (r^2 + L^2)(2t + 1)/4 + (depth/2) ln(1 + 1/t)
              - L r sqrt(t(t+1)), the Laplace phase of the hopping integral

Outside the support the integrand is sqrt(rho^2/4 + depth) and d has the
closed-form tail  (rho/4) sqrt(rho^2 + 4 depth) + depth asinh(rho/(2 sqrt(depth))).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .numerics import (NumericalError, _cumulative_simpson, _spline,
                       integrate, minimize_1d)

__all__ = [
    "AgmonProfile",
    "action_S0",
    "action_Sa",
    "action_Shat",
    "action_S_eps",
    "remainder_Ra",
    "corridor_CL",
    "free_action_primitive",
]

N_TABLE = 20001   # AgmonProfile's Simpson table nodes on [0, a]
# minimizer tolerances of the variational S0 and Sa, and of Shat and S(eps)
TOL_S0_SA = 1e-10
TOL_SHAT = 1e-9


def free_action_primitive(rho, vmin_abs):
    """Antiderivative of sqrt(rho^2/4 + vmin_abs)."""
    rho = np.asarray(rho, dtype=float)
    c = math.sqrt(vmin_abs)
    return rho / 4.0 * np.sqrt(rho * rho + 4.0 * vmin_abs) + \
        vmin_abs * np.arcsinh(rho / (2.0 * c))


class VariationalResult(NamedTuple):   # S0 or Sa
    value: float
    variational: float
    u_star: float


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

    def __init__(self, well, L):
        self.well = well
        self.L = float(L)
        a = well.a
        rs = np.linspace(0.0, a, N_TABLE)
        table = _cumulative_simpson(self.integrand(rs), rs)
        self._inner = _spline(rs, table)
        self.d_a = float(table[-1])
        # independent quadrature cross-check carries the error bound
        val, err = integrate(self.integrand, 0.0, a, return_error=True)
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

    def g_eps(self, r, eps):
        """The S(eps) integrand; at eps = 0 it is the hat-action integrand
        L r / 2 + d(L - r) + d(r) bit for bit, as sqrt((L - r)^2) is L - r."""
        r = np.asarray(r, dtype=float)
        shifted = np.sqrt((self.L - r) ** 2 + 2.0 * eps * self.L * r)
        return (1.0 - eps) * self.L * r / 2.0 + self.d(shifted) + self.d(r)

    def psi(self, r, t):
        """The Laplace phase Psi(r, t) on [0, a] x (0, inf)."""
        r = np.asarray(r, dtype=float)
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise ValueError("Psi requires t > 0")
        L, depth = self.L, self.well.depth
        val = (self.d(r) + (r * r + L * L) * (2.0 * t + 1.0) / 4.0
               + depth / 2.0 * np.log1p(1.0 / t)
               - L * r * np.sqrt(t * (t + 1.0)))
        return float(val) if val.ndim == 0 else val


def _variational(profile, value, sign):
    """value with the variational inf_{0<u<a} d(u) + d(L + sign u)."""
    L = profile.L
    res = minimize_1d(lambda u: profile.d(u) + profile.d(L + sign * u), 0.0,
                      profile.well.a, tol=TOL_S0_SA)
    return VariationalResult(value, res.value, res.argmin)


def action_S0(profile):
    """S0 = d(L), with the variational value inf_{0<u<a} d(u) + d(L+u)."""
    return _variational(profile, float(profile.d(profile.L)), 1.0)


def action_Sa(profile):
    """Sa = d(L-a) + d(a), with the variational value inf d(u) + d(L-u).

    The variational identity needs v0 < L(L-2a)/4 on [0, a]; automatic for
    the nonpositive wells this package admits.
    """
    a, L = profile.well.a, profile.L
    return _variational(profile, float(profile.d(L - a) + profile.d(a)), -1.0)


def action_Shat(profile):
    """Shat = S(0) = min_{[0,a]} g_eps(., 0), as minimize_1d's Minimum1D:
    its argmin is r0, which must be interior."""
    a, tol = profile.well.a, TOL_SHAT
    res = minimize_1d(lambda r: profile.g_eps(r, 0.0), 0.0, a, tol=tol)
    if not (tol < res.argmin < a - tol):
        raise NumericalError(
            f"hat-action minimizer r0={res.argmin} not interior to (0, {a})",
            estimate=res.argmin, error_bound=(tol, a - tol))
    return res


def action_S_eps(profile, eps):
    """S(eps) = min_r g(r, eps) for 0 < eps <= 1, as minimize_1d's
    Minimum1D: its argmin is the minimizer r_eps."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("need 0 < eps <= 1")
    return minimize_1d(lambda r: profile.g_eps(r, eps), 0.0, profile.well.a,
                       tol=TOL_SHAT)


def remainder_Ra(profile):
    """Ra = S0 - Sa, cross-checked by its own defining integral."""
    well, L = profile.well, profile.L
    a, depth = well.a, well.depth
    value = float(profile.d(L) - profile.d(L - a) - profile.d(a))

    def ra_integrand(rho):
        return np.sqrt((L - rho) ** 2 / 4.0 + depth) - \
            profile.integrand(rho)

    direct = integrate(ra_integrand, 0.0, a)
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
