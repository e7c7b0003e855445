"""Leading WKB amplitude and the outer integral representation of u_h.

The ground state behaves like u_h(r) ~ h^{-1/2} a0(r) e^{-d(r)/h}, where the
amplitude solves the transport equation along the Agmon distance:

    a0(r) = a0(0) exp(-int_0^r f),
    f = u'/(4u) + 1/(2 rho) - E1/(2 sqrt(u)),   u = rho^2/4 + v0 - v0_min,
    E1 = sqrt(1 + 2 v0''(0)).

The normalization a0(0) = (1 + 2 v0''(0))^{1/4} / sqrt(2 pi) is the one
consistent with the unit-normalized harmonic (Gaussian) limit of the ground
state; it is confirmed numerically by sqrt(h) e^{d/h} u_h(0) -> a0(0).

Outside the support the radial equation is solvable in closed form and u_h
admits the exact representation

    u_h(rho) = C_h e^{-rho^2/4h} int_0^inf e^{-rho^2 t/2h} t^{a-1}(1+t)^{-a} dt,
    alpha = 1/2 - e_sw(h)/(2h),

valid for rho >= a.  C_h is calibrated by matching at rho = a; every other
point of the outer region is then an independent test.

The t-integrals of this representation, and the Bessel-kernel t-integrals
of the hopping coefficient and the W chain built on it, go through one
row-batched evaluator: log_t_integrals integrates a block of radial nodes
per call of numerics.log_integral_exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from .numerics import NumericalError, log_bessel_i0, log_integral_exp

__all__ = [
    "log_outer_integrand",
    "log_t_integrals",
    "WkbAmplitude",
    "wkb_profile_error",
    "wkb_error_exponent",
    "OuterRepresentation",
    "OuterRepresentationError",
    "calibrate_outer",
    "matching_constants",
    "c_h_asymptotic",
]


T_BLOCK = 16  # radial nodes per batched t-integral: (16, 4001) work arrays
Y_HI = 15.0   # upper limit of every t-integral, in y = log t
N_AMPLITUDE = 8001   # WkbAmplitude's table nodes on [0, r_max]
OUTER_RTOL = 1e-2    # calibrate_outer raises past this relative mismatch


def log_outer_integrand(h, alpha, rho2, c=None):
    """The log t-integrand of the outer representation, in y = log t:

        g(y) = alpha y - alpha log(1 + t) - rho2 t / 2h
               [+ log I0(c sqrt(t (t + 1)) / h)],

    the Bessel term being the angular average that the hopping integral
    adds (c = L r).  rho2 and c may be (rows, 1) columns, one row per
    radial node, which makes g a batched integrand for log_integral_exp.
    """
    def g(y):
        t = np.exp(y)
        val = alpha * y - alpha * np.log1p(t) - rho2 * t / (2.0 * h)
        if c is not None:
            val = val + log_bessel_i0(c * np.sqrt(t * (t + 1.0)) / h)
        return val
    return g


def log_t_integrals(make_g, rows, lo):
    """log int_lo^Y_HI exp(g_r(y)) dy for every entry r of rows.

    make_g maps a (k, 1) column of rows to their batched log-integrand.
    Rows go T_BLOCK at a time, so the work arrays stay (T_BLOCK, 4001)
    whatever the number of rows.
    """
    rows = np.asarray(rows, dtype=float)
    out = np.empty(len(rows))
    for s in range(0, len(rows), T_BLOCK):
        col = rows[s:s + T_BLOCK, None]
        out[s:s + T_BLOCK] = log_integral_exp(make_g(col), lo, Y_HI)
    return out


class OuterRepresentationError(NumericalError):
    """Calibrated outer representation disagrees with the eigensolution."""


class WkbAmplitude:
    """a0 on [0, r_max], via the transport equation.

    Near the origin the three poles of f cancel; the quadrature uses the
    series value f(rho) = (c4/c2) rho + O(rho^3) below rho_cut = 1e-2 a,
    where c2, c4 are the Taylor coefficients of rho^2/4 + v0 - v0_min.
    """

    def __init__(self, well, r_max):
        self.well = well
        self.r_max = float(r_max)
        self.E1 = math.sqrt(1.0 + 2.0 * well.v0_second_deriv_at_0)
        self.a0_0 = (1.0 + 2.0 * well.v0_second_deriv_at_0) ** 0.25 \
            / math.sqrt(2.0 * math.pi)
        self._c2 = 0.25 + well.v0_second_deriv_at_0 / 2.0
        self._c4 = getattr(well, "_c4", 0.0)
        self._rho_cut = 1e-2 * well.a
        rs = np.linspace(0.0, self.r_max, N_AMPLITUDE)
        F = cumulative_simpson(self.f(rs), x=rs, initial=0.0)
        self._log_shape = CubicSpline(rs, -F)

    def f(self, rho):
        """Transport-equation integrand; the rho -> 0 singularity is removable."""
        rho = np.asarray(rho, dtype=float)
        out = np.empty_like(rho)
        small = rho < self._rho_cut
        out[small] = (self._c4 / self._c2) * rho[small]
        rs = rho[~small]
        u = rs * rs / 4.0 + self.well.v0(rs) + self.well.depth
        up = rs / 2.0 + self.well.v0_prime(rs)
        out[~small] = up / (4.0 * u) + 1.0 / (2.0 * rs) \
            - self.E1 / (2.0 * np.sqrt(u))
        return out

    def log_a0(self, r):
        return math.log(self.a0_0) + self._log_shape(r)

    def a0(self, r):
        return np.exp(self.log_a0(r))


def wkb_profile_error(solution, amplitude, profile):
    """max over the profile's support [0, a] of |e^{d/h} u_h - h^{-1/2} a0|."""
    h = solution.h
    mask = solution.grid <= profile.well.a
    r = solution.grid[mask]
    scaled = np.exp(profile.d(r) / h + np.log(np.maximum(solution.u[mask],
                                                         1e-320)))
    target = np.exp(amplitude.log_a0(r)) / math.sqrt(h)
    return float(np.max(np.abs(scaled - target)))


def wkb_error_exponent(h_list, errors):
    """q of the fit profile error ~ C h^q over an h-sweep."""
    return float(np.polyfit(np.log(h_list), np.log(errors), 1)[0])


@dataclass
class OuterRepresentation:
    """Exact outer-region form of u_h, parameterized by (alpha, C_h)."""

    h: float
    alpha: float
    log_C_h: float

    @property
    def y_lo(self):
        """Lower limit in y = log t of every t-integral on this
        representation: t^alpha underflows below it."""
        return -700.0 / max(self.alpha, 0.25)

    def log_kernel(self, rho):
        """log of the representation integral (without C_h); rho may be an
        array."""
        h, alpha = self.h, self.alpha
        rho = np.asarray(rho, dtype=float)
        lv = log_t_integrals(lambda r: log_outer_integrand(h, alpha, r * r),
                             rho.ravel(), self.y_lo)
        out = -rho * rho / (4.0 * h) + lv.reshape(rho.shape)
        return float(out) if out.ndim == 0 else out

    def log_u(self, rho):
        return self.log_C_h + self.log_kernel(rho)


def calibrate_outer(well, solution, check_upto):
    """Fit C_h at rho = a, then verify the representation on [a, check_upto].

    h is that of the solution.  The single-point fit mirrors the matching
    argument; the remaining points are genuine tests.  Mismatch beyond
    OUTER_RTOL anywhere raises, since the representation is exact in the
    free region and failure indicates an eigensolver or quadrature fault.
    """
    a, h = well.a, solution.h
    alpha = 0.5 - solution.e_sw / (2.0 * h)
    rep = OuterRepresentation(h=h, alpha=alpha, log_C_h=0.0)
    rep.log_C_h = float(solution.log_u(a)) - rep.log_kernel(a)
    rhos = np.linspace(a, check_upto, 9)
    rels = np.abs(np.exp(rep.log_u(rhos) - solution.log_u(rhos)) - 1.0)
    for rho, rel in zip(rhos, rels):
        if rel > OUTER_RTOL:
            raise OuterRepresentationError(
                f"outer representation off by {rel:.2e} at rho={rho:.3f} "
                f"(h={h}); eigensolution suspect", estimate=rel,
                error_bound=OUTER_RTOL)
    return rep


def matching_constants(amplitude, d_a):
    """Constants of the outer matching, for the well of the amplitude.

    t_star, eta, F are the saddle data of the Laplace evaluation of the
    representation integral at rho = a; F = eta - d(a) is the exponent of
    C_h ~ m h^{-1} e^{F/h}.  Two prefactors are returned:

    - m_display: a0(0) sqrt(2 a depth / pi) (a^2+4 depth)^{1/4}
                 / (sqrt(a^2+4 depth) + a), the compact closed form;
    - m_matched: a0(a) / K with the full saddle prefactor
                 K = t*^{-1} sqrt(2 pi / phi''(t*)) (1 + 1/t*)^{(E1-1)/2},
      which is the constant that actually makes C_h / C_h_asy -> 1.

    The two differ by an O(1) factor (sqrt(2), the alpha-correction factor
    (1+1/t*)^{(E1-1)/2}, and a0(a) vs a0(0)); measured h ln(C_h/C_h_asy)
    trends confirm m_matched.
    """
    a, depth = amplitude.well.a, amplitude.well.depth
    E1 = amplitude.E1
    t_star = 0.5 * (math.sqrt(1.0 + 4.0 * depth / a**2) - 1.0)
    eta = (1.0 + 2.0 * t_star) * a**2 / 4.0 + \
        depth / 2.0 * math.log(1.0 + 1.0 / t_star)
    F = eta - d_a
    root = math.sqrt(a**2 + 4.0 * depth)
    m_display = amplitude.a0_0 * math.sqrt(2.0 * a * depth / math.pi) * \
        root**0.5 / (root + a)
    phi_pp = (depth / 2.0) * (2.0 * t_star + 1.0) / (t_star * (t_star + 1.0)) ** 2
    K = (1.0 / t_star) * math.sqrt(2.0 * math.pi / phi_pp) * \
        (1.0 + 1.0 / t_star) ** ((E1 - 1.0) / 2.0)
    a0_a = float(amplitude.a0(a))
    return {
        "t_star": t_star,
        "eta": eta,
        "F": F,
        "d_a": d_a,
        "a0_0": amplitude.a0_0,
        "a0_a": a0_a,
        "m_display": m_display,
        "m_matched": a0_a / K,
        "K": K,
    }


def c_h_asymptotic(h, constants):
    """log C_h_asy = log m + F/h - log h with the matched prefactor m, in
    log form to avoid overflow."""
    return math.log(constants["m_matched"]) - math.log(h) + constants["F"] / h
