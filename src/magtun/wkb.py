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
of the hopping coefficient and the W chain built on it, are each one
batched call of numerics.log_integral_exp, one row per radial node.
OuterRepresentation.log_t_integral, which takes arrays of any size, makes
that call T_BLOCK rows at a time.  calibrate_outer and wkb_profile_error
read every input from one pipeline.Case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (NumericalError, _cumulative_simpson, _spline,
                       log_bessel_i0, log_integral_exp)
from .potential import WellValidationError

__all__ = [
    "log_outer_integrand",
    "WkbAmplitude",
    "wkb_profile_error",
    "wkb_error_exponent",
    "OuterRepresentation",
    "OuterRepresentationError",
    "calibrate_outer",
    "matching_constants",
    "c_h_asymptotic",
]


T_BLOCK = 16  # rows per block of a caller-sized batch
Y_HI = 15.0   # upper limit of every t-integral, in y = log t
N_AMPLITUDE = 8001   # WkbAmplitude's table nodes on [0, r_max]
# calibrate_outer raises past this relative mismatch: 8x the worst measured
# at depth 0.5-4, L 3.6-5 and h 0.045-0.15 (1.2e-5 at depth 4, L 5, h 0.045)
OUTER_RTOL = 1e-4


def log_outer_integrand(h, alpha, rho2, c=None):
    """The log t-integrand of the outer representation, in y = log t:

        g(y) = alpha y - alpha log(1 + t) - rho2 t / 2h
               [+ log I0(c sqrt(t (t + 1)) / h)],

    the Bessel term being the angular average that the hopping integral
    adds (c = L r).  rho2 and c are (rows, 1) columns, one row per radial
    node, which makes g a batched integrand for log_integral_exp.
    """
    def g(y):
        t = np.exp(y)
        val = alpha * y - alpha * np.log1p(t) - rho2 * t / (2.0 * h)
        if c is not None:
            val = val + log_bessel_i0(c * np.sqrt(t * (t + 1.0)) / h)
        return val
    return g


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
        if not (math.isfinite(self.E1) and math.isfinite(well._c4)):
            raise WellValidationError(
                f"need finite v0''(0) = 2 depth / a^2 and depth / (2 a^4) "
                f"(got depth={well.depth}, a={well.a})")
        self.a0_0 = (1.0 + 2.0 * well.v0_second_deriv_at_0) ** 0.25 \
            / math.sqrt(2.0 * math.pi)
        self._c2 = 0.25 + well.v0_second_deriv_at_0 / 2.0
        self._rho_cut = 1e-2 * well.a
        rs = np.linspace(0.0, self.r_max, N_AMPLITUDE)
        self._log_shape = _spline(rs, -_cumulative_simpson(self.f(rs), rs))

    def f(self, rho):
        """Transport-equation integrand; the rho -> 0 singularity is removable."""
        rho = np.asarray(rho, dtype=float)
        out = np.empty_like(rho)
        small = rho < self._rho_cut
        out[small] = (self.well._c4 / self._c2) * rho[small]
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


def wkb_profile_error(case):
    """max over the support [0, a] of |e^{d/h} u_h - h^{-1/2} a0| at case.h."""
    h, solution = case.h, case.ground
    mask = solution.grid <= case.config.well.a
    r = solution.grid[mask]
    scaled = np.exp(case.pipeline.profile.d(r) / h
                    + solution.log_profile[mask])
    target = np.exp(case.pipeline.amplitude.log_a0(r)) / math.sqrt(h)
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
        """log_t_integral's quadrature starts here; t = e^y underflows below."""
        return -700.0 / max(self.alpha, 0.25)

    def log_t_integral(self, rho2, c=None):
        """log int_{-inf}^{Y_HI} e^g dy, g = log_outer_integrand(h, alpha,
        rho2[i], c[i]), for each i.  Below y_lo, g = alpha y exactly in
        floating point: that tail, e^{alpha y_lo} / alpha, is added in
        closed form (1.7e-6 of the integral at alpha 0.0047).  The rows
        go T_BLOCK at a time, which bounds the work arrays whatever the
        length of rho2."""
        h, alpha, lo = self.h, self.alpha, self.y_lo
        lv = np.empty(len(rho2))
        for s in range(0, len(rho2), T_BLOCK):
            block = slice(s, s + T_BLOCK)
            lv[block] = log_integral_exp(log_outer_integrand(
                h, alpha, rho2[block, None],
                None if c is None else c[block, None]), lo, Y_HI)
        return np.logaddexp(lv, alpha * lo - math.log(alpha))

    def log_u(self, rho):
        rho = np.asarray(rho, dtype=float)
        lv = self.log_t_integral(np.ravel(rho * rho)).reshape(rho.shape)
        out = self.log_C_h + (-rho * rho / (4.0 * self.h) + lv)
        return float(out) if out.ndim == 0 else out


def calibrate_outer(case):
    """Fit C_h at rho = a, then verify the representation on [a, L + 1].

    The single-point fit mirrors the matching argument; the remaining
    points are genuine tests.  Mismatch beyond OUTER_RTOL anywhere raises,
    since the representation is exact in the free region and failure
    indicates an eigensolver or quadrature fault.
    """
    a, h, solution = case.config.well.a, case.h, case.ground
    alpha = 0.5 - solution.e_sw / (2.0 * h)
    rhos = np.linspace(a, case.config.L + 1.0, 9)   # rhos[0] is a exactly
    # one pass gives both the fit at rhos[0] and the check
    log_shape = OuterRepresentation(h=h, alpha=alpha, log_C_h=0.0).log_u(rhos)
    log_u = solution.log_u(rhos)
    rep = OuterRepresentation(h=h, alpha=alpha,
                              log_C_h=float(log_u[0] - log_shape[0]))
    rels = np.abs(np.exp(rep.log_C_h + log_shape - log_u) - 1.0)
    for rho, rel in zip(rhos, rels):
        if rel > OUTER_RTOL:
            raise OuterRepresentationError(
                f"outer representation off by {rel:.2e} at rho={rho:.3f} "
                f"(h={h}); eigensolution suspect", estimate=rel,
                error_bound=OUTER_RTOL)
    return rep


def matching_constants(pipeline):
    """Constants of the outer matching, from the pipeline's tables: a dict
    of t_star, F, m_display and m_matched.

    t_star and eta are the saddle data of the Laplace evaluation of the
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
    amplitude, d_a = pipeline.amplitude, pipeline.profile.d_a
    a, depth = pipeline.config.well.a, pipeline.config.well.depth
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
    return {"t_star": t_star, "F": F, "m_display": m_display,
            "m_matched": float(amplitude.a0(a)) / K}


def c_h_asymptotic(h, constants):
    """log C_h_asy = log m + F/h - log h with the matched prefactor m, in
    log form to avoid overflow."""
    return math.log(constants["m_matched"]) - math.log(h) + constants["F"] / h
