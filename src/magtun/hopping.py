"""The hopping coefficient between the two wells, by three independent routes.

In polar coordinates around the left well,

    w = int_0^a r v0(r) u_h(r) [ int_0^{2pi}
            u_h(sqrt(r^2 + L^2 + 2 L r cos t)) e^{i L r sin t / 2h} dt ] dr.

The angular integral has the closed form

    int_0^{2pi} ... dt = 2 pi C_h e^{-(r^2+L^2)/4h}
        int_0^inf e^{-(r^2+L^2)t/2h} t^{a-1}(1+t)^{-a}
                  I0(L r sqrt(t(t+1))/h) dt,

via int_0^{2pi} e^{-A cos t + i B sin t} dt = 2 pi I0(sqrt(A^2 - B^2)) and
the outer representation of u_h, which removes the oscillatory phase and
makes the integrand positive.  The third route replaces u_h by its WKB
profile, giving the explicit envelopes w^{0,+/-} and the remainders M_h^+/-.
All exponential quantities are assembled in log space.  pipeline.Case
builds u_h and the outer representation once per h for both routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .numerics import AccuracyError, gauss_legendre
from .wkb import log_outer_integrand, log_t_integrals

__all__ = [
    "hopping_direct",
    "hopping_bessel",
    "hopping_wkb_envelope",
    "hopping_slope_check",
    "epsilon_lower_bound",
    "HoppingEstimate",
    "EnvelopeResult",
    "SlopeReport",
]


def _gauss_nodes(a, n):
    x, w = gauss_legendre(n)
    return 0.5 * a * (x + 1.0), 0.5 * a * w


def hopping_direct(config, h, solution, n_gauss=200, rtol=1e-9):
    """Nested quadrature of the oscillatory form; returns the complex value.

    The angular trapezoid rule (spectrally accurate for periodic integrands)
    is refined until doubling the node count moves the result by less than
    rtol; under-resolved oscillation raises AccuracyError.
    """
    well, L = config.well, config.L
    a = well.a
    r_nodes, r_weights = _gauss_nodes(a, n_gauss)

    def assemble(mult):
        n_theta = int(max(256, 40 * math.ceil(L * a / (4.0 * math.pi * h)))
                      * mult)
        theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        total = 0.0 + 0.0j
        for ri, wi in zip(r_nodes, r_weights):
            rho = np.sqrt(ri * ri + L * L + 2.0 * L * ri * cos_t)
            inner = np.sum(np.exp(solution.log_u(rho)
                                  + 1j * (L * ri / (2.0 * h)) * sin_t))
            inner *= 2.0 * np.pi / n_theta
            total += wi * ri * float(well.v0(np.array([ri]))[0]) \
                * math.exp(float(solution.log_u(ri))) * inner
        return total

    w1 = assemble(4)
    w2 = assemble(8)
    if abs(w2 - w1) > rtol * abs(w2):
        w3 = assemble(16)
        if abs(w3 - w2) > rtol * abs(w3):
            raise AccuracyError(
                "angular quadrature not converged", estimate=w3,
                error_bound=abs(w3 - w2))
        return w3
    return w2


def hopping_bessel(config, h, outer, solution, n_gauss=200):
    """Oscillation-free route through the Bessel kernel; real by construction."""
    well, L = config.well, config.L
    a = well.a
    alpha = outer.alpha
    r_nodes, r_weights = _gauss_nodes(a, n_gauss)
    rho2 = r_nodes * r_nodes + L * L
    log_t_int = log_t_integrals(
        lambda r: log_outer_integrand(h, alpha, r * r + L * L, L * r),
        r_nodes, -700.0 / max(alpha, 0.25))
    log_mag = (outer.log_C_h - rho2 / (4.0 * h) + log_t_int
               + solution.log_u(r_nodes))
    total = np.sum(r_weights * r_nodes * well.v0(r_nodes) * np.exp(log_mag))
    return 2.0 * np.pi * float(total)


@dataclass
class EnvelopeResult:
    log_w0_plus: float
    log_w0_minus: float
    log_Mh_plus: float
    log_Mh_minus: float
    h: float


def hopping_wkb_envelope(config, h, profile, amplitude, n_gauss=400):
    """WKB envelopes w^{0,+/-} and remainders M_h^{+/-}, in log scale.

    w^{0,+-} = h^-1 int_0^a |v0| a0(L -+ r) a0(r) e^{-(d(r)+d(L -+ r))/h} r dr
    M_h^{+-} =      int_0^a |v0|              e^{-(d(r)+d(L -+ r))/h} r dr
    """
    well, L = config.well, config.L
    a = well.a
    r_nodes, r_weights = _gauss_nodes(a, n_gauss)
    rw = r_nodes * r_weights * np.abs(well.v0(r_nodes))
    out = {}
    for sign, tag in ((-1.0, "plus"), (+1.0, "minus")):
        far = L + sign * r_nodes if sign > 0 else L - r_nodes
        log_exp = -(profile.d(r_nodes) + profile.d(far)) / h
        out["w0_" + tag] = -math.log(h) + float(logsumexp(
            log_exp + amplitude.log_a0(far) + amplitude.log_a0(r_nodes),
            b=rw))
        out["Mh_" + tag] = float(logsumexp(log_exp, b=rw))
    return EnvelopeResult(out["w0_plus"], out["w0_minus"],
                          out["Mh_plus"], out["Mh_minus"], h)


def epsilon_lower_bound(config, h, eps, solution, n_gauss=400):
    """RHS of the eps-family lower bound:
    int_0^a e^{-(1-eps) L r / 2h} |v0| u_h(sqrt((L-r)^2+2 eps L r)) u_h(r) r dr.
    """
    well, L = config.well, config.L
    r_nodes, r_weights = _gauss_nodes(well.a, n_gauss)
    shifted = np.sqrt((L - r_nodes) ** 2 + 2.0 * eps * L * r_nodes)
    log_terms = (-(1.0 - eps) * L * r_nodes / (2.0 * h)
                 + solution.log_u(shifted) + solution.log_u(r_nodes))
    vals = r_weights * r_nodes * np.abs(well.v0(r_nodes)) * np.exp(log_terms)
    return float(np.sum(vals))


@dataclass
class HoppingEstimate:
    h: float
    w_direct: complex
    w_bessel: float
    log_w: float                       # h ln |w|
    wkb_upper: float = float("nan")    # log-scale corridor values
    wkb_lower: float = float("nan")

    @property
    def imag_fraction(self):
        return abs(self.w_direct.imag) / max(abs(self.w_direct), 1e-320)

    @property
    def route_agreement(self):
        return abs(self.w_direct.real - self.w_bessel) / abs(self.w_bessel)


@dataclass
class SlopeReport:
    estimates: list
    S0: float
    Sa: float
    Shat: float
    delta: float
    contained: bool
    refined_contained: bool
    monotone_toward_S: bool
    message: str = ""


def hopping_slope_check(cases):
    """h ln|w| containment in [-S0 - d, -Sa + d] with d = 0.15 Shat, plus the
    refined lower containment >= -Shat - d for strictly negative wells, and
    the monotone trend of h ln|w| toward -S as h decreases.  Reads both
    routes from >= 5 cases of one pipeline, and the actions from it."""
    cases = sorted(cases, key=lambda c: c.h, reverse=True)
    if len(cases) < 5:
        raise ValueError("insufficient points: need >= 5 h-values")
    action = cases[0].pipeline.action
    S0, Sa, shat = action.S0, action.Sa, action.Shat
    delta = 0.15 * shat
    estimates = [HoppingEstimate(h=c.h, w_direct=c.w_direct,
                                 w_bessel=c.w_bessel,
                                 log_w=c.h * math.log(abs(c.w_bessel)))
                 for c in cases]
    logs = [e.log_w for e in estimates]
    contained = all(-S0 - delta <= v <= -Sa + delta for v in logs)
    refined = all(v >= -shat - delta for v in logs)
    gaps = [abs(v + action.S) for v in logs]
    monotone = gaps[-1] < gaps[0]
    msg = "ok" if (contained and refined) else (
        f"containment violated: h ln|w|={logs}, "
        f"corridor=[{-S0-delta:.4f},{-Sa+delta:.4f}], floor={-shat-delta:.4f}")
    return SlopeReport(estimates, S0, Sa, shat, delta, contained, refined,
                       monotone, msg)
