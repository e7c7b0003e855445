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
All exponential quantities are assembled in log space.  The first two
routes, and the eps bound, read h from the solution that carries u_h;
pipeline.Case builds it and the outer representation once per h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .numerics import AccuracyError, gauss_legendre
from .wkb import T_BLOCK, log_outer_integrand, log_t_integrals

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


# Gauss-Legendre r-nodes on [0, a]: one rule for the two routes that are
# compared with each other, a finer one for the WKB envelopes
N_ROUTE = 200
N_ENVELOPE = 400
DIRECT_RTOL = 1e-9   # angular refinement target of hopping_direct


def _gauss_nodes(a, n):
    x, w = gauss_legendre(n)
    return 0.5 * a * (x + 1.0), 0.5 * a * w


def _circle_sums(solution, L, h, r_nodes, theta, take):
    """Sums over the circle nodes theta of f = u(rho) e^{i L r sin t / 2h}
    per r-node, T_BLOCK r-nodes at a time: of f on the even-numbered and on
    the odd-numbered nodes, and of |f| on all of them.

    rho depends on cos(theta) alone, so u is evaluated only on the nodes
    theta[:take.max() + 1], which lie in [0, pi], and node j takes the
    value at node take[j], its mirror image there.  The phase is taken at
    every node.
    """
    half = np.cos(theta[:take.max() + 1])
    copies = np.bincount(take)
    sin_t = np.sin(theta)
    even = np.empty(len(r_nodes), complex)
    odd = np.empty(len(r_nodes), complex)
    mag = np.empty(len(r_nodes))
    for s in range(0, len(r_nodes), T_BLOCK):
        rows = r_nodes[s:s + T_BLOCK, None]
        rho = np.sqrt(rows * rows + L * L + 2.0 * L * rows * half)
        u = np.exp(solution.log_u(rho))
        f = np.exp(1j * (L * rows / (2.0 * h)) * sin_t) * u[:, take]
        even[s:s + T_BLOCK] = f[:, ::2].sum(axis=1)
        odd[s:s + T_BLOCK] = f[:, 1::2].sum(axis=1)
        mag[s:s + T_BLOCK] = u @ copies
    return even, odd, mag


def hopping_direct(config, solution):
    """Nested quadrature of the oscillatory form; returns the complex value.

    The angular integral is a trapezoid rule on n equispaced nodes
    (spectrally accurate for periodic integrands) at nested levels: x4 is
    the even half of the x8 nodes, and x16 adds only its new odd nodes.
    One pass over the r-nodes evaluates the x8 nodes; log u is taken on
    theta in [0, pi] and mirrored, as rho depends on cos(theta) alone,
    while the phase is taken at every node of the full circle.  When x4
    and x8 differ by more than DIRECT_RTOL the x16 level is added, and when
    that still moves the result by more than DIRECT_RTOL an AccuracyError
    names the cancellation ratio kappa = sum|f| / |sum f| of the whole
    integrand f on the x16 nodes.
    """
    well, L, h = config.well, config.L, solution.h
    a = well.a
    r_nodes, r_weights = _gauss_nodes(a, N_ROUTE)
    radial = r_weights * r_nodes * well.v0(r_nodes) \
        * np.exp(solution.log_u(r_nodes))
    n4 = 4 * max(256, 40 * math.ceil(L * a / (4.0 * math.pi * h)))
    n8, n16 = 2 * n4, 4 * n4
    j = np.arange(n8)
    even, odd, mag = _circle_sums(
        solution, L, h, r_nodes,
        np.linspace(0.0, 2.0 * np.pi, n8, endpoint=False),
        np.minimum(j, n8 - j))
    w4 = radial @ even * (2.0 * np.pi / n4)
    w8 = radial @ (even + odd) * (2.0 * np.pi / n8)
    if abs(w8 - w4) <= DIRECT_RTOL * abs(w8):
        return w8
    new_even, new_odd, new_mag = _circle_sums(
        solution, L, h, r_nodes,
        np.linspace(0.0, 2.0 * np.pi, n16, endpoint=False)[1::2],
        np.minimum(j, n8 - 1 - j))
    w16 = radial @ (even + odd + new_even + new_odd) * (2.0 * np.pi / n16)
    if abs(w16 - w8) > DIRECT_RTOL * abs(w16):
        kappa = np.abs(radial) @ (mag + new_mag) * (2.0 * np.pi / n16) \
            / abs(w16)
        raise AccuracyError(
            f"angular quadrature not converged: cancellation ratio "
            f"kappa {kappa:.3g}", estimate=w16, error_bound=abs(w16 - w8))
    return w16


def hopping_bessel(config, outer, solution):
    """Oscillation-free route through the Bessel kernel; real by construction."""
    well, L, h = config.well, config.L, solution.h
    a = well.a
    alpha = outer.alpha
    r_nodes, r_weights = _gauss_nodes(a, N_ROUTE)
    rho2 = r_nodes * r_nodes + L * L
    log_t_int = log_t_integrals(
        lambda r: log_outer_integrand(h, alpha, r * r + L * L, L * r),
        r_nodes, outer.y_lo)
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


def hopping_wkb_envelope(profile, amplitude, h):
    """WKB envelopes w^{0,+/-} and remainders M_h^{+/-}, in log scale, for
    the well and L of the profile.

    w^{0,+-} = h^-1 int_0^a |v0| a0(L -+ r) a0(r) e^{-(d(r)+d(L -+ r))/h} r dr
    M_h^{+-} =      int_0^a |v0|              e^{-(d(r)+d(L -+ r))/h} r dr
    """
    well, L = profile.well, profile.L
    a = well.a
    r_nodes, r_weights = _gauss_nodes(a, N_ENVELOPE)
    rw = r_nodes * r_weights * np.abs(well.v0(r_nodes))
    out = {}
    for sign, tag in ((-1.0, "plus"), (+1.0, "minus")):
        far = L + sign * r_nodes
        log_exp = -(profile.d(r_nodes) + profile.d(far)) / h
        out["w0_" + tag] = -math.log(h) + float(logsumexp(
            log_exp + amplitude.log_a0(far) + amplitude.log_a0(r_nodes),
            b=rw))
        out["Mh_" + tag] = float(logsumexp(log_exp, b=rw))
    return EnvelopeResult(out["w0_plus"], out["w0_minus"],
                          out["Mh_plus"], out["Mh_minus"])


def epsilon_lower_bound(config, eps, solution):
    """RHS of the eps-family lower bound:
    int_0^a e^{-(1-eps) L r / 2h} |v0| u_h(sqrt((L-r)^2+2 eps L r)) u_h(r) r dr.
    """
    well, L, h = config.well, config.L, solution.h
    r_nodes, r_weights = _gauss_nodes(well.a, N_ENVELOPE)
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

    @property
    def log_w(self):
        """h ln |w|, from the Bessel route."""
        return self.h * math.log(abs(self.w_bessel))

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
    message: str


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
                                 w_bessel=c.w_bessel) for c in cases]
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
