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
makes the integrand positive.  The first route sums the oscillatory
integrand f, whose cancellation ratio kappa = sum|f| / |sum f| grows like
e^{c/h}; it returns only while kappa eps stays within DIRECT_RTOL, and
raises AccuracyError below that h.  That gate caps kappa eps and is not
a rounding bound: angular rules of nearby sizes spread by up to 28 kappa
eps, so a value at the gate can carry about 1e-8, while the route gaps
that verify checks at h 0.5 and 0.3 measure at most 6.4e-10 up to L 8.5
and 5.2e-9 at L 12.  The third route replaces u_h by its WKB profile,
giving the explicit envelopes w^{0,+/-} and the remainders M_h^+/-.
All exponential quantities are assembled in log space.  Every route
reads h, the well, L, u_h, the outer representation and the WKB tables
from one pipeline.Case, which builds each of them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import AccuracyError, _gauss_nodes, logsumexp

__all__ = [
    "hopping_direct",
    "hopping_bessel",
    "hopping_wkb_envelope",
    "hopping_slope_check",
    "epsilon_lower_bound",
    "EnvelopeResult",
    "SlopeReport",
]


# Gauss-Legendre r-nodes on [0, a], one rule for both routes, the WKB
# envelopes and the eps-family bound.  Against 3x the nodes (depth 0.5-4,
# L 3.5-12, h 0.045-0.6), 64 move w_bessel by at most 7.6e-14 and the eps
# bound by 2.2e-12 relative, and the envelope logs by 5.8e-10 up to L 8.5
# and 2.2e-9 at L 12: their integrand sharpens like L a / 2h
N_ROUTE = 64
DIRECT_RTOL = 1e-9   # caps kappa eps; not a rounding bound (module doc)


def _radial_rule(well):
    """Nodes r of the N_ROUTE rule on [0, a] and weights w r v0(r) < 0."""
    r, w = _gauss_nodes(0.0, well.a, N_ROUTE)
    return r, w * r * well.v0(r)


def hopping_direct(case):
    """Quadrature of the oscillatory form; returns the complex value.

    The angular integral is one trapezoid rule on n equispaced nodes, n
    well above the integrand's bandwidth, where the rule on a periodic
    analytic integrand has converged geometrically (Trefethen & Weideman,
    SIAM Review 56, 2014).  With beta = L a / 2h the integrand behaves like
    e^{-beta e^{-it}}, whose Fourier coefficients beta^k / k! fall below
    eps e^beta near k = e beta; measured, the rule reaches its rounding
    floor at 2.6-2.9 beta nodes (beta 27-50).  n is about 6.4 beta, at
    least 256.  What is left is rounding, of order kappa eps relative (up
    to 28 kappa eps between rules of nearby sizes), with the cancellation
    ratio kappa = sum|f| / |sum f| of the whole integrand f taken from the
    same pass.  When kappa eps reaches DIRECT_RTOL, as it does when the sum
    underflows to w = 0, an AccuracyError names kappa and carries the value
    and the bound kappa eps |w| = eps sum|f| (sum|f| itself if w = 0).

    rho depends on cos(t) alone, so u is evaluated, in one pass over all
    r-nodes, only on the nodes t_j = 2 pi j / n in [0, pi], and node j
    takes the value at its mirror image min(j, n - j) there.  The phase is
    taken at every node.
    """
    well, L, h, log_u = case.config.well, case.config.L, case.h, \
        case.ground.log_u
    r_nodes, rv = _radial_rule(well)
    radial = rv * np.exp(log_u(r_nodes))
    n = 4 * max(64, 10 * math.ceil(L * well.a / (4.0 * math.pi * h)))
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    mirror = np.minimum(np.arange(n), n - np.arange(n))
    rows = r_nodes[:, None]
    u = np.exp(log_u(np.sqrt(rows * rows + L * L
                             + 2.0 * L * rows * np.cos(theta[:n // 2 + 1]))))
    f = np.exp(1j * (L * rows / (2.0 * h)) * np.sin(theta)) * u[:, mirror]
    w = radial @ f.sum(axis=1) * (2.0 * np.pi / n)
    mag = u @ np.bincount(mirror)   # sum of |f| per r-node
    total = float(np.abs(radial) @ mag) * (2.0 * np.pi / n)   # sum |f|
    eps = np.finfo(float).eps
    # kappa eps >= DIRECT_RTOL without dividing by |w|: the sum can
    # underflow to w = 0, which is then off by up to sum|f| itself
    if total >= DIRECT_RTOL / eps * abs(w):
        kappa, bound = ((total / abs(complex(w)), total * eps) if w
                        else (math.inf, total))
        raise AccuracyError(
            f"angular quadrature not converged: cancellation ratio "
            f"kappa {kappa:.3g}", estimate=w, error_bound=bound)
    return w


def hopping_bessel(case):
    """Oscillation-free route through the Bessel kernel; real by construction.

    The sum is linear, so a |w| below the smallest normal double (about
    e^-708) would lose its digits or read 0; an AccuracyError then carries
    log|w| as its estimate.
    """
    well, L, h, outer = case.config.well, case.config.L, case.h, case.outer
    r_nodes, rv = _radial_rule(well)
    rho2 = r_nodes * r_nodes + L * L
    log_mag = (outer.log_C_h - rho2 / (4.0 * h)
               + outer.log_t_integral(rho2, L * r_nodes)
               + case.ground.log_u(r_nodes))
    total = np.sum(rv * np.exp(log_mag))
    if abs(total) < np.finfo(float).tiny:
        log_w = math.log(2.0 * np.pi) + float(logsumexp(log_mag, b=-rv))
        raise AccuracyError(f"Bessel-route sum underflows: log|w| "
                            f"{log_w:.6g} is below the smallest normal "
                            f"double", estimate=log_w)
    return 2.0 * np.pi * float(total)


@dataclass
class EnvelopeResult:
    log_w0_plus: float
    log_w0_minus: float
    log_Mh_plus: float
    log_Mh_minus: float


def hopping_wkb_envelope(case):
    """WKB envelopes w^{0,+/-} and remainders M_h^{+/-}, in log scale, at
    case.h from the pipeline's Agmon profile and amplitude.

    w^{0,+-} = h^-1 int_0^a |v0| a0(L -+ r) a0(r) e^{-(d(r)+d(L -+ r))/h} r dr
    M_h^{+-} =      int_0^a |v0|              e^{-(d(r)+d(L -+ r))/h} r dr
    """
    well, L, h = case.config.well, case.config.L, case.h
    profile, amplitude = case.pipeline.profile, case.pipeline.amplitude
    r_nodes, rv = _radial_rule(well)
    rw = -rv   # w r |v0|
    w0, Mh = [], []
    for far in (L - r_nodes, L + r_nodes):   # the plus, then the minus term
        log_exp = -(profile.d(r_nodes) + profile.d(far)) / h
        w0.append(-math.log(h) + float(logsumexp(
            log_exp + amplitude.log_a0(far) + amplitude.log_a0(r_nodes),
            b=rw)))
        Mh.append(float(logsumexp(log_exp, b=rw)))
    return EnvelopeResult(*w0, *Mh)


def epsilon_lower_bound(case, eps):
    """RHS of the eps-family lower bound at case.h, for 0 < eps <= 1:
    int_0^a e^{-(1-eps) L r / 2h} |v0| u_h(sqrt((L-r)^2+2 eps L r)) u_h(r) r dr.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("need 0 < eps <= 1")
    well, L, h, log_u = case.config.well, case.config.L, case.h, \
        case.ground.log_u
    r_nodes, rv = _radial_rule(well)
    shifted = np.sqrt((L - r_nodes) ** 2 + 2.0 * eps * L * r_nodes)
    log_terms = (-(1.0 - eps) * L * r_nodes / (2.0 * h)
                 + log_u(shifted) + log_u(r_nodes))
    return float(np.sum(-rv * np.exp(log_terms)))


@dataclass
class SlopeReport:
    h_ln_w: list
    delta: float
    contained: bool
    refined_contained: bool
    monotone_toward_S: bool
    message: str


def hopping_slope_check(cases):
    """h ln|w| containment in [-S0 - d, -Sa + d] with d = 0.15 Shat, plus the
    refined lower containment >= -Shat - d for strictly negative wells, and
    the monotone trend of h ln|w| toward -S as h decreases.  Reads the
    Bessel route from >= 5 cases of one pipeline, and the actions from it.
    h_ln_w lists h ln|w| in descending h."""
    cases = sorted(cases, key=lambda c: c.h, reverse=True)
    if len(cases) < 5:
        raise ValueError("insufficient points: need >= 5 h-values")
    action = cases[0].pipeline.action
    S0, Sa, shat = action.S0, action.Sa, action.Shat
    delta = 0.15 * shat
    logs = [c.h * math.log(abs(c.w_bessel)) for c in cases]
    contained = all(-S0 - delta <= v <= -Sa + delta for v in logs)
    refined = all(v >= -shat - delta for v in logs)
    gaps = [abs(v + action.S) for v in logs]
    monotone = gaps[-1] < gaps[0]
    msg = "ok" if (contained and refined) else (
        f"containment violated: h ln|w|={logs}, "
        f"corridor=[{-S0-delta:.4f},{-Sa+delta:.4f}], floor={-shat-delta:.4f}")
    return SlopeReport(logs, delta, contained, refined, monotone, msg)
