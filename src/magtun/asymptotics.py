"""Sharp tunneling action via the Laplace phase surface.

The hopping coefficient reduces to a Laplace-type double integral with the
phase Psi(r, t) of the Agmon profile (agmon.AgmonProfile.psi), whose
minimum over [0, a] x (0, inf) sits on the boundary r = a at

    t_a = sqrt(1/4 + s_plus) - 1/2,

with s_plus the larger root of

    (L^2 - a^2)^2 s^2 - (2 (L^2 + a^2) depth + L^2 a^2) s + depth^2 = 0.

The sharp action is S = -F(v0) + Psi(a, t_a); it decomposes as twice the
magnetic Agmon distance d(a) plus an interaction term depending only on
(a, L, depth).  psi_global_min finds the minimum of Psi by search instead,
the independent route to S.  The module also evaluates the four-stage
reduction chain W1..W4 of the hopping integral, on one pipeline.Case, and
the weak-field scaling that recovers the non-magnetic action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agmon import (AgmonProfile, action_S0, action_Sa, action_Shat,
                    free_action_primitive)
from .numerics import (NumericalError, _gauss_nodes, integrate,
                       log_integral_exp, logsumexp, minimize_1d)
from .wkb import Y_HI, c_h_asymptotic, log_outer_integrand, matching_constants

__all__ = [
    "minimizer_closed_form",
    "psi_global_min",
    "sharp_action",
    "ActionReport",
    "ConsistencyError",
    "w_chain",
    "WChainResult",
    "beta_scaling",
    "nonmagnetic_action",
]


class ConsistencyError(NumericalError):
    """Numerically violated inequality that theory guarantees."""


def minimizer_closed_form(well, L):
    """(t_a, s_plus) from the defining quadratic; validates both necessary
    conditions (larger root, (L^2+a^2) s - depth > 0)."""
    a, depth = well.a, well.depth
    if L <= 2.0 * a:
        raise ValueError("need L > 2a")
    A2 = (L * L - a * a) ** 2
    B = 2.0 * depth * (L * L + a * a) + L * L * a * a
    disc = B * B / (4.0 * A2) - depth * depth
    if disc <= 0:
        raise ConsistencyError("minimizer discriminant not positive")
    s_plus = B / (2.0 * A2) + math.sqrt(disc) / (L * L - a * a)
    if (L * L + a * a) * s_plus - depth <= 0:
        raise ConsistencyError("necessary condition (L^2+a^2)s - depth > 0 failed")
    t_a = math.sqrt(0.25 + s_plus) - 0.5
    return t_a, s_plus


# psi_global_min: nodes per axis of its grid, its first t-window, and the
# coordinate-descent refinements after it
PSI_NODES = 400
PSI_T_WINDOW = (1e-3, 30.0)
PSI_REFINEMENTS = 3
# Gauss-Legendre r-nodes of w_chain on [eta, a]: against 3x the nodes, 64
# move log W1..W4 by at most 1.4e-11 (depth 0.5-4, L 3.5-12, h 0.05-0.6)
N_CHAIN = 64


def psi_global_min(profile):
    """(r*, t*, Psi) at the minimum of the profile's Psi: a brute-force grid
    search over [0,a] x log-spaced t, refined by coordinate descent; expands
    the t-window if the optimum hits its edge."""
    a, psi = profile.well.a, profile.psi
    t_lo, t_hi = PSI_T_WINDOW
    for _ in range(6):
        rs = np.linspace(0.0, a, PSI_NODES)
        ts = np.geomspace(t_lo, t_hi, PSI_NODES)
        vals = psi(rs[:, None], ts[None, :])
        k = np.unravel_index(np.argmin(vals), vals.shape)
        if 0 < k[1] < PSI_NODES - 1:
            break
        t_lo, t_hi = t_lo / 10.0, t_hi * 10.0
    else:
        raise NumericalError("Psi minimum escaped every t-window tried",
                             estimate=ts[k[1]], error_bound=(ts[0], ts[-1]))
    r_star, t_star = rs[k[0]], ts[k[1]]
    for _ in range(PSI_REFINEMENTS):
        res_t = minimize_1d(lambda t: psi(r_star, t),
                            t_star / 2.0, t_star * 2.0, tol=1e-12)
        t_star = res_t.argmin
        res_r = minimize_1d(lambda r: psi(r, t_star),
                            max(r_star - 0.1 * a, 0.0),
                            min(r_star + 0.1 * a, a), tol=1e-12)
        r_star = res_r.argmin
    # the surface is nearly flat in r along the ridge; always offer the
    # r = a boundary candidate to the descent result
    res_b = minimize_1d(lambda t: psi(a, t), t_star / 3.0,
                        t_star * 3.0, tol=1e-12)
    if res_b.value <= psi(r_star, t_star):
        r_star, t_star = a, res_b.argmin
    return r_star, t_star, float(psi(r_star, t_star))


@dataclass
class ActionReport:
    S: float
    t_a: float
    s_plus: float
    F: float
    psi_min: float
    D_mag: float
    interaction: float
    S_from_fg: float
    S0: float
    Sa: float
    Shat: float
    r0: float

    def corridor_ok(self):
        return self.Sa <= self.S <= self.Shat < self.S0

    def interaction_matrix_ok(self):
        return self.S < 2.0 * self.Shat


def _f_term(a, L, depth, t_a):
    return ((a * a + L * L) / 4.0 * (2.0 * t_a + 1.0)
            + depth / 2.0 * math.log(1.0 + 1.0 / t_a)
            - L * a * math.sqrt(t_a * (t_a + 1.0)))


def sharp_action(well, L):
    """S(v0, L) at the closed-form minimizer t_a, with the action corridor
    and the variational identities of S0 and Sa.

    S = -F(v0) + Psi(a, t_a) is also summed as S_from_fg = f(a, L, depth)
    - g(a, depth) + 2 d(a), where g carries the same half-log convention as
    F.  The two are one sum regrouped, not independent assemblies: over 40
    random bump wells (depth 0.1-8, a 0.3-2, L/a 2.05-8) they differ by at
    most 5.3e-16 relative, so the 1e-8 gate between them catches only a
    slip in that sum.  S's independent route is psi_global_min, the search
    of verify's psi_minimizer check.
    """
    prof = AgmonProfile(well, L)
    a, depth = well.a, well.depth
    t_a, s_plus = minimizer_closed_form(well, L)
    psi_min = prof.psi(a, t_a)
    g_term = float(free_action_primitive(a, depth))
    F = g_term - prof.d_a
    S = -F + psi_min
    S_fg = _f_term(a, L, depth, t_a) - g_term + 2.0 * prof.d_a
    if abs(S - S_fg) > 1e-8 * abs(S):
        raise ConsistencyError(f"dual assemblies disagree: {S} vs {S_fg}")
    D_mag = prof.d_a
    interaction = S - 2.0 * D_mag
    s0, sa = action_S0(prof), action_Sa(prof)
    for name, res in (("S0", s0), ("Sa", sa)):
        miss = abs(res.value - res.variational)
        if miss > 1e-8:
            raise ConsistencyError(f"{name} misses its variational value",
                                   estimate=miss, error_bound=1e-8)
    S0, Sa, shat = s0.value, sa.value, action_Shat(prof)
    report = ActionReport(S=S, t_a=t_a, s_plus=s_plus, F=F, psi_min=psi_min,
                          D_mag=D_mag, interaction=interaction,
                          S_from_fg=S_fg, S0=S0, Sa=Sa,
                          Shat=shat.value, r0=shat.argmin)
    if not report.corridor_ok():
        # the largest excess fails (a tie at 0 goes to the strict one)
        excess = {"Shat < S0": shat.value - S0, "Sa <= S": Sa - S,
                  "S <= Shat": S - shat.value}
        name = max(excess, key=excess.get)
        ulps = excess[name] / math.ulp(S)
        raise ConsistencyError(
            f"action corridor violated at depth={depth}, a={a}, L={L}: "
            f"{name} fails by {ulps:.3g} ulps of S (Sa={Sa}, S={S}, "
            f"Shat={shat.value}, S0={S0}; " + (
                "a numerics bug: these inequalities always hold)" if ulps > 4
                else "within 4 ulps: below double precision for this well)"))
    return report


def _kernel_g0_log(t, E1):
    """log of the kernel amplitude g0(t) = t^{-5/4}(t+1)^{-1/4}
    (1+1/t)^{(E1-1)/2} with E1 = sqrt(1+2 v0''(0)) (WkbAmplitude.E1)."""
    t = np.asarray(t, dtype=float)
    return (-1.25 * np.log(t) - 0.25 * np.log1p(t)
            + 0.5 * (E1 - 1.0) * np.log1p(1.0 / t))


@dataclass
class WChainResult:
    h: float
    log_W1: float
    log_W2: float
    log_W3: float
    log_W4: float
    log_W4_alt: float

    def ratios(self):
        """(W2/(W1 sqrt h), W3/W2, W4/W3) -- all should trend to 1."""
        return (math.exp(self.log_W2 - self.log_W1 - 0.5 * math.log(self.h)),
                math.exp(self.log_W3 - self.log_W2),
                math.exp(self.log_W4 - self.log_W3))


def w_chain(case, eta):
    """The truncated reduction chain W1..W4 of the hopping integral, from
    the u_h, outer representation and WKB tables of the case.

    All four share the r-integral over [eta, a] and a t-integral over
    [eta, inf); they differ in which ingredients are replaced by their
    asymptotic forms (u_h -> WKB profile, C_h -> C_h_asy, I0 -> its
    exponential asymptote, alpha -> its leading term).  W4 is assembled a
    second time from (m, g0, Psi, F) as a consistency check.  Each
    t-integral is one call of numerics.log_integral_exp, one row per
    radial node.
    """
    well, L, h = case.config.well, case.config.L, case.h
    a = well.a
    if not 0.0 < eta < a:
        raise ValueError("need 0 < eta < a")
    outer = case.outer   # before the tables, which would add to its peak RSS
    profile, amplitude = case.pipeline.profile, case.pipeline.amplitude
    consts = matching_constants(case.pipeline)
    # alpha0_main / h, the leading-order exponent coefficient
    alpha_main = well.depth / (2.0 * h) - 0.5 * (amplitude.E1 - 1.0)
    log_ch_asy = c_h_asymptotic(h, consts)
    r_nodes, r_wts = _gauss_nodes(eta, a, N_CHAIN)
    v0_abs = np.abs(well.v0(r_nodes))
    log_base = np.log(r_nodes * np.maximum(v0_abs, 1e-320))
    r = r_nodes[:, None]   # the batch: one t-integrand per radial node
    rho2, c = r * r + L * L, L * r

    def t_integral(g):   # from t = eta
        return log_integral_exp(g, math.log(eta), Y_HI)

    def g_asy(al):
        def g(y):
            t = np.exp(y)
            return (-rho2 * t / (2.0 * h) + c * np.sqrt(t * (t + 1.0)) / h
                    - al * np.log1p(1.0 / t) + 0.5 * math.log(h)
                    - 0.5 * np.log(2.0 * math.pi * c)
                    - 1.25 * np.log(t) - 0.25 * np.log1p(t) + y)
        return g

    # W1: numeric u_h and calibrated C_h, exact Bessel kernel
    lt = t_integral(log_outer_integrand(h, outer.alpha, rho2, c))
    log_u = case.ground.log_u(r_nodes)
    log_W1 = math.log(2.0 * math.pi) + outer.log_C_h + logsumexp(
        log_base + log_u - (r_nodes**2 + L * L) / (4.0 * h) + lt, b=r_wts)
    # W2..W4: WKB profile and C_h_asy
    log_wkb = amplitude.log_a0(r_nodes) - profile.d(r_nodes) / h
    log_r_wkb = log_base + log_wkb - (r_nodes**2 + L * L) / (4.0 * h)

    def log_w_wkb(log_t):
        return math.log(2.0 * math.pi) + log_ch_asy + logsumexp(
            log_r_wkb + log_t, b=r_wts)

    log_W2 = log_w_wkb(lt)                              # exact kernel
    log_W3 = log_w_wkb(t_integral(g_asy(outer.alpha)))  # asymptotic kernel
    log_W4 = log_w_wkb(t_integral(g_asy(alpha_main)))   # leading-order alpha
    # W4 rebuilt from (m, g0, Psi, F)
    def g4(y):
        t = np.exp(y)
        return (-(profile.psi(r, t) - consts["F"]) / h
                + _kernel_g0_log(t, amplitude.E1) + y)

    lt4b = t_integral(g4)
    # the exact rewrite carries sqrt(r/L), not the bare sqrt(r) of the
    # compact display
    log_rw4 = np.log(np.sqrt(r_nodes / L) * np.maximum(v0_abs, 1e-320)) \
        + amplitude.log_a0(r_nodes)
    log_W4_alt = (math.log(2.0 * math.pi)
                  + math.log(consts["m_matched"])
                  - 0.5 * math.log(2.0 * math.pi * h)
                  + logsumexp(log_rw4 + lt4b, b=r_wts))
    return WChainResult(h, log_W1, log_W2, log_W3, log_W4, log_W4_alt)


def nonmagnetic_action(well, L):
    """2 int_0^{L/2} sqrt(v0 - v0_min) d rho, the b = 0 tunneling action."""
    inner = integrate(
        lambda r: np.sqrt(np.maximum(well.v0(r) + well.depth, 0.0)),
        0.0, well.a)
    return 2.0 * inner + (L - 2.0 * well.a) * math.sqrt(well.depth)


def beta_scaling(well, L, beta):
    """beta * S(beta^-2 v0, L): the field-strength reduction of the action.

    As beta -> 0 this approaches the non-magnetic action
    2 int_0^{L/2} sqrt(v0 - v0_min).
    """
    if not 0 < beta < math.inf:
        raise ValueError(f"need finite beta > 0 (got {beta})")
    try:
        scaled = well.scaled(beta**-2)
    except OverflowError:
        raise ValueError(f"need finite beta^-2 (got beta={beta})") from None
    report = sharp_action(scaled, L)
    return beta * report.S
