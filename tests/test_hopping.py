import math

import numpy as np
import pytest

from magtun import (AccuracyError, Case, DoubleWellConfig, Pipeline,
                    epsilon_lower_bound, hopping_direct, hopping_slope_check,
                    hopping_wkb_envelope)
from magtun import hopping

# frozen cross-route value at h = 0.5 (both routes agreed to 4e-8 when frozen)
W_CANON_H05 = -4.390891e-05

# w_direct of the loop-over-r-nodes implementation, which evaluated the x4
# and x8 angular levels separately on the full circle; (depth, L, h) -> w
FROZEN_W_DIRECT = {
    (1.0, 4.2, 0.55): -4.657248268680341e-05,
    (1.0, 4.2, 0.3): -1.4059591002062952e-08,
    (1.0, 4.2, 0.17): -9.010694043902887e-15,
    (4.0, 3.7, 0.3): -2.001085054995221e-09,
    (4.0, 3.7, 0.15): -4.109555133510865e-19,
    (1.0, 8.5, 1.2): -3.730655091463712e-08,
    (1.0, 8.5, 0.9): -2.6246264432784615e-10,
}

H_SWEEP = [0.6, 0.5, 0.42, 0.35, 0.3, 0.25]


@pytest.fixture(scope="module")
def estimates(well, case):
    return hopping_slope_check([case(well, h) for h in H_SWEEP])


def test_reality(well, case):
    wd = case(well, 0.5).w_direct
    assert abs(wd.imag) / abs(wd) <= 1e-8


@pytest.mark.parametrize("h", [0.2765, 0.1616])
def test_route_agreement_deep_well(well_deep, h):
    # the direct route reads the tail of u_h, so an eigenvector stopped
    # short of convergence shows here first
    c = Case(Pipeline(DoubleWellConfig(well_deep, 4.487519)), h)
    wd, wb = c.w_direct.real, c.w_bessel
    assert abs(wd - wb) / abs(wb) <= 1e-5


def test_theta_reversal_symmetry(well, case):
    # conjugate-symmetric integrand: the reversed discretization is the
    # complex conjugate, so the imaginary part cancels to roundoff
    wd = case(well, 0.5).w_direct
    assert abs(wd - wd.conjugate()) <= 1e-10 * abs(wd)


@pytest.mark.parametrize("h", [0.5, 0.3])
def test_route_agreement(well, h, case):
    wd, wb = case(well, h).w_direct, case(well, h).w_bessel
    assert abs(wd.real - wb) / abs(wb) <= 1e-5


def test_frozen_value(well, case):
    wb = case(well, 0.5).w_bessel
    assert wb == pytest.approx(W_CANON_H05, rel=1e-4)


def test_sign_constant_across_sweep(estimates):
    signs = {math.copysign(1.0, e.w_bessel) for e in estimates.estimates}
    assert signs == {-1.0}  # v0 <= 0 forces one sign


def test_bessel_envelope_bound(well, case):
    # |w| <= c2 int |v0| u_h(L-r) u_h(r) r dr with the measured c2 = 1.7
    h = 0.5
    sol = case(well, h).ground
    r = np.linspace(1e-4, 1.0, 2001)
    vals = np.abs(well.v0(r)) * np.exp(sol.log_u(4.0 - r) + sol.log_u(r)) * r
    bound = 1.7 * np.trapezoid(vals, r) * 2 * np.pi
    wd = abs(case(well, h).w_direct)
    assert wd <= bound


def test_envelope_powers(config4, profile4, amp6):
    # w0_minus ~ h^2 e^{-S0/h}, w0_plus <= C h^{-1} e^{-Sa/h}
    S0 = float(profile4.d(4.0))
    Sa = float(profile4.d(3.0) + profile4.d(1.0))
    hs = np.array([0.4, 0.3, 0.2, 0.15, 0.1])
    lead_minus, bound_plus = [], []
    for h in hs:
        env = hopping_wkb_envelope(profile4, amp6, h)
        lead_minus.append(env.log_w0_minus + S0 / h)
        bound_plus.append(env.log_w0_plus + Sa / h + math.log(h))
        # M_h^+ <= e^{-Sa/h} int |v0| r dr
        r = np.linspace(0, 1, 2001)
        mass = np.trapezoid(np.abs(config4.well.v0(r)) * r, r)
        assert env.log_Mh_plus <= -Sa / h + math.log(mass) + 1e-9
    # Laplace endpoint power: the bare integral h * w0_minus scales ~ h^2
    # (w0_minus itself carries the 1/h prefactor, hence its h^1 lower bound)
    slope = np.polyfit(np.log(hs), np.array(lead_minus) + np.log(hs), 1)[0]
    assert 1.6 <= slope <= 2.3
    # the C h^{-1} e^{-Sa/h} bound, fitted at the largest h, is never
    # violated later: the phase minimum sits where v0 vanishes to infinite
    # order, so the ratio keeps falling
    assert all(b <= bound_plus[0] + 1e-9 for b in bound_plus)
    assert all(x > y for x, y in zip(bound_plus, bound_plus[1:]))


def test_envelope_sandwich(profile4, amp6, estimates):
    # ln w0_minus - C <= ln|w| <= ln w0_plus + C with one h-independent C
    rows = []
    for e in estimates.estimates:
        env = hopping_wkb_envelope(profile4, amp6, e.h)
        lw = math.log(abs(e.w_bessel))
        rows.append((env.log_w0_minus - lw, lw - env.log_w0_plus))
    C = max(max(lo, hi, 0.0) for lo, hi in rows[:1]) + 0.1
    assert all(lo <= C and hi <= C for lo, hi in rows)


def test_slope_containment(estimates):
    assert estimates.contained, estimates.message
    assert estimates.refined_contained, estimates.message
    assert estimates.monotone_toward_S


def test_slope_check_requires_points(well, case):
    with pytest.raises(ValueError, match="insufficient"):
        hopping_slope_check([case(well, 0.5)])


def test_epsilon_family_lower_bound(config4, well, case):
    # fit c_eps at the largest h; the ratio may drift but never by 10x
    for eps in (0.25, 0.5, 1.0):
        ratios = []
        for h in (0.5, 0.35, 0.25):
            c = case(well, h)
            rhs = epsilon_lower_bound(config4, eps, c.ground)
            w = abs(c.w_direct)
            ratios.append(w / rhs)
        c_eps = ratios[0]
        assert all(r >= c_eps / 10.0 for r in ratios)


def test_route_agreement_tightness(estimates):
    for e in estimates.estimates:
        assert e.imag_fraction <= 1e-8
        assert e.route_agreement <= 1e-5


@pytest.mark.parametrize("depth, L, h", list(FROZEN_W_DIRECT))
def test_direct_frozen_values(well, well_deep, case, depth, L, h):
    wd = case(well if depth == 1.0 else well_deep, h, L=L).w_direct
    ref = FROZEN_W_DIRECT[depth, L, h]
    assert abs(wd - ref) <= 1e-12 * abs(ref)


def _angular_nodes(config, h, mult):
    L, a = config.L, config.well.a
    return mult * max(256, 40 * math.ceil(L * a / (4.0 * math.pi * h)))


def _brute_force_direct(config, h, solution, n_theta):
    """Every r-node's full-circle trapezoid sum of f, without levels or
    mirroring; returns (w, sum |f| / |w|)."""
    well, L = config.well, config.L
    x, wx = np.polynomial.legendre.leggauss(hopping.N_ROUTE)
    r, wr = 0.5 * well.a * (x + 1.0), 0.5 * well.a * wx
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    rho = np.sqrt(r[:, None] ** 2 + L * L
                  + 2.0 * L * r[:, None] * np.cos(theta))
    f = np.exp(solution.log_u(rho)
               + 1j * (L * r[:, None] / (2.0 * h)) * np.sin(theta))
    f *= (wr * r * well.v0(r) * np.exp(solution.log_u(r)))[:, None] \
        * (2.0 * np.pi / n_theta)
    w = f.sum()
    return w, np.abs(f).sum() / abs(w)


def test_direct_x16_level_matches_full_grid(config4, well, case, monkeypatch):
    # a negative tolerance fails both refinement tests, so the route adds
    # the x16 level and raises with it as the estimate
    h = 0.5
    sol = case(well, h).ground
    monkeypatch.setattr(hopping, "DIRECT_RTOL", -1.0)
    with pytest.raises(AccuracyError, match="kappa") as info:
        hopping_direct(config4, sol)
    w16, kappa = _brute_force_direct(config4, h, sol,
                                     _angular_nodes(config4, h, 16))
    assert abs(info.value.estimate - w16) <= 1e-12 * abs(w16)
    assert abs(info.value.estimate - case(well, h).w_direct) \
        <= 1e-12 * abs(w16)
    got = float(str(info.value).split("kappa")[1])
    assert got == pytest.approx(kappa, rel=1e-2)


def test_direct_spline_points(config4, well, case, monkeypatch):
    # log u is evaluated once per r-node and on the half circle of the x8
    # nodes only: N_ROUTE (n8 / 2 + 2) points, a third of the separate x4
    # and x8 full-circle rules
    h = 0.5
    sol = case(well, h).ground
    points = []
    log_u = sol.log_u
    monkeypatch.setattr(sol, "log_u",
                        lambda rho: points.append(np.size(rho)) or log_u(rho))
    wd = hopping_direct(config4, sol)
    assert wd == case(well, h).w_direct
    n8 = _angular_nodes(config4, h, 8)
    assert sum(points) <= hopping.N_ROUTE * (n8 // 2 + 2)
