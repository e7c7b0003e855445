import math

import numpy as np
import pytest

from magtun import (AccuracyError, Case, DoubleWellConfig, Pipeline,
                    RadialWell, epsilon_lower_bound, hopping_bessel,
                    hopping_direct, hopping_slope_check, hopping_wkb_envelope)
from magtun import hopping

# frozen cross-route value at h = 0.5 (both routes agreed to 4e-8 when frozen)
W_CANON_H05 = -4.390891e-05

# w_direct on the Richardson-extrapolated ground profile, where it agrees
# with w_bessel within 2.3e-9 at every point; (depth, L, h) -> w
FROZEN_W_DIRECT = {
    (1.0, 4.2, 0.55): -4.657248253642084e-05,
    (1.0, 4.2, 0.3): -1.4059589287976913e-08,
    (1.0, 4.2, 0.17): -9.0106855217816e-15,
    (4.0, 3.7, 0.3): -2.0010848409593533e-09,
    (4.0, 3.7, 0.15): -4.109549856347235e-19,
    (1.0, 8.5, 1.2): -3.7306549340729316e-08,
    (1.0, 8.5, 0.9): -2.624626156807004e-10,
}

H_SWEEP = [0.6, 0.5, 0.42, 0.35, 0.3, 0.25]


@pytest.fixture(scope="module")
def sweep(well, case):
    return [case(well, h) for h in H_SWEEP]


@pytest.fixture(scope="module")
def slope(sweep):
    return hopping_slope_check(sweep)


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


def test_sign_constant_across_sweep(sweep):
    signs = {math.copysign(1.0, c.w_bessel) for c in sweep}
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


def test_envelope_powers(config4, well, profile4, case):
    # w0_minus ~ h^2 e^{-S0/h}, w0_plus <= C h^{-1} e^{-Sa/h}
    S0 = float(profile4.d(4.0))
    Sa = float(profile4.d(3.0) + profile4.d(1.0))
    hs = np.array([0.4, 0.3, 0.2, 0.15, 0.1])
    lead_minus, bound_plus = [], []
    for h in hs:
        env = case(well, h).envelope
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


def test_envelope_sandwich(sweep):
    # ln w0_minus - C <= ln|w| <= ln w0_plus + C with one h-independent C
    rows = []
    for c in sweep:
        env = c.envelope
        lw = math.log(abs(c.w_bessel))
        rows.append((env.log_w0_minus - lw, lw - env.log_w0_plus))
    C = max(max(lo, hi, 0.0) for lo, hi in rows[:1]) + 0.1
    assert all(lo <= C and hi <= C for lo, hi in rows)


def test_slope_containment(slope):
    assert slope.contained, slope.message
    assert slope.refined_contained, slope.message
    assert slope.monotone_toward_S


def test_slope_check_requires_points(well, case):
    with pytest.raises(ValueError, match="insufficient"):
        hopping_slope_check([case(well, 0.5)])


def test_epsilon_family_lower_bound(well, case):
    # fit c_eps at the largest h; the ratio may drift but never by 10x
    for eps in (0.25, 0.5, 1.0):
        ratios = []
        for h in (0.5, 0.35, 0.25):
            c = case(well, h)
            rhs = epsilon_lower_bound(c, eps)
            w = abs(c.w_direct)
            ratios.append(w / rhs)
        c_eps = ratios[0]
        assert all(r >= c_eps / 10.0 for r in ratios)


@pytest.mark.parametrize("eps", [-5.0, 0.0, 1.5, math.nan])
def test_epsilon_lower_bound_domain(well, case, eps):
    # the eps-family has 0 < eps <= 1, as agmon.action_S_eps
    with pytest.raises(ValueError, match="0 < eps <= 1"):
        epsilon_lower_bound(case(well, 0.5), eps)
    assert epsilon_lower_bound(case(well, 0.5), 1.0) > 0.0


# the shallow and the deep well at the three L of the benchmark and the
# lattice, each at the smallest h of the Bessel route's domain
R_CORNERS = [(depth, L) for depth in (0.5, 4.0) for L in (3.5, 5.0, 8.5)]


@pytest.mark.parametrize("depth, L", R_CORNERS)
def test_r_rule_converged(well_shallow, well_deep, case, monkeypatch,
                          depth, L):
    # N_ROUTE against 3x its nodes.  Measured worst: w_bessel 7.6e-14
    # relative, the eps bound 3.1e-14, the envelope logs 5.8e-10 (depth
    # 0.5, L 8.5, whose integrand sharpens like L a / 2h)
    c = case(well_shallow if depth == 0.5 else well_deep, 0.045, L=L)
    wb, lb = hopping_bessel(c), epsilon_lower_bound(c, 0.5)
    env = vars(hopping_wkb_envelope(c))
    monkeypatch.setattr(hopping, "N_ROUTE", 3 * hopping.N_ROUTE)
    assert abs(hopping_bessel(c) - wb) <= 1e-12 * abs(wb)
    assert abs(epsilon_lower_bound(c, 0.5) - lb) <= 1e-11 * lb
    for name, fine in vars(hopping_wkb_envelope(c)).items():
        assert abs(fine - env[name]) <= 1e-9, name


@pytest.mark.parametrize("depth, L, h", [
    (1.0, 4.0, 0.07), (0.5, 3.5, 0.05), (0.5, 5.0, 0.08), (0.5, 8.5, 0.155),
    (4.0, 3.5, 0.045), (4.0, 5.0, 0.055), (4.0, 8.5, 0.125)])
def test_direct_rules_converged(well, well_shallow, well_deep, case,
                                monkeypatch, depth, L, h):
    # at each corner's smallest h (on a 0.005 step) where the route returns,
    # the shipped rules against 4x the angular and 3x the r-nodes.  What
    # is left is rounding, which kappa eps understates: u = e^{log u}
    # carries |log u| eps (up to about 170 eps here), and rules of n to
    # n + 16 nodes spread by up to 28 kappa eps.  Measured worst 10.5
    # kappa eps (depth 4, L 5); a rule short of the bandwidth misses by
    # 1e-5 or more
    c = case({0.5: well_shallow, 1.0: well, 4.0: well_deep}[depth], h, L=L)
    wd = hopping_direct(c)
    w4, kappa = _brute_force_direct(c.config, h, c.ground,
                                    4 * _angular_nodes(c.config, h))
    bound = max(1e-10, 30.0 * kappa * np.finfo(float).eps) * abs(w4)
    assert abs(wd - w4) <= bound
    monkeypatch.setattr(hopping, "N_ROUTE", 3 * hopping.N_ROUTE)
    assert abs(hopping_direct(c) - wd) <= bound


def test_route_agreement_tightness(sweep):
    for c in sweep:
        wd, wb = c.w_direct, c.w_bessel
        assert abs(wd.imag) / abs(wd) <= 1e-8
        assert abs(wd.real - wb) / abs(wb) <= 1e-5


@pytest.mark.parametrize("depth, L, h", [(4.0, 4.5, 0.07), (4.0, 4.5, 0.06),
                                         (4.0, 4.5, 0.05), (4.0, 4.5, 0.045),
                                         (1.0, 4.0, 0.07), (1.0, 4.0, 0.06)])
def test_route_agreement_small_h(well, well_deep, case, depth, L, h):
    # kappa eps is far below DIRECT_RTOL here, so the direct route returns,
    # and it reads u_h's far tail: a profile from the finest grid alone put
    # the routes 1.25e-5 to 7.7e-5 apart
    c = case(well if depth == 1.0 else well_deep, h, L=L)
    try:
        wd = c.w_direct.real
    except AccuracyError:
        return   # a flagged value is not a silent one
    assert abs(wd - c.w_bessel) / abs(c.w_bessel) <= 1e-5


@pytest.mark.parametrize("depth, L, h", list(FROZEN_W_DIRECT))
def test_direct_frozen_values(well, well_deep, case, depth, L, h):
    wd = case(well if depth == 1.0 else well_deep, h, L=L).w_direct
    ref = FROZEN_W_DIRECT[depth, L, h]
    assert abs(wd - ref) <= 1e-12 * abs(ref)


def _angular_nodes(config, h):
    L, a = config.L, config.well.a
    return 4 * max(64, 10 * math.ceil(L * a / (4.0 * math.pi * h)))


def _brute_force_direct(config, h, solution, n_theta):
    """Every r-node's full-circle trapezoid sum of f, without mirroring;
    returns (w, sum |f| / |w|)."""
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


def _kappa(error):
    return float(str(error).split("kappa")[1])


def test_direct_one_rule_matches_full_grid(config4, well, case, monkeypatch):
    # a negative tolerance forces the raise, with the one rule's value as
    # the estimate and kappa eps |w| as the bound
    h = 0.5
    sol, wd = case(well, h).ground, case(well, h).w_direct
    monkeypatch.setattr(hopping, "DIRECT_RTOL", -1.0)
    with pytest.raises(AccuracyError, match="kappa") as info:
        hopping_direct(case(well, h))
    w, kappa = _brute_force_direct(config4, h, sol, _angular_nodes(config4, h))
    assert abs(info.value.estimate - w) <= 1e-12 * abs(w)
    assert abs(info.value.estimate - wd) <= 1e-12 * abs(w)
    assert _kappa(info.value) == pytest.approx(kappa, rel=1e-2)
    assert info.value.error_bound == pytest.approx(
        kappa * np.finfo(float).eps * abs(w), rel=1e-2, abs=0.0)


def test_direct_raises_on_rounding_bound():
    # kappa 3.5e7, so kappa eps is about 8 DIRECT_RTOL: the one rule's value
    # is rounding-limited there and sits 1.4e-5 off the Bessel route
    config = DoubleWellConfig(RadialWell.bump(depth=0.5, a=1.0), 5.0)
    with pytest.raises(AccuracyError, match="kappa") as info:
        Case(Pipeline(config), 0.07).w_direct
    err = info.value
    kappa = _kappa(err)
    assert kappa * np.finfo(float).eps > hopping.DIRECT_RTOL
    assert err.error_bound == pytest.approx(
        kappa * np.finfo(float).eps * abs(err.estimate), rel=1e-2, abs=0.0)


def test_direct_spline_points(config4, well, case, monkeypatch):
    # log u is evaluated in two calls, once on the r-nodes and once on the
    # half circle of the angular nodes of every r-node: N_ROUTE (n / 2 + 2)
    # points
    h = 0.5
    sol, wd = case(well, h).ground, case(well, h).w_direct
    points = []
    log_u = sol.log_u
    monkeypatch.setattr(sol, "log_u",
                        lambda rho: points.append(np.size(rho)) or log_u(rho))
    assert hopping_direct(case(well, h)) == wd
    n = _angular_nodes(config4, h)
    assert points == [hopping.N_ROUTE, hopping.N_ROUTE * (n // 2 + 1)]
