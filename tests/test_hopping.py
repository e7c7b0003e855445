import math

import numpy as np
import pytest

from magtun import (DoubleWellConfig, action_Shat, calibrate_outer,
                    epsilon_lower_bound, ground_state, hopping_bessel,
                    hopping_direct, hopping_slope_check, hopping_wkb_envelope)

# frozen cross-route value at h = 0.5 (both routes agreed to 4e-8 when frozen)
W_CANON_H05 = -4.390891e-05

H_SWEEP = [0.6, 0.5, 0.42, 0.35, 0.3, 0.25]


@pytest.fixture(scope="module")
def estimates(config4, well, gs_cache, outer_cache, profile4):
    shat = action_Shat(profile4)
    sols = [gs_cache(well, h) for h in H_SWEEP]
    outs = [outer_cache(well, h) for h in H_SWEEP]
    from magtun import sharp_action
    S = sharp_action(well, 4.0, profile=profile4).S
    return hopping_slope_check(config4, H_SWEEP, profile4, shat.value,
                               solutions=sols, outers=outs, sharp_S=S)


def test_reality(config4, well, gs_cache):
    wd = hopping_direct(config4, 0.5, gs_cache(well, 0.5))
    assert abs(wd.imag) / abs(wd) <= 1e-8


@pytest.mark.parametrize("h", [0.2765, 0.1616])
def test_route_agreement_deep_well(well_deep, h):
    # the direct route reads the tail of u_h, so an eigenvector stopped
    # short of convergence shows here first
    L = 4.487519
    sol = ground_state(well_deep, h, L=L)
    outer = calibrate_outer(well_deep, h, sol, check_upto=L + 1.0)
    config = DoubleWellConfig(well_deep, L)
    wd = hopping_direct(config, h, sol).real
    wb = hopping_bessel(config, h, outer, sol)
    assert abs(wd - wb) / abs(wb) <= 1e-5


def test_theta_reversal_symmetry(config4, well, gs_cache):
    # conjugate-symmetric integrand: the reversed discretization is the
    # complex conjugate, so the imaginary part cancels to roundoff
    wd = hopping_direct(config4, 0.5, gs_cache(well, 0.5))
    assert abs(wd - wd.conjugate()) <= 1e-10 * abs(wd)


@pytest.mark.parametrize("h", [0.5, 0.3])
def test_route_agreement(config4, well, h, gs_cache, outer_cache):
    sol = gs_cache(well, h)
    wd = hopping_direct(config4, h, sol)
    wb = hopping_bessel(config4, h, outer_cache(well, h), sol)
    assert abs(wd.real - wb) / abs(wb) <= 1e-5


def test_frozen_value(config4, well, gs_cache, outer_cache):
    wb = hopping_bessel(config4, 0.5, outer_cache(well, 0.5),
                        gs_cache(well, 0.5))
    assert wb == pytest.approx(W_CANON_H05, rel=1e-4)


def test_sign_constant_across_sweep(estimates):
    signs = {math.copysign(1.0, e.w_bessel) for e in estimates.estimates}
    assert signs == {-1.0}  # v0 <= 0 forces one sign


def test_bessel_envelope_bound(config4, well, gs_cache):
    # |w| <= c2 int |v0| u_h(L-r) u_h(r) r dr with the measured c2 = 1.7
    h = 0.5
    sol = gs_cache(well, h)
    r = np.linspace(1e-4, 1.0, 2001)
    vals = np.abs(well.v0(r)) * np.exp(sol.log_u(4.0 - r) + sol.log_u(r)) * r
    bound = 1.7 * np.trapezoid(vals, r) * 2 * np.pi
    wd = abs(hopping_direct(config4, h, sol))
    assert wd <= bound


def test_envelope_powers(config4, profile4, amp6):
    # w0_minus ~ h^2 e^{-S0/h}, w0_plus <= C h^{-1} e^{-Sa/h}
    S0 = float(profile4.d(4.0))
    Sa = float(profile4.d(3.0) + profile4.d(1.0))
    hs = np.array([0.4, 0.3, 0.2, 0.15, 0.1])
    lead_minus, bound_plus = [], []
    for h in hs:
        env = hopping_wkb_envelope(config4, h, profile4, amp6)
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


def test_envelope_sandwich(config4, profile4, amp6, estimates):
    # ln w0_minus - C <= ln|w| <= ln w0_plus + C with one h-independent C
    rows = []
    for e in estimates.estimates:
        env = hopping_wkb_envelope(config4, e.h, profile4, amp6)
        lw = math.log(abs(e.w_bessel))
        rows.append((env.log_w0_minus - lw, lw - env.log_w0_plus))
    C = max(max(lo, hi, 0.0) for lo, hi in rows[:1]) + 0.1
    assert all(lo <= C and hi <= C for lo, hi in rows)


def test_slope_containment(estimates):
    assert estimates.contained, estimates.message
    assert estimates.refined_contained, estimates.message
    assert estimates.monotone_toward_S


def test_slope_check_requires_points(config4, profile4):
    with pytest.raises(ValueError, match="insufficient"):
        hopping_slope_check(config4, [0.5], profile4, 5.45)


def test_epsilon_family_lower_bound(config4, well, gs_cache):
    # fit c_eps at the largest h; the ratio may drift but never by 10x
    for eps in (0.25, 0.5, 1.0):
        ratios = []
        for h in (0.5, 0.35, 0.25):
            sol = gs_cache(well, h)
            rhs = epsilon_lower_bound(config4, h, eps, sol)
            w = abs(hopping_direct(config4, h, sol))
            ratios.append(w / rhs)
        c_eps = ratios[0]
        assert all(r >= c_eps / 10.0 for r in ratios)


def test_route_agreement_tightness(estimates):
    for e in estimates.estimates:
        assert e.imag_fraction <= 1e-8
        assert e.route_agreement <= 1e-5
