"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Exact identities and oracle equivalences are asserted at their stated
tolerances; h -> 0 limits are asserted as trend/corridor properties at desk
scale.  Run with -s to see the per-criterion lines.
"""

import math

import numpy as np
import pytest

from magtun import (FiberProblem, action_S0, action_Sa, action_Shat,
                    calibrate_outer, c_h_asymptotic, matching_constants,
                    gap_vs_hopping, harmonic_expansion_check,
                    hopping_slope_check, landau_level_2d,
                    minimizer_closed_form, nonmagnetic_action,
                    psi_global_min, sharp_action, solve_fiber,
                    wkb_error_exponent, wkb_profile_error, beta_scaling,
                    PsiSurface)
from conftest import acceptance_line


def test_criterion_01_landau_level():
    sol = solve_fiber(FiberProblem(m=0, h=1.0, R=19.0, n=20000), tol=1e-8)
    fiber_err = abs(sol.e_sw - 1.0)
    e2d, _ = landau_level_2d(0.5)
    lat_rel = abs(e2d - 0.5) / 0.5
    ok = fiber_err <= 1e-6 and lat_rel <= 0.03
    acceptance_line(1, ok, f"fiber |lam1 - 1| = {fiber_err:.2e} (<= 1e-6), "
                           f"lattice rel after extrapolation = {lat_rel:.2e} "
                           f"(<= 3e-2)")


def test_criterion_02_magnetic_oscillator():
    worst_ev, worst_id = 0.0, 0.0
    for mu in (0.5, 1.0, 2.0):
        target = math.sqrt(1 + 4 * mu)
        sol = solve_fiber(FiberProblem(m=0, h=1.0, R=12.0, n=9000,
                                       well=lambda r, mu=mu: mu * r * r),
                          tol=1e-8)
        worst_ev = max(worst_ev, abs(sol.e_sw - target))
    for m in (1, 2):
        mu = 1.0
        root = math.sqrt(5.0)
        osc = solve_fiber(FiberProblem(m=m, h=1.0, R=12.0, n=9000,
                                       well=lambda r: mu * r * r), tol=1e-7)
        free = solve_fiber(FiberProblem(m=m, h=1.0, R=16.0, n=9000),
                           tol=1e-7)
        worst_id = max(worst_id,
                       abs(osc.e_sw - (root * free.e_sw + (root - 1) * m)))
    ok = worst_ev <= 1e-6 and worst_id <= 1e-6
    acceptance_line(2, ok, f"max |lam1 - sqrt(1+4mu)| = {worst_ev:.2e}, "
                           f"fiber-identity deviation = {worst_id:.2e} "
                           f"(both <= 1e-6)")


def test_criterion_03_harmonic_order(well, case):
    hs = [0.2, 0.14, 0.1, 0.07, 0.05]
    sols = [case(well, h).ground for h in hs]
    rep = harmonic_expansion_check(well, hs, [s.e_sw for s in sols],
                                   [s.energy_error for s in sols])
    ok = (not rep.floor_reached) and 1.4 <= rep.exponent <= 2.1
    acceptance_line(3, ok, f"harmonic expansion exponent p = "
                           f"{rep.exponent:.3f} in [1.4, 2.1]")


def test_criterion_04_wkb_order(well, case, profile4, amp6):
    hs = [0.2, 0.14, 0.1, 0.07, 0.05]
    sols = [case(well, h).ground for h in hs]
    q = wkb_error_exponent(hs, [wkb_profile_error(well, s, amp6, profile4)
                                for s in sols])
    positive = True
    for h, sol in zip(hs, sols):
        mask = sol.grid <= 1.0
        scaled = np.exp(profile4.d(sol.grid[mask]) / h) * sol.u[mask]
        positive &= bool(np.all(scaled > 0)) and \
            bool(np.all(amp6.a0(sol.grid[mask]) > 0))
    ok = 0.4 <= q <= 1.1 and positive
    acceptance_line(4, ok, f"WKB profile error exponent q = {q:.3f} in "
                           f"[0.4, 1.1]; profiles positive: {positive}")


def test_criterion_05_outer_representation(well, case, profile4, amp6):
    worst = 0.0
    for h in (0.1, 0.05):
        sol, outer = case(well, h).ground, case(well, h).outer
        for rho in np.linspace(1.0, 5.0, 17):
            worst = max(worst, abs(math.exp(
                outer.log_u(rho) - float(sol.log_u(rho))) - 1.0))
    consts = matching_constants(well, amplitude=amp6, d_a=profile4.d_a)
    mags = []
    for h in (0.2, 0.1, 0.05, 0.035):
        sol = case(well, h).ground
        outer = calibrate_outer(well, h, sol, check_upto=4.0)
        mags.append(abs(h * (outer.log_C_h - c_h_asymptotic(h, consts))))
    trend = all(a > b for a, b in zip(mags, mags[1:]))
    ok = worst <= 1e-3 and trend and mags[-1] <= 0.05
    acceptance_line(5, ok, f"max rel mismatch on [a, L+1] = {worst:.2e} "
                           f"(<= 1e-3); |h ln(C_h/C_h_asy)| decreasing to "
                           f"{mags[-1]:.3f} (<= 0.05)")


def test_criterion_06_hopping_routes(well, case):
    worst_im, worst_gap = 0.0, 0.0
    for h in (0.5, 0.3):
        wd, wb = case(well, h).w_direct, case(well, h).w_bessel
        worst_im = max(worst_im, abs(wd.imag) / abs(wd))
        worst_gap = max(worst_gap, abs(wd.real - wb) / abs(wb))
    ok = worst_im <= 1e-8 and worst_gap <= 1e-5
    acceptance_line(6, ok, f"|Im w|/|w| = {worst_im:.1e} (<= 1e-8); "
                           f"route disagreement = {worst_gap:.1e} (<= 1e-5)")


def test_criterion_07_action_corridor(well, profile4):
    s0 = action_S0(profile4)
    sa = action_Sa(profile4)
    shat = action_Shat(profile4)
    rep = sharp_action(well, 4.0, profile=profile4)
    chain = sa.value < shat.value < min(s0.value, sa.value + 2.0)
    sharp_ok = (sa.value <= rep.S <= shat.value < s0.value
                and rep.S < 2 * shat.value)
    # brute-force grid oracles for the variational identities
    us = np.linspace(1e-9, 1.0, 100001)
    v_s0 = float(np.min(profile4.d(us) + profile4.d(4.0 + us)))
    v_sa = float(np.min(profile4.d(us) + profile4.d(4.0 - us)))
    var_ok = abs(v_s0 - s0.value) <= 1e-8 and abs(v_sa - sa.value) <= 1e-8
    ok = chain and sharp_ok and var_ok
    acceptance_line(7, ok, f"Sa={sa.value:.5f} < Shat={shat.value:.5f} < "
                           f"min(S0={s0.value:.5f}, Sa+La/2); "
                           f"Sa <= S={rep.S:.5f} <= Shat < S0; S < 2 Shat; "
                           f"variational ids within 1e-8: {var_ok}")


def test_criterion_08_psi_minimizer(well, profile4):
    t_a, s_plus = minimizer_closed_form(well, 4.0)
    surface = PsiSurface(profile4)
    r_s, t_s, val = psi_global_min(surface)
    ref = float(surface.psi(1.0, t_a))
    rel = abs(val - ref) / abs(ref)
    resid = abs(225.0 * s_plus**2 - 50.0 * s_plus + 1.0) / \
        (225.0 * s_plus**2)
    ok = rel <= 1e-6 and resid <= 1e-10
    acceptance_line(8, ok, f"grid-vs-closed-form Psi gap = {rel:.1e} "
                           f"(<= 1e-6); quadratic-root residual = "
                           f"{resid:.1e} (<= 1e-10)")


def test_criterion_09_hopping_slope(well, case):
    hs = [0.6, 0.5, 0.42, 0.35, 0.3, 0.25]
    report = hopping_slope_check([case(well, h) for h in hs])
    S = case(well, hs[0]).pipeline.action.S
    ok = (report.contained and report.refined_contained
          and report.monotone_toward_S)
    logs = [round(e.log_w, 3) for e in report.estimates]
    acceptance_line(9, ok, f"h ln|w| = {logs} inside "
                           f"[{-report.S0 - report.delta:.3f}, "
                           f"{-report.Sa + report.delta:.3f}], refined floor "
                           f"{-report.Shat - report.delta:.3f}, trending "
                           f"toward -S = {-S:.3f}")


def test_criterion_10_w_chain(well_deep, deep_chain):
    res05 = deep_chain[0.05]
    w1 = {eta: math.exp(r.log_W1) for eta, r in res05.items()}
    eta_dev = max(abs(w1[eta] - w1[0.05]) / w1[0.05] for eta in (0.1, 0.2))
    hs = sorted(deep_chain, reverse=True)
    ratios = np.array([deep_chain[h][0.05].ratios() for h in hs])
    trend = bool(np.all(np.abs(ratios[-1] - 1.0) < np.abs(ratios[0] - 1.0)))
    S = sharp_action(well_deep, 4.0).S
    gaps = [abs(h * deep_chain[h][0.05].log_W4 + S) for h in hs]
    ok = eta_dev <= 0.01 and trend and gaps[-1] <= 0.15 * S
    acceptance_line(10, ok, f"W1 eta-deviation = {eta_dev:.2%} (<= 1%); "
                            f"ratio gaps {np.abs(ratios[0]-1).round(3)} -> "
                            f"{np.abs(ratios[-1]-1).round(3)}; "
                            f"|h ln W4 + S| = {gaps[-1]:.3f} "
                            f"(<= {0.15 * S:.3f})")


def test_criterion_11_splitting_corridor(config85, pipeline85, gap_report):
    assert config85.fsw_condition
    report = gap_report   # h = 1.4, 1.2, 1.0, 0.8 (see conftest)
    rows = report.resolvable_rows()
    corridor_ok = all(report.corridor[0] <= r.h_ln_gap <= report.corridor[1]
                      for r in rows)
    ratio_ok = all(0.5 <= r.ratio <= 2.0 for r in rows)
    floor = gap_vs_hopping(pipeline85, [0.5]).rows[0]
    floor_ok = floor.floor_flag.startswith("unresolvable")
    ok = corridor_ok and ratio_ok and floor_ok and len(rows) == 4
    ratios = [round(r.ratio, 3) for r in rows]
    acceptance_line(11, ok, f"h ln(gap) in corridor "
                            f"[{report.corridor[0]:.2f}, "
                            f"{report.corridor[1]:.2f}] for all 4 h; "
                            f"gap/(2|w|) = {ratios} in [0.5, 2]; h=0.5 "
                            f"reported unresolvable (trend-only regime)")


def test_criterion_12_nonmagnetic_limit(well):
    target = nonmagnetic_action(well, 4.0)
    val = beta_scaling(well, 4.0, 0.05)
    gap = abs(val - target)
    ok = gap <= 0.05
    acceptance_line(12, ok, f"|beta S(beta^-2 v0) - nonmagnetic action| = "
                            f"{gap:.4f} (<= 0.05) at beta = 0.05")
