"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Criteria 1-8 assert the named checks of `magtun verify`'s battery on the
default config (the `battery` fixture), which holds their one
implementation, and add only independent oracles the battery does not
compute.  Exact identities and oracle equivalences are asserted at their
stated tolerances; h -> 0 limits are asserted as trend/corridor properties
at desk scale.  Run with -s to see the per-criterion lines.
"""

import math

import numpy as np

from magtun import (FiberProblem, action_S0, action_Sa,
                    c_h_asymptotic, matching_constants, gap_vs_hopping,
                    hopping_slope_check, nonmagnetic_action, sharp_action,
                    solve_fiber, beta_scaling)
from magtun.verify import SWEEP_H
from conftest import acceptance_line


def battery_line(num, battery, *names, ok=True, detail=""):
    """Criterion num: its battery checks pass and its own oracles hold."""
    checks = [battery[name] for name in names]
    ok = ok and all(c.status == "pass" for c in checks)
    text = "; ".join(f"{c.name} {c.status.upper()}: {c.detail}"
                     for c in checks)
    acceptance_line(num, ok, f"{text}; {detail}" if detail else text)


def test_criterion_01_landau_level(battery):
    battery_line(1, battery, "landau_level")


def test_criterion_02_magnetic_oscillator(battery):
    # free-fiber identity at mu = 1:
    # lam1(m) = sqrt(5) lam1_free(m) + (sqrt(5) - 1) m
    root = math.sqrt(5.0)
    worst = 0.0
    for m in (1, 2):
        osc = solve_fiber(FiberProblem(m=m, h=1.0, R=12.0, n=9000,
                                       v0=lambda r: r * r), tol=1e-7)
        free = solve_fiber(FiberProblem(m=m, h=1.0, R=16.0, n=9000),
                           tol=1e-7)
        worst = max(worst,
                    abs(osc.e_sw - (root * free.e_sw + (root - 1) * m)))
    battery_line(2, battery, "oscillator", ok=worst <= 1e-6,
                 detail=f"fiber-identity deviation = {worst:.2e} (<= 1e-6)")


def test_criterion_03_harmonic_order(battery):
    battery_line(3, battery, "harmonic_exponent")


def test_criterion_04_wkb_order(battery, well, case, profile4, amp6):
    positive = True
    for h in SWEEP_H:
        sol = case(well, h).ground
        mask = sol.grid <= 1.0
        scaled = np.exp(profile4.d(sol.grid[mask]) / h) * sol.u[mask]
        positive &= bool(np.all(scaled > 0)) and \
            bool(np.all(amp6.a0(sol.grid[mask]) > 0))
    battery_line(4, battery, "wkb_exponent", ok=positive,
                 detail=f"scaled profiles positive: {positive}")


def test_criterion_05_outer_representation(battery, well, pipe, case):
    worst = 0.0
    for h in (0.1, 0.05):
        sol, outer = case(well, h).ground, case(well, h).outer
        for rho in np.linspace(1.0, 5.0, 17):
            worst = max(worst, abs(math.exp(
                outer.log_u(rho) - float(sol.log_u(rho))) - 1.0))
    consts = matching_constants(pipe(well))
    mags = []
    for h in (0.2, 0.1, 0.05, 0.035):
        outer = case(well, h).outer
        mags.append(abs(h * (outer.log_C_h - c_h_asymptotic(h, consts))))
    trend = all(a > b for a, b in zip(mags, mags[1:]))
    ok = worst <= 1e-3 and trend and mags[-1] <= 0.05
    battery_line(5, battery, "outer_representation", ok=ok,
                 detail=f"h 0.1 and 0.05 at 17 points: max rel mismatch "
                        f"{worst:.2e} (<= 1e-3); |h ln(C_h/C_h_asy)| "
                        f"decreasing to {mags[-1]:.3f} (<= 0.05)")


def test_criterion_06_hopping_routes(battery):
    battery_line(6, battery, "hopping_reality", "route_agreement")


def test_criterion_07_action_corridor(battery, profile4):
    # brute-force grid oracles for the variational identities
    us = np.linspace(1e-9, 1.0, 100001)
    v_s0 = float(np.min(profile4.d(us) + profile4.d(4.0 + us)))
    v_sa = float(np.min(profile4.d(us) + profile4.d(4.0 - us)))
    gaps = (abs(v_s0 - action_S0(profile4).value),
            abs(v_sa - action_Sa(profile4).value))
    battery_line(7, battery, "action_corridor", ok=max(gaps) <= 1e-8,
                 detail=f"grid minima vs S0, Sa: {max(gaps):.1e} (<= 1e-8)")


def test_criterion_08_psi_minimizer(battery):
    battery_line(8, battery, "psi_minimizer")


def test_criterion_09_hopping_slope(well, case):
    hs = [0.6, 0.5, 0.42, 0.35, 0.3, 0.25]
    report = hopping_slope_check([case(well, h) for h in hs])
    action = case(well, hs[0]).pipeline.action
    ok = (report.contained and report.refined_contained
          and report.monotone_toward_S)
    logs = [round(v, 3) for v in report.h_ln_w]
    acceptance_line(9, ok, f"h ln|w| = {logs} inside "
                           f"[{-action.S0 - report.delta:.3f}, "
                           f"{-action.Sa + report.delta:.3f}], refined floor "
                           f"{-action.Shat - report.delta:.3f}, trending "
                           f"toward -S = {-action.S:.3f}")


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
