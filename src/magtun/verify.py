"""One-shot verification battery behind `magtun verify`.

Each check is independent and reports pass/fail/skip with a one-line
detail; checks that desk-scale floating point cannot resolve are skipped,
not asserted.  Every ground state comes from one pipeline.Case per h.
This list is the one implementation of the checks: acceptance criteria
1-8 (tests/test_acceptance.py) assert its results on the default config
and add only their independent oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import _saddle_quadratic, psi_global_min
from .pipeline import Case, Pipeline
from .potential import WellValidationError
from .spectral import FiberProblem, harmonic_expansion_check, solve_fiber
from .splitting2d import _landau_rungs, gap_vs_hopping, landau_level_2d
from .wkb import wkb_error_exponent, wkb_profile_error

__all__ = ["CheckResult", "run_battery"]

SWEEP_H = (0.2, 0.14, 0.1, 0.07, 0.05)   # h of the two exponent fits
LANDAU_H = 0.5   # the free lattice's h; its lowest Landau level is h


@dataclass
class CheckResult:
    name: str
    status: str   # pass | fail | skip
    detail: str


def _check(name, fn, results):
    try:
        ok, detail = fn()
        results.append(CheckResult(name, "pass" if ok else "fail", detail))
    except _Skip as s:
        results.append(CheckResult(name, "skip", str(s)))
    except Exception as exc:
        results.append(CheckResult(name, "fail",
                                   f"{type(exc).__name__}: {exc}"))


class _Skip(Exception):
    pass


def run_battery(config, quick=False, landau_delta=None):
    # a bad spacing is a config error, not one more failed check
    if landau_delta is not None and not 0 < landau_delta < math.inf:
        raise ValueError(f"need finite delta > 0 (got {landau_delta})")
    _landau_rungs(LANDAU_H, landau_delta)   # too coarse, or too many nodes
    well, L = config.well, config.L
    results = []
    # each stage once per battery, never across calls
    pipe = Pipeline(config)
    try:
        pipe.action
    except WellValidationError:
        raise   # a config error, not a row of failed checks
    except Exception:
        pass   # the checks that read the action report it
    cases = {h: Case(pipe, h) for h in (0.5, 0.3, 0.1)}
    route_h = (0.5,) if quick else (0.5, 0.3)   # h of both hopping checks

    def landau():
        sol = solve_fiber(FiberProblem(m=0, h=1.0, R=19.0, n=5000),
                          k=1, tol=1e-9)
        fiber_ok = abs(sol.e_sw - 1.0) <= 1e-6
        e2d, _ = landau_level_2d(LANDAU_H, delta=landau_delta)
        # the O(delta^4) left after the delta^2 extrapolation: it grows with
        # the grid, to -1.99e-6 at the coarsest one allowed, sqrt(0.5)/6
        # (measured over grids 0.04-0.1179), so 1e-5 keeps a 5x margin
        lat_ok = abs(e2d - LANDAU_H) / LANDAU_H <= 1e-5
        return fiber_ok and lat_ok, (
            f"fiber |lam1 - 1| = {abs(sol.e_sw - 1.0):.1e}, "
            f"lattice rel {(e2d - LANDAU_H) / LANDAU_H:+.2e}")

    def oscillator():
        mus = (1.0,) if quick else (0.5, 1.0, 2.0)
        worst = 0.0
        for mu in mus:
            target = math.sqrt(1.0 + 4.0 * mu)
            for m in (0, 1, 2):
                sol = solve_fiber(
                    FiberProblem(m=m, h=1.0, R=12.0, n=2250,
                                 v0=lambda r, mu=mu: mu * r * r),
                    k=1, tol=1e-7 if m else 1e-8)
                pred = target + (target - 1.0) * m
                worst = max(worst, abs(sol.e_sw - pred))
        return worst <= 1e-6, f"max deviation {worst:.2e}"

    def sweep_point(h):
        case = cases[h] if h in cases else Case(pipe, h)
        g = case.ground
        return h, g.e_sw, g.energy_error, wkb_profile_error(case)

    @functools.cache
    def sweep_columns():
        """h, e_sw, its error and the WKB profile error at each SWEEP_H, for
        both exponent fits: a sweep ground state outside the held cases is
        dropped as soon as it is read."""
        return np.array([sweep_point(h) for h in SWEEP_H]).T

    def harmonic():
        hs, e_sw, e_err, _ = sweep_columns()
        rep = harmonic_expansion_check(well, hs, e_sw, e_err)
        if rep.floor_reached:
            raise _Skip(rep.message)
        # window about the h^2 law, tuned to the bump: p 1.844 (ROADMAP 14)
        return 1.4 <= rep.exponent <= 2.1, f"p = {rep.exponent:.3f}"

    def wkb_q():
        hs, _, _, errors = sweep_columns()
        q = wkb_error_exponent(hs, errors)
        # window tuned to the bump, not derived: q 0.599 (ROADMAP 5, 14)
        return 0.4 <= q <= 1.1, f"q = {q:.3f}"

    def reality():
        frac = max(abs(cases[h].w_direct.imag) / abs(cases[h].w_direct)
                   for h in route_h)
        # w is real by symmetry, so Im w is rounding: 2.0e-16 to 8.0e-15
        return frac <= 1e-8, f"|Im w|/|w| = {frac:.1e}"

    def routes():
        # measured at h 0.5 and 0.3: at most 2.2e-10 at depth 0.5-4, L
        # 3.5-5, 6.4e-10 at L 8.5 and 5.2e-9 at L 12; anywhere at h >= 0.15,
        # L <= 5 the gap is at most 7.2e-9
        worst = 0.0
        for h in route_h:
            wd, wb = cases[h].w_direct, cases[h].w_bessel
            worst = max(worst, abs(wd.real - wb) / abs(wb))
        return worst <= 1e-8, f"max rel route gap {worst:.1e}"

    def psi_min():
        # S's closed-form minimizer and Psi there, against the search
        s_plus, ref = pipe.action.s_plus, pipe.action.psi_min
        A2, B = _saddle_quadratic(well, L)
        resid = abs(A2 * s_plus**2 - B * s_plus + well.depth**2) / \
            (A2 * s_plus**2)
        _, _, val = psi_global_min(pipe.profile)
        # floors of double precision: 1.6e-16 to 3.5e-16, and 0 to 2.0e-16
        ok = (abs(val - ref) <= 1e-6 * abs(ref)) and resid <= 1e-10
        return ok, f"grid-vs-closed-form {abs(val-ref)/abs(ref):.1e}, " \
                   f"root residual {resid:.1e}"

    def corridors():
        rep = pipe.action   # sharp_action enforces the corridor, S0 and Sa
        chain = rep.Sa < rep.Shat < min(rep.S0, rep.Sa + L * well.a / 2.0)
        ok = chain and rep.interaction_matrix_ok()
        return ok, (f"Sa={rep.Sa:.4f} < S={rep.S:.4f} <= "
                    f"Shat={rep.Shat:.4f} < S0={rep.S0:.4f}")

    def outer_rep():
        sol, outer = cases[0.1].ground, cases[0.1].outer
        rhos = np.linspace(well.a, L + 1.0, 13)
        worst = float(np.max(np.abs(
            np.exp(outer.log_u(rhos) - sol.log_u(rhos)) - 1.0)))
        # measured at h 0.1: at most 2.0e-7 at depth 0.5-4, L 3.5-5, 1.0e-6
        # at L 8.5 and 6.5e-6 at L 12
        return worst <= 1e-5, f"max rel {worst:.1e} on [a, L+1]"

    def splitting_gap():
        if quick:
            raise _Skip("quick mode")
        if not config.fsw_condition:
            raise _Skip("fsw condition false for this config")
        rep = gap_vs_hopping(pipe, [1.2, 1.0])
        rows = rep.resolvable_rows()
        if not rows:
            raise _Skip("skipped(floor): gap below eigensolver floor")
        # gap / 2|w| = 1 + O(h): 1.027-1.135 on the default grid (ROADMAP 14)
        ok = all(rep.corridor[0] <= r.h_ln_gap <= rep.corridor[1]
                 and 0.5 <= r.ratio <= 2.0 for r in rows)
        return ok, f"ratios {[round(float(r.ratio), 3) for r in rows]}"

    _check("landau_level", landau, results)
    _check("oscillator", oscillator, results)
    _check("harmonic_exponent", harmonic, results)
    _check("wkb_exponent", wkb_q, results)
    _check("hopping_reality", reality, results)
    _check("route_agreement", routes, results)
    _check("psi_minimizer", psi_min, results)
    _check("action_corridor", corridors, results)
    _check("outer_representation", outer_rep, results)
    _check("splitting_gap", splitting_gap, results)
    return results
