import math

import numpy as np
import pytest

from magtun import (FiberProblem, RadialWell, agmon_identity_check,
                    default_radius, ground_state, harmonic_expansion_check,
                    solve_fiber)
from magtun.spectral import _bisection_levels, _default_n, _ground_levels

SQRT5 = math.sqrt(5.0)


def test_landau_levels():
    sol = solve_fiber(FiberProblem(m=0, h=1.0, R=16.0, n=8000), k=1,
                      tol=1e-8)
    assert sol.e_sw == pytest.approx(1.0, abs=1e-6)
    for m, expected in ((1, 1.0), (2, 1.0), (-1, 3.0), (-2, 5.0)):
        s = solve_fiber(FiberProblem(m=m, h=1.0, R=16.0, n=8000), k=1,
                        tol=1e-8)
        assert s.e_sw == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
def test_magnetic_oscillator(mu):
    target = math.sqrt(1.0 + 4.0 * mu)
    sol = solve_fiber(FiberProblem(m=0, h=1.0, R=12.0, n=9000,
                                   well=lambda r: mu * r * r), k=1, tol=1e-8)
    assert sol.e_sw == pytest.approx(target, abs=1e-6)


@pytest.mark.parametrize("m", [1, 2])
def test_oscillator_fiber_identity(m):
    # lambda_1(H_{m,mu}) = sqrt(1+4mu) lambda_1(H_{m,0}) + (sqrt(1+4mu)-1) m
    mu = 1.0
    root = math.sqrt(5.0)
    osc = solve_fiber(FiberProblem(m=m, h=1.0, R=12.0, n=9000,
                                   well=lambda r: mu * r * r), k=1, tol=1e-7)
    free = solve_fiber(FiberProblem(m=m, h=1.0, R=16.0, n=8000), k=1,
                       tol=1e-7)
    assert osc.e_sw == pytest.approx(root * free.e_sw + (root - 1) * m,
                                     abs=1e-6)


def test_oscillator_scaling_relation():
    # the pure-oscillator rescaling r -> (1+4mu)^{1/4} r maps fibers exactly
    mu = 2.0
    root = math.sqrt(1 + 4 * mu)
    for m in (-1, 0, 1):
        osc = solve_fiber(FiberProblem(m=m, h=1.0, R=12.0, n=9000,
                                       well=lambda r: mu * r * r),
                          k=2, tol=1e-7)
        free = solve_fiber(FiberProblem(m=m, h=1.0, R=16.0, n=8000), k=2,
                           tol=1e-7)
        pred = root * free.energies + (root - 1) * m
        assert np.allclose(osc.energies, pred, atol=1e-6)


def test_ground_state_harmonic_prediction(well, case):
    sol = case(well, 0.05).ground
    pred = -1.0 + 0.05 * SQRT5
    assert abs(sol.e_sw - pred) <= 0.05**1.5  # fitted prefactor is O(1)
    assert sol.e_sw == pytest.approx(-0.8861991, abs=1e-5)


def test_mode_gap(well, case):
    sol = case(well, 0.05).ground
    gaps = {m: e - sol.e_sw for m, e in sol.fiber_energies.items() if m != 0}
    assert min(gaps.values()) >= 0.05  # every other fiber at least h above


@pytest.mark.parametrize("h", [0.3, 0.05])
def test_negative_fibers_from_shift_identity(well, case, h):
    # fiber -m is fiber m shifted by 2hm, so ground_state derives it
    sol = case(well, h).ground
    n_scan = max(_default_n(sol.R, delta=1e-3), 4000)
    for m in (1, 2):
        direct = solve_fiber(FiberProblem(m=-m, h=h, R=sol.R, n=n_scan,
                                          well=well),
                             k=1, tol=1e-6, clean_tail=False).e_sw
        assert abs(sol.fiber_energies[-m] - direct) <= 1e-8


def test_normalization_and_positivity(well, case):
    sol = case(well, 0.1).ground
    assert sol.norm_check() == pytest.approx(1.0, abs=1e-8)
    assert np.all(sol.u[:-3] > 0.0)


def test_grid_doubling_converged(well, case):
    assert case(well, 0.1).ground.energy_error <= 1e-8


def test_fiber_problem_validation(well):
    with pytest.raises(ValueError):
        FiberProblem(m=0, h=1.0, R=16.0, n=100)
    with pytest.raises(ValueError):
        FiberProblem(m=0, h=1.0, R=2.0, n=1000)


def test_harmonic_exponent(well, case):
    hs = [0.2, 0.14, 0.1, 0.07, 0.05]
    sols = [case(well, h).ground for h in hs]
    rep = harmonic_expansion_check(well, hs, [s.e_sw for s in sols],
                                   [s.energy_error for s in sols])
    assert not rep.floor_reached
    assert 1.4 <= rep.exponent <= 2.1


def test_harmonic_check_validation(well):
    with pytest.raises(ValueError):
        harmonic_expansion_check(well, [0.1, 0.05], [-0.8, -0.9], [0, 0])
    with pytest.raises(ValueError):
        harmonic_expansion_check(well, [0.5, 0.4, 0.3, 0.2, 0.1],
                                 [0.0] * 5, [0.0] * 5)


def test_pure_quadratic_residual_zero():
    # with v0 = v0_min + mu r^2 the harmonic expansion is exact
    mu, h = 1.0, 0.1
    sol = solve_fiber(FiberProblem(m=0, h=h, R=8.0, n=8000,
                                   well=lambda r: -1.0 + mu * r * r),
                      k=1, tol=1e-9)
    assert sol.e_sw == pytest.approx(-1.0 + h * math.sqrt(5.0), abs=1e-8)


def test_second_eigenvalue_tracks_fiber_prediction(well):
    # lambda_2 of the full operator = v0_min + h lambda_2(L_mu^mag) + O(h^1.5)
    h, mu = 0.05, 1.0
    fibers = []
    for m in range(-2, 3):
        s = solve_fiber(FiberProblem(m=m, h=1.0, R=12.0, n=9000,
                                     well=lambda r: mu * r * r), k=2,
                        tol=1e-7)
        fibers.extend(s.energies.tolist())
    lam2 = sorted(fibers)[1]
    ops = []
    for m in range(-2, 3):
        s = solve_fiber(FiberProblem(m=m, h=h, R=9.0, n=20000, well=well),
                        k=2, tol=1e-7)
        ops.extend(s.energies.tolist())
    e2 = sorted(ops)[1]
    assert abs(e2 - (-1.0 + h * lam2)) <= 3.0 * h**1.5


def test_agmon_identity_phi_zero(well, case):
    sol = case(well, 0.1).ground
    rep = agmon_identity_check(sol, np.zeros_like(sol.grid))
    assert rep.residual <= 1e-6


def test_agmon_identity_weighted(well, profile4, case):
    sol = case(well, 0.1).ground
    delta = 0.2
    rep = agmon_identity_check(
        sol, lambda r: (1 - delta) * profile4.d(r),
        phi_prime=lambda r: (1 - delta) * profile4.integrand(r))
    # the (w - E)-shifted left side vanishes for an exact eigenfunction:
    # nonnegative within tolerance
    assert rep.lhs - rep.rhs >= -1e-6 * (abs(rep.lhs) + abs(rep.rhs))
    assert np.isfinite(rep.weighted_sup)
    assert np.isfinite(rep.weighted_mass)


def test_weighted_mass_stable_under_radius_growth(well, profile4):
    h, delta = 0.1, 0.2
    reps = []
    for R in (8.0, 10.0):
        sol = solve_fiber(FiberProblem(m=0, h=h, R=R, n=_default_n(R),
                                       well=well))
        reps.append(agmon_identity_check(
            sol, lambda r: (1 - delta) * profile4.d(r),
            phi_prime=lambda r: (1 - delta) * profile4.integrand(r)))
    assert reps[0].weighted_mass == pytest.approx(reps[1].weighted_mass,
                                                  rel=1e-6)
    assert reps[0].weighted_sup == pytest.approx(reps[1].weighted_sup,
                                                 rel=1e-6)


def test_ground_energy_simple(well):
    # gap to the second m=0 eigenvalue scales like h (harmonic level spacing)
    h = 0.1
    sol = solve_fiber(FiberProblem(m=0, h=h, R=9.0, n=20000, well=well),
                      k=2, tol=1e-7)
    gap = sol.energies[1] - sol.energies[0]
    assert gap >= 1.0 * h  # expected 2 sqrt(5) h ~ 4.5 h


@pytest.mark.parametrize("depth, L, h", [(4.0, 4.815770, 0.428161),
                                         (1.0, 8.6, 1.2195),
                                         (1.0, 8.6, 1.229),
                                         (1.0, 8.6, 1.2495)])
def test_ground_state_converges_at_isolated_h(depth, L, h):
    # here the eps |T| noise of a float64 bisection exceeds the change the
    # Richardson rule accepts for a grid doubling, so a solve on bisection
    # never converges
    sol = ground_state(RadialWell.bump(depth=depth, a=1.0), h, L=L)
    assert sol.energy_error <= 1e-8


def _sturm_level(diag, off, lo, hi, k=1, points=32, width=1e-12):
    """Bracket of the k-th lowest eigenvalue by np.longdouble Sturm counts."""
    e2 = off.astype(np.longdouble) ** 2

    def below(xs):   # eigenvalue count below each x
        q = diag.astype(np.longdouble)[:, None] - xs
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(1, len(q)):
                q[i] -= e2[i - 1] / q[i - 1]
        return (q < 0).sum(axis=0)

    lo, hi = np.longdouble(lo), np.longdouble(hi)
    assert list(below(np.array([lo, hi]))) == [k - 1, k]
    while hi - lo > width:
        xs = lo + (hi - lo) * np.arange(1, points + 1,
                                        dtype=np.longdouble) / (points + 1)
        j = int(np.searchsorted(below(xs), k))
        lo, hi = (xs[j - 1] if j else lo), (xs[j] if j < points else hi)
    return lo, hi


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="np.longdouble is not extended precision here")
def test_ground_eigenvalue_matches_extended_precision(well):
    # the second grid, seeded from the first; float64 bisection of the same
    # matrix is off by about 1e-9
    levels = _ground_levels(FiberProblem(m=0, h=0.3, R=8.0, n=34642,
                                         well=well))
    next(levels)
    vals, _, diag, off, _, _ = next(levels)
    assert len(diag) == 69284
    lo, hi = _sturm_level(diag, off, vals[0] - 1e-7, vals[0] + 1e-7)
    assert abs(float(vals[0] - lo)) <= 1e-10


def _spectrum(capsys, *argv):
    from magtun import cli
    assert cli.main(["spectrum", *argv]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    return {(int(m), int(j)): float(e)
            for m, j, e in (row.split(",") for row in rows)}


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="np.longdouble is not extended precision here")
def test_several_levels_match_extended_precision(well, capsys):
    # bisection's own eigenvalues drift by up to 1e-6 from grid to grid at
    # h 1.0, which once made this command fail its Richardson tolerance;
    # their vectors' Rayleigh quotients converge
    argv = ("--h", "1.0", "--modes", "2")
    two = _spectrum(capsys, *argv, "--levels", "2")
    one = _spectrum(capsys, *argv, "--levels", "1")
    for m in range(-2, 3):
        assert abs(two[(m, 1)] - one[(m, 1)]) <= 1e-8
    # both levels of m = 0 on the finest grid of the same solve; bisection
    # itself is off by 2e-8 and 3e-9 there
    R = default_radius(well, 1.0)
    problem = FiberProblem(m=0, h=1.0, R=R, n=max(int(R / 1e-3), 4000),
                           well=well)
    n_final = solve_fiber(problem, k=2).n
    for vals, _, diag, off, _, _ in _bisection_levels(problem, 2):
        if len(diag) == n_final:
            break
    for k in (1, 2):
        lam = vals[k - 1]
        lo, hi = _sturm_level(diag, off, lam - 1e-7, lam + 1e-7, k=k)
        assert abs(float(lam - lo)) <= 1e-10
