import math
import re

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from magtun import (FiberProblem, RadialWell, agmon_identity_check,
                    default_radius, ground_state, harmonic_expansion_check,
                    solve_fiber, spectral)
from magtun.numerics import symm_tridiag_lowest
from magtun.spectral import (GROUND_DELTA, GROUND_TOL, MIN_NODES,
                             PILOT_TOL, SCAN_DELTA, _bisection_levels,
                             _default_n, _ground_levels)

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
                                   v0=lambda r: mu * r * r), k=1, tol=1e-8)
    assert sol.e_sw == pytest.approx(target, abs=1e-6)


@pytest.mark.parametrize("m", [1, 2])
def test_oscillator_fiber_identity(m):
    # lambda_1(H_{m,mu}) = sqrt(1+4mu) lambda_1(H_{m,0}) + (sqrt(1+4mu)-1) m
    mu = 1.0
    root = math.sqrt(5.0)
    osc = solve_fiber(FiberProblem(m=m, h=1.0, R=12.0, n=9000,
                                   v0=lambda r: mu * r * r), k=1, tol=1e-7)
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
                                       v0=lambda r: mu * r * r),
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


def test_default_grid_within_node_bounds():
    # every default grid, the m = 0 solve's included, has FiberProblem's floor
    assert _default_n(0.5, GROUND_DELTA) == MIN_NODES
    assert _default_n(1e4, GROUND_DELTA) == spectral.MAX_NODES
    # a non-finite R gets the cap too, for FiberProblem to reject
    assert _default_n(math.inf, GROUND_DELTA) == spectral.MAX_NODES
    assert _default_n(math.nan, GROUND_DELTA) == spectral.MAX_NODES


@pytest.mark.parametrize("h", [0.3, 0.05])
def test_negative_fibers_from_shift_identity(well, case, h):
    # fiber -m is fiber m shifted by 2hm, so ground_state derives it
    sol = case(well, h).ground
    R = sol.problem.R
    n_scan = _default_n(R, SCAN_DELTA)
    for m in (1, 2):
        direct = solve_fiber(FiberProblem(m=-m, h=h, R=R, n=n_scan,
                                          v0=well.v0),
                             k=1, tol=1e-6).e_sw
        assert abs(sol.fiber_energies[-m] - direct) <= 1e-8


@pytest.mark.parametrize("depth", [0.5, 4.0])
@pytest.mark.parametrize("L", [4.0, 12.0])
@pytest.mark.parametrize("h", [0.015, 0.3, 1.4])
def test_coarse_scans_match_finer_start(depth, L, h):
    # ground_state's m = 1, 2 scans start at SCAN_DELTA: each converges
    # within MAX_DOUBLINGS (solve_fiber raises AccuracyError otherwise) and
    # lands within its tolerance of the same scan started at 8e-3
    well = RadialWell.bump(depth=depth, a=1.0)
    R = default_radius(well, h, L=L)
    for m in (1, 2):
        coarse, fine = (solve_fiber(FiberProblem(
            m=m, h=h, R=R, n=_default_n(R, delta), v0=well.v0),
            tol=100 * GROUND_TOL) for delta in (SCAN_DELTA, 8e-3))
        assert abs(coarse.e_sw - fine.e_sw) <= 100 * GROUND_TOL


def test_normalization_and_positivity(well, case):
    sol = case(well, 0.1).ground
    assert sol.norm_check() == pytest.approx(1.0, abs=1e-8)
    assert np.all(sol.u[:-3] > 0.0)
    # u is stored once, as its log
    assert np.array_equal(sol.u, np.exp(sol.log_profile))


def test_grid_doubling_converged(well, case):
    assert case(well, 0.1).ground.energy_error <= 1e-8


def test_ground_state_solve_size(well, case):
    # the doubling stops on the extrapolated energies, not the raw ones:
    # a quarter of the 69,284 nodes the raw rule took at this input
    sol = case(well, 0.3).ground
    assert sol.n <= 69_284 // 4
    assert sol.energy_error <= GROUND_TOL


def test_log_u_matches_scipy_spline(well, case):
    # log_u (numerics._spline) is scipy's not-a-knot spline of the
    # log-profile bit for bit, on and off the grid and at the knots and
    # their neighbours, for arrays and scalars
    sol = case(well, 0.3).ground
    x = sol.grid
    spline = CubicSpline(x, sol.log_profile)
    rng = np.random.default_rng(1)
    rho = np.concatenate([rng.uniform(-0.1, sol.problem.R + 0.1, 10**6), x,
                          np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    assert np.array_equal(sol.log_u(rho), spline(rho))
    assert sol.log_u(1.0) == spline(1.0)


def test_profile_built_only_when_read(well, monkeypatch):
    # of ground_state's three solves only the m = 0 one has its profile
    # read, each profile from the solve's last two levels; a bare solve
    # builds none until u is read, then keeps it and drops the levels
    calls = []
    log_profile = spectral._log_profile
    monkeypatch.setattr(spectral, "_log_profile",
                        lambda *a: calls.append(1) or log_profile(*a))
    ground_state(well, 0.3, L=4.0).u
    assert len(calls) == 2
    sol = solve_fiber(FiberProblem(m=0, h=1.0, R=16.0, n=2000), k=1,
                      tol=1e-8)
    assert len(calls) == 2
    assert sol.u is sol.u
    assert len(calls) == 4
    assert not hasattr(sol, "_levels")


def test_one_matrix_per_level(well, monkeypatch):
    # each of ground_state's solves (m = 1, 2 and 0) builds one matrix for
    # its pilot, unless the pilot grid is the first level's, and one per
    # level, in doubling order, all from one set of index factors on 4n
    # nodes; reading the profile builds none
    calls, factors = [], []
    tridiag, index_factors = spectral._fiber_tridiag, spectral._index_factors
    monkeypatch.setattr(spectral, "_fiber_tridiag", lambda problem, n, ix: (
        calls.append((problem, n)) or tridiag(problem, n, ix)))
    monkeypatch.setattr(spectral, "_index_factors", lambda n: (
        factors.append(n) or index_factors(n)))
    sol = ground_state(well, 0.1, L=4.0)
    built = list(calls)
    sol.u
    assert calls == built
    problems = list(dict.fromkeys(p for p, _ in built))
    assert [p.m for p in problems] == [1, 2, 0]
    assert factors == [4 * p.n for p in problems]
    for p in problems:
        sizes = [n for q, n in built if q is p]
        pilot = max(p.n // 8, 400)
        assert sizes == [pilot] * (pilot != p.n) + \
            [p.n * 2**j for j in range(len(sizes) - (pilot != p.n))]
    assert sizes[-1] == sol.n
    # a prefix of the factors gives the matrix of fresh ones, bit for bit
    big = index_factors(4 * p.n)
    for n in (pilot, p.n, 2 * p.n):
        for a, b in zip(tridiag(p, n, big), tridiag(p, n, index_factors(n))):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("m, h, n", [(0, 0.3, 4000), (1, 0.05, 400),
                                     (2, 1.0, 5000)])
def test_pilot_takes_eigenvalues_only(well, monkeypatch, m, h, n):
    # the pilot's lambda_0 and gap come from a bisection to PILOT_TOL
    # max|diag|, without eigenvectors: within that of symm_tridiag_lowest
    pilots = []
    values = spectral._tridiag_lowest_values
    monkeypatch.setattr(spectral, "_tridiag_lowest_values",
                        lambda d, o, k, tol: (pilots.append((d, o, k, tol))
                                              or values(d, o, k, tol)))
    monkeypatch.setattr(spectral, "symm_tridiag_lowest", None)
    next(_ground_levels(FiberProblem(m=m, h=h, R=14.0, n=n, v0=well.v0)))
    (d, o, k, tol), = pilots
    assert len(d) == max(n // 8, MIN_NODES) and k == 2
    assert tol == PILOT_TOL * np.abs(d).max()
    exact = symm_tridiag_lowest(d, o, 2)[0]
    assert np.all(np.abs(values(d, o, k, tol) - exact) <= tol)


@pytest.mark.parametrize("depth, L, h", [(4.0, 5.0, 0.01), (1.0, 4.0, 0.02)])
def test_log_tail_below_underflow(depth, L, h):
    # the log profile goes on falling past exp(-738), where u underflows
    log_u = ground_state(RadialWell.bump(depth, 1.0), h, L=L).log_profile
    assert np.isfinite(log_u).all()
    tail = log_u[int(np.argmax(log_u)):]
    assert np.all(np.diff(tail) < 0.0)
    assert log_u[-1] < -738.0


def test_tail_block_not_definite_is_typed(well):
    # an energy above the tail block's diagonal leaves no forbidden region
    sol = solve_fiber(FiberProblem(m=0, h=0.1, R=10.0, n=4000, v0=well.v0))
    level = sol._levels[1]
    with pytest.raises(spectral.NumericalError, match="not positive"):
        spectral._log_profile(level, float(level[2].max()) + 1.0)


def test_spectral_holds_no_scipy():
    # numerics is the one module that calls LAPACK (scipy's compiled
    # _flapack, loaded from its file)
    for name, obj in vars(spectral).items():
        owner = getattr(obj, "__module__", None) or getattr(obj, "__name__",
                                                            "")
        assert not str(owner).startswith("scipy"), name


def test_fiber_problem_validation(well):
    with pytest.raises(ValueError):
        FiberProblem(m=0, h=1.0, R=16.0, n=100)
    with pytest.raises(ValueError):
        FiberProblem(m=0, h=1.0, R=2.0, n=1000)


@pytest.mark.parametrize("h, R, n, tol, message", [
    (math.nan, 20.0, 8000, GROUND_TOL, "h > 0 (got nan)"),
    (1.0, 16.0, 0, GROUND_TOL, "n >= 400"),
    (1.0, 0.0, MIN_NODES, GROUND_TOL, "R=0.0 too small"),
    (1.0, math.inf, 8000, GROUND_TOL, "need finite R (got inf)"),
    (1.0, math.nan, 8000, GROUND_TOL, "need finite R (got nan)"),
    (1.0, 1e300, 8000, GROUND_TOL, "need finite R^2 (got R=1e+300)"),
    (1.0, 1e308, 8000, GROUND_TOL, "need finite R^2 (got R=1e+308)"),
    (1.0, 16.0, 8000, 0.0, "need finite tol > 0 (got 0.0)"),
    (1.0, 16.0, 8000, -1.0, "need finite tol > 0 (got -1.0)"),
    (1.0, 16.0, 8000, math.nan, "need finite tol > 0 (got nan)")],
    ids=["h-nan", "grid-0", "radius-0", "radius-inf", "radius-nan",
         "radius-1e300", "radius-1e308", "tol-0", "tol-negative", "tol-nan"])
def test_fiber_input_rejected(well, h, R, n, tol, message):
    # each is a ValueError, so exit 2 and one line on the command line
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_fiber(FiberProblem(m=0, h=h, R=R, n=n, v0=well.v0), tol=tol)


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
                                   v0=lambda r: -1.0 + mu * r * r),
                      k=1, tol=1e-9)
    assert sol.e_sw == pytest.approx(-1.0 + h * math.sqrt(5.0), abs=1e-8)


def test_second_eigenvalue_tracks_fiber_prediction(well):
    # lambda_2 of the full operator = v0_min + h lambda_2(L_mu^mag) + O(h^1.5)
    h, mu = 0.05, 1.0
    fibers = []
    for m in range(-2, 3):
        s = solve_fiber(FiberProblem(m=m, h=1.0, R=12.0, n=9000,
                                     v0=lambda r: mu * r * r), k=2,
                        tol=1e-7)
        fibers.extend(s.energies.tolist())
    lam2 = sorted(fibers)[1]
    ops = []
    for m in range(-2, 3):
        s = solve_fiber(FiberProblem(m=m, h=h, R=9.0, n=20000, v0=well.v0),
                        k=2, tol=1e-7)
        ops.extend(s.energies.tolist())
    e2 = sorted(ops)[1]
    assert abs(e2 - (-1.0 + h * lam2)) <= 3.0 * h**1.5


def test_agmon_identity_phi_zero(well, case):
    sol = case(well, 0.1).ground
    rep = agmon_identity_check(sol, np.zeros_like, np.zeros_like)
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
        sol = solve_fiber(FiberProblem(m=0, h=h, R=R,
                                       n=_default_n(R, GROUND_DELTA),
                                       v0=well.v0))
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
    sol = solve_fiber(FiberProblem(m=0, h=h, R=9.0, n=20000, v0=well.v0),
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
                                         v0=well.v0))
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
                           v0=well.v0)
    n_final = solve_fiber(problem, k=2).n
    for vals, _, diag, off, _, _ in _bisection_levels(problem, 2):
        if len(diag) == n_final:
            break
    for k in (1, 2):
        lam = vals[k - 1]
        lo, hi = _sturm_level(diag, off, lam - 1e-7, lam + 1e-7, k=k)
        assert abs(float(lam - lo)) <= 1e-10
