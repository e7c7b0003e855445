import math
import subprocess
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.special

from magtun import (AccuracyError, AgmonProfile, FiberProblem, RadialWell,
                    default_radius, hopping_bessel, integrate, log_bessel_i0,
                    log_integral_exp, minimize_1d, solve_fiber,
                    symm_tridiag_lowest, w_chain)
from magtun import agmon, numerics, spectral, wkb
from magtun.numerics import _tridiag_ground_pair, gauss_legendre
from magtun.wkb import (T_BLOCK, Y_HI, OuterRepresentation, calibrate_outer,
                        log_outer_integrand)

# Bump well depth 1, a 1, L 4, outer check to L + 1, eta 0.05.  The values
# follow the fiber eigensolver through alpha = 1/2 - e_sw/2h: a shift of
# 1e-9 in e_sw moves log_W2 and log_W3 by 2e-9 to 4e-9.
FROZEN_W_BESSEL = {0.3: -6.056438260738497e-08, 0.5: -4.3908913659126126e-05}
FROZEN_W_CHAIN = {  # log_W1, log_W2, log_W3, log_W4 and W4 rebuilt
    0.3: (-17.614590573365238, -18.06672297576426, -18.15906770016447,
          -18.29786963604039, -18.29786963604039),
    0.5: (-11.643503741767983, -11.524955800014917, -11.642681505542296,
          -11.593131741125818, -11.593131741125818),
}


def test_integrate_polynomial():
    assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_integrate_action_closed_form():
    # int_0^4 sqrt(rho^2/4 + 1) = 2 sqrt5 + ln(2 + sqrt5)
    closed = 2 * math.sqrt(5) + math.log(2 + math.sqrt(5))
    val = integrate(lambda r: np.sqrt(r * r / 4 + 1), 0.0, 4.0)
    assert val == pytest.approx(closed, abs=1e-10)
    # independent midpoint-rule oracle
    n = 200001
    x = (np.arange(n) + 0.5) * (4.0 / n)
    mid = np.sum(np.sqrt(x * x / 4 + 1)) * 4.0 / n
    assert val == pytest.approx(mid, abs=1e-8)


def test_integrate_accuracy_error():
    with pytest.raises(AccuracyError) as exc:
        integrate(lambda x: np.sin(1.0 / np.maximum(x, 1e-300)), 0.0, 1.0)
    # the error carries the estimate and the missed |GL128 - GL64|
    assert exc.value.error_bound > numerics.QUAD_ABS_TOL + \
        numerics.QUAD_REL_TOL * abs(exc.value.estimate)


def test_integrate_matches_quadpack():
    # the Agmon integrand over its support, depth 0.1-8 and a 0.3-2
    from scipy.integrate import quad
    for depth in (0.1, 0.5, 1.0, 4.0, 8.0):
        for a in (0.3, 1.0, 2.0):
            f = AgmonProfile(RadialWell.bump(depth, a), 4.0 * a).integrand
            ref = quad(f, 0.0, a, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            assert integrate(f, 0.0, a) == pytest.approx(ref, rel=1e-14,
                                                         abs=0.0)


@pytest.fixture(scope="module")
def table_grids(well, profile4, amp6):
    """(x, y) on the four grids the tables use: the Agmon and WKB
    integrands, and the coarse and fine log profiles of a fiber solve."""
    rs = np.linspace(0.0, well.a, agmon.N_TABLE)
    ra = np.linspace(0.0, amp6.r_max, wkb.N_AMPLITUDE)
    R = default_radius(well, 0.3, L=4.0)
    problem = FiberProblem(m=0, h=0.3, R=R,
                           n=spectral._default_n(R, spectral.GROUND_DELTA),
                           v0=well.v0)
    sol = solve_fiber(problem)
    fiber = [(level[4], spectral._log_profile(level, sol.e_sw))
             for level in sol._levels]
    return [(rs, profile4.integrand(rs)), (ra, amp6.f(ra))] + fiber


def test_table_helpers_match_scipy(table_grids):
    # _cumulative_simpson and _spline are scipy's cumulative_simpson and
    # not-a-knot CubicSpline bit for bit: on the nodes, next to them, and
    # at random points within and past both ends
    from scipy.integrate import cumulative_simpson
    from scipy.interpolate import CubicSpline
    rng = np.random.default_rng(3)
    for x, y in table_grids:
        assert np.array_equal(numerics._cumulative_simpson(y, x),
                              cumulative_simpson(y, x=x, initial=0.0))
        pad = 0.1 * (x[-1] - x[0])
        pts = np.concatenate([x, np.nextafter(x, -np.inf),
                              np.nextafter(x, np.inf),
                              rng.uniform(x[0] - pad, x[-1] + pad, 10**5)])
        spline = numerics._spline(x, y)
        assert np.array_equal(spline(pts), CubicSpline(x, y)(pts))
        assert spline(x[1] + 0.5 * pad) == CubicSpline(x, y)(x[1] + 0.5 * pad)


def test_interval_matches_searchsorted():
    # _spline's interval search is searchsorted's clipped index exactly, on
    # uneven nodes too (where a guess can be many steps off), at the nodes,
    # next to them and past both ends
    rng = np.random.default_rng(5)
    for x in (np.sort(rng.uniform(-3.0, 3.0, 50)) ** 3,
              np.linspace(0.0, 2.0, 2001)):
        pts = np.concatenate([x, np.nextafter(x, -np.inf),
                              np.nextafter(x, np.inf),
                              rng.uniform(x[0] - 1.0, x[-1] + 1.0, 10**4),
                              [-np.inf, np.inf]])
        want = np.clip(np.searchsorted(x, pts, side="right") - 1, 0,
                       len(x) - 2)
        assert np.array_equal(numerics._interval(x, pts), want)
        assert numerics._interval(x, np.asarray(pts[7])) == want[7]


def test_minimize_parabola():
    res = minimize_1d(lambda x: x * x, -1.0, 1.0)
    assert abs(res.argmin) <= 1e-8
    res = minimize_1d(lambda x: (x - 0.3) ** 2 + 1.0, 0.0, 1.0)
    assert res.argmin == pytest.approx(0.3, abs=1e-7)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_minimize_prescan_is_one_array_call():
    shapes = []

    def f(x):
        shapes.append(np.shape(x))
        return (x - 0.3) ** 2

    res = minimize_1d(f, 0.0, 1.0)
    assert res.argmin == pytest.approx(0.3, abs=1e-7)
    # the pre-scan and every narrowing pass are array calls; only the two
    # endpoints are scalar calls
    assert len(shapes) > 3
    assert all(s == (numerics.PRESCAN,) for s in shapes[:-2])
    assert shapes[-2:] == [(), ()]
    with pytest.raises(TypeError):
        minimize_1d(lambda x: math.exp(x), 0.0, 1.0)   # scalar-only f
    with pytest.raises(TypeError):
        minimize_1d(lambda x: 1.0, 0.0, 1.0)   # array in, scalar out


def test_minimize_g0_interior(profile4):
    # brute-force grid scan oracle at 1e-4 resolution
    rs = np.arange(1e-4, 1.0, 1e-4)
    scan = profile4.g_eps(rs, 0.0)
    k = int(np.argmin(scan))
    res = minimize_1d(lambda r: profile4.g_eps(r, 0.0), 0.0, 1.0,
                      tol=1e-9)
    assert 0.0 < res.argmin < 1.0
    assert res.argmin == pytest.approx(rs[k], abs=2e-4)
    assert res.value <= scan[k] + 1e-12


def test_bessel_small():
    assert math.exp(log_bessel_i0(0.0)) == 1.0
    # 30-term series oracle
    z, acc, term = 1.0, 1.0, 1.0
    for k in range(1, 31):
        term *= (z * z / 4) / (k * k)
        acc += term
    i0 = math.exp(log_bessel_i0(1.0))
    assert i0 == pytest.approx(acc, rel=1e-14)
    assert i0 == pytest.approx(1.2660658777520084, rel=1e-12)


def test_bessel_against_scipy():
    # scipy's i0e on both of Cephes' branches, on the array and scalar paths
    near8 = [np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, 9.0)]
    z = np.concatenate([np.linspace(0.0, 8.0, 20001),
                        np.linspace(8.0, 200.0, 20001),
                        np.geomspace(1e-300, 1e308, 20001),
                        near8, [0.0, 5e-324, 1e308]])
    ours = log_bessel_i0(z)
    assert np.array_equal(ours, np.log(scipy.special.i0e(z)) + z)
    for x in near8 + [0.0, 5e-324, 1e308]:   # the scalar path
        assert log_bessel_i0(x) == np.log(scipy.special.i0e(x)) + x


def test_bessel_against_mpmath():
    # an oracle independent of scipy: |error| <= 4 eps max(1, |log I0|)
    # from 1e-300 to 1e300 and on both sides of Cephes' split at z = 8
    z = np.concatenate([np.geomspace(1e-300, 1e300, 121),
                        np.geomspace(1e-3, 1e3, 401),
                        np.linspace(0.0, 16.0, 301),
                        [np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0)]])
    ours = log_bessel_i0(z)
    with mpmath.workdps(30):
        worst = max(abs(mpmath.mpf(got) - ref) / max(1, abs(ref))
                    for got, ref in zip(ours, (
                        mpmath.log(mpmath.besseli(0, x)) for x in z)))
    assert worst <= 4 * np.finfo(float).eps


def test_logsumexp_against_scipy():
    rng = np.random.default_rng(5)
    for n in [1, 2, 3, 7, 8, 9, 16, 40, 128, 129, 300] * 60:
        a = rng.normal(0.0, 10.0 ** rng.uniform(-1, 3), n)
        if rng.random() < 0.5:   # tied maxima
            a[rng.integers(0, n, rng.integers(1, 4))] = a.max()
        b = 10.0 ** rng.uniform(-30, 5, n)
        assert numerics.logsumexp(a, b) == scipy.special.logsumexp(a, b=b)


def test_bessel_log_large():
    # leading asymptotics z - ln sqrt(2 pi z); correction O(1/z)
    z = 500.0
    lead = z - 0.5 * math.log(2 * math.pi * z)
    val = log_bessel_i0(z)
    assert abs(val - lead) < 1.0 / z * 2
    # series-in-log-space oracle at z = 50 (exp-scaled scipy series)
    assert log_bessel_i0(50.0) == pytest.approx(
        math.log(scipy.special.i0e(50.0)) + 50.0, abs=1e-12)


def test_bessel_envelope_instantiation():
    # c1 e^z/(sqrt(2 pi z)+1) <= I0(z) <= c2 e^z/(sqrt(2 pi z)+1), z >= 1.
    # The ratio peaks at 1.634 near z = 1, so c2 = 1.3 is not conservative
    # enough; 1.7 is.
    z = np.linspace(1.0, 400.0, 400)
    log_env = z - np.log(np.sqrt(2 * np.pi * z) + 1.0)
    vals = log_bessel_i0(z)
    assert np.all(vals >= math.log(0.9) + log_env)
    assert np.all(vals <= math.log(1.7) + log_env)


def test_bessel_domain():
    with pytest.raises(ValueError):
        log_bessel_i0(np.array([1.0, -2.0]))


def test_tridiag_closed_form():
    vals, _ = symm_tridiag_lowest([2.0, 2.0, 2.0], [-1.0, -1.0], 3)
    assert np.allclose(vals, [2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)],
                       atol=1e-12)


def test_tridiag_dirichlet_laplacian():
    n = 100
    vals, _ = symm_tridiag_lowest(np.full(n, 2.0), np.full(n - 1, -1.0), 1)
    exact = 4 * math.sin(math.pi / (2 * (n + 1))) ** 2
    assert vals[0] == pytest.approx(exact, rel=1e-12)
    # scaled to the unit interval this is pi^2 (1 + O(n^-2))
    scaled = vals[0] * (n + 1) ** 2
    assert scaled == pytest.approx(math.pi**2, rel=1e-3)


def test_tridiag_identity():
    vals, _ = symm_tridiag_lowest(np.ones(5), np.zeros(4), 2)
    assert np.allclose(vals, [1.0, 1.0])


def test_tridiag_argument_error():
    with pytest.raises(ValueError):
        symm_tridiag_lowest([1.0, 2.0], [0.5], 3)


@pytest.mark.parametrize("n, k", [(1, 1), (2, 2), (7, 1), (7, 3), (500, 1),
                                  (500, 4)])
def test_tridiag_matches_scipy(n, k):
    # eigh_tridiagonal's select="i" path rebuilt from its LAPACK calls:
    # values and vectors, and values alone at a bisection tol, bit for bit
    from scipy.linalg import eigh_tridiagonal

    rng = np.random.default_rng(n + k)
    d, e = rng.normal(size=n), rng.normal(size=n - 1)
    vals, vecs = symm_tridiag_lowest(d, e, k)
    ref_vals, ref_vecs = eigh_tridiagonal(d, e, select="i",
                                          select_range=(0, k - 1))
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(vecs, ref_vecs)
    for tol in (0.0, 1e-6):
        assert np.array_equal(
            numerics._tridiag_lowest_values(d, e, k, tol),
            eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                             select_range=(0, k - 1), tol=tol))


def test_tridiag_rejects_non_finite():
    with pytest.raises(ValueError, match="infs or NaNs"):
        symm_tridiag_lowest([1.0, np.nan], [0.5], 1)


def test_tridiag_illegal_argument_is_a_value_error():
    # LAPACK's info < 0 is a bad call, not a numerical failure: dstebz's
    # 7th argument, the upper index, past n
    with pytest.raises(ValueError, match="illegal value in argument 7 "):
        numerics._eigh_tridiagonal(np.ones(3), np.full(2, 0.1), 5, 0.0,
                                   vectors=False)


def test_scipy_extension_names_a_missing_file():
    with pytest.raises(ImportError, match=r"scipy\.linalg\._absent .*_absent"):
        numerics._scipy_extension("linalg._absent")


def test_scipy_extension_without_scipy_is_an_import_error():
    with mock.patch("importlib.util.find_spec", return_value=None):
        with pytest.raises(ImportError, match="not installed") as err:
            numerics._scipy_extension("linalg._absent")
    assert err.value.name == "scipy"


_LATER_SCIPY_IMPORT = """
import sys
import numpy as np
from magtun import numerics, splitting2d
loaded = {name: name in sys.modules for name in (
    "scipy.linalg", "scipy.sparse", "scipy.special", "scipy.linalg._flapack",
    "scipy.special._special_ufuncs", "scipy.sparse._sparsetools",
    "scipy.sparse.linalg._dsolve._superlu")}
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.special
same = [scipy.linalg.lapack._flapack is numerics._flapack,
        scipy.linalg.lapack._flapack is sys.modules["scipy.linalg._flapack"],
        sys.modules["scipy.sparse._sparsetools"] is splitting2d._sparsetools,
        spla._dsolve.linsolve._superlu is splitting2d._superlu,
        scipy.special.i0e is sys.modules["scipy.special._special_ufuncs"].i0e,
        scipy.special.i0e is numerics.i0e]
rng = np.random.default_rng(1)
d, e = rng.normal(size=300), rng.normal(size=299)
vals, vecs = numerics.symm_tridiag_lowest(d, e, 3)
ref = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 2))
same += [np.array_equal(vals, ref[0]), np.array_equal(vecs, ref[1])]
lat = splitting2d.assemble(None, 0.5, delta=0.1)
(block,), _ = splitting2d._rotation_sectors(lat, 4, 0.45, (1,))
A = sp.csc_matrix((block.data, block.indices, block.indptr),
                  shape=block.shape)
b = rng.normal(size=block.shape[0]) + 0j
lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A",
               panel_size=splitting2d.PANEL_SIZE)
same.append(np.array_equal(splitting2d.splu(block).solve(b), lu.solve(b)))
print(loaded, same)
"""


def test_scipy_imports_after_the_by_path_modules():
    # the compiled modules enter sys.modules under their own names, with
    # no package above them; a later import of scipy.linalg and
    # scipy.sparse.linalg in the same process finds and uses them (the
    # lapack wrappers bind the sys.modules entry, though scipy.linalg has
    # no _flapack attribute), and its functions give the same bits
    proc = subprocess.run([sys.executable, "-c", _LATER_SCIPY_IMPORT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, same = proc.stdout.rsplit(" [", 1)
    assert loaded == str({
        "scipy.linalg": False, "scipy.sparse": False, "scipy.special": False,
        "scipy.linalg._flapack": True, "scipy.special._special_ufuncs": True,
        "scipy.sparse._sparsetools": True,
        "scipy.sparse.linalg._dsolve._superlu": True})
    assert same.strip() == ", ".join(["True"] * 9) + "]"


def test_far_end_pivots_recursion():
    # p[-1] = d[-1], p[i] = d[i] - e[i]^2 / p[i + 1]; their product is the
    # determinant, and an indefinite block is a NumericalError
    rng = np.random.default_rng(5)
    d = rng.uniform(2.5, 4.0, 40)
    e = rng.uniform(-1.0, 1.0, 39)
    p = numerics._far_end_pivots(d, e)
    ref = [d[-1]]
    for i in range(38, -1, -1):
        ref.insert(0, d[i] - e[i] ** 2 / ref[0])
    assert np.allclose(p, ref, rtol=1e-14, atol=0.0)
    dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.prod(p) == pytest.approx(np.linalg.det(dense), rel=1e-12)
    with pytest.raises(numerics.NumericalError, match="not positive"):
        numerics._far_end_pivots(d - 3.0, e)


@pytest.mark.parametrize("lam", [0.5, 1e-3])
def test_tridiag_ground_pair_dirichlet_laplacian(lam):
    # lam = 0.5 puts the first shift above lambda_0, so the positive-definite
    # solve fails and the shift has to retreat before iterating
    n = 100
    exact = 4 * math.sin(math.pi / (2 * (n + 1))) ** 2
    gap = 4 * math.sin(math.pi / (n + 1)) ** 2 - exact
    rho, x = _tridiag_ground_pair(np.full(n, 2.0), np.full(n - 1, -1.0),
                                  np.ones(n), lam, 1e-12, gap)
    assert rho == pytest.approx(exact, rel=1e-12)
    mode = np.sin(math.pi * np.arange(1, n + 1) / (n + 1))
    assert np.max(np.abs(x - mode / np.linalg.norm(mode))) <= 1e-12


def test_tridiag_ground_pair_scales_deep_matrices_exactly():
    # past 2^256 the iteration runs on T / 2^k, so T scaled by 2^600 gives
    # the same vector and 2^600 times the eigenvalue, bit for bit, where
    # Temple's squared residual would overflow
    n = 100
    exact = 4 * math.sin(math.pi / (2 * (n + 1))) ** 2
    gap = 4 * math.sin(math.pi / (n + 1)) ** 2 - exact
    args = (np.full(n, 2.0), np.full(n - 1, -1.0))
    rho, x = _tridiag_ground_pair(*args, np.ones(n), 1e-3, 1e-12, gap)
    big = [np.ldexp(v, 600) for v in args]
    rho_big, x_big = _tridiag_ground_pair(
        *big, np.ones(n), *(math.ldexp(v, 600) for v in (1e-3, 1e-12, gap)))
    assert rho_big == math.ldexp(rho, 600)
    assert np.array_equal(x_big, x)


def _matvec_ground_pair(diag, offdiag, x0, lam, margin, gap):
    """The inverse-iteration loop before its residual came from the solve:
    Temple's residual from the product T x and fresh arrays at every step.
    Norms sum the squares pairwise (np.sum), as _tridiag_ground_pair does.
    The reference for _tridiag_ground_pair."""
    top = np.abs(diag).max()
    x = np.asarray(x0, dtype=float)
    x = x / math.sqrt(np.sum(x * x))
    noise = np.finfo(float).eps * top
    rayleigh = numerics._tridiag_rayleigh(diag, offdiag)
    margin = max(margin, 16.0 * noise)
    for _ in range(numerics._MAX_SOLVES):
        *_, y, info = numerics.dptsv(diag - (lam - margin), offdiag, x,
                                     overwrite_d=1)
        if info != 0:
            margin *= 4.0
            continue
        y /= math.sqrt(np.sum(y * y))
        change = np.abs(y - x).max()
        x = y
        rho = float(rayleigh(x))
        if change <= 4.0 * noise / gap * np.abs(x).max():
            return rho, x
        tx = diag * x
        tx[:-1] += offdiag * x[1:]
        tx[1:] += offdiag * x[:-1]
        lam = rho
        margin = 2.0 * float(np.sum((tx - rho * x) ** 2)) / gap + 16.0 * noise
    raise AssertionError("reference loop did not converge")


def _fiber_case(m, h, n=2000):
    """A fiber matrix of the bump well (depth 1, a 1, L 4), a positive start
    from a fixed seed and the bisected lambda_0 and gap."""
    well = RadialWell.bump(1.0, 1.0)
    problem = FiberProblem(m=m, h=h, R=default_radius(well, h, L=4.0), n=n,
                           v0=well.v0)
    d, o, _, _ = spectral._fiber_tridiag(problem, n,
                                         spectral._index_factors(n))
    lam, lam1 = numerics._tridiag_lowest_values(d, o, 2, 0.0)
    x0 = np.random.default_rng(7).uniform(0.5, 1.5, n)
    return d, o, x0, lam, lam1 - lam


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("h", [0.05, 0.3, 1.0])
def test_ground_pair_matches_matvec_loop(m, h):
    # a first shift 1e-3 gap below lambda_0, as _ground_levels places it:
    # the residual from the solve leaves rho and x as they were, bit for bit
    d, o, x0, lam, gap = _fiber_case(m, h)
    rho, x = _tridiag_ground_pair(d, o, x0, lam, 1e-3 * gap, gap)
    rho_ref, x_ref = _matvec_ground_pair(d, o, x0, lam, 1e-3 * gap, gap)
    assert rho == rho_ref
    assert np.array_equal(x, x_ref)


def test_ground_pair_retreat_within_rounding():
    # the two residuals round differently, so a shift can move by rounding:
    # after a first shift above lambda_0 (m 1, h 0.05, 400 nodes) 94 tail
    # entries of x sit up to 6.3e-16 (2.8 eps) relative from the reference,
    # and rho is unchanged
    d, o, x0, lam, gap = _fiber_case(1, 0.05, n=400)
    x0 = np.random.default_rng(0).uniform(0.5, 1.5, len(d))
    args = (d, o, x0, lam + 0.01 * gap, 1e-3 * gap, gap)
    (rho, x), (rho_ref, x_ref) = (_tridiag_ground_pair(*args),
                                  _matvec_ground_pair(*args))
    assert rho == rho_ref
    eps = np.finfo(float).eps
    assert np.all(np.abs(x - x_ref) <= 8 * eps * np.abs(x_ref))


def test_tridiag_random_vs_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        d = rng.normal(size=50)
        e = rng.normal(size=49)
        vals, _ = symm_tridiag_lowest(d, e, 4)
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        ref = np.sort(np.linalg.eigvalsh(dense))[:4]
        assert np.max(np.abs(vals - ref)) < 1e-9


def test_log_integral_exp_gaussian():
    # int exp(-y^2/2) dy = sqrt(2 pi), as a one-row batch
    row = np.zeros((1, 1))
    val = log_integral_exp(lambda y: -0.5 * y * y + row, -40.0, 40.0)
    assert val.shape == (1,)
    assert val[0] == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-9)
    # shifted by a huge constant: pure log-space stability
    val = log_integral_exp(lambda y: -0.5 * y * y - 5000.0 + row, -40.0, 40.0)
    assert val[0] == pytest.approx(0.5 * math.log(2 * math.pi) - 5000.0,
                                   abs=1e-9)


def test_gauss_legendre_cached_read_only():
    x, w = gauss_legendre(50)
    assert gauss_legendre(50)[0] is x
    ref_x, ref_w = np.polynomial.legendre.leggauss(50)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    with pytest.raises(ValueError):
        x[0] = 0.0


def _gaussian_rows(centers, widths, dead=None):
    """Batched log-integrand: row k is a Gaussian of unit height at
    centers[k] scaled by e^-centers[k]; rows flagged dead are -inf."""
    c = np.asarray(centers, dtype=float)[:, None]
    s = np.asarray(widths, dtype=float)[:, None]
    dead = np.zeros_like(c, dtype=bool) if dead is None \
        else np.asarray(dead)[:, None]
    return lambda y: np.where(dead, -np.inf, -0.5 * ((y - c) / s) ** 2 - c)


def _recording(g):
    calls = []

    def rec(y):
        calls.append(y)
        return g(y)
    return rec, calls


def test_log_integral_exp_rows_match_scalar():
    # rows whose peaks, and so whose windows, differ; the last row is -inf
    # everywhere and must give -inf, not nan.  Each row alone, as a one-row
    # batch, must give the same value
    centers, widths = [-30.0, -2.0, 0.5, 17.0, 0.0], [0.1, 1.0, 3.0, 0.7, 1.0]
    dead = [False, False, False, False, True]
    g, calls = _recording(_gaussian_rows(centers, widths, dead))
    batched = log_integral_exp(g, -40.0, 40.0)
    assert batched.shape == (5,)
    for k, (c, s) in enumerate(zip(centers[:-1], widths[:-1])):
        g1, calls1 = _recording(_gaussian_rows([c], [s]))
        one = log_integral_exp(g1, -40.0, 40.0)
        assert one.shape == (1,)
        # the same scan, and each row on exactly its own panel nodes
        assert np.array_equal(calls[0], calls1[0])
        assert np.array_equal(calls[1][k], calls1[1][0])
        assert batched[k] == pytest.approx(one[0], rel=1e-12)
        assert batched[k] == pytest.approx(
            0.5 * math.log(2 * math.pi * s * s) - c, abs=1e-9)
    assert batched[-1] == -np.inf
    assert np.array_equal(log_integral_exp(
        lambda y: np.full((1, y.shape[-1]), -np.inf), 0.0, 1.0), [-np.inf])


def test_outer_t_integral_across_block_boundary():
    # more rows than one block, so a block boundary falls inside the
    # caller's array; every row must equal its own one-row evaluation
    outer = OuterRepresentation(h=0.3, alpha=2.1, log_C_h=0.0)
    rows = np.linspace(0.05, 1.0, T_BLOCK + 5)
    rho2, c = rows * rows + 16.0, 4.0 * rows
    blocked = outer.log_t_integral(rho2, c)
    assert blocked.shape == rows.shape
    for k in range(len(rows)):
        one = outer.log_t_integral(rho2[k:k + 1], c[k:k + 1])
        assert blocked[k] == one[0]   # the rows are independent


def test_one_kernel_call_per_t_integral(well, case, monkeypatch):
    # w_chain integrates all its N_CHAIN radial nodes in one batched call
    # per t-integral, three in all (W1, which W2 reuses, W3 and W4), so a
    # stage that nothing prints shows as a fourth; hopping_bessel its
    # N_ROUTE nodes in one, T_BLOCK being N_ROUTE; and calibrate_outer fits
    # and checks its 9 points in one
    from magtun import asymptotics, hopping, wkb

    calls = []

    def counted(g, lo, hi):
        out = numerics.log_integral_exp(g, lo, hi)
        calls.append((lo, len(out)))
        return out

    c = case(well, 0.3)
    c.outer   # built before the count starts
    monkeypatch.setattr(asymptotics, "log_integral_exp", counted)
    monkeypatch.setattr(wkb, "log_integral_exp", counted)
    w_chain(c, 0.05)
    assert calls == [(math.log(0.05), asymptotics.N_CHAIN)] * 3
    calls.clear()
    hopping_bessel(c)
    assert calls == [(c.outer.y_lo, hopping.N_ROUTE)]
    calls.clear()
    calibrate_outer(c)
    assert calls == [(c.outer.y_lo, 9)]


def test_log_integral_exp_evaluation_budget():
    # a batched call evaluates g twice: once on the shared scan and once on
    # two 128-node panels per row
    g, calls = _recording(_gaussian_rows([-30.0, 0.5, 17.0], [0.1, 3.0, 0.7]))
    log_integral_exp(g, -40.0, 40.0)
    assert [y.shape for y in calls] == [(numerics.N_SCAN,), (3, 256)]


# (depth, L, h, alpha) of the bump well (a 1): alpha = 1/2 - e_sw/2h from
# its ground state.  Small alpha at large h gives windows up to ~2000 wide
# in y, large alpha at small h sharp peaks.
KERNEL_CASES = [
    (0.1, 3.0, 1.4, 0.0047379872180151605),
    (0.5, 5.0, 1.4, 0.02447225746338877),
    (1.0, 4.0, 1.0, 0.100915678159409),
    (1.0, 4.0, 0.3, 0.9925272878015146),
    (2.0, 4.2, 0.1, 8.956182986726693),
    (1.0, 4.0, 0.05, 9.361991130999419),
    (4.0, 4.5, 0.045, 42.8617655474705),
]


def _mp_log_t_integral(h, alpha, rho2, c, lo, from_t0=False):
    """mpmath oracle for log int_lo^Y_HI exp(g) of log_outer_integrand,
    on the range where g >= gmax - 90 (the rest is below e^-90 of it),
    split towards the peak found by a dense float scan; with from_t0, the
    integral from y = -inf (t = 0), whose part below that range mpmath
    takes on its own."""
    ys = np.linspace(lo, Y_HI, 100001)
    gs = log_outer_integrand(h, alpha, rho2, c)(ys)
    k = int(np.argmax(gs))
    near = np.flatnonzero(gs > gs[k] - 90.0)
    ends = ys[max(near[0] - 1, 0)], ys[min(near[-1] + 1, len(ys) - 1)]
    pts = sorted({ys[k], *ends, *(ys[k] + (e - ys[k]) * 2.0**-j
                                   for e in ends for j in range(1, 6))})
    with mpmath.workdps(20):
        h, alpha, rho2 = mpmath.mpf(h), mpmath.mpf(alpha), mpmath.mpf(rho2)

        def f(y):
            t = mpmath.exp(y)
            val = alpha * y - alpha * mpmath.log1p(t) - rho2 * t / (2 * h)
            if c is not None:
                val += mpmath.log(mpmath.besseli(
                    0, c * mpmath.sqrt(t * (t + 1)) / h))
            return mpmath.exp(val - gs[k])

        total = mpmath.quad(f, pts, method="gauss-legendre")
        if from_t0:
            total += mpmath.quad(f, [-mpmath.inf, pts[0]])
        return float(gs[k] + mpmath.log(total))


@pytest.mark.parametrize("depth,L,h,alpha", KERNEL_CASES)
def test_log_integral_exp_matches_mpmath(depth, L, h, alpha):
    # the outer integrand at rho = a and L + 1, the ends of calibrate_outer's
    # check, and the Bessel integrand of hopping_bessel at r = 0.05 and a
    lo = OuterRepresentation(h=h, alpha=alpha, log_C_h=0.0).y_lo
    bound = 1e-12 if alpha >= 0.05 else 1e-10
    rho = np.array([1.0, L + 1.0])
    r = np.array([0.05, 1.0])
    got = np.concatenate([
        log_integral_exp(log_outer_integrand(h, alpha, rho[:, None] ** 2),
                         lo, Y_HI),
        log_integral_exp(log_outer_integrand(
            h, alpha, r[:, None] ** 2 + L * L, L * r[:, None]), lo, Y_HI)])
    want = [_mp_log_t_integral(h, alpha, x * x, None, lo) for x in rho] \
        + [_mp_log_t_integral(h, alpha, x * x + L * L, L * x, lo) for x in r]
    assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("depth,L,h,alpha", KERNEL_CASES + [
    (0.1, 3.0, 2.0, 0.002377235549065826)])
def test_outer_t_integral_matches_mpmath_from_t0(depth, L, h, alpha):
    # OuterRepresentation.log_t_integral integrates from t = 0: at small
    # alpha the part below y_lo is a share e^{alpha y_lo} of the integral
    # (1.3e-3 at alpha 0.0024), which quadrature from y_lo alone misses
    outer = OuterRepresentation(h=h, alpha=alpha, log_C_h=0.0)
    bound = 1e-12 if alpha >= 0.05 else 1e-10
    rho = np.array([1.0, L + 1.0])
    r = np.array([0.05, 1.0])
    got = np.concatenate([outer.log_t_integral(rho * rho),
                          outer.log_t_integral(r * r + L * L, L * r)])
    want = [_mp_log_t_integral(h, alpha, x * x, None, outer.y_lo, True)
            for x in rho] + \
        [_mp_log_t_integral(h, alpha, x * x + L * L, L * x, outer.y_lo, True)
         for x in r]
    assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("h", [0.3, 0.5])
def test_t_kernel_frozen_values(well, case, w4_rebuilt, h):
    wb = hopping_bessel(case(well, h))
    assert wb == pytest.approx(FROZEN_W_BESSEL[h], rel=1e-10, abs=0)
    res = w_chain(case(well, h), 0.05)
    got = (res.log_W1, res.log_W2, res.log_W3, res.log_W4,
           w4_rebuilt(case(well, h), 0.05))
    assert got == pytest.approx(FROZEN_W_CHAIN[h], rel=1e-10)
