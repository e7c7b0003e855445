import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from magtun import (AccuracyError, hopping_bessel, integrate, log_bessel_i0,
                    log_integral_exp, minimize_1d, symm_tridiag_lowest,
                    w_chain)
from magtun import numerics
from magtun.numerics import gauss_legendre, tridiag_ground_pair
from magtun.wkb import T_BLOCK, Y_HI, log_outer_integrand, log_t_integrals

# Bump well depth 1, a 1, L 4, outer check to L + 1, eta 0.05.  The values
# follow the fiber eigensolver through alpha = 1/2 - e_sw/2h: a shift of
# 1e-9 in e_sw moves log_W2 and log_W3 by 2e-9 to 4e-9.
FROZEN_W_BESSEL = {0.3: -6.056438103747156e-08, 0.5: -4.390891338742484e-05}
FROZEN_W_CHAIN = {  # log_W1, log_W2, log_W3, log_W4, log_W4_alt
    0.3: (-17.614590600962373, -18.066722975687938, -18.159067700088396,
          -18.297869636040392, -18.29786963604039),
    0.5: (-11.643503748432108, -11.524955800051497, -11.642681505578798,
          -11.593131741125825, -11.593131741125825),
}


def test_integrate_polynomial():
    assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_integrate_action_closed_form():
    # int_0^4 sqrt(rho^2/4 + 1) = 2 sqrt5 + ln(2 + sqrt5)
    closed = 2 * math.sqrt(5) + math.log(2 + math.sqrt(5))
    val = integrate(lambda r: math.sqrt(r * r / 4 + 1), 0.0, 4.0)
    assert val == pytest.approx(closed, abs=1e-10)
    # independent midpoint-rule oracle
    n = 200001
    x = (np.arange(n) + 0.5) * (4.0 / n)
    mid = np.sum(np.sqrt(x * x / 4 + 1)) * 4.0 / n
    assert val == pytest.approx(mid, abs=1e-8)


def _fake_quad(err, warned):
    calls = []

    def quad(fn, a, b, **kw):
        calls.append(kw)
        out = (1.0, err, {})
        return out + ("roundoff detected",) if warned else out

    return quad, calls


# abs + rel tolerance of integrate at |val| = 1, the fake quadrature's value
QUAD_BOUND = numerics.QUAD_ABS_TOL + numerics.QUAD_REL_TOL


def test_integrate_warning_within_tolerance(monkeypatch):
    # QUADPACK warns but the error estimate meets abs_tol + rel_tol |val|:
    # the value is returned, from a single quadrature call
    quad, calls = _fake_quad(err=0.9 * QUAD_BOUND, warned=True)
    monkeypatch.setattr(numerics._si, "quad", quad)
    assert integrate(lambda x: x, 0.0, 1.0, return_error=True) == \
        (1.0, 0.9 * QUAD_BOUND)
    assert len(calls) == 1


def test_integrate_warning_beyond_tolerance(monkeypatch):
    quad, calls = _fake_quad(err=3 * QUAD_BOUND, warned=True)
    monkeypatch.setattr(numerics._si, "quad", quad)
    with pytest.raises(AccuracyError) as exc:
        integrate(lambda x: x, 0.0, 1.0)
    assert exc.value.estimate == 1.0
    assert exc.value.error_bound == 3 * QUAD_BOUND
    assert len(calls) == 1
    # the same error without a warning is QUADPACK's own success verdict
    quad, calls = _fake_quad(err=3 * QUAD_BOUND, warned=False)
    monkeypatch.setattr(numerics._si, "quad", quad)
    assert integrate(lambda x: x, 0.0, 1.0) == 1.0


def test_integrate_accuracy_error():
    with pytest.raises(AccuracyError) as exc:
        integrate(lambda x: math.sin(1.0 / max(x, 1e-300)), 0.0, 1.0)
    assert exc.value.error_bound > 0


def test_minimize_parabola():
    res = minimize_1d(lambda x: x * x, -1.0, 1.0)
    assert abs(res.argmin) <= 1e-8
    res = minimize_1d(lambda x: (x - 0.3) ** 2 + 1.0, 0.0, 1.0)
    assert res.argmin == pytest.approx(0.3, abs=1e-7)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_minimize_g0_interior(profile4):
    # brute-force grid scan oracle at 1e-4 resolution
    rs = np.arange(1e-4, 1.0, 1e-4)
    scan = profile4.g0(rs)
    k = int(np.argmin(scan))
    res = minimize_1d(lambda r: float(profile4.g0(r)), 0.0, 1.0, tol=1e-9)
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
    z = np.linspace(0.0, 60.0, 121)
    ours = log_bessel_i0(z)
    ref = np.log(scipy.special.i0e(z)) + z
    assert np.max(np.abs(ours - ref)) < 1e-12


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


@pytest.mark.parametrize("lam", [0.5, 1e-3])
def test_tridiag_ground_pair_dirichlet_laplacian(lam):
    # lam = 0.5 puts the first shift above lambda_0, so the positive-definite
    # solve fails and the shift has to retreat before iterating
    n = 100
    exact = 4 * math.sin(math.pi / (2 * (n + 1))) ** 2
    gap = 4 * math.sin(math.pi / (n + 1)) ** 2 - exact
    rho, x = tridiag_ground_pair(np.full(n, 2.0), np.full(n - 1, -1.0),
                                 np.ones(n), lam, 1e-12, gap)
    assert rho == pytest.approx(exact, rel=1e-12)
    mode = np.sin(math.pi * np.arange(1, n + 1) / (n + 1))
    assert np.max(np.abs(x - mode / np.linalg.norm(mode))) <= 1e-12


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
    # int exp(-y^2/2) dy = sqrt(2 pi)
    val = log_integral_exp(lambda y: -0.5 * y * y, -40.0, 40.0)
    assert val == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-9)
    # shifted by a huge constant: pure log-space stability
    val = log_integral_exp(lambda y: -0.5 * y * y - 5000.0, -40.0, 40.0)
    assert val == pytest.approx(0.5 * math.log(2 * math.pi) - 5000.0,
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
    # everywhere and must give -inf, not nan
    centers, widths = [-30.0, -2.0, 0.5, 17.0, 0.0], [0.1, 1.0, 3.0, 0.7, 1.0]
    dead = [False, False, False, False, True]
    g, calls = _recording(_gaussian_rows(centers, widths, dead))
    batched = log_integral_exp(g, -40.0, 40.0)
    assert batched.shape == (5,)
    for k, (c, s) in enumerate(zip(centers[:-1], widths[:-1])):
        one = _gaussian_rows([c], [s])
        g1, calls1 = _recording(lambda y: one(y)[0])
        scalar = log_integral_exp(g1, -40.0, 40.0)
        assert isinstance(scalar, float)
        # the same scan, and each row on exactly its own Simpson grid
        assert np.array_equal(calls[0], calls1[0])
        assert np.array_equal(calls[1][k], calls1[1])
        assert batched[k] == pytest.approx(scalar, rel=1e-12)
        assert batched[k] == pytest.approx(
            0.5 * math.log(2 * math.pi * s * s) - c, abs=1e-9)
    assert batched[-1] == -np.inf
    assert log_integral_exp(lambda y: np.full(y.shape, -np.inf), 0.0, 1.0) \
        == -np.inf


def test_log_t_integrals_across_block_boundary():
    # more rows than one block, so a block boundary falls inside the batch;
    # every row must equal its own scalar evaluation
    h, alpha = 0.3, 2.1
    rows = np.linspace(0.05, 1.0, T_BLOCK + 5)
    lo = -700.0 / alpha
    batched = log_t_integrals(
        lambda r: log_outer_integrand(h, alpha, r * r + 16.0, 4.0 * r),
        rows, lo)
    for r, val in zip(rows, batched):
        scalar = log_integral_exp(
            log_outer_integrand(h, alpha, r * r + 16.0, 4.0 * r), lo, Y_HI)
        assert val == pytest.approx(scalar, rel=1e-12)


def test_log_integral_exp_simpson_weights():
    # the weight vector against scipy's Simpson rule for general x, on the
    # nodes log_integral_exp chose for each row of a batched t-kernel
    h, alpha = 0.3, 2.1
    r = np.linspace(0.05, 1.0, T_BLOCK)[:, None]
    g, calls = _recording(
        log_outer_integrand(h, alpha, r * r + 16.0, 4.0 * r))
    got = log_integral_exp(g, -700.0 / alpha, Y_HI)
    yy = calls[1]
    gg = g(yy)
    gm = gg.max(axis=1, keepdims=True)
    ref = gm[:, 0] + np.log(scipy.integrate.simpson(np.exp(gg - gm), x=yy,
                                                    axis=1))
    assert np.max(np.abs(got - ref)) <= 1e-13


@pytest.mark.parametrize("h", [0.3, 0.5])
def test_t_kernel_frozen_values(config4, well, profile4, amp6, case, h):
    sol, outer = case(well, h).ground, case(well, h).outer
    wb = hopping_bessel(config4, outer, sol)
    assert wb == pytest.approx(FROZEN_W_BESSEL[h], rel=1e-10, abs=0)
    res = w_chain(sol, outer, amp6, profile4, 0.05)
    got = (res.log_W1, res.log_W2, res.log_W3, res.log_W4, res.log_W4_alt)
    assert got == pytest.approx(FROZEN_W_CHAIN[h], rel=1e-10)
