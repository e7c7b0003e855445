import math

import numpy as np
import pytest

from magtun import (Case, OuterRepresentationError, WkbAmplitude,
                    c_h_asymptotic, calibrate_outer, matching_constants,
                    wkb_error_exponent, wkb_profile_error)

SQRT5 = math.sqrt(5.0)
# normalized-Gaussian-limit amplitude constant (1+2 v0''(0))^{1/4}/sqrt(2 pi)
A0_CANON = 0.5965578527758968
# F = eta(a) - d(a), frozen from the closed form and the midpoint oracle
F_CANON = 0.4439993860417526


def test_a0_at_origin(well, amp6):
    assert amp6.a0_0 == pytest.approx(A0_CANON, rel=1e-12)
    assert float(amp6.a0(0.0)) == pytest.approx(A0_CANON, rel=1e-10)


def test_a0_matches_measured_ground_state(well, case, profile4):
    # sqrt(h) e^{d/h} u_h(0+) -> a0(0); at h = 0.05 the drift is ~ 1.5%
    sol = case(well, 0.05).ground
    r0 = sol.grid[0]
    measured = math.sqrt(0.05) * math.exp(
        float(profile4.d(r0)) / 0.05 + float(sol.log_u(r0)))
    assert measured == pytest.approx(A0_CANON, rel=0.05)


def test_transport_integrand_vanishes_at_origin(amp6):
    assert abs(float(amp6.f(np.array([1e-3]))[0])) <= 1e-2


def test_transport_series_patch_consistent(amp6):
    # the linear series and the raw formula differ only by the rho^3 term at
    # the handover; the induced jump in a0 is far below 1e-8
    cut = amp6._rho_cut
    lo = float(amp6.f(np.array([cut * 0.999]))[0])
    hi = float(amp6.f(np.array([cut * 1.001]))[0])
    assert lo == pytest.approx(hi, rel=5e-3)
    grid_step = amp6.r_max / 8000
    assert abs(hi - lo) * grid_step <= 1e-8


def test_a0_log_derivative_matches_f(well, amp6):
    # -a0'/a0 = f: quadrature of f vs finite-difference log-derivative
    for r in (0.3, 0.7, 1.2):
        s = 1e-5
        fd = -(amp6.log_a0(r + s) - amp6.log_a0(r - s)) / (2 * s)
        assert fd == pytest.approx(float(amp6.f(np.array([r]))[0]), abs=1e-6)


def test_a0_positive_on_range(well):
    amp = WkbAmplitude(well, 8.0)
    r = np.linspace(0.0, 8.0, 2000)
    assert np.all(amp.a0(r) > 0.0)


def test_wkb_error_exponent(well, case):
    hs = [0.2, 0.14, 0.1, 0.07, 0.05]
    errors = [wkb_profile_error(case(well, h)) for h in hs]
    q = wkb_error_exponent(hs, errors)
    assert 0.4 <= q <= 1.1
    assert np.all(np.isfinite(errors))
    assert np.all(np.diff(errors) < 0)  # decreasing along decreasing h


def test_profile_error_finite_and_sign(well, case, profile4, amp6):
    sol = case(well, 0.1).ground
    err = wkb_profile_error(case(well, 0.1))
    assert np.isfinite(err)
    mask = sol.grid <= 1.0
    scaled = np.exp(profile4.d(sol.grid[mask]) / 0.1) * sol.u[mask]
    assert np.all(scaled > 0)
    assert np.all(amp6.a0(sol.grid[mask]) > 0)


def test_calibrated_alpha(well, case):
    sol = case(well, 0.05).ground
    outer = case(well, 0.05).outer
    assert outer.alpha == pytest.approx(0.5 - sol.e_sw / 0.1, rel=1e-14)
    # leading order: depth/(2h) - (sqrt5 - 1)/2
    assert outer.alpha == pytest.approx(10.0 - (SQRT5 - 1) / 2, abs=0.05)


def test_outer_self_consistency(well, case):
    for h in (0.1, 0.05):
        sol, outer = case(well, h).ground, case(well, h).outer
        for rho in (1.5, 2.0, 3.0, 4.0):
            rel = abs(math.exp(outer.log_u(rho) - float(sol.log_u(rho))) - 1)
            assert rel <= 1e-3, f"rho={rho}, h={h}: {rel}"


def test_outer_violation_detected(well, case):
    # a ground state of another h is a faulty eigensolution for this one
    faulty = Case(case(well, 0.1).pipeline, 0.1)
    faulty.ground = case(well, 0.05).ground
    with pytest.raises(OuterRepresentationError):
        calibrate_outer(faulty)


def test_alpha_correction_term(well, case):
    # alpha(h) 2h - depth -> -h (sqrt(1+2 v0''(0)) - 1) + o(h): fitted
    # correction within 20% of the coefficient
    slopes = []
    for h in (0.1, 0.05):
        sol = case(well, h).ground
        alpha = 0.5 - sol.e_sw / (2 * h)
        slopes.append((alpha * 2 * h - 1.0) / h)
    target = -(SQRT5 - 1.0)
    assert slopes[1] == pytest.approx(target, rel=0.2)


def test_matching_constants(well, pipe, profile4):
    consts = matching_constants(pipe(well))
    assert consts["t_star"] == pytest.approx((SQRT5 - 1) / 2, rel=1e-14)
    # F from the explicit closed form, checked against eta - d(a)
    F_explicit = 0.25 * SQRT5 + 0.5 * math.log((SQRT5 + 1) ** 2 / 4.0) \
        - profile4.d_a
    assert consts["F"] == pytest.approx(F_explicit, abs=1e-10)
    assert consts["F"] == pytest.approx(F_CANON, abs=1e-9)
    assert consts["m_matched"] > 0


def test_c_h_trend(well, pipe, case):
    # |h ln(C_h/C_h_asy)| decreasing along the sweep; final below 0.05
    consts = matching_constants(pipe(well))
    gaps = []
    for h in (0.2, 0.1, 0.05, 0.035):
        outer = case(well, h).outer
        gaps.append(h * (outer.log_C_h - c_h_asymptotic(h, consts)))
    mags = [abs(g) for g in gaps]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    assert mags[-1] <= 0.05


def test_c_h_offset_is_h_independent(well, pipe, case):
    # C_h_asy carries C_h's h^{-1} e^{F/h}: ln(C_h/C_h_asy) reads -0.050 at
    # h 0.1 and -0.024 at h 0.05, so it moves by far less than the 0.69 a
    # wrong power of h would add between them
    consts = matching_constants(pipe(well))
    ratios = [case(well, h).outer.log_C_h - c_h_asymptotic(h, consts)
              for h in (0.1, 0.05)]
    assert ratios[0] == pytest.approx(ratios[1], abs=0.06)
