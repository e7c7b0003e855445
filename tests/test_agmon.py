import math

import numpy as np
import pytest

from magtun import (AgmonProfile, action_S0, action_S_eps, action_Sa,
                    action_Shat, corridor_CL, remainder_Ra)
from magtun.agmon import free_action_primitive

# frozen from a 2e5-node midpoint-rule oracle over the canonical bump
D_A = 0.5962294333927982
D_HALF = 0.14336128451750774
S0_CANON = 5.471772044136637
SA_CANON = 4.051156721236147
SHAT_CANON = 5.4539862200751
R0_CANON = 0.1504956


def test_d_at_zero(profile4):
    assert profile4.d(0.0) == 0.0


def test_free_integrand_limit():
    # v0 == 0 reduces the integrand to rho/2 and d to r^2/4
    assert free_action_primitive(2.0, 1e-14) == pytest.approx(1.0, abs=1e-6)


def test_d_against_midpoint_oracle(profile4):
    assert profile4.d(1.0) == pytest.approx(D_A, abs=1e-9)
    assert profile4.d(0.5) == pytest.approx(D_HALF, abs=1e-9)
    assert profile4.d_a_error < 1e-8


def test_d_monotone(profile4):
    r = np.linspace(0.0, 8.0, 4001)
    d = profile4.d(r)
    assert np.all(np.diff(d) > 0)


def test_integrand_bounds(profile4):
    # rho/2 <= integrand <= rho/2 + sqrt(depth)
    rho = np.linspace(1e-6, 2.0, 500)
    vals = profile4.integrand(rho)
    assert np.all(vals >= rho / 2 - 1e-14)
    assert np.all(vals <= rho / 2 + 1.0 + 1e-14)


def test_S0(profile4):
    res = action_S0(profile4)
    assert res.value == pytest.approx(S0_CANON, abs=1e-8)
    assert abs(res.value - res.variational) <= 1e-8
    assert res.u_star <= 1e-6  # monotone psi_*: infimum at u = 0
    # S0 < L^2/4 + sqrt(depth) L
    assert res.value < 4.0 + 4.0


def test_Sa(profile4):
    res = action_Sa(profile4)
    assert res.value == pytest.approx(SA_CANON, abs=1e-8)
    assert abs(res.value - res.variational) <= 1e-8
    assert res.u_star >= 1.0 - 1e-6  # phi_* decreasing: infimum at u = a
    # Sa > ((L-a)^2 - a^2)/4
    assert res.value > (9.0 - 1.0) / 4.0


def test_Shat(profile4):
    res = action_Shat(profile4)
    assert res.value == pytest.approx(SHAT_CANON, abs=1e-8)
    assert res.argmin == pytest.approx(R0_CANON, abs=1e-5)
    assert 1e-6 < res.argmin < 1.0 - 1e-6
    # ordering Sa < Shat < min(S0, Sa + L a / 2)
    s0 = action_S0(profile4).value
    sa = action_Sa(profile4).value
    assert sa < res.value < min(s0, sa + 2.0)
    # brute-force scan oracle on a 1e5-point grid
    rs = np.linspace(1e-9, 1.0 - 1e-9, 100001)
    scan = float(np.min(profile4.g_eps(rs, 0.0)))
    assert res.value == pytest.approx(scan, abs=1e-8)


def test_S_eps_monotone_and_limit(profile4):
    shat = action_Shat(profile4)
    values = {eps: action_S_eps(profile4, eps) for eps in
              (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)}
    ordered = [values[e].value for e in (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)]
    assert all(a <= b + 1e-12 for a, b in zip(ordered, ordered[1:]))
    assert values[1.0].value >= shat.value - 1e-9
    for eps in (0.01, 0.05, 0.1):
        assert values[eps].value >= shat.value - 1e-9
    # r_eps -> r0 (the well has v0' >= 0 >= -L/4, so r0 is unique);
    # the drift is ~ linear in eps, so compare the extrapolated limit
    r_ext = (5 * values[0.01].argmin - values[0.05].argmin) / 4
    assert r_ext == pytest.approx(shat.argmin, abs=1e-3)
    gaps = [abs(values[e].argmin - shat.argmin) for e in (0.1, 0.05, 0.01)]
    assert gaps[2] < gaps[1] < gaps[0]


def test_g_eps_above_g0(profile4):
    rng = np.random.default_rng(3)
    r = rng.uniform(0.01, 0.99, 50)
    for eps in (0.2, 0.7, 1.0):
        assert np.all(profile4.g_eps(r, eps) >=
                      profile4.g_eps(r, 0.0) - 1e-12)


def test_Ra(profile4):
    res = remainder_Ra(profile4)
    s0 = action_S0(profile4).value
    sa = action_Sa(profile4).value
    assert res.value == pytest.approx(s0 - sa, abs=1e-12)
    assert res.value == pytest.approx(res.direct, abs=1e-8)
    assert 0.0 < res.value <= res.bound
    assert res.bound == pytest.approx((1.5 + 1.0) * 1.0, abs=1e-14)


def test_CL(profile4):
    res = corridor_CL(profile4)
    assert res.value == pytest.approx(3.5, abs=1e-14)
    # -int_0^L sqrt(rho^2/4+depth) <= -S0 <= -Sa
    s0 = action_S0(profile4).value
    sa = action_Sa(profile4).value
    assert -res.upper <= -s0 <= -sa
    assert res.lower == pytest.approx(res.upper - 3.5, abs=1e-12)


def test_CL_degenerate_small_a():
    from magtun import RadialWell
    w = RadialWell.bump(depth=1.0, a=1e-3)
    res = corridor_CL(AgmonProfile(w, 4.0))
    assert res.value == pytest.approx(((4.0 - 1e-3) / 2 + 2.0) * 1e-3,
                                      abs=1e-15)
    assert res.value < 5e-3


def test_tail_closed_form(profile4):
    # for r >= a the tail is the free primitive; cross-check by quadrature
    from magtun import integrate
    tail = integrate(lambda r: np.sqrt(r * r / 4 + 1.0), 1.0, 3.0)
    assert profile4.d(3.0) - profile4.d(1.0) == \
        pytest.approx(tail, abs=1e-10)
