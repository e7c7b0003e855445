import math

import numpy as np
import pytest

from magtun import (AgmonProfile, ConsistencyError, RadialWell, beta_scaling,
                    minimize_1d, minimizer_closed_form, nonmagnetic_action,
                    psi_global_min, sharp_action, w_chain)
from magtun import agmon, asymptotics, numerics
from magtun.agmon import action_S0, action_S_eps, action_Sa, action_Shat, \
    free_action_primitive

# frozen from closed forms + midpoint oracle (canonical depth=1, a=1, L=4)
S_CANON = 5.027772658094884
T_A_CANON = math.sqrt(0.45) - 0.5       # s_plus = 0.2 exactly
NONMAG_CANON = 3.0824097458716895       # 2 int sqrt(v0+1) + (L-2a)


@pytest.mark.parametrize("depth", [0.5, 1.0, 4.0])
def test_prescan_objectives_array_equals_pointwise(depth, monkeypatch):
    # minimize_1d evaluates its pre-scan as one array call; every objective
    # the package hands it (S0, Sa, Shat, S(eps), and Psi's t, r and
    # boundary slices) must give the per-point values bit for bit there
    objectives = []

    def recording(f, lo, hi, tol=1e-8):
        objectives.append((f, lo, hi))
        return numerics.minimize_1d(f, lo, hi, tol=tol)

    monkeypatch.setattr(agmon, "minimize_1d", recording)
    monkeypatch.setattr(asymptotics, "minimize_1d", recording)
    prof = AgmonProfile(RadialWell.bump(depth=depth, a=1.0), 4.0)
    for action in (action_S0, action_Sa, action_Shat):
        action(prof)
    action_S_eps(prof, 0.5)
    psi_global_min(prof)
    assert len(objectives) == 4 + 2 * asymptotics.PSI_REFINEMENTS + 1
    for f, lo, hi in objectives:
        xs = np.linspace(lo, hi, numerics.PRESCAN)
        pointwise = np.array([f(x) for x in xs])
        assert np.asarray(f(xs)).tobytes() == pointwise.tobytes()


def test_psi_domain(profile4):
    with pytest.raises(ValueError):
        profile4.psi(0.5, 0.0)


def test_psi_axis_closed_form(profile4):
    # on the axis s = t(t+1) = depth/L^2 minimizes Psi(0, .)
    t0 = math.sqrt(0.25 + 1.0 / 4.0**2) - 0.5
    val = profile4.psi(0.0, t0)
    res = minimize_1d(lambda t: profile4.psi(0.0, t), 1e-4, 5.0, tol=1e-10)
    assert val == pytest.approx(res.value, abs=1e-8)
    assert t0 == pytest.approx(res.argmin, abs=1e-5)


def test_psi_lower_bound(profile4):
    rng = np.random.default_rng(5)
    r = rng.uniform(0, 1, 200)
    t = rng.uniform(1e-3, 20, 200)
    assert np.all(profile4.psi(r, t) >= (4.0 - 1.0) ** 2 / 4.0)


def test_minimizer_closed_form(well):
    t_a, s_plus = minimizer_closed_form(well, 4.0)
    assert s_plus == pytest.approx(0.2, abs=1e-14)   # root of 225 s^2-50 s+1
    assert t_a == pytest.approx(T_A_CANON, abs=1e-14)
    # quadratic-root residual
    resid = abs(225.0 * s_plus**2 - 50.0 * s_plus + 1.0)
    assert resid <= 1e-10 * max(225.0 * s_plus**2, 1.0)
    with pytest.raises(ValueError):
        minimizer_closed_form(well, 1.5)


def test_minimizer_vs_1d_oracle(profile4, well):
    # independent oracle: minimize Psi(a, .) directly
    t_a, _ = minimizer_closed_form(well, 4.0)
    res = minimize_1d(lambda t: profile4.psi(1.0, t), 1e-3, 5.0, tol=1e-11)
    assert res.argmin == pytest.approx(t_a, abs=1e-7)


def test_discriminant_positive_on_grid():
    for a in (0.3, 1.0, 2.0):
        for L in (2.5 * a, 4 * a, 10 * a):
            for depth in (0.25, 1.0, 9.0):
                t_a, s_plus = minimizer_closed_form(
                    RadialWell.bump(depth=depth, a=a), L)
                assert t_a > 0 and s_plus > 0


def test_psi_global_min_matches_closed_form(profile4, well):
    r_s, t_s, val = psi_global_min(profile4)
    t_a, _ = minimizer_closed_form(well, 4.0)
    ref = float(profile4.psi(1.0, t_a))
    assert abs(val - ref) <= 1e-6 * abs(ref)
    assert r_s == pytest.approx(1.0, abs=3e-3)
    assert t_s == pytest.approx(t_a, abs=1e-3)


def test_interior_r_excluded(profile4, well):
    t_a, _ = minimizer_closed_form(well, 4.0)
    ref = float(profile4.psi(1.0, t_a))
    rs = np.linspace(0.0, 0.95, 200)
    ts = np.geomspace(1e-3, 20.0, 200)
    assert np.min(profile4.psi(rs[:, None], ts[None, :])) > ref


def test_dr_psi_negative_at_origin(profile4):
    for t in (0.05, 0.2, 1.0, 5.0):
        fd = (profile4.psi(1e-6, t) - profile4.psi(0.0, t)) / 1e-6
        assert fd < 0.0


def test_sharp_action_canonical(well, profile4):
    rep = sharp_action(well, 4.0)
    assert rep.S == pytest.approx(S_CANON, abs=1e-8)
    assert rep.S == pytest.approx(rep.S_from_fg, rel=1e-12)
    assert rep.corridor_ok()
    assert rep.interaction_matrix_ok()
    assert rep.S == pytest.approx(2.0 * rep.D_mag + rep.interaction,
                                  abs=1e-12)
    assert rep.D_mag == pytest.approx(profile4.d_a, abs=1e-14)


def test_sharp_action_reads_a_given_profile(well, profile4):
    # the pipeline's table gives the report bit for bit; a table built for
    # another L or another well is refused
    assert sharp_action(well, 4.0, profile4) == sharp_action(well, 4.0)
    for other, L in ((well, 5.0), (RadialWell.bump(depth=2.0), 4.0)):
        with pytest.raises(ValueError, match="another well or L"):
            sharp_action(other, L, profile4)


def test_sharp_action_identity_S0_minus_F(well, profile4):
    # empirical identity: Psi(a, t_a) = S0, hence S = S0 - F
    rep = sharp_action(well, 4.0)
    assert rep.psi_min == pytest.approx(float(profile4.d(4.0)), abs=1e-10)
    assert rep.S == pytest.approx(float(profile4.d(4.0)) - rep.F, abs=1e-10)


def test_interaction_large_L_trend(well):
    # i(a, L, depth) = L^2/4 + depth ln L + O(1)
    vals = []
    for L in (8.0, 16.0, 32.0, 64.0):
        rep = sharp_action(well, L)
        vals.append(rep.interaction - L * L / 4.0 - math.log(L))
    assert max(vals) - min(vals) < 0.5
    assert all(abs(v) < 2.0 for v in vals)


def test_interaction_small_a_trend():
    # a -> 0: the interaction approaches int_0^L sqrt(rho^2/4 + depth)
    limit = float(free_action_primitive(4.0, 1.0))
    gaps = []
    for a in (0.5, 0.25, 0.1, 0.05):
        w = RadialWell.bump(depth=1.0, a=a)
        rep = sharp_action(w, 4.0)
        gaps.append(abs(rep.interaction - limit))
    assert all(x > y for x, y in zip(gaps, gaps[1:]))
    # the gap closes linearly: i = prim(L) - 2 prim(a) exactly
    assert gaps[-1] == pytest.approx(
        2.0 * float(free_action_primitive(0.05, 1.0)), rel=0.01)


def test_w_chain_canonical(well, case, w4_rebuilt):
    eta, c = 0.05, case(well, 0.3)
    res = w_chain(c, eta)
    for lw in (res.log_W1, res.log_W2, res.log_W3, res.log_W4):
        assert np.isfinite(lw)  # strictly positive integrals
    assert res.log_W4 == pytest.approx(w4_rebuilt(c, eta), abs=1e-8)
    with pytest.raises(ValueError):
        w_chain(c, 1.5)


@pytest.mark.parametrize("depth, L", [(d, L) for d in (0.5, 4.0)
                                      for L in (3.5, 5.0, 8.5)])
def test_w_chain_r_rule_converged(well_shallow, well_deep, case, monkeypatch,
                                  depth, L):
    # N_CHAIN against 3x its nodes at the chain's smallest h; measured
    # worst 8.8e-12 (depth 0.5, L 8.5)
    c = case(well_shallow if depth == 0.5 else well_deep, 0.05, L=L)
    coarse = vars(w_chain(c, 0.05))
    monkeypatch.setattr(asymptotics, "N_CHAIN", 3 * asymptotics.N_CHAIN)
    for name, fine in vars(w_chain(c, 0.05)).items():
        assert abs(fine - coarse[name]) <= 1e-10, name


def test_w1_eta_stability_deep(deep_chain):
    res = deep_chain[0.05]
    w1 = {eta: math.exp(r.log_W1) for eta, r in res.items()}
    base = w1[0.05]
    for eta in (0.1, 0.2):
        assert abs(w1[eta] - base) / base <= 0.01


def test_w1_approximates_w_deep(well_deep, case, deep_chain):
    gaps = []
    for h in (0.3, 0.1, 0.05):
        w = abs(case(well_deep, h).w_bessel)
        gaps.append(abs(math.exp(deep_chain[h][0.05].log_W1) / w - 1.0))
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 0.05


def test_w_chain_ratios_trend_deep(deep_chain):
    hs = sorted(deep_chain, reverse=True)
    ratios = np.array([deep_chain[h][0.05].ratios() for h in hs])
    first, last = np.abs(ratios[0] - 1.0), np.abs(ratios[-1] - 1.0)
    assert np.all(last < first)
    assert np.all(last < 0.35)


def test_w4_approaches_sharp_action_deep(well_deep, deep_chain):
    S = sharp_action(well_deep, 4.0).S
    hs = sorted(deep_chain, reverse=True)
    gaps = [abs(h * deep_chain[h][0.05].log_W4 + S) for h in hs]
    assert gaps[-1] < gaps[0]
    assert gaps[-1] <= 0.15 * S


def test_beta_identity(well):
    rep = sharp_action(well, 4.0)
    assert beta_scaling(well, 4.0, 1.0) == pytest.approx(rep.S, rel=1e-12)


def test_beta_limit(well):
    target = nonmagnetic_action(well, 4.0)
    assert target == pytest.approx(NONMAG_CANON, abs=1e-9)
    gaps = []
    for beta in (0.5, 0.2, 0.1, 0.05):
        gaps.append(abs(beta_scaling(well, 4.0, beta) - target))
    assert all(x > y for x, y in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.05


def test_beta_corridor_squeeze(well):
    # beta Sa^beta and beta Shat^beta converge to the same limit
    target = nonmagnetic_action(well, 4.0)
    for beta, tol_hi in ((0.1, 0.4), (0.05, 0.2)):
        scaled = well.scaled(beta**-2)
        prof = AgmonProfile(scaled, 4.0)
        lo = beta * action_Sa(prof).value
        hi = beta * action_Shat(prof).value
        assert lo <= hi
        assert lo == pytest.approx(target, abs=0.15)
        assert hi == pytest.approx(target, abs=tol_hi)
    # squeeze tightens
    s01 = well.scaled(0.1**-2)
    s005 = well.scaled(0.05**-2)
    w1 = 0.1 * (action_Shat(AgmonProfile(s01, 4.0)).value
                - action_Sa(AgmonProfile(s01, 4.0)).value)
    w2 = 0.05 * (action_Shat(AgmonProfile(s005, 4.0)).value
                 - action_Sa(AgmonProfile(s005, 4.0)).value)
    assert w2 < w1


def test_beta_rejects_nonpositive(well):
    with pytest.raises(ValueError):
        beta_scaling(well, 4.0, 0.0)
