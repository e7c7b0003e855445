"""Shared fixtures; expensive stages are built once per session."""

import math

import numpy as np
import pytest

from magtun import Case, DoubleWellConfig, Pipeline, RadialWell, gap_vs_hopping


@pytest.fixture(scope="session")
def well():
    return RadialWell.bump(depth=1.0, a=1.0)


@pytest.fixture(scope="session")
def config4(well):
    return DoubleWellConfig(well, 4.0)


@pytest.fixture(scope="session")
def battery(config4):
    """The full `magtun verify` battery on config4, by check name."""
    from magtun.verify import run_battery

    return {r.name: r for r in run_battery(config4)}


@pytest.fixture(scope="session")
def pipe():
    """pipe(well, L=4.0) -> the session's one Pipeline for (well, L)."""
    pipes = {}

    def get(well, L=4.0):
        return pipes.setdefault((id(well), L),
                                Pipeline(DoubleWellConfig(well, L)))

    return get


@pytest.fixture(scope="session")
def profile4(well, pipe):
    return pipe(well).profile


@pytest.fixture(scope="session")
def amp6(well, pipe):
    """The amplitude on [0, L + a + 1] = [0, 6]."""
    return pipe(well).amplitude


@pytest.fixture(scope="session")
def well_deep():
    return RadialWell.bump(depth=4.0, a=1.0)


@pytest.fixture(scope="session")
def well_shallow():
    return RadialWell.bump(depth=0.5, a=1.0)


@pytest.fixture(scope="session")
def config85(well):
    return DoubleWellConfig(well, 8.5)


@pytest.fixture(scope="session")
def pipeline85(well, pipe):
    return pipe(well, 8.5)


@pytest.fixture(scope="session")
def gap_report(pipeline85):
    """The 2-D gap against 2|w| at L = 8.5 on the four resolvable h."""
    return gap_vs_hopping(pipeline85, [1.4, 1.2, 1.0, 0.8])


@pytest.fixture(scope="session")
def case(pipe):
    """case(well, h, L=4.0) -> the session's one pipeline.Case for that
    (well, L, h): each of its stages is solved once across modules."""
    cases = {}

    def get(well, h, L=4.0):
        return cases.setdefault((id(well), L, round(h, 6)),
                                Case(pipe(well, L), h))

    return get


@pytest.fixture(scope="session")
def deep_chain(well_deep, case):
    """W-chain sweep on the deep well (t_a = 0.392 keeps the eta-policy
    window inside the truncation-error regime)."""
    from magtun import w_chain

    return {h: {eta: w_chain(case(well_deep, h), eta)
                for eta in ((0.05, 0.1, 0.2) if h == 0.05 else (0.05,))}
            for h in (0.3, 0.2, 0.14, 0.1, 0.07, 0.05)}


@pytest.fixture(scope="session")
def w4_rebuilt():
    """w4_rebuilt(case, eta) -> log W4 assembled a second way, from the
    matched prefactor m, the kernel amplitude g0(t) = t^{-5/4} (t+1)^{-1/4}
    (1+1/t)^{(E1-1)/2}, the phase Psi of the Agmon profile and F, on
    w_chain's r-rule: the oracle for asymptotics.w_chain's W4."""
    from magtun.asymptotics import N_CHAIN
    from magtun.numerics import _gauss_nodes, log_integral_exp, logsumexp
    from magtun.wkb import Y_HI, matching_constants

    def rebuild(case, eta):
        well, L, h = case.config.well, case.config.L, case.h
        profile, amplitude = case.pipeline.profile, case.pipeline.amplitude
        consts = matching_constants(case.pipeline)
        r_nodes, r_wts = _gauss_nodes(eta, well.a, N_CHAIN)
        r = r_nodes[:, None]

        def g4(y):
            t = np.exp(y)
            log_g0 = (-1.25 * np.log(t) - 0.25 * np.log1p(t)
                      + 0.5 * (amplitude.E1 - 1.0) * np.log1p(1.0 / t))
            return -(profile.psi(r, t) - consts["F"]) / h + log_g0 + y

        log_t = log_integral_exp(g4, math.log(eta), Y_HI)
        # the exact rewrite carries sqrt(r/L), not the bare sqrt(r) of the
        # compact display
        v0_abs = np.maximum(np.abs(well.v0(r_nodes)), 1e-320)
        log_r = np.log(np.sqrt(r_nodes / L) * v0_abs) \
            + amplitude.log_a0(r_nodes)
        return (math.log(2.0 * math.pi) + math.log(consts["m_matched"])
                - 0.5 * math.log(2.0 * math.pi * h)
                + logsumexp(log_r + log_t, b=r_wts))

    return rebuild


def acceptance_line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"
