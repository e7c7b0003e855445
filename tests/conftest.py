"""Shared fixtures; expensive stages are built once per session."""

import pytest

from magtun import (AgmonProfile, Case, DoubleWellConfig, Pipeline,
                    RadialWell, WkbAmplitude, gap_vs_hopping)


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
def profile4(well):
    return AgmonProfile(well, 4.0)


@pytest.fixture(scope="session")
def amp6(well):
    return WkbAmplitude(well, 6.0)


@pytest.fixture(scope="session")
def well_deep():
    return RadialWell.bump(depth=4.0, a=1.0)


@pytest.fixture(scope="session")
def profile_deep(well_deep):
    return AgmonProfile(well_deep, 4.0)


@pytest.fixture(scope="session")
def amp_deep(well_deep):
    return WkbAmplitude(well_deep, 6.0)


@pytest.fixture(scope="session")
def config85(well):
    return DoubleWellConfig(well, 8.5)


@pytest.fixture(scope="session")
def pipeline85(config85):
    return Pipeline(config85)


@pytest.fixture(scope="session")
def gap_report(pipeline85):
    """The 2-D gap against 2|w| at L = 8.5 on the four resolvable h."""
    return gap_vs_hopping(pipeline85, [1.4, 1.2, 1.0, 0.8])


@pytest.fixture(scope="session")
def case():
    """case(well, h, L=4.0) -> the session's one pipeline.Case for that
    (well, L, h): each of its stages is solved once across modules."""
    pipes, cases = {}, {}

    def get(well, h, L=4.0):
        pipe = pipes.setdefault((id(well), L),
                                Pipeline(DoubleWellConfig(well, L)))
        return cases.setdefault((id(well), L, round(h, 6)), Case(pipe, h))

    return get


@pytest.fixture(scope="session")
def deep_chain(well_deep, profile_deep, amp_deep, case):
    """W-chain sweep on the deep well (t_a = 0.392 keeps the eta-policy
    window inside the truncation-error regime)."""
    from magtun import w_chain

    out = {}
    for h in (0.3, 0.2, 0.14, 0.1, 0.07, 0.05):
        c = case(well_deep, h)
        out[h] = {
            eta: w_chain(c.ground, c.outer, amp_deep, profile_deep, eta)
            for eta in ((0.05, 0.1, 0.2) if h == 0.05 else (0.05,))
        }
    return out


def acceptance_line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"
