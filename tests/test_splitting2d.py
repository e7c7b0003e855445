import math

import numpy as np
import pytest

from magtun import assemble, gap_vs_hopping, landau_level_2d, lowest_two


def test_plaquette_and_hermiticity(config4):
    lat = assemble(config4, 0.5, delta=0.1)
    assert lat.hermiticity_deviation() == 0.0
    assert lat.plaquette_phase_deviation() <= 1e-12


def test_delta_precondition(config4):
    with pytest.raises(ValueError, match="too coarse"):
        assemble(config4, 0.5, delta=0.3)


def test_box_precondition(config4):
    with pytest.raises(ValueError, match="clear the wells"):
        assemble(config4, 0.5, delta=0.1, box=(3.0, 2.0))


def test_landau_level_2d():
    e_ext, raw = landau_level_2d(0.5)
    assert abs(e_ext - 0.5) / 0.5 <= 0.03


def test_single_well_control(well, case):
    h = 0.3
    lat = assemble(well, h, delta=0.06)
    ref = case(well, h).ground.e_sw
    vals, _, _ = lowest_two(lat, sigma=ref - 0.2 * h, k=2)
    assert abs(vals[0] - ref) / abs(ref) <= 0.02


def test_parity_of_ground_magnitude(config4, well, case):
    h = 0.5
    lat = assemble(config4, h, delta=0.1)
    sol = case(well, h).ground
    vals, vecs, _ = lowest_two(lat, sigma=sol.e_sw - 0.1 * h)
    psi = np.abs(vecs[:, 0]).reshape(lat.shape)
    flipped = psi[::-1, :]
    assert np.max(np.abs(psi - flipped)) <= 1e-6 * np.max(psi)
    assert vals[1] > vals[0]


def test_gauge_shift_invariance(config4, well, case):
    h = 0.5
    lat = assemble(config4, h, delta=0.1)
    shifted = lat.with_gauge_shift(lambda x, y: 0.3 * x + 0.1 * y)
    sigma = case(well, h).ground.e_sw - 0.1 * h
    v1, _, _ = lowest_two(lat, sigma=sigma)
    v2, _, _ = lowest_two(shifted, sigma=sigma)
    assert np.max(np.abs(v1 - v2)) <= 1e-10


def test_delta_refinement_stability(well, case):
    h = 0.3
    ref = case(well, h).ground.e_sw
    es = []
    for delta in (0.06, 0.06 / math.sqrt(2.0)):
        lat = assemble(well, h, delta=delta)
        vals, _, _ = lowest_two(lat, sigma=ref - 0.2 * h, k=2)
        es.append(vals[0])
    assert abs(es[1] - es[0]) / abs(es[0]) <= 0.01


def test_box_growth_stability(well, case):
    h = 0.3
    ref = case(well, h).ground.e_sw
    mag = math.sqrt(2 * h)
    es = []
    for extra in (0.0, mag):
        X = 1.0 + 3 * mag + 0.4 + extra
        lat = assemble(well, h, delta=0.06, box=(X, X))
        vals, _, _ = lowest_two(lat, sigma=ref - 0.2 * h, k=2)
        es.append(vals[0])
    assert abs(es[1] - es[0]) / abs(es[0]) <= 1e-3


@pytest.fixture(scope="module")
def full_pairs(config85, well, case):
    """h -> (vals, vecs) of the full-matrix k=2 solve on each gap_report row."""
    out = {}
    for h in (1.4, 1.2, 1.0, 0.8):
        lat = assemble(config85, h)
        sigma = case(well, h, L=8.5).ground.e_sw - 0.1 * h
        vals, vecs, _ = lowest_two(lat, sigma=sigma, k=2)
        out[h] = (vals, vecs)
    return out


def test_sector_gap_matches_full_matrix(gap_report, full_pairs):
    for row in gap_report.rows:
        vals, _ = full_pairs[row.h]
        full_gap = vals[1] - vals[0]
        assert abs(row.gap - full_gap) <= 1e-4 * full_gap


def test_ground_parity_matches_full_vector(gap_report, full_pairs):
    for row in gap_report.rows:
        v = full_pairs[row.h][1][:, 0]
        overlap = np.vdot(v, v[::-1])
        assert abs(abs(overlap) - 1.0) <= 1e-6  # a parity eigenvector
        assert row.ground_parity == np.sign(overlap.real)


def test_sector_needs_rotation_symmetry(config4):
    lat = assemble(config4, 0.5, delta=0.1)
    shifted = lat.with_gauge_shift(lambda x, y: 0.3 * x + 0.1 * y)
    with pytest.raises(ValueError, match="rotation by pi"):
        lowest_two(shifted, sigma=0.0, k=1, parity=1)


def test_gap_rows_resolvable(gap_report):
    rows = gap_report.resolvable_rows()
    assert len(rows) == 4
    for row in rows:
        assert row.e2 > row.e1
        assert gap_report.corridor[0] <= row.h_ln_gap <= gap_report.corridor[1]
        assert 0.5 <= row.ratio <= 2.0


def test_gap_monotone(gap_report):
    gaps = [r.gap for r in gap_report.resolvable_rows()]
    assert all(x > y for x, y in zip(gaps, gaps[1:]))


def test_floor_detection(pipeline85):
    report = gap_vs_hopping(pipeline85, [0.5])
    assert len(report.rows) == 1
    assert report.rows[0].floor_flag.startswith("unresolvable")


def test_predicted_action_in_window(config85, gap_report):
    # the h-window was chosen so that e^{-S/h} is in [1e-12, 1e-2]
    S = gap_report.predicted_S
    for h in (1.4, 0.8):
        assert 1e-12 <= math.exp(-S / h) <= 1e-2
