import math
from types import SimpleNamespace

import numpy as np
import pytest

from magtun import (Case, MagneticLattice, NumericalError, RadialWell,
                    assemble, gap_vs_hopping, landau_level_2d, lowest_two)
from magtun import splitting2d
from magtun.splitting2d import (LANDAU_MARGIN, _rotation_sectors,
                                 _shift_invert, gap_row)


def test_plaquette_and_hermiticity(config4):
    lat = assemble(config4, 0.5, delta=0.1)
    assert lat.hermiticity_deviation() == 0.0
    assert lat.plaquette_phase_deviation() <= 1e-12
    # the phases are read off the matrix: a gauge shift keeps the flux, a
    # reversed or removed field does not
    shifted = lat.with_gauge_shift(lambda x, y: 0.3 * x * x + np.sin(y))
    assert shifted.plaquette_phase_deviation() <= 1e-12
    for matrix in (lat.matrix.conj(), abs(lat.matrix)):
        other = MagneticLattice(lat.h, lat.delta, lat.x, lat.y, matrix)
        assert other.plaquette_phase_deviation() >= 1e-3


def test_delta_precondition(config4):
    with pytest.raises(ValueError, match="too coarse"):
        assemble(config4, 0.5, delta=0.3)


def test_box_precondition(config4):
    with pytest.raises(ValueError, match="clear the wells"):
        assemble(config4, 0.5, delta=0.1, box=(3.0, 2.0))


@pytest.mark.parametrize("box", [(-5.0, -5.0), (0.0, 0.0), (5.0, 0.0)])
def test_box_must_be_positive(box):
    with pytest.raises(ValueError, match="must be positive"):
        assemble(None, 0.5, box=box)


def test_free_default_box_is_square():
    # the free operator's default box: square, for the quarter-turn sector,
    # of half-width 3 magnetic lengths plus LANDAU_MARGIN
    h = 0.5
    lat = assemble(None, h)
    assert lat.shape[0] == lat.shape[1]
    assert np.array_equal(lat.x, lat.y)
    half = 3.0 * math.sqrt(2.0 * h) + LANDAU_MARGIN
    assert abs(lat.x[-1] - half) <= lat.delta


@pytest.mark.parametrize("system, h, delta", [
    ("config4", 0.5, 0.1), ("well", 0.5, 0.1), (None, 0.5, None),
    ("config4", 1.0, 0.07)])
def test_lattice_stores_each_link_once(request, system, h, delta):
    # n diagonal entries and both directions of every x and y link, and no
    # stored zero: the row-end y links are not kept
    if system is not None:
        system = request.getfixturevalue(system)
    lat = assemble(system, h, delta=delta)
    nx, ny = lat.shape
    n = nx * ny
    assert lat.matrix.nnz == n + 2 * (nx - 1) * ny + 2 * nx * (ny - 1)
    assert np.count_nonzero(lat.matrix.data) == lat.matrix.nnz


def test_landau_level_2d():
    # the O(delta^4) left after extrapolation, -1.99e-6 at the default
    # spacings, as in verify's landau_level check
    e_ext, raw = landau_level_2d(0.5)
    assert abs(e_ext - 0.5) / 0.5 <= 1e-5


@pytest.mark.parametrize("h", [0.5, 1.0])
def test_even_sector_holds_free_ground_state(h):
    # each rung's level comes from the quarter-turn sector, a different
    # block from the pi-even one: the two must agree to rounding (they read
    # 4.5e-16 to 3.2e-15 apart), and the full spectrum is the union of the
    # two pi sectors, so the level is the lowest one when it lies below the
    # odd sector's lowest
    _, raw = landau_level_2d(h)
    d0 = math.sqrt(h) / 6.0
    for e, delta in zip(raw, (d0, d0 / math.sqrt(2.0))):
        lat = assemble(None, h, delta=delta)
        block, _ = _rotation_sectors(lat, 2)
        even, _ = _shift_invert(block(1), 0.9 * h, k=1)
        odd, _ = _shift_invert(block(-1), 0.9 * h, k=1)
        assert abs(e - even[0]) <= 1e-13 * even[0]
        assert e < odd[0]


def _count_lu_solves(monkeypatch):
    """Patch splitting2d.splu; returns a list that gets one solve count per
    factorization."""
    counts = []

    class CountingLU:
        def __init__(self, lu):
            self.lu, self.k = lu, len(counts)
            counts.append(0)

        def solve(self, b):
            counts[self.k] += 1
            return self.lu.solve(b)

    splu = splitting2d.splu
    monkeypatch.setattr(splitting2d, "splu",
                        lambda *a, **kw: CountingLU(splu(*a, **kw)))
    return counts


@pytest.mark.parametrize("h", [0.5, 1.0])
def test_landau_rung_solve_budget(monkeypatch, h):
    # the quarter-turn sector has no m = 2 level near the m = 0 one, so
    # Lanczos converges on its first 20-vector basis: 21 solves a rung,
    # where the pi-even sector took 31 at h 0.5
    counts = _count_lu_solves(monkeypatch)
    landau_level_2d(h)
    assert len(counts) == 2
    assert max(counts) <= 22


@pytest.mark.parametrize("system, box, shift, match", [
    (None, (3.0, 4.0), None, "square node set"),
    (None, (3.0, 3.0), lambda x, y: 0.3 * x + 0.1 * y, "rotation by pi/2"),
    ("config4", (7.0, 7.0), None, "rotation by pi/2"),
])
def test_quarter_turn_needs_square_symmetry(config4, system, box, shift,
                                            match):
    lat = assemble(config4 if system else None, 0.5, delta=0.1, box=box)
    if shift is not None:
        lat = lat.with_gauge_shift(shift)
    with pytest.raises(ValueError, match=match):
        lowest_two(lat, sigma=0.45, order=4)


@pytest.mark.parametrize("delta", [0.0, -0.1, float("nan"), float("inf"),
                                   0.2])
def test_landau_deltas_checked_before_assembly(monkeypatch, delta):
    # assemble rejects each spacing (0.2 is too coarse at h 0.5) before
    # any matrix is built, so nothing is factorized
    counts = _count_lu_solves(monkeypatch)
    with pytest.raises(ValueError, match="need delta > 0|too coarse"):
        landau_level_2d(0.5, delta=delta)
    assert counts == []


def test_each_lattice_solve_goes_through_lowest_two(well, case, monkeypatch):
    # lowest_two is the one traced name for every lattice solve: its
    # residual gate and profiling span must cover gap_row's two-sector
    # solve and landau_level_2d's two quarter-turn rungs
    orders = []
    traced = splitting2d.lowest_two

    def spy(*args, **kwargs):
        orders.append(kwargs.get("order", 1))
        return traced(*args, **kwargs)

    monkeypatch.setattr(splitting2d, "lowest_two", spy)
    gap_row(case(well, 1.2, L=8.5))
    assert orders == [2]
    orders.clear()
    landau_level_2d(0.5)
    assert orders == [4, 4]


def test_single_well_control(well, case):
    h = 0.3
    lat = assemble(well, h, delta=0.06)
    ref = case(well, h).ground.e_sw
    vals, _, _ = lowest_two(lat, sigma=ref - 0.2 * h)
    # reads 2.84e-3: the lattice's O(delta^2) error at delta 0.06
    assert abs(vals[0] - ref) / abs(ref) <= 5e-3


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
        vals, _, _ = lowest_two(lat, sigma=ref - 0.2 * h)
        es.append(vals[0])
    # reads 1.42e-3, half the delta 0.06 error above, as O(delta^2) gives
    assert abs(es[1] - es[0]) / abs(es[0]) <= 3e-3


def test_box_growth_stability(well, case):
    h = 0.3
    ref = case(well, h).ground.e_sw
    mag = math.sqrt(2 * h)
    es = []
    for extra in (0.0, mag):
        X = 1.0 + 3 * mag + 0.4 + extra
        lat = assemble(well, h, delta=0.06, box=(X, X))
        vals, _, _ = lowest_two(lat, sigma=ref - 0.2 * h)
        es.append(vals[0])
    # reads 2.4e-12: the box already clears the well by 3 magnetic lengths
    assert abs(es[1] - es[0]) / abs(es[0]) <= 1e-9


@pytest.fixture(scope="module")
def full_pairs(config85, well, case):
    """h -> (vals, vecs) of the full-matrix two-level solve on each gap_report
    row."""
    out = {}
    for h in (1.4, 1.2, 1.0, 0.8):
        lat = assemble(config85, h)
        sigma = case(well, h, L=8.5).ground.e_sw - 0.1 * h
        vals, vecs, _ = lowest_two(lat, sigma=sigma)
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


def _rayleigh_longdouble(M, v):
    """v^H M v / v^H v, every product and sum in extended precision."""
    coo = M.tocoo()
    v = v.astype(np.clongdouble)
    Mv = np.zeros_like(v)
    np.add.at(Mv, coo.row, coo.data.astype(np.clongdouble) * v[coo.col])
    return (np.sum(v.conj() * Mv) / np.sum(v.conj() * v)).real


def test_sector_gap_matches_extended_precision(config85, gap_report,
                                               full_pairs):
    # an oracle outside the sector code: each full-matrix vector projected
    # onto its own pi-rotation sector, its Rayleigh quotient in long double
    for row in gap_report.rows:
        M = assemble(config85, row.h).matrix
        levels = []
        for v in full_pairs[row.h][1].T:
            parity = np.sign(np.vdot(v, v[::-1]).real)
            levels.append(_rayleigh_longdouble(M, v + parity * v[::-1]))
        oracle = float(abs(levels[1] - levels[0]))
        assert abs(row.gap - oracle) <= 1e-4 * oracle


@pytest.mark.parametrize("depth, L, h", [
    (1.0, 8.5, 1.2),
    # shallow, short and at large h: the even level lies 3.4e-3 below e_sw,
    # three quarters of the way down to the shift
    (0.5, 5.0, 2.0),
])
def test_gap_row_solve_budget(well, case, monkeypatch, depth, L, h):
    # both sectors at one close shift on a 4-vector basis: 20 LU solves
    # at each input, where one default 20-vector basis per sector took 42
    counts = _count_lu_solves(monkeypatch)
    if depth != well.depth:
        well = RadialWell.bump(depth=depth, a=well.a)
    row = gap_row(case(well, h, L=L))
    assert row.floor_flag == "ok"
    assert sum(counts) <= 24


def test_gap_row_needs_fiber_energies(well, pipe):
    c = Case(pipe(well), 0.5)
    c.ground = SimpleNamespace(e_sw=0.1, fiber_energies=None)
    with pytest.raises(ValueError, match="fiber_energies"):
        gap_row(c, delta=0.1)


def test_gap_row_rejects_level_far_from_e_sw(well, pipe, case):
    # a ground 0.2 below the true one, with a fiber gap of 0.2: the shift
    # still finds the true even level, which lies beyond half that gap
    e_sw = case(well, 0.5).ground.e_sw - 0.2
    c = Case(pipe(well), 0.5)
    c.ground = SimpleNamespace(e_sw=e_sw,
                               fiber_energies={0: e_sw, 1: e_sw + 0.2})
    with pytest.raises(NumericalError, match="beyond half the fiber gap"):
        gap_row(c, delta=0.1)


@pytest.mark.parametrize("order", [0, 3, (1, 2)])
def test_order_is_one_two_or_four(config4, order):
    lat = assemble(config4, 0.5, delta=0.1)
    with pytest.raises(ValueError, match="order must be"):
        lowest_two(lat, sigma=0.0, order=order)


def test_sector_needs_rotation_symmetry(config4):
    lat = assemble(config4, 0.5, delta=0.1)
    shifted = lat.with_gauge_shift(lambda x, y: 0.3 * x + 0.1 * y)
    with pytest.raises(ValueError, match="rotation by pi"):
        lowest_two(shifted, sigma=0.0, order=2)


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


def test_predicted_action_in_window(pipeline85):
    # the h-window was chosen so that e^{-S/h} is in [1e-12, 1e-2]
    S = pipeline85.action.S
    for h in (1.4, 0.8):
        assert 1e-12 <= math.exp(-S / h) <= 1e-2
