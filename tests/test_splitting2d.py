import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from magtun import (Case, MagneticLattice, NumericalError, RadialWell,
                    assemble, gap_vs_hopping, landau_level_2d, lowest_two)
from magtun import splitting2d
from magtun.splitting2d import (LANDAU_MARGIN, MAX_LATTICE_NODES,
                                 _rotation_sectors, _shift_invert, gap_row)


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
        blocks, _ = _rotation_sectors(lat, 2, 0.9 * h, (1, -1))
        even, odd = [_shift_invert(splu(b, permc_spec="MMD_AT_PLUS_A"),
                                   0.9 * h, k=1)[0] for b in blocks]
        assert abs(e - even[0]) <= 1e-13 * even[0]
        assert e < odd[0]


@pytest.mark.parametrize("order, system, h, delta, sigma", [
    (1, "config4", 0.5, 0.1, 0.45), (1, "config85", 0.93, 0.1, 0.68),
    (2, "config4", 0.5, 0.1, 0.45), (2, "config85", 0.93, 0.1, 0.68),
    (4, None, 0.5, math.sqrt(0.5) / 6.0, 0.45), (4, None, 1.0, 0.1, 0.9)])
def test_shifted_sector_blocks(request, order, system, h, delta, sigma):
    # each block comes shifted and in CSC, equal in data, indices and
    # indptr to its sum of rotation images, sum_k p^k M[reps, R^k reps],
    # less sigma I, converted after the shift; order 1's one block is
    # M - sigma I
    lat = assemble(system and request.getfixturevalue(system), h, delta=delta)
    M, n = lat.matrix, lat.n_nodes
    parities = (1, -1) if order == 2 else (1,)
    blocks, _ = _rotation_sectors(lat, order, sigma, parities)
    if order == 1:
        refs = [(M - sigma * sp.identity(n)).tocsc()]
    else:
        if order == 2:
            rot, reps = np.arange(n)[::-1], np.arange(n // 2)
        else:
            idx = np.arange(n).reshape(lat.shape)
            rot, reps = idx[::-1].T.ravel(), idx[:lat.shape[0] // 2,
                                                 :lat.shape[0] // 2].ravel()
        refs = []
        for p in parities:
            images, image = [], reps
            for k in range(order):
                images.append(p**k * M[reps][:, image])
                image = rot[image]
            refs.append((sum(images[1:], images[0])
                         - sigma * sp.identity(len(reps))).tocsc())
    for block, ref in zip(blocks, refs, strict=True):
        assert block.format == "csc"
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(block, part), getattr(ref, part))


def test_sector_blocks_built_in_bounded_memory(config85):
    # numpy and sparsetools report to tracemalloc, so the traced peak is
    # deterministic: 3.31x the blocks' bytes when each parity copied M[reps]
    # into its own triplets, 2.23x with one pattern on slices of M's CSR
    # arrays, where the commutation check's M[rot][:, rot] (2.19x) sets it.
    # The bound is 2.23 plus a 12% margin, under the 2.63 of the one pattern
    # on a copy of M[reps].
    lat = assemble(config85, 0.93, delta=0.05)
    tracemalloc.start()
    try:
        blocks, _ = _rotation_sectors(lat, 2, 0.68, (1, -1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(b.data.nbytes + b.indices.nbytes + b.indptr.nbytes
               for b in blocks)
    assert peak <= 2.5 * size


@pytest.mark.parametrize("ulps, residual, flag", [
    (4, 0.0, "floor(gap below 100x level rounding)"),
    (1000, 0.0, "ok"),
    (1000, 1e-14, "floor(gap below 100x residual)")])
def test_gap_row_flags_level_rounding(well, case, monkeypatch, ulps,
                                      residual, flag):
    # a gap of a few ulps of its levels is rounding, however small the
    # residuals: "ok" needs the gap above 100x 8 ulps of e2 as well
    c = case(well, 0.93, L=8.5)
    e = c.ground.e_sw
    vals = np.array([e, e + ulps * math.ulp(e)])
    monkeypatch.setattr(splitting2d, "assemble", lambda *a, **kw: None)
    monkeypatch.setattr(splitting2d, "_pair_start", lambda *a: (None, e))
    monkeypatch.setattr(splitting2d, "lowest_two",
                        lambda *a, **kw: (vals, None, [residual] * 2))
    row = gap_row(c)
    assert row.gap == ulps * math.ulp(e) and row.floor_flag == flag


def test_gap_row_frozen(pipeline85):
    # one delta 0.1 row (L 8.5, h 0.93), frozen before the SuperLU panel
    # narrowed from 20 columns to PANEL_SIZE: the levels move by rounding,
    # the gap by its own rounding floor
    row = gap_row(Case(pipeline85, 0.93), delta=0.1)
    assert abs(row.e1 - 0.711103942623655) <= 1e-13
    assert abs(row.e2 - 0.711103943724837) <= 1e-13
    assert abs(row.gap / 1.101182034446424e-09 - 1.0) <= 1e-5
    assert row.floor_flag == "ok" and row.ground_parity == 1


@pytest.mark.parametrize("kw", [dict(delta=1e-4), dict(box=(1e300, 1e300)),
                                dict(delta=1e-320), dict(box=(1e12, 6.0))])
def test_lattice_above_node_cap_is_refused(config85, kw):
    # refused from the node counts alone, before any array is built
    with pytest.raises(ValueError, match="above MAX_LATTICE_NODES"):
        assemble(config85, 1.0, **kw)
    lat = assemble(config85, 1.0, delta=0.05)
    assert lat.n_nodes < MAX_LATTICE_NODES


def _count_lu_solves(monkeypatch):
    """Patch splitting2d.splu; returns a list that gets one solve count per
    factorization."""
    counts = []

    class CountingLU:
        def __init__(self, lu):
            self.lu, self.k, self.shape = lu, len(counts), lu.shape
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


# (depth, L, h) -> LU solves of gap_row.  The second input is shallow,
# short and at large h: its even level lies 3.4e-3 below e_sw, and the
# odd one 4.2e-3 above the even, not exponentially close.
SOLVE_BUDGET = {(1.0, 8.5, 1.2): 8, (0.5, 5.0, 2.0): 12}


def _gap_row_at(well, case, depth, L, h):
    if depth != well.depth:
        well = RadialWell.bump(depth=depth, a=well.a)
    c = case(well, h, L=L)
    return c, gap_row(c)


@pytest.mark.parametrize("depth, L, h", list(SOLVE_BUDGET))
def test_gap_row_solve_budget(well, case, monkeypatch, depth, L, h):
    # inverse iteration at a shift D/1000 below the pair: 3 LU solves per
    # sector where the pair is close.  At the second input the odd level
    # lies 4.2e-3 above the shift, 1/12 of the way to the next odd level,
    # so each odd solve cuts its error about 12-fold: 3 + 9 solves.  A
    # 4-vector Krylov basis per sector at D/10 took 20 at each input.
    counts = _count_lu_solves(monkeypatch)
    _, row = _gap_row_at(well, case, depth, L, h)
    assert row.floor_flag == "ok"
    assert len(counts) == 2 and sum(counts) <= SOLVE_BUDGET[depth, L, h]


@pytest.mark.parametrize("depth, L, h", list(SOLVE_BUDGET))
def test_gap_row_shift_sits_on_the_pair(well, case, monkeypatch, depth, L, h):
    # the shift is the lifted pair's Rayleigh quotient less D/1000, and
    # that quotient is at most D/1000 above the even level (7e-7 to 2.8e-5
    # on the measured rows), so the shift lies below the pair and within
    # D/1000 of it
    seen = {}
    traced = splitting2d.lowest_two

    def spy(lattice, sigma, order=1, start=None):
        seen.update(lattice=lattice, sigma=sigma, start=start)
        return traced(lattice, sigma, order=order, start=start)

    monkeypatch.setattr(splitting2d, "lowest_two", spy)
    c, row = _gap_row_at(well, case, depth, L, h)
    fibers = c.ground.fiber_energies
    spacing = min(e for m, e in fibers.items() if m != 0) - c.ground.e_sw
    v = np.concatenate([seen["start"], seen["start"][::-1]])
    rayleigh = np.vdot(v, seen["lattice"].matrix @ v).real / np.vdot(v, v).real
    assert seen["sigma"] < row.e1 <= rayleigh
    assert row.e1 - seen["sigma"] <= spacing / 1000.0


def test_inverse_iteration_solve_cap(well, case, monkeypatch):
    # one solve from the lifted pair leaves a residual far above the stop
    # rule's 4 eps max|diag|: past the cap, a NumericalError naming it
    monkeypatch.setattr(splitting2d, "MAX_SOLVES", 1)
    with pytest.raises(NumericalError, match="not converged in 1 LU solves"):
        gap_row(case(well, 1.2, L=8.5))


def test_gap_row_needs_fiber_energies(well, pipe):
    c = Case(pipe(well), 0.5)
    c.ground = SimpleNamespace(e_sw=0.1, fiber_energies=None)
    with pytest.raises(ValueError, match="fiber_energies"):
        gap_row(c, delta=0.1)


def test_gap_row_rejects_level_far_from_e_sw(well, pipe, case):
    # a ground 0.2 below the true one, with a fiber gap of 0.2: the shift
    # still finds the true even level, which lies beyond half that gap
    # (its profile is the true one, which the start vector reads)
    true = case(well, 0.5).ground
    e_sw = true.e_sw - 0.2
    c = Case(pipe(well), 0.5)
    c.ground = SimpleNamespace(e_sw=e_sw,
                               fiber_energies={0: e_sw, 1: e_sw + 0.2},
                               grid=true.grid, log_profile=true.log_profile)
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
