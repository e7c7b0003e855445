import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh
from scipy.sparse.linalg import splu as splu_ref

from magtun import (Case, MagneticLattice, NumericalError, RadialWell,
                    assemble, gap_vs_hopping, landau_level_2d, lowest_two)
from magtun import splitting2d
from magtun.potential import eval_V
from magtun.splitting2d import (LANDAU_MARGIN, MAX_LATTICE_NODES, PANEL_SIZE,
                                 _rotation_sectors, gap_row)


def _csr(M):
    """The lattice matrix (CSR arrays) as a scipy matrix."""
    return sp.csr_matrix((M.data, M.indices, M.indptr), shape=M.shape)


def _csc(block):
    """A sector block (CSC arrays) as a scipy matrix."""
    return sp.csc_matrix((block.data, block.indices, block.indptr),
                         shape=block.shape)


def _nearest(A, sigma, k):
    """The k eigenpairs of the Hermitian A nearest sigma, ascending, by
    scipy's shift-invert eigsh on an MMD-ordered LU of A - sigma from a flat
    start: a reference that shares no solver with splitting2d."""
    n = A.shape[0]
    lu = splu_ref((A - sigma * sp.identity(n)).tocsc(),
                  permc_spec="MMD_AT_PLUS_A")
    inv = LinearOperator((n, n), matvec=lu.solve, dtype=complex)
    vals, vecs = eigsh(A, k=k, sigma=sigma, OPinv=inv,
                       v0=np.full(n, 1.0 / math.sqrt(n)))
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def test_plaquette_and_hermiticity(config4):
    lat = assemble(config4, 0.5, delta=0.1)
    assert lat.hermiticity_deviation() == 0.0
    assert lat.plaquette_phase_deviation() <= 1e-12
    # the phases are read off the matrix: a gauge shift keeps the flux, a
    # reversed or removed field does not
    shifted = lat.with_gauge_shift(lambda x, y: 0.3 * x * x + np.sin(y))
    assert shifted.plaquette_phase_deviation() <= 1e-12
    M = lat.matrix
    for data in (M.data.conj(), abs(M.data)):
        other = MagneticLattice(lat.h, lat.delta, lat.x, lat.y,
                                M._replace(data=data))
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


def _diags_reference(system, lat):
    """The lattice matrix as scipy's diags assembled it: the five diagonals,
    converted to CSR, stored zeros (the row-end y links) dropped."""
    h, delta, ny = lat.h, lat.delta, len(lat.y)
    XX, YY = np.meshgrid(lat.x, lat.y, indexing="ij")
    V = np.zeros_like(XX) if system is None else \
        eval_V(system, np.stack([XX, YY], axis=-1))
    t = h * h / delta**2
    xl = (-t * np.exp(-1j * (-YY[:-1] * delta / 2.0) / h)).ravel()
    yl = -t * np.exp(-1j * (XX * delta / 2.0) / h)
    yl[:, -1] = 0.0
    yl = yl.ravel()[:-1]
    M = sp.diags([4.0 * t + V.ravel(), xl, xl.conj(), yl, yl.conj()],
                 [0, ny, -ny, 1, -1], format="csr")
    M.eliminate_zeros()
    return M


@pytest.mark.parametrize("system, h, delta", [("config85", 0.93, 0.1),
                                              (None, 0.5, None)])
def test_assembly_matches_scipy_diags(request, system, h, delta):
    # the CSR arrays are scipy's, and so are the products with a vector
    # and the diagonals, bit for bit
    system = system and request.getfixturevalue(system)
    lat = assemble(system, h, delta=delta)
    M, ref = lat.matrix, _diags_reference(system, lat)
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(M, part), getattr(ref, part))
    assert M.shape == ref.shape and M.nnz == ref.nnz
    v = np.random.default_rng(5).normal(size=(lat.n_nodes, 2)) @ [1, 1j]
    assert np.array_equal(M @ v, ref @ v)
    with pytest.raises(ValueError, match="need a vector"):
        M @ v[1:]
    for k in (0, 1, lat.shape[1]):
        assert np.array_equal(M.diagonal(k), ref.diagonal(k))


def test_hermiticity_deviation_against_scipy(config4):
    # one link stored in one direction only, one diagonal entry not real
    lat = assemble(config4, 0.5, delta=0.1)
    ny = lat.shape[1]
    M = _csr(lat.matrix).tolil()
    M[0, ny], M[5, 5] = 0.0, M[5, 5] + 1e-3j
    M = M.tocsr()
    M.eliminate_zeros()
    other = MagneticLattice(lat.h, lat.delta, lat.x, lat.y,
                            lat.matrix._replace(data=M.data, indices=M.indices,
                                                indptr=M.indptr))
    assert other.hermiticity_deviation() == abs(M - M.getH()).max() > 0


def test_landau_level_2d():
    # the O(delta^4) left after extrapolation, -1.99e-6 at the default
    # spacings, as in verify's landau_level check
    e_ext, raw = landau_level_2d(0.5)
    assert abs(e_ext - 0.5) / 0.5 <= 1e-5


@pytest.mark.parametrize("h", [0.5, 1.0])
def test_even_sector_holds_free_ground_state(h):
    # each rung's level comes from the quarter-turn sector, a different
    # block from the pi-even one, solved here by eigsh: the two must agree
    # to rounding (they read 9.5e-15 to 4.2e-14 apart, 4.5e-16 to 3.2e-15
    # when both came from eigsh), and the full spectrum is the union of the
    # two pi sectors, so the level is the lowest one when it lies below the
    # odd sector's lowest
    _, raw = landau_level_2d(h)
    d0 = math.sqrt(h) / 6.0
    for e, delta in zip(raw, (d0, d0 / math.sqrt(2.0))):
        lat = assemble(None, h, delta=delta)
        blocks, _ = _rotation_sectors(lat, 2, 0.0, (1, -1))
        even, odd = [_nearest(_csc(b), 0.9 * h, 1)[0] for b in blocks]
        assert abs(e - even[0]) <= 1e-13 * even[0]
        assert e < odd[0]


@pytest.mark.parametrize("order, system, h, delta, sigma", [
    (2, "config4", 0.5, 0.1, 0.45), (2, "config85", 0.93, 0.1, 0.68),
    (4, None, 0.5, math.sqrt(0.5) / 6.0, 0.45), (4, None, 1.0, 0.1, 0.9)])
def test_shifted_sector_blocks(request, order, system, h, delta, sigma):
    # each block comes shifted and in CSC, equal in data, indices and
    # indptr to its sum of rotation images, sum_k p^k M[reps, R^k reps],
    # less sigma I, converted by scipy after the shift; and splu's solves
    # are those of scipy's splu with the same options, bit for bit
    lat = assemble(system and request.getfixturevalue(system), h, delta=delta)
    M, n = _csr(lat.matrix), lat.n_nodes
    parities = (1, -1) if order == 2 else (1,)
    blocks, _ = _rotation_sectors(lat, order, sigma, parities)
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
    rhs = np.random.default_rng(3).normal(size=(len(reps), 2)) @ [1, 1j]
    for block, ref in zip(blocks, refs, strict=True):
        assert ref.has_canonical_format and block.shape == ref.shape
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(block, part), getattr(ref, part))
        lu = splu_ref(ref, permc_spec="MMD_AT_PLUS_A", panel_size=PANEL_SIZE)
        assert np.array_equal(splitting2d.splu(block).solve(rhs),
                              lu.solve(rhs))


def test_sector_blocks_built_in_bounded_memory(config85):
    # numpy reports to tracemalloc, so the traced peak is deterministic:
    # 3.31x the blocks' bytes when each parity copied M[reps] into its own
    # triplets, 2.23x with one pattern on slices of M's CSR arrays and
    # scipy's COO to CSC conversion, where the commutation check's
    # M[rot][:, rot] (2.19x) set it, and 1.96x with the pattern's CSC order
    # sorted once in numpy.  The bound is 2.23 plus a 12% margin, under the
    # 2.63 of the one pattern on a copy of M[reps].
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
    monkeypatch.setattr(splitting2d, "_start", lambda *a: (None, e))
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
    # inverse iteration from the Landau state with its first-order lattice
    # share of the n = 4 level, at its Rayleigh quotient, 1.1e-3 to 1.9e-3
    # of the way from the lowest quarter-sector level to the next: 3
    # solves a rung, where Lanczos took 21 (and the plain Landau state 13
    # and 6 at h 0.5)
    counts = _count_lu_solves(monkeypatch)
    landau_level_2d(h)
    assert len(counts) == 2
    assert max(counts) <= 4


def test_landau_level_above_start_quotient_raises(monkeypatch):
    # a start's Rayleigh quotient bounds the lowest level from above; one
    # read 1e-5 low (the true quotient lies 7.2e-7 to 9.2e-7 above the
    # level at h 1) leaves the rung's level above it
    start = splitting2d._start

    def low(*args):
        x, rq = start(*args)
        return x, rq - 1e-5

    monkeypatch.setattr(splitting2d, "_start", low)
    with pytest.raises(NumericalError, match="above its start's Rayleigh"):
        landau_level_2d(1.0)


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
        lowest_two(lat, sigma=0.45, order=4, start=None)


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
        orders.append(kwargs["order"])
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
    vals, _ = _nearest(_csr(lat.matrix), ref - 0.2 * h, 2)
    # reads 2.84e-3: the lattice's O(delta^2) error at delta 0.06
    assert abs(vals[0] - ref) / abs(ref) <= 5e-3


def test_parity_of_ground_magnitude(config4, well, case):
    h = 0.5
    lat = assemble(config4, h, delta=0.1)
    sol = case(well, h).ground
    vals, vecs = _nearest(_csr(lat.matrix), sol.e_sw - 0.1 * h, 2)
    psi = np.abs(vecs[:, 0]).reshape(lat.shape)
    flipped = psi[::-1, :]
    assert np.max(np.abs(psi - flipped)) <= 1e-6 * np.max(psi)
    assert vals[1] > vals[0]


def test_gauge_shift_invariance(config4, well, case):
    h = 0.5
    lat = assemble(config4, h, delta=0.1)
    shifted = lat.with_gauge_shift(lambda x, y: 0.3 * x + 0.1 * y)
    sigma = case(well, h).ground.e_sw - 0.1 * h
    v1, _ = _nearest(_csr(lat.matrix), sigma, 2)
    v2, _ = _nearest(_csr(shifted.matrix), sigma, 2)
    assert np.max(np.abs(v1 - v2)) <= 1e-10


def test_delta_refinement_stability(well, case):
    h = 0.3
    ref = case(well, h).ground.e_sw
    es = []
    for delta in (0.06, 0.06 / math.sqrt(2.0)):
        lat = assemble(well, h, delta=delta)
        vals, _ = _nearest(_csr(lat.matrix), ref - 0.2 * h, 2)
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
        vals, _ = _nearest(_csr(lat.matrix), ref - 0.2 * h, 2)
        es.append(vals[0])
    # reads 2.4e-12: the box already clears the well by 3 magnetic lengths
    assert abs(es[1] - es[0]) / abs(es[0]) <= 1e-9


@pytest.fixture(scope="module")
def full_pairs(config85, well, case):
    """h -> (vals, vecs) of the full matrix's two levels nearest its shift
    (_nearest) on each gap_report row."""
    out = {}
    for h in (1.4, 1.2, 1.0, 0.8):
        lat = assemble(config85, h)
        sigma = case(well, h, L=8.5).ground.e_sw - 0.1 * h
        out[h] = _nearest(_csr(lat.matrix), sigma, 2)
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
    v = v.astype(np.clongdouble)
    Mv = np.zeros_like(v)
    np.add.at(Mv, M.rows(), M.data.astype(np.clongdouble) * v[M.indices])
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

    def spy(lattice, sigma, order, start):
        seen.update(lattice=lattice, sigma=sigma, start=start)
        return traced(lattice, sigma, order, start)

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


@pytest.mark.parametrize("order", [0, 3, (1, 2), 1])
def test_order_is_two_or_four(config4, order):
    lat = assemble(config4, 0.5, delta=0.1)
    with pytest.raises(ValueError, match="order must be 2 or 4"):
        lowest_two(lat, sigma=0.0, order=order, start=None)


def test_sector_needs_rotation_symmetry(config4):
    lat = assemble(config4, 0.5, delta=0.1)
    shifted = lat.with_gauge_shift(lambda x, y: 0.3 * x + 0.1 * y)
    with pytest.raises(ValueError, match="rotation by pi"):
        lowest_two(shifted, sigma=0.0, order=2, start=None)


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
