"""Sparse 2-D realization of (hD - A)^2 + V with Peierls link phases.

Each directed edge carries the unit phase exp(-i A(midpoint).edge / h); for
the linear symmetric gauge A = (-y/2, x/2) the midpoint rule integrates
A . dl exactly, so every plaquette encloses exactly the continuum flux
delta^2 and gauge covariance holds on the lattice to machine precision.
The lowest eigenvalues come from solves on one complex sparse LU per block,
with a symmetric fill-reducing (MMD on A^T + A) ordering and a SuperLU
panel of PANEL_SIZE = 4 columns, as SuperLU's 20 keep a dense n x 20 work
array that set a factorization's peak; start vectors are fixed for
run-to-run determinism.  The double-well operator commutes with rotation
by pi about the midpoint, so the splitting is taken between the lowest
levels of its even and odd half-size sector blocks: each is simple, and no
solver has to separate the exponentially close pair.  `gap_row` sets that
gap at one h against 2|w| from the same pipeline.Case; `gap_vs_hopping`
runs it over an h-list.  Its shift sits D/1000 below the Rayleigh quotient
of the lifted pair phi_L + phi_R, D the distance from e_sw to the next
fiber level, so inverse iteration from that pair cuts the error about
1000-fold per LU solve: 3 solves per sector.  Both sectors share that one
shift: the gap is a difference of two nearly equal eigenvalues, and their
rounding cancels only when both come from the same shifted operator.  The
other solves keep shift-invert Lanczos (eigsh).  The free Landau check
runs on a square box, where the free operator also commutes with rotation
by pi/2: it takes the lowest level of the quarter-size sector of
rotation-invariant vectors, where the m = 0 Landau state lies, away from
the rest of the near-degenerate Landau cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .numerics import NumericalError, _richardson
from .pipeline import Case
from .potential import DoubleWellConfig, RadialWell, eval_V

__all__ = [
    "MagneticLattice",
    "assemble",
    "lowest_two",
    "landau_level_2d",
    "gap_row",
    "gap_vs_hopping",
    "GapRow",
    "GapReport",
]


class MagneticLattice:
    """Assembled lattice operator plus its geometry."""

    def __init__(self, h, delta, x, y, matrix):
        self.h = h
        self.delta = delta
        self.x = x
        self.y = y
        self.matrix = matrix
        self.n_nodes = matrix.shape[0]

    @property
    def shape(self):
        return (len(self.x), len(self.y))

    def hermiticity_deviation(self):
        dev = self.matrix - self.matrix.getH()
        return 0.0 if dev.nnz == 0 else float(np.abs(dev.data).max())

    def plaquette_phase_deviation(self):
        """max |product of 4 link phases - exp(-i delta^2/h)| over all cells,
        each read off the matrix: node k's +x and +y link entries (k, k + ny)
        and (k, k + 1) are -h^2/delta^2 times their phases."""
        nx, ny = self.shape
        link = -self.h * self.h / self.delta**2
        phx = (self.matrix.diagonal(ny) / link).reshape(nx - 1, ny)
        phy = np.append(self.matrix.diagonal(1) / link, 0.0).reshape(nx, ny)
        # counterclockwise: bottom(j), right(i+1), top(j+1) conj, left(i) conj
        prod = (phx[:, :-1] * phy[1:, :-1]
                * np.conj(phx[:, 1:]) * np.conj(phy[:-1, :-1]))
        target = np.exp(-1j * self.delta**2 / self.h)
        return float(np.abs(prod - target).max())

    def with_gauge_shift(self, chi):
        """Conjugate by node phases e^{-i chi/h}: the discrete A -> A + grad chi."""
        XX, YY = np.meshgrid(self.x, self.y, indexing="ij")
        u = np.exp(-1j * chi(XX, YY).ravel() / self.h)
        U = sp.diags(u)
        M = (U @ self.matrix @ U.getH()).tocsr()
        return MagneticLattice(self.h, self.delta, self.x, self.y, M)


BOX_MARGIN = 0.4   # default box clearance beyond 3 magnetic lengths
# The most nodes assemble builds.  LU fill per sector node read 37, 43,
# 46-51 and 51 entries at delta 0.1, 0.07, 0.05 and 0.035 (L 8.5, h 0.84-1,
# 21k to 171k nodes), about 5 more per doubling, at 18 to 21 bytes of peak
# RSS each (a complex value and its row index take 20): the 250k-node
# sector of a capped lattice takes about 0.3 GB to factor.
MAX_LATTICE_NODES = 500_000
LANDAU_MARGIN = 1.5   # the free box's half-width beyond 3 magnetic lengths
RESIDUAL_RTOL = 1e-10   # eigenpair residual gate, relative to max |diag|


def assemble(system, h, delta=None, box=None):
    """Five-point gauge-covariant stencil on a node set symmetric in x and y;
    node k = i ny + j links to k + ny (x) and k + 1 (y).

    system: DoubleWellConfig, RadialWell (single well at the origin), or
    None (free Landau operator, whose default box is the square, for the
    pi/2 turn, of half-width 3 sqrt(2h) + LANDAU_MARGIN).  Preconditions:
    0 < delta <= min(sqrt(h)/6, a/10), and the box half-widths must be
    positive and clear the wells by >= 3 magnetic lengths 3 sqrt(2h).
    """
    if isinstance(system, DoubleWellConfig):
        well, L = system.well, system.L
    elif isinstance(system, RadialWell):
        well, L = system, 0.0
    else:
        well, L = None, 0.0
    mag_len = 3.0 * math.sqrt(2.0 * h)
    delta_max = math.sqrt(h) / 6.0 if well is None else \
        min(math.sqrt(h) / 6.0, well.a / 10.0)
    if delta is None:
        delta = delta_max
    if not delta > 0:
        raise ValueError(f"need delta > 0 (got {delta})")
    if delta > delta_max * (1 + 1e-12):
        raise ValueError(
            f"delta={delta} too coarse for h={h}: need <= {delta_max:.4g}")
    if box is None and well is None:
        X = Y = mag_len + LANDAU_MARGIN
    elif box is None:
        X = L / 2.0 + well.a + mag_len + BOX_MARGIN
        Y = well.a + mag_len + BOX_MARGIN
    else:
        X, Y = box
        if not (math.isfinite(X) and math.isfinite(Y)):
            raise ValueError(f"box ({X},{Y}) is not finite")
        if not (X > 0 and Y > 0):
            raise ValueError(f"box half-widths ({X},{Y}) must be positive")
        if well is not None and (X < L / 2.0 + well.a + mag_len or
                                 Y < well.a + mag_len):
            raise ValueError(
                f"box ({X},{Y}) does not clear the wells by 3 magnetic "
                f"lengths ({mag_len:.3f})")
    # python floats, as w / delta may overflow to inf
    nx, ny = (2 * max(float(np.rint(w / delta)), 4.0) for w in (X, Y))
    if nx * ny > MAX_LATTICE_NODES:
        raise ValueError(f"lattice of nx={nx:.4g} x ny={ny:.4g} nodes is "
                         f"above MAX_LATTICE_NODES={MAX_LATTICE_NODES}")
    nx, ny = int(nx), int(ny)
    x, y = ((np.arange(k) - (k - 1) / 2.0) * delta for k in (nx, ny))
    XX, YY = np.meshgrid(x, y, indexing="ij")
    if well is None:
        V = np.zeros_like(XX)
    elif L > 0:
        V = eval_V(system, np.stack([XX, YY], axis=-1))
    else:
        V = well.v0(np.sqrt(XX**2 + YY**2))
    t = h * h / delta**2
    xl = (-t * np.exp(-1j * (-YY[:-1] * delta / 2.0) / h)).ravel()
    yl = -t * np.exp(-1j * (XX * delta / 2.0) / h)
    yl[:, -1] = 0.0   # no y link from a row's last node to the next row
    yl = yl.ravel()[:-1]
    M = sp.diags([4.0 * t + V.ravel(), xl, xl.conj(), yl, yl.conj()],
                 [0, ny, -ny, 1, -1], format="csr")
    M.eliminate_zeros()   # store no row-end y link: MMD reads the pattern
    return MagneticLattice(h, delta, x, y, M)


MAX_SOLVES = 30   # LU solves of one inverse iteration (order 2)
# SuperLU's panel width; scipy passes none, so SuperLU takes 20.  Widths 1
# to 8 tied on `lattice_split`'s peak RSS (142-144 MB; 155 at 12, 165 at
# 20), and none factored a delta 0.035 to 0.1 sector slower than 20 did.
PANEL_SIZE = 4


def _rotation_sectors(lattice, order, sigma, parities):
    """(blocks, lift) for the sectors of the lattice matrix M under rotation
    of the nodes by 2 pi / order about the midpoint: order 1 is the identity
    (M is its one block); order 2 is (x, y) -> (-x, -y), which reverses the
    flattened node order (J); order 4 is (x, y) -> (-y, x) on a square node
    set.  In the symmetric gauge either turn maps every Peierls phase to
    itself, so M commutes with it exactly or not at all (ValueError).

    No node is fixed by a rotation short of the full turn, so every orbit
    has `order` nodes, one of them a representative: the first m = n/order
    nodes for orders 1 and 2, the x, y < 0 quadrant for order 4.  The sector
    of parity p (+1/-1) holds the vectors with v(R^k q) = p^k v(q), so its
    block sums the rotation images, sum_k p^k M[reps, R^k reps].  For order
    2 on the x/y-symmetric node set, with M = [[A, B], [J B J, J A J]], that
    is A + p B J, and each of its eigenvectors x lifts to [x; p J x]/sqrt(2).
    All parities share one COO pattern: the reps' rows (slices of M's CSR
    arrays, or a copy of M[reps] for order 4), each column at its
    representative's position, then the diagonal, which takes -sigma.  Each
    parity writes its values (p times those of odd-power columns) into one
    reused buffer and converts it once to CSC for splu; the conversion adds
    -sigma to a diagonal entry a, giving exactly a - sigma.  lift(x, parity)
    turns a block's eigenvectors (columns) into unit full ones.
    """
    M = lattice.matrix
    n = M.shape[0]
    if order == 1:
        rot = reps = np.arange(n)
    elif order == 2:
        rot, reps = np.arange(n)[::-1], np.arange(n // 2)
        turn = "pi (reversal of the node order)"
    else:
        nx, ny = lattice.shape
        if nx != ny:
            raise ValueError(f"rotation by pi/2 needs a square node set "
                             f"(got {nx} x {ny})")
        idx = np.arange(n).reshape(nx, nx)
        rot, reps = idx[::-1].T.ravel(), idx[:nx // 2, :nx // 2].ravel()
        turn = "pi/2"
    if order > 1 and (n % order or (M[rot][:, rot] != M).nnz):
        raise ValueError(f"matrix does not commute with rotation by {turn}")
    # node -> its representative's position in reps (int32, which scipy
    # takes without a copy) and whether an odd power of R carries it there
    pos, odd = np.empty(n, dtype=np.int32), np.empty(n, dtype=bool)
    m, orbit = len(reps), reps
    for k in range(order):
        pos[orbit], odd[orbit] = np.arange(m), k % 2
        orbit = rot[orbit]
    rows = (M[reps] if order == 4 else M).tocsr()
    end, diag = rows.indptr[m], np.arange(m, dtype=np.int32)
    cols, data = rows.indices[:end], rows.data[:end]
    ij = (np.concatenate([np.repeat(diag, np.diff(rows.indptr[:m + 1])),
                          diag]), np.concatenate([pos[cols], diag]))
    far, values = odd[cols], np.concatenate([data, np.full(m, -sigma)])
    blocks = []
    for p in parities:   # only the odd-power columns' values change
        np.multiply(data, p, out=values[:end], where=far)
        blocks.append(sp.csc_matrix((values, ij), shape=(m, m)))

    def lift(x, parity):
        v = x[pos]
        return np.where(odd[:, None], parity * v, v) / math.sqrt(order)

    return blocks, lift


def _shift_invert(lu, sigma, k, v0=None):
    """The k eigenpairs nearest sigma, ascending, of a block B from lu, the
    LU of B - sigma, by eigsh: eigsh reads only the shape and dtype of B,
    so lu.solve stands in for it."""
    m = lu.shape[0]
    if v0 is None:
        v0 = np.full(m, 1.0 / math.sqrt(m))
    inv = LinearOperator((m, m), matvec=lu.solve, dtype=complex)
    vals, vecs = eigsh(inv, k=k, sigma=sigma, which="LM", v0=v0, OPinv=inv)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _inverse_iteration(lu, sigma, x, tol):
    """([e], vector column): the eigenpair nearest sigma of a block B from
    lu, the LU of B - sigma, by inverse iteration from x (flat when None).
    Each step takes y = lu.solve(x), theta = x^H y / |y|^2 and r = |x -
    theta y| / |y|, the residual of (sigma + theta, y / |y|) on B with no
    product by B; it stops once r <= tol or r no longer halves, and raises
    NumericalError after MAX_SOLVES solves."""
    x = np.ones(lu.shape[0]) if x is None else x
    x, r_prev = x / np.linalg.norm(x), math.inf
    for _ in range(MAX_SOLVES):
        y = lu.solve(x)
        norm = float(np.linalg.norm(y))
        theta = np.vdot(x, y).real / norm**2
        r = float(np.linalg.norm(x - theta * y)) / norm
        x = y / norm
        if r <= tol or r > r_prev / 2.0:
            return np.array([sigma + theta]), x[:, None]
        r_prev = r
    raise NumericalError(
        f"inverse iteration not converged in {MAX_SOLVES} LU solves: "
        f"residual {r:.2e}", estimate=r, error_bound=tol)


def lowest_two(lattice, sigma, order=1, start=None):
    """The lowest eigenvalues near the shift sigma, solved on the sectors of
    rotation by 2 pi / order about the midpoint (_rotation_sectors).

    Shift-invert separates exponentially close pairs; each sector block less
    sigma is factored once with a symmetric fill-reducing ordering (H is
    Hermitian) on a PANEL_SIZE-column panel, its LU dropped before the next
    block is factored.  start, the first sector's start vector (flat when
    None), keeps repeated runs byte-identical.  Each eigenpair's residual
    norm, always taken against the full matrix, must be at most
    RESIDUAL_RTOL x max |diag|.

    order 1: the two lowest levels of the full matrix, by eigsh.  order 2
    (gap_row): the pi-even sector's lowest level, then the odd one's, both
    at the one shift sigma, by inverse iteration to a residual of 4 eps
    max |diag|, the odd one started from the even vector.  With sigma
    D/1000 below a close pair, each solve cuts the error 1000-fold: 3 per
    sector (the odd one took 9 at depth 0.5, L 5, h 2, its gap D/11).
    order 4 (landau_level_2d): the lowest level of the quarter-size sector
    of vectors invariant under rotation by pi/2, by eigsh.  Any other order
    is a ValueError.
    """
    if order not in (1, 2, 4):
        raise ValueError(f"order must be 1, 2 or 4, not {order!r}")
    M, parities = lattice.matrix, (1, -1) if order == 2 else (1,)
    blocks, lift = _rotation_sectors(lattice, order, sigma, parities)
    scale = float(np.abs(M.diagonal()).max())
    tol = 4.0 * np.finfo(float).eps * scale
    vals, vecs = [], []
    for parity in parities:   # a block goes once factored, its LU once solved
        lu = splu(blocks.pop(0), permc_spec="MMD_AT_PLUS_A",
                  panel_size=PANEL_SIZE)
        e, x = (_inverse_iteration(lu, sigma, start, tol) if order == 2 else
                _shift_invert(lu, sigma, 2 if order == 1 else 1, start))
        del lu   # before the next block is factored
        vals, vecs, start = vals + [e], vecs + [lift(x, parity)], x[:, 0]
    vals, vecs = np.concatenate(vals), np.hstack(vecs)
    residuals = [float(np.linalg.norm(M @ v - e * v))
                 for e, v in zip(vals, vecs.T)]
    if max(residuals) > RESIDUAL_RTOL * scale:
        raise NumericalError(
            f"eigensolver residual {max(residuals):.2e} above "
            f"{RESIDUAL_RTOL:g} x scale", estimate=max(residuals),
            error_bound=RESIDUAL_RTOL * scale)
    return vals, vecs, residuals


def landau_level_2d(h, delta=None):
    """Free-operator lowest eigenvalue, Richardson-extrapolated in delta.

    The two rungs are the spacings delta, by default sqrt(h)/6, and
    delta/sqrt(2); assemble rejects a spacing that is not finite and
    positive, or too coarse, before it builds anything.  The lowest Landau
    level on a Dirichlet box is a near-degenerate cluster of the angular
    modes m = 0, 1, 2, ..., but the free operator on the square box commutes
    with rotation by pi/2, and its ground state, the m = 0 Landau state, is
    invariant under it.  So each rung solves the quarter-size sector of
    invariant vectors, which holds only the modes m = 0 mod 4.  Its next
    level lies 7.9e-6 to 5.9e-4 above the lowest (h 0.5 and 1.0, default
    spacings), where the m = 2 level of the pi-even sector lay 1.9e-7 to
    2.4e-5 above, so Lanczos converges on its first basis, in 21 LU solves
    a rung (the even sector took 31 at h 0.5).
    """
    if delta is None:
        delta = math.sqrt(h) / 6.0
    deltas = (delta, delta / math.sqrt(2.0))
    es = [float(lowest_two(assemble(None, h, delta=d), sigma=0.9 * h,
                           order=4)[0][0]) for d in deltas]
    # second-order scheme: extrapolate on delta^2
    return _richardson(*es, *deltas), es


@dataclass
class GapRow:
    h: float
    e1: float
    e2: float
    gap: float
    two_w: float
    ratio: float
    h_ln_gap: float
    floor_flag: str
    ground_parity: int = 0   # +1/-1 pi-rotation parity of e1; 0 if unsolved


@dataclass
class GapReport:
    rows: list
    corridor: tuple       # (-Shat - d, -Sa + d) with d = 0.2 Shat

    def resolvable_rows(self):
        return [r for r in self.rows if r.floor_flag == "ok"]


def _pair_start(lattice, ground, L):
    """(x, rq): the lifted pair phi_L + phi_R on the x < 0 half of the
    nodes (the pi-even sector's representatives) and the Rayleigh quotient
    of its even full vector [x; J x].  phi_c = e^{i c y / 2h} u_h(|(x - c,
    y)|) is u_h about the well centre (c, 0) with its magnetic-translation
    phase, log u_h interpolated linearly."""
    X, Y = np.meshgrid(lattice.x[:lattice.shape[0] // 2], lattice.y,
                       indexing="ij")
    x = sum(np.exp(np.interp(np.hypot(X - c, Y), ground.grid,
                             ground.log_profile) + 0.5j * c * Y / lattice.h)
            for c in (-L / 2.0, L / 2.0)).ravel()
    v = np.concatenate([x, x[::-1]])
    return x, np.vdot(v, lattice.matrix @ v).real / np.vdot(v, v).real


def gap_row(case, delta=None, box=None):
    """GapRow: the 2-D gap at case.h against 2|w| from the same case.

    A row whose predicted gap e^{-S/h} sits below the eigensolver floor is
    reported as unresolvable rather than asserted (exponentially small
    splittings underflow double precision quickly).  Both sectors are solved
    at the one shift sigma = rq - D/1000 by inverse iteration from the
    lifted pair (_pair_start), of Rayleigh quotient rq; D is the distance
    from the ground state's e_sw to its next fiber level.  On eight rows rq
    lay 7e-7 to 2.8e-5 above the even level and D/1000 was 4.5e-5 to 2e-4,
    so sigma lies below the pair.  The shared shift lets the rounding of
    the two nearly equal levels cancel in their difference.  An even level
    more than D/2 from e_sw is the wrong level (NumericalError).  The shift
    reads the ground state's profile and the fiber energies that
    spectral.ground_state stores on it, so a ground state assigned to the
    case must carry them (ValueError without the energies).  The row is
    "ok" only if its gap exceeds 100x the largest residual and 100x 8 ulps
    of e2, the levels' rounding (panel widths alone moved the L 8.5, h 0.8
    gap by 5); else its flag names why.
    """
    config, h, S = case.config, case.h, case.pipeline.action.S
    floor = 1e-12   # double precision cannot separate a closer pair
    predicted = math.exp(-S / h) if S / h < 700 else 0.0
    if predicted < floor:
        return GapRow(h, *[float("nan")] * 6, f"unresolvable(predicted "
                      f"{predicted:.1e} < floor {floor:.1e})")
    e_sw, fiber_energies = case.ground.e_sw, case.ground.fiber_energies
    if fiber_energies is None:
        raise ValueError("gap_row needs the ground state's fiber_energies "
                         "(set by spectral.ground_state) to place its shift")
    spacing = min(e for m, e in fiber_energies.items() if m != 0) - e_sw
    lattice = assemble(config, h, delta=delta, box=box)
    start, rayleigh = _pair_start(lattice, case.ground, config.L)
    vals, _, res = lowest_two(lattice, sigma=rayleigh - spacing / 1000.0,
                              order=2, start=start)
    even, odd = float(vals[0]), float(vals[1])
    if abs(even - e_sw) > spacing / 2.0:
        raise NumericalError(
            f"even level {even:.6g} lies {abs(even - e_sw):.2e} from e_sw "
            f"{e_sw:.6g}, beyond half the fiber gap {spacing:.2e}",
            estimate=abs(even - e_sw), error_bound=spacing / 2.0)
    (e1, ground_parity), (e2, _) = sorted([(even, 1), (odd, -1)])
    gap = e2 - e1
    two_w = ratio = float("nan")
    if config.fsw_condition:
        two_w = 2.0 * abs(case.w_direct.real)
        ratio = gap / two_w
    if not gap > 100.0 * max(res):
        flag = "floor(gap below 100x residual)"
    elif not gap > 100.0 * 8.0 * math.ulp(e2):
        flag = "floor(gap below 100x level rounding)"
    else:
        flag = "ok"
    return GapRow(h, e1, e2, gap, two_w, ratio,
                  h * math.log(gap) if gap > 0 else float("nan"),
                  flag, ground_parity)


def gap_vs_hopping(pipeline, h_list, delta=None, box=None):
    """Gap rows from the largest h down, each on its own (dropped) Case,
    with the action corridor."""
    action = pipeline.action
    d = 0.2 * action.Shat
    corridor = (-action.Shat - d, -action.Sa + d)
    rows = [gap_row(Case(pipeline, h), delta=delta, box=box)
            for h in sorted(h_list, reverse=True)]
    return GapReport(rows, corridor)
