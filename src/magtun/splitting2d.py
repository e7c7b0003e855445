"""Sparse 2-D realization of (hD - A)^2 + V with Peierls link phases.

Each directed edge carries the unit phase exp(-i A(midpoint).edge / h); for
the linear symmetric gauge A = (-y/2, x/2) the midpoint rule integrates
A . dl exactly, so every plaquette encloses exactly the continuum flux
delta^2 and gauge covariance holds on the lattice to machine precision.
The lowest eigenvalues come from shift-invert Lanczos on one complex sparse
LU with a symmetric fill-reducing (MMD on A^T + A) ordering; the start
vector is fixed for run-to-run determinism.  The double-well operator
commutes with rotation by pi about the midpoint, so the splitting is taken
between the lowest levels of its even and odd half-size sector blocks: each
is simple, and Lanczos never has to separate the exponentially close pair.
`gap_row` sets that gap at one h against 2|w| from the same pipeline.Case;
`gap_vs_hopping` runs it over an h-list.  Its ground state gives the shift
sigma = e_sw - D/10, where D is the distance from e_sw to the next fiber
level: the pair sits about D/10 from sigma and every other level at least
D away, so a 4-vector Krylov basis converges in about ten LU solves per
sector.  Both sectors share that one shift: the gap is a difference of two
nearly equal eigenvalues, and their rounding cancels only when both come
from the same shifted operator.  The free Landau check runs on a square
box, where the free operator also commutes with rotation by pi/2: it takes
the lowest level of the quarter-size sector of rotation-invariant vectors,
where the m = 0 Landau state lies, away from the rest of the
near-degenerate Landau cluster.
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


def _symmetric_axis(half_width, delta):
    n = 2 * max(int(round(half_width / delta)), 4)
    return (np.arange(n) - (n - 1) / 2.0) * delta


BOX_MARGIN = 0.4   # default box clearance beyond 3 magnetic lengths
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
    x = _symmetric_axis(X, delta)
    y = _symmetric_axis(Y, delta)
    nx, ny = len(x), len(y)
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


SHORT_NCV = 4   # Krylov basis of gap_row's two-sector solve (order 2)


def _rotation_sectors(lattice, order):
    """(block, lift) for the sectors of the lattice matrix M under rotation
    of the nodes by 2 pi / order about the midpoint: order 2 is
    (x, y) -> (-x, -y), which reverses the flattened node order (J); order
    4 is (x, y) -> (-y, x) on a square node set.  In the symmetric gauge
    either one maps every Peierls phase to itself, so M commutes with it
    exactly or not at all (ValueError).

    No node is fixed by a rotation short of the full turn, so every orbit
    has `order` nodes, one of them a representative: the first half of the
    nodes for order 2, the x, y < 0 quadrant for order 4.  The sector of
    parity p (+1/-1) holds the vectors with v(R^k q) = p^k v(q), so its
    block sums the rotation images, sum_k p^k M[reps, R^k reps].  For order
    2 on the x/y-symmetric node set, with M = [[A, B], [J B J, J A J]], that
    is A + p B J, of half the size, and each of its eigenvectors x lifts to
    [x; p J x]/sqrt(2).  block(parity) is that block and lift(x, parity)
    turns its eigenvectors (columns) into unit full ones.
    """
    M = lattice.matrix
    n = M.shape[0]
    if order == 2:
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
    if n % order or (M[rot][:, rot] != M).nnz:
        raise ValueError(f"matrix does not commute with rotation by {turn}")
    # node -> (its representative's position in reps, the power k of R)
    pos, power = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    orbit = reps
    for k in range(order):
        pos[orbit], power[orbit] = np.arange(len(reps)), k
        orbit = rot[orbit]
    odd = power % 2 == 1
    rows = M[reps].tocoo()
    far = odd[rows.col]
    cols = pos[rows.col]

    def block(parity):
        return sp.csr_matrix(
            (np.where(far, parity * rows.data, rows.data), (rows.row, cols)),
            shape=(len(reps), len(reps)))

    def lift(x, parity):
        v = x[pos]
        return np.where(odd[:, None], parity * v, v) / math.sqrt(order)

    return block, lift


def _shift_invert(op, sigma, k, v0=None, ncv=None):
    """The k eigenpairs of op nearest sigma, ascending: one LU of op - sigma
    and eigsh on it (eigsh's default basis when ncv is None)."""
    m = op.shape[0]
    lu = splu((op - sigma * sp.identity(m)).tocsc(),
              permc_spec="MMD_AT_PLUS_A")
    if v0 is None:
        v0 = np.full(m, 1.0 / math.sqrt(m))
    vals, vecs = eigsh(op, k=k, sigma=sigma, which="LM", v0=v0, ncv=ncv,
                       OPinv=LinearOperator((m, m), matvec=lu.solve,
                                            dtype=op.dtype))
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def lowest_two(lattice, sigma, order=1):
    """The lowest eigenvalues near the shift sigma, solved on the sectors of
    rotation by 2 pi / order about the midpoint (_rotation_sectors).

    Shift-invert separates exponentially close pairs; H - sigma is factored
    once with a symmetric fill-reducing ordering (H is Hermitian), and the
    deterministic start vector keeps repeated runs byte-identical.  Each
    eigenpair's residual norm, always taken against the full matrix, must
    be at most RESIDUAL_RTOL x max |diag|.

    order 1: the two lowest levels of the full matrix.  order 2 (gap_row):
    the pi-even sector's lowest level, then the odd one's, both at the one
    shift sigma, on a SHORT_NCV-vector basis, the odd solve started from
    the even vector.  That basis converges in about ten LU solves only
    because gap_row's sigma lies much closer to the pair than to any other
    level; at a shift chosen without that knowledge (the free Landau
    cluster) it restarts thousands of times.  order 4 (landau_level_2d): the
    lowest level of the quarter-size sector of vectors invariant under
    rotation by pi/2.  Any other order is a ValueError.
    """
    M = lattice.matrix
    if order == 1:
        vals, vecs = _shift_invert(M, sigma, k=2)
    elif order == 2:
        block, lift = _rotation_sectors(lattice, 2)
        even, x_even = _shift_invert(block(1), sigma, k=1, ncv=SHORT_NCV)
        odd, x_odd = _shift_invert(block(-1), sigma, k=1, v0=x_even[:, 0],
                                   ncv=SHORT_NCV)
        vals = np.concatenate([even, odd])
        vecs = np.hstack([lift(x_even, 1), lift(x_odd, -1)])
    elif order == 4:
        block, lift = _rotation_sectors(lattice, 4)
        vals, x = _shift_invert(block(1), sigma, k=1)
        vecs = lift(x, 1)
    else:
        raise ValueError(f"order must be 1, 2 or 4, not {order!r}")
    scale = float(np.abs(M.diagonal()).max())
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
    es = []
    for d in deltas:
        lat = assemble(None, h, delta=d)
        vals, _, _ = lowest_two(lat, sigma=0.9 * h, order=4)
        es.append(float(vals[0]))
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


def gap_row(case, delta=None, box=None):
    """GapRow: the 2-D gap at case.h against 2|w| from the same case.

    A row whose predicted gap e^{-S/h} sits below the eigensolver floor is
    reported as unresolvable rather than asserted (exponentially small
    splittings underflow double precision quickly).  Both sectors are solved
    at the one shift sigma = e_sw - D/10, where D is the distance from the
    ground state's e_sw to its next fiber level: the shared shift lets the
    rounding of the two nearly equal levels cancel in their difference.  An
    even level more than D/2 from e_sw is the wrong level (NumericalError).
    D comes from the fiber energies that spectral.ground_state stores on its
    solution, so a ground state assigned to the case must carry them
    (ValueError otherwise).
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
    sigma = e_sw - spacing / 10.0
    lat = assemble(config, h, delta=delta, box=box)
    vals, _, res = lowest_two(lat, sigma=sigma, order=2)
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
    flag = "ok" if gap > 100.0 * max(res) else \
        "floor(gap below 100x residual)"
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
