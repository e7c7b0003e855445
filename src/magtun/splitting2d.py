"""Sparse 2-D realization of (hD - A)^2 + V with Peierls link phases.

Each directed edge carries the unit phase exp(-i A(midpoint).edge / h); for
the linear symmetric gauge A = (-y/2, x/2) the midpoint rule integrates
A . dl exactly, so every plaquette encloses exactly the continuum flux
delta^2 and gauge covariance holds on the lattice to machine precision.
A lowest level comes from inverse iteration on the sparse LU (MMD
ordering on A^T + A) of one rotation-sector block, started from a
continuum state (_start), so repeated runs are byte-identical.  The
double-well operator commutes with rotation by pi about the midpoint, so
`gap_row` takes the splitting between the lowest levels of its even and
odd half-size sector blocks, each simple: no solver has to separate the
exponentially close pair.  The free Landau check runs on a square box,
where the free operator also commutes with rotation by pi/2: it takes the
lowest level of the quarter-size sector of rotation-invariant vectors,
where the m = 0 Landau state lies, away from the rest of the
near-degenerate Landau cluster.  The matrices are numpy CSR or CSC arrays
(_Compressed); their products and LU factorizations are scipy's compiled
csr_matvec and SuperLU, loaded from their files by
numerics._scipy_extension, so no process imports scipy.sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import NumericalError, _richardson, _scipy_extension
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


_sparsetools = _scipy_extension("sparse._sparsetools")
_superlu = _scipy_extension("sparse.linalg._dsolve._superlu")


def __getattr__(name):
    # no code here calls eigsh, but perfbench/spans.py still traces it by
    # this name: served on request (PEP 562), so only the tracer loads
    # scipy.sparse; this goes once the traced name does
    if name == "eigsh":
        from scipy.sparse.linalg import eigsh
        return eigsh
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Compressed(NamedTuple):
    """A square sparse matrix as compressed arrays: row i's entries are
    data[indptr[i]:indptr[i + 1]], in the increasing columns indices[...]
    (CSR).  A sector block handed to splu holds its columns this way
    instead (CSC)."""
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @property
    def nnz(self):
        return len(self.data)

    def rows(self):
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def diagonal(self, k=0):
        """The entries (i, i + k) for k >= 0, zero where none is stored."""
        rows = self.rows()
        on = self.indices - rows == k
        out = np.zeros(self.shape[0] - k, self.data.dtype)
        out[rows[on]] = self.data[on]
        return out

    def __matmul__(self, v):
        """M v, by scipy's csr_matvec, which reads v unchecked."""
        if np.shape(v) != self.shape[1:]:
            raise ValueError(f"need a vector of {self.shape[1]} entries")
        out = np.zeros(self.shape[0], np.result_type(self.data, v))
        _sparsetools.csr_matvec(*self.shape, self.indptr, self.indices,
                                self.data, v, out)
        return out


class MagneticLattice:
    """Assembled lattice operator (a CSR _Compressed) plus its geometry."""

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
        """max |M - M^H| over the stored entries of M and M^H."""
        M, n = self.matrix, self.n_nodes
        rows, cols = M.rows(), M.indices.astype(np.int64)
        keys, mirror = rows * n + cols, cols * n + rows
        # each entry less the conjugate of its mirror (j, i), or of 0 where
        # none is stored: this covers every position of M - M^H
        at = np.minimum(np.searchsorted(keys, mirror), M.nnz - 1)
        dev = M.data - np.where(keys[at] == mirror, M.data[at].conj(), 0.0)
        return float(np.abs(dev).max(initial=0.0))

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
        M = self.matrix
        data = u[M.rows()] * M.data * u.conj()[M.indices]
        return MagneticLattice(self.h, self.delta, self.x, self.y,
                               M._replace(data=data))


BOX_MARGIN = 0.4   # default box clearance beyond 3 magnetic lengths
# The most nodes assemble builds.  LU fill per sector node read 37, 43,
# 46-51 and 51 entries at delta 0.1, 0.07, 0.05 and 0.035 (L 8.5, h 0.84-1,
# 21k to 171k nodes), about 5 more per doubling, at 18 to 21 bytes of peak
# RSS each (a complex value and its row index take 20): the 250k-node
# sector of a capped lattice takes about 0.3 GB to factor.
MAX_LATTICE_NODES = 500_000
LANDAU_MARGIN = 1.5   # the free box's half-width beyond 3 magnetic lengths
RESIDUAL_RTOL = 1e-10   # eigenpair residual gate, relative to max |diag|


def _grid(system, h, delta=None, box=None):
    """(well, L, delta, nx, ny) of assemble's lattice, checked before
    anything is built: ValueError unless 0 < delta <= min(sqrt(h)/6, a/10)
    (by default the bound), the box half-widths are positive and clear the
    wells by >= 3 magnetic lengths 3 sqrt(2h), and the lattice has at most
    MAX_LATTICE_NODES nodes."""
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
    return well, L, delta, int(nx), int(ny)


def assemble(system, h, delta=None, box=None):
    """Five-point gauge-covariant stencil on a node set symmetric in x and y;
    node k = i ny + j links to k + ny (x) and k + 1 (y).

    system: DoubleWellConfig, RadialWell (single well at the origin), or
    None (free Landau operator, whose default box is the square, for the
    pi/2 turn, of half-width 3 sqrt(2h) + LANDAU_MARGIN).  _grid states the
    preconditions on delta and the box.
    """
    well, L, delta, nx, ny = _grid(system, h, delta, box)
    x, y = ((np.arange(k) - (k - 1) / 2.0) * delta for k in (nx, ny))
    XX, YY = np.meshgrid(x, y, indexing="ij")
    if well is None:
        V = np.zeros_like(XX)
    elif L > 0:
        V = eval_V(system, np.stack([XX, YY], axis=-1))
    else:
        V = well.v0(np.sqrt(XX**2 + YY**2))
    t = h * h / delta**2
    n = nx * ny
    # node k's entries in column order: k - ny, k - 1, k, k + 1, k + ny;
    # a link off the node set, or from a row's last node to the next row,
    # is 0 here and not stored (MMD reads the pattern)
    vals = np.zeros((n, 5), dtype=complex)
    xl = (-t * np.exp(-1j * (-YY[:-1] * delta / 2.0) / h)).ravel()
    vals[:-ny, 4], vals[ny:, 0] = xl, xl.conj()
    yl = -t * np.exp(-1j * (XX * delta / 2.0) / h)
    yl[:, -1] = 0.0
    yl = yl.ravel()[:-1]
    vals[:-1, 3], vals[1:, 1] = yl, yl.conj()
    vals[:, 2] = 4.0 * t + V.ravel()
    keep = vals != 0
    cols = np.arange(n, dtype=np.int32)[:, None] + np.array(
        [-ny, -1, 0, 1, ny], dtype=np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(5 - np.bincount(np.flatnonzero(~keep) // 5, minlength=n),
              out=indptr[1:])
    M = _Compressed(vals[keep], cols[keep], indptr, (n, n))
    return MagneticLattice(h, delta, x, y, M)


MAX_SOLVES = 30   # LU solves of one inverse iteration (orders 2 and 4)
# SuperLU's panel width; scipy passes none, so SuperLU takes 20.  Widths 1
# to 8 tied on `lattice_split`'s peak RSS (142-144 MB; 155 at 12, 165 at
# 20), and none factored a delta 0.035 to 0.1 sector slower than 20 did.
PANEL_SIZE = 4


def _rotation_sectors(lattice, order, sigma, parities):
    """(blocks, lift) for the sectors of the lattice matrix M under rotation
    of the nodes by 2 pi / order about the midpoint: order 2 is (x, y) ->
    (-x, -y), which reverses the flattened node order (J); order 4 is (x, y)
    -> (-y, x) on a square node set.  In the symmetric gauge either turn
    maps every Peierls phase to itself, so M commutes with it exactly or not
    at all (ValueError).

    No node is fixed by a rotation short of the full turn, so every orbit
    has `order` nodes, one of them a representative: the first m = n/2
    nodes for order 2, the x, y < 0 quadrant for order 4.  The sector
    of parity p (+1/-1) holds the vectors with v(R^k q) = p^k v(q), so its
    block sums the rotation images, sum_k p^k M[reps, R^k reps].  For order
    2 on the x/y-symmetric node set, with M = [[A, B], [J B J, J A J]], that
    is A + p B J, and each of its eigenvectors x lifts to [x; p J x]/sqrt(2).
    All parities share one pattern of terms: the reps' rows of M, each
    column at its representative's position, then the diagonal, which
    takes -sigma.  Its CSC order (by column, then row, ties in that order)
    is found once; each parity writes its values (p times those of
    odd-power columns) into one reused buffer and sums each entry's terms
    in that order, as scipy's COO to CSC conversion does, so a diagonal
    entry a becomes exactly a - sigma.  lift(x, parity) turns a block's
    unit eigenvector into a unit full one.
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
    if n % order or not _commutes(M, rot):
        raise ValueError(f"matrix does not commute with rotation by {turn}")
    # node -> its representative's position in reps and whether an odd
    # power of R carries it there
    pos, odd = np.empty(n, dtype=np.int32), np.empty(n, dtype=bool)
    m, orbit = len(reps), reps
    for k in range(order):
        pos[orbit], odd[orbit] = np.arange(m), k % 2
        orbit = rot[orbit]
    counts = np.diff(M.indptr)[reps]
    if order == 2:   # the reps' rows are M's first m rows
        take = slice(0, M.indptr[m])
    else:
        take = np.arange(counts.sum()) + np.repeat(
            M.indptr[reps] - np.cumsum(counts) + counts, counts)
    cols, data = M.indices[take], M.data[take]
    # each term's place in the block, column by column; the stable sort
    # keeps an entry's terms in the order above, the order scipy sums them
    diag = np.arange(m, dtype=np.int32)
    key = np.concatenate([pos[cols], diag]).astype(np.int64) * m
    key += np.concatenate([np.repeat(diag, counts), diag])
    perm = np.argsort(key, kind="stable")
    key = key[perm]
    first = np.empty(len(key), dtype=bool)   # an entry's first term
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    indices = (key[first] % m).astype(np.int32)
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(key[first] // m, minlength=m), out=indptr[1:])
    later = ~first
    heads, tails = perm[first], perm[later]
    tail_entry = np.cumsum(first)[later] - 1
    far = odd[cols]
    del key, perm, first, later
    values = np.concatenate([data, np.full(m, -sigma)])
    blocks = []
    for p in parities:   # only the odd-power columns' values change
        np.multiply(data, p, out=values[:len(data)], where=far)
        out = values[heads]
        np.add.at(out, tail_entry, values[tails])   # one by one, in order
        blocks.append(_Compressed(out, indices, indptr, (m, m)))

    def lift(x, parity):
        v = x[pos]
        return np.where(odd, parity * v, v) / math.sqrt(order)

    return blocks, lift


def _commutes(M, rot):
    """Whether M[rot][:, rot] equals M entry for entry: M's stored (r, c)
    lands on (inv r, inv c), inv the inverse permutation, and sorted (a
    merge of the runs a rotation leaves) these must be M's own entries."""
    n = M.shape[0]
    rows, inv = M.rows(), np.argsort(rot)
    key = inv[rows] * n + inv[M.indices]
    at = np.argsort(key, kind="stable")
    return (np.array_equal(key[at], rows * n + M.indices)
            and np.array_equal(M.data[at], M.data))


def splu(block):
    """SuperLU's LU of a CSC block, ordered by MMD on A^T + A, on a
    PANEL_SIZE-column panel: what scipy's splu(block, permc_spec=
    "MMD_AT_PLUS_A", panel_size=PANEL_SIZE) returns, by its call."""
    return _superlu.gstrf(
        block.shape[0], block.nnz, block.data, block.indices, block.indptr,
        csc_construct_func=None, ilu=False,
        options=dict(DiagPivotThresh=None, ColPerm="MMD_AT_PLUS_A",
                     PanelSize=PANEL_SIZE, Relax=None))


def _inverse_iteration(lu, sigma, x, tol):
    """(e, unit vector): the eigenpair nearest sigma of a block B from lu,
    the LU of B - sigma, by inverse iteration from x.  Each step takes y =
    lu.solve(x), theta = x^H y / |y|^2 and r = |x - theta y| / |y|, the
    residual of (sigma + theta, y / |y|) on B with no product by B; it stops
    once r <= tol or r no longer halves, and raises NumericalError after
    MAX_SOLVES solves."""
    x, r_prev = x / np.linalg.norm(x), math.inf
    for _ in range(MAX_SOLVES):
        y = lu.solve(x)
        norm = float(np.linalg.norm(y))
        theta = np.vdot(x, y).real / norm**2
        r = float(np.linalg.norm(x - theta * y)) / norm
        x = y / norm
        if r <= tol or r > r_prev / 2.0:
            return sigma + theta, x
        r_prev = r
    raise NumericalError(
        f"inverse iteration not converged in {MAX_SOLVES} LU solves: "
        f"residual {r:.2e}", estimate=r, error_bound=tol)


def lowest_two(lattice, sigma, order, start):
    """The lowest eigenvalues near the shift sigma, one per sector of
    rotation by 2 pi / order about the midpoint (_rotation_sectors), by
    inverse iteration from start (_start) to a residual of 4 eps max |diag|.

    Each sector block less sigma is factored once with a symmetric
    fill-reducing ordering (H is Hermitian), its LU dropped before the next
    block is factored.  Each eigenpair's residual against the full matrix
    must be at most RESIDUAL_RTOL x max |diag|.  order 2 (gap_row): the
    pi-even sector's level, then the odd one's from the even vector, both
    at the one shift sigma; D/1000 below a close pair, each solve cuts the
    error 1000-fold: 3 per sector (9 for the odd one at depth 0.5, L 5,
    h 2, its gap D/11).  order 4 (landau_level_2d): the sector invariant
    under rotation by pi/2.  Any other order is a ValueError.
    """
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, not {order!r}")
    M, parities = lattice.matrix, (1, -1) if order == 2 else (1,)
    blocks, lift = _rotation_sectors(lattice, order, sigma, parities)
    scale = float(np.abs(M.diagonal()).max())
    tol = 4.0 * np.finfo(float).eps * scale
    vals, vecs = [], []
    for parity in parities:   # a block goes once factored, its LU once solved
        lu = splu(blocks.pop(0))
        e, start = _inverse_iteration(lu, sigma, start, tol)
        del lu   # before the next block is factored
        vals, vecs = vals + [e], vecs + [lift(start, parity)]
    vals, vecs = np.array(vals), np.column_stack(vecs)
    residuals = [float(np.linalg.norm(M @ v - e * v))
                 for e, v in zip(vals, vecs.T)]
    if max(residuals) > RESIDUAL_RTOL * scale:
        raise NumericalError(
            f"eigensolver residual {max(residuals):.2e} above "
            f"{RESIDUAL_RTOL:g} x scale", estimate=max(residuals),
            error_bound=RESIDUAL_RTOL * scale)
    return vals, vecs, residuals


def _start(lattice, log_state, centres, order):
    """(x, rq): the sum over the centres c of phi_c = e^{i c y / 2h}
    exp(log_state(x - c, y)), a state about (c, 0) with its
    magnetic-translation phase, on the representatives of the sectors of
    rotation by 2 pi / order (_rotation_sectors), and the Rayleigh quotient
    rq of its vector on all nodes.  x is a copy: no full-node vector
    outlives the call."""
    X, Y = np.meshgrid(lattice.x, lattice.y, indexing="ij")
    v = sum(np.exp(log_state(X - c, Y) + 0.5j * c * Y / lattice.h)
            for c in centres)
    nx, ny = lattice.shape
    x, v = v[:nx // 2, :ny // 2 if order == 4 else ny].flatten(), v.ravel()
    return x, np.vdot(v, lattice.matrix @ v).real / np.vdot(v, v).real


def _landau_rungs(h, delta=None):
    """landau_level_2d's two spacings, delta (by default sqrt(h)/6) and
    delta/sqrt(2); ValueError if assemble would refuse either."""
    if delta is None:
        delta = math.sqrt(h) / 6.0
    deltas = (delta, delta / math.sqrt(2.0))
    for d in deltas:
        _grid(None, h, d)
    return deltas


def landau_level_2d(h, delta=None):
    """Free-operator lowest eigenvalue, Richardson-extrapolated in delta.

    The two rungs are _landau_rungs' spacings, both checked before either is
    built.  The lowest Landau level on a Dirichlet box is a near-degenerate
    cluster of the angular modes m = 0, 1, 2, ..., but the free operator on
    the square box commutes with rotation by pi/2, and so does its ground
    state, the m = 0 Landau state e^{-r^2/4h}.  Each rung solves the sector
    of invariant vectors (m = 0 mod 4) by inverse iteration from that state
    at its Rayleigh quotient rq, an upper bound on the lowest level: a level
    above rq beyond rounding is a NumericalError.  With Pi = hD - A the
    stencil is Pi^2 - delta^2 (Pi_x^4 + Pi_y^4) / 12h^2 + O(delta^4), whose
    quartic term mixes the n = 4 Landau state conj(z)^4 e^{-r^2/4h}
    (z = x + iy) into the ground state; the start carries that first-order
    share, delta^2 conj(z)^4 / 768h^3.  Without it rq lay up to 0.36 of the
    way from the lowest sector level to the next, which the box walls set
    5e-6 to 1.1e-5 above it (h 0.5), and beyond that level at h 0.3; with
    it, 1.1e-3 to 2.8e-3 of the way (h 0.3 to 1): 3 LU solves a rung at h
    0.5 and 1, where Lanczos took 21.
    """
    deltas, es = _landau_rungs(h, delta), []
    for d in deltas:
        lattice = assemble(None, h, delta=d)
        kappa = d * d / (768.0 * h**3)   # the n = 4 level's first-order share
        start, rq = _start(lattice, lambda x, y: np.log(
            1.0 + kappa * (x - 1j * y)**4) - (x * x + y * y) / (4.0 * h),
            (0.0,), 4)
        e = float(lowest_two(lattice, sigma=rq, order=4, start=start)[0][0])
        rounding = 4.0 * np.finfo(float).eps * \
            lattice.matrix.diagonal()[0].real
        if e > rq + rounding:   # every diagonal entry is 4 h^2 / d^2
            raise NumericalError(f"Landau level {e!r} above its start's "
                                 f"Rayleigh quotient {rq!r}",
                                 estimate=e - rq, error_bound=rounding)
        es.append(e)
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
    at the one shift sigma = rq - D/1000 by inverse iteration from the
    lifted pair phi_L + phi_R (_start, log u_h interpolated linearly), of
    Rayleigh quotient rq; D is the distance from the ground state's e_sw to
    its next fiber level.  On eight rows rq lay 7e-7 to 2.8e-5 above the
    even level and D/1000 was 4.5e-5 to 2e-4, so sigma lies below the pair.
    The shared shift lets the rounding of the two nearly equal levels
    cancel in their difference.  An even level more than D/2 from e_sw is
    the wrong level (NumericalError).  The shift reads the ground state's
    profile and the fiber energies that spectral.ground_state stores on it,
    so a ground state assigned to the case must carry them (ValueError
    without the energies).  The row is "ok" only if its gap exceeds 100x
    the largest residual and 100x 8 ulps of e2, the levels' rounding (panel
    widths alone moved the L 8.5, h 0.8 gap by 5); else its flag names why.
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
    start, rayleigh = _start(lattice, lambda x, y: np.interp(
        np.hypot(x, y), case.ground.grid, case.ground.log_profile),
        (-config.L / 2, config.L / 2), 2)
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
