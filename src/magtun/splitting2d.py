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
`gap_row` sets that gap at one h against 2|w| from the same pipeline.Case
(its ground state gives the shift); `gap_vs_hopping` runs it over an h-list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .numerics import NumericalError
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
        """max |product of 4 link phases - exp(-i delta^2/h)| over all cells."""
        nx, ny = self.shape
        XX, YY = np.meshgrid(self.x, self.y, indexing="ij")
        phx = np.exp(-1j * (-YY * self.delta / 2.0) / self.h)  # bottom edges
        phy = np.exp(-1j * (XX * self.delta / 2.0) / self.h)   # left edges
        # counterclockwise: bottom(j), right(i+1), top(j+1) conj, left(i) conj
        prod = (phx[:-1, :-1] * phy[1:, :-1]
                * np.conj(phx[:-1, 1:]) * np.conj(phy[:-1, :-1]))
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
# the free Landau check: box half-width beyond 3 magnetic lengths, and
# Lanczos vectors of its 2-level solve
LANDAU_MARGIN = 1.5
LANDAU_NCV = 40


def assemble(system, h, delta=None, box=None):
    """Five-point gauge-covariant stencil on a node set symmetric in x and y.

    system: DoubleWellConfig, RadialWell (single well at the origin), or
    None (free Landau operator; box must then be given).
    Preconditions: 0 < delta <= min(sqrt(h)/6, a/10) and the box must clear
    the wells by >= 3 magnetic lengths 3 sqrt(2h).
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
    if box is None:
        if well is None:
            raise ValueError("free operator needs an explicit box")
        X = L / 2.0 + well.a + mag_len + BOX_MARGIN
        Y = well.a + mag_len + BOX_MARGIN
    else:
        X, Y = box
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
    idx = np.arange(nx * ny).reshape(nx, ny)
    t = h * h / delta**2
    phx = np.exp(-1j * (-YY[:-1, :] * delta / 2.0) / h)
    phy = np.exp(-1j * (XX[:, :-1] * delta / 2.0) / h)
    rows = np.concatenate([idx[:-1, :].ravel(), idx[:, :-1].ravel()])
    cols = np.concatenate([idx[1:, :].ravel(), idx[:, 1:].ravel()])
    vals = np.concatenate([(-t * phx).ravel(), (-t * phy).ravel()])
    M = sp.csr_matrix(
        (np.concatenate([vals, vals.conj()]),
         (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(nx * ny, nx * ny))
    M = (M + sp.diags((4.0 * t + V.ravel()).astype(complex))).tocsr()
    return MagneticLattice(h, delta, x, y, M)


def lowest_two(lattice, sigma, k=2, ncv=None, tol=0.0,
               residual_rtol=1e-10, parity=None):
    """The k algebraically smallest eigenvalues near the shift sigma.

    Shift-invert separates exponentially close pairs; H - sigma is factored
    once with a symmetric fill-reducing ordering (H is Hermitian), and the
    deterministic start vector keeps repeated runs byte-identical.  A nonzero
    tol is needed when the target lies inside a near-degenerate cluster (the
    free Landau level), where machine-exact Ritz convergence stalls.

    parity=+1/-1 solves on one pi-rotation sector.  On the x/y-symmetric node
    set rotation by pi reverses the flattened vector (J), so with M = [[A, B],
    [J B J, J A J]] the sector block is A +/- B J, of half the size, and each
    of its eigenvectors x lifts to [x; +/-J x]/sqrt(2).  Residuals are always
    taken against the full matrix.
    """
    M = lattice.matrix
    n = lattice.n_nodes
    op = M
    if parity is not None:
        if parity not in (1, -1):
            raise ValueError(f"parity must be +1 or -1, not {parity!r}")
        if n % 2 or (M[::-1, ::-1] != M).nnz:
            raise ValueError("matrix does not commute with rotation by pi "
                             "(reversal of the node order)")
        half = n // 2
        top = M[:half].tocoo()
        far = top.col >= half
        op = sp.csr_matrix(
            (np.where(far, parity * top.data, top.data),
             (top.row, np.where(far, n - 1 - top.col, top.col))),
            shape=(half, half))
    m = op.shape[0]
    lu = splu((op - sigma * sp.identity(m)).tocsc(),
              permc_spec="MMD_AT_PLUS_A")
    v0 = np.full(m, 1.0 / math.sqrt(m))
    vals, vecs = eigsh(op, k=k, sigma=sigma, which="LM", v0=v0, ncv=ncv,
                       tol=tol, OPinv=LinearOperator((m, m), matvec=lu.solve,
                                                     dtype=op.dtype))
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    if parity is not None:
        vecs = np.concatenate([vecs, parity * vecs[::-1]]) / math.sqrt(2.0)
    scale = float(np.abs(M.diagonal()).max())
    residuals = []
    for j in range(k):
        r = M @ vecs[:, j] - vals[j] * vecs[:, j]
        residuals.append(float(np.linalg.norm(r)))
    if max(residuals) > residual_rtol * scale:
        raise NumericalError(
            f"eigensolver residual {max(residuals):.2e} above "
            f"{residual_rtol:g} x scale", estimate=max(residuals),
            error_bound=residual_rtol * scale)
    return vals, vecs, residuals


def landau_level_2d(h, deltas=None):
    """Free-operator lowest eigenvalue, Richardson-extrapolated in delta.

    The lowest Landau level on a Dirichlet box is a near-degenerate cluster;
    a shift close under the cluster keeps the Lanczos iteration fast, and a
    relative tolerance of 1e-8 is far below the 3% acceptance gate.
    """
    X = 3.0 * math.sqrt(2.0 * h) + LANDAU_MARGIN
    if deltas is None:
        d0 = math.sqrt(h) / 6.0
        deltas = (d0, d0 / math.sqrt(2.0))
    es = []
    for delta in deltas:
        lat = assemble(None, h, delta=delta, box=(X, X))
        vals, _, _ = lowest_two(lat, sigma=0.9 * h, k=2, ncv=LANDAU_NCV,
                                tol=1e-8, residual_rtol=1e-5)
        es.append(float(vals[0]))
    # second-order scheme: extrapolate on delta^2
    d2 = [d * d for d in deltas]
    e_ext = es[1] + (es[1] - es[0]) * d2[1] / (d2[0] - d2[1])
    return e_ext, es


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
    fsw_condition: bool
    predicted_S: float

    def resolvable_rows(self):
        return [r for r in self.rows if r.floor_flag == "ok"]


def gap_row(case, delta=None, box=None):
    """GapRow: the 2-D gap at case.h against 2|w| from the same case.

    A row whose predicted gap e^{-S/h} sits below the eigensolver floor is
    reported as unresolvable rather than asserted (exponentially small
    splittings underflow double precision quickly).
    """
    config, h, S = case.config, case.h, case.pipeline.action.S
    floor = 1e-12   # double precision cannot separate a closer pair
    predicted = math.exp(-S / h) if S / h < 700 else 0.0
    if predicted < floor:
        return GapRow(h, *[float("nan")] * 6, f"unresolvable(predicted "
                      f"{predicted:.1e} < floor {floor:.1e})")
    sigma = case.ground.e_sw - 0.1 * h
    lat = assemble(config, h, delta=delta, box=box)
    # the lowest level of each pi-rotation sector: one of the pair each
    levels, residual = [], 0.0
    for parity in (1, -1):
        vals, _, res = lowest_two(lat, sigma=sigma, k=1, parity=parity)
        levels.append((float(vals[0]), parity))
        residual = max(residual, res[0])
    (e1, ground_parity), (e2, _) = sorted(levels)
    gap = e2 - e1
    two_w = ratio = float("nan")
    if config.fsw_condition:
        two_w = 2.0 * abs(case.w_direct.real)
        ratio = gap / two_w
    flag = "ok" if gap > 100.0 * residual else \
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
    return GapReport(rows, corridor, pipeline.config.fsw_condition, action.S)
