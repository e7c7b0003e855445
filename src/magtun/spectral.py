"""Single-well magnetic operator via angular-mode fibering.

For each angular mode m the operator (hD - A)^2 + v0 acts on L^2((0,R), r dr)
as

    -h^2 (d_rr + r^-1 d_r) + (h m / r - r/2)^2 + v0(r).

The substitution w = sqrt(r) u turns this into a standard symmetric problem
on L^2(dr); we realize it at the discrete level with a finite-volume stencil
on half-integer nodes r_i = (i - 1/2) delta, which keeps the matrix symmetric
tridiagonal, imposes the natural (zero-flux) condition at r = 0, and retains
clean O(delta^2) convergence for every m including m = 0.  The grid
doubles, n, 2n, 4n, ..., and each pair of successive grids gives a
Richardson-extrapolated energy, O(delta^4); the doubling stops once two
successive extrapolated energies agree.  The ground profile is extrapolated
the same way, in log form, over the last two grids, so that u_h is O(delta^4)
too, out along its tail.  The lowest eigenpair of each grid comes from
shifted inverse iteration seeded from the grid below, every shift certified
below the eigenvalue by a positive-definite solve.  Its eigenvalue error is
far below bisection's eps*|T|, which grows like n^2.  Several levels at once
are bisected afresh on every grid, each eigenvalue then taken as the
Rayleigh quotient of its vector.  The ground state's exponential tail is
carried in log form, a running sum of the log ratios of successive nodes
read off far-end LDL^T pivots of each grid's matrix, so that it stays
accurate in relative terms far below the underflow floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .numerics import (AccuracyError, NumericalError, _far_end_pivots,
                       _richardson, _spline, _tridiag_ground_pair,
                       _tridiag_rayleigh, symm_tridiag_lowest)

__all__ = [
    "FiberProblem",
    "RadialEigenSolution",
    "InvariantViolation",
    "solve_fiber",
    "ground_state",
    "default_radius",
    "harmonic_expansion_check",
    "agmon_identity_check",
    "HarmonicReport",
    "IdentityReport",
]

MAX_DOUBLINGS = 4    # grid doublings solve_fiber may add past n, 2n, 4n
TAIL_FLOOR = 1e-9    # the log tail starts where |w| < TAIL_FLOOR max|w|
GROUND_TOL = 1e-8    # Richardson tolerance of the ground_state solve
# first grid spacing of ground_state's m = 0 solve and of its m = 1, 2 scans;
# from the m = 0 grid the two routes to w agree within 7.2e-9 at depth
# 0.5-4, L 3.5-5, h >= 0.15
GROUND_DELTA = 2.4e-3
SCAN_DELTA = 8e-3
MIN_NODES = 400       # floor of FiberProblem.n, the pilot and a default grid
MAX_NODES = 250_000   # cap of a default grid


class InvariantViolation(NumericalError):
    """A structural expectation (radial ground state at m = 0) failed;
    carries the offending value and the bound it crossed."""


@dataclass(frozen=True)
class FiberProblem:
    """One angular fiber of the single-well operator.

    v0 is the radial potential, a vectorized callable (a RadialWell's
    well.v0, say), or None for the free (Landau) fiber.
    """

    m: int
    h: float
    R: float
    n: int
    v0: object = None

    def __post_init__(self):
        if not 0 < self.h < math.inf:
            raise ValueError(f"need finite h > 0 (got {self.h})")
        if self.n < MIN_NODES:
            raise ValueError(f"need n >= {MIN_NODES}")
        if not self.R < math.inf:
            raise ValueError(f"need finite R (got {self.R})")
        # Gaussian weight at the truncation radius must be negligible
        if not (self.R > 0 and
                self.R * self.R / (4.0 * self.h) >= 14.0 * math.log(10.0)):
            raise ValueError(
                f"R={self.R} too small for h={self.h}: "
                f"need exp(-R^2/4h) < 1e-14")
        if not self.R * self.R < math.inf:   # the grid spacing squared too
            raise ValueError(f"need finite R^2 (got R={self.R})")

    def potential(self, r):
        return np.zeros_like(r) if self.v0 is None else self.v0(r)


def _fiber_tridiag(problem, n):
    """Finite-volume symmetric tridiagonal matrix on n half-integer nodes."""
    h, m, R = problem.h, problem.m, problem.R
    delta = R / (n + 0.5)
    i = np.arange(1, n + 1, dtype=float)
    r = (i - 0.5) * delta
    Q = (h * m / r - r / 2.0) ** 2 + problem.potential(r)
    c = h * h / delta**2
    diag = c * ((i - 1.0) + i) / (i - 0.5) + Q
    off = -c * i[:-1] / np.sqrt((i[:-1] - 0.5) * (i[:-1] + 0.5))
    return diag, off, r, delta


class RadialEigenSolution:
    """Eigenpairs of one FiberProblem (solution.problem); the ground
    eigenfunction is normalized to int |u|^2 2 pi r dr = 1 and positive."""

    def __init__(self, problem, energies, energy_error, levels):
        self.problem = problem
        self.grid, self.delta = levels[1][4:]
        self.n = len(self.grid)
        self.energies = energies
        self.energy_error = energy_error
        # the last two levels, until the profile is read
        self._levels = levels
        self.e_sw = float(energies[0])
        self.fiber_energies = None  # filled by ground_state

    @cached_property
    def log_profile(self):
        """log u on the grid, extrapolated over the last two grids (see
        solve_fiber).  It is built on first read, and the two levels are
        then dropped: most solves only need their energies."""
        E = self.energies[0]
        coarse, fine = self._levels
        l_c = _spline(coarse[4], _log_profile(coarse, E))(self.grid)
        del self._levels
        return _richardson(l_c, _log_profile(fine, E), coarse[5], fine[5])

    @cached_property
    def u(self):
        """The ground profile on the grid, exp(log_profile)."""
        return np.exp(self.log_profile)

    @cached_property
    def log_u(self):
        """log u(rho): the not-a-knot cubic spline of log_profile
        (numerics._spline, scipy's CubicSpline rebuilt), built on first
        use.  Points off the grid take the end intervals."""
        return _spline(self.grid, self.log_profile)

    def norm_check(self):
        """int |u|^2 2 pi r dr on the grid (should be 1): the midpoint sum
        less its Euler-Maclaurin endpoint term at r = 0, delta^2 / 24 times
        the integrand's slope 2 pi u(0)^2 there.  The profile is
        extrapolated to O(delta^4), so the bare sum is off by that term."""
        d = self.delta
        return 2.0 * np.pi * (float(np.sum(self.grid * self.u**2)) * d
                              - d**2 * self.u[0]**2 / 24.0)


def _bisection_levels(problem, k):
    """(vals, vecs, diag, off, r, delta) on n, 2n, 4n, ... by bisection.

    Each eigenvalue is the row-sum Rayleigh quotient of its bisection
    vector: bisection's own eigenvalues carry rounding noise of order
    eps |T|, which grows with n past the change the Richardson rule allows.
    """
    n = problem.n
    while True:
        diag, off, r, delta = _fiber_tridiag(problem, n)
        _, vecs = symm_tridiag_lowest(diag, off, k)
        yield _tridiag_rayleigh(diag, off)(vecs), vecs, diag, off, r, delta
        n *= 2


def _ground_levels(problem):
    """The lowest eigenpair on n, 2n, 4n, ... by certified inverse iteration.

    One bisection on a pilot grid of max(n // 8, MIN_NODES) nodes gives
    lambda_0 and the gap.  Each level is then seeded with the level below, its
    eigenvector interpolated onto the new nodes and its first shift set
    below the last eigenvalue by the last change of it.
    """
    d, o, _, _ = _fiber_tridiag(problem, max(problem.n // 8, MIN_NODES))
    lam, lam1 = symm_tridiag_lowest(d, o, 2)[0]
    gap = lam1 - lam
    # the pilot's discretization error has no known sign: a first shift 1e-3
    # of the gap below it converges fast, and one above it retreats
    margin = 1e-3 * gap
    n, r_prev, w = problem.n, None, None
    while True:
        diag, off, r, delta = _fiber_tridiag(problem, n)
        seed = np.ones(n) if r_prev is None else np.interp(r, r_prev, w)
        lam_n, w = _tridiag_ground_pair(diag, off, seed, lam, margin, gap)
        yield np.array([lam_n]), w[:, None], diag, off, r, delta
        margin, lam, r_prev = abs(lam_n - lam), lam_n, r
        n *= 2


def _log_profile(level, E):
    """log u of a level's ground vector w, u positive and normalized on the
    level's grid.  Past the first node i0 beyond the peak where |w| <
    TAIL_FLOOR max|w|, where w has lost its relative accuracy, log w is the
    running sum of log(w[i+1] / w[i]) = log(-off[i] / p[i+1]): p are the
    far-end pivots of the block past i0 of T - E, T the level's matrix, so
    the rows past i0 of (T - E) w = 0 hold.  That block is positive
    definite in the forbidden region; where it is not, NumericalError.
    """
    _, vecs, diag, off, r, delta = level
    w = np.abs(vecs[:, 0])
    w /= math.sqrt(2.0 * np.pi * float(np.sum(w**2)) * delta)
    n, imax = len(w), int(np.argmax(w))
    # the block past i0 needs two rows
    below = np.flatnonzero(w[imax:n - 2] < TAIL_FLOOR * w[imax])
    i0 = imax + int(below[0]) if len(below) else n - 1
    log_w = np.log(w[:i0 + 1])
    if i0 < n - 1:
        p = _far_end_pivots(diag[i0 + 1:] - E, off[i0 + 1:])
        log_w = np.concatenate(
            [log_w, log_w[-1] + np.cumsum(np.log(-off[i0:] / p))])
    return log_w - 0.5 * np.log(r)


def solve_fiber(problem, k=1, tol=1e-8):
    """Lowest k eigenpairs and the ground profile, Richardson-extrapolated
    over the last two of the grids n, 2n, 4n, ...

    Each level's eigenvalues carry an O(delta^2) error with a smooth
    expansion in delta^2, so with q = (delta_c / delta_f)^2 (about 4) the
    pair (coarse, fine) gives E = lam_f + (lam_f - lam_c) / (q - 1),
    accurate to O(delta^4).  The grid doubles until two successive values
    agree, |E(n, 2n) - E(n/2, n)| <= tol; that difference, the error bound
    of the coarser value, is energy_error.  After MAX_DOUBLINGS doublings
    past the first three levels an AccuracyError carries both.  k = 1
    solves each grid by certified inverse iteration seeded from the grid
    below (numerics._tridiag_ground_pair); k > 1 bisects every grid afresh
    and takes each eigenvalue as its vector's Rayleigh quotient.  Either
    way the eigenvalue error is far below the tolerance.

    The ground profile is extrapolated the same way, in log form: the log
    profile of each of the last two levels (_log_profile), the coarse one
    splined onto the fine nodes, gives log u = l_f + (l_f - l_c) / (q - 1)
    on the fine grid, O(delta^4) like E, far out along the decaying tail.
    The solution keeps the two levels, matrices included, and builds log u
    from them on its first read, so a solve whose profile is never read
    skips it.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"need finite tol > 0 (got {tol})")
    levels = _ground_levels(problem) if k == 1 else \
        _bisection_levels(problem, k)

    def extrapolate(coarse, fine):
        return _richardson(coarse[0], fine[0], coarse[-1], fine[-1])

    coarse, fine = next(levels), next(levels)
    last = extrapolate(coarse, fine)
    for _ in range(MAX_DOUBLINGS + 1):
        coarse, fine = fine, next(levels)
        energies = extrapolate(coarse, fine)
        err = float(np.max(np.abs(energies - last)))
        if err <= tol:
            break
        last = energies
    else:
        raise AccuracyError(
            f"fiber eigenvalues not converged to {tol} (the last two "
            f"extrapolated values differ by {err:.3e})",
            estimate=energies, error_bound=err)
    return RadialEigenSolution(problem, energies, err, (coarse, fine))


def default_radius(well, h, L=None):
    """Truncation radius: Gaussian tail below 1e-14 plus well/hopping margins."""
    if not 0 < h < math.inf:
        raise ValueError(f"need finite h > 0 (got {h})")
    R = max(3.0 * math.sqrt(40.0 * h), well.a + 6.0)
    if L is not None:
        R = max(R, L + 4.0)
    return R


def _default_n(R, delta):
    return max(min(int(R / delta), MAX_NODES), MIN_NODES)


def ground_state(well, h, L=None):
    """Radial single-well ground state: the m = 0 fiber, after checking that
    the minimum over the scanned fibers is attained there.  The m = 0 solve
    starts on _default_n(R, GROUND_DELTA) nodes and the m = 1, 2 scans on
    _default_n(R, SCAN_DELTA), so each on at least MIN_NODES."""
    R = default_radius(well, h, L=L)
    n_scan = _default_n(R, SCAN_DELTA)
    scanned = {m: solve_fiber(FiberProblem(m=m, h=h, R=R, n=n_scan,
                                           v0=well.v0),
                              k=1, tol=100 * GROUND_TOL).e_sw
               for m in (1, 2)}
    # (hm/r - r/2)^2 at -m is the m > 0 diagonal plus 2hm, so fiber -m
    # is fiber m shifted up by 2hm and never holds the minimum
    fiber_energies = {m: scanned[abs(m)] + 2.0 * h * max(-m, 0)
                      for m in (-2, -1, 1, 2)}
    sol = solve_fiber(FiberProblem(m=0, h=h, R=R,
                                   n=_default_n(R, GROUND_DELTA), v0=well.v0),
                      k=1, tol=GROUND_TOL)
    fiber_energies[0] = sol.e_sw
    m_star = min(fiber_energies, key=fiber_energies.get)
    if m_star != 0:
        raise InvariantViolation(
            f"fiber minimum at m={m_star}, not m=0: h={h} is outside the "
            f"radial-ground-state regime or the grid is too coarse "
            f"(energies {fiber_energies})",
            estimate=fiber_energies[m_star], error_bound=fiber_energies[0])
    sol.fiber_energies = fiber_energies
    return sol


class HarmonicReport(NamedTuple):
    exponent: float
    prefactor: float
    residuals: np.ndarray
    h_list: np.ndarray
    floor_reached: bool
    message: str


def harmonic_expansion_check(well, h_list, energies, energy_errors):
    """Fit |e_sw(h) - v0_min - h sqrt(1 + 2 v0''(0))| ~ C h^p.

    energies are ground-state energies e_sw at five or more h in (0, 0.3],
    energy_errors their Richardson errors; a residual within 50 of its
    error is noise, and the fit is then not made.  The expansion error is
    dominated by the cubic Taylor remainder of the well; the fitted p
    should be at least 1.4.
    """
    h_list = np.asarray(h_list, dtype=float)
    if len(h_list) < 5:
        raise ValueError("need at least 5 h-values")
    if np.any(h_list > 0.3) or np.any(h_list <= 0):
        raise ValueError("h_list must lie in (0, 0.3]")
    E1 = math.sqrt(1.0 + 2.0 * well.v0_second_deriv_at_0)
    residuals = np.abs(np.asarray(energies) - (well.v0_min + h_list * E1))
    floors = 50.0 * np.maximum(energy_errors, 1e-14)
    if np.any(residuals < floors):
        return HarmonicReport(float("nan"), float("nan"), residuals, h_list,
                              True, "residual floor reached")
    coef = np.polyfit(np.log(h_list), np.log(residuals), 1)
    return HarmonicReport(float(coef[0]), float(math.exp(coef[1])),
                          residuals, h_list, False, "ok")


class IdentityReport(NamedTuple):
    lhs: float
    rhs: float
    residual: float
    weighted_sup: float
    weighted_mass: float


def agmon_identity_check(solution, phi, phi_prime):
    """Evaluate both sides of the weighted energy identity for u = u_h.

    phi and phi_prime are callables of r, the weight and its derivative.
    With v = e^{phi/h} u and the effective radial potential
    w(r) = r^2/4 + v0(r), v0 being the potential of solution.problem:

        h^2 ||grad v||^2 + int (w - |phi'|^2) v^2  =  E int e^{2 phi/h} u^2.

    All integrals are the discrete (finite-volume) ones on the solution's
    grid.  For that grid's own eigenpair, phi = 0 would reproduce the
    eigen-identity to rounding.  The solution carries the extrapolated
    energy E and profile instead, so at phi = 0 the relative residual is
    the grid's own O(delta^2) eigenvalue error, |lam - E| / (|lam| + |E|):
    8.1e-8 for the default bump well at L 4, h 0.1.
    """
    r = solution.grid
    h = solution.problem.h
    delta = solution.delta
    log_u = solution.log_profile
    E = solution.energies[0]
    phi_vals, dphi = phi(r), phi_prime(r)
    v = np.exp(np.clip(phi_vals / h, -np.inf, 700.0) + log_u)
    weff = r * r / 4.0 + solution.problem.potential(r)
    rmid = 0.5 * (r[:-1] + r[1:])
    kinetic = h * h * (np.sum(rmid * np.diff(v) ** 2) / delta
                       + (r[-1] + delta / 2.0) * v[-1] ** 2 / delta)
    potential = np.sum((weff - dphi**2) * v * v * r) * delta
    lhs = 2.0 * np.pi * (kinetic + potential)
    rhs = 2.0 * np.pi * E * float(np.sum(
        np.exp(2.0 * phi_vals / h + 2.0 * log_u) * r) * delta)
    residual = abs(lhs - rhs) / (abs(lhs) + abs(rhs))
    mass = math.sqrt(max(2.0 * np.pi * float(
        np.sum(v * v * r) * delta), 0.0))
    return IdentityReport(lhs, rhs, residual, float(np.max(v)), mass)
