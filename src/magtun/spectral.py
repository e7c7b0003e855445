"""Single-well magnetic operator via angular-mode fibering.

For each angular mode m the operator (hD - A)^2 + v0 acts on L^2((0,R), r dr)
as

    -h^2 (d_rr + r^-1 d_r) + (h m / r - r/2)^2 + v0(r).

The substitution w = sqrt(r) u turns this into a standard symmetric problem
on L^2(dr); we realize it at the discrete level with a finite-volume stencil
on half-integer nodes r_i = (i - 1/2) delta, which keeps the matrix symmetric
tridiagonal, imposes the natural (zero-flux) condition at r = 0, and retains
clean O(delta^2) convergence for every m including m = 0.  Eigenvalues are
Richardson-extrapolated over a grid doubling.  The lowest eigenpair of each
grid comes from shifted inverse iteration seeded from the grid below, every
shift certified below the eigenvalue by a positive-definite solve.  Its
eigenvalue error is far below bisection's eps*|T| (about 1e-9), which can
exceed the change the Richardson rule allows for a grid doubling.  Several
levels at once are bisected afresh on every grid, each eigenvalue then
taken as the Rayleigh quotient of its vector.  The exponential tail of
the ground state is re-solved as a linear boundary-value problem so that it
is accurate in relative terms down to the underflow floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.interpolate import CubicSpline

from .numerics import (AccuracyError, NumericalError, symm_tridiag_lowest,
                       tridiag_ground_pair, tridiag_rayleigh)

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

_LOG_FLOOR = -745.0  # below exp() underflow
MAX_DOUBLINGS = 4    # grid doublings solve_fiber may add past n, 2n
TAIL_FLOOR = 1e-9    # refine_tail re-solves where |w| < TAIL_FLOOR max|w|
GROUND_TOL = 1e-8    # Richardson tolerance of the ground_state solve


class InvariantViolation(NumericalError):
    """A structural expectation (radial ground state at m = 0) failed;
    carries the offending value and the bound it crossed."""


@dataclass(frozen=True)
class FiberProblem:
    """One angular fiber of the single-well operator.

    well may be a RadialWell, a vectorized callable v0(r), or None for the
    free (Landau) fiber.
    """

    m: int
    h: float
    R: float
    n: int
    well: object = None

    def __post_init__(self):
        if not 0 < self.h < math.inf:
            raise ValueError(f"need finite h > 0 (got {self.h})")
        if self.n < 400:
            raise ValueError("need n >= 400")
        # Gaussian weight at the truncation radius must be negligible
        if self.R * self.R / (4.0 * self.h) < 14.0 * math.log(10.0):
            raise ValueError(
                f"R={self.R} too small for h={self.h}: "
                f"need exp(-R^2/4h) < 1e-14")

    def potential(self, r):
        if self.well is None:
            return np.zeros_like(r)
        if callable(self.well):
            return self.well(r)
        return self.well.v0(r)


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
    """Eigenpairs of one FiberProblem, with its m, h and R; the ground
    eigenfunction is normalized to int |u|^2 2 pi r dr = 1 and positive."""

    def __init__(self, problem, grid, delta, energies, energy_error, u, w):
        self.problem = problem
        self.m, self.h, self.R = problem.m, problem.h, problem.R
        self.n = len(grid)
        self.grid = grid
        self.delta = delta
        self.energies = energies
        self.energy_error = energy_error
        self.u = u
        self.w = w
        self._log_u = None
        self.e_sw = float(energies[0])
        self.fiber_energies = None  # filled by ground_state

    def _build_spline(self):
        safe = np.maximum(np.abs(self.u), 1e-320)
        self._log_u = CubicSpline(self.grid, np.log(safe))

    def log_u(self, rho):
        """log u(rho) by cubic interpolation of the log-profile."""
        if self._log_u is None:
            self._build_spline()
        return self._log_u(rho)

    def norm_check(self):
        """int |u|^2 2 pi r dr on the grid (should be 1)."""
        return 2.0 * np.pi * float(np.sum(self.w**2) * self.delta)

    def refine_tail(self, diag, off):
        """Re-solve the decaying tail as a linear BVP at the converged energy.

        Inverse-iteration eigenvectors lose relative accuracy once the
        amplitude drops below ~1e-15 of the peak; the tridiagonal system
        (T - E) w = 0, with T the finest grid's matrix (diag, off) and the
        accurate boundary value, regains it.
        """
        w = self.w
        n = len(w)
        wmax = np.abs(w).max()
        imax = int(np.argmax(np.abs(w)))
        idx = np.where((np.abs(w) < TAIL_FLOOR * wmax) &
                       (np.arange(n) > imax))[0]
        if len(idx) == 0 or idx[0] >= n - 2:
            return self
        i0 = int(idx[0])
        E = self.energies[0]
        d = diag[i0 + 1:] - E
        e = off[i0 + 1:]
        b = np.zeros(n - i0 - 1)
        b[0] = -off[i0] * w[i0]
        ab = np.zeros((3, n - i0 - 1))
        ab[0, 1:] = e
        ab[1, :] = d
        ab[2, :-1] = e
        w[i0 + 1:] = sla.solve_banded((1, 1), ab, b)
        self.u = w / np.sqrt(self.grid)
        self._log_u = None
        return self


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
        yield tridiag_rayleigh(diag, off)(vecs), vecs, diag, off, r, delta
        n *= 2


def _ground_levels(problem):
    """The lowest eigenpair on n, 2n, 4n, ... by certified inverse iteration.

    One eigenvalue-only bisection on a pilot grid of max(n // 8, 400) nodes
    gives lambda_0 and the gap.  Each level is then seeded with the level
    below, its eigenvector interpolated onto the new nodes and its first
    shift set below the last eigenvalue by the last change of it.
    """
    d, o, _, _ = _fiber_tridiag(problem, max(problem.n // 8, 400))
    lam, lam1 = sla.eigvalsh_tridiagonal(d, o, select="i",
                                         select_range=(0, 1))
    gap = lam1 - lam
    # the pilot's discretization error has no known sign: a first shift 1e-3
    # of the gap below it converges fast, and one above it retreats
    margin = 1e-3 * gap
    n, r_prev, w = problem.n, None, None
    while True:
        diag, off, r, delta = _fiber_tridiag(problem, n)
        seed = np.ones(n) if r_prev is None else np.interp(r, r_prev, w)
        lam_n, w = tridiag_ground_pair(diag, off, seed, lam, margin, gap)
        yield np.array([lam_n]), w[:, None], diag, off, r, delta
        margin, lam, r_prev = abs(lam_n - lam), lam_n, r
        n *= 2


def solve_fiber(problem, k=1, tol=1e-8, clean_tail=True):
    """Lowest k eigenpairs, Richardson-extrapolated over a grid doubling.

    Convergence requires the extrapolation residual |lam(n)-lam(2n)|/3 to
    drop below tol; otherwise the grid doubles (up to MAX_DOUBLINGS) and an
    AccuracyError carrying both estimates is raised on exhaustion.  k = 1
    solves each grid by certified inverse iteration seeded from the grid
    below (numerics.tridiag_ground_pair); k > 1 bisects every grid afresh
    and takes each eigenvalue as its vector's Rayleigh quotient.  Either
    way the eigenvalue error is far below the Richardson tolerance.
    """
    levels = _ground_levels(problem) if k == 1 else \
        _bisection_levels(problem, k)
    vals_c = next(levels)[0]
    for _ in range(MAX_DOUBLINGS + 1):
        vals_f, vecs, diag, off, r, delta = next(levels)
        err = np.max(np.abs(vals_f - vals_c)) / 3.0
        if err <= tol:
            break
        vals_c = vals_f
    else:
        raise AccuracyError(
            f"fiber eigenvalues not converged to {tol} "
            f"(last doubling changed them by {3 * err:.3e})",
            estimate=vals_f, error_bound=err)
    energies = (4.0 * vals_f - vals_c) / 3.0
    w = vecs[:, 0].copy()
    if w[np.argmax(np.abs(w))] < 0:
        w = -w
    w /= math.sqrt(2.0 * np.pi * float(np.sum(w**2)) * delta)
    u = w / np.sqrt(r)
    sol = RadialEigenSolution(problem, r, delta, energies, err, u, w)
    if clean_tail:
        sol.refine_tail(diag, off)
    return sol


def default_radius(well, h, L=None):
    """Truncation radius: Gaussian tail below 1e-14 plus well/hopping margins."""
    if not 0 < h < math.inf:
        raise ValueError(f"need finite h > 0 (got {h})")
    R = max(3.0 * math.sqrt(40.0 * h), well.a + 6.0)
    if L is not None:
        R = max(R, L + 4.0)
    return R


def _default_n(R, delta=3e-4, cap=250_000):
    return min(int(math.ceil(R / delta)), cap)


def ground_state(well, h, L=None):
    """Radial single-well ground state: the m = 0 fiber, after checking that
    the minimum over the scanned fibers is attained there."""
    R = default_radius(well, h, L=L)
    n_scan = max(_default_n(R, delta=1e-3), 4000)
    scanned = {m: solve_fiber(FiberProblem(m=m, h=h, R=R, n=n_scan,
                                           well=well),
                              k=1, tol=100 * GROUND_TOL,
                              clean_tail=False).e_sw
               for m in (1, 2)}
    # (hm/r - r/2)^2 at -m is the m > 0 diagonal plus 2hm, so fiber -m
    # is fiber m shifted up by 2hm and never holds the minimum
    fiber_energies = {m: scanned[abs(m)] + 2.0 * h * max(-m, 0)
                      for m in (-2, -1, 1, 2)}
    sol = solve_fiber(FiberProblem(m=0, h=h, R=R, n=_default_n(R),
                                   well=well), k=1, tol=GROUND_TOL)
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


def agmon_identity_check(solution, phi, phi_prime=None):
    """Evaluate both sides of the weighted energy identity for u = u_h.

    With v = e^{phi/h} u and the effective radial potential
    w(r) = r^2/4 + v0(r), v0 being the potential of solution.problem:

        h^2 ||grad v||^2 + int (w - |phi'|^2) v^2  =  E int e^{2 phi/h} u^2.

    All integrals are the discrete (finite-volume) ones, so phi = 0
    reproduces the eigen-identity to machine precision.
    """
    r = solution.grid
    h = solution.h
    delta = solution.delta
    u = solution.u
    E = solution.energies[0]
    phi_vals = phi(r) if callable(phi) else np.asarray(phi, dtype=float)
    if phi_prime is None:
        dphi = np.gradient(phi_vals, r)
    else:
        dphi = phi_prime(r) if callable(phi_prime) else np.asarray(phi_prime)
    log_v = np.clip(phi_vals / h, -np.inf, 700.0) + \
        np.log(np.maximum(np.abs(u), 1e-320))
    v = np.sign(u) * np.exp(np.maximum(log_v, _LOG_FLOOR))
    weff = r * r / 4.0 + solution.problem.potential(r)
    rmid = 0.5 * (r[:-1] + r[1:])
    kinetic = h * h * (np.sum(rmid * np.diff(v) ** 2) / delta
                       + (r[-1] + delta / 2.0) * v[-1] ** 2 / delta)
    potential = np.sum((weff - dphi**2) * v * v * r) * delta
    lhs = 2.0 * np.pi * (kinetic + potential)
    rhs = 2.0 * np.pi * E * float(np.sum(np.exp(
        np.maximum(2.0 * phi_vals / h + 2.0 * np.log(
            np.maximum(np.abs(u), 1e-320)), _LOG_FLOOR)) * r) * delta)
    residual = abs(lhs - rhs) / (abs(lhs) + abs(rhs))
    mass = math.sqrt(max(2.0 * np.pi * float(
        np.sum(v * v * r) * delta), 0.0))
    return IdentityReport(lhs, rhs, residual, float(np.max(v)), mass)
