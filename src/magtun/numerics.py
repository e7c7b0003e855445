"""Self-contained numerical kernel.

Adaptive quadrature (Gauss-Kronrod via QUADPACK), bracketed 1-D
minimization with a global grid pre-scan, the modified Bessel function I0
in log form (from the exponentially scaled scipy.special.i0e), cached
Gauss-Legendre rules, the lowest eigenpairs of symmetric tridiagonal
matrices (bisection for several, certified shifted inverse iteration on
LAPACK's dptsv for the lowest one, each eigenvalue a cancellation-free
Rayleigh quotient), and a log-stabilized evaluator for integrals of the
form int exp(g), batched over rows of integrands.  Everything here is pure
and reentrant.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
from scipy import integrate as _si
from scipy import special as _sp
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dptsv
from scipy.optimize import minimize_scalar

__all__ = [
    "NumericalError",
    "AccuracyError",
    "integrate",
    "Minimum1D",
    "minimize_1d",
    "log_bessel_i0",
    "gauss_legendre",
    "symm_tridiag_lowest",
    "tridiag_ground_pair",
    "tridiag_rayleigh",
    "log_integral_exp",
]


class NumericalError(RuntimeError):
    """A numerical stage failed; carries its estimate and the bound it
    missed.  Every typed numerical failure derives from it (CLI exit 3)."""

    def __init__(self, msg, estimate=None, error_bound=None):
        super().__init__(msg)
        self.estimate = estimate
        self.error_bound = error_bound


class AccuracyError(NumericalError):
    """Requested tolerance not reached; carries the best estimate."""


# absolute and relative tolerance of every quadrature, and QUADPACK's
# subinterval limit
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-10
QUAD_LIMIT = 200


def integrate(f, lo, hi, return_error=False):
    """Integral of f over the finite range (lo, hi)."""
    if lo >= hi:
        raise ValueError("need lo < hi")
    # full_output turns QUADPACK's IntegrationWarning into a fourth tuple
    # entry, so one call both gives the estimate and reports the warning
    val, err, _info, *message = _si.quad(
        f, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL,
        limit=QUAD_LIMIT, full_output=1,
    )
    if message and err > QUAD_ABS_TOL + QUAD_REL_TOL * abs(val):
        raise AccuracyError(
            f"quadrature did not converge (err={err:.2e})",
            estimate=val, error_bound=err,
        )
    return (val, err) if return_error else val


class Minimum1D(NamedTuple):
    argmin: float
    value: float


PRESCAN = 200  # grid points of minimize_1d's global pre-scan


def minimize_1d(f, lo, hi, tol=1e-8):
    """Bracketed scalar minimization (Brent) with a global grid pre-scan.

    A uniform pre-scan of PRESCAN points picks the basin first; ties go to
    the smallest abscissa (np.argmin returns the first hit).
    """
    if lo >= hi:
        raise ValueError("need lo < hi")
    xs = np.linspace(lo, hi, PRESCAN)
    vals = np.array([f(x) for x in xs])
    k = int(np.argmin(vals))
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, len(xs) - 1)]
    res = minimize_scalar(f, bounds=(a, b), method="bounded",
                          options={"xatol": 0.25 * tol})
    # endpoint minima sit flush against the pre-scan cell edge
    candidates = [(lo, f(lo)), (float(res.x), float(res.fun)), (hi, f(hi))]
    candidates.sort(key=lambda p: (p[1], p[0]))
    x, fx = candidates[0]
    return Minimum1D(float(x), float(fx))


def log_bessel_i0(z):
    """log I0(z) for z >= 0, stable for arbitrarily large z."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("log_bessel_i0 requires z >= 0")
    out = np.log(_sp.i0e(z)) + z
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=16)
def gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def symm_tridiag_lowest(diag, offdiag, k):
    """The k algebraically smallest eigenpairs (bisection + inverse iteration)."""
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    n = len(diag)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= dim (k={k}, dim={n})")
    if len(offdiag) != n - 1:
        raise ValueError("offdiag must have length dim - 1")
    vals, vecs = eigh_tridiagonal(diag, offdiag, select="i",
                                  select_range=(0, k - 1))
    return vals, vecs


def tridiag_rayleigh(diag, offdiag):
    """The Rayleigh quotient x -> x.T T x of the symmetric tridiagonal T,
    for a unit vector x or for each unit column of x.

    It is taken as sum rowsum x^2 - sum offdiag diff(x)^2, which has no
    cancellation when T is Laplacian-like: its row sums are exact in
    floating point.  The plain x.T (T x) form leaves 1e-11 to 2e-10 of
    rounding on a fiber matrix, and bisection's eigenvalues eps |T|.
    """
    rowsum = diag.copy()
    rowsum[:-1] += offdiag
    rowsum[1:] += offdiag
    return lambda x: rowsum @ x**2 - offdiag @ np.diff(x, axis=0) ** 2


# solves per call, failed ones included; quadrupling from 16 eps max|diag|,
# a failing margin outgrows max|diag| within 25 retries
_MAX_SOLVES = 40


def tridiag_ground_pair(diag, offdiag, x0, lam, margin, gap):
    """Lowest eigenpair (rho, x) of a symmetric tridiagonal T by certified
    shifted inverse iteration from x0; x has unit norm and rho, its Rayleigh
    quotient, is the eigenvalue.

    Each shift sigma is proven below the lowest eigenvalue lambda_0 by a
    successful positive-definite LDL^T solve of T - sigma I (LAPACK dptsv;
    Sylvester's law of inertia).  The first shift is lam - margin, and a
    failed solve quadruples the margin and retries.  Once rho is known the
    shift moves to just below it, by Temple's bound 2 |T x - rho x|^2 / gap
    plus 16 eps max|diag| of rounding; gap estimates lambda_1 - lambda_0.
    The iteration stops when x stops changing: when its sup-norm change is
    at most 4 eps max|diag| / gap of its sup, the first-order rounding noise
    of an eigenvector of T.  It does not stop when rho does, since rho
    converges quadratically in the vector error, long before the small tail
    of x.  x0 must not be orthogonal to the ground vector; a positive x0
    suffices when offdiag <= 0, which makes the ground vector positive.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    x = np.asarray(x0, dtype=float)
    x = x / np.linalg.norm(x)
    noise = np.finfo(float).eps * np.abs(diag).max()
    rayleigh = tridiag_rayleigh(diag, offdiag)
    margin = max(margin, 16.0 * noise)
    change = np.inf
    for _ in range(_MAX_SOLVES):
        _, _, y, info = dptsv(diag - (lam - margin), offdiag, x)
        if info != 0:    # lam - margin is not below lambda_0
            margin *= 4.0
            continue
        y /= np.linalg.norm(y)
        change = np.abs(y - x).max()
        x = y
        tx = diag * x
        tx[:-1] += offdiag * x[1:]
        tx[1:] += offdiag * x[:-1]
        rho = float(rayleigh(x))
        if change <= 4.0 * noise / gap * np.abs(x).max():
            return rho, x
        lam = rho
        margin = 2.0 * float(np.sum((tx - rho * x) ** 2)) / gap + 16.0 * noise
    raise AccuracyError(
        f"inverse iteration not converged in {_MAX_SOLVES} solves "
        f"(last change {change:.3e})", estimate=lam, error_bound=change)


N_SCAN = 400     # log_integral_exp's scan for the maximum
N_NODES = 4001   # its Simpson nodes per window (odd: an even cell count)
KEEP = 46.0      # its window: g >= gmax - KEEP, truncation error ~ e^-KEEP

# the Simpson nodes and weights 1, 4, 2, ..., 4, 1 (over 3 (N_NODES - 1))
# of the unit interval; a window [y1, y2] maps them affinely
_UNIT = np.linspace(0.0, 1.0, N_NODES)
_SIMPSON = np.where(np.arange(N_NODES) % 2, 4.0, 2.0)
_SIMPSON[[0, -1]] = 1.0
_SIMPSON /= 3.0 * (N_NODES - 1)


def log_integral_exp(g, lo, hi):
    """log of int_lo^hi exp(g(y)) dy for a vectorized log-integrand g.

    A coarse scan of N_SCAN points locates the maximum; Simpson on N_NODES
    nodes integrates exp(g - gmax) on the window where g >= gmax - KEEP.
    The window's nodes are y1 + (y2 - y1) * unit for one reference grid
    unit on [0, 1], so the composite Simpson rule is one product with a
    fixed weight vector, scaled by the window's width y2 - y1.

    g may also hold a batch of integrands, one per row: called with the
    shared scan (shape (n,)) or with per-row nodes (shape (rows, n)) it
    returns shape (rows, n).  Each row then gets its own window, cut and
    padding, and the result is an array with -inf for every row whose
    maximum is not finite.  A 1-D g gives a float.
    """
    ys = np.linspace(lo, hi, N_SCAN)
    gs = g(ys)
    single = gs.ndim == 1
    gs = np.atleast_2d(gs)
    gmax = gs.max(axis=1)
    finite = np.isfinite(gmax)
    if not finite.any():
        return -np.inf if single else np.full(len(gs), -np.inf)
    mask = gs > (gmax - KEEP)[:, None]
    first = np.argmax(mask, axis=1)
    last = N_SCAN - 1 - np.argmax(mask[:, ::-1], axis=1)
    # pad one scan cell so the window edges sit below the cut
    step = ys[1] - ys[0]
    y1 = np.maximum(lo, ys[first] - step)
    y2 = np.minimum(hi, ys[last] + step)
    yy = y1[:, None] + (y2 - y1)[:, None] * _UNIT
    gg = np.atleast_2d(g(yy[0] if single else yy))
    gm = gg.max(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        val = np.exp(gg - gm[:, None]) @ _SIMPSON * (y2 - y1)
        out = np.where(finite, gm + np.log(val), -np.inf)
    return float(out[0]) if single else out
