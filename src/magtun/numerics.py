"""Self-contained numerical kernel.

Fixed-order quadrature (Gauss-Legendre on 128 nodes, its error the
difference from the 64-node rule), bracketed 1-D minimization with a global
grid pre-scan and array passes that narrow the bracket, the modified Bessel
function I0 in log form (scipy's exponentially scaled i0e), a log-sum-exp
with weights, cached Gauss-Legendre rules, the lowest eigenpairs of
symmetric tridiagonal matrices (bisection for several, certified shifted
inverse iteration on LAPACK's dptsv for the lowest one, each eigenvalue a
cancellation-free Rayleigh quotient, and the far-end pivots of a
positive-definite one by LAPACK's dpttrf), and a log-stabilized evaluator
for integrals of the form int exp(g), one per row of a batched integrand g
(a scan for each row's peak, then two Gauss-Legendre panels split at it).
The tables' spline and cumulative Simpson rule and logsumexp are scipy's,
rebuilt here bit for bit so that no process imports scipy.interpolate,
scipy.integrate or scipy.special.  The LAPACK routines and i0e are scipy's
compiled _flapack and _special_ufuncs, each loaded from its file
(_scipy_extension), and scipy's eigh_tridiagonal is rebuilt from its
dstebz and dstein calls, so that no process imports scipy.linalg.
Everything here is pure and reentrant.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "NumericalError",
    "AccuracyError",
    "integrate",
    "Minimum1D",
    "minimize_1d",
    "log_bessel_i0",
    "gauss_legendre",
    "symm_tridiag_lowest",
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


def _scipy_extension(name):
    """scipy's compiled module scipy.<name>, loaded from its file, so that
    no package __init__ above it runs: scipy.linalg's and scipy.sparse's
    each load scipy's array-API layer, about 0.2 s and 25 MB of a process.
    The module enters sys.modules under its name, where a later import of
    its package finds it.  CPython's extension loader enters a single-phase
    module there itself (all four that magtun loads are), so the entry
    cannot be avoided.  No import of its package sets the module as the
    package's attribute: a scipy.linalg imported after magtun has no
    _flapack attribute, while its lapack wrappers still bind the module.
    ImportError names the file if it is missing."""
    full = f"scipy.{name}"
    if full in sys.modules:
        return sys.modules[full]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError(f"scipy is not installed (for {full})", name="scipy")
    stem = os.path.join(scipy.submodule_search_locations[0], *name.split("."))
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = stem + suffix
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(full, path)
            module = sys.modules[full] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's compiled module {full} not found at "
                      f"{stem}{importlib.machinery.EXTENSION_SUFFIXES[0]}")


# LAPACK, as scipy.linalg.lapack serves it
_flapack = _scipy_extension("linalg._flapack")
dgtsv, dptsv, dpttrf = _flapack.dgtsv, _flapack.dptsv, _flapack.dpttrf
# the exponentially scaled I0, as scipy.special serves it
i0e = _scipy_extension("special._special_ufuncs").i0e


# absolute and relative tolerance of every quadrature
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-10
QUAD_NODES = 128   # integrate's Gauss-Legendre rule; half of it checks it


def integrate(f, lo, hi, return_error=False):
    """Integral of f over the finite range (lo, hi), by the QUAD_NODES-node
    Gauss-Legendre rule; the error estimate is its difference from the rule
    of half as many nodes.  f must accept an array of nodes and return one
    of the same shape.  Raises AccuracyError past QUAD_ABS_TOL +
    QUAD_REL_TOL |value|."""
    if lo >= hi:
        raise ValueError("need lo < hi")
    def rule(n):
        x, w = _gauss_nodes(lo, hi, n)
        return float(w @ f(x))

    val = rule(QUAD_NODES)
    err = abs(val - rule(QUAD_NODES // 2))
    if err > QUAD_ABS_TOL + QUAD_REL_TOL * abs(val):
        raise AccuracyError(
            f"quadrature did not converge (err={err:.2e})",
            estimate=val, error_bound=err,
        )
    return (val, err) if return_error else val


def _richardson(coarse, fine, d_coarse, d_fine):
    """The delta^2 Richardson step of one value at two spacings."""
    return fine + (fine - coarse) / ((d_coarse / d_fine) ** 2 - 1.0)


class Minimum1D(NamedTuple):
    argmin: float
    value: float


PRESCAN = 200  # grid points of minimize_1d's pre-scan and of each pass


def minimize_1d(f, lo, hi, tol=1e-8):
    """Bracketed scalar minimization with a global grid pre-scan.

    A uniform pre-scan of PRESCAN points picks the basin first; ties go to
    the smallest abscissa (np.argmin returns the first hit).  The bracket
    of the pre-scan minimum's two neighbours then narrows by passes of
    PRESCAN points over it, each to the neighbours of its own minimum,
    until it is under tol / 4 (or a few ulps of its ends).  Every pass is
    one call f(xs) on the whole node array, so f must accept an array and
    return one of the same shape (a scalar-only f is a TypeError); only
    the two endpoints, lo and hi, are scalar calls.
    """
    if lo >= hi:
        raise ValueError("need lo < hi")
    a, b = lo, hi
    while True:
        xs = np.linspace(a, b, PRESCAN)
        vals = np.asarray(f(xs))
        if vals.shape != xs.shape:
            raise TypeError(f"f must map shape {xs.shape} to the same shape "
                            f"(got {vals.shape})")
        k = int(np.argmin(vals))
        a, b = xs[max(k - 1, 0)], xs[min(k + 1, PRESCAN - 1)]
        if b - a <= max(0.25 * tol, 8.0 * np.spacing(max(abs(a), abs(b)))):
            break
    # endpoint minima sit flush against the pre-scan cell edge
    candidates = [(lo, f(lo)), (xs[k], vals[k]), (hi, f(hi))]
    candidates.sort(key=lambda p: (p[1], p[0]))
    x, fx = candidates[0]
    return Minimum1D(float(x), float(fx))


def log_bessel_i0(z):
    """log I0(z) = log i0e(z) + z for z >= 0, stable for arbitrarily large
    z, with i0e scipy's compiled ufunc (Cephes' Chebyshev series)."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("log_bessel_i0 requires z >= 0")
    out = np.log(i0e(z)) + z
    return float(out) if out.ndim == 0 else out


def logsumexp(a, b):
    """log sum b exp(a) for real a and b > 0 by scipy 1.17's steps, so bit
    for bit its logsumexp(a, b=b): log1p(s) + log(m) + a_max, with m the
    sum of b at the maxima and s = sum b exp(a - a_max) over the rest / m,
    and log sum b exp(a) where that is not finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        top = a == a_max
        m = np.sum(b * top)
        s = np.sum(b * np.exp(np.where(top, -np.inf, a) - a_max))
        out = np.log1p(s / m) + np.log(m) + a_max
        return out if np.isfinite(out) else np.log(np.sum(b * np.exp(a)))


@functools.lru_cache(maxsize=16)
def gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_nodes(lo, hi, n):
    """The n-node Gauss-Legendre rule on [lo, hi]; lo and hi broadcast."""
    x, w = gauss_legendre(n)
    return lo + 0.5 * (hi - lo) * (x + 1.0), 0.5 * (hi - lo) * w


def _interval(x, r):
    """np.clip(np.searchsorted(x, r, side="right") - 1, 0, len(x) - 2) for
    the increasing nodes x: each point's guess from the mean spacing,
    stepped until x[i] <= r < x[i + 1] (i is 0 or len(x) - 2 off the ends).
    On evenly spaced nodes no guess is more than one step off.  A NaN point
    keeps its guess."""
    top = len(x) - 2
    guess = (r - x[0]) * ((top + 1) / (x[-1] - x[0]))
    i = np.fmin(np.fmax(guess, 0.0), top).astype(np.intp)
    while True:
        up = x[i + 1] <= r
        up &= i < top
        if not up.any():
            break
        i += up
    while True:
        down = x[i] > r
        down &= i > 0
        if not down.any():
            return i
        i -= down


def _spline(x, y):
    """scipy's not-a-knot CubicSpline of y on the increasing nodes x (at
    least four), as a function of an array or a scalar.

    The slopes solve scipy's tridiagonal system with its not-a-knot end
    rows by LAPACK's dgtsv, as scipy's solve_banded does for one band each
    side, singular check included; each interval's cubic has scipy's
    Hermite coefficients and is summed in scipy's order, power by power,
    so the values are scipy's bit for bit (Horner's rule moves them by up
    to 42 ulps).  Points off the grid take the end intervals, as scipy
    extrapolates.  The bands and coefficients are filled in place, and a
    point's interval is found from the spacing (_interval), not by binary
    search.
    """
    n = len(x)
    dx = x[1:] - x[:-1]
    slope = y[1:] - y[:-1]
    slope /= dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lower, diag, upper, rhs = (np.empty(size) for size in (n - 1, n, n - 1, n))
    lower[:-1], lower[-1], upper[0], upper[1:] = dx[1:], d1, d0, dx[:-1]
    diag[0], diag[-1] = dx[1], dx[-2]
    np.add(dx[:-1], dx[1:], out=diag[1:-1])
    diag[1:-1] *= 2
    np.multiply(dx[1:], slope[:-1], out=rhs[1:-1])
    rhs[1:-1] += dx[:-1] * slope[1:]
    rhs[1:-1] *= 3
    rhs[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d0
    rhs[-1] = (dx[-1]**2 * slope[-2]
               + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    *_, s, info = dgtsv(lower, diag, upper, rhs, overwrite_dl=1,
                        overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if info > 0:
        raise NumericalError("spline slopes: singular matrix (LAPACK dgtsv)")
    # rows t / dx, (slope - s) / dx - t, s and y, where t is
    # (s[:-1] + s[1:] - 2 slope) / dx, row 1 first holding 2 slope
    coef = np.empty((4, n - 1))
    t = np.add(s[:-1], s[1:], out=coef[0])
    t -= np.multiply(slope, 2, out=coef[1])
    t /= dx
    np.subtract(slope, s[:-1], out=coef[1])
    coef[1] /= dx
    coef[1] -= t
    t /= dx
    coef[2], coef[3] = s[:-1], y[:-1]

    def spline(r):
        r = np.asarray(r, dtype=float)
        i = _interval(x, r)
        z = r - x[i]
        zz = z * z
        out = coef[3].take(i) + coef[2].take(i) * z
        out += coef[1].take(i) * zz
        zz *= z
        out += coef[0].take(i) * zz
        return out
    return spline


def _cumulative_simpson(y, x):
    """scipy's cumulative_simpson(y, x=x, initial=0): the integral of each
    sub-interval from the quadratic through it and one neighbour, the one
    on its right for even sub-intervals and on its left for odd ones and
    the last, summed cumulatively from 0 at x[0].  Only those integrals
    are formed, each by scipy's expression."""
    def leading(y0, y1, y2, a, b):   # over the first interval, of width a
        x21_x31 = a / (a + b)
        c3 = x21_x31 * (a / b)
        return a / 6 * ((3 - x21_x31) * y0 + (3 + c3 + x21_x31) * y1
                        - c3 * y2)

    dx = np.diff(x)
    out = np.empty(len(x))
    out[0] = 0.0
    sub = out[1:]
    sub[:-1:2] = leading(y[:-2:2], y[1:-1:2], y[2::2], dx[:-1:2], dx[1::2])
    sub[1::2] = leading(y[2::2], y[1:-1:2], y[:-2:2], dx[1::2], dx[:-1:2])
    sub[-1] = leading(y[-1], y[-2], y[-3], dx[-1], dx[-2])
    np.cumsum(sub, out=sub)
    return out


def symm_tridiag_lowest(diag, offdiag, k):
    """The k algebraically smallest eigenpairs (bisection + inverse iteration)."""
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    n = len(diag)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= dim (k={k}, dim={n})")
    if len(offdiag) != n - 1:
        raise ValueError("offdiag must have length dim - 1")
    if not (np.isfinite(diag).all() and np.isfinite(offdiag).all()):
        raise ValueError("array must not contain infs or NaNs")
    return _eigh_tridiagonal(diag, offdiag, k, 0.0, vectors=True)


def _tridiag_lowest_values(diag, offdiag, k, tol):
    """The k lowest eigenvalues alone, each bisected to within tol."""
    return _eigh_tridiagonal(diag, offdiag, k, tol, vectors=False)


def _eigh_tridiagonal(diag, offdiag, k, tol, vectors):
    """scipy's eigh_tridiagonal(diag, offdiag, select="i", select_range=(0,
    k - 1), tol=tol, eigvals_only=not vectors) by its LAPACK calls: dstebz
    bisects the values (block order for dstein, else ascending), dstein
    takes each vector by inverse iteration, and an argsort puts both in
    ascending order.  A 1 x 1 matrix is its own eigenvalue.  LAPACK's info
    > 0 raises NumericalError, info < 0 ValueError (scipy's _check_info)."""
    if len(diag) == 1:
        w = diag[:1].copy()
        return (w, np.ones((1, 1))) if vectors else w
    # range 2 selects by index, the 1st to k-th smallest; vl, vu are unread
    m, w, iblock, isplit, info = _flapack.dstebz(
        diag, offdiag, 2, 0.0, 1.0, 1, k, tol, "B" if vectors else "E")
    _check_info(info, "stebz", f"did not converge (LAPACK info={info})")
    w = w[:m]
    if not vectors:
        return w
    v, info = _flapack.dstein(diag, offdiag, w, iblock, isplit)
    _check_info(info, "stein", f"{info} eigenvectors failed to converge")
    order = np.argsort(w)
    return w[order], v[:, order]


def _check_info(info, driver, failure):
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {driver}")
    if info > 0:
        raise NumericalError(f"{driver} (eigh_tridiagonal) {failure}")


def _tridiag_rayleigh(diag, offdiag):
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

    def rayleigh(x, work=None):
        """The quotient of x, work an optional scratch array shaped as x."""
        work = np.square(x, out=work)
        sq_rows = _sum_nodes(rowsum, work)
        diff = np.subtract(x[1:], x[:-1], out=work[:-1])
        return sq_rows - _sum_nodes(offdiag, np.square(diff, out=diff))
    return rayleigh


def _sum_nodes(a, x):
    """sum_i a_i x_i along the nodes (axis 0) of x, for each column of a
    2-D x, with x overwritten by the products.  numpy's add.reduce sums in
    an order fixed by the array alone (pairwise along a vector), where a
    BLAS dot product's order follows its thread count."""
    np.multiply(x.T, a, out=x.T)
    return np.add.reduce(x, axis=0)


def _far_end_pivots(diag, offdiag):
    """The pivots p of the symmetric tridiagonal block B = U D U^T factored
    from its far end, p[-1] = diag[-1] and p[i] = diag[i] - offdiag[i]^2 /
    p[i + 1]: LAPACK's dpttrf on the reversed block.  Needs two or more
    rows; raises NumericalError unless B is positive definite."""
    p, _, info = dpttrf(diag[::-1], offdiag[::-1])
    if info != 0:
        raise NumericalError(
            f"tridiagonal block not positive definite (pivot {info} of "
            f"{len(diag)} from its far end)")
    return p[::-1]


# solves per call, failed ones included; quadrupling from 16 eps max|diag|,
# a failing margin outgrows max|diag| within 25 retries
_MAX_SOLVES = 40


def _tridiag_ground_pair(diag, offdiag, x0, lam, margin, gap):
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
    Past max|diag| 2^256 it runs on T / 2^k, max|diag| just below 2^256,
    which is exact and keeps Temple's squared residual and |y|^2 in range.
    """
    top = np.abs(diag).max()
    k = max(math.frexp(top)[1] - 256, 0)
    if k:
        diag, offdiag = np.ldexp(diag, -k), np.ldexp(offdiag, -k)
        top, lam, margin, gap = np.ldexp([top, lam, margin, gap], -k)
    # dptsv factors and solves in place, in buffers made once: x and y
    # trade places every step, and work holds the temporaries
    n = len(diag)
    shifted, off, y, work = (np.empty(size) for size in (n, n - 1, n, n))
    x = np.asarray(x0, dtype=float)
    x = x / math.sqrt(np.add.reduce(np.square(x, out=work)))
    noise = np.finfo(float).eps * top
    rayleigh = _tridiag_rayleigh(diag, offdiag)
    margin = max(margin, 16.0 * noise)
    change = np.inf
    for _ in range(_MAX_SOLVES):
        sigma = lam - margin
        np.copyto(off, offdiag)
        np.copyto(y, x)
        *_, y, info = dptsv(np.subtract(diag, sigma, out=shifted), off, y,
                            overwrite_d=1, overwrite_e=1, overwrite_b=1)
        if info != 0:    # sigma is not below lambda_0
            margin *= 4.0
            continue
        norm = math.sqrt(np.add.reduce(np.square(y, out=work)))
        y /= norm
        change = np.abs(np.subtract(y, x, out=work), out=work).max()
        rho = float(rayleigh(y, work))
        if change <= 4.0 * noise / gap * np.abs(y, out=work).max():
            return math.ldexp(rho, k), y
        # T y - rho y = x / |y| - (rho - sigma) y, since (T - sigma) y = x
        x /= norm
        x -= np.multiply(y, rho - sigma, out=work)
        margin = (2.0 * float(np.add.reduce(np.square(x, out=work))) / gap
                  + 16.0 * noise)
        lam, x, y = rho, y, x
    raise AccuracyError(
        f"inverse iteration not converged in {_MAX_SOLVES} solves "
        f"(last change {change:.3e})", estimate=math.ldexp(lam, k),
        error_bound=change)


N_SCAN = 200     # log_integral_exp's scan for the maximum
N_NODES = 128    # its Gauss-Legendre nodes per panel, two panels per window
KEEP = 46.0      # its window: g >= gmax - KEEP, truncation error ~ e^-KEEP


def log_integral_exp(g, lo, hi):
    """log of int_lo^hi exp(g_k(y)) dy for each row k of a batched
    log-integrand g.

    g is called twice: with the shared scan of N_SCAN points (shape (n,))
    and with per-row nodes (shape (rows, n)); both times it returns shape
    (rows, n), one integrand per row.  For each row the scan locates the
    maximum yp and the window [y1, y2] where g >= gmax - KEEP, padded by
    one scan cell.  Two mapped Gauss-Legendre panels of N_NODES nodes,
    [y1, yp] and [yp, y2], integrate exp(g - gmax): their nodes cluster at
    the panel ends, so the split puts them at the peak, where a wide
    window's sharp side sits.  Returns an array of shape (rows,), -inf for
    every row whose maximum is not finite.
    """
    ys = np.linspace(lo, hi, N_SCAN)
    gs = g(ys)
    gmax = gs.max(axis=1)
    finite = np.isfinite(gmax)
    if not finite.any():
        return np.full(len(gs), -np.inf)
    mask = gs > (gmax - KEEP)[:, None]
    first = np.argmax(mask, axis=1)
    last = N_SCAN - 1 - np.argmax(mask[:, ::-1], axis=1)
    # pad one scan cell so the window edges sit below the cut
    step = ys[1] - ys[0]
    y1 = np.maximum(lo, ys[first] - step)
    y2 = np.minimum(hi, ys[last] + step)
    edges = np.stack([y1, ys[np.argmax(gs, axis=1)], y2], axis=1)[:, :, None]
    yy, wts = _gauss_nodes(edges[:, :2], edges[:, 1:], N_NODES)
    gg = g(yy.reshape(len(gs), -1))
    gm = gg.max(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        val = np.sum(np.exp(gg - gm[:, None]) * wts.reshape(gg.shape), axis=1)
        return np.where(finite, gm + np.log(val), -np.inf)
