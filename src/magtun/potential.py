"""Radial single wells and the symmetric double-well potential.

The built-in family is a compactly supported bump,

    v0(r) = -depth * exp(1 - 1/(1 - (r/a)^2))   for r < a,   0 otherwise,

which is smooth on [0, inf), strictly negative on [0, a), has its unique
minimum -depth at r = 0 and curvature v0''(0) = 2*depth/a^2.  User-supplied
radial profiles are accepted but validated against the same structural
hypotheses (compact support, unique nondegenerate minimum at the origin,
positive curvature).
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "RadialWell",
    "DoubleWellConfig",
    "eval_V",
    "WellValidationError",
]

# exp(x) underflows to 0 below this; the bump is exactly 0 there anyway
_EXP_UNDERFLOW = -700.0


class WellValidationError(ValueError):
    """A proposed radial profile violates the structural hypotheses."""


def _entry(d, key, what):
    """d[key] of the parsed JSON object d, or a ValueError naming key."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} is not a JSON object: {d!r}")
    if key not in d:
        raise ValueError(f"{what} has no key {key!r}")
    return d[key]


def _number(value, key):
    """A JSON number (not a bool) as a float, or a ValueError naming key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} is not a number: {value!r}")
    return float(value)


def _bump_v0(r, depth, a):
    r = np.asarray(r, dtype=float)
    s = np.square(r / a)
    out = np.zeros_like(s)
    inside = s < 1.0
    expo = -s[inside] / (1.0 - s[inside])
    out[inside] = -depth * np.exp(np.maximum(expo, _EXP_UNDERFLOW))
    return out


def _bump_v0_prime(r, depth, a):
    r = np.asarray(r, dtype=float)
    s = np.square(r / a)
    out = np.zeros_like(s)
    inside = s < 1.0
    si = s[inside]
    expo = -si / (1.0 - si)
    good = expo > _EXP_UNDERFLOW
    val = np.zeros_like(si)
    val[good] = (
        depth
        * np.exp(expo[good])
        * (2.0 * r[inside][good] / a**2)
        / np.square(1.0 - si[good])
    )
    out[inside] = val
    return out


class RadialWell:
    """A compactly supported radial well with a unique nondegenerate minimum.

    Parameters
    ----------
    depth : float
        |v0_min|, the well depth (> 0, finite).
    a : float
        Support radius (> 0, finite); v0(r) = 0 for all r >= a.
    v0_fn, v0_prime_fn : callable, optional
        Vectorized v0(r) and v0'(r) of a "custom" profile; without v0_fn
        the well is the built-in "bump".
    """

    def __init__(self, depth, a, v0_fn=None, v0_prime_fn=None):
        if not 0 < depth < math.inf:
            raise WellValidationError(f"need finite depth > 0 (got {depth})")
        if not 0 < a < math.inf:
            raise WellValidationError(f"need finite a > 0 (got {a})")
        self.depth = float(depth)
        self.a = float(a)
        self.profile = "bump" if v0_fn is None else "custom"
        if v0_fn is None:
            self._v0 = lambda r: _bump_v0(r, self.depth, self.a)
            self._v0_prime = lambda r: _bump_v0_prime(r, self.depth, self.a)
            self.v0_second_deriv_at_0 = 2.0 * self.depth / self.a**2
            # quartic Taylor coefficient of v0 - v0_min (used by the WKB patch)
            self._c4 = self.depth / (2.0 * self.a**4)
        else:
            self._v0 = v0_fn
            self._v0_prime = v0_prime_fn
            self.v0_second_deriv_at_0 = self._fd_curvature(v0_fn)
            self._c4 = self._fd_quartic(v0_fn)
            self._validate_custom()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def bump(cls, depth=1.0, a=1.0):
        return cls(depth, a)

    @classmethod
    def from_callable(cls, v0_fn, a, depth, v0_prime_fn=None):
        """Wrap a user-supplied radial profile, validating the hypotheses."""
        return cls(depth, a, v0_fn=v0_fn, v0_prime_fn=v0_prime_fn)

    def _fd_curvature(self, fn, step=1e-4):
        s = step * self.a
        return float(2.0 * (fn(np.array([s]))[0] - fn(np.array([0.0]))[0]) / s**2)

    def _fd_quartic(self, fn, step=5e-2):
        # quartic Taylor coefficient at 0 of an even profile:
        # f(2s) - 4 f(s) + 3 f(0) = 12 c4 s^4 + O(s^6)
        s = step * self.a
        f = [float(np.asarray(fn(np.array([k * s])))[0]) for k in range(3)]
        return (f[2] - 4.0 * f[1] + 3.0 * f[0]) / (12.0 * s**4)

    def _validate_custom(self):
        rs = np.linspace(0.0, 2.0 * self.a, 4001)
        vals = self.v0(rs)
        if abs(vals[0] + self.depth) > 1e-10 * self.depth:
            raise WellValidationError("v0(0) must equal -depth")
        outside = rs >= self.a
        if np.any(np.abs(vals[outside]) > 1e-12 * self.depth):
            raise WellValidationError("v0 must vanish for r >= a")
        interior = (rs > 0) & (rs < self.a)
        if np.any(vals[interior] <= -self.depth + 1e-12 * self.depth):
            raise WellValidationError("minimum must be attained only at r = 0")
        if self.v0_second_deriv_at_0 <= 0:
            raise WellValidationError("v0''(0) must be positive")
        if self._v0_prime is None:
            # fall back to a finite-difference derivative
            fn = self._v0
            h = 1e-6 * self.a

            def fd_prime(r, fn=fn, h=h):
                r = np.asarray(r, dtype=float)
                return (fn(r + h) - fn(np.maximum(r - h, 0.0))) / (
                    r + h - np.maximum(r - h, 0.0)
                )

            self._v0_prime = fd_prime

    # -- evaluation ------------------------------------------------------------

    def v0(self, r):
        """v0(r), vectorized; exactly 0 for r >= a."""
        return self._v0(r)

    def v0_prime(self, r):
        return self._v0_prime(r)

    @property
    def v0_min(self):
        return -self.depth

    def scaled(self, factor):
        """A well with v0 multiplied by `factor` > 0 (same support radius)."""
        if self.profile == "bump":
            return RadialWell.bump(depth=self.depth * factor, a=self.a)
        base = self._v0
        base_p = self._v0_prime
        return RadialWell.from_callable(
            lambda r: factor * base(r),
            self.a,
            self.depth * factor,
            v0_prime_fn=(lambda r: factor * base_p(r)) if base_p else None,
        )

    # -- serialization ----------------------------------------------------------

    def to_dict(self):
        if self.profile != "bump":
            raise ValueError("only the bump family is serializable")
        return {"profile": "bump", "depth": self.depth, "a": self.a}

    @classmethod
    def from_dict(cls, d):
        depth, a = _entry(d, "depth", "well"), _entry(d, "a", "well")
        if d.get("profile", "bump") != "bump":
            raise ValueError("only the bump family can be parsed")
        return cls.bump(depth=_number(depth, "depth"), a=_number(a, "a"))

    def __repr__(self):
        return f"RadialWell({self.profile}, depth={self.depth}, a={self.a})"


class DoubleWellConfig:
    """Two copies of a radial well centered at (-L/2, 0) and (L/2, 0)."""

    def __init__(self, well, L):
        if not 2.0 * well.a < L < math.inf:
            raise ValueError(f"need finite L > 2a (got L={L}, a={well.a})")
        self.well = well
        self.L = float(L)

    @property
    def z_left(self):
        return np.array([-self.L / 2.0, 0.0])

    @property
    def z_right(self):
        return np.array([self.L / 2.0, 0.0])

    @property
    def fsw_condition(self):
        """L > 4(sqrt(depth) + a), the regime of the splitting ~ 2|w| link."""
        return self.L > 4.0 * (math.sqrt(self.well.depth) + self.well.a)

    def to_dict(self):
        return {"well": self.well.to_dict(), "L": self.L}

    @classmethod
    def from_dict(cls, d):
        """From {"well": {...}, "L": ...}; L defaults to 4.0."""
        well = RadialWell.from_dict(_entry(d, "well", "config"))
        return cls(well, _number(d.get("L", 4.0), "L"))

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def to_json(self):
        return json.dumps(self.to_dict())

    def __repr__(self):
        return f"DoubleWellConfig({self.well!r}, L={self.L})"


def eval_V(config, x):
    """V(x) = v0(|x - z_left|) + v0(|x - z_right|) for x of shape (..., 2)."""
    x = np.asarray(x, dtype=float)
    rl = np.sqrt((x[..., 0] + config.L / 2.0) ** 2 + x[..., 1] ** 2)
    rr = np.sqrt((x[..., 0] - config.L / 2.0) ** 2 + x[..., 1] ** 2)
    out = config.well.v0(rl) + config.well.v0(rr)
    return float(out) if out.ndim == 0 else out
