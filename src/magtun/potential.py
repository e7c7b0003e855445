"""The radial bump well and the symmetric double-well potential.

The single well is a compactly supported bump,

    v0(r) = -depth * exp(1 - 1/(1 - (r/a)^2))   for r < a,   0 otherwise,

which is smooth on [0, inf), strictly negative on [0, a), has its unique
minimum -depth at r = 0 and curvature v0''(0) = 2*depth/a^2.
"""

from __future__ import annotations

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
    """A well's depth or support radius a is not finite and positive, or a^4
    is not a nonzero finite double."""


class RadialWell:
    """The bump well: compactly supported, with its unique nondegenerate
    minimum -depth at the origin.

    Parameters
    ----------
    depth : float
        |v0_min|, the well depth (> 0, finite).
    a : float
        Support radius (> 0, finite); v0(r) = 0 for all r >= a.
    """

    def __init__(self, depth, a):
        if not 0 < depth < math.inf:
            raise WellValidationError(f"need finite depth > 0 (got {depth})")
        if not 0 < a < math.inf:
            raise WellValidationError(f"need finite a > 0 (got {a})")
        self.depth = float(depth)
        self.a = float(a)
        try:
            self.v0_second_deriv_at_0 = 2.0 * self.depth / self.a**2
            # quartic Taylor coefficient of v0 - v0_min (the WKB patch's)
            self._c4 = self.depth / (2.0 * self.a**4)
        except (OverflowError, ZeroDivisionError):   # a^4 leaves the doubles
            raise WellValidationError(
                f"need a with a^4 a nonzero finite double (got {a})") from None

    @classmethod
    def bump(cls, depth=1.0, a=1.0):
        return cls(depth, a)

    def v0(self, r):
        """v0(r), vectorized; exactly 0 for r >= a."""
        r = np.asarray(r, dtype=float)
        s = np.square(r / self.a)
        out = np.zeros_like(s)
        inside = s < 1.0
        expo = -s[inside] / (1.0 - s[inside])
        out[inside] = -self.depth * np.exp(np.maximum(expo, _EXP_UNDERFLOW))
        return out

    def v0_prime(self, r):
        """v0'(r) = -v0(r) 2r / (a^2 (1 - (r/a)^2)^2); exactly 0 for r >= a."""
        r = np.asarray(r, dtype=float)
        s = np.square(r / self.a)
        out = np.zeros_like(s)
        inside = s < 1.0
        ri = r[inside]
        out[inside] = -self.v0(ri) * (2.0 * ri / self.a**2) / \
            np.square(1.0 - s[inside])
        return out

    @property
    def v0_min(self):
        return -self.depth

    def scaled(self, factor):
        """A well with v0 multiplied by `factor` > 0 (same support radius)."""
        return RadialWell(self.depth * factor, self.a)

    def __repr__(self):
        return f"RadialWell(bump, depth={self.depth}, a={self.a})"


class DoubleWellConfig:
    """Two copies of a radial well centered at (-L/2, 0) and (L/2, 0)."""

    def __init__(self, well, L):
        if not 2.0 * well.a < L < math.inf:
            raise ValueError(f"need finite L > 2a (got L={L}, a={well.a})")
        self.well = well
        self.L = float(L)

    @property
    def fsw_condition(self):
        """L > 4(sqrt(depth) + a), the regime of the splitting ~ 2|w| link."""
        return self.L > 4.0 * (math.sqrt(self.well.depth) + self.well.a)

    def __repr__(self):
        return f"DoubleWellConfig({self.well!r}, L={self.L})"


def eval_V(config, x):
    """V(x) = v0(|x - z_l|) + v0(|x - z_r|) for x of shape (..., 2), the
    wells centred at z_l = (-L/2, 0) and z_r = (L/2, 0)."""
    x = np.asarray(x, dtype=float)
    rl = np.sqrt((x[..., 0] + config.L / 2.0) ** 2 + x[..., 1] ** 2)
    rr = np.sqrt((x[..., 0] - config.L / 2.0) ** 2 + x[..., 1] ** 2)
    out = config.well.v0(rl) + config.well.v0(rr)
    return float(out) if out.ndim == 0 else out
