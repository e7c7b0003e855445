"""The chain of stages behind one estimate, each built once.

The ground state u_h feeds the outer representation, both routes for w,
and the 2|w| that the 2-D splitting is checked against.  `Pipeline(config)`
holds the stages of a configuration and `Case(pipeline, h)` those of one h;
each is computed on first access and kept by its object.  Nothing else is
cached: a Case lives only as long as its holder keeps it, so a loop over h
drops each ground state (about 20 MB with its spline) before the next.
"""

from __future__ import annotations

from functools import cached_property

from .agmon import AgmonProfile
from .asymptotics import sharp_action
from .hopping import hopping_bessel, hopping_direct, hopping_wkb_envelope
from .spectral import ground_state
from .wkb import WkbAmplitude, calibrate_outer

__all__ = ["Pipeline", "Case"]


class Pipeline:
    """Config-level stages: Agmon profile, WKB amplitude, sharp action."""

    def __init__(self, config):
        self.config = config
        self.well = config.well
        self.L = config.L

    @cached_property
    def profile(self):
        return AgmonProfile(self.well, self.L)

    @cached_property
    def amplitude(self):
        """a0 on [0, L + a + 1], which covers every far-well radius."""
        return WkbAmplitude(self.well, self.L + self.well.a + 1.0)

    @cached_property
    def action(self):
        """ActionReport: S with S0, Sa, Shat and r0 of this profile."""
        return sharp_action(self.well, self.L)


class Case:
    """Per-h stages: ground state, outer representation, w by each route."""

    def __init__(self, pipeline, h):
        self.pipeline = pipeline
        self.config = pipeline.config
        self.h = h

    @cached_property
    def ground(self):
        return ground_state(self.config.well, self.h, L=self.config.L)

    @cached_property
    def outer(self):
        """Outer representation, checked against u_h on [a, L + 1]."""
        return calibrate_outer(self.config.well, self.ground,
                               check_upto=self.config.L + 1.0)

    @cached_property
    def w_direct(self):
        """Complex w from the oscillatory nested quadrature."""
        return hopping_direct(self.config, self.ground)

    @cached_property
    def w_bessel(self):
        return hopping_bessel(self.config, self.outer, self.ground)

    @cached_property
    def envelope(self):
        p = self.pipeline
        return hopping_wkb_envelope(p.profile, p.amplitude, self.h)
