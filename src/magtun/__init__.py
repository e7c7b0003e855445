"""magtun: numerical laboratory for tunneling in a magnetic double well.

A compactly supported radial well, duplicated at separation L under a unit
magnetic field, exhibits an exponentially small splitting between the two
lowest eigenvalues of (hD - A)^2 + V as h -> 0.  This package computes the
action constants that bound the splitting, the single-well radial spectrum
and its WKB profile, the hopping coefficient by independent routes, the
sharp decay rate of the splitting, and the splitting itself on a 2-D
gauge-covariant lattice, cross-checking every quantity that admits more
than one evaluation path.
"""

from .potential import (DoubleWellConfig, RadialWell, WellValidationError,
                        eval_V)
from .numerics import (AccuracyError, Minimum1D, NumericalError, integrate,
                       log_bessel_i0, log_integral_exp, minimize_1d,
                       symm_tridiag_lowest)
from .agmon import (AgmonProfile, action_S0, action_S_eps, action_Sa,
                    action_Shat, corridor_CL, remainder_Ra)
from .spectral import (FiberProblem, InvariantViolation, RadialEigenSolution,
                       agmon_identity_check, default_radius, ground_state,
                       harmonic_expansion_check, solve_fiber)
from .wkb import (OuterRepresentation, OuterRepresentationError, WkbAmplitude,
                  c_h_asymptotic, calibrate_outer, matching_constants,
                  wkb_error_exponent, wkb_profile_error)
from .hopping import (epsilon_lower_bound, hopping_bessel, hopping_direct,
                      hopping_slope_check, hopping_wkb_envelope)
from .asymptotics import (ActionReport, ConsistencyError, beta_scaling,
                          minimizer_closed_form, nonmagnetic_action,
                          psi_global_min, sharp_action, w_chain)
from .pipeline import Case, Pipeline

# the 2-D lattice loads scipy.sparse, so its names load on first use: only
# a process that builds a lattice pays for it (PEP 562)
_LATTICE = ("MagneticLattice", "assemble", "gap_row", "gap_vs_hopping",
            "landau_level_2d", "lowest_two")


def __getattr__(name):
    if name in _LATTICE:
        from . import splitting2d
        return getattr(splitting2d, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
