"""magtun: numerical laboratory for tunneling in a magnetic double well.

A compactly supported radial well, duplicated at separation L under a unit
magnetic field, exhibits an exponentially small splitting between the two
lowest eigenvalues of (hD - A)^2 + V as h -> 0.  This package computes the
action constants that bound the splitting, the single-well radial spectrum
and its WKB profile, the hopping coefficient by independent routes, the
sharp decay rate of the splitting, and the splitting itself on a 2-D
gauge-covariant lattice, cross-checking every quantity that admits more
than one evaluation path.

MAGTUN_THREADS caps the BLAS and OpenMP thread pools; a thread variable
that is already set wins.
"""

import os as _os

# numpy sizes the pools when it loads its BLAS, so the cap is applied here,
# before any submodule imports numpy
_cap = _os.environ.get("MAGTUN_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)

from .potential import (DoubleWellConfig, RadialWell, WellValidationError,
                        eval_V, eval_v0, v0_curvature)
from .numerics import (AccuracyError, Minimum1D, NumericalError,
                       QuadratureSpec, bessel_i0, integrate, log_bessel_i0,
                       log_integral_exp, minimize_1d, symm_tridiag_lowest)
from .agmon import (AgmonProfile, action_S0, action_S_eps, action_Sa,
                    action_Shat, agmon_d, corridor_CL, remainder_Ra)
from .spectral import (FiberProblem, InvariantViolation, RadialEigenSolution,
                       agmon_identity_check, default_radius, ground_state,
                       harmonic_expansion_check, solve_fiber)
from .wkb import (OuterRepresentation, OuterRepresentationError, WkbAmplitude,
                  amplitude_a0, c_h_asymptotic, calibrate_outer,
                  matching_constants, wkb_error_exponent, wkb_profile_error)
from .hopping import (HoppingEstimate, epsilon_lower_bound, hopping_bessel,
                      hopping_direct, hopping_slope_check,
                      hopping_wkb_envelope)
from .asymptotics import (ActionReport, ConsistencyError, PsiSurface,
                          beta_scaling, kernel_g0_log, minimizer_closed_form,
                          nonmagnetic_action, psi_global_min, sharp_action,
                          w_chain)
from .pipeline import Case, Pipeline
from .splitting2d import (MagneticLattice, assemble, gap_row, gap_vs_hopping,
                          landau_level_2d, lowest_two)

__version__ = "0.1.0"
