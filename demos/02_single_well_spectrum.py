"""Fiber spectra of the single-well operator and the harmonic expansion.

The rotationally symmetric operator block-diagonalizes over angular modes m.
With no well this gives the Landau levels 2n - 1; with the quadratic well
mu r^2 the lowest eigenvalue is sqrt(1 + 4 mu); with the compact bump the
ground energy expands as v0_min + h sqrt(1 + 2 v0''(0)) + O(h^(3/2)).
"""

import math

from magtun import (FiberProblem, RadialWell, ground_state,
                    harmonic_expansion_check, solve_fiber)

print("Landau levels (v0 = 0, h = 1):")
for m in (0, 1, -1, -2):
    sol = solve_fiber(FiberProblem(m=m, h=1.0, R=16.0, n=8000), tol=1e-8)
    print(f"  m = {m:+d}: lambda_1 = {sol.e_sw:.8f}")

print("\nMagnetic oscillator (v0 = mu r^2, h = 1):")
for mu in (0.5, 1.0, 2.0):
    sol = solve_fiber(FiberProblem(m=0, h=1.0, R=12.0, n=9000,
                                   v0=lambda r, mu=mu: mu * r * r),
                      tol=1e-8)
    print(f"  mu = {mu}: lambda_1 = {sol.e_sw:.8f} "
          f"(exact sqrt(1+4mu) = {math.sqrt(1 + 4 * mu):.8f})")

well = RadialWell.bump()
hs = (0.2, 0.14, 0.1, 0.07, 0.05)
sols = [ground_state(well, h) for h in hs]
print("\nCanonical well, ground energy vs harmonic prediction:")
for h, sol in zip(hs, sols):
    pred = -1.0 + h * math.sqrt(5.0)
    print(f"  h = {h:<5} e_sw = {sol.e_sw:+.8f}  "
          f"v0_min + h sqrt(5) = {pred:+.8f}  residual {sol.e_sw - pred:+.2e}")
    print(f"          fiber scan {{m: e}}: "
          f"{ {m: round(e, 5) for m, e in sorted(sol.fiber_energies.items())} }")

rep = harmonic_expansion_check(well, hs, [s.e_sw for s in sols],
                               [s.energy_error for s in sols])
print(f"\nfitted residual exponent p = {rep.exponent:.3f} "
      f"(the expansion error is O(h^3/2); desk-scale fits land in [1.4, 2.1])")
