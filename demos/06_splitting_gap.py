"""The true 2-D eigenvalue splitting against 2|w| and the action corridor.

At L = 8.5 the wide-separation condition holds and the splitting should
track twice the hopping magnitude.  The gauge-covariant lattice resolves
gaps down to ~1e-12 of the energy scale; below that the run reports the
row as unresolvable instead of asserting.
"""

import math

from magtun import (DoubleWellConfig, Pipeline, RadialWell, assemble,
                    gap_vs_hopping, landau_level_2d)

well = RadialWell.bump()
config = DoubleWellConfig(well, L=8.5)
print(f"fsw condition (L > 4(sqrt(depth) + a)): {config.fsw_condition}")

e2d, raw = landau_level_2d(0.5)
print(f"\nfree-operator control at h = 0.5: lattice Landau level "
      f"{e2d:.6f} (target 0.5; raw grid values {[round(v, 5) for v in raw]})")

lat = assemble(config, 1.0)
print(f"lattice at h = 1: {lat.n_nodes} nodes, "
      f"plaquette-phase deviation {lat.plaquette_phase_deviation():.1e}, "
      f"hermiticity deviation {lat.hermiticity_deviation():.1e}")

pipe = Pipeline(config)
S = pipe.action.S
print(f"\nsharp action S = {S:.5f}; predicted gap e^(-S/h):")
for h in (1.4, 1.0, 0.8, 0.5):
    print(f"  h = {h}: {math.exp(-S / h):.2e}")

report = gap_vs_hopping(pipe, [1.4, 1.2, 1.0, 0.8, 0.5])
print(f"\ncorridor for h ln(gap): [{report.corridor[0]:.3f}, "
      f"{report.corridor[1]:.3f}]")
print(" h     gap           2|w|          ratio    h ln gap   flag")
for row in report.rows:
    if row.floor_flag.startswith("unresolvable"):
        print(f"{row.h:4.1f}  {'-':12s}  {'-':12s}  {'-':7s}  {'-':8s}   "
              f"{row.floor_flag}")
    else:
        print(f"{row.h:4.1f}  {row.gap:.4e}  {row.two_w:.4e}  "
              f"{row.ratio:7.3f}  {row.h_ln_gap:8.3f}   {row.floor_flag}")
