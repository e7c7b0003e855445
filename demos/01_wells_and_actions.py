"""Build the canonical double well and walk through its action constants.

The well is a smooth bump of depth 1 supported on r <= 1; two copies sit a
distance L = 4 apart under a unit magnetic field.  Every tunneling estimate
in this package is expressed through the Agmon distance d(r) of the
effective radial potential r^2/4 + v0(r).
"""

import numpy as np

from magtun import (AgmonProfile, DoubleWellConfig, RadialWell, action_S0,
                    action_S_eps, action_Sa, action_Shat, corridor_CL,
                    eval_V, remainder_Ra)

well = RadialWell.bump(depth=1.0, a=1.0)
config = DoubleWellConfig(well, L=4.0)
print(f"well: {well}")
print(f"separation L = {config.L}, centers {config.z_left}, {config.z_right}")
print(f"FSW regime (L > 4(sqrt(depth)+a)): {config.fsw_condition}")
print(f"V at a well center: {eval_V(config, config.z_left):+.6f}")
print(f"V at the midpoint : {eval_V(config, [0.0, 0.0]):+.6f}")

profile = AgmonProfile(well, config.L)
print(f"\nAgmon distance to the support edge d(a) = {profile.d_a:.10f}")
for r in (0.5, 1.0, 2.0, 4.0):
    print(f"  d({r}) = {float(profile.d(r)):.10f}")

s0 = action_S0(profile)
sa = action_Sa(profile)
shat = action_Shat(profile)
print(f"\nS0   = d(L)          = {s0.value:.8f}"
      f"   (variational check {s0.variational:.8f})")
print(f"Sa   = d(L-a) + d(a)  = {sa.value:.8f}"
      f"   (variational check {sa.variational:.8f})")
print(f"Shat = S(0)           = {shat.value:.8f}   at r0 = {shat.argmin:.6f}")
print(f"ordering: Sa < Shat < min(S0, Sa + La/2): "
      f"{sa.value < shat.value < min(s0.value, sa.value + 2.0)}")

print("\nS(eps) interpolates toward Shat as eps -> 0:")
for eps in (1.0, 0.5, 0.1, 0.01):
    res = action_S_eps(profile, eps)
    print(f"  eps = {eps:<5} S(eps) = {res.value:.8f}  r_eps = {res.argmin:.5f}")

ra = remainder_Ra(profile)
cl = corridor_CL(profile)
print(f"\nRa = S0 - Sa = {ra.value:.8f} "
      f"(independent integral {ra.direct:.8f}, bound {ra.bound})")
print(f"corridor constant CL = {cl.value}; the log-splitting corridor is "
      f"[-{cl.upper:.6f}, -{cl.lower:.6f}]")
