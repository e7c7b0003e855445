"""Ground-state profile vs its WKB form and the exact outer representation.

Inside the well, u_h ~ h^(-1/2) a0(r) e^(-d(r)/h) with a0 solving the
transport equation.  Outside the support the radial equation is exactly
solvable: u_h(rho) = C_h e^(-rho^2/4h) int_0^inf e^(-rho^2 t/2h)
t^(alpha-1)(1+t)^(-alpha) dt with alpha = 1/2 - e_sw/(2h).  Fitting C_h at
rho = a makes every other point a test of the representation, and C_h
itself tracks the closed-form constant m h^(-1) e^(F/h).
"""

import math

import numpy as np

from magtun import (AgmonProfile, RadialWell, WkbAmplitude, c_h_asymptotic,
                    calibrate_outer, matching_constants, ground_state,
                    wkb_profile_error)

well = RadialWell.bump()
profile = AgmonProfile(well, L=4.0)
amp = WkbAmplitude(well, 6.0)
print(f"WKB amplitude at the origin a0(0) = {amp.a0_0:.8f} "
      f"= (1 + 2 v0''(0))^(1/4) / sqrt(2 pi)")

h = 0.05
sol = ground_state(well, h, L=4.0)
print(f"\nh = {h}: e_sw = {sol.e_sw:.8f}")
print("r      e^(d/h) u_h      h^(-1/2) a0(r)")
for r in (0.2, 0.5, 1.0):
    lhs = math.exp(float(profile.d(r)) / h + float(sol.log_u(r)))
    rhs = float(amp.a0(r)) / math.sqrt(h)
    print(f"{r:4.2f}   {lhs:12.6f}     {rhs:12.6f}")
err = wkb_profile_error(sol, amp, profile)
print(f"sup-norm mismatch on [0, 1]: {err:.4f} (decays like h^0.6)")

outer = calibrate_outer(well, sol, check_upto=5.0)
print(f"\nouter representation: alpha = {outer.alpha:.6f}, "
      f"ln C_h = {outer.log_C_h:.6f}")
print("rho    rel. mismatch of the representation")
for rho in (1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
    rel = math.exp(outer.log_u(rho) - float(sol.log_u(rho))) - 1.0
    print(f"{rho:4.1f}   {rel:+.2e}")

consts = matching_constants(amplitude=amp, d_a=profile.d_a)
print(f"\nmatching constants: t* = {consts['t_star']:.6f}, "
      f"F = {consts['F']:.6f}, m = {consts['m_matched']:.6f}")
print("h ln(C_h / C_h_asy) -> 0:")
for hh in (0.2, 0.1, 0.05):
    s = ground_state(well, hh, L=4.0)
    o = calibrate_outer(well, s, check_upto=4.0)
    gap = hh * (o.log_C_h - c_h_asymptotic(hh, consts))
    print(f"  h = {hh:<5} {gap:+.4f}")
