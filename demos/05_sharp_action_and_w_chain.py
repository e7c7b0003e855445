"""The Laplace phase surface, its closed-form minimizer, and the W-chain.

The hopping integral reduces to a Laplace-type double integral over the
phase Psi(r, t); its minimum sits on the boundary r = a at a t solving an
explicit quadratic.  The sharp action S = -F + Psi(a, t_a) splits into
twice the magnetic Agmon distance plus a well-interaction term.  The chain
W1 -> W4 replaces each exact ingredient by its asymptotic form; h ln W4
approaches -S.  (The deep well keeps the eta-truncation window of the chain
inside its validity regime: t_a = 0.39 > 0.2 a.)
"""

import math

import numpy as np

from magtun import (AgmonProfile, DoubleWellConfig, PsiSurface, RadialWell,
                    WkbAmplitude, beta_scaling, calibrate_outer,
                    ground_state, minimizer_closed_form, nonmagnetic_action,
                    psi_global_min, sharp_action, w_chain)

well = RadialWell.bump(depth=4.0, a=1.0)
config = DoubleWellConfig(well, L=4.0)
profile = AgmonProfile(well, config.L)
amp = WkbAmplitude(well, 6.0)

t_a, s_plus = minimizer_closed_form(well, config.L)
surface = PsiSurface(profile)
r_g, t_g, v_g = psi_global_min(surface)
print(f"closed-form minimizer: t_a = {t_a:.8f} (s+ = {s_plus:.8f})")
print(f"grid + descent search: (r*, t*) = ({r_g:.6f}, {t_g:.6f}), "
      f"Psi = {v_g:.8f} vs Psi(a, t_a) = {float(surface.psi(1.0, t_a)):.8f}")

rep = sharp_action(well, config.L)
print(f"\nsharp action S = {rep.S:.8f}")
print(f"  = 2 x (magnetic Agmon distance {rep.D_mag:.6f}) "
      f"+ interaction {rep.interaction:.6f}")
print(f"corridor: Sa = {rep.Sa:.5f} <= S <= Shat = {rep.Shat:.5f} "
      f"< S0 = {rep.S0:.5f};  S < 2 Shat: {rep.interaction_matrix_ok()}")

print("\nW-chain (eta = 0.05): h ln W4 -> -S")
for h in (0.3, 0.14, 0.05):
    sol = ground_state(well, h, L=config.L)
    outer = calibrate_outer(well, sol, check_upto=5.0)
    res = w_chain(sol, outer, amp, profile, 0.05)
    r21, r32, r43 = res.ratios()
    print(f"  h = {h:<5} h ln W4 = {h * res.log_W4:+.4f}   ratios "
          f"W2/(W1 sqrt h) = {r21:.3f}, W3/W2 = {r32:.3f}, "
          f"W4/W3 = {r43:.3f}")
print(f"  target -S = {-rep.S:.4f}")

canon = RadialWell.bump()
print("\nweak-field scaling on the canonical well: "
      "beta S(beta^-2 v0) -> non-magnetic action")
target = nonmagnetic_action(canon, 4.0)
for beta in (0.5, 0.2, 0.05):
    print(f"  beta = {beta:<5} {beta_scaling(canon, 4.0, beta):.6f}")
print(f"  non-magnetic action = {target:.6f}")
