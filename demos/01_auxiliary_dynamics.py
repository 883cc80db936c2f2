"""Auxiliary dynamics: the complex trajectory eps(t) and the drive shift.

Everything in osctomo rests on the classical solution of
eps'' + omega^2(t) eps = 0 with eps(0) = 1, eps'(0) = 1j.  This script
solves it for the three built-in profiles, monitors the one conserved
quantity (the Wronskian), and compares the weak-resonance closed form
against the integrated solution.
"""

import math

import numpy as np

from osctomo import DriveProfile, beta_shift, parametric_resonance_epsilon, solve_epsilon

# --- solve the three standard profiles -----------------------------------
profiles = {
    "constant omega = 1": DriveProfile.constant(1.0),
    "free motion": DriveProfile.free(),
    "parametric resonance k = 0.01": DriveProfile.parametric_resonance(0.01),
}

trajectories = {}
print("Wronskian drift |eps' eps* - eps'* eps - 2j| over t in [0, 20], step 1e-3")
for name, profile in profiles.items():
    traj = solve_epsilon(profile, 20.0, 1e-3)
    trajectories[name] = traj
    print(f"  {name:32s} max drift {traj.max_wronskian_drift:.2e}")

# constant frequency has the analytic solution exp(1j t)
traj = trajectories["constant omega = 1"]
err = np.max(np.abs(traj.eps - np.exp(1j * traj.t)))
print(f"\nconstant profile vs exp(1j t): max |error| = {err:.2e}")

# --- the drive shift beta -------------------------------------------------
# for f = 1 and omega = 1 the closed form is beta = -(e^{1j t} - 1)/sqrt(2):
# beta(pi) = sqrt(2), beta(2 pi) = 0
driven = DriveProfile.constant(1.0, force=lambda t: 1.0)
traj_driven = solve_epsilon(driven, 2.0 * math.pi, 1e-3)
print("\ndrive shift for f = 1:")
for t in (math.pi / 2, math.pi, 2.0 * math.pi):
    print(f"  beta({t:.4f}) = {beta_shift(traj_driven, t):+.6f}")

# --- weak-resonance closed form vs the ODE --------------------------------
traj_res = trajectories["parametric resonance k = 0.01"]
ts = np.linspace(0.0, 10.0, 201)
eps_approx, _ = parametric_resonance_epsilon(0.01, ts)
eps_ode = np.array([traj_res(t)[0] for t in ts])
print("\nweak-resonance approximation vs ODE (k = 0.01):")
print(f"  max |difference| over t <= 10: {np.max(np.abs(eps_approx - eps_ode)):.3f}")

# the growing envelope |eps|^2 = cosh(kt/2) - sinh(kt/2) sin 2t
k = 0.01
envelope = np.cosh(k * ts / 2) - np.sinh(k * ts / 2) * np.sin(2 * ts)
print(f"  max |  |eps|^2 - envelope  |: {np.max(np.abs(np.abs(eps_approx)**2 - envelope)):.2e}")
