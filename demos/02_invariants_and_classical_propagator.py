"""Integrals of motion and the classical propagator of the tomogram.

The linear invariant I(t) = Lambda(t) Q + Delta(t) (ordering Q = (p, q))
returns the initial phase-space point when evaluated along a classical
trajectory.  The same data drives the exact affine pullback that evolves
tomograms: w(X, mu, nu, t) = w0 evaluated at the mapped frame point.
"""

import cmath
import math

import numpy as np

from osctomo import (
    ClassicalPropagator,
    DriveProfile,
    coherent_mdf,
    ladder_pair,
    linear_invariant,
)

SQRT2 = math.sqrt(2.0)

# --- the invariant really is invariant ------------------------------------
# constant omega = 1, f = 1, starting from q(0) = 1.3, p(0) = -0.7:
# q(t) = q0 cos t + p0 sin t + 1 - cos t,  p(t) = p0 cos t - q0 sin t + sin t
p0, q0 = -0.7, 1.3
print("I(t) evaluated on the classical trajectory (should stay at (p0, q0)):")
for t in (0.0, 0.9, 2.4, 5.1):
    eps = cmath.exp(1j * t)
    beta = -(eps - 1.0) / SQRT2
    inv = linear_invariant(eps, 1j * eps, beta, t)
    q = q0 * math.cos(t) + p0 * math.sin(t) + 1.0 - math.cos(t)
    p = p0 * math.cos(t) - q0 * math.sin(t) + math.sin(t)
    print(f"  t = {t:4.1f}: I = {inv.apply(p, q)}  det Lambda = {inv.det:.12f}")

# the ladder pair built from the same data has commutator exactly one:
# for linear forms cp p + cq q + c0 and [q, p] = 1j,
# [A, A+] = -1j (A.cp A+.cq - A.cq A+.cp)
a, adag = ladder_pair(cmath.exp(2.0j), 1j * cmath.exp(2.0j), 0.3 - 0.4j)
commutator = -1j * (a.cp * adag.cq - a.cq * adag.cp)
print(f"\n[A, A+] = {commutator:.12f}")

# --- the classical propagator is a frame map -------------------------------
profile = DriveProfile.constant(1.0)
prop = ClassicalPropagator.from_profile(profile, math.pi / 2.0)
print("\nquarter-period frame map (rotation): (X, mu, nu) = (0.3, 1, 0) ->",
      tuple(round(v, 12) for v in prop.frame_map(0.3, 1.0, 0.0)))

# evolving a coherent tomogram through the map lands exactly on the
# closed form at time t
alpha = 0.7 + 0.3j
t = 1.7
eps = cmath.exp(1j * t)
beta = -(eps - 1.0) / SQRT2
prop = ClassicalPropagator.from_epsilon(eps, 1j * eps, beta, t)
w0 = lambda X, mu, nu: coherent_mdf(alpha, 1.0, 1.0j, 0.0, X, mu, nu)

# one call evolves the whole surface: 13 X values by 3 frames
X = np.linspace(-3.0, 3.0, 13)[:, None]
mu, nu = np.array([(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)]).T
evolved = prop.evolve(w0, X, mu, nu)
closed = coherent_mdf(alpha, eps, 1j * eps, beta, X, mu, nu)
worst = np.max(np.abs(evolved - closed))
print(f"pushforward vs closed-form coherent tomogram at t = {t}: "
      f"max |difference| = {worst:.2e}")
