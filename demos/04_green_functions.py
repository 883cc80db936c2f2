"""Quantum Green functions of the driven oscillator and their limits.

The driven kernel reduces to the oscillator kernel when the force is
switched off, the oscillator kernel tends to the free one at small times,
the density-matrix propagator K = G conj(G) is blind to the free
time-dependent phase left open by the wavefunction kernel, and the kernel
of a parametric profile carries a coherent state to its closed form.
"""

import cmath
import math

import numpy as np

from osctomo import (
    ClassicalPropagator,
    DriveProfile,
    coherent_wavefunction,
    green_driven,
    green_free,
    green_sho,
    quantum_propagator,
    solve_epsilon,
    beta_shift,
)

# moduli are point-independent: |G| = (2 pi |sin t|)^(-1/2)
print("free-kernel modulus at t = 1:", abs(green_free(0.3, 0.7, 1.0)),
      "vs (2 pi)^(-1/2) =", (2 * math.pi) ** -0.5)

# small-time limit: sin t -> t, cos t -> 1
t = 1e-2
g_s, g_f = green_sho(0.3, 0.4, t), green_free(0.3, 0.4, t)
print(f"oscillator vs free kernel at t = {t}: relative difference "
      f"{abs(g_s - g_f) / abs(g_f):.2e}")

# driven kernel with the force switched off is the oscillator kernel as the
# seed wrote it out, (2 pi sin t)^(-1/2) exp{i((X^2 + Z^2) cos t - 2XZ)/(2 sin t)},
# which shares no code with the kernel of the flow
quiet = DriveProfile.constant(1.0)
x, z, t = 0.4, -0.7, 1.1
seed = cmath.exp(1j * ((x * x + z * z) * math.cos(t) - 2.0 * x * z) / (2.0 * math.sin(t))) / cmath.sqrt(
    2.0 * math.pi * math.sin(t))
print("driven(f=0) vs seed kernel:", abs(green_driven(x, z, t, quiet) - seed))

# two routes to the driven density-matrix propagator: the Green kernel of
# the flow with beta from its own force integrals, or the trajectory's
# beta(t) folded into the force-free propagator, where the force enters
# only through the factor
#   exp{-(i/sqrt 2) [beta e^{-it} (-i D + E) + conj(beta) e^{it} (i D + E)]},
#   D = X - Xp,  E = (Z - Zp - D cos t) / sin t
profile = DriveProfile.constant(1.0, force=lambda s: math.cos(0.7 * s) + 0.4)
t = 1.3
traj = solve_epsilon(profile, t, 1e-3)
beta = beta_shift(traj, t)
X, Xp, Z, Zp = 0.4, -0.2, 0.1, 0.9
k_direct = quantum_propagator(X, Xp, Z, Zp, t, profile)
d = X - Xp
e = (Z - Zp) / math.sin(t) - d * math.cos(t) / math.sin(t)
shift = (-1j / math.sqrt(2.0)) * (
    beta * cmath.exp(-1j * t) * (-1j * d + e) + beta.conjugate() * cmath.exp(1j * t) * (1j * d + e)
)
k_shift = green_sho(X, Z, t) * green_sho(Xp, Zp, t).conjugate() * cmath.exp(shift)
print(f"force-integral route : {k_direct:.12f}")
print(f"beta-shift route     : {k_shift:.12f}")
print(f"difference           : {abs(k_direct - k_shift):.2e}")

# the free phase convention cancels in K
k_0 = quantum_propagator(0.4, -0.2, 0.1, 0.9, t, profile, phase=0.0)
k_f = quantum_propagator(0.4, -0.2, 0.1, 0.9, t, profile, phase=0.37 * t)
print(f"phase blindness      : |K(F=0) - K(F=0.37 t)| = {abs(k_0 - k_f):.2e}")

# route B: the kernel of any profile's flow carries a state. A coherent
# state through the resonance profile's kernel, psi(X, t) = integral
# G(X, Z, t) psi(Z, 0) dZ on a trapezoid of 241 nodes over [-9, 9], is the
# coherent state of the flow up to one global phase; one flow serves every
# kernel entry and the closed form
resonance = DriveProfile.parametric_resonance(0.3, force=lambda s: np.sin(2.0 * s) + 0.2)
t, alpha = 2.2, 0.7 - 0.4j
Z = np.linspace(-9.0, 9.0, 241)
weights = np.full(Z.shape, Z[1] - Z[0])
weights[[0, -1]] /= 2.0
psi0 = coherent_wavefunction(alpha, 1.0, 1j, 0.0, Z) * weights
X = np.array([-1.0, 0.3, 1.2])
prop = ClassicalPropagator.from_profile(resonance, t)
psi = prop.kernel(X[:, None], Z) @ psi0
exact = coherent_wavefunction(alpha, prop.eps, prop.eps_dot, prop.beta, X)
phase = np.vdot(exact, psi) / np.vdot(exact, exact)
print(f"route B on the resonance profile at t = {t}: "
      f"max |psi - e^(i phi) psi_closed| = {np.max(np.abs(psi - phase * exact)):.2e}")
