"""Propagators: the classical (tomogram) propagator and quantum Green functions.

For quadratic Hamiltonians the Green's function of the tomogram evolution
equation

    dw/dt - mu dw/dnu + omega^2(t) nu dw/dmu + f(t) nu dw/dX = 0

is a delta kernel: evolution is an affine characteristic flow on
(X, mu, nu), implemented here exactly as a pullback map (never as a
mollified delta).  With N = (nu, mu) and the invariant data
(Lambda, Delta) of :mod:`osctomo.invariants`,

    N'  = N Lambda^{-1},
    X'  = X + N Lambda^{-1} Delta,
    w(X, mu, nu, t) = w0(X', mu', nu').

The same map has an explicit form in terms of (eps, eps_dot, beta):

    mu' = Re r,  nu' = Im r,  X' = X + sqrt(2) Re(beta conj(r)),
    r = eps_dot nu + eps mu;

both representations are evaluated and must agree.

Quantum propagators (constant unit frequency only, where
eps = exp(1j t)): the wavefunction Green function with the global phase
convention F(t) = 0 is

    G(X, Z, t) = (2 pi sin t)^{-1/2}
                 exp{ 1j [ (X^2+Z^2) cos t - 2 X Z ] / (2 sin t) }
                 exp{ 1j [ Z I1(t) + X I2(t) ] / sin t },

    I1 = integral_0^t f(s) sin(t - s) ds,  I2 = integral_0^t f(s) sin s ds,

and the density-matrix propagator K = G(X,Z) conj(G(X',Z')) is
independent of the phase convention.  Focal points (sin t = 0) raise
CausticError rather than returning NaNs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import DriveProfile, _on_grid, _simpson, flow_at
from .errors import CausticError, ConsistencyError
from .invariants import LinearInvariant, linear_invariant

__all__ = [
    "ClassicalPropagator",
    "fokker_planck_residual",
    "green_sho",
    "green_free",
    "green_driven",
    "quantum_propagator",
    "quantum_propagator_from_shift",
    "CAUSTIC_TOL",
]

#: |sin t| below this is treated as a focal point.
CAUSTIC_TOL = 1e-9

_SQRT2 = math.sqrt(2.0)
_MAP_TOL = 1e-10


@dataclass(frozen=True)
class ClassicalPropagator:
    """Affine pullback map on (X, mu, nu) representing the delta kernel.

    Holds both the invariant data and the raw (eps, eps_dot, beta) so the
    two representations of the map can be checked against each other on
    every evaluation.
    """

    eps: complex
    eps_dot: complex
    beta: complex
    t: float
    inv: LinearInvariant

    @classmethod
    def from_epsilon(cls, eps: complex, eps_dot: complex, beta: complex, t: float = 0.0):
        return cls(
            complex(eps), complex(eps_dot), complex(beta), float(t),
            linear_invariant(eps, eps_dot, beta, t),
        )

    @classmethod
    def from_profile(cls, profile: DriveProfile, t: float, step: float = 1e-3):
        """Solve the auxiliary dynamics up to t and build the propagator."""
        return cls.from_epsilon(*flow_at(profile, t, step), t)

    def frame_map(self, X: float, mu: float, nu: float) -> tuple[float, float, float]:
        """The unique source point (X', mu', nu') the delta kernel fires at.

        Computed from N' = N Lambda^{-1}, X' = X + N Lambda^{-1} Delta and
        verified against the explicit eps-form; disagreement beyond 1e-10
        raises ConsistencyError.
        """
        if mu == 0.0 and nu == 0.0:
            raise ValueError("frame (mu, nu) = (0, 0) is not a valid tomographic frame")
        lam, delta = self.inv.lam, self.inv.delta
        lam_inv = np.array([[lam[1, 1], -lam[0, 1]], [-lam[1, 0], lam[0, 0]]]) / self.inv.det
        n_prime = np.array([nu, mu]) @ lam_inv
        nu_p, mu_p = float(n_prime[0]), float(n_prime[1])
        x_p = float(X + n_prime @ delta)

        r = self.eps_dot * nu + self.eps * mu
        mu_e, nu_e = r.real, r.imag
        x_e = X + _SQRT2 * (self.beta * r.conjugate()).real
        scale = max(1.0, abs(X), abs(mu), abs(nu))
        if max(abs(x_p - x_e), abs(mu_p - mu_e), abs(nu_p - nu_e)) > _MAP_TOL * scale:
            raise ConsistencyError(
                "Lambda^-1 form and eps form of the frame map disagree: "
                f"({x_p}, {mu_p}, {nu_p}) vs ({x_e}, {mu_e}, {nu_e})"
            )
        return x_p, mu_p, nu_p

    def evolve(
        self, w0: Callable[[float, float, float], float], X: float, mu: float, nu: float
    ) -> float:
        """Evolved tomogram value w(X, mu, nu, t) = w0(frame_map(X, mu, nu)).

        The delta kernel integrates out exactly; no quadrature is involved.
        """
        return w0(*self.frame_map(X, mu, nu))


def fokker_planck_residual(
    w: Callable[[float, float, float, float], float],
    profile: DriveProfile,
    point: tuple[float, float, float, float],
    h: float,
) -> float:
    """Central-difference residual of the tomogram evolution equation.

    Evaluates  dw/dt - mu dw/dnu + omega^2(t) nu dw/dmu + f(t) nu dw/dX
    at ``point = (X, mu, nu, t)`` with step h in every direction.  For an
    exact solution the residual is O(h^2).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    X, mu, nu, t = point
    d_t = (w(X, mu, nu, t + h) - w(X, mu, nu, t - h)) / (2.0 * h)
    d_nu = (w(X, mu, nu + h, t) - w(X, mu, nu - h, t)) / (2.0 * h)
    d_mu = (w(X, mu + h, nu, t) - w(X, mu - h, nu, t)) / (2.0 * h)
    d_X = (w(X + h, mu, nu, t) - w(X - h, mu, nu, t)) / (2.0 * h)
    return d_t - mu * d_nu + profile.omega_sq(t) * nu * d_mu + profile.force(t) * nu * d_X


def _caustic_guard(s: float, label: str) -> None:
    if abs(s) < CAUSTIC_TOL:
        raise CausticError(f"{label} is singular at a focal point (|sin t| < {CAUSTIC_TOL})")


def green_sho(X: float, Z: float, t: float, phase: float = 0.0) -> complex:
    """Green function of the unit-frequency oscillator, F(t) = phase convention.

    |G| = (2 pi |sin t|)^{-1/2} for all X, Z.
    """
    s = math.sin(t)
    _caustic_guard(s, "oscillator Green function")
    amp = 1.0 / cmath.sqrt(2.0 * math.pi * s)
    expo = ((X * X + Z * Z) * math.cos(t) - 2.0 * X * Z) / (2.0 * s)
    return amp * cmath.exp(1j * (expo + phase))


def green_free(X: float, Z: float, t: float, phase: float = 0.0) -> complex:
    """Free-particle Green function (2 pi t)^{-1/2} exp{1j (X-Z)^2 / (2t)}.

    The small-t limit of :func:`green_sho` (sin t -> t, cos t -> 1).
    """
    if abs(t) < CAUSTIC_TOL:
        raise CausticError("free Green function is singular at t = 0")
    amp = 1.0 / cmath.sqrt(2.0 * math.pi * t)
    return amp * cmath.exp(1j * ((X - Z) ** 2 / (2.0 * t) + phase))


def _require_unit_constant(profile: DriveProfile) -> None:
    if profile.kind != "constant" or abs((profile.parameter or 0.0) ** 2 - 1.0) > 1e-12:
        raise ValueError(
            "driven closed forms assume the constant unit-frequency profile "
            "(eps = exp(1j t)); got kind "
            f"{profile.kind!r} with parameter {profile.parameter!r}"
        )


def _force_integrals(profile: DriveProfile, t: float, quad_step: float) -> tuple[float, float]:
    """Simpson values of I1 = int f(s) sin(t-s) ds and I2 = int f(s) sin s ds."""
    n = max(2, 2 * max(1, round(abs(t) / (2.0 * quad_step))))
    s = np.linspace(0.0, t, n + 1)
    f = _on_grid(profile.force, s)
    h = t / n
    return float(_simpson(f * np.sin(t - s), h)), float(_simpson(f * np.sin(s), h))


def _driven_green(profile: DriveProfile, t: float, quad_step: float, label: str):
    """G(X, Z, phase) of the driven unit-frequency oscillator at fixed t.

    Guards the profile and the focal point and evaluates the force
    integrals once; the returned kernel is green_sho times
    exp{1j (Z I1 + X I2)/sin t}.
    """
    _require_unit_constant(profile)
    s = math.sin(t)
    _caustic_guard(s, label)
    i1, i2 = _force_integrals(profile, t, quad_step)

    def green(X: float, Z: float, phase: float) -> complex:
        return green_sho(X, Z, t, phase) * cmath.exp(1j * (Z * i1 + X * i2) / s)

    return green


def green_driven(
    X: float,
    Z: float,
    t: float,
    profile: DriveProfile,
    phase: float = 0.0,
    quad_step: float = 1e-3,
) -> complex:
    """Green function of the driven unit-frequency oscillator.

    Equals :func:`green_sho` times exp{1j (Z I1 + X I2)/sin t} with the
    force integrals evaluated by composite Simpson at step ``quad_step``.
    The modulus is force-independent.
    """
    return _driven_green(profile, t, quad_step, "driven Green function")(X, Z, phase)


def quantum_propagator(
    X: float,
    Xp: float,
    Z: float,
    Zp: float,
    t: float,
    profile: DriveProfile,
    phase: float = 0.0,
    quad_step: float = 1e-3,
) -> complex:
    """Density-matrix propagator K = G(X, Z, t) conj(G(Xp, Zp, t)).

    Independent of the free phase convention: ``phase`` enters G and
    conj(G) with opposite signs and cancels exactly.
    """
    green = _driven_green(profile, t, quad_step, "quantum propagator")
    return green(X, Z, phase) * green(Xp, Zp, phase).conjugate()


def quantum_propagator_from_shift(
    X: float, Xp: float, Z: float, Zp: float, t: float, beta: complex
) -> complex:
    """Driven propagator with the force folded into the shift beta.

    Independent route to :func:`quantum_propagator`: the force enters only
    through beta(t) = -(1j/sqrt 2) integral eps f, via the factor

        exp{ -(1j/sqrt 2) [ beta e^{-1j t} (-1j D + E)
                          + conj(beta) e^{1j t} (1j D + E) ] },

    D = X - Xp,  E = (Z - Zp - D cos t) / sin t,

    multiplying the force-free oscillator propagator.
    """
    s = math.sin(t)
    _caustic_guard(s, "quantum propagator")
    beta = complex(beta)
    d = X - Xp
    e = (Z - Zp) / s - d * math.cos(t) / s
    shift = (-1j / _SQRT2) * (
        beta * cmath.exp(-1j * t) * (-1j * d + e)
        + beta.conjugate() * cmath.exp(1j * t) * (1j * d + e)
    )
    k_sho = green_sho(X, Z, t) * green_sho(Xp, Zp, t).conjugate()
    return k_sho * cmath.exp(shift)
