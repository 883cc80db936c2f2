"""Closed forms that the benchmark checks osctomo's outputs against.

They are written from the formulas, with numpy only, and not taken from
the package, so a check cannot pass merely because the package agrees
with itself.  Conventions follow the package: hbar = m = 1, eps(0) = 1,
eps_dot(0) = 1j, Wronskian 2j, beta = -(1j/sqrt 2) int_0^t eps f.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from numpy.polynomial import hermite as _herm

SQRT2 = math.sqrt(2.0)


def eps_exact(kind: str, omega: float, t: float) -> tuple[complex, complex]:
    """(eps, eps_dot) for constant frequency omega, or for free motion."""
    if kind == "constant":
        c, s = math.cos(omega * t), math.sin(omega * t)
        return complex(c, s / omega), complex(-omega * s, c)
    if kind == "free":
        return complex(1.0, t), 1j
    raise ValueError(f"no closed form for profile kind {kind!r}")


def beta_exact(kind: str, omega: float, force: float, t: float) -> complex:
    """Drive shift for a constant force on the constant or free profile."""
    if kind == "constant":
        integral = complex(math.sin(omega * t) / omega, (1.0 - math.cos(omega * t)) / omega**2)
    elif kind == "free":
        integral = complex(t, 0.5 * t * t)
    else:
        raise ValueError(f"no closed form for profile kind {kind!r}")
    return -1j / SQRT2 * force * integral


def wronskian_residual(eps: complex, eps_dot: complex) -> float:
    """|eps_dot conj(eps) - conj(eps_dot) eps - 2j|, zero on exact solutions."""
    return abs(eps_dot * eps.conjugate() - eps_dot.conjugate() * eps - 2j)


def _r(eps, eps_dot, mu, nu):
    return eps_dot * np.asarray(nu, dtype=float) + eps * np.asarray(mu, dtype=float)


def mean_x(alpha, eps, eps_dot, beta, mu, nu):
    return SQRT2 * np.real((alpha - beta) * np.conj(_r(eps, eps_dot, mu, nu)))


def variance_x(eps, eps_dot, mu, nu):
    return 0.5 * np.abs(_r(eps, eps_dot, mu, nu)) ** 2


def coherent_tomogram(alpha, eps, eps_dot, beta, X, mu, nu):
    """Normal density with the coherent state's mean and variance."""
    m, v = mean_x(alpha, eps, eps_dot, beta, mu, nu), variance_x(eps, eps_dot, mu, nu)
    X = np.asarray(X, dtype=float)
    return np.exp(-((X - m) ** 2) / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)


def hermite(n: int, y):
    """Physicists' Hermite polynomial H_n(y)."""
    return _herm.hermval(y, [0.0] * n + [1.0])


def hermite_function(n: int, y):
    """Normalised H_n(y) exp(-y^2/2) / sqrt(2^n n! sqrt(pi)); fine for n <= 20."""
    norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return hermite(n, y) * np.exp(-0.5 * np.asarray(y, dtype=float) ** 2) / norm


def _fock_frame(eps, eps_dot, beta, X, mu, nu):
    r = _r(eps, eps_dot, mu, nu)
    y = (2.0 * np.real(np.conj(beta) * r) + SQRT2 * np.asarray(X, dtype=float)) / (SQRT2 * np.abs(r))
    return r, y


def fock_tomogram(n, eps, eps_dot, beta, X, mu, nu):
    r, y = _fock_frame(eps, eps_dot, beta, X, mu, nu)
    return hermite_function(n, y) ** 2 / np.abs(r)


def cross_tomogram(n, m, eps, eps_dot, beta, X, mu, nu):
    r, y = _fock_frame(eps, eps_dot, beta, X, mu, nu)
    phase = np.exp(1j * (m - n) * np.angle(r))
    return hermite_function(n, y) * hermite_function(m, y) * phase / np.abs(r)


def frame_map(eps, eps_dot, beta, X, mu, nu) -> tuple[float, float, float]:
    """Source point of the tomogram flow, in its (eps, eps_dot, beta) form."""
    r = eps_dot * nu + eps * mu
    return X + SQRT2 * (beta * r.conjugate()).real, r.real, r.imag


def green_sho(X, Z, t) -> complex:
    s = math.sin(t)
    return cmath.exp(1j * ((X * X + Z * Z) * math.cos(t) - 2.0 * X * Z) / (2.0 * s)) / cmath.sqrt(
        2.0 * math.pi * s
    )


def green_driven(X, Z, t, force) -> complex:
    """Unit oscillator with constant force: I1 = I2 = force (1 - cos t)."""
    i = force * (1.0 - math.cos(t))
    return green_sho(X, Z, t) * cmath.exp(1j * (Z * i + X * i) / math.sin(t))


def quantum_propagator(X, Xp, Z, Zp, t, force) -> complex:
    return green_driven(X, Z, t, force) * green_driven(Xp, Zp, t, force).conjugate()


def coherent_wavefunction0(alpha: complex, x):
    """Coherent state at t = 0, up to a global phase."""
    x = np.asarray(x, dtype=float)
    return math.pi**-0.25 * np.exp(-0.5 * (x - SQRT2 * alpha.real) ** 2 + 1j * SQRT2 * alpha.imag * x)


def unit_coherent_wigner(q_mean: float, p_mean: float, axis: np.ndarray) -> np.ndarray:
    """Wigner function of a vacuum-width coherent state, values[i, j] = W(q_i, p_j).

    Normalised as (2 pi)^-1 int W dq dp = 1, the package's convention.
    """
    return 2.0 * np.exp(-np.add.outer((axis - q_mean) ** 2, (axis - p_mean) ** 2))
