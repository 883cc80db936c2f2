"""Time-dependent integrals of motion for the driven oscillator.

Two equivalent encodings of the linear invariant I(t) are provided, each
built once from the flow (eps, eps_dot, beta); the test suite reassembles
one from the other and takes the ladder commutator, as references:

* the matrix form ``I(t) = Lambda(t) Q + Delta(t)`` with the ordering
  ``Q = (p, q)`` (rows of Lambda are the p- and q-like invariants, columns
  multiply p and q, in that order) -- this ordering is used everywhere in
  the package;
* the ladder pair ``A(t), Adag(t)`` with

      A(t) = (1j/sqrt 2) (eps p - eps_dot q) + beta,

  whose commutator [A, Adag] equals 1 whenever (eps, eps_dot) carry the
  canonical Wronskian.

The matrix entries follow from the ladder pair through

    I_p = (A - Adag) / (sqrt(2) 1j),     I_q = (A + Adag) / sqrt(2),

which fixes

    Lambda = 1/2 [[eps + eps*,        -(eps_dot + eps_dot*)],
                  [1j (eps - eps*),   -1j (eps_dot - eps_dot*)]]

    Delta  = (sqrt(2) Im beta, sqrt(2) Re beta).

At t = 0 (eps = 1, eps_dot = 1j, beta = 0) this gives I(0) = Q exactly,
and det Lambda = 1 for all t as a consequence of the Wronskian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _float
from .errors import ConsistencyError

__all__ = [
    "LinearInvariant",
    "LadderInvariant",
    "lambda_matrix",
    "delta_vector",
    "linear_invariant",
    "ladder_pair",
    "DET_TOL",
]

#: Tolerance on |det Lambda - 1|.
DET_TOL = 1e-8

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class LinearInvariant:
    """I(t) = lam @ (p, q) + delta, with lam a real 2x2 matrix."""

    lam: np.ndarray
    delta: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        t = _float("t", self.t)
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t!r}")
        lam = np.asarray(self.lam, dtype=float)
        delta = np.asarray(self.delta, dtype=float)
        if lam.shape != (2, 2) or delta.shape != (2,):
            raise ValueError("lam must be 2x2 and delta length 2")
        if not (np.isfinite(lam).all() and np.isfinite(delta).all()):
            raise ConsistencyError(f"Lambda {lam.tolist()} or Delta {delta.tolist()} is not finite")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "t", t)
        det = self.det
        if not abs(det - 1.0) <= DET_TOL:  # a det that overflows to inf or NaN fails too
            raise ConsistencyError(f"det Lambda = {det!r} deviates from 1 beyond {DET_TOL}")

    @property
    def det(self) -> float:
        """a d - b c in Python floats: a product past the double range is inf or NaN, with no warning."""
        (a, b), (c, d) = self.lam.tolist()
        return a * d - b * c

    def apply(self, p: float, q: float) -> np.ndarray:
        """Value of (I_p, I_q) on a classical phase-space point."""
        return self.lam @ np.array([_float("p", p), _float("q", q)], dtype=float) + self.delta


@dataclass(frozen=True)
class LadderInvariant:
    """Linear form cp*p + cq*q + c0 on phase space, with complex coefficients."""

    cp: complex
    cq: complex
    c0: complex


def lambda_matrix(eps: complex, eps_dot: complex) -> np.ndarray:
    """Real 2x2 matrix Lambda(t) = [[Re eps, -Re eps_dot], [-Im eps, Im eps_dot]].

    These are the entries of the complex form in the module docstring,
    whose imaginary parts vanish identically; ``0.0 - Im eps`` keeps the
    +0.0 that form gives at Im eps = 0.
    """
    eps, eps_dot = complex(_float("eps", eps)), complex(_float("eps_dot", eps_dot))
    return np.array([[eps.real, -eps_dot.real], [0.0 - eps.imag, eps_dot.imag]])


def delta_vector(beta: complex) -> np.ndarray:
    """Real shift Delta(t) = (sqrt(2) Im beta, sqrt(2) Re beta).

    The first component pairs with the p-like invariant, the second with
    the q-like one; both follow from the ladder pair via
    I_p = (A - Adag)/(sqrt(2) 1j) and I_q = (A + Adag)/sqrt(2), and make
    I(t) constant along classical trajectories of the driven oscillator.
    """
    beta = complex(_float("beta", beta))
    return np.array([_SQRT2 * beta.imag, _SQRT2 * beta.real])


def linear_invariant(eps: complex, eps_dot: complex, beta: complex, t: float = 0.0) -> LinearInvariant:
    """Assemble the LinearInvariant for given auxiliary data."""
    return LinearInvariant(lambda_matrix(eps, eps_dot), delta_vector(beta), t)


def ladder_pair(eps: complex, eps_dot: complex, beta: complex) -> tuple[LadderInvariant, LadderInvariant]:
    """The invariant ladder pair (A, Adag).

    A(0) is the usual annihilation operator a = (q + 1j p)/sqrt(2);
    A(t) is its evolution under the driven-oscillator Hamiltonian.
    """
    eps, eps_dot = complex(_float("eps", eps)), complex(_float("eps_dot", eps_dot))
    beta = complex(_float("beta", beta))
    a = LadderInvariant(1j * eps / _SQRT2, -1j * eps_dot / _SQRT2, beta)
    adag = LadderInvariant(
        -1j * eps.conjugate() / _SQRT2,
        1j * eps_dot.conjugate() / _SQRT2,
        beta.conjugate(),
    )
    return a, adag
