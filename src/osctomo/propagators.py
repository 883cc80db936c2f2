"""Propagators: the classical flow and its views.

A ClassicalPropagator is one flow of the forced parametric oscillator, the
auxiliary solution and drive shift (eps, eps_dot, beta) at t, together with
its invariant data (Lambda, Delta) of :mod:`osctomo.invariants`.  Building
it builds the LinearInvariant, which gates det Lambda once, at DET_TOL =
1e-8, for every view of the flow.  The views:

* frame_map and evolve, the classical (tomogram) propagator.  For
  quadratic Hamiltonians the Green's function of the tomogram evolution
  equation

      dw/dt - mu dw/dnu + omega^2(t) nu dw/dmu + f(t) nu dw/dX = 0

  is a delta kernel: evolution is an affine characteristic flow on
  (X, mu, nu), implemented exactly as a pullback map, never as a
  mollified delta.  With N = (nu, mu),

      N' = N Lambda^{-1},   X' = X + N' Delta,   w(X, mu, nu, t) = w0(X', mu', nu').

  The same map has an explicit form in (eps, eps_dot, beta),

      mu' = Re r,  nu' = Im r,  X' = X + sqrt(2) Re(beta conj(r)),
      r = eps_dot nu + eps mu,

  and the two forms are compared once per propagator.
* kernel, the quantum Green function of the Schroedinger equation: the
  Van Vleck kernel of the same flow (Malkin, Man'ko & Trifonov 1970: the
  Green function of any quadratic Hamiltonian is this kernel of its flow).

Each view takes floats or arrays of any shapes that broadcast, and floats
give floats.  green_sho, green_free, green_driven and quantum_propagator
read the kernel of ``ClassicalPropagator.from_profile(profile, t)``, one
propagator per call, so they take the flow and the rule of
:func:`osctomo.dynamics.flow_at`; that kernel is the one route to every
Green function, unit frequency included.  The density-matrix propagator
K = G(X,Z) conj(G(X',Z')) is independent of the phase convention.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .dynamics import DriveProfile, _float, _raise_first, flow_at
from .errors import CausticError, ConsistencyError, EvaluationError
from .invariants import LinearInvariant, linear_invariant
from .states import _check_point, _finite

__all__ = [
    "ClassicalPropagator",
    "fokker_planck_residual",
    "green_sho",
    "green_free",
    "green_driven",
    "quantum_propagator",
    "CAUSTIC_TOL",
]

#: |Im eps| (|sin t| for the oscillator) below this is treated as a focal point.
CAUSTIC_TOL = 1e-9

_SQRT2 = math.sqrt(2.0)
_MAP_TOL = 1e-10
_PHASE_TOL = 1e-6  # the largest rounding error, in rad, that a Green kernel's phase may carry
_UNIT, _FREE = DriveProfile.constant(1.0), DriveProfile.free()  # the unforced kernels' profiles


@dataclass(frozen=True)
class ClassicalPropagator:
    """One flow (eps, eps_dot, beta) at t, with its invariant inv, and the
    views of it: the affine pullback map on (X, mu, nu) that represents the
    delta kernel (frame_map, evolve) and the quantum Green function
    (kernel).

    Holds both the invariant data and the raw flow, so the two
    representations of the map can be checked against each other, once per
    propagator.  Each view forms what it needs of the flow once, on its
    first call, so one propagator serves any number of points.
    """

    eps: complex
    eps_dot: complex
    beta: complex
    t: float
    inv: LinearInvariant

    @classmethod
    def from_epsilon(cls, eps: complex, eps_dot: complex, beta: complex, t: float = 0.0):
        # the invariant reads every argument by the number rule first
        inv = linear_invariant(eps, eps_dot, beta, t)
        return cls(complex(eps), complex(eps_dot), complex(beta), float(inv.t), inv)

    @classmethod
    def from_profile(cls, profile: DriveProfile, t: float, step: float | None = None):
        """Solve the auxiliary dynamics up to t (see :func:`flow_at`) and build the propagator."""
        return cls.from_epsilon(*flow_at(profile, t, step), t)

    @cached_property
    def _map(self) -> np.ndarray:
        """The 2x3 matrix that takes the row (nu, mu) to (X' - X, nu', mu'),
        [Lambda^{-1} Delta | Lambda^{-1}] with Lambda^{-1} the adjugate over
        det Lambda, formed and checked once per propagator in floats, but
        for two numpy calls: the product Lambda^{-1} Delta, which BLAS may
        round with fused multiply-adds, and the division by D below, which
        gives a D of 0 the inf or NaN entries that Python's division refuses.

        Both forms of the map take the rows (nu, mu) to (X' - X, nu', mu'):
        the Lambda form is this matrix, the eps form
        has rows [sqrt(2) Re(beta conj c), Im c, Re c] / D for c = eps_dot,
        eps, and D = Im(conj(eps) eps_dot), det Lambda computed from eps.
        So they agree to roundoff whatever det Lambda is, which
        LinearInvariant gates; entries off by more than 1e-10 max(1, the
        largest |entry| of the Lambda form), or a NaN one, as from a D of 0,
        raise ConsistencyError.  Raising, the property caches nothing.
        """
        (l00, l01), (l10, l11) = self.inv.lam.tolist()
        det = self.inv.det
        lam_inv = [[l11 / det, -l01 / det], [-l10 / det, l00 / det]]
        eps, eps_dot, beta = self.eps, self.eps_dot, self.beta
        rows = [[_SQRT2 * (beta * c.conjugate()).real, c.imag, c.real] for c in (eps_dot, eps)]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # an inf or NaN entry disagrees below
            shift = (np.array(lam_inv) @ self.inv.delta).tolist()
            eps_form = (np.array(rows) / (eps.conjugate() * eps_dot).imag).tolist()
        lam_form = [[shift[0], *lam_inv[0]], [shift[1], *lam_inv[1]]]
        lam_flat, eps_flat = lam_form[0] + lam_form[1], eps_form[0] + eps_form[1]
        bound = _MAP_TOL * max(1.0, *map(abs, lam_flat))
        if not all(abs(x - y) <= bound for x, y in zip(lam_flat, eps_flat)):  # a NaN fails too
            raise ConsistencyError(
                f"Lambda^-1 form and eps form of the frame map disagree: {lam_form} vs {eps_form}"
            )
        return np.array(lam_form)

    def frame_map(self, X, mu, nu):
        """The unique source point (X', mu', nu') the delta kernel fires at.

        X, mu and nu are floats or numpy arrays that broadcast together, a
        list or tuple reading as the float array it holds.
        Scalars (0-d arrays too) give a tuple of three floats; otherwise
        X', mu' and nu' are arrays of the broadcast shape.  The points are
        mapped as (X' - X, N') = N [Lambda^{-1} Delta | Lambda^{-1}], with
        N = (nu, mu), each bit for bit as on its own.  The two forms of the
        map are compared once per propagator, as matrices, where that one
        is formed; a propagator whose forms disagree raises ConsistencyError
        at every call.  A point whose image leaves the double range raises
        ConsistencyError naming it, with no RuntimeWarning.  A non-finite
        X, mu or nu, or a zero frame (the rule of the CLI and the
        transforms, states._check_point), at any point raises ValueError,
        as the scalar call there does.
        """
        # a point whose image leaves the double range gets inf or NaN,
        # and fails the check below instead of warning
        with np.errstate(over="ignore", invalid="ignore"):
            X, mu, nu = _check_point(X, mu, nu)
            pts = np.empty(np.broadcast(X, nu, mu).shape + (3,))  # rows (X, nu, mu)
            pts[..., 0], pts[..., 1], pts[..., 2] = X, nu, mu
            out = np.empty_like(pts)  # rows (X', nu', mu')
            # X' - X = N (Lambda^{-1} Delta), the checked matrix's first column,
            # rounds about half as much as (N Lambda^{-1}) Delta, whose terms
            # cancel at the size of the map squared
            np.matmul(pts[..., 1:], self._map, out=out)
            out[..., 0] += pts[..., 0]
        finite = np.isfinite(out)
        if np.count_nonzero(finite) != finite.size:
            _raise_first(ConsistencyError, "frame map image of (X, mu, nu) = ({}, {}, {}) is not finite, "
                         "so the two forms of the map disagree there", ~finite.all(axis=-1), X, mu, nu)
        if out.ndim == 1:
            x_p, nu_p, mu_p = out.tolist()
            return x_p, mu_p, nu_p
        return out[..., 0], out[..., 2], out[..., 1]

    def evolve(self, w0: Callable, X, mu, nu):
        """Evolved tomogram value w(X, mu, nu, t) = w0(frame_map(X, mu, nu)).

        The delta kernel integrates out exactly; no quadrature is involved.
        X, mu and nu broadcast as in :meth:`frame_map`: floats call w0 on
        floats, arrays call it once on arrays of the broadcast shape, so w0
        must then accept arrays, as the closed-form tomograms of
        :mod:`osctomo.states` do.
        """
        return w0(*self.frame_map(X, mu, nu))

    @cached_property
    def _van_vleck(self) -> tuple[float, float, float, float, float, complex]:
        """(m11, m12, m22, m12 dp - m22 dq, dq, (2 pi m12)^{-1/2}), the
        coefficients of :meth:`kernel`, formed once per propagator.  A focal
        point, |m12| < CAUSTIC_TOL, raises CausticError; raising, the
        property caches nothing."""
        eps, eps_dot, beta = self.eps, self.eps_dot, self.beta
        m11, m12, m22 = eps.real, eps.imag, eps_dot.imag
        if abs(m12) < CAUSTIC_TOL:
            raise CausticError(f"the Green function is singular at a focal point (|Im eps| < {CAUSTIC_TOL})")
        dq = -_SQRT2 * (eps * beta.conjugate()).real
        dp = -_SQRT2 * (eps_dot * beta.conjugate()).real
        return m11, m12, m22, m12 * dp - m22 * dq, dq, 1.0 / cmath.sqrt(2.0 * math.pi * m12)

    def kernel(self, X, Z, phase=0.0):
        """The Green function G(X, Z, t) of this flow, with global phase F(t) = phase:

            G = (2 pi m12)^{-1/2} exp{ 1j [ (m22 X^2 - 2 X Z + m11 Z^2)/2
                                          + (m12 dp - m22 dq) X + dq Z ] / m12 + 1j phase },

        m = [[Re eps, Im eps], [Re eps_dot, Im eps_dot]], dq = -sqrt(2)
        Re(eps conj(beta)) and dp = -sqrt(2) Re(eps_dot conj(beta)).  So
        psi(X, t) = integral G(X, Z, t) psi(Z, 0) dZ, which for an array of
        Z and trapezoid weights c is ``kernel(X[:, None], Z) @ (c psi0)``.

        X, Z and phase are floats or numpy arrays that broadcast together.
        Scalars (0-d arrays too) give a complex; otherwise G is an array of
        the broadcast shape, each entry equal (==) to the scalar call at its
        point.  A focal point, |Im eps| < CAUSTIC_TOL, raises CausticError.
        A non-finite X, Z or phase raises ValueError naming it, and a finite
        (X, Z) whose phase overflows raises EvaluationError naming the first
        such point in C order, with no RuntimeWarning.

        The phase's rounding error is about 2^-53 times the size of its
        terms, S = (|m22| X^2 / 2 + |X Z| + |m11| Z^2 / 2 + |m12 dp - m22 dq|
        |X| + |dq Z|) / |m12| + |phase|.  A point where that error exceeds
        1e-6 rad, S past 2^53 1e-6 ~ 9.0e9 rad, would print digits that are
        not there, and raises EvaluationError naming the first such (X, Z)
        in C order, with S.
        """
        X, Z, phase = _finite(X=X, Z=Z, phase=phase)
        m11, m12, m22, lin_x, dq, amp = self._van_vleck
        # a phase past the double range is inf or NaN, named below instead of warning
        with np.errstate(over="ignore", invalid="ignore"):
            arg = ((m22 * X * X - 2.0 * X * Z + m11 * Z * Z) / 2.0 + lin_x * X + dq * Z) / m12 + phase
            ax, az = abs(X), abs(Z)
            size = ((abs(m22) * ax * ax + 2.0 * ax * az + abs(m11) * az * az) / 2.0
                    + abs(lin_x) * ax + abs(dq) * az) / abs(m12) + abs(phase)
        # |arg| <= size, so one comparison passes every good point; an overflow is named first
        if not (fine := np.less_equal(size, _PHASE_TOL * 2.0**53)).all():
            finite = np.isfinite(arg)
            if not finite.all():
                _raise_first(EvaluationError, "Green function phase overflows at (X, Z) = ({!r}, {!r})",
                             ~finite, X, Z)
            _raise_first(EvaluationError, "Green function phase at (X, Z) = ({!r}, {!r}) has terms of size "
                         f"{{:.4g}} rad, which round by more than {_PHASE_TOL:g} rad", ~fine, X, Z, size)
        g = amp * np.exp(1j * arg)
        return complex(g) if np.ndim(g) == 0 else g


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
    h = _float("h", h)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and positive, got {h!r}")
    X, mu, nu, t = (_float(name, value) for name, value in zip(("X", "mu", "nu", "t"), point))
    d_t = (w(X, mu, nu, t + h) - w(X, mu, nu, t - h)) / (2.0 * h)
    d_nu = (w(X, mu, nu + h, t) - w(X, mu, nu - h, t)) / (2.0 * h)
    d_mu = (w(X, mu + h, nu, t) - w(X, mu - h, nu, t)) / (2.0 * h)
    d_X = (w(X + h, mu, nu, t) - w(X - h, mu, nu, t)) / (2.0 * h)
    return d_t - mu * d_nu + profile.omega_sq(t) * nu * d_mu + profile.force(t) * nu * d_X


def green_sho(X: float, Z: float, t: float, phase: float = 0.0) -> complex:
    """Green function of the unit-frequency oscillator, F(t) = phase convention:
    the kernel of the unforced constant(1) profile's flow (e^{it}, i e^{it},
    0) at any finite t, which builds no grid.

    |G| = (2 pi |sin t|)^{-1/2} for all X, Z.
    """
    X, Z, t, phase = _finite(X=X, Z=Z, t=t, phase=phase)
    return ClassicalPropagator.from_profile(_UNIT, t).kernel(X, Z, phase)


def green_free(X: float, Z: float, t: float, phase: float = 0.0) -> complex:
    """Free-particle Green function (2 pi t)^{-1/2} exp{1j (X-Z)^2 / (2t)}:
    the kernel of the unforced free profile's flow (1 + it, i, 0) at any
    finite t, which builds no grid.

    The small-t limit of :func:`green_sho` (sin t -> t, cos t -> 1).
    """
    X, Z, t, phase = _finite(X=X, Z=Z, t=t, phase=phase)
    return ClassicalPropagator.from_profile(_FREE, t).kernel(X, Z, phase)


def green_driven(
    X: float, Z: float, t: float, profile: DriveProfile, phase: float = 0.0
) -> complex:
    """Green function of ``profile``'s Schroedinger equation: the kernel of
    its flow ``flow_at(profile, t)`` at flow_at's default step.

    So a constant or free profile takes its closed form at any finite t,
    beta exact for a number force and on a drive grid of step ~1e-3 for a
    callable one; any other profile is solved by RK4 forward from 0, so t
    must be >= 0 (ValueError naming t).  A grid of more than MAX_STEPS
    steps raises ValueError before it is allocated; a flow that builds no
    grid has no step bound.  A flow with |det Lambda - 1| > DET_TOL raises
    ConsistencyError.  The modulus (2 pi |Im eps|)^{-1/2} is
    force-independent.
    """
    X, Z, t, phase = _finite(X=X, Z=Z, t=t, phase=phase)
    return ClassicalPropagator.from_profile(profile, t).kernel(X, Z, phase)


def quantum_propagator(
    X: float, Xp: float, Z: float, Zp: float, t: float, profile: DriveProfile, phase: float = 0.0
) -> complex:
    """Density-matrix propagator K = G(X, Z, t) conj(G(Xp, Zp, t)).

    Independent of the free phase convention: ``phase`` enters G and
    conj(G) with opposite signs and cancels exactly.  G is the kernel of
    ``profile``'s flow, with the rules of :func:`green_driven`.
    """
    X, Xp, Z, Zp, t, phase = _finite(X=X, Xp=Xp, Z=Z, Zp=Zp, t=t, phase=phase)
    green = ClassicalPropagator.from_profile(profile, t).kernel
    return green(X, Z, phase) * green(Xp, Zp, phase).conjugate()
