"""Auxiliary classical dynamics of the forced parametric oscillator.

Everything downstream (time-dependent invariants, propagators, tomograms)
is built from the complex solution ``eps(t)`` of the classical oscillator
equation

    eps'' + omega^2(t) * eps = 0,    eps(0) = 1,  eps'(0) = 1j,

together with the drive shift

    beta(t) = -(1j / sqrt(2)) * integral_0^t eps(s) f(s) ds.

Units are dimensionless (hbar = m = 1); for constant unit frequency the
solution is ``eps(t) = exp(1j t)``.  The seeded initial conditions fix the
Wronskian

    eps' * conj(eps) - conj(eps') * eps = 2j

for all times, and that conservation law is the one solution-quality
invariant monitored during integration.

:func:`flow_at` returns the triple (eps, eps_dot, beta) at one time t >= 0:
the classical flow every tomogram, invariant and propagator downstream is
evaluated from.  It owns the flow's input rule (t finite and >= 0,
0 < step <= t) and raises ValueError for input that breaks it.

Sign conventions and orderings used by the rest of the package are
documented in :mod:`osctomo.invariants`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, UnsupportedOrderError, WronskianDriftError

__all__ = [
    "DriveProfile",
    "EpsilonTrajectory",
    "solve_epsilon",
    "beta_shift",
    "flow_at",
    "parametric_resonance_epsilon",
    "hermite",
    "hermite_gauss",
    "TOL_WRONSKIAN",
    "MAX_HERMITE_ORDER",
]

#: Default ceiling on the Wronskian drift accepted from the integrator.
TOL_WRONSKIAN = 1e-6

#: Largest Hermite order served by :func:`hermite` / :func:`hermite_gauss`.
MAX_HERMITE_ORDER = 200

# Steps per block at every level of the transfer-matrix product.
_BLOCK = 8


def _zero_force(t: float) -> float:
    return 0.0


@dataclass(frozen=True)
class DriveProfile:
    """Time dependence of the Hamiltonian H = p^2/2 + omega^2(t) q^2/2 - f(t) q.

    ``omega_sq`` and ``force`` are callables of time.  Where a whole time
    grid is needed they are first called once with the array of nodes; a
    callable that raises on an array, or returns neither a scalar nor an
    array of the grid's shape, is then called once per node instead, so
    scalar-only callables (``math.cos``, ``if t < 3``) work unchanged.  A
    repulsive oscillator is expressed by a negative ``omega_sq`` (only the
    square of the frequency ever enters the equations).

    Use the constructors :meth:`constant`, :meth:`free`,
    :meth:`parametric_resonance` and :meth:`custom`, which default the
    force to zero.
    """

    omega_sq: Callable[[float], float]
    force: Callable[[float], float]

    @classmethod
    def constant(cls, omega: float = 1.0, force: Callable[[float], float] | None = None):
        """Constant frequency omega (omega_sq = omega**2 for all t)."""
        w2 = float(omega) ** 2
        return cls(lambda t: w2, force or _zero_force)

    @classmethod
    def free(cls, force: Callable[[float], float] | None = None):
        """Free motion, omega_sq = 0."""
        return cls(lambda t: 0.0, force or _zero_force)

    @classmethod
    def parametric_resonance(cls, k: float, force: Callable[[float], float] | None = None):
        """Parametric resonance profile omega_sq(t) = (1 + k cos 2t) / (1 + k).

        The weak-modulation regime is enforced as k in (-0.5, 0.5).
        """
        k = float(k)
        if not -0.5 < k < 0.5:
            raise ValueError(f"parametric resonance requires k in (-0.5, 0.5), got {k}")
        return cls(
            lambda t: (1.0 + k * np.cos(2.0 * t)) / (1.0 + k),
            force or _zero_force,
        )

    @classmethod
    def custom(
        cls,
        omega_sq: Callable[[float], float],
        force: Callable[[float], float] | None = None,
    ):
        """Arbitrary user-supplied omega_sq(t) (may be negative) and force."""
        return cls(omega_sq, force or _zero_force)


@dataclass(frozen=True)
class EpsilonTrajectory:
    """Sampled solution of the auxiliary equation on a uniform time grid.

    ``eps`` and ``eps_dot`` are stored side by side: every downstream
    formula needs both, and re-differentiating ``eps`` numerically would
    only add error.  Off-grid values come from cubic Hermite interpolation,
    which uses ``eps_dot`` as the exact derivative of ``eps`` and
    ``eps_ddot = -omega_sq(t) * eps`` as the exact derivative of
    ``eps_dot``.
    """

    t: np.ndarray
    eps: np.ndarray
    eps_dot: np.ndarray
    profile: DriveProfile
    max_wronskian_drift: float

    @property
    def step(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def wronskian(self) -> np.ndarray:
        """eps'*conj(eps) - conj(eps')*eps at every grid node (ideally 2j)."""
        return self.eps_dot * np.conj(self.eps) - np.conj(self.eps_dot) * self.eps

    def _bracket(self, time: float) -> tuple[int, float]:
        if not 0.0 <= time <= self.t_end * (1 + 1e-12) + 1e-15:
            raise ValueError(f"time {time} outside trajectory range [0, {self.t_end}]")
        h = self.step
        i = min(int(time / h), len(self.t) - 2)
        return i, (time - self.t[i]) / h

    def __call__(self, time: float) -> tuple[complex, complex]:
        """Interpolated (eps, eps_dot) at an arbitrary time in range."""
        i, s = self._bracket(time)
        if s == 0.0:
            return complex(self.eps[i]), complex(self.eps_dot[i])
        h = self.step
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        e0, e1 = self.eps[i], self.eps[i + 1]
        d0, d1 = self.eps_dot[i], self.eps_dot[i + 1]
        a0 = -self.profile.omega_sq(self.t[i]) * e0
        a1 = -self.profile.omega_sq(self.t[i + 1]) * e1
        eps = h00 * e0 + h10 * h * d0 + h01 * e1 + h11 * h * d1
        eps_dot = h00 * d0 + h10 * h * a0 + h01 * d1 + h11 * h * a1
        return complex(eps), complex(eps_dot)


def solve_epsilon(
    profile: DriveProfile,
    t_end: float,
    step: float,
    tol_wronskian: float = TOL_WRONSKIAN,
) -> EpsilonTrajectory:
    """Integrate eps'' + omega_sq(t) eps = 0 from the seeded initial data.

    Fixed-step classical 4th-order Runge-Kutta on the first-order system
    (eps, eps_dot).  The step is rounded so the uniform grid lands exactly
    on ``t_end``.

    omega_sq is real, so each RK4 step is a real 2x2 matrix P_k acting on
    (eps, eps_dot); all of them are formed at once from omega_sq sampled
    on the grid, and their running products are the transfer matrices
    M(t_k) = P_{k-1}...P_0, with (eps, eps_dot)(t_k) = M(t_k) (1, 1j).
    The products are taken recursively in blocks of 8 steps, on arrays
    that hold each matrix entry as one row over all steps, so the work in
    Python is about 8 log_8(n) iterations (about 40 at n = 2e4) instead of
    one per step.

    Parameters
    ----------
    profile : DriveProfile
        Supplies omega_sq; the force plays no role here.
    t_end, step : float
        Final time (finite, > 0) and requested step (0 < step <= t_end).
    tol_wronskian : float
        Maximum accepted drift |W(t) - 2j| over the grid.

    Raises
    ------
    EvaluationError
        omega_sq returned a non-finite value somewhere on the grid.
    WronskianDriftError
        The integration quality invariant was violated.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    if not 0.0 < step <= t_end:
        raise ValueError(f"step must satisfy 0 < step <= t_end, got step={step!r}")

    n = max(1, round(t_end / step))
    h = t_end / n
    t = np.linspace(0.0, t_end, n + 1)

    w_full = np.asarray(_on_grid(profile.omega_sq, t), dtype=float)
    w_half = np.asarray(_on_grid(profile.omega_sq, t[:-1] + 0.5 * h), dtype=float)
    if not (np.all(np.isfinite(w_full)) and np.all(np.isfinite(w_half))):
        bad = t[~np.isfinite(w_full)] if not np.all(np.isfinite(w_full)) else (
            t[:-1][~np.isfinite(w_half)] + 0.5 * h
        )
        raise EvaluationError(f"omega_sq non-finite at t = {bad[0]:g}")

    transfer = _transfer_matrices(w_full, w_half, h)
    eps = np.empty(n + 1, dtype=complex)
    eps_dot = np.empty(n + 1, dtype=complex)
    eps[0], eps_dot[0] = 1.0 + 0.0j, 1.0j
    eps.real[1:], eps.imag[1:] = 1.0 + transfer[0, 0], transfer[0, 1]
    eps_dot.real[1:], eps_dot.imag[1:] = transfer[1, 0], 1.0 + transfer[1, 1]

    drift = float(np.max(np.abs(eps_dot * np.conj(eps) - np.conj(eps_dot) * eps - 2.0j)))
    if drift > tol_wronskian:
        raise WronskianDriftError(drift, tol_wronskian)
    return EpsilonTrajectory(t, eps, eps_dot, profile, drift)


def _on_grid(fn: Callable, t: np.ndarray) -> np.ndarray:
    """fn sampled at every node of the time array t.

    One call with the whole array when fn takes it (a scalar result is
    broadcast).  If that call raises, including on a floating-point error,
    or returns any other shape, fn is called once per node, so a
    scalar-only callable gives, and raises, what it does node by node.
    """
    try:
        with np.errstate(all="raise"):
            values = np.asarray(fn(t))
    except Exception:  # user callables may fail on arrays in any way
        pass
    else:
        if values.shape == t.shape:
            return values
        if values.ndim == 0:
            return np.full(t.shape, values)
    return np.array([fn(ti) for ti in t])


def _transfer_matrices(w_full: np.ndarray, w_half: np.ndarray, h: float) -> np.ndarray:
    """M(t_k) - 1 for M(t_k) = P_{k-1}...P_0, k = 1..n, as a (2, 2, n) array.

    P_k is the RK4 step on (eps, eps_dot) for eps_dot' = -w eps, with
    w = omega_sq at the step's start (w0), midpoint (wh) and end (w1): the
    four stages of the scalar scheme, expanded in closed form.  The steps
    are stored entries first, as their difference from the identity
    A_k = P_k - 1, and :func:`_prefix_products` multiplies them in that
    form, so the 1 + small sums are rounded once, by the caller.
    Multiplying the rounded P_k themselves repeats one rounding error in
    every step of a constant profile (Wronskian drift ~5e-12 at t = 20
    for omega = 1.7, against ~3e-15 this way).
    """
    w0, wh, w1 = w_full[:-1], w_half, w_full[1:]
    h2 = h * h
    steps = np.empty((2, 2, len(w_half)))
    steps[0, 0] = -h2 / 6.0 * (w0 + 2.0 * wh) + h2 * h2 / 24.0 * w0 * wh
    steps[0, 1] = h - h2 * h / 6.0 * wh
    steps[1, 0] = -h / 6.0 * (w0 + 4.0 * wh + w1) + h2 * h / 12.0 * wh * (w0 + w1)
    steps[1, 1] = -h2 / 6.0 * (2.0 * wh + w1) + h2 * h2 / 24.0 * wh * w1
    return _prefix_products(steps)


def _prefix_products(steps: np.ndarray) -> np.ndarray:
    """Running products of (2, 2, n) differences from the identity.

    Column k of the result is (1 + A_k)...(1 + A_0) - 1.  The steps are cut
    into blocks of _BLOCK (zero padded: the padding is the identity and is
    never returned); the prefix products inside every block are taken one
    position at a time over all blocks at once, the block totals recurse,
    and every in-block product is combined with its block start in one
    broadcast product.  That is about _BLOCK * log_BLOCK(n) Python
    iterations of a few numpy calls each, instead of one per step.
    """
    n = steps.shape[-1]
    if n == 1:
        return steps
    count = -(-n // _BLOCK)
    blocks = np.zeros((2, 2, count, _BLOCK))
    blocks.reshape(2, 2, -1)[..., :n] = steps
    for p in range(1, _BLOCK):
        blocks[..., p] = _compose(blocks[..., p], blocks[..., p - 1])
    starts = _prefix_products(blocks[..., -1])
    blocks[:, :, 1:] = _compose(blocks[:, :, 1:], starts[:, :, :-1, None])
    return blocks.reshape(2, 2, -1)[..., :n]


def _compose(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(1 + x)(1 + y) - 1 = x y + y + x for entries-first 2x2 differences
    (broadcasting), summed in that order: at t = 100, omega = 1.7 the
    Wronskian drift is 5e-15, against 6e-14 with x + y added first."""
    out = x[:, :1] * y[0]
    out += x[:, 1:] * y[1]
    out += y
    out += x
    return out


def _simpson(values: np.ndarray, h: float):
    """Composite Simpson's rule over an odd number of samples spaced h apart."""
    return (h / 3.0) * (
        values[0] + values[-1] + 4.0 * np.sum(values[1:-1:2]) + 2.0 * np.sum(values[2:-1:2])
    )


def _drive_integral(s: np.ndarray, eps: np.ndarray, force: Callable, h: float):
    """integral eps f by Simpson over the odd number of uniform nodes s,
    spacing h (h < 0: from s[0] down to s[-1]); f is sampled at s only.
    The one quadrature of the drive, for beta_shift and the driven Green
    functions."""
    return _simpson(eps * _on_grid(force, s), h)


def beta_shift(traj: EpsilonTrajectory, t: float, t_start: float = 0.0) -> complex:
    """Drive shift beta over [t_start, t]: -(1j/sqrt(2)) * integral eps f.

    f is the force of the profile the trajectory was solved with, sampled
    on [t_start, t] only.  The integral is composite Simpson over an even
    number of grid steps in [t_start, t] and one 3-point rule on
    interpolated eps for each partial end step (the last at most two steps
    long), or one for an interval inside one step; t = t_start samples
    nothing, and t < t_start gives minus the shift over [t, t_start].  Both
    endpoints must lie inside the trajectory range (ValueError).
    """
    if t < t_start:
        return -beta_shift(traj, t_start, t)
    traj._bracket(t_start)
    traj._bracket(t)
    h, force = traj.step, traj.profile.force
    first, m = int(math.ceil(t_start / h - 1e-12)), int(math.floor(t / h + 1e-12))
    m -= max(m - first, 0) % 2  # composite Simpson needs an even interval count
    total = 0.0 + 0.0j
    if m - first >= 2:
        total += _drive_integral(traj.t[first : m + 1], traj.eps[first : m + 1], force, h)
    for a, b in ((t_start, first * h), (m * h, t)) if m >= first else ((t_start, t),):
        if b - a > 1e-15 * max(1.0, t):
            nodes = (a, 0.5 * (a + b), b)
            eps = np.array([traj(x)[0] for x in nodes])
            total += _drive_integral(np.array(nodes), eps, force, 0.5 * (b - a))
    return complex(-1j / math.sqrt(2.0) * total)


def _flow_step(t: float, step: float | None) -> float:
    """The ODE step of the flow over [0, t]: see :func:`flow_at` (1e-3 by default at t = 0)."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t={t!r}: the flow runs forward from 0, so t must be >= 0 and finite")
    if step is None:
        return min(1e-3, t) or 1e-3
    if not (step > 0.0 and (t == 0.0 or step <= t)):
        raise ValueError(f"step={step!r} must satisfy 0 < step <= t (t={t!r})")
    return step


def flow_at(
    profile: DriveProfile, t: float, step: float | None = None
) -> tuple[complex, complex, complex]:
    """The classical flow (eps, eps_dot, beta) of ``profile`` at time t.

    Solves the auxiliary equation forward from 0 up to t, interpolates eps
    and eps_dot at t and integrates the drive shift.  t must be finite and
    >= 0, and a given step 0 < step <= t, any step > 0 at t = 0
    (ValueError); the default step is min(1e-3, t).  At t = 0 the seeded
    initial data (1, 1j, 0) is returned without solving.
    """
    step = _flow_step(t, step)
    if t == 0.0:
        return 1.0 + 0.0j, 1.0j, 0.0 + 0.0j
    traj = solve_epsilon(profile, t, step)
    eps, eps_dot = traj(t)
    return eps, eps_dot, beta_shift(traj, t)


def parametric_resonance_epsilon(k: float, t):
    """Closed-form weak-resonance approximation for eps and its derivative.

    For omega_sq(t) = (1 + k cos 2t)/(1 + k) with |k| << 1,

        eps(t) = cosh(kt/4) e^{it} - 1j sinh(kt/4) e^{-it},

    and the returned eps_dot is the exact time derivative of that
    expression (not the derivative of the true solution).  At k = 0 this
    reduces to exp(1j t).

    The squared modulus of the approximation is
    ``|eps|^2 = cosh(kt/2) - sinh(kt/2) sin(2t)``; the 1/|r| envelope seen
    in constant-frame tomogram plots should be computed from eps via this
    route rather than from any further simplified expression.
    """
    k = float(k)
    if not abs(k) < 0.5:
        raise ValueError(f"approximation valid only for |k| < 0.5, got {k}")
    t = np.asarray(t, dtype=float) if np.ndim(t) else float(t)
    ch, sh = np.cosh(k * t / 4.0), np.sinh(k * t / 4.0)
    fwd, bwd = np.exp(1j * t), np.exp(-1j * t)
    eps = ch * fwd - 1j * sh * bwd
    eps_dot = (1j * ch + (k / 4.0) * sh) * fwd - (sh + 1j * (k / 4.0) * ch) * bwd
    if np.ndim(eps):
        return eps, eps_dot
    return complex(eps), complex(eps_dot)


def hermite(n: int, y):
    """Physicists' Hermite polynomial H_n(y) by three-term recurrence.

    H_0 = 1, H_1 = 2y, H_{n+1} = 2y H_n - 2n H_{n-1}.  Guarded at
    n <= MAX_HERMITE_ORDER; for large orders combine with the Gaussian
    weight through :func:`hermite_gauss` instead, since the bare
    polynomial overflows double precision near n ~ 150.
    """
    n = _check_order(n)
    y = np.asarray(y, dtype=float)
    h_prev = np.ones_like(y)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * y
    for j in range(1, n):
        h, h_prev = 2.0 * y * h - 2.0 * j * h_prev, h
    return h if h.ndim else float(h)


def hermite_gauss(n: int, y):
    """L2-normalised Hermite function H_n(y) e^{-y^2/2} / sqrt(n! 2^n sqrt(pi)).

    Evaluated with a scaled recurrence that keeps every intermediate on
    the order of one, so it stays finite for all supported n and y.  A
    scalar y runs the array recurrence on a 1-element array.
    """
    n = _check_order(n)
    y = np.asarray(y, dtype=float)
    u = _hermite_gauss_array(n, np.atleast_1d(y))
    return u if y.ndim else float(u[0])


def _hermite_gauss_array(n: int, y: np.ndarray) -> np.ndarray:
    """The recurrence of :func:`hermite_gauss` in three rotating buffers,
    without four fresh temporaries per step."""
    u_prev = np.multiply(-0.5, y)
    u_prev *= y
    np.exp(u_prev, out=u_prev)
    u_prev *= np.pi ** -0.25
    if n == 0:
        return u_prev
    u = np.multiply(math.sqrt(2.0), y)
    u *= u_prev
    nxt = np.empty_like(y)
    for j in range(1, n):
        np.multiply(math.sqrt(2.0 / (j + 1)), y, out=nxt)
        nxt *= u
        u_prev *= math.sqrt(j / (j + 1))
        nxt -= u_prev
        u_prev, u, nxt = u, nxt, u_prev
    return u


def _check_order(n) -> int:
    if int(n) != n or n < 0:
        raise ValueError(f"order must be a non-negative integer, got {n!r}")
    n = int(n)
    if n > MAX_HERMITE_ORDER:
        raise UnsupportedOrderError(
            f"order {n} above supported maximum {MAX_HERMITE_ORDER}"
        )
    return n
