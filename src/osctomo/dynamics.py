"""Auxiliary classical dynamics of the forced parametric oscillator.

Everything downstream (time-dependent invariants, propagators, tomograms)
is built from the complex solution ``eps(t)`` of the classical oscillator
equation

    eps'' + omega^2(t) * eps = 0,    eps(0) = 1,  eps'(0) = 1j,

together with the drive shift

    beta(t) = -(1j / sqrt(2)) * integral_0^t eps(s) f(s) ds.

Units are dimensionless (hbar = m = 1).  For a constant frequency omega
the solution has the closed form

    eps(t) = cos(omega t) + 1j sin(omega t) / omega    (1 + 1j t at omega = 0),

``exp(1j t)`` at omega = 1 (Husimi 1953; Malkin, Man'ko & Trifonov 1970).
The seeded initial conditions fix the Wronskian

    eps' * conj(eps) - conj(eps') * eps = 2j

for all times, and that conservation law is the one solution-quality
invariant monitored during integration.

:func:`flow_at` returns the triple (eps, eps_dot, beta) at one time t,
the classical flow every view downstream is evaluated from, the four
Green functions among them; it is the package's one assembly of the flow,
under one rule.  Constant and free profiles take the closed form above at
any finite t.  Every other profile is integrated (and Wronskian-checked)
by RK4 forward from 0, so at t >= 0 only, under one time rule: on the
fixed grid t_k = k step (step 1e-3 unless one is given, and kept
exactly), n = floor(t / step) full steps, a t within rounding of a node
counting as that node, then one closing step of t - n step.  Each
profile keeps one record of its flow at its latest step, read by every
later time: the state, the running maximum of the Wronskian drift and the
Simpson integral of the drive at every 8th node, 7 bytes per step, and
the frontier of the transfer-matrix product at its end.  A time that the
record covers costs at most 7 steps plus the closing step; a later time
extends the record from its end, by one transfer-matrix solve of the
steps in between, so each step of the grid is integrated once.  The
value at every node is the same however the record was grown, so a
result never depends on earlier calls.  A force given as a number is
constant: on constant and free profiles its beta is exact, with no grid;
otherwise beta is one Simpson rule of the drive.  The number 0, the
default force, gives beta exactly 0 on every profile.  A given step
satisfies 0 < step <= |t|.  MAX_STEPS bounds the grids where they are
allocated, in the RK4 solves and the drive grid of the closed forms, so
a flow that builds no grid has no step bound.
Every profile callable is sampled on a grid through one helper, which
raises EvaluationError on a non-finite omega_sq or force.
Hermite orders and the package's grid counts pass one integer rule,
:func:`_integer`: a whole number (3.0 counts as 3), else ValueError.
Every real or complex scalar argument of a public entry point passes one
number rule, :func:`_float`: a Python int (a bool too) is the float it
converts to, and one past the double range raises ValueError naming it;
any other value, an array among them, is read as numpy reads it.  A
sample coordinate (a tomogram's X, hermite's y, the Fourier form's k, the
wavefunction's x, a tomographic point) passes the sample rule,
:func:`_real`, on top: None, a str, a complex value or any other object
that is not real numbers raises TypeError naming it, scalar or array.
Every check that names the offending sample of an array argument, here
and in the states and propagators, names the first one in C order
through :func:`_raise_first`.

Sign conventions and orderings used by the rest of the package are
documented in :mod:`osctomo.invariants`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real
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
    "MAX_STEPS",
    "MAX_HERMITE_ORDER",
]

#: Default ceiling on the Wronskian drift accepted from the integrator.
TOL_WRONSKIAN = 1e-6

#: Most RK4 steps one solve takes, in :func:`solve_epsilon` or a flow's record (a peak of about
#: 116 bytes each, so ~230 MB).
MAX_STEPS = 2_000_000

#: Largest Hermite order served by :func:`hermite` / :func:`hermite_gauss`.
MAX_HERMITE_ORDER = 200

# Steps per block at every level of the transfer-matrix product.
_BLOCK = 8

# |y| past which hermite_gauss clips y, just below sqrt of the largest double, so y^2 is finite
_HERMITE_Y_MAX = 1.34e154
# values per chunk of the Hermite recurrence: its three buffers are 128 KiB each, so a
# chunk's working set stays within a 2 MiB L2 cache
_HERMITE_CHUNK = 1 << 14

# Default ODE step of the flow, and the drive quadrature step of the driven closed forms.
_DEFAULT_STEP = 1e-3


# beta of the zero force, -(1j / sqrt 2) times an integral of 0j: 0-0j, as
# beta_shift's Simpson sum of zeros gives it
_NO_SHIFT = complex(-1j / math.sqrt(2.0) * 0j)


@dataclass(frozen=True)
class DriveProfile:
    """Time dependence of the Hamiltonian H = p^2/2 + omega^2(t) q^2/2 - f(t) q.

    ``omega_sq`` is a callable of time, ``force`` a callable or a number,
    the constant force: finite by the number rule of :func:`_float`
    (ValueError naming force; None reads as 0), which ``profile.force``
    then returns as a callable.  Where a whole time grid is needed a
    callable is first called once with the array of nodes; one that raises
    on an array, or returns neither a scalar nor an array of the grid's
    shape, is then called once per node instead, so scalar-only callables
    (``math.cos``, ``if t < 3``) work unchanged.  A repulsive oscillator is
    expressed by a negative ``omega_sq`` (only the square of the frequency
    ever enters the equations).

    Use the constructors :meth:`constant`, :meth:`free`,
    :meth:`parametric_resonance` and :meth:`custom`, which default the
    force to the number 0.
    """

    omega_sq: Callable[[float], float]
    force: Callable[[float], float]
    # |omega| of a constant or free profile, whose flow has a closed form
    # (see flow_at); None for every other profile
    _omega: float | None = field(default=None, init=False, repr=False)
    # a force given as a number, whose beta flow_at takes exactly on a
    # constant or free profile; None for a callable force
    _force: float | None = field(default=None, init=False, repr=False)
    # the RK4 flow at the latest step (see _rk4_flow), replaced whole, never
    # changed in place
    _record: _FlowRecord | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if callable(self.force):
            return
        c = 0.0 if self.force is None else float(_float("force", self.force))
        if not math.isfinite(c):
            raise ValueError(f"force must be a callable or a finite number, got {c!r}")
        object.__setattr__(self, "force", lambda t: c)
        object.__setattr__(self, "_force", c)

    @classmethod
    def constant(cls, omega: float = 1.0, force: Callable[[float], float] | float = 0.0):
        """Constant frequency omega (omega_sq = omega**2 for all t); omega and
        omega**2 must be finite (ValueError)."""
        omega = float(_float("omega", omega))
        if not math.isfinite(omega * omega):
            raise ValueError(f"omega and omega**2 must be finite, got omega={omega!r}")
        w2 = omega**2
        return cls(lambda t: w2, force)._exact(abs(omega))

    @classmethod
    def free(cls, force: Callable[[float], float] | float = 0.0):
        """Free motion, omega_sq = 0."""
        return cls(lambda t: 0.0, force)._exact(0.0)

    def _exact(self, omega: float) -> DriveProfile:
        """This profile, marked as the constant frequency omega >= 0."""
        object.__setattr__(self, "_omega", omega)
        return self

    @classmethod
    def parametric_resonance(cls, k: float, force: Callable[[float], float] | float = 0.0):
        """Parametric resonance profile omega_sq(t) = 1 + k cos 2t.

        Its modulation at twice the unit frequency lies in the first
        instability tongue, so eps grows like e^{|k| t / 4}: the equation
        :func:`parametric_resonance_epsilon` solves to first order in k.
        The weak-modulation regime is enforced as k in (-0.5, 0.5).
        """
        k = _resonance_k(k)
        return cls(lambda t: 1.0 + k * np.cos(2.0 * t), force)

    @classmethod
    def custom(
        cls,
        omega_sq: Callable[[float], float],
        force: Callable[[float], float] | float = 0.0,
    ):
        """Arbitrary user-supplied omega_sq(t) (may be negative) and force."""
        return cls(omega_sq, force)


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

    @property
    def step(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def wronskian(self) -> np.ndarray:
        """eps'*conj(eps) - conj(eps')*eps at every grid node (ideally 2j)."""
        return _wronskian(self.eps, self.eps_dot)

    @cached_property
    def max_wronskian_drift(self) -> float:
        """max |W(t) - 2j| over the grid, the integrator's quality monitor."""
        return float(np.max(_drift(self.eps, self.eps_dot)))

    def _bracket(self, time: float) -> tuple[int, float]:
        if not 0.0 <= time <= self.t_end * (1 + 1e-12) + 1e-15:
            raise ValueError(f"time {time} outside trajectory range [0, {self.t_end}]")
        h = self.step
        i = min(int(time / h), len(self.t) - 2)
        return i, (time - self.t[i]) / h

    def __call__(self, time: float) -> tuple[complex, complex]:
        """Interpolated (eps, eps_dot) at an arbitrary time in range."""
        i, s = self._bracket(_float("time", time))
        if s == 0.0:
            return complex(self.eps[i]), complex(self.eps_dot[i])
        h = self.step
        e0, e1 = self.eps[i], self.eps[i + 1]
        d0, d1 = self.eps_dot[i], self.eps_dot[i + 1]
        a0 = -self.profile.omega_sq(self.t[i]) * e0
        a1 = -self.profile.omega_sq(self.t[i + 1]) * e1
        return complex(_hermite(e0, d0, e1, d1, h, s)), complex(_hermite(d0, a0, d1, a1, h, s))


def _hermite(y0, dy0, y1, dy1, h: float, s: float):
    """The cubic through y0 and y1, with slopes dy0 and dy1, a step h apart,
    at the fraction s of the step."""
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * h * dy0 + h01 * y1 + h11 * h * dy1


def _wronskian(eps, eps_dot):
    """eps_dot conj(eps) - conj(eps_dot) eps, for arrays or numbers.  Each
    product takes the conjugate first: numpy's complex product of arrays
    can round a * b and b * a apart, and numpy itself moves a temporary
    operand of 256 KiB or more to the front, to reuse its memory, so the
    other order would round by the arrays' length."""
    return eps.conjugate() * eps_dot - eps_dot.conjugate() * eps


def _drift(eps, eps_dot):
    """|W - 2j| of the Wronskian W, the integrator's quality monitor."""
    return abs(_wronskian(eps, eps_dot) - 2.0j)


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
    The products are taken recursively in blocks of 8 steps, each level
    laid out so that every numpy call reads and writes contiguous rows.
    A level costs 8 compositions of three numpy calls, so the work in
    Python is about 8 log_8(n) compositions (40 at n = 2e4) instead of
    one per step.  All of it runs in one buffer allocated per call: the
    steps are formed in it in step order, copied once into position-major
    blocks (row p of a level holds the p-th step of every block),
    multiplied in place level by level, and written into eps and eps_dot
    through strided views.  Besides the buffer, only t, the two samples
    of omega_sq (released before the products) and the result have the
    grid's length; the peak is about 116 bytes per step.

    Parameters
    ----------
    profile : DriveProfile
        Supplies omega_sq; the force plays no role here.
    t_end, step : float
        Final time (finite, > 0) and requested step (0 < step <= t_end).
    tol_wronskian : float
        Maximum accepted drift |W(t) - 2j| over the grid: >= 0, and inf
        accepts any finite drift.

    Raises
    ------
    ValueError
        t_end or step out of range, more than MAX_STEPS steps, or a NaN or
        negative tol_wronskian.
    EvaluationError
        omega_sq returned a non-finite value somewhere on the grid.
    WronskianDriftError
        The integration quality invariant was violated.
    """
    t_end, step = _float("t_end", t_end), _float("step", step)
    tol_wronskian = _float("tol_wronskian", tol_wronskian)
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    if not 0.0 < step <= t_end:
        raise ValueError(f"step must satisfy 0 < step <= t_end, got step={step!r}")
    _check_steps(t_end, step)
    if not tol_wronskian >= 0.0:  # a NaN fails too
        raise ValueError(f"tol_wronskian must be non-negative, got {tol_wronskian!r}")

    n = max(1, round(t_end / step))
    h = t_end / n
    t = np.linspace(0.0, t_end, n + 1)

    # a product that overflows ends in inf/NaN, which the Wronskian check reports
    with np.errstate(over="ignore", invalid="ignore"):
        flow, _ = _flow(profile.omega_sq, t, h)
        traj = EpsilonTrajectory(t, flow[0, : n + 1], flow[1, : n + 1], profile)
        drift = traj.max_wronskian_drift
    if not drift <= tol_wronskian:  # a NaN drift fails too
        raise WronskianDriftError(drift, tol_wronskian)
    return traj


def _check_steps(span: float, step: float) -> None:
    """ValueError if span / step rounds to more than MAX_STEPS steps: the one
    step bound of the flow's grids, checked where a grid is allocated, by
    :func:`solve_epsilon`, :func:`_rk4_flow` and :func:`_drive_grid`,
    before allocating."""
    if span / step > MAX_STEPS + 0.5:  # round(span / step) > MAX_STEPS
        raise ValueError(f"a span of {span:.12g} at step {step:.12g} is {span / step:.7g} steps, "
                         f"more than MAX_STEPS = {MAX_STEPS}")


def _on_grid(fn: Callable, t: np.ndarray, name: str = "profile value") -> np.ndarray:
    """fn sampled at every node of the time array t; a non-finite sample
    raises EvaluationError naming ``name`` and the first time it occurs.

    One call with the whole array when fn takes it (a scalar result is
    broadcast).  If that call raises, including on a floating-point error,
    or returns any other shape, fn is called once per node, so a
    scalar-only callable gives, and raises, what it does node by node.
    """
    try:
        with np.errstate(all="raise"):
            values = np.asarray(fn(t))
    except Exception:  # user callables may fail on arrays in any way
        values = None
    if values is None or values.ndim and values.shape != t.shape:
        values = np.array([fn(ti) for ti in t])
    finite = np.isfinite(values)
    if not finite.all():
        _raise_first(EvaluationError, f"{name} non-finite at t = {{:g}}", ~finite, t)
    return values if values.ndim else np.full(t.shape, values)


def _raise_first(error: type[Exception], message: str, bad, *values):
    """Raise error(message.format(...)) with the values, as floats (complex for
    complex values), at the first True of bad in C order over their broadcast,
    so a float and an array holding it read alike."""
    bad, *values = np.broadcast_arrays(bad, *values)
    i = np.argmax(bad)  # flat index of the first True
    raise error(message.format(*((complex if np.iscomplexobj(v) else float)(v.flat[i]) for v in values)))


def _workspace(count: int, held: tuple = ()) -> tuple[list[np.ndarray], np.ndarray]:
    """Views into one buffer for the product of count entries at level 0
    after the frontier held (see :func:`_block_products`): the blocks of
    every level, each (2, 2, _BLOCK, columns), and the spare part the
    compositions write to.

    Level 0 holds the entries, blocks[:, :, p, a] being entry _BLOCK * a + p;
    every higher level holds the raw entries of held's partial block there,
    then the totals of the whole blocks of the level below.  The spare part
    holds 4 + 4 * _BLOCK numbers per level-0 column and 60 more: first the
    level-0 entries in step order, later a row of a scan, a level's entries
    or its starts in its front (at most 4 per column and 60), and the
    output of one composition over a whole level in its end.

    A solve allocates this one large block, not a fresh array per level
    and per composition, so that a stream of solves keeps reusing the same
    heap pages instead of faulting fresh ones in each time (glibc's malloc
    returns freed heap to the system only past about twice the largest
    block it has freed).
    """
    columns = [-(-count // _BLOCK)]
    while count >= _BLOCK:
        level = len(columns)
        count = count // _BLOCK + (held[level][0].shape[-1] if level < len(held) else 0)
        columns.append(-(-count // _BLOCK))
    sizes = [4 * _BLOCK * c for c in columns]
    buffer = np.empty(sum(sizes) + (4 + 4 * _BLOCK) * columns[0] + 60)
    levels, start = [], 0
    for size in sizes:
        levels.append(buffer[start : start + size].reshape(2, 2, _BLOCK, -1))
        start += size
    return levels, buffer[start:]


def _position_major(steps: np.ndarray) -> np.ndarray:
    """View of (2, 2, _BLOCK * c) step-order entries as (2, 2, _BLOCK, c) blocks."""
    return steps.reshape(2, 2, -1, _BLOCK).transpose(0, 1, 3, 2)


def _flow(omega_sq: Callable, t: np.ndarray, h: float, held: tuple = ()) -> tuple[np.ndarray, tuple]:
    """(eps, eps_dot) at every node of t, and at padding nodes after it, as
    the two rows of a complex array, and the frontier of the product after
    its last step: the running products of the RK4 steps on t, continued
    from the frontier held of the steps before t[0], which end a whole
    block (see :func:`_block_products`), and taken in one workspace that is
    released on return.  The first column is (1, 1j), the state at t[0]
    of a solve from 0."""
    n = len(t) - 1
    levels, spare = _workspace(n, held)
    steps = spare[: 4 * n].reshape(2, 2, n)
    _rk4_steps(omega_sq, t, h, steps, levels[0].reshape(-1))
    _lay_out(steps, levels[0])
    frontier = _block_products(levels, spare, n, held)
    # (eps, eps_dot)(t_k) = M(t_k) (1, 1j), so the real and imaginary parts
    # of flow[i] are entries (i, 0) and (i, 1) of M(t_k)
    blocks = levels[0]
    flow = np.empty((2, blocks[0, 0].size + 1), dtype=complex)
    flow[:, 0] = 1.0, 1.0j
    matrices = flow.view(float).reshape(2, -1, 2)[:, 1:]
    for i, k in ((0, 0), (0, 1), (1, 0), (1, 1)):
        entry = matrices[i, :, k].reshape(-1, _BLOCK)
        if i == k:
            np.add(blocks[i, k].T, 1.0, out=entry)
        else:
            np.copyto(entry, blocks[i, k].T)
    return flow, frontier


def _rk4_steps(
    omega_sq: Callable, t: np.ndarray, h: float, out: np.ndarray, sums: np.ndarray
) -> None:
    """The RK4 steps on the grid t into out, a (2, 2, len(t) - 1) array;
    the first 2 * (len(t) - 1) numbers of sums hold partial sums.

    Step k is written as its difference from the identity, A_k = P_k - 1,
    where P_k is the RK4 step on (eps, eps_dot) for eps_dot' = -w eps with
    w = omega_sq at the step's start (w0), midpoint (wh) and end (w1): the
    four stages of the scalar scheme, expanded in closed form.  The
    products are taken in that form, so the 1 + small sums are rounded
    once, at the end.  Multiplying the rounded P_k themselves repeats one
    rounding error in every step of a constant profile (Wronskian drift
    ~5e-12 at t = 20 for omega = 1.7, against ~3e-15 this way).  The
    samples of omega_sq are released on return.
    """
    w_full = np.asarray(_on_grid(omega_sq, t, "omega_sq"), dtype=float)
    wh = np.asarray(_on_grid(omega_sq, t[:-1] + 0.5 * h, "omega_sq"), dtype=float)
    w0, w1 = w_full[:-1], w_full[1:]
    a, b = sums[: 2 * len(wh)].reshape(2, -1)
    h2 = h * h
    # A00 = -h^2/6 (w0 + 2 wh) + h^4/24 w0 wh
    np.multiply(2.0, wh, out=a)
    a += w0
    a *= -h2 / 6.0
    np.multiply(h2 * h2 / 24.0, w0, out=b)
    b *= wh
    np.add(a, b, out=out[0, 0])
    # A01 = h - h^3/6 wh
    np.multiply(h2 * h / 6.0, wh, out=a)
    np.subtract(h, a, out=out[0, 1])
    # A10 = -h/6 (w0 + 4 wh + w1) + h^3/12 wh (w0 + w1)
    np.multiply(4.0, wh, out=a)
    a += w0
    a += w1
    a *= -h / 6.0
    np.multiply(h2 * h / 12.0, wh, out=b)
    np.add(w0, w1, out=out[1, 0])
    b *= out[1, 0]
    np.add(a, b, out=out[1, 0])
    # A11 = -h^2/6 (2 wh + w1) + h^4/24 wh w1
    np.multiply(2.0, wh, out=a)
    a += w1
    a *= -h2 / 6.0
    np.multiply(h2 * h2 / 24.0, wh, out=b)
    b *= w1
    np.add(a, b, out=out[1, 1])


def _rk4_step(w0: float, wh: float, w1: float, h: float) -> tuple[float, float, float, float]:
    """One step of :func:`_rk4_steps` in floats, A00, A01, A10, A11 of
    A = P - 1, the same operations in the same order, so the same bits:
    the flow's few closing steps take ~1 us each this way, against ~50 us
    for the array form's numpy calls on a handful of steps."""
    h2 = h * h
    return (
        (2.0 * wh + w0) * (-h2 / 6.0) + h2 * h2 / 24.0 * w0 * wh,
        h - h2 * h / 6.0 * wh,
        (4.0 * wh + w0 + w1) * (-h / 6.0) + h2 * h / 12.0 * wh * (w0 + w1),
        (2.0 * wh + w1) * (-h2 / 6.0) + h2 * h2 / 24.0 * wh * w1,
    )


def _lay_out(steps: np.ndarray, blocks: np.ndarray) -> None:
    """Copy (2, 2, n) steps into the level-0 blocks, blocks[:, :, p, a]
    being step _BLOCK * a + p, and zero the padding after them: identity
    steps, so that no uninitialised number enters a product."""
    count, rest = divmod(steps.shape[-1], _BLOCK)
    cut = count * _BLOCK
    blocks[..., :count] = _position_major(steps[..., :cut])
    blocks[:, :, :rest, count : count + 1] = steps[..., cut:, None]
    blocks[:, :, rest:, count : count + 1] = 0.0
    blocks[..., count + 1 :] = 0.0


def _block_products(levels: list[np.ndarray], spare: np.ndarray, count: int, held: tuple = ()) -> tuple:
    """Turn the count entries in levels[0] into their running products, in
    place, as differences from the identity, and return the frontier after
    them: entry k becomes (1 + A_k)...(1 + A_0) - 1, the product over
    every step before it too.

    The product is a tree of blocks of _BLOCK entries (a blocked prefix
    scan): each level's entries are the totals of the whole blocks of the
    level below, and a node's product is the product inside its block
    composed with the product above that ends just before the block, the
    block's start.  The frontier held of the steps before the entries is,
    at every level from 0 up, the pair (raw, start) of the level's partial
    block: its at most _BLOCK - 1 raw entries, (2, 2, r), and its start,
    (2, 2), or None for the level's first block; () before any step.  So
    the value at every node is the same however the steps are split into
    calls, and a solve from 0 is the extension of ().

    levels and spare are the views :func:`_workspace` returns for count
    and held, and levels[0] holds the raw entries of held's level-0
    partial block, then the new ones.  In turn:
      - the products inside every block are taken one position p at a
        time, each a contiguous row over all blocks;
      - the totals of the whole blocks follow the raw entries held above
        in the level above, which recurses, if there are any;
      - the finished products above, the starts of blocks 1.., are laid
        out in step order in spare after the held start of block 0, and
        every block is combined with its start in one broadcast
        composition; the first block of a level has none.
    A level costs _BLOCK compositions, so about _BLOCK * log_BLOCK(n) in all.
    """
    blocks = levels[0]
    columns = blocks.shape[-1]
    full, rest = divmod(count, _BLOCK)
    start = held[0][1] if held else None
    tail = blocks[:, :, :rest, full:].reshape(2, 2, rest).copy()
    row = spare[: 4 * columns].reshape(2, 2, columns)
    for p in range(1, min(count, _BLOCK)):  # a lone block stops at its last entry
        _compose(blocks[:, :, p], blocks[:, :, p - 1], row)
    above = held[1:]
    first = 0 if start is not None else 1
    if full:
        raw = above[0][0] if above else blocks[:, :, :0, 0]
        r = raw.shape[-1]
        entries = spare[: 4 * (r + full)].reshape(2, 2, -1)
        np.concatenate((raw, blocks[:, :, -1, :full]), axis=-1, out=entries)
        _lay_out(entries, levels[1])
        above = _block_products(levels[1:], spare, r + full, above)
        # products[..., 1 + j] is entry j above, so products[..., r + i] is the start of block i
        products = spare[: 4 * (1 + levels[1][0, 0].size)].reshape(2, 2, -1)
        _position_major(products[..., 1:])[...] = levels[1]
        if start is not None:
            products[..., r] = start
        starts = products[:, :, None, r + first : r + columns]
        start = products[..., r + full].copy()
    elif start is not None:
        starts = start[:, :, None, None]
    if columns > first:
        later = blocks[..., first:]
        _compose(later, starts, spare[-later.size :].reshape(later.shape))
    return ((tail, start), *above)


def _compose(x: np.ndarray, y: np.ndarray, spare: np.ndarray) -> None:
    """x becomes (1 + x)(1 + y) - 1 = (x y + y) + x, for entries-first 2x2
    differences broadcast over the trailing axes; spare, of x's shape and
    sharing memory with neither, holds x y + y.  Adding y before x matters:
    at t = 100, omega = 1.7 that order gives a Wronskian drift of 5e-15,
    against 6e-14 with x + y added first."""
    np.einsum("ij...,jk...->ik...", x, y, out=spare)
    spare += y
    x += spare


def _simpson(values: np.ndarray, h: float):
    """Composite Simpson's rule over an odd number of samples spaced h apart."""
    return (h / 3.0) * (
        values[0] + values[-1] + 4.0 * np.sum(values[1:-1:2]) + 2.0 * np.sum(values[2:-1:2])
    )


def _drive_integral(s: np.ndarray, eps: np.ndarray, force: Callable, h: float):
    """integral eps f by Simpson over the odd number of uniform nodes s,
    spacing h (h < 0: from s[0] down to s[-1]); f is sampled at s only.
    The one quadrature of the drive, for beta_shift and the driven Green
    functions.  A non-finite force sample, or a sum of finite ones that
    overflows, raises EvaluationError."""
    f = _on_grid(force, s, "force")
    with np.errstate(over="ignore", invalid="ignore"):
        total = _simpson(eps * f, h)
    if not np.isfinite(total):
        raise EvaluationError(f"the drive integral over t in [{s[0]:g}, {s[-1]:g}] overflows")
    return total


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
    t, t_start = _float("t", t), _float("t_start", t_start)
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


def flow_at(
    profile: DriveProfile, t: float, step: float | None = None
) -> tuple[complex, complex, complex]:
    """The classical flow (eps, eps_dot, beta) of ``profile`` at time t:
    the package's one assembly of it, which every view downstream, the
    four Green functions among them, reads.

    A profile made by :meth:`DriveProfile.constant` or
    :meth:`DriveProfile.free` takes its closed form at any finite t,

        eps = cos wt + 1j sin(wt) / w,   eps_dot = -w sin wt + 1j cos wt

    (1 + 1j t and 1j at w = 0); an overflowing w t raises EvaluationError.
    beta is exact there for a number force c, -(1j / sqrt 2) c times the
    integral of eps (:func:`_constant_drive`), and for a callable force
    Simpson's rule on that eps over 2 max(1, round(|t| / 2 step)) uniform
    steps from 0 to t (:func:`_drive_grid`).

    Every other profile is solved by RK4 forward from 0, so t must be >= 0
    there (ValueError naming t), under the time rule of :func:`_rk4_flow`:
    floor(t / step) steps of the fixed grid t_k = k step, with a t within
    rounding of a node counting as that node, then one closing step up to
    t.  beta is Simpson's rule of the drive on that grid, and one 3-point
    rule over the last one or two steps.  The profile keeps one record of
    its flow at its latest step, every 8th node, 7 bytes per step: a t it
    covers costs at most 7 steps plus the closing step, and a later t
    extends the record from its end, solving only the steps after it.
    The result never depends on earlier calls: a copy of the profile with
    no record returns the same bits.  The Wronskian drift over [0, t] must
    stay within TOL_WRONSKIAN (WronskianDriftError, a NaN too).

    For the number force 0 beta is exactly 0 (0-0j), with no drive grid,
    whatever the profile.  t must be finite, and a given step 0 < step <=
    |t|, any step > 0 at t = 0 (ValueError); the default step is 1e-3, and
    a t below it takes one step of t.  step sets only the RK4 and Simpson
    grids, and MAX_STEPS bounds a grid where it is allocated (ValueError,
    before allocating), so a flow with no grid takes any finite t.  At
    t = 0 the seeded (1, 1j, 0) is returned unsolved.  A non-finite
    profile sample or drive integral raises EvaluationError.
    """
    omega, force = profile._omega, profile._force
    t, h = _time_and_step(t, step, omega is None)
    if t == 0.0:
        return 1.0 + 0.0j, 1.0j, 0.0 + 0.0j
    if omega is None:  # which reads t and the given step by the same rules
        eps, eps_dot, total, _ = _rk4_flow(profile, t, step)
        if total is None:
            return eps, eps_dot, _NO_SHIFT
        if not cmath.isfinite(total):
            raise EvaluationError(f"the drive integral over t in [0, {t:g}] overflows")
        return eps, eps_dot, -1j / math.sqrt(2.0) * total
    if not math.isfinite(omega * t):
        raise EvaluationError(f"the phase omega t of the flow overflows at omega = {omega:g}, t = {t:g}")
    if force is not None:
        return *_oscillator(omega, t), _constant_drive(omega, force, t)
    s = _drive_grid(t, h)
    total = _drive_integral(s, _oscillator(omega, s, np.cos, np.sin)[0], profile.force, t / (len(s) - 1))
    return *_oscillator(omega, t), complex(-1j / math.sqrt(2.0) * total)


def _time_and_step(t, step, forward: bool) -> tuple[float, float]:
    """t and the step of its flow, by :func:`flow_at`'s rules: t finite, and
    t >= 0 if forward (a flow solved from 0); a given step 0 < step <= |t|,
    any step > 0 at t = 0, else the default 1e-3 (ValueError)."""
    t, step = _float("t", t), _float("step", step)
    if not math.isfinite(t):
        raise ValueError(f"t={t!r} is not finite: the flow needs a finite t, "
                         "and t must be >= 0 for a profile without a closed form")
    if forward and t < 0.0:
        raise ValueError(f"t={t!r}: a profile without a closed form is solved forward from 0, "
                         "so t must be >= 0")
    if step is None:
        return t, _DEFAULT_STEP
    if not (step > 0.0 and (t == 0.0 or step <= abs(t))):
        raise ValueError(f"step={step!r} must satisfy 0 < step <= {'t' if t >= 0.0 else '-t'} (t={t!r})")
    return t, step


@dataclass(frozen=True)
class _FlowRecord:
    """The RK4 flow of one profile at one step, on the grid t_k = k step,
    at its checkpoints k = 0, _BLOCK, 2 _BLOCK, ...: (eps, eps_dot) there,
    the running maximum of the Wronskian drift |W - 2j| over every node up
    to each, and the Simpson integral of eps f from 0 to each (None for the
    number force 0).  56 bytes per checkpoint, so 7 per step; the arrays
    are read-only.  After the last checkpoint, the frontier of the
    transfer-matrix product (:func:`_block_products`) and the carry of the
    drive's running sum (:func:`_running_sum`), ~2 kB in all, let a
    later solve continue the record from there."""

    step: float
    states: np.ndarray  # (2, checkpoints), complex
    drift: np.ndarray  # (checkpoints,)
    drive: np.ndarray | None  # (checkpoints,), complex
    frontier: tuple = ()
    carry: tuple | None = None


def _solve_record(profile: DriveProfile, blocks: int, step: float) -> _FlowRecord:
    """The record of profile's flow at step up to checkpoint ``blocks``,
    which replaces the profile's record: that record extended if it has
    this step, else the record of checkpoint 0 (the seeded state, drift 0
    and drive 0).  One transfer-matrix solve (:func:`_flow`) takes the
    steps after its last checkpoint from the frontier there, so omega_sq
    and the force are sampled on those nodes alone, and the value at every
    node is the one a solve from 0 gives.  A non-finite omega_sq or force
    sample raises EvaluationError and keeps the record."""
    record = profile._record
    if record is None or record.step != step:
        forced = profile._force != 0.0
        record = _FlowRecord(step, np.array([[1.0 + 0.0j], [1.0j]]), np.zeros(1),
                             np.zeros(1, complex) if forced else None)
    done = len(record.drift) - 1
    n = _BLOCK * (blocks - done)
    t = np.arange(_BLOCK * done, _BLOCK * blocks + 1) * step
    # a product that overflows ends in inf/NaN, which the drift reports
    with np.errstate(over="ignore", invalid="ignore"):
        flow, frontier = _flow(profile.omega_sq, t, step, record.frontier)
        flow[:, 0] = record.states[:, -1]
        eps, eps_dot = flow[:, : n + 1]
        drift = _drift(eps[1:], eps_dot[1:]).reshape(-1, _BLOCK).max(axis=1)
        drive, carry = record.drive, None
        if drive is not None:
            g = eps * _on_grid(profile.force, t, "force")
            pairs = _simpson_pair(g[:-2:2], g[1:-1:2], g[2::2], step).reshape(-1, _BLOCK // 2)
            for k in range(1, _BLOCK // 2):  # the pairs of each block, in order
                pairs[:, 0] += pairs[:, k]
            sums, carry = _running_sum(pairs[:, 0], record.carry)
            drive = np.append(drive, sums)
    worst = np.maximum.accumulate(np.append(record.drift[-1], drift))
    states = np.append(record.states, [eps[_BLOCK::_BLOCK], eps_dot[_BLOCK::_BLOCK]], axis=1)
    record = _FlowRecord(step, states, np.append(record.drift, worst[1:]), drive, frontier, carry)
    for array in (record.states, record.drift, record.drive):
        if array is not None:
            array.flags.writeable = False
    object.__setattr__(profile, "_record", record)
    return record


def _running_sum(x: np.ndarray, carry: tuple | None = None) -> tuple[np.ndarray, tuple]:
    """The prefix sums of x, each within about one rounding of the exact one
    however long x is: np.cumsum's, plus the running sum of the exact error
    of each of its additions (Knuth's TwoSum); and the carry after x, those
    two running sums at its end.  Given the carry of the elements before x,
    the sums continue theirs, bit for bit.  (No TwoSum error is -0, so the
    error sum may start from 0.0.)"""
    if carry is not None:
        x = np.append(carry[0], x)
    s = np.cumsum(x)
    a, b, c = s[:-1], x[1:], s[1:]
    bb = c - a
    errors = np.cumsum(np.append(0.0 if carry is None else carry[1], (a - (c - bb)) + (b - bb)))
    after = s[-1], errors[-1]
    s[1:] += errors[1:]
    return (s if carry is None else s[1:]), after


def _simpson_pair(g0, g1, g2, h):
    """Simpson's rule over two steps of length h with the values g0, g1, g2."""
    return (h / 3.0) * (g0 + 4.0 * g1 + g2)


def _rk4_flow(
    profile: DriveProfile, t: float, step: float | None = None, tol: float = TOL_WRONSKIAN
) -> tuple[complex, complex, complex | None, float]:
    """(eps, eps_dot, integral_0^t eps f, drift) of profile's RK4 flow at
    t >= 0, with t and step by :func:`flow_at`'s rules; the integral is
    None for the number force 0, and drift is the largest |W - 2j| over
    the nodes in [0, t] and t itself, which must not exceed tol
    (WronskianDriftError, a NaN too).

    The time rule: n = floor(t / step) full steps of the grid t_k = k step
    (a t within rounding of node n is that node), then one closing step of
    t - n step, the RK4 step of :func:`_rk4_steps` either way.  The state
    at the checkpoint 8 floor(n / 8) comes from the profile's record,
    which :func:`_solve_record` extends up to that checkpoint if it ends
    before it, or replaces by a solve from 0 if it has another step; the
    at most 7 steps after it and the closing step are taken here, with one
    sample of omega_sq and one of the force.  The drive integral adds
    Simpson's rule over pairs of those steps and one 3-point rule, on
    Hermite-interpolated eps, over the rest of [0, t].  Every gate reads
    [0, t] alone: MAX_STEPS, a non-finite sample (EvaluationError) and the
    drift, so a profile with a record gives what a fresh copy gives.
    """
    t, step = _time_and_step(t, step, True)
    _check_steps(t, step)
    n = math.floor(t / step * (1.0 + 1e-12))
    blocks, m = divmod(n, _BLOCK)
    drive = None if profile._force == 0.0 else 0.0j
    e, d, worst = 1.0 + 0.0j, 1.0j, 0.0
    if blocks:
        record = profile._record
        if record is None or record.step != step or blocks >= len(record.drift):
            record = _solve_record(profile, blocks, step)
        e, d = record.states[:, blocks].tolist()
        worst = float(record.drift[blocks])
        if drive is not None:
            drive = complex(record.drive[blocks])
    # the m steps after the checkpoint, then the closing step, in floats
    delta = t - n * step
    h = [step] * m + ([delta] if delta else [])
    nodes = [(n - m + k) * step for k in range(m + 1)] + ([t] if delta else [])
    eps, eps_dot = [e], [d]
    if h:
        w = _on_grid(profile.omega_sq, np.array(nodes + [a + 0.5 * b for a, b in zip(nodes, h)]),
                     "omega_sq").tolist()
        for k, hk in enumerate(h):
            a00, a01, a10, a11 = _rk4_step(w[k], w[len(nodes) + k], w[k + 1], hk)
            e, d = e + (a00 * e + a01 * d), d + (a10 * e + a11 * d)
            eps.append(e)
            eps_dot.append(d)
    for x in map(_drift, eps, eps_dot):
        if x > worst or x != x:  # a NaN stays
            worst = x
    if not worst <= tol:  # a NaN drift fails too
        raise WronskianDriftError(worst, tol)
    if drive is not None:
        drive = _drive_tail(profile.force, drive, eps, eps_dot, nodes, h, m - m % 2, t)
    return eps[-1], eps_dot[-1], drive, worst


def _drive_tail(force, drive, eps, eps_dot, nodes, h, p, t):
    """drive, the integral of eps f up to nodes[0], plus the rest of it up
    to t: Simpson's rule over the first p steps h (p even), then one
    3-point rule over [nodes[p], t], its midpoint eps interpolated in step
    p.  eps and eps_dot hold the states at the nodes, then at t; the force
    is sampled once, at nodes[:p + 1] and the rule's midpoint and t."""
    span = t - nodes[p]
    s = nodes[: p + 1] + ([nodes[p] + 0.5 * span, t] if span else [])
    f = _on_grid(force, np.array(s), "force").tolist()
    g = [x * y for x, y in zip(eps[: p + 1], f)]
    for i in range(0, p, 2):
        drive += _simpson_pair(g[i], g[i + 1], g[i + 2], h[i])
    if span:
        mid = _hermite(eps[p], eps_dot[p], eps[p + 1], eps_dot[p + 1], h[p], 0.5 * span / h[p])
        drive += _simpson_pair(g[p], mid * f[p + 1], eps[-1] * f[p + 2], 0.5 * span)
    return drive


def _oscillator(omega: float, t, cos=math.cos, sin=math.sin):
    """(eps, eps_dot) of the constant frequency omega >= 0 at t, any real t:
    (cos wt + 1j sin(wt) / w, -w sin wt + 1j cos wt), and (1 + 1j t, 1j) at
    w = 0.  The one formula of the oscillator's flow; t is a float with
    math's cos and sin, so complex(cos t, sin t) is cmath.exp(1j t) bit for
    bit at w = 1, or an array with numpy's."""
    if omega == 0.0:
        return 1.0 + 1j * t, 1j
    c, s = cos(omega * t), sin(omega * t)
    return c + 1j * (s / omega), 1j * c - omega * s


def _constant_drive(omega: float, force: float, t: float) -> complex:
    """beta at t of the constant force on the constant frequency omega >= 0,
    any real t, exactly: -(1j / sqrt 2) force times

        integral_0^t eps = sin(wt) / w + 2j (sin(wt/2) / w)^2,

    t + 1j t^2 / 2 at w = 0, the imaginary part (1 - cos wt) / w^2 written
    so that it does not cancel at small wt.  The force 0 gives _NO_SHIFT,
    and a force times the integral that overflows raises EvaluationError."""
    if force == 0.0:
        return _NO_SHIFT
    if omega == 0.0:
        integral = complex(t, 0.5 * t * t)
    else:
        half = math.sin(0.5 * omega * t) / omega
        integral = complex(math.sin(omega * t) / omega, 2.0 * half * half)
    total = complex(force * integral.real, force * integral.imag)
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise EvaluationError(f"the drive integral over t in [0, {t:g}] overflows")
    return complex(-1j / math.sqrt(2.0) * total)


def _drive_grid(t: float, step: float) -> np.ndarray:
    """The nodes of the closed-form flows' drive quadrature: 2 max(1,
    round(|t| / 2 step)) uniform steps from 0 to t (t < 0 too), after the
    MAX_STEPS check of :func:`_check_steps`."""
    _check_steps(abs(t), step)
    return np.linspace(0.0, t, 2 * max(1, round(abs(t) / (2.0 * step))) + 1)


def parametric_resonance_epsilon(k: float, t):
    """Closed-form weak-resonance approximation for eps and its derivative.

    For the profile omega_sq(t) = 1 + k cos 2t of
    :meth:`DriveProfile.parametric_resonance`, with |k| << 1,

        eps(t) = cosh(kt/4) e^{it} - 1j sinh(kt/4) e^{-it},

    and the returned eps_dot is the exact time derivative of that
    expression (not the derivative of the true solution).  At k = 0 this
    reduces to exp(1j t).  k must lie in (-0.5, 0.5), and t be finite
    (ValueError naming the first non-finite t).  cosh and sinh of kt/4
    overflow double precision once |kt/4| exceeds ~710 (k = 0.3 at
    t = 1e4); a t where eps or eps_dot is not finite raises
    EvaluationError naming k and that t.

    The squared modulus of the approximation is
    ``|eps|^2 = cosh(kt/2) - sinh(kt/2) sin(2t)``; the 1/|r| envelope seen
    in constant-frame tomogram plots should be computed from eps via this
    route rather than from any further simplified expression.
    """
    k = _resonance_k(k)
    t = np.asarray(_float("t", t), dtype=float)
    finite = np.isfinite(t)
    if not finite.all():
        _raise_first(ValueError, "t must be finite, got {!r}", ~finite, t)
    with np.errstate(over="ignore", invalid="ignore"):
        ch, sh = np.cosh(k * t / 4.0), np.sinh(k * t / 4.0)
        fwd, bwd = np.exp(1j * t), np.exp(-1j * t)
        eps = ch * fwd - 1j * sh * bwd
        eps_dot = (1j * ch + (k / 4.0) * sh) * fwd - (sh + 1j * (k / 4.0) * ch) * bwd
    overflowed = ~(np.isfinite(eps) & np.isfinite(eps_dot))
    if overflowed.any():
        _raise_first(EvaluationError, f"the resonance closed form at k = {k:g} overflows "
                     "double precision at t = {:g}", overflowed, t)
    if np.ndim(eps):
        return eps, eps_dot
    return complex(eps), complex(eps_dot)


def _resonance_k(k) -> float:
    """k as a float, inside the weak-modulation range (-0.5, 0.5) of the
    resonance profile and its closed form (else ValueError)."""
    k = float(_float("k", k))
    if not -0.5 < k < 0.5:
        raise ValueError(f"parametric resonance requires k in (-0.5, 0.5), got {k}")
    return k


def hermite(n: int, y):
    """Physicists' Hermite polynomial H_n(y) by three-term recurrence.

    H_0 = 1, H_1 = 2y, H_{n+1} = 2y H_n - 2n H_{n-1}.  Guarded at
    n <= MAX_HERMITE_ORDER.  The bare polynomial overflows double
    precision at large n or |y| (n = 3 at y = 1e200, n = 200 at y = 30);
    a finite y whose H_n is not finite raises EvaluationError naming n and
    y.  Combine with the Gaussian weight through :func:`hermite_gauss`
    instead, which stays finite for all supported n and y.
    """
    n = _check_order(n)
    y = np.asarray(_real("y", y), dtype=float)
    h_prev = np.ones_like(y)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    with np.errstate(over="ignore", invalid="ignore"):
        h = 2.0 * y
        for j in range(1, n):
            h, h_prev = 2.0 * y * h - 2.0 * j * h_prev, h
    overflowed = np.isfinite(y) & ~np.isfinite(h)
    if overflowed.any():
        _raise_first(EvaluationError, f"H_{n}(y) overflows double precision at y = {{:g}}; "
                     "use hermite_gauss for the weighted function", overflowed, y)
    return h if h.ndim else float(h)


def hermite_gauss(n: int, y):
    """L2-normalised Hermite function H_n(y) e^{-y^2/2} / sqrt(n! 2^n sqrt(pi)).

    Evaluated with a scaled recurrence that keeps every intermediate on
    the order of one, so it stays finite for all supported n and y.  An
    array y is read in C order 2^14 values at a time: the recurrence runs
    in place in three 128 KiB chunk buffers, allocated once per call, and
    each chunk's result is written into the new array returned, so the
    working set stays in cache and no full-size temporary is held beside
    the result.  A Python float y (an int read as its float) runs the same
    operations in the same order on floats, :func:`_hermite_gauss_float`,
    so every shape gives the same bits; that float recurrence stays because
    the chunked code costs a float 10-29 us at n = 0-6 against 0.5-1.2 us
    (2-core Xeon), and a body shared by floats and chunks slowed both.
    Any other scalar y runs the array recurrence on a 1-element array.  y
    is read by the sample rule, :func:`_real`, and not checked otherwise:
    a NaN in it gives NaN where it stands, and every |y| past 1.34e154,
    inf too, gives 0, with no overflow.
    """
    n = _check_order(n)
    y = _real("y", y)
    if type(y) is float:
        return _hermite_gauss_float(n, y)
    u = _hermite_gauss_array(n, np.asarray(y, dtype=float))
    return u if u.ndim else float(u)


def _hermite_gauss_float(n: int, y: float) -> float:
    """The recurrence of :func:`_hermite_gauss_array` on one float, each
    step the same operations in the same order, and numpy's exp."""
    if abs(y) > _HERMITE_Y_MAX:  # a NaN stays NaN
        y = math.copysign(_HERMITE_Y_MAX, y)
    u_prev = float(np.exp(-0.5 * y * y)) * np.pi ** -0.25
    if n == 0:
        return u_prev
    u = math.sqrt(2.0) * y * u_prev
    for j in range(1, n):
        u_prev, u = u, math.sqrt(2.0 / (j + 1)) * y * u - u_prev * math.sqrt(j / (j + 1))
    return u


def _hermite_gauss_array(n: int, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The recurrence of :func:`hermite_gauss` over y in C order, _HERMITE_CHUNK
    values at a time, in three chunk buffers allocated once per call.  Each
    chunk's result is written into ``out``: a fresh array of y's shape unless
    given, and a given one is C-contiguous of y's shape, y itself allowed, as
    a chunk is read in full before its result is written.  A chunk with values
    past +-_HERMITE_Y_MAX (or NaN) is clipped to it first: every Hermite
    function is 0 there already, and past it y^2 and sqrt(2) y would overflow.
    Every step is elementwise, so the chunks change no bit."""
    if out is None:
        out = np.empty(y.shape)
    src, dst = y.reshape(-1), out.reshape(-1)  # src copies a y that is not C-contiguous
    buffers = np.empty((3, min(src.size, _HERMITE_CHUNK)))
    for i in range(0, src.size, _HERMITE_CHUNK):
        yc = src[i:i + _HERMITE_CHUNK]
        if not -_HERMITE_Y_MAX <= yc.min() <= yc.max() <= _HERMITE_Y_MAX:
            yc = np.clip(yc, -_HERMITE_Y_MAX, _HERMITE_Y_MAX)
        u_prev, u, nxt = buffers[:, :yc.size]
        np.multiply(-0.5, yc, out=u_prev)
        u_prev *= yc
        np.exp(u_prev, out=u_prev)
        u_prev *= np.pi ** -0.25
        if n == 0:
            dst[i:i + yc.size] = u_prev
            continue
        np.multiply(math.sqrt(2.0), yc, out=u)
        u *= u_prev
        for j in range(1, n):
            np.multiply(math.sqrt(2.0 / (j + 1)), yc, out=nxt)
            nxt *= u
            u_prev *= math.sqrt(j / (j + 1))
            nxt -= u_prev
            u_prev, u, nxt = u, nxt, u_prev
        dst[i:i + yc.size] = u
    return out


def _integer(name: str, value, least: int) -> int:
    """An integral real value >= least as int (3.0 as 3); else ValueError naming it."""
    try:
        if int(value) == value >= least:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # nan, inf, a complex
        pass
    raise ValueError(f"{name} must be at least {least} and a whole number, got {value!r}")


def _float(name: str, value):
    """The one rule for a real or complex scalar argument: a Python int (a
    bool too) is the float it converts to, and one past the double range
    raises ValueError naming it, where numpy would read an int past the
    int64 range as an object array and float() raise OverflowError.  Any
    other value, an array among them, is returned as it is."""
    if not isinstance(value, int):
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an int past the double range") from None


def _float_array(name: str, value) -> np.ndarray:
    """``value`` as a float array by the number rule of :func:`_float`: an
    int past the double range, which numpy keeps in an object array where it
    is past the int64 range, raises ValueError naming the argument instead
    of numpy's OverflowError."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an int past the double range") from None


def _real(name: str, value):
    """The one rule for a sample coordinate, a scalar or an array of them:
    the number rule of :func:`_float`, then TypeError naming the argument
    for None, a str, a complex value or any object that numpy does not read
    as bools, ints or floats, scalar and array alike.  Real values, NaN and
    lists of them are returned as :func:`_float` returns them, except that
    reals numpy reads only as objects (ints past the int64 range) are
    returned as their float array, :func:`_float_array`."""
    value = _float(name, value)
    if type(value) is float:
        return value
    array = np.asarray(value)
    if array.dtype.kind in "biuf":
        return value
    if array.dtype.kind == "O" and all(isinstance(v, Real) for v in array.flat):
        return _float_array(name, array)
    got = f"an array of {array.dtype}" if array.ndim or isinstance(value, np.ndarray) else type(value).__name__
    raise TypeError(f"{name} must be a real number or an array of real numbers, got {got}")


def _check_order(n) -> int:
    n = _integer("order", n, 0)
    if n > MAX_HERMITE_ORDER:
        raise UnsupportedOrderError(f"order {n} above supported maximum {MAX_HERMITE_ORDER}")
    return n
