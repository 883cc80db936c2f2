"""Closed-form marginal distribution functions (tomograms) and wavefunctions.

The marginal distribution function w(X, mu, nu, t) is the probability
density of the quadrature X = mu*q + nu*p measured in the rotated/scaled
phase-space frame labelled by (mu, nu).  All states here are expressed
through the auxiliary solution (eps, eps_dot) and the drive shift beta of
:mod:`osctomo.dynamics`; passing (eps, eps_dot, beta) = (1, 1j, 0)
evaluates the t = 0 forms, so no separate initial-time code path exists.

Shared frame quantities:

    r     = eps_dot * nu + eps * mu          (must be nonzero)
    gamma = alpha - beta
    Y     = (beta* r + beta r* + sqrt(2) X) / (sqrt(2) |r|)   (real)

The coherent tomogram is the normal density with

    mean      <X>   = sqrt(2) Re(gamma * conj(r))
    variance  sig^2 = |r|^2 / 2,

the Fock tomogram is w_n = hermite_gauss(n, Y)^2 / |r|, and the cross
terms carry the unit phases (r*/|r|)^n (r/|r|)^m on top of the same
Hermite-Gauss profile.

Every closed form takes r from one kernel, which holds eps, eps_dot and
the frame to the package's rules, and checks beta (and alpha) beside it:
a non-finite eps, eps_dot, beta, mu or nu (or alpha) raises ValueError
naming it, an array argument its first such entry in C order, and the
frame (0, 0) raises the zero-frame ValueError of the CLI, the transforms
and the propagator.  The sample array X is
not checked: a NaN in it gives NaN where it stands.  Every scalar
argument, X among them, is read by the package's number rule
(:func:`osctomo.dynamics._float`): a Python int is the float it converts
to, and one past the double range raises ValueError naming it.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Callable

import numpy as np

from .dynamics import _float, _raise_first, hermite_gauss
from .errors import DegenerateFrameError, EvaluationError

__all__ = [
    "coherent_mdf",
    "mean_X",
    "variance_X",
    "coherent_mdf_fourier",
    "fourier_ladder_apply",
    "annihilation_eigencheck",
    "fock_mdf",
    "cross_mdf",
    "coherent_wavefunction",
]

_SQRT2 = math.sqrt(2.0)
_R_TOL = 1e-12
_SQRT_MAX = math.sqrt(sys.float_info.max)  # the largest |r| whose |r|^2 is finite


def _finite(**values) -> tuple:
    """The values as the number rule, :func:`_float`, reads them; ValueError
    naming the first real or complex value, or array entry, that is not
    finite."""
    read = []
    for name, value in values.items():
        value = _float(name, value)
        if isinstance(value, (float, complex)) or not np.ndim(value):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        elif not (finite := np.isfinite(value)).all():
            _raise_first(ValueError, f"{name} must be finite, got {{!r}}", ~finite, value)
        read.append(value)
    return tuple(read)


def _check_point(X, mu, nu):
    """The one rule for a tomographic point: ValueError naming the first
    point (X, mu, nu) with a coordinate that is not finite, then the rule
    of :func:`_check_frame`; returns (X, mu, nu) with Python ints as floats.

    X, mu and nu are floats or arrays that broadcast; the first bad point
    in C order is named with float coordinates, so a float call and an
    array holding that point give the same message.  An int is read by the
    number rule, :func:`_float`.  Finite floats skip the array calls, which
    would cost a one-point caller several times the check itself.
    """
    X, mu, nu = _float("X", X), _float("mu", mu), _float("nu", nu)
    floats = isinstance(X, float) and isinstance(mu, float) and isinstance(nu, float)
    if not (floats and math.isfinite(X) and math.isfinite(mu) and math.isfinite(nu)):
        finite = np.isfinite(X) & np.isfinite(mu) & np.isfinite(nu)
        if np.count_nonzero(finite) != finite.size:
            _raise_first(ValueError, "(X, mu, nu) = ({}, {}, {}) must be finite", ~finite, X, mu, nu)
    _check_frame(mu, nu)
    return X, mu, nu


def _check_frame(mu, nu) -> None:
    """ValueError for (0, 0), or a frame so small that mu^2 + nu^2 is 0.

    mu and nu are floats or arrays that broadcast; one such frame among
    them raises.  A square past the double range is inf, so no zero frame;
    on numpy values it warns unless the caller ignores overflow.
    """
    if np.count_nonzero(mu * mu + nu * nu == 0.0):
        raise ValueError("frame (mu, nu) = (0, 0) is not a valid tomographic frame")


def _frame_r(eps, eps_dot, mu, nu):
    """r = eps_dot*nu + eps*mu of a flow and a frame, under the package's
    rules for both: a non-finite eps, eps_dot, mu or nu raises ValueError
    naming it (an array its first such entry), the frame (0, 0) raises the
    ValueError of :func:`_check_frame`, and a vanishing r
    DegenerateFrameError.
    """
    _finite(eps=eps, eps_dot=eps_dot, mu=mu, nu=nu)
    with np.errstate(over="ignore"):  # a square past the double range is no zero frame
        _check_frame(np.asarray(mu, dtype=float), np.asarray(nu, dtype=float))
    r = eps_dot * np.asarray(nu, dtype=complex) + eps * np.asarray(mu, dtype=complex)
    if np.any(np.abs(r) < _R_TOL):
        raise DegenerateFrameError(
            "frame coefficient r = eps_dot*nu + eps*mu vanished; the tomogram "
            "kernel is degenerate for this (mu, nu)"
        )
    return r


def _coherent_mean(alpha, beta, r):
    """<X> = sqrt(2) Re[(alpha - beta) conj(r)]; ValueError naming a label,
    alpha or beta, that is not finite."""
    _finite(alpha=alpha, beta=beta)
    return _SQRT2 * np.real((complex(alpha) - complex(beta)) * np.conj(r))


def _coherent_moments(alpha, eps, eps_dot, beta, mu, nu):
    """The coherent tomogram's mean <X> and |r|^2 = 2 Var X.

    A frame whose |r|^2 overflows raises EvaluationError naming the first
    such (mu, nu) in C order, with float coordinates.  |r| is compared
    before squaring, so no RuntimeWarning escapes, and a float frame's
    comparison is a numpy bool tested without an array call.
    """
    r = _frame_r(eps, eps_dot, mu, nu)
    abs_r = np.abs(r)
    over = abs_r > _SQRT_MAX
    if np.count_nonzero(over) if over.ndim else over:
        _raise_first(EvaluationError, "frame (mu, nu) = ({}, {}): |r|^2 = |eps_dot nu + eps mu|^2 "
                     "overflows double precision", over, mu, nu)
    return _coherent_mean(alpha, beta, r), abs_r**2


def _frame_kernel(eps, eps_dot, beta, X, mu, nu):
    """(r, |r|, Y) of the Fock and cross tomograms, Y in one full-size array.

    ``r`` broadcasts with mu/nu and ``Y`` with X and r; Y is 0-d when all
    three are scalars.  ValueError if beta is not finite; EvaluationError
    naming the first frame whose shift 2 Re(conj(beta) r) overflows.
    """
    _finite(beta=beta)
    r = _frame_r(eps, eps_dot, mu, nu)
    abs_r = np.abs(r)
    X = np.asarray(_float("X", X), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        shift = 2.0 * np.real(np.conj(beta) * r)
    overflowed = ~np.isfinite(shift)
    if overflowed.any():
        _raise_first(EvaluationError, "frame (mu, nu) = ({}, {}): the shift 2 Re(conj(beta) r) "
                     "overflows double precision", overflowed, mu, nu)
    Y = np.multiply(_SQRT2, X, out=np.empty(np.broadcast(X, r).shape))
    Y += shift
    Y /= _SQRT2 * abs_r
    return r, abs_r, Y


def mean_X(alpha, eps, eps_dot, beta, mu, nu):
    """<X> = sqrt(2) Re[(alpha - beta) conj(r)]; it needs no |r|^2, so a frame
    whose |r|^2 overflows keeps its mean."""
    return _coherent_mean(alpha, beta, _frame_r(eps, eps_dot, mu, nu))


def variance_X(eps, eps_dot, mu, nu):
    """Var X = |eps_dot*nu + eps*mu|^2 / 2 (independent of the state label)."""
    return 0.5 * _coherent_moments(0.0, eps, eps_dot, 0.0, mu, nu)[1]


def coherent_mdf(alpha, eps, eps_dot, beta, X, mu, nu):
    """Tomogram of the coherent state alpha: a normal density in X.

    Vectorised over X (and over mu/nu as long as r stays away from zero).
    """
    m, s = _coherent_moments(alpha, eps, eps_dot, beta, mu, nu)
    diff = np.asarray(_float("X", X), dtype=float) - m
    # the allocating operations in place on one full-size array (1 element for scalars)
    out = np.atleast_1d(diff)
    with np.errstate(over="ignore"):  # an exponent past -1e308 is -inf, and exp gives the 0
        np.square(out, out=out)
        out /= -s  # the sign is exact, so this is -(diff^2) / s bit for bit
    np.exp(out, out=out)
    out /= np.sqrt(np.pi * s)
    return out if np.ndim(diff) else out[0]


def coherent_mdf_fourier(k, alpha, eps, eps_dot, beta, mu, nu):
    """Characteristic-function form of the coherent tomogram.

    w_k = exp(-k^2 |r|^2 / 4 - 1j k <X>), normalised so w_0 = 1; the
    inverse transform w(X) = (2 pi)^-1 integral w_k e^{1j k X} dk
    reproduces :func:`coherent_mdf`.  Satisfies conj(w_k) = w_{-k}.

    In the scaled variables (y, z) = (k mu, k nu) the quadratic part of
    the exponent at t = 0 reads -(y^2 + z^2)/4, i.e. the Gaussian ansatz
    coefficients are c = d = -1/4 with no cross term.  A finite k whose
    exponent leaves the double range (k^2 past it among them) raises
    EvaluationError naming it, the first such k of an array in C order,
    with no RuntimeWarning.
    """
    m, s = _coherent_moments(alpha, eps, eps_dot, beta, mu, nu)
    k = np.asarray(_float("k", k), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        exponent = -0.25 * k * k * s - 1j * k * m
    overflowed = np.isfinite(k) & ~np.isfinite(exponent)
    if np.count_nonzero(overflowed):
        _raise_first(EvaluationError, "coherent characteristic function overflows double precision "
                     "at k = {:g}", overflowed, k)
    out = np.exp(exponent)
    return out if out.ndim else complex(out)


def fourier_ladder_apply(
    wk: Callable[[float, float], complex],
    eps: complex,
    eps_dot: complex,
    y: float,
    z: float,
    h: float,
) -> complex:
    """Apply the Fourier-space ladder operator to a tomogram transform.

    The operator, acting on functions of the scaled variables
    (y, z) = (k mu, k nu), is

        (1j/2)(eps y + eps_dot z) + eps_dot d/dy - eps d/dz,

    with the derivatives realised as central differences of step h.  On a
    coherent transform its eigenvalue is sqrt(2) (alpha - beta): this is
    the tomogram-native statement of coherence in the one space where the
    inverse X-derivative is algebraic.
    """
    eps, eps_dot = _float("eps", eps), _float("eps_dot", eps_dot)
    y, z, h = _float("y", y), _float("z", z), _float("h", h)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and positive, got {h!r}")
    d_y = (wk(y + h, z) - wk(y - h, z)) / (2.0 * h)
    d_z = (wk(y, z + h) - wk(y, z - h)) / (2.0 * h)
    return 0.5j * (eps * y + eps_dot * z) * wk(y, z) + eps_dot * d_y - eps * d_z


def annihilation_eigencheck(alpha, eps, eps_dot, beta, mu, nu, k, h) -> complex:
    """Residual of the coherence eigen-equation in Fourier space.

    Returns (ladder operator applied to w_k) - sqrt(2) gamma w_k at the
    point (y, z) = (k mu, k nu) with central differences of step h; the
    exact residual is zero, so the returned value is O(h^2).  A k whose
    w_k overflows raises EvaluationError naming it, as
    :func:`coherent_mdf_fourier` does.
    """
    k = float(_float("k", k))
    if not (math.isfinite(k) and k != 0.0):
        raise ValueError(f"k must be finite and nonzero (the scaled variables divide by k), got {k!r}")
    eps, eps_dot, mu, nu, alpha, beta = _finite(eps=eps, eps_dot=eps_dot, mu=mu, nu=nu, alpha=alpha, beta=beta)

    def wk(y: float, z: float) -> complex:
        return complex(
            coherent_mdf_fourier(k, alpha, eps, eps_dot, beta, y / k, z / k)
        )

    y, z = k * float(mu), k * float(nu)
    gamma = complex(alpha) - complex(beta)
    applied = fourier_ladder_apply(wk, complex(eps), complex(eps_dot), y, z, h)
    return applied - _SQRT2 * gamma * wk(y, z)


def fock_mdf(n: int, eps, eps_dot, beta, X, mu, nu):
    """Tomogram of the n-th excited state: hermite_gauss(n, Y)^2 / |r|.

    For f = 0 and constant unit frequency this depends on (X, mu, nu)
    only through X / sqrt(mu^2 + nu^2).
    """
    _, abs_r, Y = _frame_kernel(eps, eps_dot, beta, X, mu, nu)
    out = hermite_gauss(n, np.atleast_1d(Y))
    np.square(out, out=out)
    out /= abs_r
    return out if Y.ndim else out[0]


def cross_mdf(n: int, m: int, eps, eps_dot, beta, X, mu, nu):
    """Off-diagonal tomogram w_nm between Fock states n and m.

    w_nm = hermite_gauss(n, Y) hermite_gauss(m, Y) e^{1j (m-n) arg r} / |r|;
    Hermitian in (n, m): w_nm = conj(w_mn).  The coherent tomogram is
    recovered from the double series

        w_alpha = e^{-|alpha|^2} sum_{n,m} alpha^n conj(alpha)^m
                  / sqrt(n! m!) * w_nm.
    """
    r, abs_r, Y = _frame_kernel(eps, eps_dot, beta, X, mu, nu)
    phase = np.exp(1j * (m - n) * np.angle(r))
    return hermite_gauss(n, Y) * hermite_gauss(m, Y) * phase / abs_r


def coherent_wavefunction(alpha, eps, eps_dot, beta, x):
    """Normalised coherent wavefunction in the position representation.

    psi_alpha(x) = (pi |eps|^2)^{-1/4}
                   exp{-[gamma eps* + gamma* eps]^2 / (4 |eps|^2)}
                   exp{1j x^2 eps_dot / (2 eps) + sqrt(2) gamma x / eps},

    with gamma = alpha - beta and the free global phase fixed to zero.
    The tomogram and density matrix built from psi are blind to that
    choice.  A non-finite alpha, eps, eps_dot or beta raises ValueError
    naming it.  An eps whose |eps|^2 overflows, or a finite x where psi
    does (x^2 past the double range among them), raises EvaluationError
    naming it, the first such x of an array in C order, with no
    RuntimeWarning; x is not checked otherwise, so a NaN in it gives NaN.
    """
    alpha, eps, eps_dot, beta = _finite(alpha=alpha, eps=eps, eps_dot=eps_dot, beta=beta)
    eps, eps_dot = complex(eps), complex(eps_dot)
    if abs(eps) < _R_TOL:
        raise DegenerateFrameError("eps = 0; wavefunction gauge is degenerate")
    if abs(eps) > _SQRT_MAX:
        raise EvaluationError(f"eps = {eps!r}: |eps|^2 overflows double precision")
    gamma = complex(alpha) - complex(beta)
    ae2 = abs(eps) ** 2
    real_comb = 2.0 * (gamma * eps.conjugate()).real  # gamma eps* + gamma* eps
    prefactor = (np.pi * ae2) ** -0.25 * math.exp(-(real_comb**2) / (4.0 * ae2))
    x = np.asarray(_float("x", x), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        out = prefactor * np.exp(0.5j * x * x * eps_dot / eps + _SQRT2 * gamma * x / eps)
    overflowed = np.isfinite(x) & ~np.isfinite(out)
    if np.count_nonzero(overflowed):
        _raise_first(EvaluationError, "coherent wavefunction overflows double precision at x = {:g}",
                     overflowed, x)
    return out if out.ndim else complex(out)
