"""Closed-form marginal distribution functions (tomograms) and wavefunctions.

The marginal distribution function w(X, mu, nu, t) is the probability
density of the quadrature X = mu*q + nu*p measured in the rotated/scaled
phase-space frame labelled by (mu, nu).  All states here are expressed
through the auxiliary solution (eps, eps_dot) and the drive shift beta of
:mod:`osctomo.dynamics`; passing (eps, eps_dot, beta) = (1, 1j, 0)
evaluates the t = 0 forms, so no separate initial-time code path exists.

Every closed form reads one kernel, :func:`_frame_kernel`, which gives

    r     = eps_dot * nu + eps * mu          (must be nonzero)
    |r|   = hypot(Re r, Im r)
    <X>   = sqrt(2) Re((alpha - beta) conj(r))
          = sqrt(2) (Re gamma Re r + Im gamma Im r),   gamma = alpha - beta

and then the pulled-back quadrature Y = (X - <X>) / |r|.  The coherent
tomogram is w_alpha = exp(-Y^2) / (sqrt(pi) |r|), the normal density
with mean <X> and variance |r|^2 / 2.  The Fock tomogram is
w_n = hermite_gauss(n, Y)^2 / |r| at alpha = 0, and the cross terms
carry the unit phases (r*/|r|)^n (r/|r|)^m on top of the same
Hermite-Gauss profile.  A coherent state is the vacuum displaced by
alpha, so w_alpha at beta is w_0 at beta - alpha: the two share one <X>.

The kernel holds eps, eps_dot and the frame to the package's rules, and
checks alpha and beta beside them: a non-finite eps, eps_dot, beta, mu
or nu (or alpha) raises ValueError naming it, an array argument its
first such entry in C order, and the frame (0, 0) raises the zero-frame
ValueError of the CLI, the transforms and the propagator.  One overflow
rule holds for every closed form: an <X> that is not finite raises
EvaluationError naming the first such frame, and no RuntimeWarning
escapes.  Only variance_X, whose value is |r|^2 / 2, also names a frame
whose |r|^2 overflows; the tomograms divide by |r| and never square it,
and a Y far past the mass gives 0.  The sample array X is not checked: a
NaN in it gives NaN where it stands.  Every scalar argument is read by
the package's number rule (:func:`osctomo.dynamics._float`): a Python int
is the float it converts to, and one past the double range raises
ValueError naming it.  A sample coordinate (X, the Fourier form's k, the
wavefunction's x) is read by the sample rule
(:func:`osctomo.dynamics._real`) too: None, a str, a complex value or any
other object that is not real numbers raises TypeError naming it, as a
scalar or as an array.

One body for every shape: the kernel, Y and the tails of the closed
forms are real float64 operations, with |r| by np.hypot and numpy's exp,
so a point gives the same bits as Python numbers, as a 0-d array, as a
1-element array and as any entry of a larger array, in frame or flow
columns too.  Where every argument is a Python number (an int read as
its float), that body runs on Python floats, which never warn, and gives
the type of the 0-d array call (np.float64 where that call gives one);
a point that fails a check, or whose |r| could overflow, is computed
again as 0-d arrays, which raise the array call's error.  Only arrays
and numpy scalars are read by np.asarray and computed under errstate.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Callable

import numpy as np

from .dynamics import _check_order, _float, _float_array, _hermite_gauss_array, _raise_first, _real, hermite_gauss
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
_SQRT_PI = math.sqrt(math.pi)
_R_TOL = 1e-12
_SQRT_MAX = math.sqrt(sys.float_info.max)  # the largest |r| whose |r|^2 is finite
_NUMBERS = {float, complex}  # the types the kernel computes on as they are: Python numbers, not numpy scalars
_SQUARE_OVERFLOWS = "frame (mu, nu) = ({}, {}): |r|^2 = |eps_dot nu + eps mu|^2 overflows double precision"


def _finite(**values) -> tuple:
    """The values as the number rule, :func:`_float`, reads them; ValueError
    naming the first real or complex value, or array entry, that is not
    finite, as a float or complex, so a float and a 0-d array read alike.
    A list or tuple that numpy reads only as objects (one holding an int
    past the int64 range) is read as its float array, :func:`_float_array`."""
    read = []
    for name, value in values.items():
        value = _float(name, value)
        if isinstance(value, (float, complex)) or not np.ndim(value):
            finite = cmath.isfinite(value)
        else:
            if (array := np.asarray(value)).dtype.kind == "O":  # ints past the int64 range
                value = _float_array(name, array)
            finite = np.isfinite(value).all()
        if not finite:
            _raise_first(ValueError, f"{name} must be finite, got {{!r}}", ~np.isfinite(value), value)
        read.append(value)
    return tuple(read)


def _check_point(X, mu, nu):
    """The one rule for a tomographic point: ValueError naming the first
    point (X, mu, nu) with a coordinate that is not finite, then the rule
    of :func:`_check_frame`; returns (X, mu, nu) with Python ints as floats
    and a list or tuple as the float array it holds.

    X, mu and nu are floats or arrays that broadcast; the first bad point
    in C order is named with float coordinates, so a float call and an
    array holding that point give the same message.  Each coordinate is
    read by the sample rule, :func:`_real`, which reads an int as its float
    and names one that is not real numbers.  Finite floats skip the array
    calls, which would cost a one-point caller several times the check
    itself.
    """
    X, mu, nu = _real("X", X), _real("mu", mu), _real("nu", nu)
    floats = isinstance(X, float) and isinstance(mu, float) and isinstance(nu, float)
    if not (floats and math.isfinite(X) and math.isfinite(mu) and math.isfinite(nu)):
        X, mu, nu = (np.asarray(v, dtype=float) if isinstance(v, (list, tuple)) else v for v in (X, mu, nu))
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


def _frame_kernel(alpha, eps, eps_dot, beta, mu, nu):
    """(Re r, Im r, |r|, <X>) of a flow and a frame: the one kernel of every closed form.

    r = eps_dot*nu + eps*mu, |r| = hypot(Re r, Im r) and <X> = sqrt(2)
    Re((alpha - beta) conj(r)) broadcast with mu/nu, under the package's
    rules for the flow and the frame: a non-finite eps, eps_dot, mu, nu,
    alpha or beta raises ValueError naming it (an array its first such
    entry), the frame (0, 0) raises the ValueError of :func:`_check_frame`,
    and a vanishing r DegenerateFrameError.  An <X> that is not finite
    raises EvaluationError naming the first such frame in C order, with
    float coordinates, and no RuntimeWarning: the |r|^2 of
    :func:`variance_X` where r itself overflowed, else <X>.

    One body of real float64 operations (:func:`_frame_parts`) serves
    Python numbers and arrays, so every shape gives the same bits; Python
    numbers give Python floats, and a point that fails a check above, or
    with a part of r past sqrt(max) (where np.hypot could overflow and
    warn), is computed again as arrays, which name it or give the value of
    a 0-d array call.
    """
    eps, eps_dot, mu, nu, alpha, beta = _finite(eps=eps, eps_dot=eps_dot, mu=mu, nu=nu, alpha=alpha, beta=beta)
    if type(mu) is type(nu) is float and _NUMBERS.issuperset(map(type, (alpha, eps, eps_dot, beta))):
        r_re, r_im, mean = _frame_parts(alpha, eps, eps_dot, beta, mu, nu)  # Python floats never warn
        # np.hypot does where finite parts give an |r| past the double range: a point with a
        # part past _SQRT_MAX, where |r|^2 overflows, and one that a check names, is computed
        # again below
        if abs(r_re) < _SQRT_MAX > abs(r_im) and math.isfinite(mean) and (abs_r := float(np.hypot(r_re, r_im))) >= _R_TOL:
            return r_re, r_im, abs_r, mean
    # a square past the double range is no zero frame, and a non-finite <X> is named below
    with np.errstate(over="ignore", invalid="ignore"):
        mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
        r_re, r_im, mean = _frame_parts(*map(np.asarray, (alpha, eps, eps_dot, beta)), mu, nu)
        abs_r = np.hypot(r_re, r_im)
    if np.count_nonzero(abs_r < _R_TOL):  # not np.any, which costs a scalar frame several times more
        raise DegenerateFrameError(
            "frame coefficient r = eps_dot*nu + eps*mu vanished; the tomogram "
            "kernel is degenerate for this (mu, nu)"
        )
    if np.count_nonzero(finite := np.isfinite(mean)) != finite.size:
        # an r that overflowed makes <X> NaN even at alpha = beta: name |r|^2,
        # as variance_X does where only the square overflows
        if np.count_nonzero(overflowed := ~np.isfinite(abs_r)):
            _raise_first(EvaluationError, _SQUARE_OVERFLOWS, overflowed, mu, nu)
        _raise_first(EvaluationError, "frame (mu, nu) = ({}, {}): <X> = sqrt(2) Re((alpha - beta) conj r) "
                     "overflows double precision", ~finite, mu, nu)
    return r_re, r_im, abs_r, mean


def _frame_parts(alpha, eps, eps_dot, beta, mu, nu):
    """(Re r, Im r, <X>) after the frame rule, in real products and sums of
    the parts of the Python numbers or arrays given, mu and nu real."""
    _check_frame(mu, nu)
    r_re = eps_dot.real * nu + eps.real * mu
    r_im = eps_dot.imag * nu + eps.imag * mu
    return r_re, r_im, _SQRT2 * ((alpha.real - beta.real) * r_re + (alpha.imag - beta.imag) * r_im)


def _quadrature(alpha, eps, eps_dot, beta, X, mu, nu):
    """(Re r, Im r, |r|, Y) of the kernel, with the pulled-back quadrature
    Y = (X - <X>) / |r|: a float where the kernel gives floats and X is a
    float, else one fresh array of the broadcast shape, 0-d when X, mu and
    nu are scalars.  A Y past the double range is inf, with no
    RuntimeWarning."""
    r_re, r_im, abs_r, mean = _frame_kernel(alpha, eps, eps_dot, beta, mu, nu)
    X = _real("X", X)
    if type(X) is float and type(mean) is float:
        return r_re, r_im, abs_r, (X - mean) / abs_r
    with np.errstate(over="ignore"):
        Y = np.asarray(np.asarray(X, dtype=float) - mean)
        Y /= abs_r
    return r_re, r_im, abs_r, Y


def mean_X(alpha, eps, eps_dot, beta, mu, nu):
    """<X> = sqrt(2) Re[(alpha - beta) conj(r)], the kernel's mean.

    It squares no |r|, so a frame whose |r|^2 overflows keeps its mean; an
    <X> past the double range raises EvaluationError naming the frame.
    """
    mean = _frame_kernel(alpha, eps, eps_dot, beta, mu, nu)[3]
    return np.float64(mean) if type(mean) is float else mean


def variance_X(eps, eps_dot, mu, nu):
    """Var X = |eps_dot*nu + eps*mu|^2 / 2 (independent of the state label).

    The one closed form that squares |r|: a frame whose |r|^2 overflows
    raises EvaluationError naming the first such (mu, nu) in C order, with
    float coordinates.  |r| is compared before squaring, so no
    RuntimeWarning escapes.
    """
    abs_r = _frame_kernel(0.0, eps, eps_dot, 0.0, mu, nu)[2]
    if np.count_nonzero(over := abs_r > _SQRT_MAX):
        _raise_first(EvaluationError, _SQUARE_OVERFLOWS, over, mu, nu)
    var = 0.5 * (abs_r * abs_r)  # one product, where a power may round apart from x*x
    return np.float64(var) if type(var) is float else var


def coherent_mdf(alpha, eps, eps_dot, beta, X, mu, nu):
    """Tomogram of the coherent state alpha: exp(-Y^2) / (sqrt(pi) |r|), the
    normal density in X with mean <X> and variance |r|^2 / 2.

    Vectorised over X (and over mu/nu as long as r stays away from zero).
    It squares no |r|, so any finite frame has a value; an <X> past the
    double range raises EvaluationError naming the frame, and a Y far past
    the mass gives 0.
    """
    abs_r, out = _quadrature(alpha, eps, eps_dot, beta, X, mu, nu)[2:]
    if type(out) is float:
        return np.exp(-(out * out)) / (_SQRT_PI * abs_r)
    # a Y past 1e154 squares to inf, and exp gives the 0; an |r| past
    # 1e308 / sqrt(pi) makes the divisor inf, and the value 0
    with np.errstate(over="ignore"):
        np.square(out, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        out /= _SQRT_PI * abs_r
    return out if out.ndim else out[()]


def coherent_mdf_fourier(k, alpha, eps, eps_dot, beta, mu, nu):
    """Characteristic-function form of the coherent tomogram.

    w_k = exp(-(k |r|)^2 / 4 - 1j k <X>), normalised so w_0 = 1; the
    inverse transform w(X) = (2 pi)^-1 integral w_k e^{1j k X} dk
    reproduces :func:`coherent_mdf`.  Satisfies conj(w_k) = w_{-k}.

    In the scaled variables (y, z) = (k mu, k nu) the quadratic part of
    the exponent at t = 0 reads -(y^2 + z^2)/4, i.e. the Gaussian ansatz
    coefficients are c = d = -1/4 with no cross term.  A finite k whose
    exponent leaves the double range ((k |r|)^2 past it among them) raises
    EvaluationError naming it, the first such k of an array in C order,
    with no RuntimeWarning.
    """
    abs_r, mean = _frame_kernel(alpha, eps, eps_dot, beta, mu, nu)[2:]
    k = np.asarray(_real("k", k), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        exponent = -0.25 * ((kr := k * abs_r) * kr) - 1j * k * mean  # (k |r|)^2 as one product
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
    k = float(_real("k", k))
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
    """Tomogram of the n-th excited state: hermite_gauss(n, Y)^2 / |r|, with
    Y = (X - <X>) / |r| at alpha = 0.

    The vacuum n = 0 at the shift beta - alpha is the coherent tomogram of
    alpha at beta.  For f = 0 and constant unit frequency this depends on
    (X, mu, nu) only through X / sqrt(mu^2 + nu^2).  An <X> past the
    double range raises EvaluationError naming the frame.  On arrays the
    Hermite recurrence reads Y 2^14 values at a time in three cache-sized
    buffers and writes each chunk back into Y, which is then squared and
    divided in place: a tomogram of N values holds one N-value array.
    """
    abs_r, Y = _quadrature(0.0, eps, eps_dot, beta, X, mu, nu)[2:]
    if type(Y) is float:
        u = hermite_gauss(n, Y)
        return np.float64(u * u / abs_r)
    Y = np.require(Y, requirements="C")  # the fresh Y, copied only when not in C order
    _hermite_gauss_array(_check_order(n), Y, out=Y)
    np.square(Y, out=Y)
    Y /= abs_r
    return Y if Y.ndim else Y[()]


def cross_mdf(n: int, m: int, eps, eps_dot, beta, X, mu, nu):
    """Off-diagonal tomogram w_nm between Fock states n and m.

    w_nm = hermite_gauss(n, Y) hermite_gauss(m, Y) e^{1j (m-n) arg r} / |r|,
    with Y = (X - <X>) / |r| at alpha = 0 as in :func:`fock_mdf`;
    Hermitian in (n, m): w_nm = conj(w_mn).  The coherent tomogram is
    recovered from the double series

        w_alpha = e^{-|alpha|^2} sum_{n,m} alpha^n conj(alpha)^m
                  / sqrt(n! m!) * w_nm.
    """
    r_re, r_im, abs_r, Y = _quadrature(0.0, eps, eps_dot, beta, X, mu, nu)
    phase = np.exp(1j * ((m - n) * np.arctan2(r_im, r_re)))  # the angle of r from its real parts
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
    x = np.asarray(_real("x", x), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        out = prefactor * np.exp(0.5j * x * x * eps_dot / eps + _SQRT2 * gamma * x / eps)
    overflowed = np.isfinite(x) & ~np.isfinite(out)
    if np.count_nonzero(overflowed):
        _raise_first(EvaluationError, "coherent wavefunction overflows double precision at x = {:g}",
                     overflowed, x)
    return out if out.ndim else complex(out)
