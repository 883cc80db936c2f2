"""The integral-transform web connecting tomograms, density matrices and
Wigner functions.

Three transforms are provided:

* density matrix -> tomogram:

      w(X, mu, nu) = (2 pi |nu|)^{-1} integral rho(Z, Z')
                     exp[-1j (Z - Z') (X - mu (Z + Z')/2) / nu] dZ dZ'

  (double trapezoidal rule on the sampled grid; nu = 0 makes the kernel
  singular and is rejected rather than regularised).  The kernel is rank
  one, a(Z) conj(a(Z')) with a(Z) = exp[1j (mu Z^2/2 - X Z) / nu], so the
  double sum is v^T rho conj(v) with v the trapezoidal weights times a:
  n exponentials and one matrix-vector product per point;

* tomogram -> density matrix:

      rho(X, X') = (2 pi)^{-1} integral w(Y, mu, X - X')
                   exp[1j (Y - mu (X + X')/2)] dmu dY

  (trapezoidal in both variables on truncated domains; every test state
  is Gaussian-enveloped, so plain rules converge fast once the windows
  cover the mass);

* Wigner -> tomogram: after the k-integral is done analytically the
  relation collapses to the normalised Radon projection

      w(X, mu, nu) = (2 pi)^{-1} integral delta(X - mu q - nu p)
                     W(q, p) dq dp,

  evaluated as a 1-D quadrature along the line mu q + nu p = X with
  cubic-spline interpolation of the sampled W.  The spline coefficients of
  the most recently used grid are kept in a one-slot cache, which holds the
  grid only by weak reference, so repeated projections of one grid skip the
  B-spline prefilter over the whole grid.  scipy.ndimage is imported on the
  first projection, not with the package.

Wigner normalisation convention: (2 pi)^{-1} double integral of W over
phase space equals 1 (the vacuum is W = 2 exp(-q^2 - p^2)).

Sampled inputs are :class:`DensityGrid` (complex) and :class:`WignerGrid`
(real).  Both derive from one uniform square-grid base that owns the
axis, the spacing and the plain-text save/load format; each adds only its
dtype and its own invariant check.  Grid values are stored read-only, so
code holding a grid cannot make its construction-time checks or its cached
spline coefficients stale.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    ConsistencyError,
    FrameUnsupportedError,
    OutOfSupportWarning,
    QuadratureConvergenceError,
)

__all__ = [
    "DensityGrid",
    "WignerGrid",
    "QuadratureSpec",
    "mdf_from_density",
    "density_from_mdf",
    "density_grid_from_mdf",
    "mdf_from_wigner",
]

_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-4
_IMAG_RESIDUE_TOL = 1e-6
_NU_TOL = 1e-12
_CONVERGENCE_TOL = 1e-3


@dataclass(frozen=True)
class _UniformGrid:
    """Values on a uniform square grid, ``axis = linspace(-extent, extent, n)``.

    Subclasses set ``_dtype`` and add their own invariant check in
    ``__post_init__`` after calling this one.  ``values`` is stored as a
    read-only view; it shares memory with the array passed in when no
    dtype conversion was needed, so that array must not be changed later.
    """

    extent: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=self._dtype)
        if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] < 2:
            raise ValueError("values must be a square grid with at least 2 points per axis")
        values = values.view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.n)

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / (self.n - 1)

    def save(self, path) -> None:
        """Plain-text format: '# L=<real> n=<int>' then the rows of values,
        complex entries written as 're im' pairs."""
        with open(path, "w") as fh:
            fh.write(f"# L={self.extent:.17g} n={self.n}\n")
            for row in np.ascontiguousarray(self.values).view(float):
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing '# L=<real> n=<int>' header")
        fields = dict(tok.split("=") for tok in header[1:].split())
        extent, n = float(fields["L"]), int(fields["n"])
        raw = np.loadtxt(path, comments="#")
        width = 2 * n if cls._dtype is complex else n
        if raw.shape != (n, width):
            raise ValueError(f"{path}: expected {n} rows of {width} values, got {raw.shape}")
        return cls(extent, raw.view(cls._dtype))


class DensityGrid(_UniformGrid):
    """Density matrix rho(Z, Z') sampled on a uniform square grid.

    ``values[i, j] = rho(axis[i], axis[j])`` with
    ``axis = linspace(-extent, extent, n)``.  Construction checks
    Hermiticity (to 1e-10) and unit trace of the diagonal quadrature
    (to 1e-4).
    """

    _dtype = complex

    def __post_init__(self):
        super().__post_init__()
        herm = np.max(np.abs(self.values - self.values.conj().T))
        if herm > _HERMITICITY_TOL:
            raise ConsistencyError(f"density grid not Hermitian: residue {herm:.3e}")
        tr = self.trace()
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ConsistencyError(f"density grid trace {tr!r} deviates from 1 beyond {_TRACE_TOL}")

    def trace(self) -> float:
        return float(np.trapezoid(np.real(np.diag(self.values)), dx=self.spacing))

    @classmethod
    def from_wavefunction(cls, psi: Callable[[np.ndarray], np.ndarray], extent: float, n: int):
        """Pure-state grid rho = psi(Z) conj(psi(Z')) from a wavefunction."""
        z = np.linspace(-extent, extent, n)
        vals = np.asarray(psi(z), dtype=complex)
        return cls(extent, np.outer(vals, vals.conj()))


class WignerGrid(_UniformGrid):
    """Real Wigner function on a uniform square grid.

    ``values[i, j] = W(q=axis[i], p=axis[j])``; the construction checks
    (2 pi)^{-1} integral W dq dp = 1 to 1e-4.
    """

    _dtype = float

    def __post_init__(self):
        super().__post_init__()
        norm = self.normalisation()
        if abs(norm - 1.0) > _TRACE_TOL:
            raise ConsistencyError(
                f"Wigner normalisation {norm!r} deviates from 1 beyond {_TRACE_TOL}"
            )

    def normalisation(self) -> float:
        inner = np.trapezoid(self.values, dx=self.spacing, axis=1)
        return float(np.trapezoid(inner, dx=self.spacing) / (2.0 * np.pi))


def mdf_from_density(rho: DensityGrid, X: float, mu: float, nu: float) -> float:
    """Tomogram value from a sampled density matrix (double trapezoidal rule).

    The grid truncation must be chosen so |rho| is negligible (< 1e-10) at
    the boundary.  Hermitian input makes the result real; an imaginary
    residue above 1e-6 raises ConsistencyError.  nu = 0 is rejected: the
    kernel is singular there.
    """
    if abs(nu) < _NU_TOL:
        raise FrameUnsupportedError(
            "nu = 0 frames are not supported by the density-matrix kernel"
        )
    z = rho.axis
    v = _trapz_weights(z) * np.exp(1j * (mu * z * z / 2.0 - X * z) / nu)
    val = complex(v @ (rho.values @ v.conj())) / (2.0 * np.pi * abs(nu))
    if abs(val.imag) > _IMAG_RESIDUE_TOL:
        raise ConsistencyError(f"imaginary residue {val.imag:.3e} above {_IMAG_RESIDUE_TOL}")
    return val.real


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncated trapezoidal grids for the tomogram -> density transform.

    ``y_window`` is either a fixed interval (lo, hi) or a callable
    ``(mu, nu) -> (lo, hi)`` (broadcasting over an array of mu) letting
    the Y window track the tomogram's mass frame by frame; the latter is
    what keeps narrow slices resolved near mu = 0.  ``mu_count`` defaults
    to an even value so the mu grid never lands exactly on 0, where
    degenerate frames can occur for nu = 0.
    """

    mu_max: float = 12.0
    mu_count: int = 240
    y_window: tuple[float, float] | Callable = (-40.0, 40.0)
    y_count: int = 1201

    def refined(self) -> "QuadratureSpec":
        """Same windows with doubled node counts (for convergence checks)."""
        return replace(self, mu_count=2 * self.mu_count, y_count=2 * self.y_count - 1)


def _y_nodes(quad: QuadratureSpec, mu: np.ndarray, nu: float) -> np.ndarray:
    if callable(quad.y_window):
        lo, hi = quad.y_window(mu, nu)
        lo = np.broadcast_to(np.asarray(lo, dtype=float), mu.shape)
        hi = np.broadcast_to(np.asarray(hi, dtype=float), mu.shape)
    else:
        lo_v, hi_v = quad.y_window
        lo = np.full(mu.shape, float(lo_v))
        hi = np.full(mu.shape, float(hi_v))
    frac = np.linspace(0.0, 1.0, quad.y_count)
    return lo[:, None] + (hi - lo)[:, None] * frac[None, :]


def _char_slice(w, quad: QuadratureSpec, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """G(mu) = integral w(Y, mu, nu) e^{1j Y} dY on the mu grid."""
    mu = np.linspace(-quad.mu_max, quad.mu_max, quad.mu_count)
    y = _y_nodes(quad, mu, nu)
    vals = w(y, mu[:, None], nu) * np.exp(1j * y)
    return mu, np.trapezoid(vals, x=y, axis=1)


def _density_point(w, X: float, Xp: float, quad: QuadratureSpec) -> complex:
    mu, g = _char_slice(w, quad, X - Xp)
    integrand = g * np.exp(-1j * mu * (X + Xp) / 2.0)
    return complex(np.trapezoid(integrand, x=mu)) / (2.0 * np.pi)


def density_from_mdf(
    w: Callable,
    X: float,
    Xp: float,
    quad: QuadratureSpec | None = None,
    check_convergence: bool = False,
) -> complex:
    """Density-matrix element rho(X, X') reconstructed from a tomogram.

    ``w(Y, mu, nu)`` must accept numpy arrays in its first two arguments
    and decay rapidly in Y.  With ``check_convergence`` the quadrature is
    repeated at doubled node counts and a change above 1e-3 raises
    QuadratureConvergenceError.
    """
    quad = quad or QuadratureSpec()
    val = _density_point(w, X, Xp, quad)
    if check_convergence:
        refined = _density_point(w, X, Xp, quad.refined())
        if abs(refined - val) > _CONVERGENCE_TOL:
            raise QuadratureConvergenceError(
                f"refinement moved rho({X}, {Xp}) by {abs(refined - val):.3e}"
            )
    return val


def density_grid_from_mdf(
    w: Callable, extent: float, n: int, quad: QuadratureSpec | None = None
) -> DensityGrid:
    """Assemble a full DensityGrid from a tomogram.

    Produces exactly the values :func:`density_from_mdf` would, but
    factorises the work over grid diagonals: along a diagonal nu = X - X'
    is constant, so the Y integral is shared and only the cheap phase
    integral over mu depends on the position along the diagonal.  The
    lower triangle follows from Hermiticity.
    """
    quad = quad or QuadratureSpec()
    z = np.linspace(-extent, extent, n)
    h = z[1] - z[0]
    values = np.empty((n, n), dtype=complex)
    for d in range(n):  # d = i - j >= 0, nu = d*h
        mu, g = _char_slice(w, quad, d * h)
        j = np.arange(0, n - d)
        s = z[j] + d * h / 2.0  # (z[i] + z[j])/2 with i = j + d
        vals = (g[None, :] * np.exp(-1j * np.outer(s, mu))) @ _trapz_weights(mu)
        vals /= 2.0 * np.pi
        values[j + d, j] = vals
        if d:
            values[j, j + d] = vals.conj()
    return DensityGrid(extent, values)


def _trapz_weights(x: np.ndarray) -> np.ndarray:
    wts = np.empty_like(x)
    wts[1:-1] = (x[2:] - x[:-2]) / 2.0
    wts[0] = (x[1] - x[0]) / 2.0
    wts[-1] = (x[-1] - x[-2]) / 2.0
    return wts


def mdf_from_wigner(
    W: WignerGrid, X: float, mu: float, nu: float, num_points: int | None = None
) -> float:
    """Radon projection of a sampled Wigner function.

    Integrates W along the line mu q + nu p = X (cubic-spline
    interpolation, trapezoidal rule in arc length) and divides by
    2 pi sqrt(mu^2 + nu^2).  If the line misses the sampled square an
    OutOfSupportWarning is issued and 0.0 returned.
    """
    s2 = mu * mu + nu * nu
    if s2 <= 0.0:
        raise ValueError("frame (mu, nu) = (0, 0) is not a valid tomographic frame")
    s = math.sqrt(s2)
    q0, p0 = mu * X / s2, nu * X / s2
    dq, dp = -nu / s, mu / s

    lo, hi = -math.inf, math.inf
    for coord, slope in ((q0, dq), (p0, dp)):
        if abs(slope) < 1e-15:
            if abs(coord) > W.extent:
                lo, hi = 1.0, 0.0
                break
        else:
            a = (-W.extent - coord) / slope
            b = (W.extent - coord) / slope
            lo, hi = max(lo, min(a, b)), min(hi, max(a, b))
    if lo >= hi:
        warnings.warn(
            f"projection line for (X, mu, nu) = ({X}, {mu}, {nu}) misses the grid",
            OutOfSupportWarning,
            stacklevel=2,
        )
        return 0.0

    if num_points is None:
        num_points = max(129, 2 * int(math.ceil((hi - lo) / (0.5 * W.spacing))) + 1)
    tau = np.linspace(lo, hi, num_points)
    rows = (q0 + tau * dq + W.extent) / W.spacing
    cols = (p0 + tau * dp + W.extent) / W.spacing
    from scipy.ndimage import map_coordinates

    vals = map_coordinates(
        _spline_coefficients(W), np.array([rows, cols]), order=3, mode="constant", prefilter=False
    )
    return float(np.trapezoid(vals, x=tau) / (2.0 * np.pi * s))


# (weak reference to the grid, its cubic B-spline coefficients)
_spline_slot: tuple[weakref.ref, np.ndarray] | None = None


def _spline_coefficients(W: WignerGrid) -> np.ndarray:
    """Cubic B-spline coefficients of ``W.values`` for ``mode="constant"``.

    That mode needs no pre-padding, so ``map_coordinates(coefficients, ...,
    prefilter=False)`` equals ``map_coordinates(W.values, ...)`` bit for
    bit.  The last grid's coefficients are kept; the slot is read once, so
    a concurrent caller replacing it cannot pair one grid with another's
    coefficients.
    """
    global _spline_slot
    slot = _spline_slot
    if slot is not None and slot[0]() is W:
        return slot[1]
    from scipy.ndimage import spline_filter

    coefficients = spline_filter(W.values, 3, output=np.float64, mode="constant")
    _spline_slot = (weakref.ref(W), coefficients)
    return coefficients
