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
  n exponentials and one matrix-vector product per point, O(n^2).  A
  pure-state grid keeps its samples psi, and there the sum is
  |v . psi|^2, the squared kernel integral of psi: O(n) per point;

* tomogram -> density matrix:

      rho(X, X') = (2 pi)^{-1} integral w(Y, mu, X - X')
                   exp[1j (Y - mu (X + X')/2)] dmu dY

  (trapezoidal in both variables on truncated domains; every test state
  is Gaussian-enveloped, so plain rules converge fast once the windows
  cover the mass).  The Y nodes of each mu row are uniform, Y_k = lo +
  k dY, so with k = S a + b, S = ceil(sqrt(K)), the phase factorises as
  e^{1j (lo + S a dY)} e^{1j b dY}: a row takes three exponentials,
  running products of them for the two phase tables, and one batched
  product of the samples, viewed in place as an A x S block, with the
  table of b dY, instead of K complex exponentials.  On a grid, diagonal
  d (nu = d h) shares one Y integral, and (X + X')/2 = z_j + d h / 2
  splits the mu phase, so all diagonals come out of one matrix product
  E @ cols, E = exp(-1j outer(z, mu)),
  cols[:, d] = G_d(mu) e^{-1j d h mu / 2} times the mu weights / 2 pi.
  The working set is bounded, not the quadrature: a slice is sampled in
  bands of the fewest whole mu rows holding 2^19 samples (4 MiB per float
  array, the size from which numpy asks for huge pages), and E @ cols is
  formed and written into the grid 64 rows at a time, each row and its
  conjugate column, with no full-size temporary.  A call builds one
  slice plan per quadrature: the mu grid, the split of K and one buffer
  that every band of every slice writes its Y nodes into, so a grid's n
  diagonals allocate no nodes of their own.  Every value is bit for bit
  the one-piece computation's.  The default spec's refined Fock 3
  element (480 x 2401 samples) peaks at ~8.6 MB traced, ~40 MB of RSS in
  a fresh process; an n = 1001 grid (15.3 MB) is assembled holding ~1.1x
  the grid, in ~20 ms (2-core Xeon);

* Wigner -> tomogram: after the k-integral is done analytically the
  relation collapses to the normalised Radon projection

      w(X, mu, nu) = (2 pi)^{-1} integral delta(X - mu q - nu p)
                     W(q, p) dq dp,

  evaluated as a 1-D quadrature along the line mu q + nu p = X with
  cubic-spline interpolation of the sampled W: a trapezoid on nodes at
  most half a grid spacing apart, whose error is a few percent of the
  spline's own (see :func:`mdf_from_wigner`).  Each grid computes its
  B-spline coefficients on its first projection and keeps them, so
  repeated projections of one grid skip the prefilter over the whole grid
  and the coefficients are freed with the grid.  scipy.ndimage is imported
  on the first projection, not with the package.

Wigner normalisation convention: (2 pi)^{-1} double integral of W over
phase space equals 1 (the vacuum is W = 2 exp(-q^2 - p^2)).

Sampled inputs are :class:`DensityGrid` (complex) and :class:`WignerGrid`
(real).  Both derive from one uniform square-grid base that owns the
axis, the spacing and the plain-text save/load format; each adds only its
dtype and its own invariant check.  Grid values and a Wigner grid's
spline coefficients are stored read-only, so code holding a grid cannot
make its construction-time checks or its coefficients stale.  The checks
read the grid one band of 64 rows at a time, never building a full-size
temporary: at n = 2001 (a 61 MB density grid) checking holds ~4 MB and
takes ~31 ms, and a fresh process building the grid from its values
peaks at ~93 MB of RSS (2-core Xeon).  A pure-state grid from
``DensityGrid.from_wavefunction`` holds only its wavefunction samples
until its values are read, and is checked in O(n): ~28 MB of RSS at
n = 2001, ~30 MB at n = 20001, whose values would take 6.4 GB.
Grid sizes ``n`` and :class:`QuadratureSpec`'s node counts are whole
numbers >= 2 (41.0 counts as 41), else ValueError naming the argument.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from ._files import write_in_place
from .dynamics import _float, _integer, _raise_first, _real
from .errors import (
    ConsistencyError,
    DegenerateFrameError,
    FrameUnsupportedError,
    OutOfSupportWarning,
    QuadratureConvergenceError,
)
from .states import _check_point, _finite

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
_MAX_EXTENT = sys.float_info.max / 2.0  # the axis width 2 extent stays finite
_BAND_ROWS = 64  # rows per band of a grid check or assembly: a few MB of temporaries at n = 2001
# samples per band of a tomogram slice: a band is the fewest whole mu rows
# holding this many, so its float arrays reach 4 MiB, the size from which
# numpy advises the kernel to back an array with huge pages, and stay below
# 4 MiB plus one row.  Smaller bands shrink the largest block freed, and
# with it glibc's dynamic trim threshold, so the Fock grids' per-diagonal
# temporaries fault in again
_SLICE_VALUES = 1 << 19


def _check_grid(extent, n) -> tuple[float, int]:
    """(extent, n) read by the number and integer rules; ValueError unless
    0 < extent <= _MAX_EXTENT and n is a whole number >= 2: the rule for
    every axis linspace(-extent, extent, n)."""
    extent = _float("extent", extent)
    if not 0.0 < extent <= _MAX_EXTENT:
        raise ValueError(f"extent must be positive with 2*extent finite, got {extent!r}")
    return extent, _integer("n", n, 2)


@dataclass(frozen=True)
class _UniformGrid:
    """Values on a uniform square grid, ``axis = linspace(-extent, extent, n)``.

    ``extent`` must be positive with ``2 * extent`` finite (ValueError).
    Subclasses set ``_dtype`` and add their own invariant check in
    ``__post_init__`` after calling this one.  ``values`` is stored as a
    read-only view; it shares memory with the array passed in when no
    dtype conversion was needed, so that array must not be changed later.
    """

    extent: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=self._dtype)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("values must be a square grid")
        object.__setattr__(self, "extent", _check_grid(self.extent, values.shape[0])[0])
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
        complex entries written as 're im' pairs.  An existing file is
        overwritten in place, as figures are, and streamed one line at a
        time, so the text is never held whole."""
        write_in_place(path, self._text_lines())

    def _text_lines(self):
        yield f"# L={self.extent:.17g} n={self.n}\n"
        for row in self._rows():
            yield " ".join(f"{v:.17g}" for v in np.ascontiguousarray(row).view(float)) + "\n"

    def _rows(self):
        """The rows of values, in order, for :meth:`save`."""
        return iter(self.values)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            header = fh.readline().strip()
        tokens = header[1:].split() if header.startswith("#") else []
        fields = dict(tok.partition("=")[::2] for tok in tokens)
        try:
            extent, n = float(fields["L"]), int(fields["n"])
        except (KeyError, ValueError) as exc:
            raise ValueError(
                f"{path}: expected a '# L=<real> n=<int>' header, got {header!r}"
            ) from exc
        raw = np.loadtxt(path, comments="#")
        width = 2 * n if cls._dtype is complex else n
        if raw.shape != (n, width):
            raise ValueError(f"{path}: expected {n} rows of {width} values, got {raw.shape}")
        return cls(extent, raw.view(cls._dtype))


def _hermiticity_residue(values: np.ndarray) -> np.floating:
    """max |values - values^H|, bit for bit, over the upper triangle one band
    of rows at a time: |a - conj(b)| = |b - conj(a)| exactly, so the lower
    triangle repeats the upper one.  np.max keeps a NaN anywhere."""
    return np.max([
        np.max(np.abs(values[i:i + _BAND_ROWS, i:] - values[i:, i:i + _BAND_ROWS].conj().T))
        for i in range(0, len(values), _BAND_ROWS)
    ])


@dataclass(frozen=True)
class DensityGrid(_UniformGrid):
    """Density matrix rho(Z, Z') sampled on a uniform square grid.

    ``values[i, j] = rho(axis[i], axis[j])`` with
    ``axis = linspace(-extent, extent, n)``.  Construction checks
    Hermiticity (to 1e-10) and unit trace of the diagonal quadrature
    (to 1e-4).  The Hermiticity residue max |rho - rho^H| is taken over the
    upper triangle 64 rows at a time: checking an n = 2001 grid (61 MB)
    holds ~4 MB of temporaries and takes ~31 ms (2-core Xeon), and a NaN
    entry still fails it.

    A pure-state grid built by :meth:`from_wavefunction` holds only the
    samples psi(axis), read-only, until ``values`` is read: ``n``, the
    axis, :meth:`trace`, :meth:`save` and :func:`mdf_from_density` read
    psi, each in O(n), and the first read of ``values`` forms
    ``outer(psi, conj(psi))``, read-only, and keeps it.  ``repr``, ``==``,
    ``dataclasses.replace``, pickling and deep copies work as on any grid.
    The samples are no constructor argument: a grid made from ``values``
    (the constructor, :meth:`load`, :func:`density_grid_from_mdf`,
    ``dataclasses.replace``) holds none and reads its own ``values``.
    """

    _dtype = complex
    # psi(axis) of a grid from from_wavefunction, read-only; None for every other grid
    _psi: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        herm = _hermiticity_residue(self.values)
        if not herm <= _HERMITICITY_TOL:  # a NaN residue fails too
            raise ConsistencyError(f"density grid not Hermitian: residue {herm:.3e}")
        self._check_trace()

    def _check_trace(self) -> None:
        tr = self.trace()
        if not abs(tr - 1.0) <= _TRACE_TOL:
            raise ConsistencyError(f"density grid trace {tr!r} deviates from 1 beyond {_TRACE_TOL}")

    def __getattr__(self, name):
        # reached only when the normal lookup fails: values of a pure grid, on their first read
        psi = self._psi
        if name != "values" or psi is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values = np.outer(psi, psi.conj())
        values.flags.writeable = False
        return self.__dict__.setdefault("values", values)  # one atomic step: racing readers share one array

    @property
    def n(self) -> int:
        return self.values.shape[0] if self._psi is None else len(self._psi)

    def trace(self) -> float:
        if self._psi is None:
            diagonal = np.real(np.diag(self.values))
        else:  # the diagonal of outer(psi, conj(psi)), bit for bit; an overflow is inf, which the gate rejects
            with np.errstate(over="ignore", invalid="ignore"):
                diagonal = (self._psi * self._psi.conj()).real
        return float(np.trapezoid(diagonal, dx=self.spacing))

    def _rows(self):
        if self._psi is None:
            return super()._rows()
        conj = self._psi.conj()
        return (p * conj for p in self._psi)  # the rows of outer(psi, conj(psi)), bit for bit

    @cached_property
    def _nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """The axis and its trapezoid weights, read-only, built on first use
        and kept for every tomogram point of the grid."""
        z = self.axis
        weights = _trapz_weights(z)
        z.flags.writeable = weights.flags.writeable = False
        return z, weights

    @classmethod
    def from_wavefunction(cls, psi: Callable[[np.ndarray], np.ndarray], extent: float, n: int):
        """Pure-state grid rho = psi(Z) conj(psi(Z')) from a wavefunction.

        ``psi(axis)`` must hold exactly n values (ValueError naming both
        counts), all finite (ConsistencyError naming the first z that is
        not).  The grid keeps a read-only copy of them and no n x n matrix
        until ``values`` is read; a buffer that ``psi`` returned and changes
        later changes neither.  The checks take O(n): the trace gate, as on
        every grid, and finiteness in place of the Hermiticity residue.
        ``outer(psi, conj(psi))`` is Hermitian by construction, and in
        floating point up to a few ulps of max |psi|^2: numpy's complex
        product uses fused multiply-adds, so entry (i, j) and entry (j, i)
        conjugated may round apart in the last bits, far inside the 1e-10
        gate that the n^2 residue would check.  At n = 2001 a build takes
        ~0.06 ms and peaks at ~0.1 MB traced, the wavefunction's own
        temporaries included, against ~44 ms and ~68 MB with the n x n
        matrix and its check (2-core Xeon)."""
        extent, n = _check_grid(extent, n)
        z = np.linspace(-extent, extent, n)
        samples = np.asarray(psi(z), dtype=complex).flatten()  # a copy
        if samples.size != n:
            raise ValueError(f"psi(z) must hold n = {n} values, one per axis node, got {samples.size}")
        finite = np.isfinite(samples)
        if not finite.all():
            _raise_first(ConsistencyError, "psi is not finite at z = {!r}", ~finite, z)
        samples.flags.writeable = False
        grid = cls.__new__(cls)
        object.__setattr__(grid, "extent", extent)
        object.__setattr__(grid, "_psi", samples)
        grid._check_trace()
        return grid


class WignerGrid(_UniformGrid):
    """Real Wigner function on a uniform square grid.

    ``values[i, j] = W(q=axis[i], p=axis[j])``; the construction checks
    (2 pi)^{-1} integral W dq dp = 1 to 1e-4.  The inner (p) trapezoid is
    taken 64 rows at a time: checking an n = 2001 grid (32 MB) holds
    ~1 MB of temporaries (2-core Xeon), and a NaN entry still fails it.
    """

    _dtype = float

    def __post_init__(self):
        super().__post_init__()
        norm = self.normalisation()
        if not abs(norm - 1.0) <= _TRACE_TOL:
            raise ConsistencyError(
                f"Wigner normalisation {norm!r} deviates from 1 beyond {_TRACE_TOL}"
            )

    def normalisation(self) -> float:
        # each row's trapezoid reads only that row, so banding changes no bit;
        # a sum past the double range is inf, which the check rejects, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            inner = np.concatenate([
                np.trapezoid(self.values[i:i + _BAND_ROWS], dx=self.spacing, axis=1)
                for i in range(0, self.n, _BAND_ROWS)
            ])
            return float(np.trapezoid(inner, dx=self.spacing) / (2.0 * np.pi))

    @cached_property
    def _prefiltered(self) -> np.ndarray:
        """Read-only cubic B-spline coefficients of ``values``, computed on first
        use: ``mode="constant"`` needs no pre-padding, so ``map_coordinates(them,
        ..., prefilter=False)`` equals ``map_coordinates(values, ...)`` bit for bit."""
        from scipy.ndimage import spline_filter

        coefficients = spline_filter(self.values, 3, output=np.float64, mode="constant")
        coefficients.flags.writeable = False
        return coefficients


def _one_point(X, mu, nu) -> tuple[float, float, float]:
    """The point of a one-point transform as three floats: TypeError naming
    the first of X, mu and nu that is not a scalar (a 0-d array reads as its
    float), then the rule of :func:`osctomo.states._check_point`."""
    for name, value in (("X", X), ("mu", mu), ("nu", nu)):
        if not isinstance(value, (int, float)) and np.ndim(_real(name, value)):  # a number is one; np.ndim costs ~1 us
            raise TypeError(f"{name} must be a scalar: one point per call, got {type(value).__name__} "
                            f"of shape {np.shape(value)}")
    X, mu, nu = _check_point(X, mu, nu)
    return float(X), float(mu), float(nu)


def mdf_from_density(rho: DensityGrid, X: float, mu: float, nu: float) -> float:
    """Tomogram value from a sampled density matrix (double trapezoidal rule).

    The grid truncation must be chosen so |rho| is negligible (< 1e-10) at
    the boundary.  With v the trapezoid weights times the kernel
    exp[1j (mu Z^2/2 - X Z) / nu], a grid from
    :meth:`DensityGrid.from_wavefunction` gives |v . psi|^2 / (2 pi |nu|)
    from its samples psi, O(n) per point and real by construction; any
    other grid gives v^T rho conj(v) / (2 pi |nu|), O(n^2) per point, whose
    imaginary residue, zero for Hermitian values, raises ConsistencyError
    above 1e-6 (or NaN).  The two agree to ~1e-16 on a pure grid.  nu = 0 is
    rejected: the kernel is singular there.  X, mu and nu are scalars: a
    list, a tuple or an array of more than 0 dimensions raises TypeError
    naming it.  Non-finite X, mu or nu and the frame (0, 0) raise ValueError
    (:func:`osctomo.states._check_point`), and so does a point whose kernel
    phase (mu Z^2/2 - X Z)/nu is undersampled: its slope (mu Z - X)/nu,
    largest at the grid's ends |Z| = extent, must advance it by at most pi
    per node.  An overflowing phase advances it by inf, so this one rule,
    checked before any sampling, also rejects it.
    """
    X, mu, nu = _one_point(X, mu, nu)
    if abs(nu) < _NU_TOL:
        raise FrameUnsupportedError(
            "nu = 0 frames are not supported by the density-matrix kernel"
        )
    reach = float(rho.extent)
    # the largest phase step between nodes, at Z = +-extent; Python floats overflow to inf
    advance = (abs(mu) * reach + abs(X)) * float(rho.spacing) / abs(nu)
    if not advance <= math.pi:
        raise ValueError(
            f"(X, mu, nu) = ({X}, {mu}, {nu}): the kernel phase (mu Z^2/2 - X Z)/nu "
            f"advances {advance:.3g} rad per node, above pi: it is undersampled or "
            f"overflows on the grid |Z| <= {reach} of spacing {rho.spacing:.3g}"
        )
    z, weights = rho._nodes
    v = weights * np.exp(1j * (mu * z * z / 2.0 - X * z) / nu)
    if rho._psi is not None:  # v^T psi conj(psi)^T conj(v) = |v . psi|^2, real by construction
        amp = complex(v @ rho._psi)
        return (amp.real * amp.real + amp.imag * amp.imag) / (2.0 * np.pi * abs(nu))
    val = complex(v @ (rho.values @ v.conj())) / (2.0 * np.pi * abs(nu))
    if not abs(val.imag) <= _IMAG_RESIDUE_TOL:
        raise ConsistencyError(f"imaginary residue {val.imag:.3e} above {_IMAG_RESIDUE_TOL}")
    return val.real


_Y_WINDOW_QUADRATURE = 10.0  # largest optical quadrature the default Y window covers


def _default_y_window(mu, nu):
    """Y in +-10 hypot(mu, nu): w(l X, l mu, l nu) = w(X, mu, nu) / |l|, so
    this covers the same optical-quadrature mass in every frame.  A bound
    past the double range is inf, which :func:`_check_y_window` rejects."""
    with np.errstate(over="ignore"):
        half = _Y_WINDOW_QUADRATURE * np.hypot(mu, nu)
    return -half, half


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncated trapezoidal grids for the tomogram -> density transform.

    ``y_window`` is either a fixed interval (lo, hi) or a callable
    ``(mu, nu) -> (lo, hi)`` (broadcasting over an array of mu) letting
    the Y window track the tomogram's mass frame by frame; the latter is
    what keeps narrow slices resolved near mu = 0.  The default,
    Y in +-10 hypot(mu, nu), covers optical quadratures up to 10 in every
    frame.  ``mu_count`` defaults to an even value so the mu grid never
    lands exactly on 0: a node at mu = 0 on a diagonal element (nu = 0)
    is the frame (0, 0) and raises DegenerateFrameError.  Construction
    stores ``mu_count=240.0`` as 240 and rejects a count that is not a
    whole number >= 2, a non-finite or non-positive ``mu_max``
    and a fixed window that is not finite with lo < hi and a finite width
    hi - lo (ValueError); a callable window, the default among them, is
    checked on every use, before the tomogram is sampled.  The node
    counts set the work, not the memory: a slice of mu_count x y_count
    samples is sampled in bands of ceil(2^19 / y_count) mu rows (the
    refined default slice, 480 x 2401, in bands of 219, 219 and 42 rows;
    every other slice of the default spec is one band), and every band
    of a call writes its Y nodes into one buffer.
    """

    mu_max: float = 12.0
    mu_count: int = 240
    y_window: tuple[float, float] | Callable = _default_y_window
    y_count: int = 1201

    def __post_init__(self):
        for name in ("mu_count", "y_count"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 2))
        object.__setattr__(self, "mu_max", _float("mu_max", self.mu_max))
        if not (math.isfinite(self.mu_max) and self.mu_max > 0):
            raise ValueError(f"mu_max must be finite and positive, got {self.mu_max!r}")
        if not callable(self.y_window):
            window = tuple(_float("y_window", bound) for bound in self.y_window)
            _check_y_window(*window)
            object.__setattr__(self, "y_window", window)

    def refined(self) -> "QuadratureSpec":
        """Same windows with doubled node counts (for convergence checks)."""
        return replace(self, mu_count=2 * self.mu_count, y_count=2 * self.y_count - 1)


def _check_y_window(lo, hi) -> None:
    with np.errstate(all="ignore"):  # a width past the double range is inf, inf - inf NaN
        width = np.subtract(hi, lo)
    # a finite width needs both bounds finite
    if not np.all((lo < hi) & np.isfinite(width)):
        raise ValueError("y_window bounds must be finite with lo < hi and a finite width hi - lo")


class _SlicePlan:
    """What every slice of one quadrature shares, built once per call of
    :func:`density_from_mdf` (once more for its refined check) or of
    :func:`density_grid_from_mdf`: the mu grid, read-only, and whether it
    holds a node at 0; the Y node offsets k < K and the split K = S A + tail
    of the factorised Y sum (:func:`_band_sums`); the rows of a band; and one
    buffer that every band of every slice writes its Y nodes into.  No plan
    outlives its call, so two calls share no buffer."""

    def __init__(self, quad: QuadratureSpec):
        self.quad = quad
        self.mu = np.linspace(-quad.mu_max, quad.mu_max, quad.mu_count)
        self.mu.flags.writeable = False
        self.zero_node = not np.all(self.mu)
        K = quad.y_count
        self.k = np.arange(K, dtype=float)
        self.S = math.isqrt(K - 1) + 1  # ceil(sqrt(K))
        self.A, self.tail = divmod(K, self.S)
        self.band = -(-_SLICE_VALUES // K)  # ceil: the fewest rows holding _SLICE_VALUES samples
        self.nodes = np.empty((min(self.band, quad.mu_count), K))


def _char_slice(w, plan: _SlicePlan, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """G(mu) = integral w(Y, mu, nu) e^{1j Y} dY on the plan's mu grid.

    The window is taken and checked on the whole mu grid, before any
    sample; the tomogram is then sampled in bands of ceil(_SLICE_VALUES / K)
    whole mu rows (:func:`_band_sums`), so a row comes out bit for bit as
    it would from a single band.
    """
    quad, mu = plan.quad, plan.mu
    if nu == 0.0 and plan.zero_node:
        raise DegenerateFrameError(
            f"odd mu_count = {quad.mu_count} puts a mu node at 0: on a diagonal element "
            "(nu = 0) that is the frame (0, 0), not a tomographic frame; use an even mu_count")
    lo, hi = quad.y_window(mu, nu) if callable(quad.y_window) else quad.y_window
    lo = np.broadcast_to(np.asarray(lo, dtype=float), mu.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), mu.shape)
    _check_y_window(lo, hi)
    dy = (hi - lo) / (quad.y_count - 1)
    band = plan.band
    g = np.concatenate([
        _band_sums(w, plan, mu[i:i + band], lo[i:i + band], dy[i:i + band], nu)
        for i in range(0, mu.size, band)
    ])
    return mu, dy * g


def _band_sums(w, plan: _SlicePlan, mu: np.ndarray, lo: np.ndarray, dy: np.ndarray, nu: float) -> np.ndarray:
    """The trapezoid sums of w(Y, mu, nu) e^{1j Y} over the uniform nodes
    Y_k = lo + k dY, k < K, of each mu row of one band, before the factor dY.

    The nodes are written into the plan's buffer, so the Y that ``w`` is
    handed is overwritten by the next band; ``w`` may change it in place.
    With k = S a + b and S = ceil(sqrt(K)) the phase factorises,
    e^{1j Y_k} = e^{1j (lo + S a dY)} e^{1j b dY}, so a row costs three
    exponentials, e^{1j dY}, e^{1j S dY} and e^{1j lo}, whose running
    products are the tables of b dY and of lo + S a dY.  The first A S
    samples, viewed in place as an A x S block, meet the b table in one
    batched product (real samples against the [cos, sin] pairs of the
    complex table, viewed as floats), and a length-A sum against the a
    table finishes the block.  The K - A S < S samples past it add one
    short product, and the trapezoid's halved ends are subtracted as
    (w_0 e^{1j lo} + w_{K-1} e^{1j hi}) / 2.
    """
    rows = mu.size
    y = plan.nodes[:rows]
    np.einsum("i,j->ij", dy, plan.k, out=y)  # the products of multiply.outer, in half the time
    y += lo[:, None]
    vals = np.broadcast_to(w(y, mu[:, None], nu), y.shape)

    K, S, A, tail = plan.k.size, plan.S, plan.A, plan.tail
    b_table = _powers(np.ones(rows), np.exp(1j * dy), S)  # e^{1j b dY}
    a_table = _powers(np.exp(1j * lo), np.exp(1j * S * dy), A + 1)  # e^{1j (lo + S a dY)}
    block = vals[:, : A * S].reshape(rows, A, S)
    if np.iscomplexobj(vals):
        inner = (block @ b_table[:, :, None])[..., 0]
    else:  # real samples meet the [cos, sin] pairs of the complex table
        inner = (block @ b_table.view(float).reshape(rows, S, 2)).view(complex)[..., 0]
    g = np.einsum("ma,ma->m", inner, a_table[:, :A])
    if tail:
        g += a_table[:, A] * np.einsum("mb,mb->m", vals[:, A * S :], b_table[:, :tail])
    a_last, b_last = divmod(K - 1, S)  # trapezoid: halve the two end samples
    g -= 0.5 * (vals[:, 0] * a_table[:, 0] + vals[:, K - 1] * a_table[:, a_last] * b_table[:, b_last])
    return g


def _powers(start: np.ndarray, ratio: np.ndarray, count: int) -> np.ndarray:
    """start * ratio**j for j < count, row by row, as running products."""
    table = np.empty((start.size, count), dtype=complex)
    table[:, 0] = start
    table[:, 1:] = ratio[:, None]
    return np.multiply.accumulate(table, axis=1, out=table)


def _density_point(w, X: float, Xp: float, quad: QuadratureSpec) -> complex:
    mu, g = _char_slice(w, _SlicePlan(quad), X - Xp)
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
    and decay rapidly in Y.  The Y it is handed is a buffer reused from
    band to band, which ``w`` may change in place, so a ``w`` that keeps
    it must copy it; mu is read-only.  With ``check_convergence`` the
    quadrature is repeated at doubled node counts and a change above 1e-3
    raises QuadratureConvergenceError.  A non-finite X or Xp raises
    ValueError naming it, and so do an X and Xp whose nu = X - Xp, or
    whose mu phase mu (X + Xp) / 2 on the mu grid, overflows.  ``w`` is
    called on bands of ceil(2^19 / y_count) mu rows, so the default spec's
    refined Fock 3 element (a 480 x 2401 slice) peaks at ~8.6 MB traced,
    ~40 MB of RSS in a fresh process (2-core Xeon).
    """
    _finite(X=X, Xp=Xp)
    quad = quad or QuadratureSpec()
    X, Xp = float(X), float(Xp)
    if not (math.isfinite(X - Xp) and math.isfinite(quad.mu_max * (X + Xp))):
        raise ValueError(
            f"(X, Xp) = ({X}, {Xp}): X - Xp or mu_max (X + Xp) overflows, "
            f"with mu_max = {quad.mu_max}"
        )
    val = _density_point(w, X, Xp, quad)
    if check_convergence:
        refined = _density_point(w, X, Xp, quad.refined())
        if not abs(refined - val) <= _CONVERGENCE_TOL:
            raise QuadratureConvergenceError(
                f"refinement moved rho({X}, {Xp}) by {abs(refined - val):.3e}"
            )
    return val


def density_grid_from_mdf(
    w: Callable, extent: float, n: int, quad: QuadratureSpec | None = None
) -> DensityGrid:
    """Assemble a full DensityGrid from a tomogram.

    Produces the values :func:`density_from_mdf` would (up to roundoff),
    but factorises the work over grid diagonals: along diagonal d,
    nu = X - X' = d h is constant, so the Y integral is shared.  With
    (X + X')/2 = z_j + d h / 2 the mu phase splits into
    e^{-1j z_j mu} e^{-1j d h mu / 2}, so every diagonal's mu integral
    comes out of one matrix product of exp(-1j outer(z, mu)) with the
    stacked per-diagonal columns, formed 64 grid rows at a time.  The
    upper triangle follows from Hermiticity: each row is written
    conjugated, then as its column, so the diagonal is not conjugated.
    ``w`` is called as in :func:`density_from_mdf`, its Y one buffer
    for all diagonals.  A call at n = 1001 (a 15.3 MB grid, mu_count 60,
    y_count 121) peaks at ~19 MB traced, and a fresh process making it
    at ~50 MB of RSS (2-core Xeon).  An extent or n outside the grid rule
    (a positive extent with 2 extent finite, a whole n >= 2), or an
    extent whose mu phases, up to mu_max extent, overflow, raises
    ValueError before sampling.
    """
    extent, n = _check_grid(extent, n)
    quad = quad or QuadratureSpec()
    if not math.isfinite(quad.mu_max * float(extent)):
        raise ValueError(
            f"extent {extent!r} with mu_max = {quad.mu_max}: the mu phases overflow"
        )
    z = np.linspace(-extent, extent, n)
    h = z[1] - z[0]
    cols = np.empty((quad.mu_count, n), dtype=complex)
    plan = _SlicePlan(quad)
    for d in range(n):
        mu, g = _char_slice(w, plan, d * h)
        cols[:, d] = g * np.exp(-0.5j * d * h * mu)
    cols *= (_trapz_weights(mu) / (2.0 * np.pi))[:, None]
    values = np.empty((n, n), dtype=complex)
    for j0 in range(0, n, _BAND_ROWS):
        band = np.exp(-1j * np.outer(z[j0:j0 + _BAND_ROWS], mu)) @ cols
        for j, row in enumerate(band, j0):  # row[d] = rho(z[j + d], z[j])
            values[j, j:] = row[: n - j].conj()
            values[j:, j] = row[: n - j]  # written last, so the diagonal is not conjugated
    return DensityGrid(extent, values)


def _trapz_weights(x: np.ndarray) -> np.ndarray:
    wts = np.empty_like(x)
    wts[1:-1] = (x[2:] - x[:-2]) / 2.0
    wts[0] = (x[1] - x[0]) / 2.0
    wts[-1] = (x[-1] - x[-2]) / 2.0
    return wts


def mdf_from_wigner(W: WignerGrid, X: float, mu: float, nu: float) -> float:
    """Radon projection of a sampled Wigner function.

    Integrates W along the line mu q + nu p = X (cubic-spline
    interpolation, trapezoidal rule in arc length on at least 129 nodes
    at most half a grid spacing apart) and divides by
    2 pi sqrt(mu^2 + nu^2).  Error budget: along the line the bicubic
    spline is a C^2 piecewise polynomial, and on a resolved grid the
    trapezoid's error there is far below the spline's interpolation
    error.  On coherent (|alpha| <= 3.5) and Fock 1-2 grids of n = 81 to
    401 points (32 random lines each), nodes a quarter spacing apart
    moved a projection by at most 5.1% of its distance from the exact
    tomogram, at twice the spline evaluations.  If the line misses the sampled square an
    OutOfSupportWarning is issued and 0.0 returned.  X, mu and nu are
    scalars, as in :func:`mdf_from_density`.  Non-finite X, mu or nu and
    the frame (0, 0) raise ValueError (:func:`osctomo.states._check_point`),
    and so does a frame whose mu^2 + nu^2 overflows.
    """
    X, mu, nu = _one_point(X, mu, nu)
    s2 = mu * mu + nu * nu
    if s2 == math.inf:
        raise ValueError(f"frame (mu, nu) = ({mu}, {nu}) is too large: mu^2 + nu^2 overflows")
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

    # 2 ceil(chord / h) intervals: at most h / 2 apart, see the error budget above
    num_points = max(129, 2 * int(math.ceil((hi - lo) / W.spacing)) + 1)
    tau = np.linspace(lo, hi, num_points)
    rows = (q0 + tau * dq + W.extent) / W.spacing
    cols = (p0 + tau * dp + W.extent) / W.spacing
    from scipy.ndimage import map_coordinates

    vals = map_coordinates(
        W._prefiltered, np.array([rows, cols]), order=3, mode="constant", prefilter=False
    )
    return float(np.trapezoid(vals, x=tau) / (2.0 * np.pi * s))

