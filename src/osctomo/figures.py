"""Reference figure surfaces: Fock tomograms of the parametric resonance.

Six standard surfaces are produced (all with the weak-resonance profile,
zero force, and eps from the closed-form approximation of
:func:`osctomo.dynamics.parametric_resonance_epsilon`):

    1   w_0(x, t)   frame (mu, nu) = (1, 0)
    2   w_0(x, t)   frame (1/sqrt2, 1/sqrt2)
    3   w_0(x, t)   frame (0, 1)
    4   w_2(x, t)   frame (1/sqrt2, 1/sqrt2)
    5   w_0(x, t_fixed)  optical sweep mu in (0, 1), nu = sqrt(1 - mu^2)
    6   w_0(x_fixed, t)  optical sweep mu in (0, 1)

Each figure is written as a plain CSV (comment header recording the
configuration, then a column-name row, then rows of three values) plus a
gnuplot script for a quick surface rendering.  Grid extents and counts
are package choices, the fields of :class:`FigureConfig` (``osctomo
figure`` takes them from its flags or a ``--config`` file), recorded in
the CSV header; they are not part of any published reference.  The
counts are whole numbers >= 2 (3.0 counts as 3).

Every surface is validated structurally before any file is written: all
values must be finite and non-negative; w_0 slices along x must be exact
Gaussians (log-parabola fit residual below 1e-8, and a value lost to
underflow only where the fitted Gaussian underflows too); w_2 slices must
show exactly the two interior zeros of the second Hermite polynomial (an x
grid too coarse or too narrow to show them is a ValueError, a grid choice);
and at k = 0 the frame-(1,0) surface must be independent of time to 1e-12.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ._files import write_in_place
from .dynamics import _float, _integer, _resonance_k, hermite_gauss, parametric_resonance_epsilon
from .errors import ConsistencyError
from .states import _frame_kernel, fock_mdf

__all__ = [
    "FigureConfig",
    "FIGURE_IDS",
    "figure_table",
    "write_figure",
    "gaussian_slice_residual",
    "count_near_zero_minima",
    "time_independence_residual",
    "GAUSSIAN_FIT_TOL",
    "T_INDEPENDENCE_TOL",
    "MAX_FIGURE_POINTS",
]

GAUSSIAN_FIT_TOL = 1e-8
T_INDEPENDENCE_TOL = 1e-12
#: Interior minima below this fraction of the slice maximum count as zeros.
ZERO_MINIMUM_REL = 0.05
# tomogram values below the smallest normal float are underflow, not data
_TINY = np.finfo(float).tiny
_LOG_UNDERFLOW = math.log(_TINY) + GAUSSIAN_FIT_TOL

#: Most points of one figure surface (a peak of at most ~56 bytes each, so ~112 MB).
MAX_FIGURE_POINTS = 2_000_000

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: figure id -> (Fock n, frame or None for the optical sweep, its two coordinates, title)
_FIGURES = {
    1: (0, (1.0, 0.0), ("x", "t"), "w_0(x, t), frame mu=1 nu=0"),
    2: (0, (_INV_SQRT2, _INV_SQRT2), ("x", "t"), "w_0(x, t), frame mu=nu=1/sqrt(2)"),
    3: (0, (0.0, 1.0), ("x", "t"), "w_0(x, t), frame mu=0 nu=1"),
    4: (2, (_INV_SQRT2, _INV_SQRT2), ("x", "t"), "w_2(x, t), frame mu=nu=1/sqrt(2)"),
    5: (0, None, ("x", "mu"), "w_0(x, t_fixed), optical sweep mu in (0, 1)"),
    6: (0, None, ("t", "mu"), "w_0(x_fixed, t), optical sweep mu in (0, 1)"),
}
FIGURE_IDS = tuple(_FIGURES)


@dataclass(frozen=True)
class FigureConfig:
    """Grid/profile choices for the figures.  ``osctomo figure`` reads each
    field as a key=value entry of the type of its default."""

    k: float = 0.01
    t_max: float = 10.0
    t_count: int = 101
    x_min: float = -4.0
    x_max: float = 4.0
    x_count: int = 161
    mu_count: int = 101
    t_fixed: float = 4.0
    x_fixed: float = 0.0

    def __post_init__(self):
        _resonance_k(self.k)
        for name, kind in self._types().items():
            value = getattr(self, name)
            if kind is int:
                value = _integer(name, value, 2)
            elif not np.isfinite(value := _float(name, value)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if not np.isfinite(self.x_max - self.x_min):
            raise ValueError("x_max - x_min must be finite")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        points = max(self.x_count * self.t_count, self.x_count * self.mu_count,
                     self.t_count * self.mu_count)
        if points > MAX_FIGURE_POINTS:  # before any grid is allocated
            raise ValueError(
                f"a figure surface of {points} points exceeds MAX_FIGURE_POINTS = "
                f"{MAX_FIGURE_POINTS}; use smaller counts"
            )

    @classmethod
    def _types(cls) -> dict:  # option -> int or float, its default's type
        return {f.name: type(f.default) for f in fields(cls)}


def _sweep_mu(cfg: FigureConfig) -> np.ndarray:
    # open interval (0, 1): drop both endpoints of a uniform subdivision
    return np.linspace(0.0, 1.0, cfg.mu_count + 2)[1:-1]


def figure_table(fig_id: int, cfg: FigureConfig | None = None):
    """Compute one figure.

    Returns ``(columns, first, second, values)`` where ``values`` has
    shape (len(second), len(first)): rows vary along the second (outer)
    coordinate, columns along the first.
    """
    cfg = cfg or FigureConfig()
    if fig_id not in _FIGURES:
        raise ValueError(f"figure id must be one of {FIGURE_IDS}, got {fig_id!r}")
    n, frame, coords, _ = _FIGURES[fig_id]
    columns = (*coords, "value")
    x = np.linspace(cfg.x_min, cfg.x_max, cfg.x_count)
    t = np.linspace(0.0, cfg.t_max, cfg.t_count)

    # a sweep along x holds the time at t_fixed
    sweep_x = frame is None and coords[0] == "x"
    eps, eps_dot = parametric_resonance_epsilon(cfg.k, cfg.t_fixed if sweep_x else t)
    if frame is not None:
        return columns, x, t, fock_mdf(n, eps[:, None], eps_dot[:, None], 0.0, x, *frame)

    mus = _sweep_mu(cfg)
    nus = np.sqrt(1.0 - mus**2)
    if sweep_x:
        return columns, x, mus, fock_mdf(n, eps, eps_dot, 0.0, x, mus[:, None], nus[:, None])
    return columns, t, mus, fock_mdf(n, eps, eps_dot, 0.0, cfg.x_fixed, mus[:, None], nus[:, None])


def gaussian_slice_residual(x: np.ndarray, values: np.ndarray) -> float:
    """Worst sup-residual of a log-parabola fit over the rows of ``values``.

    A row is fitted on its finite values of at least the smallest normal
    float, so underflowed tails do not enter ``log``.  A row that loses a
    value where its fitted Gaussian lies above that floor (plus the fit
    tolerance), or keeps fewer than 3 values, raises ConsistencyError
    naming the slice.
    """
    rows = np.atleast_2d(values)
    # an x beyond 2**500 is scaled down by a power of two, exactly, so that x**2 cannot overflow
    shift = max(0, int(np.frexp(np.max(np.abs(x)))[1]) - 500)
    design = np.vander(np.ldexp(x, -shift), 3)
    usable = np.isfinite(rows) & (rows >= _TINY)
    whole = usable.all(axis=1)
    worst = 0.0
    if whole.any():
        logs = np.log(rows[whole]).T
        coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
        worst = float(np.max(np.abs(design @ coef - logs)))
    for i in np.flatnonzero(~whole):
        keep = usable[i]
        if np.count_nonzero(keep) < 3:
            raise ConsistencyError(f"slice {i}: fewer than 3 values above underflow to fit")
        logs = np.log(rows[i, keep])
        coef, *_ = np.linalg.lstsq(design[keep], logs, rcond=None)
        worst = max(worst, float(np.max(np.abs(design[keep] @ coef - logs))))
        fitted = design[~keep] @ coef
        if np.any(fitted >= _LOG_UNDERFLOW):
            j = np.flatnonzero(~keep)[np.argmax(fitted)]
            raise ConsistencyError(
                f"slice {i}: value {rows[i, j]:.3e} at x = {x[j]:g} where the fitted "
                f"log-parabola is {fitted.max():.3f}, above the underflow level "
                f"{_LOG_UNDERFLOW:.3f}"
            )
    return worst


def count_near_zero_minima(values: np.ndarray):
    """Interior local minima below ZERO_MINIMUM_REL * the row maximum, along the last axis.

    A 1-D row gives an ``int``; a 2-D array gives one count per row.
    """
    values = np.asarray(values, dtype=float)
    cut = ZERO_MINIMUM_REL * values.max(axis=-1, keepdims=True)
    inner = values[..., 1:-1]
    interior = (inner < values[..., :-2]) & (inner < values[..., 2:]) & (inner < cut)
    counts = np.count_nonzero(interior, axis=-1)
    return int(counts) if values.ndim == 1 else counts


def time_independence_residual(values: np.ndarray) -> float:
    """Largest deviation of any row from the first row."""
    return float(np.max(np.abs(values - values[0])))


def _validate(fig_id: int, cfg: FigureConfig, first, second, values) -> None:
    n, frame, coords, _ = _FIGURES[fig_id]
    if not np.all(np.isfinite(values)):
        raise ConsistencyError(f"figure {fig_id}: non-finite tomogram values")
    if np.any(values < 0):
        raise ConsistencyError(f"figure {fig_id}: negative tomogram values")
    if n == 0 and coords[0] == "x":
        try:
            residual = gaussian_slice_residual(first, values)
        except ConsistencyError as exc:
            raise ConsistencyError(f"figure {fig_id}: ground-state {exc}") from None
        if residual > GAUSSIAN_FIT_TOL:
            raise ConsistencyError(
                f"figure {fig_id}: ground-state slice deviates from a Gaussian "
                f"(log-parabola residual {residual:.3e} > {GAUSSIAN_FIT_TOL})"
            )
    if n == 2:
        zeros = count_near_zero_minima(values)
        bad = np.flatnonzero(zeros != 2)
        if bad.size:
            i = bad[0]
            # w_2 = hermite_gauss(2, x/|r|)^2 / |r| is below the cut on a width `needed`
            # around each zero x = +-|r|/sqrt(2): a coarser x grid can step over it
            abs_r = _frame_kernel(0.0, *parametric_resonance_epsilon(cfg.k, second[i]), 0.0, *frame)[2]
            y = np.linspace(0.0, math.sqrt(2.5), 100_001)  # w_2 peaks at Y^2 = 5/2
            profile = hermite_gauss(2, y) ** 2
            needed = np.count_nonzero(profile < ZERO_MINIMUM_REL * profile[-1]) * y[1] * abs_r
            zero, spacing = abs_r * _INV_SQRT2, first[1] - first[0]
            if spacing > needed or not first[0] <= -zero < zero <= first[-1]:
                raise ValueError(
                    f"figure {fig_id}: slice t = {second[i]:g} needs an x spacing of at most {needed:.3g} "
                    f"on a range covering its zeros x = +-{zero:.3g}; the grid has {spacing:.3g} "
                    f"on [{first[0]:g}, {first[-1]:g}]")
            raise ConsistencyError(
                f"figure {fig_id}: slice t = {second[i]:g} shows {zeros[i]} interior "
                "zeros, expected the 2 of the second Hermite polynomial"
            )
    if fig_id == 1 and cfg.k == 0.0:
        residual = time_independence_residual(values)
        if residual > T_INDEPENDENCE_TOL:
            raise ConsistencyError(
                f"figure 1: k = 0 surface varies in time by {residual:.3e}"
            )


def write_figure(fig_id: int, out_dir, cfg: FigureConfig | None = None) -> tuple[Path, Path]:
    """Compute, validate and write ``fig<N>.csv`` and ``fig<N>.gp``.

    Identical configuration yields byte-identical CSV output.  The surface
    is validated before either file is opened, so a figure that fails
    leaves existing files untouched; the CSV body is then streamed to disk
    block by block as it is formatted, never held whole.  Existing files
    are overwritten in place, not truncated first: each keeps its inode,
    its mode and, for a symlink, its target, and a write that is
    interrupted leaves the old file's tail after the new bytes instead of
    a short file.
    """
    cfg = cfg or FigureConfig()
    columns, first, second, values = figure_table(fig_id, cfg)
    _validate(fig_id, cfg, first, second, values)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"fig{fig_id}.csv"
    gp_path = out_dir / f"fig{fig_id}.gp"

    lines = [
        f"# osctomo figure {fig_id}: {_FIGURES[fig_id][-1]}",
        "# profile: parametric resonance k=%.12g, force=0, "
        "epsilon from the closed-form resonance approximation" % cfg.k,
        "# grid: %s in [%.12g, %.12g] (%d points), %s over %d points"
        % (columns[0], first[0], first[-1], len(first), columns[1], len(second)),
        ",".join(columns),
        "",
    ]
    # loaded here, not at import: figure_table's callers, the battery among them, format no CSV
    from ._csvbody import csv_rows

    write_in_place(csv_path, itertools.chain(["\n".join(lines)], csv_rows(first, second, values)))

    script = [
        f"# gnuplot surface script for fig{fig_id}.csv",
        'set datafile separator ","',
        "set key autotitle columnhead",
        f"set dgrid3d {len(second)},{len(first)}",
        "set hidden3d",
        f'set xlabel "{columns[0]}"',
        f'set ylabel "{columns[1]}"',
        'set zlabel "w"',
        f'splot "fig{fig_id}.csv" using 1:2:3 with lines notitle',
    ]
    write_in_place(gp_path, ["\n".join(script) + "\n"])
    return csv_path, gp_path
