"""Command line driver.

Three subcommands::

    osctomo figure --id N [--out DIR] [grid/profile overrides | --config FILE]
    osctomo eval OPERATION key=value [key=value ...]
    osctomo selftest

``figure`` writes ``figN.csv`` (with a structural validation pass) and a
companion gnuplot script.  ``eval`` exposes the library operations for
scripted use and prints values with 12 significant digits.  ``selftest``
runs the acceptance battery.  Exit codes: 0 success, 1 usage error,
2 numerical-invariant failure.

Profile arguments for ``eval`` take the forms ``constant:<omega>``,
``free``, ``resonance:<k>`` or ``table:<path>`` (whitespace-separated
columns t, omega_sq and optionally force, linearly interpolated); a
constant force is supplied separately as ``force=<value>``.  Complex
values accept either ``0.7+0.3j`` or ``0.7+0.3i``.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from pathlib import Path

import numpy as np

from . import figures, selftest
from .dynamics import DriveProfile, flow_at, hermite, solve_epsilon
from .errors import OscTomoError
from .propagators import (
    ClassicalPropagator,
    green_driven,
    green_free,
    green_sho,
    quantum_propagator,
)
from .states import (
    annihilation_eigencheck,
    coherent_mdf,
    cross_mdf,
    fock_mdf,
    mean_X,
    variance_X,
)

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the CLI contract wants 1
    def error(self, message):
        raise UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, complex):
        return f"{value.real:.12g}{value.imag:+.12g}j"
    return f"{float(value):.12g}"


def _parse_complex(text: str) -> complex:
    return complex(text.replace("i", "j").replace(" ", ""))


def _table_profile(path: str) -> DriveProfile:
    data = np.loadtxt(path, comments="#", ndmin=2)
    if data.shape[1] not in (2, 3):
        raise UsageError(f"profile table {path!r} needs columns: t omega_sq [force]")
    ts, w2 = data[:, 0], data[:, 1]
    if not np.all(np.diff(ts) > 0):
        raise UsageError(f"profile table {path!r}: the t column must be strictly increasing")
    f = data[:, 2] if data.shape[1] == 3 else np.zeros_like(ts)
    return DriveProfile.custom(
        lambda t: float(np.interp(t, ts, w2)),
        lambda t: float(np.interp(t, ts, f)),
    )


def _parse_profile(spec: str, force_value: float | None) -> DriveProfile:
    force = None if force_value in (None, 0.0) else (lambda t, c=force_value: c)
    head, _, arg = spec.partition(":")
    try:
        if head == "constant":
            return DriveProfile.constant(float(arg or 1.0), force)
        if head == "free":
            return DriveProfile.free(force)
        if head == "resonance":
            return DriveProfile.parametric_resonance(float(arg or 0.01), force)
        if head == "table":
            profile = _table_profile(arg)
            return DriveProfile.custom(profile.omega_sq, force or profile.force)
    except (ValueError, OSError) as exc:
        raise UsageError(f"bad profile spec {spec!r}: {exc}") from exc
    raise UsageError(f"unknown profile kind {head!r} (use constant/free/resonance/table)")


class _EvalArgs:
    """key=value argument bag with typed accessors and usage errors."""

    def __init__(self, pairs):
        self.values = {}
        for pair in pairs:
            key, sep, value = pair.partition("=")
            if not sep or not key:
                raise UsageError(f"arguments must look like key=value, got {pair!r}")
            self.values[key] = value
        self.used = set()

    def _get(self, key, default=None):
        self.used.add(key)
        if key in self.values:
            return self.values[key]
        if default is None:
            raise UsageError(f"missing required argument {key}=...")
        return default

    def real(self, key, default=None) -> float:
        raw = self._get(key, default)
        try:
            value = float(raw)
        except ValueError as exc:
            raise UsageError(f"argument {key}={raw!r} is not a real number") from exc
        if not math.isfinite(value):
            raise UsageError(f"argument {key}={raw!r} is not finite")
        return value

    def frame(self) -> tuple[float, float]:
        """The tomographic frame (mu, nu); (0, 0) is not a frame."""
        mu, nu = self.real("mu"), self.real("nu")
        if mu == 0.0 and nu == 0.0:
            raise UsageError("frame (mu, nu) = (0, 0) is not a valid tomographic frame")
        return mu, nu

    def integer(self, key, default=None) -> int:
        raw = self._get(key, default)
        try:
            return int(raw)
        except ValueError as exc:
            raise UsageError(f"argument {key}={raw!r} is not an integer") from exc

    def cplx(self, key, default=None) -> complex:
        raw = self._get(key, default)
        try:
            value = _parse_complex(str(raw))
        except ValueError as exc:
            raise UsageError(f"argument {key}={raw!r} is not a complex number") from exc
        if not cmath.isfinite(value):
            raise UsageError(f"argument {key}={raw!r} is not finite")
        return value

    def profile(self) -> DriveProfile:
        spec = self._get("profile", "constant:1")
        force = self.real("force", "0")
        return _parse_profile(spec, force)

    def check_consumed(self):
        unused = set(self.values) - self.used
        if unused:
            raise UsageError(f"unknown argument(s): {', '.join(sorted(unused))}")


def _state_inputs(args: _EvalArgs):
    """(t, eps, eps_dot, beta) at args' time for args' profile, via the ODE."""
    profile = args.profile()
    t = args.real("t")
    return (t, *flow_at(profile, t, args.real("step", "1e-3")))


def _op_epsilon(args):
    _, eps, eps_dot, _ = _state_inputs(args)
    return f"{_fmt(eps)} {_fmt(eps_dot)}"


def _op_wronskian(args):
    profile = args.profile()
    t = args.real("t")
    step = args.real("step", "1e-3")
    traj = solve_epsilon(profile, max(t, step), step, tol_wronskian=np.inf)
    return _fmt(traj.max_wronskian_drift)


def _op_beta(args):
    _, _, _, beta = _state_inputs(args)
    return _fmt(beta)


def _op_frame_map(args):
    mu, nu = args.frame()
    t, eps, eps_dot, beta = _state_inputs(args)
    prop = ClassicalPropagator.from_epsilon(eps, eps_dot, beta, t)
    x, mu, nu = prop.frame_map(args.real("X"), mu, nu)
    return f"{_fmt(x)} {_fmt(mu)} {_fmt(nu)}"


def _op_coherent_mdf(args):
    alpha = args.cplx("alpha")
    mu, nu = args.frame()
    _, eps, eps_dot, beta = _state_inputs(args)
    return _fmt(coherent_mdf(alpha, eps, eps_dot, beta, args.real("X"), mu, nu))


def _op_fock_mdf(args):
    n = args.integer("n")
    mu, nu = args.frame()
    _, eps, eps_dot, beta = _state_inputs(args)
    return _fmt(fock_mdf(n, eps, eps_dot, beta, args.real("X"), mu, nu))


def _op_cross_mdf(args):
    n, m = args.integer("n"), args.integer("m")
    mu, nu = args.frame()
    _, eps, eps_dot, beta = _state_inputs(args)
    return _fmt(complex(cross_mdf(n, m, eps, eps_dot, beta, args.real("X"), mu, nu)))


def _op_mean(args):
    alpha = args.cplx("alpha")
    mu, nu = args.frame()
    _, eps, eps_dot, beta = _state_inputs(args)
    return _fmt(mean_X(alpha, eps, eps_dot, beta, mu, nu))


def _op_variance(args):
    mu, nu = args.frame()
    _, eps, eps_dot, _ = _state_inputs(args)
    return _fmt(variance_X(eps, eps_dot, mu, nu))


def _op_eigencheck(args):
    alpha = args.cplx("alpha")
    mu, nu = args.frame()
    _, eps, eps_dot, beta = _state_inputs(args)
    residual = annihilation_eigencheck(
        alpha, eps, eps_dot, beta, mu, nu, args.real("k"), args.real("h", "1e-4"),
    )
    return _fmt(residual)


def _op_hermite(args):
    return _fmt(hermite(args.integer("n"), args.real("y")))


def _op_green_sho(args):
    return _fmt(green_sho(args.real("X"), args.real("Z"), args.real("t")))


def _op_green_free(args):
    return _fmt(green_free(args.real("X"), args.real("Z"), args.real("t")))


def _op_green_driven(args):
    profile = args.profile()
    return _fmt(green_driven(args.real("X"), args.real("Z"), args.real("t"), profile))


def _op_quantum_propagator(args):
    profile = args.profile()
    return _fmt(
        quantum_propagator(
            args.real("X"), args.real("Xp"), args.real("Z"), args.real("Zp"),
            args.real("t"), profile,
        )
    )


_OPERATIONS = {
    "epsilon": _op_epsilon,
    "wronskian": _op_wronskian,
    "beta": _op_beta,
    "frame_map": _op_frame_map,
    "coherent_mdf": _op_coherent_mdf,
    "fock_mdf": _op_fock_mdf,
    "cross_mdf": _op_cross_mdf,
    "mean_X": _op_mean,
    "variance_X": _op_variance,
    "annihilation_eigencheck": _op_eigencheck,
    "hermite": _op_hermite,
    "green_sho": _op_green_sho,
    "green_free": _op_green_free,
    "green_driven": _op_green_driven,
    "quantum_propagator": _op_quantum_propagator,
}


def _cmd_eval(ns) -> int:
    if ns.operation not in _OPERATIONS:
        raise UsageError(
            f"unknown operation {ns.operation!r}; available: {', '.join(sorted(_OPERATIONS))}"
        )
    args = _EvalArgs(ns.args)
    out = _OPERATIONS[ns.operation](args)
    args.check_consumed()
    print(out)
    return 0


_FIGURE_KEYS = (
    "k", "t_max", "t_count", "x_min", "x_max", "x_count",
    "mu_count", "t_fixed", "x_fixed", "gaussian_fit_tol", "t_independence_tol",
)


def _read_config(path: str) -> dict:
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        values[key.strip()] = value.strip()
    return values


def _cmd_figure(ns) -> int:
    overrides: dict = {}
    if ns.config:
        overrides.update(_read_config(ns.config))
    for key in _FIGURE_KEYS:
        flag = getattr(ns, key)
        if flag is not None:
            overrides[key] = flag
    try:
        cfg = figures.FigureConfig.from_mapping(overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    csv_path, gp_path = figures.write_figure(ns.id, ns.out, cfg)
    print(csv_path)
    print(gp_path)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="osctomo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="write a reference figure CSV and gnuplot script")
    fig.add_argument("--id", type=int, required=True, choices=figures.FIGURE_IDS)
    fig.add_argument("--out", default=".", help="output directory")
    fig.add_argument("--config", default=None, help="key=value file with grid overrides")
    for key in _FIGURE_KEYS:
        fig.add_argument(
            f"--{key.replace('_', '-')}", dest=key, type=float if not key.endswith("_count") else int,
            default=None,
        )

    ev = sub.add_parser("eval", help="evaluate a library operation")
    ev.add_argument("operation")
    ev.add_argument("args", nargs="*", metavar="key=value")

    sub.add_parser("selftest", help="run the acceptance battery")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command == "figure":
            return _cmd_figure(ns)
        if ns.command == "eval":
            return _cmd_eval(ns)
        return selftest.run_all()
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OscTomoError as exc:
        print(f"numerical invariant failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
