"""Command line driver.

Usage::

    osctomo figure --id N [--out DIR] [--config FILE] [--KEY VALUE ...]
    osctomo eval OPERATION [key=value ...]
    osctomo selftest
    osctomo -h | --help

``figure`` writes ``figN.csv`` (with a structural validation pass) and a
companion gnuplot script.  Its nine options, the fields of
``FigureConfig``, are key=value entries: the ``--config`` file's first,
then the flags given, so a flag overrides the file.  ``eval`` exposes
the library operations for scripted use and prints the values they
return with 12 significant digits; both commands read their key=value
entries by one typed reader, so a value of the wrong type names its key.
``selftest`` runs the acceptance battery.  Exit codes: 0 success, 1
usage error, 2 numerical-invariant failure.  The library validates its
own input, and a ValueError it raises is a usage error, as is an OSError
on a path the user gave; both are converted once in :func:`main`, and
the CLI keeps no copy of the library's rules.

:func:`main` reads the first argument as the command and hands the rest
to the typed reader as key=value entries: ``eval``'s as they are, and
``figure``'s flags ``--key value`` or ``--key=value``, full names only,
with each ``-`` of a name read as ``_`` (``--t-count`` is ``t_count``)
and the last of a repeated flag winning.  A separate value that starts
with ``-`` must be a number such as ``-30`` or ``-.5``; write any other
as ``--x-min=-1e3``.  A ``-h`` or ``--help`` before any ``--`` prints the
usage block above and the operation names.

Profile arguments for ``eval`` take the forms ``constant:<omega>``,
``free``, ``resonance:<k>`` or ``table:<path>`` (whitespace-separated
columns t, omega_sq and optionally force, linearly interpolated); a
constant force is supplied separately as ``force=<value>``, and a given
one, 0 too, replaces a table's force column.  Complex
values accept either ``0.7+0.3j`` or ``0.7+0.3i``.  :func:`main` keeps
the profiles it has parsed, the last 32 by spec, force and a table's
bytes (a rewritten table is parsed again; one that fails to parse is not
kept), and a profile keeps the record of its RK4 flow
(:func:`osctomo.dynamics.flow_at`), so many ``eval`` requests in one
process solve each profile's flow once up to the longest t asked for.
No output depends on the requests before it.

Importing this module loads numpy and :mod:`osctomo.errors` only.  Each
command imports what it runs when it runs: ``figure``
:mod:`osctomo.figures`, ``selftest`` the acceptance battery, and ``eval``
calls the library through the package root (``osctomo.flow_at``,
``osctomo.coherent_mdf``, ...), whose first use of a name imports the
submodule that defines it, so the CLI keeps no second record of where
each name lives.
"""

from __future__ import annotations

import cmath
import io
import math
import re
import sys
import threading
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

import osctomo

from .errors import OscTomoError

if TYPE_CHECKING:
    from . import dynamics

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, complex):
        return f"{value.real:.12g}{value.imag:+.12g}j"
    return f"{float(value):.12g}"


def _table_profile(
    path: str, data: np.ndarray, force
) -> tuple[dynamics.DriveProfile, tuple[float, float]]:
    """The profile interpolated from the table's rows, a given force in
    place of its force column, and the t range the rows cover."""
    if data.shape[1] not in (2, 3):
        raise ValueError(f"profile table {path!r} needs columns: t omega_sq [force]")
    if not np.isfinite(data).all():
        raise ValueError(f"profile table {path!r}: every entry must be finite")
    ts, w2 = data[:, 0], data[:, 1]
    if not np.all(np.diff(ts) > 0):
        raise ValueError(f"profile table {path!r}: the t column must be strictly increasing")
    f = data[:, 2] if data.shape[1] == 3 else np.zeros_like(ts)
    profile = osctomo.DriveProfile.custom(
        lambda t: np.interp(t, ts, w2), (lambda t: np.interp(t, ts, f)) if force is None else force
    )
    return profile, (float(ts[0]), float(ts[-1]))


# Profiles parsed in this process, least recently used first, by spec, force
# and a table's bytes: a profile keeps the record of its RK4 flow, so a
# later request on it reads that record, or extends it from its end,
# instead of solving again from 0.
_PROFILES: dict = {}
_PROFILES_KEPT = 32
_PROFILES_LOCK = threading.Lock()


def _parse_profile(
    spec: str, force: float | None
) -> tuple[dynamics.DriveProfile, tuple[float, float]]:
    """The profile and the t range it is defined on (a table's rows, else
    all t): the same profile object for the same spec, force and table
    content, from the last _PROFILES_KEPT parsed; a spec that fails to
    parse is not kept."""
    head, _, arg = spec.partition(":")
    try:
        content = Path(arg).read_bytes() if head == "table" else None
    except OSError as exc:
        raise ValueError(f"bad profile spec {spec!r}: {exc}") from exc
    key = (spec, repr(force), content)
    with _PROFILES_LOCK:
        parsed = _PROFILES.pop(key, None) or _read_profile(spec, content, force)
        _PROFILES[key] = parsed
        if len(_PROFILES) > _PROFILES_KEPT:
            del _PROFILES[next(iter(_PROFILES))]
    return parsed


def _read_profile(
    spec: str, content: bytes | None, force: float | None
) -> tuple[dynamics.DriveProfile, tuple[float, float]]:
    """A new profile from spec, and its t range; content is a table's bytes."""
    always = (-math.inf, math.inf)
    head, _, arg = spec.partition(":")
    try:
        if head == "constant":
            return osctomo.DriveProfile.constant(float(arg or 1.0), force), always
        if head == "free":
            return osctomo.DriveProfile.free(force), always
        if head == "resonance":
            return osctomo.DriveProfile.parametric_resonance(float(arg or 0.01), force), always
        if head == "table":
            with warnings.catch_warnings():  # a table with no rows fails the column check below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(io.BytesIO(content), comments="#", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"bad profile spec {spec!r}: {exc}") from exc
    if head != "table":
        raise ValueError(f"unknown profile kind {head!r} (use constant/free/resonance/table)")
    return _table_profile(arg, data, force)


_KINDS = {float: "a real number", int: "an integer", complex: "a complex number"}


class _Args:
    """key=value argument bag of a command that reads the given keys, with
    one typed reader and usage errors: a key outside them is refused before
    the command runs, and a later entry for a key replaces an earlier one."""

    def __init__(self, pairs, keys):
        self.values = {}
        for pair in pairs:
            key, sep, value = pair.partition("=")
            if not sep or not key:
                raise ValueError(f"arguments must look like key=value, got {pair!r}")
            self.values[key] = value
        if unknown := self.values.keys() - keys:
            raise ValueError(f"unknown argument(s): {', '.join(sorted(unknown))}")

    def get(self, key, kind=float, default=None):
        """The value of ``key`` (``default`` if absent) as ``kind``: str, or a
        finite float, an int, or a finite complex written ``0.7+0.3j`` or
        ``0.7+0.3i`` (only a final ``i`` is the imaginary unit, so ``inf``
        stays a number)."""
        raw = self.values.get(key, default)
        if raw is None:
            raise ValueError(f"missing required argument {key}=...")
        text = raw
        if kind is complex:
            text = raw.replace(" ", "")
            text = text[:-1] + "j" if text.endswith("i") else text
        try:
            value = kind(text)
        except ValueError as exc:
            raise ValueError(f"argument {key}={raw!r} is not {_KINDS[kind]}") from exc
        if kind in (float, complex) and not cmath.isfinite(value):
            raise ValueError(f"argument {key}={raw!r} is not finite")
        return value

    def frame(self) -> tuple[float, float]:
        """The tomographic frame (mu, nu), checked before any flow is solved."""
        mu, nu = self.get("mu"), self.get("nu")
        osctomo.states._check_frame(mu, nu)
        return mu, nu

    def profile_and_time(self) -> tuple[dynamics.DriveProfile, float]:
        """The drive profile and the time t; the flow runs over [0, t], so a
        table profile must cover that interval instead of being extrapolated."""
        spec = self.get("profile", str, "constant:1")
        force = self.get("force") if "force" in self.values else None  # a given 0 replaces a table's column
        profile, (t_first, t_last) = _parse_profile(spec, force)
        t = self.get("t")
        if not t_first <= min(0.0, t) <= max(0.0, t) <= t_last:
            raise ValueError(
                f"t={t!r}: the profile table covers t in [{t_first:g}, {t_last:g}], "
                f"which must contain [0, t]"
            )
        return profile, t

    def flow_args(self) -> tuple[dynamics.DriveProfile, float, float | None]:
        """profile_and_time and the ODE step, None (flow_at's default) if not given."""
        return (*self.profile_and_time(), self.get("step") if "step" in self.values else None)

    def flow(self) -> tuple[complex, complex, complex]:
        """flow_at(*flow_args()): (eps, eps_dot, beta) at t."""
        return osctomo.flow_at(*self.flow_args())


# the keys flow_args reads, and those profile_and_time reads
_FLOW_KEYS = ("profile", "force", "t", "step")
_PROFILE_KEYS = ("profile", "force", "t")


def _reads(*keys):
    """Declare the keys an eval operation reads: a request with any other is
    refused before the operation runs."""
    def declare(op):
        op.keys = frozenset(keys)
        return op
    return declare


@_reads(*_FLOW_KEYS)
def _op_epsilon(args):
    return args.flow()[:2]


@_reads(*_FLOW_KEYS)
def _op_wronskian(args):
    # the drift of the RK4 flow over [0, t], on every profile (so forward
    # from 0 only), read from the profile's record; any finite drift prints
    return (osctomo.dynamics._rk4_flow(*args.flow_args(), tol=math.inf)[3],)


@_reads(*_FLOW_KEYS)
def _op_beta(args):
    return args.flow()[2:]


@_reads("X", "mu", "nu", *_FLOW_KEYS)
def _op_frame_map(args):
    mu, nu = args.frame()
    prop = osctomo.ClassicalPropagator.from_profile(*args.flow_args())
    return prop.frame_map(args.get("X"), mu, nu)


@_reads("alpha", "X", "mu", "nu", *_FLOW_KEYS)
def _op_coherent_mdf(args):
    alpha = args.get("alpha", complex)
    mu, nu = args.frame()
    return (osctomo.coherent_mdf(alpha, *args.flow(), args.get("X"), mu, nu),)


@_reads("n", "X", "mu", "nu", *_FLOW_KEYS)
def _op_fock_mdf(args):
    n = args.get("n", int)
    mu, nu = args.frame()
    return (osctomo.fock_mdf(n, *args.flow(), args.get("X"), mu, nu),)


@_reads("n", "m", "X", "mu", "nu", *_FLOW_KEYS)
def _op_cross_mdf(args):
    n, m = args.get("n", int), args.get("m", int)
    mu, nu = args.frame()
    return (complex(osctomo.cross_mdf(n, m, *args.flow(), args.get("X"), mu, nu)),)


@_reads("alpha", "mu", "nu", *_FLOW_KEYS)
def _op_mean_X(args):
    alpha = args.get("alpha", complex)
    mu, nu = args.frame()
    return (osctomo.mean_X(alpha, *args.flow(), mu, nu),)


@_reads("mu", "nu", *_FLOW_KEYS)
def _op_variance_X(args):
    mu, nu = args.frame()
    eps, eps_dot, _ = args.flow()
    return (osctomo.variance_X(eps, eps_dot, mu, nu),)


@_reads("alpha", "mu", "nu", "k", "h", *_FLOW_KEYS)
def _op_annihilation_eigencheck(args):
    alpha = args.get("alpha", complex)
    mu, nu = args.frame()
    flow = args.flow()
    k, h = args.get("k"), args.get("h", float, "1e-4")
    return (osctomo.annihilation_eigencheck(alpha, *flow, mu, nu, k, h),)


@_reads("n", "y")
def _op_hermite(args):
    return (osctomo.hermite(args.get("n", int), args.get("y")),)


@_reads("X", "Z", "t")
def _op_green_sho(args):
    return (osctomo.green_sho(args.get("X"), args.get("Z"), args.get("t")),)


@_reads("X", "Z", "t")
def _op_green_free(args):
    return (osctomo.green_free(args.get("X"), args.get("Z"), args.get("t")),)


@_reads("X", "Z", *_PROFILE_KEYS)
def _op_green_driven(args):
    profile, t = args.profile_and_time()
    return (osctomo.green_driven(args.get("X"), args.get("Z"), t, profile),)


@_reads("X", "Xp", "Z", "Zp", *_PROFILE_KEYS)
def _op_quantum_propagator(args):
    profile, t = args.profile_and_time()
    points = (args.get(key) for key in ("X", "Xp", "Z", "Zp"))
    return (osctomo.quantum_propagator(*points, t, profile),)


# the operations by name: each eval OPERATION is the function _op_OPERATION
_OPERATIONS = {name[4:]: op for name, op in globals().items() if name.startswith("_op_")}


def _cmd_eval(tokens) -> int:
    # a "--" ends the options, and eval has none: it is dropped, and a token
    # before it that reads as an option is refused
    end = tokens.index("--") if "--" in tokens else len(tokens)
    options = [token for token in tokens[:end] if _is_option(token)]
    if options:
        raise ValueError(f"unrecognized argument(s): {' '.join(options)}")
    operation, *pairs = [*tokens[:end], *tokens[end + 1 :]] or [""]
    if operation not in _OPERATIONS:
        raise ValueError(f"the operation must be one of {', '.join(sorted(_OPERATIONS))}, got {operation!r}")
    op = _OPERATIONS[operation]
    print(" ".join(map(_fmt, op(_Args(pairs, op.keys)))))
    return 0


def _read_config(path: str) -> list[str]:
    pairs = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        pairs.append(f"{key.strip()}={value.strip()}")
    return pairs


# argparse's test for a token that is a number and not an option
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_option(token: str) -> bool:
    """Whether token reads as an option, never as a value: it starts with
    ``-`` and is not ``-``, a number such as ``-30``, or text with a space."""
    return token.startswith("-") and token != "-" and not _NEGATIVE_NUMBER.match(token) and " " not in token


def _flag_pairs(tokens) -> list[str]:
    """``--key value`` and ``--key=value`` flags as key=value entries, each
    ``-`` of a key read as ``_``; a key spelled with ``_`` is refused."""
    pairs, tokens = [], iter(tokens)
    for token in tokens:
        name, sep, value = token[2:].partition("=")
        if not token.startswith("--") or not name or "_" in name:
            raise ValueError(f"unrecognized argument {token!r}")
        if not sep and _is_option(value := next(tokens, "--")):  # a last flag has no value
            raise ValueError(f"flag {token} expects a value (write one that starts with - as {token}=VALUE)")
        pairs.append(f"{name.replace('-', '_')}={value}")
    return pairs


def _cmd_figure(tokens) -> int:
    from . import figures

    kinds = figures.FigureConfig._types()
    args = _Args(_flag_pairs(tokens), {"id", "out", "config", *kinds})
    fig_id, out, config = args.get("id", int), args.get("out", str, "."), args.get("config", str, "")
    flags = [f"{key}={args.get(key, str)}" for key in kinds if key in args.values]
    args = _Args([*(_read_config(config) if config else ()), *flags], kinds.keys())  # flags win
    options = {key: args.get(key, kind) for key, kind in kinds.items() if key in args.values}
    print(*figures.write_figure(fig_id, out, figures.FigureConfig(**options)), sep="\n")
    return 0


def _cmd_selftest(tokens) -> int:
    if tokens:
        raise ValueError(f"unrecognized argument(s): {' '.join(tokens)}")
    from . import selftest

    return selftest.run_all()


_COMMANDS = {"figure": _cmd_figure, "eval": _cmd_eval, "selftest": _cmd_selftest}
_HELP = {"-h", "--help"}


# the usage block of the module docstring, which python -OO strips
_USAGE = """\
    osctomo figure --id N [--out DIR] [--config FILE] [--KEY VALUE ...]
    osctomo eval OPERATION [key=value ...]
    osctomo selftest
    osctomo -h | --help"""


def _help() -> str:
    """What a help flag prints: the usage block and the operation names."""
    return f"usage:\n{_USAGE}\n\noperations: {' '.join(sorted(_OPERATIONS))}"


def main(argv=None) -> int:
    command, *tokens = (sys.argv[1:] if argv is None else list(argv)) or [""]
    try:
        end = tokens.index("--") if "--" in tokens else len(tokens)
        if command in _HELP or (command in _COMMANDS and not _HELP.isdisjoint(tokens[:end])):
            print(_help())
            return 0
        if command not in _COMMANDS:
            raise ValueError(f"the command must be figure, eval or selftest, got {command!r}")
        return _COMMANDS[command](tokens)
    except OscTomoError as exc:
        print(f"numerical invariant failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # bad input, or a path the user gave
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
