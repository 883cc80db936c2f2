"""The four closed-loop workloads: request generators and output checks.

Every workload is one client in one process that sends its next request
when the previous one has returned.  Requests come in decks.  A deck
fixes the mix of request kinds and grid sizes; the seed draws every other
input afresh for each deck, and the inputs that set the cost (times, grid
counts) are stratified over the deck, so that every deck, whatever the
seed, holds the same spread of work.

A request's ``run`` is the timed call into osctomo; its ``check`` compares
the output with a closed form from :mod:`oracles` and returns, per layer,
the worst error over its tolerance, or raises ``Mismatch``.  Library
functions are looked up on their module at call time, so the tracer's
wrappers see every call.

Two kinds of request are expected to fail today and stay in the mix so
that the defects stay visible (``known_defect``): malformed ``eval``
input, whose correct outcome is exit code 1, and density reconstructions
with the library-default ``QuadratureSpec``.  One request per deck is a
canary whose output the benchmark corrupts before checking it; the check
must reject it.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from osctomo import OscTomoError, cli, dynamics, propagators, states, transforms

# the figures' own closed form for eps; not a traced function
_resonance_eps = dynamics.parametric_resonance_epsilon


class Mismatch(Exception):
    """An output outside its tolerance, or the wrong exit code.

    The first argument is the reason, worded so that failures of one kind
    share it; any detail follows as a second argument.
    """


@dataclass
class Request:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    corrupt: Callable[[object], object] | None = None
    known_defect: bool = False
    tags: dict = field(default_factory=dict)


def _ratio(err, tol, what) -> float:
    err = float(err)
    if not math.isfinite(err) or err > tol:
        raise Mismatch(f"{what} outside tolerance", f"error {err:.3e} > {tol:.1e}")
    return err / tol


def _rounded(x: float, digits: int = 10) -> float:
    """x as it reads after printing with `digits` significant digits."""
    return float(f"{x:.{digits}g}")


def _stratified(rng, lo: float, hi: float, k: int, stride: int = 1) -> np.ndarray:
    """k values, one uniform draw from each of k equal strata of [lo, hi].

    Value i lies in stratum (stride * i) mod k; stride must be coprime to k.
    Every deck then holds the same spread of costs, whatever the seed.
    """
    strata = (stride * np.arange(k)) % k
    return lo + (hi - lo) * (strata + rng.uniform(size=k)) / k


def _frame(rng, min_nu: float = 0.0) -> tuple[float, float]:
    while True:
        theta = rng.uniform(-math.pi, math.pi)
        if abs(math.sin(theta)) >= min_nu:
            scale = rng.uniform(0.8, 1.25)
            return _rounded(scale * math.cos(theta)), _rounded(scale * math.sin(theta))


def _alpha(rng, r_max: float) -> complex:
    a = r_max * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return complex(_rounded(a.real), _rounded(a.imag))


# --------------------------------------------------------------------------- eval


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _values(output) -> list[complex]:
    code, text = output
    if code != 0:
        raise Mismatch(f"exit code {code}, expected 0")
    lines = text.strip().splitlines()
    if not lines:
        raise Mismatch("no output")
    try:
        return [complex(tok) for tok in lines[-1].split()]
    except ValueError as exc:
        raise Mismatch("unparsable output", lines[-1]) from exc


def _corrupt_values(output):
    code, text = output
    toks = []
    for tok in text.strip().split():
        v = complex(tok) * 1.01 + 0.01
        toks.append(f"{v.real:.12g}{v.imag:+.12g}j" if "j" in tok else f"{v.real:.12g}")
    return code, " ".join(toks) + "\n"


def _expect_usage_error(output) -> dict:
    code, _ = output
    if code != 1:
        raise Mismatch(f"exit code {code}, expected 1 (usage error)")
    return {}


def _close(value: complex, exact: complex, rel: float, what: str) -> float:
    return _ratio(abs(value - exact), rel * max(1.0, abs(exact)), what)


def _finite(values, what: str, nonnegative: bool = False) -> None:
    for v in values:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise Mismatch(f"{what}: non-finite value", str(v))
        if nonnegative and (v.imag != 0.0 or v.real < 0.0):
            raise Mismatch(f"{what}: tomogram value not a non-negative real", str(v))


@dataclass(frozen=True)
class Profile:
    spec: str
    kind: str  # constant / free / resonance / table
    omega: float = 1.0
    force: float = 0.0

    def args(self) -> list[str]:
        args = [f"profile={self.spec}"]
        if self.force:
            args.append(f"force={self.force!r}")
        return args

    @property
    def closed_form(self) -> bool:
        return self.kind in ("constant", "free")

    @property
    def key(self) -> str:
        return f"{self.spec} force={self.force!r}"


STATE_OPS = (
    "epsilon", "beta", "frame_map", "coherent_mdf", "fock_mdf",
    "cross_mdf", "mean_X", "variance_X", "wronskian",
)
# each malformed request kind, with what the CLI does with it today
MALFORMED = (
    "table_unsorted",  # exit 0 with a silently misread profile
    "t_nan",  # exit 0, prints nan+nanj
    "zero_frame_map",  # ValueError escapes cli.main
    "zero_frame_mdf",  # exit 2
)
CLOSED_OPS = ("green_sho", "green_sho", "green_driven", "quantum_propagator", "hermite", "hermite")
_WRONSKIAN_TOL = 1e-6
_EVAL_REL = 1e-7


class EvalStream:
    """``cli.main(["eval", op, ...])`` in process, stdout captured."""

    name = "eval_stream"
    nominal_deck_s = 3.4  # one deck's wall time at nominal machine speed, checks and probes included

    def __init__(self, seed: int, workdir: Path):
        ss = np.random.SeedSequence(seed)
        prof_rng, self._rng, warm_rng = (np.random.default_rng(s) for s in ss.spawn(3))
        self._warm_rng = warm_rng
        omega = _rounded(prof_rng.uniform(0.5, 2.0))
        f1, f2 = (_rounded(prof_rng.choice([-1, 1]) * prof_rng.uniform(0.2, 1.5)) for _ in range(2))
        k = _rounded(prof_rng.uniform(0.01, 0.3))
        table, unsorted = workdir / "profile.txt", workdir / "profile_unsorted.txt"
        ts = np.arange(0.0, 20.5 + 1e-9, 0.05)
        a, b, c, d = prof_rng.uniform([0.1, 0.3, 0.2, 0.3], [0.4, 1.5, 1.0, 1.5])
        rows = np.column_stack([ts, 1.0 + a * np.sin(b * ts), c * np.cos(d * ts)])
        np.savetxt(table, rows)
        np.savetxt(unsorted, rows[prof_rng.permutation(len(rows))])
        self.profiles = (
            Profile(f"constant:{omega!r}", "constant", omega),
            Profile(f"constant:{omega!r}", "constant", omega, f1),
            Profile("free", "free", 0.0),
            Profile("free", "free", 0.0, f2),
            Profile(f"resonance:{k!r}", "resonance"),
            Profile(f"table:{table}", "table"),
        )
        self._unsorted = Profile(f"table:{unsorted}", "table")
        # every (op, profile) pair once, then the closed-form ops, the
        # malformed inputs and the canary
        self.deck = [(op, i) for op in STATE_OPS for i in range(len(self.profiles))]
        self.deck += [(op,) for op in CLOSED_OPS]
        self.deck += [("malformed", m) for m in MALFORMED]
        self.deck += [("canary",)]

    def requests(self):
        while True:
            yield from (self._make(entry, self._rng, t) for entry, t in zip(self.deck, self._deck_times()))

    def _deck_times(self) -> list[float]:
        """One time per deck entry, in (0, 20] at the default step.

        Each profile's state ops take one time from each of len(STATE_OPS)
        strata, rotated from profile to profile so that each op meets
        several strata; the closed forms need |sin t| away from 0.
        """
        rng = self._rng
        strata = {i: iter(np.roll(_stratified(rng, 0.0, 20.0, len(STATE_OPS)), 2 * i))
                  for i in range(len(self.profiles))}
        strata["other"] = iter(_stratified(rng, 0.0, 20.0, len(MALFORMED) + 1))
        times = []
        for entry in self.deck:
            if entry[0] in CLOSED_OPS:
                t = 0.0
                while abs(math.sin(t)) < 0.15:
                    t = rng.uniform(0.0, 20.0)
            else:
                t = next(strata[entry[1] if entry[0] in STATE_OPS else "other"])
            times.append(_rounded(max(t, 1e-2)))
        return times

    def warmup(self) -> Request:
        return self._make(("coherent_mdf", 0), self._warm_rng, 1.5)

    def _make(self, entry, rng, t) -> Request:
        op = entry[0]
        if op in STATE_OPS:
            return self._state_request(op, self.profiles[entry[1]], rng, t)
        if op == "canary":
            req = self._state_request("coherent_mdf", self.profiles[0], rng, t)
            req.kind, req.corrupt = "canary", _corrupt_values
            return req
        if op == "malformed":
            return self._malformed(entry[1], rng, t)
        return self._closed_request(op, rng, t)

    def _state_request(self, op, profile: Profile, rng, t) -> Request:
        X = _rounded(rng.uniform(-3, 3))
        mu, nu = _frame(rng)
        alpha = _alpha(rng, 1.5)
        n, m = int(rng.integers(0, 7)), int(rng.integers(0, 5))
        argv = ["eval", op, *profile.args(), f"t={t!r}"]
        if op in ("coherent_mdf", "mean_X"):
            argv.append(f"alpha={alpha.real!r}{alpha.imag:+}j")
        if op == "fock_mdf":
            argv.append(f"n={n}")
        if op == "cross_mdf":
            argv += [f"n={n % 5}", f"m={m}"]
        if op in ("frame_map", "coherent_mdf", "fock_mdf", "cross_mdf"):
            argv.append(f"X={X!r}")
        if op not in ("epsilon", "beta", "wronskian"):
            argv += [f"mu={mu!r}", f"nu={nu!r}"]

        def check(output):
            vals = _values(output)
            if op == "wronskian":
                return {"dynamics": _ratio(vals[0].real, _WRONSKIAN_TOL, "Wronskian drift")}
            if not profile.closed_form:
                return self._structural_check(op, vals)
            eps, eps_dot = oracles.eps_exact(profile.kind, profile.omega, t)
            beta = oracles.beta_exact(profile.kind, profile.omega, profile.force, t)
            if op == "epsilon":
                return {"dynamics": max(_close(vals[0], eps, _EVAL_REL, "eps"),
                                        _close(vals[1], eps_dot, _EVAL_REL, "eps_dot"))}
            if op == "beta":
                return {"dynamics": _close(vals[0], beta, _EVAL_REL, "beta")}
            if op == "frame_map":
                exact = oracles.frame_map(eps, eps_dot, beta, X, mu, nu)
                return {"propagators": max(_close(v, e, _EVAL_REL, "frame map") for v, e in zip(vals, exact))}
            exact = {
                "coherent_mdf": lambda: oracles.coherent_tomogram(alpha, eps, eps_dot, beta, X, mu, nu),
                "fock_mdf": lambda: oracles.fock_tomogram(n, eps, eps_dot, beta, X, mu, nu),
                "cross_mdf": lambda: oracles.cross_tomogram(n % 5, m, eps, eps_dot, beta, X, mu, nu),
                "mean_X": lambda: oracles.mean_x(alpha, eps, eps_dot, beta, mu, nu),
                "variance_X": lambda: oracles.variance_x(eps, eps_dot, mu, nu),
            }[op]()
            return {"states": _close(vals[0], complex(exact), _EVAL_REL, op)}

        tags = {"profile": profile.key, "t": t}
        return Request(f"eval:{op}", lambda: _call_cli(argv), check, tags=tags)

    @staticmethod
    def _structural_check(op, vals) -> dict:
        if op == "epsilon":
            eps, eps_dot = vals
            scale = max(1.0, abs(eps) * abs(eps_dot))
            return {"dynamics": _ratio(oracles.wronskian_residual(eps, eps_dot), _WRONSKIAN_TOL * scale,
                                       "Wronskian of printed (eps, eps_dot)")}
        _finite(vals, op, nonnegative=op in ("coherent_mdf", "fock_mdf", "variance_X"))
        return {}

    def _closed_request(self, op, rng, t) -> Request:
        X, Z, Xp, Zp = (_rounded(v) for v in rng.uniform(-2, 2, 4))
        force = _rounded(rng.uniform(-1.5, 1.5))
        n, y = int(rng.integers(0, 21)), _rounded(rng.uniform(-3, 3))
        unit = ["profile=constant:1", f"force={force!r}"]
        argv, exact, rel = {
            "green_sho": (["X", "Z", "t"], lambda: oracles.green_sho(X, Z, t), 1e-9),
            "green_driven": (["X", "Z", "t", *unit], lambda: oracles.green_driven(X, Z, t, force), 1e-8),
            "quantum_propagator": (
                ["X", "Xp", "Z", "Zp", "t", *unit],
                lambda: oracles.quantum_propagator(X, Xp, Z, Zp, t, force),
                1e-8,
            ),
            "hermite": (["n", "y"], lambda: oracles.hermite(n, y), 1e-10),
        }[op]
        env = {"X": X, "Z": Z, "Xp": Xp, "Zp": Zp, "t": t, "n": n, "y": y}
        argv = ["eval", op] + [a if "=" in a else f"{a}={env[a]!r}" for a in argv]

        def check(output):
            value = _values(output)[0]
            if op == "hermite":
                # Cramer's bound |H_n(y)| <= 1.09 sqrt(2^n n!) exp(y^2/2) sets the scale
                scale = math.sqrt(2.0**n * math.factorial(n)) * math.exp(0.5 * y * y)
                return {"dynamics": _ratio(abs(value - exact()), rel * scale, "hermite")}
            return {"propagators": _close(value, complex(exact()), rel, op)}

        return Request(f"eval:{op}", lambda: _call_cli(argv), check)

    def _malformed(self, which, rng, t) -> Request:
        profile = self.profiles[0]
        X = _rounded(rng.uniform(-3, 3))
        argv = {
            "table_unsorted": ["eval", "epsilon", *self._unsorted.args(), f"t={t!r}"],
            "t_nan": ["eval", "green_sho", f"X={X!r}", "Z=0.5", "t=nan"],
            "zero_frame_map": ["eval", "frame_map", *profile.args(), f"t={t!r}", f"X={X!r}", "mu=0", "nu=0"],
            "zero_frame_mdf": ["eval", "coherent_mdf", *profile.args(), f"t={t!r}", "alpha=0.5+0.5j",
                               f"X={X!r}", "mu=0", "nu=0"],
        }[which]
        solved = self._unsorted if which == "table_unsorted" else profile
        tags = {} if which == "t_nan" else {"profile": solved.key, "t": t}
        return Request(f"malformed:{which}", lambda: _call_cli(argv), _expect_usage_error,
                       known_defect=True, tags=tags)


# --------------------------------------------------------------------------- tomogram surface

_DENSITY_EXTENT, _DENSITY_N = 9.0, 361
_WIGNER_EXTENT, _WIGNER_N = 7.0, 401
_SURFACE_POINTS = 20
_DENSITY_TOL, _WIGNER_TOL, _EVOLVE_TOL = 1e-4, 1e-6, 1e-10


@dataclass(frozen=True)
class DrivenCoherent:
    """Coherent state of the unit oscillator under a constant force, at time t."""

    alpha: complex
    force: float
    t: float

    @property
    def flow(self) -> tuple[complex, complex, complex]:
        eps = complex(math.cos(self.t), math.sin(self.t))
        return eps, 1j * eps, -self.force * (eps - 1.0) / oracles.SQRT2


class TomogramSurface:
    """One slice of a tomogram surface, computed three ways."""

    name = "tomogram_surface"
    nominal_deck_s = 2.9
    POOL = 6

    def __init__(self, seed: int, workdir: Path):
        ss = np.random.SeedSequence(seed)
        pool_rng, self._rng, warm_rng = (np.random.default_rng(s) for s in ss.spawn(3))
        self.pool = [self._state(pool_rng) for _ in range(self.POOL)]
        self._warm_state, self._warm_rng = self._state(warm_rng), warm_rng
        self._grids: dict = {}
        self.deck = 2 * list(range(self.POOL)) + ["canary"]

    @staticmethod
    def _state(rng) -> DrivenCoherent:
        return DrivenCoherent(_alpha(rng, 1.0), _rounded(rng.uniform(-0.8, 0.8)), _rounded(rng.uniform(0.3, 6.0)))

    def _grids_for(self, state: DrivenCoherent):
        """The state's density and Wigner grids, built on first use."""
        if state not in self._grids:
            eps, eps_dot, beta = state.flow
            rho = transforms.DensityGrid.from_wavefunction(
                lambda x: states.coherent_wavefunction(state.alpha, eps, eps_dot, beta, x),
                _DENSITY_EXTENT, _DENSITY_N,
            )
            q_mean = float(oracles.mean_x(state.alpha, eps, eps_dot, beta, 1.0, 0.0))
            p_mean = float(oracles.mean_x(state.alpha, eps, eps_dot, beta, 0.0, 1.0))
            axis = np.linspace(-_WIGNER_EXTENT, _WIGNER_EXTENT, _WIGNER_N)
            wigner = transforms.WignerGrid(_WIGNER_EXTENT, oracles.unit_coherent_wigner(q_mean, p_mean, axis))
            self._grids[state] = (rho, wigner)
        return self._grids[state]

    def requests(self):
        while True:
            for entry in self.deck:
                if entry == "canary":
                    req = self._make(self.pool[int(self._rng.integers(self.POOL))], self._rng)
                    req.kind, req.corrupt = "canary", self._corrupt
                    yield req
                else:
                    yield self._make(self.pool[entry], self._rng)

    def warmup(self) -> Request:
        return self._make(self._warm_state, self._warm_rng)

    @staticmethod
    def _corrupt(output):
        dens, wig, evo = (a.copy() for a in output)
        dens[0] += 0.01
        return dens, wig, evo

    def _make(self, state: DrivenCoherent, rng) -> Request:
        mu, nu = _frame(rng, min_nu=0.5)
        eps, eps_dot, beta = state.flow
        mean = float(oracles.mean_x(state.alpha, eps, eps_dot, beta, mu, nu))
        sigma = math.sqrt(float(oracles.variance_x(eps, eps_dot, mu, nu)))
        xs = mean + sigma * np.linspace(-3.5, 3.5, _SURFACE_POINTS) + rng.uniform(-0.1, 0.1) * sigma
        reused = state in self._grids

        def run():
            rho, wigner = self._grids_for(state)
            dens = np.array([transforms.mdf_from_density(rho, X, mu, nu) for X in xs])
            wig = np.array([transforms.mdf_from_wigner(wigner, X, mu, nu) for X in xs])
            prop = propagators.ClassicalPropagator.from_epsilon(eps, eps_dot, beta, state.t)
            w0 = lambda X, m, n: states.coherent_mdf(state.alpha, 1.0, 1j, 0.0, X, m, n)
            evo = np.array([prop.evolve(w0, X, mu, nu) for X in xs])
            return dens, wig, evo

        def check(output):
            dens, wig, evo = output
            exact = oracles.coherent_tomogram(state.alpha, eps, eps_dot, beta, xs, mu, nu)
            return {
                "transforms": max(
                    _ratio(np.max(np.abs(dens - exact)), _DENSITY_TOL, "mdf_from_density"),
                    _ratio(np.max(np.abs(wig - exact)), _WIGNER_TOL, "mdf_from_wigner"),
                ),
                "propagators": _ratio(np.max(np.abs(evo - exact)), _EVOLVE_TOL, "ClassicalPropagator.evolve"),
            }

        return Request("surface", run, check, tags={"grid_reused": reused})


# --------------------------------------------------------------------------- density reconstruction

_RECON_EXTENT = 6.0
_RECON_TOL = 1e-6


def _tracking_window(alpha: complex):
    """The Y window of demos/05_transform_web.py: the mean +- 10 sigma, frame by frame."""
    vac = (1.0, 1.0j, 0.0)

    def window(mu, nu):
        centre = states.mean_X(alpha, *vac, mu, nu)
        sigma = np.sqrt(states.variance_X(1.0, 1.0j, mu, nu))
        return centre - 10.0 * sigma, centre + 10.0 * sigma

    return window


class DensityReconstruction:
    """``density_grid_from_mdf`` on closed-form tomograms at t = 0."""

    name = "density_reconstruction"
    nominal_deck_s = 3.9

    def __init__(self, seed: int, workdir: Path):
        ss = np.random.SeedSequence(seed)
        self._rng, self._warm_rng = (np.random.default_rng(s) for s in ss.spawn(2))
        # (state: "coherent", a Fock order or the canary; grid size; quadrature).
        # 161 is the size of the demo and the round-trip test; the Fock order
        # grows with the size, as both set the cost; n = 31 with the default
        # spec is the case that fails today.  The second coherent n = 81 makes
        # the count odd, so the median falls inside a group of like requests
        # instead of between two groups of different cost.
        self.deck = [
            ("coherent", 41, "demo"), (1, 41, "demo"),
            ("coherent", 81, "demo"), ("coherent", 81, "demo"), (3, 81, "demo"),
            ("coherent", 161, "demo"), (5, 161, "demo"),
            ("coherent", 31, "default"), ("canary", 41, "demo"),
        ]

    def requests(self):
        while True:
            for kind, n, spec in self.deck:
                yield self._make(kind, n, spec, self._rng)

    def warmup(self) -> Request:
        return self._make("coherent", 41, "demo", self._warm_rng)

    @staticmethod
    def _corrupt(output):
        values, element = output
        values = values.copy()
        values[0, 0] += 0.01
        return values, element

    def _make(self, kind, n, spec, rng) -> Request:
        canary = kind == "canary"
        if kind in ("coherent", "canary"):
            alpha = _alpha(rng, 1.2)
            w = lambda Y, mu, nu: states.coherent_mdf(alpha, 1.0, 1j, 0.0, Y, mu, nu)
            psi = lambda x: oracles.coherent_wavefunction0(alpha, x)
        else:
            order, alpha = kind, 0.0
            w = lambda Y, mu, nu: states.fock_mdf(order, 1.0, 1j, 0.0, Y, mu, nu)
            psi = lambda x: oracles.hermite_function(order, x)
        quad = None
        if spec == "demo":
            quad = transforms.QuadratureSpec(mu_max=12.0, mu_count=160, y_window=_tracking_window(alpha), y_count=501)
        X, Xp = (_rounded(v) for v in rng.uniform(-2, 2, 2))

        def run():
            # the element is computed even when the grid fails its own checks,
            # so that every request of a deck position does the same work
            try:
                values = transforms.density_grid_from_mdf(w, _RECON_EXTENT, n, quad).values
            except OscTomoError as exc:
                values = exc
            return values, transforms.density_from_mdf(w, X, Xp, quad, check_convergence=True)

        def check(output):
            values, element = output
            if isinstance(values, OscTomoError):
                raise Mismatch(f"raised {type(values).__name__}")
            z = np.linspace(-_RECON_EXTENT, _RECON_EXTENT, n)
            wave = psi(z)
            exact = np.outer(wave, np.conj(wave))
            exact_element = psi(X) * np.conj(psi(Xp))
            return {"transforms": max(
                _ratio(np.max(np.abs(values - exact)), _RECON_TOL, "density_grid_from_mdf"),
                _ratio(abs(element - exact_element), _RECON_TOL, "density_from_mdf"),
            )}

        if canary:
            return Request("canary", run, check, corrupt=self._corrupt)
        if spec == "default":
            return Request("default_spec", run, check, known_defect=True, tags={"default_spec": True})
        return Request(f"reconstruct:{'coherent' if kind == 'coherent' else 'fock'}:{n}", run, check)


# --------------------------------------------------------------------------- figures

_FIG_FRAMES = {1: (0, (1.0, 0.0)), 2: (0, (1 / oracles.SQRT2, 1 / oracles.SQRT2)), 3: (0, (0.0, 1.0)),
               4: (2, (1 / oracles.SQRT2, 1 / oracles.SQRT2))}
FIGURE_IDS = (1, 2, 3, 4, 5, 6)
_FIG_T_FIXED, _FIG_X_FIXED = 4.0, 0.0
_FIG_SAMPLES = 24
_FIG_REL = 1e-8


class FigureBatch:
    """``cli.main(["figure", "--id", N, ...])`` in process, N cycling 1..6."""

    name = "figure_batch"
    nominal_deck_s = 2.1

    def __init__(self, seed: int, workdir: Path):
        ss = np.random.SeedSequence(seed)
        self._rng, self._warm_rng = (np.random.default_rng(s) for s in ss.spawn(2))
        self.out = workdir / "figures"
        # each id twelve times, with t_count, x_count and mu_count stratified
        # over the deck; one id 1 slot runs at k = 0, where the
        # time-independence validation applies; the last slot is the canary
        self.deck = 12 * list(FIGURE_IDS)

    def requests(self):
        while True:
            deck_counts = np.column_stack([
                _stratified(self._rng, lo, hi, len(self.deck), stride)
                for lo, hi, stride in ((31, 121, 1), (61, 201, 5), (31, 101, 7))
            ]).astype(int)
            for i, (fig, counts) in enumerate(zip(self.deck, deck_counts)):
                k = 0.0 if i == len(FIGURE_IDS) else _rounded(self._rng.uniform(0.005, 0.25))
                req = self._make(fig, k, *counts, self._rng)
                if i == len(self.deck) - 1:
                    req.kind, req.corrupt = "canary", self._corrupt
                yield req

    def warmup(self) -> Request:
        return self._make(1, 0.01, 41, 81, 41, self._warm_rng)

    @staticmethod
    def _read(output) -> list[str]:
        if "csv" not in output:
            output["csv"] = Path(output["stdout"].splitlines()[0]).read_text()
        return output["csv"].splitlines()

    @classmethod
    def _corrupt(cls, output):
        lines = cls._read(output)
        a, b, v = lines[4].split(",")
        lines[4] = f"{a},{b},{float(v) * 1.01 + 0.01:.12g}"
        return dict(output, csv="\n".join(lines) + "\n")

    def _make(self, fig, k, t_count, x_count, mu_count, rng) -> Request:
        argv = ["figure", "--id", str(fig), "--out", str(self.out), "--k", repr(k),
                "--t-count", str(t_count), "--x-count", str(x_count), "--mu-count", str(mu_count)]
        rows_expected = {5: mu_count * x_count, 6: mu_count * t_count}.get(fig, t_count * x_count)
        picks = rng.integers(0, rows_expected, _FIG_SAMPLES)

        def run():
            code, stdout = _call_cli(argv)
            return {"code": code, "stdout": stdout}

        def check(output):
            if output["code"] != 0:
                raise Mismatch(f"exit code {output['code']}, expected 0")
            lines = self._read(output)
            data = [ln for ln in lines if ln and not ln.startswith("#")][1:]
            if len(data) != rows_expected:
                raise Mismatch(f"figure {fig}: wrong row count", f"{len(data)} rows, expected {rows_expected}")
            worst = 0.0
            for i in [0, *picks]:
                a, b, v = (float(s) for s in data[i].split(","))
                worst = max(worst, _ratio(abs(v - self._exact(fig, k, a, b)),
                                          _FIG_REL * max(1.0, abs(v)), f"figure {fig} value"))
            return {"figures": worst}

        return Request(f"figure:{fig}", run, check)

    @staticmethod
    def _exact(fig, k, a, b) -> float:
        if fig in _FIG_FRAMES:  # (x, t)
            n, (mu, nu) = _FIG_FRAMES[fig]
            eps, eps_dot = _resonance_eps(k, b)
            return float(oracles.fock_tomogram(n, eps, eps_dot, 0.0, a, mu, nu))
        if fig == 5:  # (x, mu) at t_fixed
            eps, eps_dot = _resonance_eps(k, _FIG_T_FIXED)
            return float(oracles.fock_tomogram(0, eps, eps_dot, 0.0, a, b, math.sqrt(1.0 - b * b)))
        eps, eps_dot = _resonance_eps(k, a)  # (t, mu) at x_fixed
        return float(oracles.fock_tomogram(0, eps, eps_dot, 0.0, _FIG_X_FIXED, b, math.sqrt(1.0 - b * b)))


WORKLOADS = {w.name: w for w in (EvalStream, TomogramSurface, DensityReconstruction, FigureBatch)}
