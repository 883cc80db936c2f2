"""Built-in acceptance battery.

Each check pins one quantitative claim the package is expected to satisfy
(conservation laws, closed-form identities, order-of-accuracy targets)
at a fixed tolerance.  ``run_all`` prints one pass/fail line per check;
the same battery backs the ``osctomo selftest`` subcommand and the
acceptance test module of the test suite.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import figures
from .dynamics import DriveProfile, flow_at, parametric_resonance_epsilon, solve_epsilon
from .invariants import delta_vector, lambda_matrix
from .propagators import (
    ClassicalPropagator,
    fokker_planck_residual,
    green_free,
    green_sho,
    quantum_propagator,
)
from .states import (
    annihilation_eigencheck,
    coherent_mdf,
    coherent_wavefunction,
    fock_mdf,
    cross_mdf,
    mean_X,
    variance_X,
)
from .transforms import DensityGrid, mdf_from_density

__all__ = ["Check", "CheckResult", "ALL_CHECKS", "run_all"]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2

_FRAMES = ((1.0, 0.0), (0.0, 1.0), (_INV_SQRT2, _INV_SQRT2))

@functools.cache
def _trajectory(kind: str, t_end: float = 20.0, step: float = 1e-3):
    profile = {
        "constant": lambda: DriveProfile.constant(1.0),
        "free": DriveProfile.free,
        "resonance": lambda: DriveProfile.parametric_resonance(0.01),
    }[kind]()
    return solve_epsilon(profile, t_end, step, tol_wronskian=1e-4)


def _driven_state(t: float, force: float = 1.0):
    """Analytic (eps, eps_dot, beta) for constant unit frequency, f = force.

    eps = exp(1j t) solves the auxiliary equation exactly, and
    beta = -force (exp(1j t) - 1)/sqrt(2) is the closed-form drive shift.
    """
    eps = cmath.exp(1j * t)
    beta = -force * (eps - 1.0) / _SQRT2
    return eps, 1j * eps, beta


@dataclass(frozen=True)
class CheckResult:
    ident: str
    description: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.ident}] {status}  {self.description}  ({self.detail})"


@dataclass(frozen=True)
class Check:
    ident: str
    description: str
    func: Callable[[], tuple[bool, str]]

    def run(self) -> CheckResult:
        passed, detail = self.func()
        return CheckResult(self.ident, self.description, passed, detail)


def _check_wronskian():
    worst = 0.0
    for kind in ("constant", "free", "resonance"):
        worst = max(worst, _trajectory(kind).max_wronskian_drift)
    return worst <= 1e-8, f"max drift {worst:.3e} <= 1e-08"


def _check_invariant_matrix():
    worst_det, worst_zero = 0.0, 0.0
    for kind in ("constant", "free", "resonance"):
        traj = _trajectory(kind)
        sel = slice(None, None, 200)
        for e, ed in zip(traj.eps[sel], traj.eps_dot[sel]):
            lam = lambda_matrix(e, ed)
            worst_det = max(worst_det, abs(np.linalg.det(lam) - 1.0))
        lam0 = lambda_matrix(traj.eps[0], traj.eps_dot[0])
        worst_zero = max(worst_zero, float(np.max(np.abs(lam0 - np.eye(2)))))
        worst_zero = max(worst_zero, float(np.max(np.abs(delta_vector(0.0)))))
    ok = worst_det <= 1e-8 and worst_zero <= 1e-12
    return ok, f"max |det-1| {worst_det:.3e} <= 1e-08, t=0 identity residual {worst_zero:.3e}"


def _normalization_cases():
    profile = DriveProfile.constant(1.0, force=lambda t: 1.0)
    for t in (0.0, 1.0, 3.0):
        eps, eps_dot, beta = flow_at(profile, t)
        for mu, nu in _FRAMES:
            for alpha in (0.0, 0.7 + 0.3j):
                yield lambda X, a=alpha, e=eps, ed=eps_dot, b=beta, m=mu, n=nu: (
                    coherent_mdf(a, e, ed, b, X, m, n)
                )
            for n_f in (0, 1, 2, 5):
                yield lambda X, k=n_f, e=eps, ed=eps_dot, b=beta, m=mu, n=nu: (
                    fock_mdf(k, e, ed, b, X, m, n)
                )


def _check_normalization():
    X = np.linspace(-12.0, 12.0, 4001)
    worst = 0.0
    for w in _normalization_cases():
        worst = max(worst, abs(float(np.trapezoid(w(X), X)) - 1.0))
    return worst <= 1e-6, f"max |integral w dX - 1| {worst:.3e} <= 1e-06"


def _check_moments():
    X = np.linspace(-12.0, 12.0, 4001)
    alpha = 0.7 + 0.3j
    worst = 0.0
    for t in (0.0, 1.0, 3.0):
        eps, eps_dot, beta = _driven_state(t)
        for mu, nu in _FRAMES:
            w = coherent_mdf(alpha, eps, eps_dot, beta, X, mu, nu)
            mean_q = float(np.trapezoid(X * w, X))
            var_q = float(np.trapezoid((X - mean_q) ** 2 * w, X))
            worst = max(worst, abs(mean_q - mean_X(alpha, eps, eps_dot, beta, mu, nu)))
            worst = max(worst, abs(var_q - variance_X(eps, eps_dot, mu, nu)))
    return worst <= 1e-8, f"max quadrature-vs-closed-form deviation {worst:.3e} <= 1e-08"


def _check_two_routes():
    alpha = 0.7 + 0.3j

    # route 1: initial tomogram pushed through the classical propagator,
    # on the grid of 9 X values by 4 frames in one call per time
    worst_prop = 0.0
    w0 = lambda X, m, n: coherent_mdf(alpha, 1.0, 1.0j, 0.0, X, m, n)
    X = np.linspace(-4.0, 4.0, 9)[:, None]
    mu, nu = np.array([(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.4, 1.1)]).T
    for t in (0.7, 1.9, 3.0):
        eps, eps_dot, beta = _driven_state(t)
        prop = ClassicalPropagator.from_epsilon(eps, eps_dot, beta, t)
        a = prop.evolve(w0, X, mu, nu)
        b = coherent_mdf(alpha, eps, eps_dot, beta, X, mu, nu)
        worst_prop = max(worst_prop, float(np.max(np.abs(a - b))))

    # route 2: wavefunction -> density grid -> tomogram quadrature
    t = 1.0
    eps, eps_dot, beta = _driven_state(t)
    rho = DensityGrid.from_wavefunction(
        lambda x: coherent_wavefunction(alpha, eps, eps_dot, beta, x), 9.0, 361
    )
    worst_rho = 0.0
    for mu, nu in ((0.0, 1.0), (_INV_SQRT2, _INV_SQRT2)):
        for X in np.linspace(-5.0, 5.0, 41):
            a = mdf_from_density(rho, X, mu, nu)
            b = coherent_mdf(alpha, eps, eps_dot, beta, X, mu, nu)
            worst_rho = max(worst_rho, abs(a - b))
    ok = worst_prop <= 1e-10 and worst_rho <= 1e-4
    return ok, f"propagator route {worst_prop:.3e} <= 1e-10, density route {worst_rho:.3e} <= 1e-04"


def _check_eigencheck():
    alpha = 0.3 + 0.2j
    eps, eps_dot, beta = _driven_state(0.8)
    args = (alpha, eps, eps_dot, beta, 0.7, 0.6, 0.9)
    r_coarse = abs(annihilation_eigencheck(*args, 2e-3))
    r_half = abs(annihilation_eigencheck(*args, 1e-3))
    r_fine = abs(annihilation_eigencheck(*args, 1e-4))
    ratio = r_coarse / r_half
    ok = 3.5 <= ratio <= 4.5 and r_fine <= 1e-6
    return ok, f"Richardson ratio {ratio:.3f} in [3.5, 4.5], residual {r_fine:.3e} <= 1e-06 at h=1e-4"


def _check_generating_function():
    alpha = 0.5 * cmath.exp(0.4j)
    order = 12
    eps, eps_dot, beta = _driven_state(1.2)
    X = np.linspace(-6.0, 6.0, 41)
    worst = 0.0
    for mu, nu in ((1.0, 0.0), (0.6, 0.8)):
        series = np.zeros_like(X, dtype=complex)
        for n in range(order + 1):
            for m in range(order + 1):
                coeff = alpha**n * np.conj(alpha) ** m / math.sqrt(
                    math.factorial(n) * math.factorial(m)
                )
                series += coeff * cross_mdf(n, m, eps, eps_dot, beta, X, mu, nu)
        series *= math.exp(-abs(alpha) ** 2)
        target = coherent_mdf(alpha, eps, eps_dot, beta, X, mu, nu)
        worst = max(worst, float(np.max(np.abs(series - target))))
    return worst <= 1e-6, f"truncated series error {worst:.3e} <= 1e-06 (|alpha|=0.5, N=12)"


def _seed_green(X: float, Z: float, t: float) -> complex:
    """The unit oscillator's kernel written out, (2 pi sin t)^{-1/2}
    exp{1j ((X^2 + Z^2) cos t - 2 X Z) / (2 sin t)}: a reference that shares
    no code with the kernel of the flow."""
    s = math.sin(t)
    expo = ((X * X + Z * Z) * math.cos(t) - 2.0 * X * Z) / (2.0 * s)
    return cmath.exp(1j * expo) / cmath.sqrt(2.0 * math.pi * s)


def _check_limits():
    profile0 = DriveProfile.constant(1.0)  # f = 0
    worst_sho = worst_seed = 0.0
    for X, Xp, Z, Zp, t in ((0.4, -0.2, 0.1, 0.9, 1.3), (1.0, 0.3, -0.5, 0.2, 2.4)):
        k_driven = quantum_propagator(X, Xp, Z, Zp, t, profile0)
        k_sho = green_sho(X, Z, t) * green_sho(Xp, Zp, t).conjugate()
        worst_sho = max(worst_sho, abs(k_driven - k_sho))
        # K is blind to a constant phase, so the seed kernel needs none
        k_seed = _seed_green(X, Z, t) * _seed_green(Xp, Zp, t).conjugate()
        worst_seed = max(worst_seed, abs(k_driven - k_seed))

    t = 1e-2
    worst_free = 0.0
    for X, Z in ((0.3, 0.4), (-0.2, 0.5), (0.1, -0.3)):
        g_s, g_f = green_sho(X, Z, t), green_free(X, Z, t)
        worst_free = max(worst_free, abs(g_s - g_f) / abs(g_f))

    mod_err = 0.0
    for X, Z in ((0.0, 0.0), (0.7, -1.2), (2.0, 0.4)):
        mod_err = max(mod_err, abs(abs(green_free(X, Z, 1.0)) - (2.0 * math.pi) ** -0.5))
    ok = worst_sho <= 1e-12 and worst_seed <= 1e-12 and worst_free <= 1e-3 and mod_err <= 1e-12
    return ok, (
        f"f->0 vs SHO {worst_sho:.3e}, f->0 vs seed kernel {worst_seed:.3e} <= 1e-12, "
        f"small-t vs free {worst_free:.3e} <= 1e-03, free modulus {mod_err:.3e}"
    )


def _check_phase_independence():
    profile = DriveProfile.constant(1.0, force=lambda t: math.cos(0.7 * t) + 0.4)
    worst = 0.0
    for X, Xp, Z, Zp, t in ((0.4, -0.2, 0.1, 0.9, 1.3), (-1.0, 0.6, 0.8, -0.3, 2.1)):
        k0 = quantum_propagator(X, Xp, Z, Zp, t, profile, phase=0.0)
        k1 = quantum_propagator(X, Xp, Z, Zp, t, profile, phase=0.37 * t)
        worst = max(worst, abs(k0 - k1))
    return worst <= 1e-12, f"max |K(F=0) - K(F=0.37t)| {worst:.3e} <= 1e-12"


def _check_fokker_planck():
    alpha = 0.7 + 0.3j
    point = (0.3, 0.8, 0.6, 0.9)
    worst_res, worst_ratio = 0.0, 0.0
    ratios = []
    for f_const in (0.0, 1.0):
        profile = DriveProfile.constant(1.0, force=lambda t, c=f_const: c)

        def w(X, mu, nu, t, c=f_const):
            return coherent_mdf(alpha, *_driven_state(t, c), X, mu, nu)

        res = abs(fokker_planck_residual(w, profile, point, 1e-3))
        res_coarse = abs(fokker_planck_residual(w, profile, point, 4e-3))
        res_half = abs(fokker_planck_residual(w, profile, point, 2e-3))
        worst_res = max(worst_res, res)
        ratios.append(res_coarse / res_half)
    ok = worst_res <= 1e-5 and all(3.2 <= r <= 4.8 for r in ratios)
    return ok, (
        f"residual {worst_res:.3e} <= 1e-05 at h=1e-3, "
        f"Richardson ratios {', '.join(f'{r:.2f}' for r in ratios)}"
    )


def _check_fock_reduction():
    rng = np.random.default_rng(7)
    worst = 0.0
    eps, eps_dot = cmath.exp(2.3j), 1j * cmath.exp(2.3j)
    for n in (0, 1, 2, 5):
        for _ in range(20):
            mu, nu = rng.normal(size=2)
            if mu * mu + nu * nu < 1e-2:
                continue
            s = math.hypot(mu, nu)
            X = rng.normal() * 2.0
            a = fock_mdf(n, eps, eps_dot, 0.0, X, mu, nu)
            b = fock_mdf(n, eps, eps_dot, 0.0, X / s, 1.0, 0.0) / s
            worst = max(worst, abs(a - b))
    return worst <= 1e-12, f"frame-resampling residual {worst:.3e} <= 1e-12"


def _check_figures():
    cfg = figures.FigureConfig()
    _, x1, t1, v1 = figures.figure_table(1, cfg)
    res_gauss = figures.gaussian_slice_residual(x1, v1)

    _, x4, t4, v4 = figures.figure_table(4, cfg)
    zero_counts = {figures.count_near_zero_minima(row) for row in v4}

    cfg0 = figures.FigureConfig(k=0.0)
    _, _, _, v0 = figures.figure_table(1, cfg0)
    res_time = figures.time_independence_residual(v0)

    fit_tol, time_tol = figures.GAUSSIAN_FIT_TOL, figures.T_INDEPENDENCE_TOL
    ok = res_gauss <= fit_tol and zero_counts == {2} and res_time <= time_tol
    return ok, (
        f"gaussian fit {res_gauss:.3e} <= {fit_tol:.0e}, fig4 zeros {sorted(zero_counts)} == [2], "
        f"k=0 time variation {res_time:.3e} <= {time_tol:.0e}"
    )


def _check_resonance_approximation():
    traj = _trajectory("resonance", t_end=10.0)
    eps_a, _ = parametric_resonance_epsilon(0.01, traj.t)
    worst = float(np.max(np.abs(eps_a - traj.eps)))
    return worst <= 5e-2, f"max |eps_approx - eps_ODE| {worst:.3e} <= 5e-02 (k=0.01, t <= 10)"


ALL_CHECKS = (
    Check("01-wronskian", "Wronskian conservation over [0, 20] at step 1e-3", _check_wronskian),
    Check("02-invariant-matrix", "det Lambda = 1 along trajectories; identity at t = 0", _check_invariant_matrix),
    Check("03-normalization", "tomograms integrate to 1 (coherent and Fock, driven)", _check_normalization),
    Check("04-moments", "quadrature mean/variance match the closed forms", _check_moments),
    Check("05-two-routes", "propagator route and density-matrix route agree with the closed form", _check_two_routes),
    Check("06-eigencheck", "Fourier-space coherence eigen-equation residual is O(h^2)", _check_eigencheck),
    Check("07-generating-function", "Fock series resums to the coherent tomogram", _check_generating_function),
    Check("08-limits", "driven -> SHO -> free propagator limits", _check_limits),
    Check("09-phase-independence", "density-matrix propagator blind to the Green-function phase", _check_phase_independence),
    Check("10-fokker-planck", "evolution-equation residual of the coherent closed form", _check_fokker_planck),
    Check("11-fock-reduction", "constant-frequency Fock tomograms depend on X/|(mu,nu)| only", _check_fock_reduction),
    Check("12-figures", "figure surfaces pass their structural checks", _check_figures),
    Check("13-resonance", "weak-resonance closed form tracks the ODE solution", _check_resonance_approximation),
)


def run_all() -> int:
    """Run every acceptance check, print one line per check, return 0 or 2."""
    failures = 0
    for check in ALL_CHECKS:
        result = check.run()
        print(result.line())
        failures += 0 if result.passed else 1
    summary = f"{len(ALL_CHECKS) - failures}/{len(ALL_CHECKS)} acceptance checks passed"
    print(summary)
    return 0 if failures == 0 else 2
