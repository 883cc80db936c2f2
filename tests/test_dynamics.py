import cmath
import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osctomo import (
    ClassicalPropagator,
    ConsistencyError,
    DensityGrid,
    DriveProfile,
    EvaluationError,
    LinearInvariant,
    QuadratureSpec,
    UnsupportedOrderError,
    WignerGrid,
    WronskianDriftError,
    annihilation_eigencheck,
    beta_shift,
    coherent_mdf,
    coherent_mdf_fourier,
    coherent_wavefunction,
    cross_mdf,
    delta_vector,
    density_from_mdf,
    density_grid_from_mdf,
    flow_at,
    fock_mdf,
    fokker_planck_residual,
    fourier_ladder_apply,
    green_driven,
    green_free,
    green_sho,
    hermite,
    hermite_gauss,
    ladder_pair,
    lambda_matrix,
    linear_invariant,
    mdf_from_density,
    mdf_from_wigner,
    mean_X,
    parametric_resonance_epsilon,
    quantum_propagator,
    solve_epsilon,
    variance_X,
)
from helpers import _prefix_products, classical_profiles, invariant_from_ladder, quantum_propagator_from_shift
from osctomo import dynamics, states
from osctomo.dynamics import _on_grid, _simpson
from osctomo.figures import FigureConfig


class TestSolveEpsilon:
    def test_initial_condition(self, resonance_traj):
        assert resonance_traj.eps[0] == 1.0 + 0.0j
        assert resonance_traj.eps_dot[0] == 1.0j

    def test_constant_frequency_quarter_period(self, constant_traj):
        # analytic solution exp(1j t): eps(pi/2) = 1j, eps_dot(pi/2) = -1
        eps, eps_dot = constant_traj(math.pi / 2.0)
        assert abs(eps - 1.0j) < 1e-10
        assert abs(eps_dot + 1.0) < 1e-10

    def test_free_motion(self, free_traj):
        # eps'' = 0 with the seeded data gives eps = 1 + 1j t exactly
        eps, eps_dot = free_traj(2.0)
        assert abs(eps - (1.0 + 2.0j)) < 1e-10
        assert abs(eps_dot - 1.0j) < 1e-12

    def test_repulsive_oscillator(self):
        # omega_sq = -1: eps = cosh t + 1j sinh t
        traj = solve_epsilon(DriveProfile.custom(lambda t: -1.0), 1.0, 1e-3)
        eps, eps_dot = traj(1.0)
        assert abs(eps - complex(math.cosh(1.0), math.sinh(1.0))) < 1e-10
        assert abs(eps_dot - complex(math.sinh(1.0), math.cosh(1.0))) < 1e-10

    def test_wronskian_conservation(self, constant_traj, free_traj, resonance_traj):
        for traj in (constant_traj, free_traj, resonance_traj):
            assert np.max(np.abs(traj.wronskian() - 2.0j)) <= 1e-8

    def test_fourth_order_convergence(self):
        profile = DriveProfile.constant(1.0)
        errs = []
        for step in (2e-2, 1e-2):
            traj = solve_epsilon(profile, 2.0, step)
            errs.append(np.max(np.abs(traj.eps - np.exp(1j * traj.t))))
        assert errs[0] / errs[1] >= 12.0

    def test_fourth_order_convergence_time_dependent(self):
        # a constant profile cannot tell the start, midpoint and end
        # frequencies of a step apart; a strongly modulated one can
        profile = DriveProfile.parametric_resonance(0.4)
        ref = solve_epsilon(profile, 4.0, 2.5e-3)
        errs = []
        for step, stride in ((2e-2, 8), (1e-2, 4)):
            traj = solve_epsilon(profile, 4.0, step)
            errs.append(np.max(np.abs(traj.eps - ref.eps[::stride])))
        assert errs[0] / errs[1] >= 12.0

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data(), t_end=st.floats(1e-3, 20.0), n=st.sampled_from([1, 2, 3, 997, 1024]))
    def test_matches_scalar_loop(self, data, t_end, n):
        profile = data.draw(profiles())
        traj = solve_epsilon(profile, t_end, t_end / n, tol_wronskian=np.inf)
        assert len(traj.t) == n + 1
        eps, eps_dot = scalar_rk4(profile, t_end, n)
        for got, want in ((traj.eps, eps), (traj.eps_dot, eps_dot)):
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("n", [7, 8, 9, 63, 64, 65, 511, 512, 513, 4097, 20000])
    @pytest.mark.parametrize(
        "profile",
        [DriveProfile.constant(1.3), DriveProfile.parametric_resonance(0.3)],
        ids=["constant", "modulated"],
    )
    def test_matches_scalar_loop_across_block_boundaries(self, profile, n):
        # n one below, at and one above whole blocks of the recursive product,
        # up to the 20 000 steps of a t = 20 flow at the default step
        t_end = 20.0 * min(1.0, n / 2000)
        traj = solve_epsilon(profile, t_end, t_end / n)
        eps, eps_dot = scalar_rk4(profile, t_end, n)
        for got, want in ((traj.eps, eps), (traj.eps_dot, eps_dot)):
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("omega", [1.0, 1.7])
    def test_long_run_rounding_does_not_accumulate(self, omega):
        # multiplying the rounded RK4 steps themselves drifts ~5e-12 here
        traj = solve_epsilon(DriveProfile.constant(omega), 20.0, 1e-3)
        assert traj.max_wronskian_drift <= 5e-14

    def test_interpolation_accuracy(self, constant_traj):
        for t in (0.37 + 2.5e-4, 11.1112345, 19.9990001):
            eps, eps_dot = constant_traj(t)
            assert abs(eps - np.exp(1j * t)) < 1e-12
            assert abs(eps_dot - 1j * np.exp(1j * t)) < 1e-12

    def test_too_many_steps_rejected_before_allocating(self):
        # 1e10 steps would ask for ~75 GiB; the check comes before any grid
        with pytest.raises(ValueError, match="MAX_STEPS"):
            solve_epsilon(DriveProfile.free(), 1e7, 1e-3)
        with pytest.raises(ValueError, match="MAX_STEPS"):
            solve_epsilon(DriveProfile.free(), 1.0, 1e-300)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_nan_or_negative_tolerance_rejected_before_allocating(self, tol):
        # a malformed argument, not a drift: checked before the ~2.3 MB of 2e4 steps
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^tol_wronskian must be non-negative"):
                solve_epsilon(DriveProfile.free(), 20.0, 1e-3, tol_wronskian=tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 18

    def test_step_limit_is_on_the_rounded_count(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 100)
        assert len(solve_epsilon(DriveProfile.free(), 0.1004, 1e-3).t) == 101
        with pytest.raises(ValueError, match="MAX_STEPS = 100"):
            solve_epsilon(DriveProfile.free(), 0.1006, 1e-3)

    def test_overflowing_flow_reports_the_drift_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WronskianDriftError, match="nan"):
                solve_epsilon(DriveProfile.constant(1e150), 1.0, 1e-3)

    def test_argument_validation(self):
        profile = DriveProfile.constant(1.0)
        with pytest.raises(ValueError):
            solve_epsilon(profile, -1.0, 1e-3)
        with pytest.raises(ValueError):
            solve_epsilon(profile, 1.0, 0.0)
        with pytest.raises(ValueError):
            solve_epsilon(profile, 1.0, 2.0)

    @pytest.mark.parametrize(
        "t_end, step, name",
        [(math.nan, 1e-3, "t_end"), (math.inf, 1e-3, "t_end"), (1.0, math.nan, "step")],
    )
    def test_non_finite_arguments_named(self, t_end, step, name):
        with pytest.raises(ValueError, match=name):
            solve_epsilon(DriveProfile.constant(1.0), t_end, step)

    def test_non_finite_omega(self):
        profile = DriveProfile.custom(lambda t: math.inf if t > 0.5 else 1.0)
        with pytest.raises(EvaluationError):
            solve_epsilon(profile, 1.0, 1e-2)

    def test_wronskian_tolerance_error(self):
        with pytest.raises(WronskianDriftError) as err:
            solve_epsilon(DriveProfile.constant(1.0), 5.0, 1e-3, tol_wronskian=1e-16)
        assert err.value.max_drift > 1e-16

    def test_out_of_range_evaluation(self, free_traj):
        with pytest.raises(ValueError):
            free_traj(20.5)
        with pytest.raises(ValueError):
            free_traj(-0.1)

    def test_peak_memory_per_step(self):
        # the steps and their products share one buffer: ~116 B/step at
        # t = 20, h = 1e-3 (t, eps and eps_dot, which the trajectory
        # keeps, are 40 of them)
        profile = DriveProfile.constant(1.7)
        solve_epsilon(profile, 20.0, 1e-3)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            solve_epsilon(profile, 20.0, 1e-3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak / 20_000 <= 128


class TestPrefixProducts:
    @pytest.mark.parametrize(
        "n", [1, 2, 7, 8, 9, 63, 64, 65, 511, 512, 513, 4095, 4096, 4097, 20000]
    )
    @pytest.mark.parametrize("magnitude", [1e-3, 0.5])
    def test_matches_strided_product(self, magnitude, n):
        # sizes one below, at and one above whole blocks put padding at every
        # level of the recursion; equal bits are likely but not asserted,
        # since einsum kernels may differ between CPUs
        steps = random_steps(np.random.default_rng(n), magnitude, n)
        want = strided_prefix_products(steps)
        got = _prefix_products(steps)
        assert got.shape == want.shape == (2, 2, n)
        scale = np.maximum(1.0, np.abs(1.0 + want).max(axis=(0, 1)))
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6000), seed=st.integers(0, 2**32 - 1), magnitude=st.sampled_from([1e-3, 0.5]),
           cuts=st.lists(st.floats(0.0, 1.0), max_size=6), whole_blocks=st.booleans())
    def test_split_products_are_the_one_piece_products(self, n, seed, magnitude, cuts, whole_blocks):
        # each piece continues the frontier of the pieces before it; cut anywhere, or
        # on block boundaries only, the products are those of one piece, bit for bit
        steps = random_steps(np.random.default_rng(seed), magnitude, n)
        cuts = sorted({round(c * n) // 8 * 8 if whole_blocks else round(c * n) for c in cuts} - {0, n})
        assert np.array_equal(products_in_pieces(steps, cuts), _prefix_products(steps))


def products_in_pieces(steps, cuts):
    """The running products of (2, 2, n) steps taken piece by piece between
    the cuts by _block_products, each piece after the frontier of the ones
    before it, whose level-0 raw entries lead the piece's level 0."""
    held, pieces = (), []
    for piece in np.split(steps, cuts, axis=-1):
        raw = held[0][0] if held else np.empty((2, 2, 0))
        entries = np.concatenate((raw, piece), axis=-1)
        count = entries.shape[-1]
        levels, spare = dynamics._workspace(count, held)
        dynamics._lay_out(entries, levels[0])
        held = dynamics._block_products(levels, spare, count, held)
        pieces.append(levels[0].transpose(0, 1, 3, 2).reshape(2, 2, -1)[..., raw.shape[-1] : count])
    return np.concatenate(pieces, axis=-1)


class TestSolveMatchesStridedProduct:
    @pytest.mark.parametrize("n", [*range(1, 10), 63, 64, 65, 4095, 4096, 4097, 20000])
    @pytest.mark.parametrize(
        "profile",
        [DriveProfile.constant(1.3), DriveProfile.parametric_resonance(0.3)],
        ids=["constant", "modulated"],
    )
    def test_flow_is_the_strided_product_of_the_rk4_steps(self, profile, n):
        # the workspace layout of solve_epsilon against the earlier strided
        # one, on the same RK4 steps, with padding at every level
        t_end = 20.0 * min(1.0, n / 2000)
        traj = solve_epsilon(profile, t_end, t_end / n)
        m = strided_prefix_products(rk4_steps(profile, t_end, n))
        m[0, 0] += 1.0
        m[1, 1] += 1.0
        scale = np.maximum(1.0, np.abs(m).max(axis=(0, 1)))
        for got, want in ((traj.eps, m[0, 0] + 1j * m[0, 1]), (traj.eps_dot, m[1, 0] + 1j * m[1, 1])):
            assert np.all(np.abs(got[1:] - want) <= 1e-14 * scale)


def rk4_steps(profile, t_end, n):
    """The differences A_k = P_k - 1 of the RK4 steps on (eps, eps_dot), in
    the closed form of the four stages, from omega_sq at each step's start,
    midpoint and end."""
    h = t_end / n
    t = np.linspace(0.0, t_end, n + 1)
    w_full = _on_grid(profile.omega_sq, t)
    w0, wh, w1 = w_full[:-1], _on_grid(profile.omega_sq, t[:-1] + 0.5 * h), w_full[1:]
    h2 = h * h
    return np.array(
        [
            [
                -h2 / 6.0 * (w0 + 2.0 * wh) + h2 * h2 / 24.0 * w0 * wh,
                h - h2 * h / 6.0 * wh,
            ],
            [
                -h / 6.0 * (w0 + 4.0 * wh + w1) + h2 * h / 12.0 * wh * (w0 + w1),
                -h2 / 6.0 * (2.0 * wh + w1) + h2 * h2 / 24.0 * wh * w1,
            ],
        ]
    )


def random_steps(rng, magnitude, n):
    """n differences A_k = P_k - 1 with entries of about ``magnitude``: any
    2x2 matrix at 1e-3, rotations by up to ``magnitude`` radians above that,
    where products of general matrices would overflow within 20 000 steps."""
    if magnitude < 0.1:
        return rng.uniform(-magnitude, magnitude, (2, 2, n))
    angle = rng.uniform(-magnitude, magnitude, n)
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c - 1.0, s], [-s, c - 1.0]])


def strided_prefix_products(steps, block=8):
    """The earlier layout of the product, the reference the position-major
    one must match: blocks[..., a, p] is step block * a + p, so every
    in-block scan reads one strided column, and a 2x2 composition takes
    five numpy calls."""
    n = steps.shape[-1]
    if n == 1:
        return steps
    count = -(-n // block)
    blocks = np.zeros((2, 2, count, block))
    blocks.reshape(2, 2, -1)[..., :n] = steps
    for p in range(1, block):
        blocks[..., p] = strided_compose(blocks[..., p], blocks[..., p - 1])
    starts = strided_prefix_products(blocks[..., -1], block)
    blocks[:, :, 1:] = strided_compose(blocks[:, :, 1:], starts[:, :, :-1, None])
    return blocks.reshape(2, 2, -1)[..., :n]


def strided_compose(x, y):
    out = x[:, :1] * y[0]
    out += x[:, 1:] * y[1]
    out += y
    out += x
    return out


class TestBetaShift:
    def test_zero_force(self, constant_traj):
        assert beta_shift(constant_traj, 7.3) == 0.0

    def test_constant_force_closed_form(self):
        # oracle: integral_0^t e^{1j s} ds = (e^{1j t} - 1)/1j, so
        # beta(pi) = sqrt(2) and beta(2 pi) = 0
        profile = DriveProfile.constant(1.0, force=lambda t: 1.0)
        traj = solve_epsilon(profile, 2.0 * math.pi, 1e-3)
        assert abs(beta_shift(traj, math.pi) - math.sqrt(2.0)) < 1e-10
        assert abs(beta_shift(traj, 2.0 * math.pi)) < 1e-10

    def test_generic_force_closed_form(self):
        # f(s) = cos(2s): integral e^{1j s} cos 2s ds has the antiderivative
        # [sin(3s)/3 + sin s + 1j (cos s - cos(3s)/3)] / 2 - 1j/3
        profile = DriveProfile.constant(1.0, force=lambda t: math.cos(2.0 * t))
        traj = solve_epsilon(profile, 2.0, 1e-3)
        t = 1.7
        integral = 0.5 * (
            math.sin(3 * t) / 3.0 + math.sin(t)
            + 1j * (math.cos(t) - math.cos(3 * t) / 3.0)
        ) - 1j / 3.0
        expected = -1j / math.sqrt(2.0) * integral
        assert abs(beta_shift(traj, t) - expected) < 1e-10

    def test_additivity(self):
        profile = DriveProfile.constant(1.0, force=lambda t: math.sin(t) + 0.3)
        traj = solve_epsilon(profile, 3.0, 1e-3)
        t1 = 1.2345671  # deliberately off the step grid
        total = beta_shift(traj, 2.9)
        split = beta_shift(traj, t1) + beta_shift(traj, 2.9, t_start=t1)
        assert abs(total - split) < 1e-10

    def test_array_force_matches_per_node_force(self):
        array_force = DriveProfile.parametric_resonance(0.2, force=lambda s: np.sin(3.0 * s) + 0.5)
        node_force = DriveProfile.parametric_resonance(0.2, force=lambda s: math.sin(3.0 * s) + 0.5)
        by_array = solve_epsilon(array_force, 6.0, 1e-3)
        by_node = solve_epsilon(node_force, 6.0, 1e-3)
        for t, t_start in ((6.0, 0.0), (3.3, 1.1), (0.0123, 0.0), (5.0, 4.9999)):
            want = beta_shift(by_node, t, t_start)
            assert abs(beta_shift(by_array, t, t_start) - want) <= 1e-13 * max(1.0, abs(want))

    def test_domain_error(self, constant_traj):
        with pytest.raises(ValueError):
            beta_shift(constant_traj, 21.0)

    def test_force_sampled_only_up_to_t(self):
        sampled = []

        def force(s):
            sampled.append(float(np.max(s)))
            return np.sin(s) + 0.5

        traj = solve_epsilon(DriveProfile.constant(1.0, force), 20.0, 1e-3)
        for t, t_start in ((0.5, 0.0), (3.3, 1.0)):
            sampled.clear()
            beta_shift(traj, t, t_start)
            # the last grid node used may be t rounded, 3.3000000000000003 for 3.3
            assert sampled and max(sampled) <= t + 1e-12
        sampled.clear()
        assert beta_shift(traj, 0.0) == 0.0 and not sampled

    def test_force_sampled_only_within_the_interval(self):
        sampled = []

        def force(s):
            sampled.append(np.atleast_1d(s))
            return np.sin(s) + 0.5

        traj = solve_epsilon(DriveProfile.constant(1.0, force), 20.0, 1e-3)
        h = traj.step
        for t, t_start in ((19.9, 19.8), (3.3, 1.0), (5.0, 4.9999), (10.0006, 10.0002), (2.0, 2.0)):
            sampled.clear()
            beta_shift(traj, t, t_start)
            nodes = np.concatenate(sampled) if sampled else np.empty(0)
            assert np.all((nodes >= t_start - h) & (nodes <= t + h))
            assert nodes.size <= (t - t_start) / h + 8

    def test_reversed_interval_is_negated(self):
        profile = DriveProfile.constant(1.0, force=lambda t: math.sin(t) + 0.3)
        traj = solve_epsilon(profile, 3.0, 1e-3)
        assert beta_shift(traj, 1.1, 2.345) == -beta_shift(traj, 2.345, 1.1)


class TestOnGrid:
    def test_array_and_scalar_results(self):
        t = np.linspace(0.0, 3.0, 7)
        assert np.array_equal(_on_grid(np.cos, t), np.cos(t))
        assert np.array_equal(_on_grid(lambda s: 2.5, t), np.full(7, 2.5))

    def test_array_rejecting_callable_sampled_per_node(self):
        t = np.linspace(0.0, 5.0, 11)
        for fn in (math.cos, lambda s: 1.0 if s < 2.0 else math.sin(s)):
            assert np.array_equal(_on_grid(fn, t), np.array([fn(s) for s in t]))

    def test_scalar_callable_error_propagates(self):
        def omega_sq(s):
            if s > 0.5:  # ValueError on an array, KeyError on a late node
                raise KeyError(s)
            return 1.0

        with pytest.raises(KeyError):
            _on_grid(omega_sq, np.linspace(0.0, 1.0, 5))
        with pytest.raises(KeyError):
            solve_epsilon(DriveProfile.custom(omega_sq), 1.0, 1e-2)


class TestNonFiniteProfiles:
    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf, 1e200])
    def test_constant_needs_finite_omega_and_square(self, omega):
        with pytest.raises(ValueError, match="must be finite"):
            DriveProfile.constant(omega)

    def test_nan_force_named_by_the_flow(self):
        profile = DriveProfile.constant(1.0, force=lambda t: math.nan if t > 0.5 else 0.0)
        with pytest.raises(EvaluationError, match="force non-finite at t = 0.501"):
            flow_at(profile, 1.0)

    def test_overflowing_flow_fails_the_wronskian_check(self):
        # omega_sq = 1e300 overflows the RK4 steps to NaN, and a NaN drift fails
        with np.errstate(all="ignore"), pytest.raises(WronskianDriftError, match="nan"):
            solve_epsilon(DriveProfile.custom(lambda t: 1e300), 1.0, 1e-3)


class TestSimpson:
    def test_exact_on_cubic(self):
        # Simpson's rule integrates polynomials up to degree 3 exactly
        x = np.linspace(-0.5, 1.5, 9)
        cubic = 2.0 * x**3 - x**2 + 3.0 * x - 1.0
        exact = 0.5 * x**4 - x**3 / 3.0 + 1.5 * x**2 - x
        assert abs(_simpson(cubic, x[1] - x[0]) - (exact[-1] - exact[0])) < 1e-13


class TestFlowAt:
    def test_initial_data_without_solving(self):
        # a NaN frequency would make any solve raise EvaluationError
        profile = DriveProfile.custom(lambda t: math.nan)
        assert flow_at(profile, 0.0) == (1.0, 1.0j, 0.0)

    def test_matches_trajectory_and_propagator(self):
        # at a checkpoint, a multiple of 8 steps of the fixed grid t_k = k step, the flow
        # is the transfer-matrix solve's node bit for bit, and beta Simpson's rule on it
        profile = DriveProfile.parametric_resonance(0.1, force=lambda t: math.cos(t) + 0.2)
        step, n = 1e-3, 2344
        t = n * step
        nodes = np.arange(n + 1) * step
        eps, eps_dot = dynamics._flow(profile.omega_sq, nodes, step)[0][:, : n + 1]
        flow = flow_at(profile, t, step)
        assert flow[:2] == (eps[n], eps_dot[n])
        beta = -1j / math.sqrt(2.0) * _simpson(eps * _on_grid(profile.force, nodes), step)
        assert abs(flow[2] - beta) <= 1e-15 * abs(beta)
        prop = ClassicalPropagator.from_profile(profile, t, step)
        assert flow == (prop.eps, prop.eps_dot, prop.beta)
        # between nodes, the closing step: the trajectory grid that lands on t agrees to roundoff
        t = 2.345
        traj = solve_epsilon(profile, t, step)
        for got, want in zip(flow_at(profile, t, step), (*traj(t), beta_shift(traj, t))):
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    def test_time_below_step(self):
        # 0 < t < step: the solve takes t itself as the step
        t = 5e-4
        eps, eps_dot, beta = flow_at(DriveProfile.constant(1.0), t)
        exact = np.exp(1j * t)
        assert abs(eps - exact) <= 1e-15 and abs(eps_dot - 1j * exact) <= 1e-15
        assert beta == 0.0
        assert ClassicalPropagator.from_profile(DriveProfile.constant(1.0), t).t == t

    @pytest.mark.parametrize(
        "profile, t",
        [(DriveProfile.constant(1.0), math.nan), (DriveProfile.constant(1.0), math.inf),
         (DriveProfile.constant(1.0), -math.inf), (DriveProfile.parametric_resonance(0.1), -1.0)],
        ids=["nan", "inf", "-inf", "-1.0"],
    )
    def test_time_outside_the_flow_rejected(self, profile, t):
        # t < 0 is outside the flow only where it is solved forward from 0
        with pytest.raises(ValueError, match="t must be >= 0"):
            flow_at(profile, t)

    def test_closed_form_before_time_zero(self):
        # e^{-i} and i e^{-i}, and beta of the force c = 1 is -(i/sqrt 2) c integral_0^{-1} e^{is} ds
        assert flow_at(DriveProfile.constant(1.0), -1.0) == (cmath.exp(-1j), 1j * cmath.exp(-1j), 0.0)
        beta = flow_at(DriveProfile.constant(1.0, 1.0), -1.0)[2]
        assert abs(beta - (-1j / math.sqrt(2.0)) * (cmath.exp(-1j) - 1.0) / 1j) <= 1e-15
        # a given step is bounded by |t|
        assert flow_at(DriveProfile.free(math.cos), -1.0, 1.0)[:2] == (complex(1.0, -1.0), 1j)
        with pytest.raises(ValueError, match=r"^step=2\.0 must satisfy 0 < step <= -t \(t=-1\.0\)$"):
            flow_at(DriveProfile.free(math.cos), -1.0, 2.0)

    @pytest.mark.parametrize(
        "t, step", [(1.0, 2.0), (5e-4, 1e-3), (1.0, 0.0), (0.0, -1e-3), (1.0, math.nan)]
    )
    def test_explicit_step_outside_zero_to_t_rejected(self, t, step):
        # an explicit step above t is an error, not clamped to t
        with pytest.raises(ValueError, match="0 < step <= t"):
            flow_at(DriveProfile.constant(1.0), t, step)
        with pytest.raises(ValueError, match="0 < step <= t"):
            ClassicalPropagator.from_profile(DriveProfile.constant(1.0), t, step)

    def test_any_positive_step_at_time_zero(self):
        assert flow_at(DriveProfile.constant(1.0), 0.0, 5.0) == (1.0, 1.0j, 0.0)

    def test_default_step_is_min_of_1e3_and_t(self):
        profile = DriveProfile.parametric_resonance(0.2, force=math.cos)
        for t in (5e-4, 1e-3, 0.75):
            assert flow_at(profile, t) == flow_at(profile, t, min(1e-3, t))


@st.composite
def extension_times(draw):
    """2 to 4 increasing times in (0, 40], each either anywhere or within a
    few checkpoints of an 8^L-block boundary of the default grid (64, 512,
    4096 and 32768 steps), so that consecutive times may straddle one."""
    near = st.sampled_from([0.064, 0.512, 4.096, 32.768]).flatmap(lambda b: st.floats(b - 0.03, b + 0.03))
    times = draw(st.lists(st.floats(1e-3, 40.0) | near, min_size=2, max_size=4, unique=True))
    return sorted(times)


def outcome(profile, t, step):
    """repr of flow_at(profile, t, step), or of the error it raises."""
    try:
        return repr(flow_at(profile, t, step))
    except (WronskianDriftError, EvaluationError) as error:
        return repr(error)


def fresh(profile):
    """A copy of an RK4-backed profile with no record of its flow."""
    return DriveProfile(profile.omega_sq, profile.force)


class TestFlowRecord:
    """An RK4-backed profile keeps one record of its flow on the grid
    t_k = k step; what a call returns never depends on earlier calls."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=classical_profiles(), t=st.floats(0.0, 8.0, exclude_min=True), longer=st.floats(0.0, 4.0),
           step=st.sampled_from([None, 1e-3, 2.5e-3]))
    def test_a_longer_solve_first_changes_no_bit(self, case, t, longer, step):
        profile = case[0]
        step = step if step is None or step <= t else None
        flow_at(profile, t + longer, step)
        assert repr(flow_at(profile, t, step)) == repr(flow_at(fresh(profile), t, step))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=classical_profiles(), times=extension_times(), step=st.sampled_from([None, 1e-3, 2.5e-3]))
    def test_a_shorter_solve_first_changes_no_bit(self, case, times, step):
        # each time extends the record of the one before; the flow at every time is
        # that of a fresh copy, a drift error or an overflow included
        profile = case[0]
        step = step if step is None or step <= times[0] else None
        for t in times:
            assert outcome(profile, t, step) == outcome(fresh(profile), t, step)
        assert 8 * (len(profile._record.drift) - 1) * (step or 1e-3) <= times[-1]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=classical_profiles(), n=st.integers(0, 7999), f=st.floats(0.0, 1.0, exclude_max=True))
    def test_agrees_with_the_trajectory_of_its_grid(self, case, n, f):
        # t = (n + f) step, against solve_epsilon's trajectory up to the next node,
        # interpolated at t; a table's omega_sq has kinks at its rows (whole t), where
        # RK4 is second order, so that trajectory shares the grid's nodes
        profile, step = case[0], 1e-3
        t = (n + f) * step or step
        traj = solve_epsilon(fresh(profile), (n + 1) * step, step)
        for got, want in zip(flow_at(profile, t), (*traj(t), beta_shift(traj, t))):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_record_bytes_per_step(self):
        profile = DriveProfile.parametric_resonance(0.3, math.cos)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            flow_at(profile, 20.0)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert kept / 20_000 <= 10

    def test_covered_time_solves_nothing(self, monkeypatch):
        profile = DriveProfile.parametric_resonance(0.3, math.cos)
        flow_at(profile, 10.0)
        record = profile._record

        def refuse(*args, **kwargs):
            raise AssertionError("_solve_record called")

        monkeypatch.setattr(dynamics, "_solve_record", refuse)
        for t in (1e-4, 3.7, 9.999, 10.0, 10.007):  # 10.007 is 7 steps past checkpoint 10000
            flow_at(profile, t)
        assert profile._record is record and not record.states.flags.writeable
        with pytest.raises(AssertionError, match="_solve_record called"):
            flow_at(profile, 10.008)  # the next checkpoint
        with pytest.raises(AssertionError, match="_solve_record called"):
            flow_at(profile, 5.0, 2e-3)  # another step replaces the record

    def test_a_failed_solve_keeps_the_record(self):
        # omega_sq is NaN past t = 6: a solve that reaches it raises, and keeps
        # the record of the earlier one
        profile = DriveProfile.custom(lambda t: np.where(t > 6.0, math.nan, 1.0 + 0.2 * np.sin(t)))
        flow_at(profile, 5.0)
        record = profile._record
        with pytest.raises(EvaluationError, match="omega_sq non-finite at t = 6.001"):
            flow_at(profile, 7.0)
        assert profile._record is record
        assert repr(flow_at(profile, 4.2)) == repr(flow_at(fresh(profile), 4.2))

    @pytest.mark.parametrize("sample", ["omega_sq", "force"])
    def test_a_failed_extension_keeps_the_record(self, sample):
        # omega_sq or the force is NaN in (6, 6.5): an extension that reaches it raises
        # and keeps the record, and one that stops short of it, or passes it on a
        # fresh copy, gives the fresh copy's bits
        nan_between = lambda t, value: np.where((t > 6.0) & (t < 6.5), math.nan, value)
        w = lambda t: 1.0 + 0.2 * np.sin(t)
        f = lambda t: np.cos(0.7 * t)
        profile = (DriveProfile.custom(lambda t: nan_between(t, w(t)), f) if sample == "omega_sq"
                   else DriveProfile.custom(w, lambda t: nan_between(t, f(t))))
        flow_at(profile, 3.0)
        record = profile._record
        with pytest.raises(EvaluationError, match=f"{sample} non-finite at t = 6.001"):
            flow_at(profile, 7.0)
        assert profile._record is record
        assert repr(flow_at(profile, 5.9)) == repr(flow_at(fresh(profile), 5.9))
        assert len(profile._record.drift) == 5900 // 8 + 1
        assert repr(flow_at(profile, 2.0)) == repr(flow_at(fresh(profile), 2.0))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=classical_profiles(), t=st.floats(0.0, 10.0, exclude_min=True), later=st.floats(0.0, 10.0))
    def test_an_extension_samples_after_the_record_alone(self, case, t, later):
        # after a flow to t, a flow to t + later samples omega_sq and the force only in
        # [8 floor(n / 8) step, t + later], n = floor(t / step): the nodes from the
        # record's last checkpoint on
        sampled = []
        record_samples = lambda fn: lambda s: sampled.append(np.atleast_1d(s)) or fn(s)
        base = case[0]
        profile = DriveProfile.custom(record_samples(base.omega_sq), record_samples(base.force))
        try:
            flow_at(profile, t)
        except WronskianDriftError:
            pass
        checkpoint = 8e-3 * (len(profile._record.drift) - 1) if profile._record is not None else 0.0
        sampled.clear()
        try:
            flow_at(profile, t + later)
        except WronskianDriftError:
            pass
        s = np.concatenate(sampled)
        assert s.min() >= checkpoint and s.max() <= t + later

    @pytest.mark.parametrize("profile, t", [
        (DriveProfile.parametric_resonance(0.05), 4.992),
        (DriveProfile.parametric_resonance(0.17, -0.8), 10.666),
        (DriveProfile.constant(1.3, 0.7), 8.351764574396757),
    ], ids=["resonance", "forced-resonance", "constant"])
    def test_drift_does_not_depend_on_how_far_the_record_reaches(self, profile, t):
        # a record past 16384 nodes once took the drift of its nodes from complex
        # products of 256 KiB or more, whose operands numpy swaps, and rounds apart:
        # these drifts then read one or two units of 2.2e-16 off a fresh copy's
        profile = fresh(profile)
        dynamics._rk4_flow(profile, 19.2, tol=math.inf)
        assert repr(dynamics._rk4_flow(profile, t, tol=math.inf)) == repr(
            dynamics._rk4_flow(fresh(profile), t, tol=math.inf))

    def test_record_grown_in_steps_keeps_bytes_per_step(self):
        profile = DriveProfile.parametric_resonance(0.3, math.cos)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for t in np.linspace(0.5, 20.0, 40):
                flow_at(profile, t)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(profile._record.drift) == 20_000 // 8 + 1
        assert kept / 20_000 <= 10

    def test_drift_gate_reads_zero_to_t(self):
        # omega = 40 drifts past TOL_WRONSKIAN late; a time before that passes
        # after the longer solve failed, as on a fresh copy
        profile = DriveProfile.custom(lambda t: np.full_like(t, 1600.0))
        with pytest.raises(WronskianDriftError):
            flow_at(profile, 400.0)
        assert repr(flow_at(profile, 1.0)) == repr(flow_at(fresh(profile), 1.0))

    def test_time_within_rounding_of_a_node_is_that_node(self, monkeypatch):
        # 0.344 / 1e-3 is 343.99999999999994, below the checkpoint 344: the flow reads
        # that checkpoint and closes the rounding, -5.6e-17, where node 343 would take
        # 7 steps and a closing step of about 1e-3
        closing = []
        step = dynamics._rk4_step
        monkeypatch.setattr(dynamics, "_rk4_step", lambda *a: closing.append(a[3]) or step(*a))
        profile = DriveProfile.parametric_resonance(0.2)
        for t in (0.344, 0.568, 0.8):
            flow_at(profile, t)
            assert all(abs(h) < 1e-15 for h in closing) and len(closing) <= 1
            closing.clear()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(w=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3), h=st.floats(1e-6, 0.1))
    def test_float_step_is_the_array_step(self, w, h):
        # the closing steps' float form of the RK4 step gives the array form's bits
        omega_sq = lambda t: np.where(t == 0.0, w[0], np.where(t == h, w[2], w[1]))
        steps = np.empty((2, 2, 1))
        dynamics._rk4_steps(omega_sq, np.array([0.0, h]), h, steps, np.empty(2))
        assert dynamics._rk4_step(w[0], w[1], w[2], h) == tuple(steps.reshape(4).tolist())


def exact_profile(omega, forced):
    """DriveProfile.constant(omega), with the force cos(1.3 s) + 0.2 if forced."""
    return DriveProfile.constant(omega, (lambda s: np.cos(1.3 * s) + 0.2) if forced else None)


class TestExactFlow:
    """Constant and free profiles take the closed-form flow; every other
    profile is solved by RK4, which the closed form must agree with."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(omega=st.floats(0.0, 3.0), t=st.floats(0.0, 20.0), forced=st.booleans())
    def test_matches_the_rk4_flow(self, omega, t, forced):
        profile = exact_profile(omega, forced)
        eps, eps_dot, beta = flow_at(profile, t)
        if t == 0.0:
            assert (eps, eps_dot, beta) == (1.0, 1j, 0.0)
            return
        # the same profile, unmarked, goes through the RK4 solve
        traj = solve_epsilon(DriveProfile.custom(profile.omega_sq, profile.force), t, min(1e-3, t))
        rk4_eps, rk4_eps_dot = traj(t)
        rk4_beta = beta_shift(traj, t)
        for got, want in ((eps, rk4_eps), (eps_dot, rk4_eps_dot), (beta, rk4_beta)):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(omega=st.floats(0.0, 3.0), t=st.floats(0.0, 20.0))
    def test_wronskian_is_one_to_roundoff(self, omega, t):
        eps, eps_dot, _ = flow_at(DriveProfile.constant(omega), t)
        assert abs((eps.conjugate() * eps_dot).imag - 1.0) <= 2e-15

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(omega=st.floats(0.0, 3.0), t=st.floats(0.0, 20.0), forced=st.booleans())
    def test_sign_of_omega_and_free_motion_bit_for_bit(self, omega, t, forced):
        flow = repr(flow_at(exact_profile(omega, forced), t))
        assert repr(flow_at(exact_profile(-omega, forced), t)) == flow
        force = exact_profile(0.0, forced).force
        assert repr(flow_at(DriveProfile.constant(0.0, force), t)) == repr(flow_at(DriveProfile.free(force), t))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(t=st.floats(0.0, 20.0, exclude_min=True))
    def test_unit_frequency_is_the_complex_exponential(self, t):
        assert flow_at(DriveProfile.constant(1.0), t)[:2] == (cmath.exp(1j * t), 1j * cmath.exp(1j * t))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(omega=st.floats(0.0, 3.0), t=st.floats(0.0, 20.0), step=st.floats(1e-4, 1.0))
    def test_force_sampled_only_within_zero_to_t(self, omega, t, step):
        sampled = []

        def force(s):
            sampled.append(np.atleast_1d(s))
            return np.sin(s) + 0.5

        flow_at(DriveProfile.constant(omega, force), t, min(step, t) or None)
        nodes = np.concatenate(sampled) if sampled else np.empty(0)
        assert np.all((nodes >= 0.0) & (nodes <= t))
        assert (nodes.size > 0) == (t > 0.0)

    def test_no_rk4_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("_solve_record called")

        monkeypatch.setattr(dynamics, "_solve_record", refuse)
        for profile in (DriveProfile.constant(1.7, math.cos), DriveProfile.free()):
            assert flow_at(profile, 20.0) == flow_at(profile, 20.0)
            assert profile._record is None
        with pytest.raises(AssertionError, match="_solve_record called"):
            flow_at(DriveProfile.custom(lambda t: 1.0), 1.0)

    def test_unforced_flow_builds_no_drive_grid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("_drive_grid called")

        monkeypatch.setattr(dynamics, "_drive_grid", refuse)
        for profile in (DriveProfile.constant(1.3), DriveProfile.constant(1.0), DriveProfile.free()):
            for t in (1e-4, 0.37, 20.0):
                beta = flow_at(profile, t)[2]
                assert repr(beta) == repr(complex(0.0, -0.0))
        with pytest.raises(AssertionError, match="_drive_grid called"):
            flow_at(DriveProfile.constant(1.3, math.cos), 1.0)

    def test_unforced_rk4_flow_takes_no_drive_integral(self, monkeypatch):
        # a Simpson sum of zero samples times -1j / sqrt 2 is 0-0j: the same value and
        # the same signed zeros, with no force sampled, and eps is the forced flow's
        sampled = []

        def on_grid(fn, t, name="profile value"):
            sampled.append(name)
            return on_grid.original(fn, t, name)

        on_grid.original = dynamics._on_grid
        monkeypatch.setattr(dynamics, "_on_grid", on_grid)
        profile = DriveProfile.parametric_resonance(0.3)
        forced = DriveProfile.parametric_resonance(0.3, math.cos)
        for t in (1e-4, 0.37, 5.0, 20.0):
            eps, eps_dot, beta = flow_at(profile, t)
            assert repr(beta) == repr(complex(0.0, -0.0))
            assert set(sampled) == {"omega_sq"} and getattr(profile._record, "drive", None) is None
            assert (eps, eps_dot) == flow_at(forced, t)[:2]
            assert "force" in sampled
            sampled.clear()

    def test_step_bound_message_names_no_t_end(self):
        for profile in (DriveProfile.free(math.cos), DriveProfile.parametric_resonance(0.1)):
            with pytest.raises(ValueError, match=f"MAX_STEPS = {dynamics.MAX_STEPS}$") as err:
                flow_at(profile, 1e7)
            assert "t_end" not in str(err.value)
        # the unforced free flow builds no grid, so it has no step bound
        assert flow_at(DriveProfile.free(), 1e7) == (complex(1.0, 1e7), 1j, 0.0)

    def test_step_bound_before_allocating(self):
        tracemalloc.start()
        try:
            for profile in (DriveProfile.constant(1.0, math.cos), DriveProfile.parametric_resonance(0.1)):
                for t, step in ((1e7, None), (1.0, 1e-300)):
                    with pytest.raises(ValueError, match="MAX_STEPS"):
                        flow_at(profile, t, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 18
        # a number force's closed form builds no grid at any step
        for profile in (DriveProfile.free(), DriveProfile.constant(1.0, 0.5)):
            for t, step in ((1e7, None), (1.0, 1e-300)):
                assert flow_at(profile, t, step) == flow_at(profile, t)

    def test_overflowing_phase_raises_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="omega t of the flow overflows"):
                flow_at(DriveProfile.constant(1e154), 1e300, 1e300)

    def test_large_finite_frequency(self):
        # the RK4 product overflows here (WronskianDriftError); the closed form does not
        eps, eps_dot, beta = flow_at(DriveProfile.constant(1e150), 1.0)
        assert (eps, eps_dot, beta) == (complex(math.cos(1e150), math.sin(1e150) / 1e150),
                                        complex(-1e150 * math.sin(1e150), math.cos(1e150)), 0.0)

    def test_records_omega_privately(self):
        profile = DriveProfile.constant(-2.0)
        assert profile._omega == 2.0 and DriveProfile.free()._omega == 0.0
        assert "_omega" not in repr(profile)
        assert DriveProfile.custom(lambda t: 4.0)._omega is None
        assert DriveProfile.parametric_resonance(0.1)._omega is None
        with pytest.raises(TypeError):
            DriveProfile(lambda t: 1.0, lambda t: 0.0, 1.0)


def zero_force_profiles():
    """The constant, free, resonance and table profiles, by the force they take."""
    return {"constant": lambda force: DriveProfile.constant(1.3, force),
            "free": DriveProfile.free,
            "resonance": lambda force: DriveProfile.parametric_resonance(0.2, force),
            "table": lambda force: DriveProfile.custom(lambda t: np.interp(t, [0.0, 20.0], [1.0, 3.0]), force)}


class TestConstantForce:
    """A force given as a number: exact beta on constant and free profiles,
    the equal callable's beta bit for bit on every other profile, and beta
    exactly 0-0j for the number 0 on all of them."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(omega=st.one_of(st.just(0.0), st.floats(0.0, 3.0)), c=st.floats(-2.0, 2.0),
           t=st.floats(-20.0, 20.0))
    def test_exact_beta_within_simpson_bound_of_the_equal_callable(self, omega, c, t):
        # closed forms take t < 0 too
        exact = flow_at(DriveProfile.constant(omega, c), t)[2]
        simpson = flow_at(DriveProfile.constant(omega, lambda s: c), t)[2]
        if t == 0.0:
            assert exact == simpson == 0.0
            return
        # composite Simpson errs by at most |t| h^4 max|g^(4)| / 180 in each part of
        # g = c eps, and |eps^(4)| = w^4 |eps| <= w^4 max(1, 1/w)
        h = abs(t) / (len(dynamics._drive_grid(t, min(1e-3, abs(t)))) - 1)
        bound = abs(c) * abs(t) * h**4 * omega**3 * max(omega, 1.0) / 180.0
        assert abs(exact - simpson) <= bound + 1e-14 * abs(c) * max(1.0, t * t)

    def test_closed_form(self):
        # integral_0^t e^{1j s} ds = (e^{1j t} - 1) / 1j, so beta(pi) = sqrt 2 for c = 1
        assert abs(flow_at(DriveProfile.constant(1.0, 1.0), math.pi)[2] - math.sqrt(2.0)) <= 1e-15
        assert flow_at(DriveProfile.free(2.0), 3.0)[2] == -1j / math.sqrt(2.0) * complex(6.0, 9.0)
        # the imaginary part (1 - cos wt) / w^2 = t^2 / 2 does not cancel at small wt
        beta = flow_at(DriveProfile.constant(1e-9, 1.0), 1e-4)[2]
        assert beta.real == pytest.approx(0.5e-8 / math.sqrt(2.0), rel=1e-15)

    def test_builds_no_drive_grid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("_drive_grid called")

        monkeypatch.setattr(dynamics, "_drive_grid", refuse)
        for profile in (DriveProfile.constant(1.7, 0.6), DriveProfile.constant(1.0, -3), DriveProfile.free(1.0)):
            for t in (1e-4, 0.37, 20.0):
                flow_at(profile, t)
                green_driven(0.1, 0.2, -t, profile)

    @pytest.mark.parametrize("kind", sorted(zero_force_profiles()))
    def test_zero_force_is_exactly_zero_with_no_grid(self, monkeypatch, kind):
        def refuse(*args, **kwargs):
            raise AssertionError("drive quadrature called")

        monkeypatch.setattr(dynamics, "_drive_grid", refuse)
        monkeypatch.setattr(dynamics, "beta_shift", refuse)
        make = zero_force_profiles()[kind]
        for profile in (make(0), make(0.0), make(-0.0), make(None)):
            assert profile._force == 0.0
            for t in (1e-4, 0.37, 5.0):
                assert repr(flow_at(profile, t)[2]) == repr(complex(0.0, -0.0))

    @pytest.mark.parametrize("kind", ["resonance", "table"])
    def test_number_force_off_the_closed_forms_is_the_callable_bit_for_bit(self, kind):
        make = zero_force_profiles()[kind]
        for c in (0.7, -1.3, 1e-300):
            for t in (0.37, 5.0):
                assert repr(flow_at(make(c), t)) == repr(flow_at(make(lambda s, c=c: c), t))

    def test_force_reads_as_a_callable(self):
        for make in zero_force_profiles().values():
            profile = make(0.7)
            assert profile._force == 0.7 and profile.force(3.0) == 0.7
            assert make(math.cos)._force is None
        assert "_force" not in repr(DriveProfile.free(0.7))

    def test_overflowing_exact_drive_integral_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # 1e308 (5 + 12.5j) overflows, in the exact form as in Simpson's rule
            with pytest.raises(EvaluationError, match=r"^the drive integral over t in \[0, 5\] overflows$"):
                flow_at(DriveProfile.free(1e308), 5.0)
            with pytest.raises(EvaluationError, match=r"over t in \[0, -5\] overflows$"):
                green_driven(0.1, 0.2, -5.0, DriveProfile.free(1e308))
            # on constant(1) |beta| = 1e308 |e^{5j} - 1| / sqrt 2 is finite, while Simpson's
            # partial sums for the equal callable overflow
            beta = flow_at(DriveProfile.constant(1.0, 1e308), 5.0)[2]
            assert abs(beta) == pytest.approx(1e308 * abs(cmath.exp(5j) - 1.0) / math.sqrt(2.0), rel=1e-14)
            with pytest.raises(EvaluationError, match=r"^the drive integral over t in \[0, 5\] overflows$"):
                flow_at(DriveProfile.constant(1.0, lambda s: 1e308), 5.0)

class TestParametricResonance:
    def test_t_zero(self):
        eps, _ = parametric_resonance_epsilon(0.3, 0.0)
        assert eps == 1.0 + 0.0j

    def test_k_zero_reduces_to_constant_frequency(self):
        for t in (0.0, 1.0, 7.5):
            eps, eps_dot = parametric_resonance_epsilon(0.0, t)
            assert abs(eps - np.exp(1j * t)) < 1e-15
            assert abs(eps_dot - 1j * np.exp(1j * t)) < 1e-15

    def test_matches_ode_solution(self, resonance_traj):
        # the closed form is an O(k) approximation; real and imaginary
        # parts of eps and eps_dot each stay within 5e-2 of the ODE
        eps_a, eps_dot_a = parametric_resonance_epsilon(0.01, 10.0)
        eps_o, eps_dot_o = resonance_traj(10.0)
        for diff in (eps_a - eps_o, eps_dot_a - eps_dot_o):
            assert abs(diff.real) <= 5e-2
            assert abs(diff.imag) <= 5e-2

    def test_k_range_guard(self):
        with pytest.raises(ValueError):
            parametric_resonance_epsilon(0.6, 1.0)
        with pytest.raises(ValueError):
            DriveProfile.parametric_resonance(0.5)

    @pytest.mark.parametrize("k", [0.5, -0.5, math.nan])
    def test_one_k_rule_on_every_entry_point(self, k):
        entries = (
            DriveProfile.parametric_resonance,
            lambda k: parametric_resonance_epsilon(k, 1.0),
            lambda k: FigureConfig(k=k),
        )
        for entry in entries:
            with pytest.raises(ValueError, match=r"requires k in \(-0\.5, 0\.5\), got"):
                entry(k)

    @pytest.mark.parametrize(
        "k, t, shown",
        [(0.3, 1e4, "10000"), (-0.3, 1e4, "10000"), (0.3, [1.0, 5e3, 1e4, 2e4], "10000"),
         (0.01, 3e5, "300000")],
    )
    def test_overflow_at_finite_t_raises_without_warnings(self, k, t, shown):
        # cosh(kt/4) overflows once |kt/4| passes ~710
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=rf"at k = {k:g} overflows .* at t = {shown}$"):
                parametric_resonance_epsilon(k, t)

    def test_largest_finite_values_still_returned(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps, eps_dot = parametric_resonance_epsilon(0.3, np.array([0.0, 9400.0]))
        assert np.all(np.isfinite(eps)) and np.all(np.isfinite(eps_dot))

    @pytest.mark.parametrize(
        "t, shown", [(math.nan, "nan"), (-math.inf, "-inf"), ([0.0, 1.0, math.inf, math.nan], "inf")]
    )
    def test_non_finite_t_named(self, t, shown):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^t must be finite, got {shown}$"):
                parametric_resonance_epsilon(0.1, t)


class TestRaiseFirst:
    """The one rule for naming the offending sample of an array argument."""

    def test_first_true_of_the_broadcast_in_c_order(self):
        bad = np.array([[False, False, True], [False, True, True]])
        x, y = np.array([[1.0], [2.0]]), np.array([10, 20, 30])
        with pytest.raises(RuntimeError, match=r"^\(1.0, 30.0\)$"):
            dynamics._raise_first(RuntimeError, "({}, {})", bad, x, y)

    def test_scalar_mask_names_the_first_sample(self):
        with pytest.raises(ValueError, match=r"^at 0.5$"):
            dynamics._raise_first(ValueError, "at {}", np.True_, np.array([0.5, 1.5]))

    def test_complex_values_stay_complex(self):
        z = np.array([1 + 1j, complex(math.nan, 2.0)])
        with pytest.raises(ValueError, match=r"^got \(nan\+2j\)$"):
            dynamics._raise_first(ValueError, "got {!r}", ~np.isfinite(z), z)


class TestHermite:
    def test_base_cases(self):
        assert hermite(0, 12.7) == 1.0
        assert hermite(1, 0.0) == 0.0

    def test_second_order(self):
        # recurrence by hand: H_2(y) = 4 y^2 - 2, so H_2(1) = 2
        assert hermite(2, 1.0) == 2.0

    def test_third_order_oracle(self):
        for y in (-1.3, 0.2, 2.0):
            assert hermite(3, y) == pytest.approx(8.0 * y**3 - 12.0 * y, rel=1e-14)

    def test_parity(self):
        y = np.linspace(0.1, 3.0, 13)
        for n in range(31):
            np.testing.assert_array_equal(hermite(n, -y), (-1.0) ** n * hermite(n, y))

    def test_order_guard(self):
        with pytest.raises(UnsupportedOrderError):
            hermite(201, 0.5)
        with pytest.raises(ValueError):
            hermite(-1, 0.5)

    @pytest.mark.parametrize("n", [math.inf, math.nan, 2.5])
    @pytest.mark.parametrize("fn", [hermite, hermite_gauss])
    def test_order_must_be_a_whole_number(self, fn, n):
        with pytest.raises(ValueError, match="^order must be at least 0 and a whole number"):
            fn(n, 0.5)

    @pytest.mark.parametrize(
        "n, y, shown",
        [(3, 1e200, "1e+200"), (200, 30.0, "30"), (1, 1e308, "1e+308"), (5, [0.5, -1e100, 2.0], "-1e+100")],
    )
    def test_overflow_at_finite_y_raises_without_warnings(self, n, y, shown):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=rf"H_{n}\(y\) overflows .* at y = {re.escape(shown)};"):
                hermite(n, y)

    def test_largest_finite_values_still_returned(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(hermite(200, 1.0))
            assert math.isfinite(hermite(3, 1e100))


class TestHermiteGauss:
    def test_matches_direct_formula(self):
        y = np.linspace(-3.0, 3.0, 11)
        for n in range(11):
            direct = (
                hermite(n, y)
                * np.exp(-0.5 * y * y)
                / math.sqrt(math.factorial(n) * 2.0**n * math.sqrt(math.pi))
            )
            np.testing.assert_allclose(hermite_gauss(n, y), direct, atol=1e-14)

    def test_high_order_stays_finite_and_normalised(self):
        y = np.linspace(-30.0, 30.0, 12001)
        u = hermite_gauss(200, y)
        assert np.all(np.isfinite(u))
        assert abs(np.trapezoid(u * u, y) - 1.0) < 1e-6

    def test_in_place_recurrence_bit_identical(self):
        rng = np.random.default_rng(4)
        arrays = (rng.normal(0.0, 4.0, (23, 37)), np.linspace(-9.0, 9.0, 41), [0.3, -1.7])
        scalars = (0.37, -2.5, np.float64(1.25), np.asarray(3.1))
        for n in range(31):
            for y in arrays:
                assert np.array_equal(hermite_gauss(n, y), allocating_hermite_gauss(n, y))
            for y in scalars:
                got, want = hermite_gauss(n, y), allocating_hermite_gauss(n, y)
                assert type(got) is type(want) is float and got == want


CHUNK = dynamics._HERMITE_CHUNK


class TestChunkedHermiteGauss:
    """The array recurrence runs over y in chunks of _HERMITE_CHUNK values,
    and each chunk comes out bit for bit as from one allocating pass."""

    @pytest.mark.parametrize("size", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    def test_every_size_bit_identical(self, size):
        y = np.random.default_rng(size).normal(0.0, 4.0, size)
        for n in range(31):
            assert np.array_equal(hermite_gauss(n, y), allocating_hermite_gauss(n, y))

    def test_far_values_in_one_chunk_clip_there_only(self):
        # the clip is the parent's clip of the whole array: every far value gives 0, a NaN NaN
        y = np.random.default_rng(3).normal(0.0, 4.0, 3 * CHUNK + 7)
        far = [1e200, -1e200, math.inf, -math.inf, math.nan]
        y[CHUNK + 5:CHUNK + 10] = far
        clipped = np.clip(y, -dynamics._HERMITE_Y_MAX, dynamics._HERMITE_Y_MAX)
        for n in range(31):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = hermite_gauss(n, y)
            assert np.array_equal(got, allocating_hermite_gauss(n, clipped), equal_nan=True)
            assert np.all(got[CHUNK + 5:CHUNK + 9] == 0.0) and np.isnan(got[CHUNK + 9])
            assert np.count_nonzero(np.isnan(got)) == 1

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_layouts_bit_identical(self, layout):
        base = np.random.default_rng(5).normal(0.0, 4.0, (260, 387))
        y = {"C": base[:130], "F": np.asfortranarray(base[:130]), "strided": base[::2, 1::3]}[layout]
        for n in (0, 1, 2, 7, 30):
            got = hermite_gauss(n, y)
            assert got.shape == y.shape and np.array_equal(got, allocating_hermite_gauss(n, y))

    def test_out_may_be_y_itself(self):
        y = np.random.default_rng(6).normal(0.0, 4.0, (7, CHUNK // 3))
        for n in (0, 1, 2, 7, 30):
            want = allocating_hermite_gauss(n, y)
            work = y.copy()
            assert dynamics._hermite_gauss_array(n, work, out=work) is work
            assert np.array_equal(work, want)

    def test_read_only_argument_stays_unchanged(self):
        y = np.random.default_rng(7).normal(0.0, 4.0, 2 * CHUNK + 3)
        y.flags.writeable = False
        kept = y.copy()
        got = hermite_gauss(4, y)
        assert np.array_equal(got, allocating_hermite_gauss(4, kept)) and np.array_equal(y, kept)
        assert got.flags.writeable and not np.shares_memory(got, y)


UNIT = DriveProfile.constant(1.0)
TRAJ = solve_epsilon(UNIT, 2.0, 0.01)
PROPAGATOR = ClassicalPropagator.from_epsilon(1.0, 1j, 0.0)
RHO = DensityGrid.from_wavefunction(lambda z: np.pi**-0.25 * np.exp(-z * z / 2.0), 6.0, 61)
WIGNER = WignerGrid(6.0, 2.0 * np.exp(-np.add.outer(RHO.axis**2, RHO.axis**2)))


def vacuum_at(X, mu, nu, t):
    return coherent_mdf(0.0, *flow_at(UNIT, t), X, mu, nu)


def coherent_transform(y, z):
    return coherent_mdf_fourier(1.0, 0.3, 1.0, 1j, 0.0, y, z)


#: entry point (argument) -> the call with that argument set to the value
ENTRY_POINTS = {
    "DriveProfile.constant(omega)": lambda v: DriveProfile.constant(v).omega_sq(0.0),
    "DriveProfile.parametric_resonance(k)": lambda v: DriveProfile.parametric_resonance(v).omega_sq(1.0),
    "DriveProfile.constant(force)": lambda v: flow_at(DriveProfile.constant(1.3, v), 0.5),
    "DriveProfile.free(force)": lambda v: flow_at(DriveProfile.free(v), 0.5),
    "DriveProfile.parametric_resonance(force)": lambda v: flow_at(DriveProfile.parametric_resonance(0.1, v), 0.1),
    "DriveProfile.custom(force)": lambda v: flow_at(DriveProfile.custom(lambda t: 1.0, v), 0.1),
    "solve_epsilon(t_end)": lambda v: solve_epsilon(UNIT, v, 0.5).eps,
    "solve_epsilon(step)": lambda v: solve_epsilon(UNIT, 1.0, v).eps,
    "solve_epsilon(tol_wronskian)": lambda v: solve_epsilon(UNIT, 1.0, 0.01, v).eps,
    "flow_at(t)": lambda v: flow_at(UNIT, v),
    "flow_at(step)": lambda v: flow_at(UNIT, 1.0, v),
    "parametric_resonance_epsilon(k)": lambda v: parametric_resonance_epsilon(v, 1.0),
    "parametric_resonance_epsilon(t)": lambda v: parametric_resonance_epsilon(0.1, v),
    "hermite(y)": lambda v: hermite(2, v),
    "hermite_gauss(y)": lambda v: hermite_gauss(2, v),
    "LinearInvariant(t)": lambda v: LinearInvariant(np.eye(2), np.zeros(2), v),
    "lambda_matrix(eps)": lambda v: lambda_matrix(v, 1j),
    "lambda_matrix(eps_dot)": lambda v: lambda_matrix(1.0, v),
    "delta_vector(beta)": lambda v: delta_vector(v),
    "linear_invariant(eps)": lambda v: linear_invariant(v, 1j, 0.0),
    "linear_invariant(beta)": lambda v: linear_invariant(1.0, 1j, v),
    "linear_invariant(t)": lambda v: linear_invariant(1.0, 1j, 0.0, v),
    "ladder_pair(eps_dot)": lambda v: ladder_pair(1.0, v, 0.0),
    "ladder_pair(beta)": lambda v: ladder_pair(1.0, 1j, v),
    "ClassicalPropagator.from_epsilon(eps)": lambda v: ClassicalPropagator.from_epsilon(v, 1j, 0.0),
    "ClassicalPropagator.from_epsilon(beta)": lambda v: ClassicalPropagator.from_epsilon(1.0, 1j, v),
    "ClassicalPropagator.from_epsilon(t)": lambda v: ClassicalPropagator.from_epsilon(1.0, 1j, 0.0, v),
    "fokker_planck_residual(h)": lambda v: fokker_planck_residual(vacuum_at, UNIT, (0.3, 0.6, 0.8, 1.0), v),
    "fokker_planck_residual(X)": lambda v: fokker_planck_residual(vacuum_at, UNIT, (v, 0.6, 0.8, 1.0), 1e-3),
    "fokker_planck_residual(t)": lambda v: fokker_planck_residual(vacuum_at, UNIT, (0.3, 0.6, 0.8, v), 1e-3),
    "coherent_mdf(X)": lambda v: coherent_mdf(0.3, 1.0, 1j, 0.0, v, 0.6, 0.8),
    "coherent_mdf(mu)": lambda v: coherent_mdf(0.3, 1, 1j, 0, 0.3, v, 0.5),
    "coherent_mdf(beta)": lambda v: coherent_mdf(0.3, 1, 1j, v, 0.3, 0.6, 0.8),
    "mean_X(beta)": lambda v: mean_X(0.3, 1.0, 1j, v, 0.6, 0.8),
    "variance_X(eps_dot)": lambda v: variance_X(1.0, v, 0.6, 0.8),
    "fock_mdf(X)": lambda v: fock_mdf(1, 1.0, 1j, 0.0, v, 0.6, 0.8),
    "cross_mdf(X)": lambda v: cross_mdf(1, 2, 1.0, 1j, 0.0, v, 0.6, 0.8),
    "coherent_mdf_fourier(k)": lambda v: coherent_mdf_fourier(v, 0.3, 1.0, 1j, 0.0, 0.6, 0.8),
    "annihilation_eigencheck(alpha)": lambda v: annihilation_eigencheck(v, 1.0, 1j, 0.0, 0.6, 0.8, 1.0, 1e-4),
    "annihilation_eigencheck(mu)": lambda v: annihilation_eigencheck(0.3, 1.0, 1j, 0.0, v, 0.8, 1.0, 1e-4),
    "annihilation_eigencheck(k)": lambda v: annihilation_eigencheck(0.3, 1.0, 1j, 0.0, 0.6, 0.8, v, 1e-4),
    "fourier_ladder_apply(eps)": lambda v: fourier_ladder_apply(coherent_transform, v, 1j, 0.6, 0.8, 1e-4),
    "fourier_ladder_apply(y)": lambda v: fourier_ladder_apply(coherent_transform, 1.0, 1j, v, 0.8, 1e-4),
    "fourier_ladder_apply(h)": lambda v: fourier_ladder_apply(coherent_transform, 1.0, 1j, 0.6, 0.8, v),
    "coherent_wavefunction(eps)": lambda v: coherent_wavefunction(0.3, v, 1j, 0.0, 0.5),
    "coherent_wavefunction(x)": lambda v: coherent_wavefunction(0.3, 1.0, 1j, 0.0, v),
    "QuadratureSpec(mu_max)": lambda v: QuadratureSpec(mu_max=v),
    "FigureConfig(k)": lambda v: FigureConfig(k=v),
    "FigureConfig(t_max)": lambda v: FigureConfig(t_max=v),
    "FigureConfig(x_min)": lambda v: FigureConfig(x_min=v),
    "FigureConfig(x_max)": lambda v: FigureConfig(x_max=v),
    "FigureConfig(t_fixed)": lambda v: FigureConfig(t_fixed=v),
    "FigureConfig(x_fixed)": lambda v: FigureConfig(x_fixed=v),
    "EpsilonTrajectory.__call__(time)": lambda v: TRAJ(v),
    "beta_shift(t)": lambda v: beta_shift(TRAJ, v),
    "beta_shift(t_start)": lambda v: beta_shift(TRAJ, 1.0, v),
    "LinearInvariant.apply(p)": lambda v: linear_invariant(1.0, 1j, 0.0).apply(v, 0.5),
    "green_driven(t)": lambda v: green_driven(0.1, 0.2, v, UNIT),
    "quantum_propagator(t)": lambda v: quantum_propagator(0.1, 0.0, 0.2, 0.0, v, UNIT),
    "quantum_propagator_from_shift(Z)": lambda v: quantum_propagator_from_shift(0.1, 0.0, v, 0.0, 1.0, 0.1),
    "DensityGrid(extent)": lambda v: DensityGrid(v, np.eye(3)),
    "WignerGrid(extent)": lambda v: WignerGrid(v, np.ones((3, 3))),
    "DensityGrid.from_wavefunction(extent)": lambda v: DensityGrid.from_wavefunction(
        lambda z: np.exp(-np.abs(z)), v, 5),
    "density_grid_from_mdf(extent)": lambda v: density_grid_from_mdf(
        lambda Y, mu, nu: coherent_mdf(0.0, 1.0, 1j, 0.0, Y, mu, nu), v, 3, QuadratureSpec(mu_count=4, y_count=5)),
    "QuadratureSpec(y_window)": lambda v: QuadratureSpec(y_window=(-1.0, v)),
    "ClassicalPropagator.from_profile(t)": lambda v: ClassicalPropagator.from_profile(UNIT, v),
    "ClassicalPropagator.frame_map(mu)": lambda v: PROPAGATOR.frame_map(0.3, v, 0.5),
    "ClassicalPropagator.evolve(mu)": lambda v: PROPAGATOR.evolve(
        lambda X, mu, nu: coherent_mdf(0.3, 1.0, 1j, 0.0, X, mu, nu), 0.3, v, 0.5),
    "invariant_from_ladder(t)": lambda v: invariant_from_ladder(*ladder_pair(1.0, 1j, 0.0), v),
    "green_sho(t)": lambda v: green_sho(0.1, 0.2, v),
    "green_free(Z)": lambda v: green_free(0.1, v, 1.0),
    "mdf_from_density(mu)": lambda v: mdf_from_density(RHO, 0.3, v, 0.5),
    "density_from_mdf(Xp)": lambda v: density_from_mdf(
        lambda Y, mu, nu: coherent_mdf(0.0, 1.0, 1j, 0.0, Y, mu, nu), 0.3, v, QuadratureSpec(mu_count=4, y_count=5)),
    "mdf_from_wigner(mu)": lambda v: mdf_from_wigner(WIGNER, 0, v, v),
}


def bits(value):
    """value in a form that compares bit for bit: arrays by dtype, shape and
    bytes, dataclasses field by field, anything else by type and repr."""
    if isinstance(value, (tuple, list)):
        return type(value), tuple(map(bits, value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value), tuple(bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return type(value), repr(value)


class TestNumberRule:
    """One number rule, dynamics._float, at every public entry point: a
    Python int is the float it converts to, so 10**200 gives what 1e200
    gives, bit for bit or the same error, and an int past the double range
    raises ValueError naming its argument instead of an OverflowError or
    numpy's TypeError."""

    @staticmethod
    def outcome(call, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return bits(call(value))
            except Exception as exc:  # the error itself is the outcome compared
                return type(exc), str(exc)

    @pytest.mark.parametrize("value", [10, 10**200, -(10**200), 10**307], ids=["10", "1e200", "-1e200", "1e307"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_an_int_is_the_float_it_converts_to(self, entry, value):
        call = ENTRY_POINTS[entry]
        assert self.outcome(call, value) == self.outcome(call, float(value))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_an_int_past_the_double_range_is_named(self, entry, sign):
        name = re.search(r"\((\w+)\)$", entry)[1]
        with pytest.raises(ValueError, match=f"^{name} must be finite, got an int past the double range$"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ENTRY_POINTS[entry](sign * 10**400)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", sorted(e for e in ENTRY_POINTS if e.endswith("(force)")))
    def test_a_non_finite_force_is_named(self, entry, value):
        with pytest.raises(ValueError, match=r"^force must be a callable or a finite number, got -?(nan|inf)$"):
            ENTRY_POINTS[entry](value)

    def test_small_ints_and_bools_read_as_floats(self):
        assert FigureConfig(k=0, t_max=10, x_min=-4, x_max=True).x_max == 1.0
        assert repr(QuadratureSpec(mu_max=12).mu_max) == "12.0"
        assert repr(LinearInvariant(np.eye(2), np.zeros(2), 3).t) == "3.0"
        assert solve_epsilon(UNIT, 2, 0.001).eps.tobytes() == solve_epsilon(UNIT, 2.0, 0.001).eps.tobytes()

    @pytest.mark.parametrize(
        "entry, error, message",
        [("coherent_wavefunction(eps)", EvaluationError, r"eps = \(1e\+200\+0j\): \|eps\|\^2 overflows"),
         ("coherent_wavefunction(x)", EvaluationError, r"overflows double precision at x = 1e\+200$"),
         ("coherent_mdf_fourier(k)", EvaluationError, r"overflows double precision at k = 1e\+200$"),
         ("annihilation_eigencheck(k)", EvaluationError, r"overflows double precision at k = 1e\+200$"),
         ("WignerGrid(extent)", ConsistencyError, r"^Wigner normalisation inf deviates from 1")],
    )
    def test_a_finite_value_whose_intermediate_overflows_is_named(self, entry, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning may escape either
            for value in (1e200, 10**200):
                with pytest.raises(error, match=message):
                    ENTRY_POINTS[entry](value)

    def test_an_array_names_its_first_k_whose_exponent_overflows(self):
        k = np.array([[1.0, -3e160], [math.nan, 1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=r"at k = -3e\+160$"):
                coherent_mdf_fourier(k, 0.3, 1.0, 1j, 0.0, 0.6, 0.8)
            # a NaN k is not checked: it gives NaN, as before
            assert np.isnan(coherent_mdf_fourier(np.array([math.nan, 2.0]), 0.3, 1.0, 1j, 0.0, 0.6, 0.8)[0])

    def test_one_definition(self):
        assert states._float is dynamics._float


# every entry point that reads a sample coordinate, or a tomographic point, by the sample rule
SAMPLE_ENTRY_POINTS = {
    "coherent_mdf(X)": ENTRY_POINTS["coherent_mdf(X)"],
    "fock_mdf(X)": ENTRY_POINTS["fock_mdf(X)"],
    "cross_mdf(X)": ENTRY_POINTS["cross_mdf(X)"],
    "coherent_wavefunction(x)": ENTRY_POINTS["coherent_wavefunction(x)"],
    "coherent_mdf_fourier(k)": ENTRY_POINTS["coherent_mdf_fourier(k)"],
    "annihilation_eigencheck(k)": ENTRY_POINTS["annihilation_eigencheck(k)"],
    "hermite(y)": ENTRY_POINTS["hermite(y)"],
    "hermite_gauss(y)": ENTRY_POINTS["hermite_gauss(y)"],
    "ClassicalPropagator.frame_map(X)": lambda v: PROPAGATOR.frame_map(v, 0.6, 0.5),
    "ClassicalPropagator.frame_map(mu)": ENTRY_POINTS["ClassicalPropagator.frame_map(mu)"],
    "ClassicalPropagator.frame_map(nu)": lambda v: PROPAGATOR.frame_map(0.3, 0.6, v),
    "mdf_from_density(X)": lambda v: mdf_from_density(RHO, v, 0.6, 0.5),
    "mdf_from_wigner(X)": lambda v: mdf_from_wigner(WIGNER, v, 0.6, 0.5),
}
NOT_REAL = {"None": None, "str": "0.3", "complex": 0.3 + 0.1j, "object": object()}
SHAPES = {"scalar": lambda v: v, "0-d": np.array, "1-element": lambda v: np.array([v])}


class TestSampleRule:
    """One rule for a sample coordinate, dynamics._real: None, a str, a
    complex value and any other object that is not real numbers raise one
    TypeError naming the argument, as a scalar, a 0-d and a 1-element array
    alike; reals, ints, bools, lists of them and NaN read as their floats."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("bad", sorted(NOT_REAL))
    @pytest.mark.parametrize("entry", sorted(SAMPLE_ENTRY_POINTS))
    def test_a_value_that_is_not_real_is_named(self, entry, bad, shape):
        name = re.search(r"\((\w+)\)$", entry)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            with pytest.raises(TypeError, match=f"^{name} must be a real number or an array of real numbers, got "):
                SAMPLE_ENTRY_POINTS[entry](SHAPES[shape](NOT_REAL[bad]))

    @pytest.mark.parametrize("entry", sorted(SAMPLE_ENTRY_POINTS))
    def test_reals_read_as_their_floats(self, entry):
        call = SAMPLE_ENTRY_POINTS[entry]
        for value, float_value in ((True, 1.0), (math.nan, math.nan)):
            assert TestNumberRule.outcome(call, value) == TestNumberRule.outcome(call, float_value)
        if not entry.startswith(("annihilation", "mdf_from")):  # one k; one point
            for value in ([0.5, 2, False], [2**70, 0.5], [2**70], np.array([1, -2], dtype=np.int8)):
                want = TestNumberRule.outcome(call, np.asarray(value, dtype=float))
                assert TestNumberRule.outcome(call, value) == want

    @pytest.mark.parametrize("container", ["list", "tuple", "array"])
    @pytest.mark.parametrize("coordinate", [0, 1, 2], ids=["X", "mu", "nu"])
    @pytest.mark.parametrize("transform", ["mdf_from_density", "mdf_from_wigner"])
    def test_a_one_point_transform_names_a_coordinate_that_is_not_a_scalar(self, transform, coordinate, container):
        call = {"mdf_from_density": lambda *p: mdf_from_density(RHO, *p),
                "mdf_from_wigner": lambda *p: mdf_from_wigner(WIGNER, *p)}[transform]
        point = [0.3, 0.6, 0.5]
        many = {"list": list, "tuple": tuple, "array": np.array}[container]([point[coordinate], 0.7])
        name = ("X", "mu", "nu")[coordinate]
        with pytest.raises(TypeError, match=rf"^{name} must be a scalar: one point per call, got \w+ of shape \(2,\)$"):
            call(*point[:coordinate], many, *point[coordinate + 1:])
        zero_d = [*point[:coordinate], np.array(point[coordinate]), *point[coordinate + 1:]]
        assert bits(call(*zero_d)) == bits(call(*point))

    def test_one_definition(self):
        assert states._real is dynamics._real


def allocating_hermite_gauss(n, y):
    """The recurrence with a fresh array per operation, as the arrays of
    hermite_gauss must reproduce bit for bit."""
    y = np.asarray(y, dtype=float)
    u_prev = np.pi ** -0.25 * np.exp(-0.5 * y * y)
    if n == 0:
        return u_prev if u_prev.ndim else float(u_prev)
    u = math.sqrt(2.0) * y * u_prev
    for j in range(1, n):
        u, u_prev = math.sqrt(2.0 / (j + 1)) * y * u - math.sqrt(j / (j + 1)) * u_prev, u
    return u if u.ndim else float(u)


TABLE_T = np.linspace(0.0, 20.0, 9)


@st.composite
def profiles(draw):
    """Constant (omega_sq < 0 included), resonance, table and a scalar-only
    piecewise profile, the last sampled node by node by the solver."""
    kind = draw(st.sampled_from(["constant", "resonance", "table", "piecewise"]))
    if kind == "constant":
        w2 = draw(st.floats(-1.0, 4.0))
        return DriveProfile.custom(lambda t: w2)
    if kind == "resonance":
        return DriveProfile.parametric_resonance(draw(st.floats(-0.49, 0.49)))
    if kind == "table":
        rows = np.array(draw(st.lists(st.floats(0.2, 3.0), min_size=9, max_size=9)))
        return DriveProfile.custom(lambda t: np.interp(t, TABLE_T, rows))
    a, b, switch = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0)), draw(st.floats(0.1, 19.9))
    return DriveProfile.custom(lambda t: a if t < switch else b)


def scalar_rk4(profile, t_end, n):
    """The one-step-at-a-time RK4 loop on complex (eps, eps_dot), with
    omega_sq called node by node: the reference the array solver must match."""
    h = t_end / n
    t = np.linspace(0.0, t_end, n + 1)
    w_full = np.array([profile.omega_sq(t[i]) for i in range(n + 1)], dtype=float)
    w_half = np.array([profile.omega_sq(t[i] + 0.5 * h) for i in range(n)], dtype=float)
    eps = np.empty(n + 1, dtype=complex)
    eps_dot = np.empty(n + 1, dtype=complex)
    e, d = 1.0 + 0.0j, 1.0j
    eps[0], eps_dot[0] = e, d
    for i in range(n):
        w0, wh, w1 = w_full[i], w_half[i], w_full[i + 1]
        k1e, k1d = d, -w0 * e
        y2e, y2d = e + 0.5 * h * k1e, d + 0.5 * h * k1d
        k2e, k2d = y2d, -wh * y2e
        y3e, y3d = e + 0.5 * h * k2e, d + 0.5 * h * k2d
        k3e, k3d = y3d, -wh * y3e
        y4e, y4d = e + h * k3e, d + h * k3d
        k4e, k4d = y4d, -w1 * y4e
        e = e + (h / 6.0) * (k1e + 2 * k2e + 2 * k3e + k4e)
        d = d + (h / 6.0) * (k1d + 2 * k2d + 2 * k3d + k4d)
        eps[i + 1], eps_dot[i + 1] = e, d
    return eps, eps_dot
