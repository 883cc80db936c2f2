import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osctomo import (
    ClassicalPropagator,
    DriveProfile,
    EvaluationError,
    UnsupportedOrderError,
    WronskianDriftError,
    beta_shift,
    flow_at,
    hermite,
    hermite_gauss,
    parametric_resonance_epsilon,
    solve_epsilon,
)
from osctomo.dynamics import _on_grid, _simpson


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
        profile = DriveProfile.parametric_resonance(0.1, force=lambda t: math.cos(t) + 0.2)
        t, step = 2.345, 1e-3
        traj = solve_epsilon(profile, t, step)
        assert flow_at(profile, t, step) == (*traj(t), beta_shift(traj, t))
        prop = ClassicalPropagator.from_profile(profile, t, step)
        assert flow_at(profile, t, step) == (prop.eps, prop.eps_dot, prop.beta)

    def test_time_below_step(self):
        # 0 < t < step: the solve takes t itself as the step
        t = 5e-4
        eps, eps_dot, beta = flow_at(DriveProfile.constant(1.0), t)
        exact = np.exp(1j * t)
        assert abs(eps - exact) <= 1e-15 and abs(eps_dot - 1j * exact) <= 1e-15
        assert beta == 0.0
        assert ClassicalPropagator.from_profile(DriveProfile.constant(1.0), t).t == t

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
    def test_time_outside_the_flow_rejected(self, t):
        with pytest.raises(ValueError, match="t must be >= 0"):
            flow_at(DriveProfile.constant(1.0), t)

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
