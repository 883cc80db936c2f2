import cmath
import math
import warnings

import numpy as np
import pytest

from osctomo import (
    ClassicalPropagator,
    ConsistencyError,
    LadderInvariant,
    LinearInvariant,
    delta_vector,
    ladder_pair,
    lambda_matrix,
    linear_invariant,
)
from helpers import invariant_from_ladder, ladder_commutator

SQRT2 = math.sqrt(2.0)


def random_wronskian_inputs(rng):
    """Random (eps, eps_dot) with eps'*conj(eps) - conj(eps')*eps = 2j."""
    eps = complex(rng.normal(), rng.normal())
    while abs(eps) < 0.3:
        eps = complex(rng.normal(), rng.normal())
    u = rng.normal()
    eps_dot = (u + 1j) / eps.conjugate()
    return eps, eps_dot


class TestLambdaMatrix:
    def test_identity_at_t0(self):
        np.testing.assert_allclose(lambda_matrix(1.0, 1.0j), np.eye(2), atol=1e-15)

    def test_rotation_for_constant_frequency(self):
        for t in (0.3, 1.0, 2.9):
            eps = cmath.exp(1j * t)
            expected = np.array(
                [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
            )
            np.testing.assert_allclose(lambda_matrix(eps, 1j * eps), expected, atol=1e-15)

    def test_unit_determinant_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            eps, eps_dot = random_wronskian_inputs(rng)
            lam = lambda_matrix(eps, eps_dot)
            assert abs(np.linalg.det(lam) - 1.0) < 1e-12

    def test_unit_determinant_along_trajectory(self, resonance_traj):
        for e, ed in zip(resonance_traj.eps[::500], resonance_traj.eps_dot[::500]):
            assert abs(np.linalg.det(lambda_matrix(e, ed)) - 1.0) <= 1e-8

    def test_determinant_guard(self):
        with pytest.raises(ConsistencyError):
            LinearInvariant(np.array([[2.0, 0.0], [0.0, 1.0]]), np.zeros(2))

    @pytest.mark.parametrize(
        "eps, eps_dot, det",
        [(1e200, 1e200j, "inf"), (1e200 + 1e200j, 1e200 + 1e200j, "nan")],
        ids=["det-overflows-to-inf", "det-is-inf-minus-inf"],
    )
    def test_overflowing_determinant_rejected_without_warnings(self, eps, eps_dot, det):
        # finite entries whose det Lambda is not finite: inf fails the
        # tolerance, and a NaN must fail it too instead of passing unseen
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConsistencyError, match=f"det Lambda = {det}"):
                ClassicalPropagator.from_epsilon(eps, eps_dot, 0.0)


    @pytest.mark.parametrize(
        "eps, eps_dot, beta",
        [(math.nan, 1j, 0.0), (1.0, complex(0.0, math.inf), 0.0), (1.0, 1j, complex(math.nan, 0.0))],
        ids=["nan-eps", "inf-eps-dot", "nan-beta"],
    )
    def test_non_finite_rejected(self, eps, eps_dot, beta):
        with pytest.raises(ConsistencyError, match="not finite"):
            linear_invariant(eps, eps_dot, beta)
        with pytest.raises(ConsistencyError, match="not finite"):
            ClassicalPropagator.from_epsilon(eps, eps_dot, beta, 1.0)

class TestDeltaVector:
    def test_zero_shift(self):
        np.testing.assert_array_equal(delta_vector(0.0), np.zeros(2))

    def test_real_beta(self):
        np.testing.assert_allclose(delta_vector(1.0), [0.0, SQRT2], atol=1e-15)

    def test_imaginary_beta(self):
        np.testing.assert_allclose(delta_vector(1.0j), [SQRT2, 0.0], atol=1e-15)

    def test_invariant_constant_along_classical_motion(self):
        # the decisive sign check: I(t) = Lambda Q(t) + Delta evaluated on a
        # classical trajectory must return the initial phase-space point.
        # For omega = 1, f = 1, q(0) = p(0) = 0 the motion is
        # q = 1 - cos t, p = sin t, and beta = -(e^{1j t} - 1)/sqrt(2).
        for t in (0.4, 1.1, 2.8, 5.0):
            eps = cmath.exp(1j * t)
            beta = -(eps - 1.0) / SQRT2
            inv = linear_invariant(eps, 1j * eps, beta, t)
            point = inv.apply(math.sin(t), 1.0 - math.cos(t))
            np.testing.assert_allclose(point, [0.0, 0.0], atol=1e-14)

    def test_invariant_constant_generic_start(self):
        p0, q0 = -0.7, 1.3
        for t in (0.5, 2.2):
            eps = cmath.exp(1j * t)
            beta = -(eps - 1.0) / SQRT2
            inv = linear_invariant(eps, 1j * eps, beta, t)
            q = q0 * math.cos(t) + p0 * math.sin(t) + 1.0 - math.cos(t)
            p = p0 * math.cos(t) - q0 * math.sin(t) + math.sin(t)
            np.testing.assert_allclose(inv.apply(p, q), [p0, q0], atol=1e-13)


class TestLadderPair:
    def test_reduces_to_annihilation_operator_at_t0(self):
        a, adag = ladder_pair(1.0, 1.0j, 0.0)
        assert a.cp == pytest.approx(1j / SQRT2)
        assert a.cq == pytest.approx(1.0 / SQRT2)
        assert a.c0 == 0.0
        assert adag.cp == pytest.approx(-1j / SQRT2)
        assert adag.cq == pytest.approx(1.0 / SQRT2)

    def test_commutator_is_one(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            eps, eps_dot = random_wronskian_inputs(rng)
            beta = complex(rng.normal(), rng.normal())
            a, adag = ladder_pair(eps, eps_dot, beta)
            assert abs(ladder_commutator(a, adag) - 1.0) < 1e-10

    def test_matches_matrix_form(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            eps, eps_dot = random_wronskian_inputs(rng)
            beta = complex(rng.normal(), rng.normal())
            from_ladder = invariant_from_ladder(*ladder_pair(eps, eps_dot, beta))
            direct = linear_invariant(eps, eps_dot, beta)
            np.testing.assert_allclose(from_ladder.lam, direct.lam, atol=1e-10)
            np.testing.assert_allclose(from_ladder.delta, direct.delta, atol=1e-10)


    def test_nan_coefficient_fails_the_imaginary_residue_gate(self):
        a, adag = ladder_pair(1.0, 1.0j, 0.0)
        bad = LadderInvariant(complex(math.nan, 0.0), a.cq, a.c0)
        with pytest.raises(ConsistencyError, match="p-coefficient has imaginary residue nan"):
            invariant_from_ladder(bad, adag)


class TestProfileStart:
    def test_identity_at_t0_for_every_profile(self, constant_traj, free_traj, resonance_traj):
        for traj in (constant_traj, free_traj, resonance_traj):
            inv = linear_invariant(traj.eps[0], traj.eps_dot[0], 0.0)
            np.testing.assert_array_equal(inv.lam, np.eye(2))
            np.testing.assert_array_equal(inv.delta, np.zeros(2))


class TestInvariantTime:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_refused(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            linear_invariant(1.0, 1.0j, 0.0, t=t)
        with pytest.raises(ValueError, match="t must be finite"):
            ClassicalPropagator.from_epsilon(1.0, 1.0j, 0.0, t=t)
        with pytest.raises(ValueError, match="t must be finite"):
            LinearInvariant(np.eye(2), np.zeros(2), t)
