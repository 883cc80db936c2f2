import cmath
import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import SQRT2, classical_profiles, driven_state, quantum_propagator_from_shift
from osctomo import (
    CausticError,
    ClassicalPropagator,
    ConsistencyError,
    DriveProfile,
    EvaluationError,
    beta_shift,
    coherent_mdf,
    coherent_wavefunction,
    flow_at,
    fock_mdf,
    fokker_planck_residual,
    green_driven,
    green_free,
    green_sho,
    linear_invariant,
    quantum_propagator,
    solve_epsilon,
)
from osctomo.invariants import DET_TOL


def propagator_at(t, force=1.0):
    return ClassicalPropagator.from_epsilon(*driven_state(t, force), t)


class TestFrameMap:
    def test_identity_at_t0(self):
        prop = ClassicalPropagator.from_epsilon(1.0, 1.0j, 0.0, 0.0)
        assert prop.frame_map(0.7, -0.2, 1.4) == (0.7, -0.2, 1.4)

    def test_quarter_period_rotation(self):
        prop = propagator_at(math.pi / 2.0, force=0.0)
        x, mu, nu = prop.frame_map(0.3, 1.0, 0.0)
        assert (x, mu, nu) == pytest.approx((0.3, 0.0, 1.0), abs=1e-12)

    def test_full_period_is_identity(self):
        # via the solved ODE rather than the analytic solution
        prop = ClassicalPropagator.from_profile(DriveProfile.constant(1.0), 2.0 * math.pi)
        for point in ((0.3, 1.0, 0.0), (-1.2, 0.4, 0.9)):
            assert prop.frame_map(*point) == pytest.approx(point, abs=1e-8)

    def test_group_property(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            t1, t2 = rng.uniform(0.1, 3.0, size=2)
            pa, pb, pc = propagator_at(t1, 0.0), propagator_at(t2, 0.0), propagator_at(t1 + t2, 0.0)
            point = (rng.normal(), rng.normal(), rng.normal())
            if abs(point[1]) + abs(point[2]) < 1e-3:
                continue
            composed = pa.frame_map(*pb.frame_map(*point))
            assert composed == pytest.approx(pc.frame_map(*point), abs=1e-8)

    def test_degenerate_frame_rejected(self):
        with pytest.raises(ValueError):
            propagator_at(1.0).frame_map(0.3, 0.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1, 2], ids=["X", "mu", "nu"])
    def test_non_finite_arguments_rejected(self, slot, value):
        args = [0.3, 1.0, 0.5]
        args[slot] = value
        prop = ClassicalPropagator.from_epsilon(1.0, 1.0j, 0.0)
        w0 = lambda X, mu, nu: coherent_mdf(0.3, 1.0, 1.0j, 0.0, X, mu, nu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning, no nan passed through
            with pytest.raises(ValueError, match="finite"):
                prop.frame_map(*args)
            with pytest.raises(ValueError, match="finite"):
                prop.evolve(w0, *args)

    def test_nan_disagreement_is_a_consistency_error(self):
        # a NaN in the eps form compares False with any tolerance
        prop = ClassicalPropagator.from_epsilon(1.0, 1.0j, 0.0)
        prop = dataclasses.replace(prop, beta=complex(math.nan))
        with pytest.raises(ConsistencyError, match="disagree"):
            prop.frame_map(0.3, 1.0, 0.5)

    def test_matrix_and_epsilon_forms_agree_on_random_inputs(self):
        # frame_map raises ConsistencyError whenever its Lambda^-1 form and
        # its explicit eps-form differ by more than 1e-10
        rng = np.random.default_rng(17)
        for _ in range(50):
            t = rng.uniform(0.05, 6.0)
            prop = propagator_at(t, force=rng.uniform(-1.0, 1.0))
            X, mu, nu = rng.normal(scale=2.0, size=3)
            if mu * mu + nu * nu < 1e-3:
                continue
            prop.frame_map(X, mu, nu)

    def test_cached_inverse_matches_a_per_point_inverse(self):
        # [Lambda^-1 Delta | Lambda^-1] is formed once per propagator; every point
        # must map bit for bit as with the matrix built afresh at that point
        rng = np.random.default_rng(29)
        for _ in range(20):
            prop = propagator_at(rng.uniform(0.05, 6.0), force=rng.uniform(-1.0, 1.0))
            lam, det, delta = prop.inv.lam, prop.inv.det, prop.inv.delta
            for X, mu, nu in rng.normal(scale=2.0, size=(10, 3)).tolist():
                lam_inv = np.array([[lam[1, 1], -lam[0, 1]], [-lam[1, 0], lam[0, 0]]]) / det
                shift, nu_p, mu_p = np.array([nu, mu]) @ np.column_stack([lam_inv @ delta, lam_inv])
                assert prop.frame_map(X, mu, nu) == (float(shift + X), float(mu_p), float(nu_p))

    def test_replaced_fields_are_checked_after_the_inverse_is_cached(self):
        prop = propagator_at(1.3)
        prop.frame_map(0.3, 1.0, 0.5)  # forms Lambda^-1 and keeps it on prop
        for changed in (
            dataclasses.replace(prop, beta=prop.beta + 0.1),
            dataclasses.replace(prop, beta=complex(math.nan)),
            dataclasses.replace(prop, inv=propagator_at(2.0).inv),
        ):
            with pytest.raises(ConsistencyError, match="disagree"):
                changed.frame_map(0.3, 1.0, 0.5)
        assert prop.frame_map(0.3, 1.0, 0.5) == propagator_at(1.3).frame_map(0.3, 1.0, 0.5)

    def test_linear_part_has_unit_determinant(self):
        prop = propagator_at(2.2)
        base = prop.frame_map(0.0, 0.0, 1.0)
        col_mu = prop.frame_map(0.0, 1.0, 1.0)
        col_nu = prop.frame_map(0.0, 0.0, 2.0)
        a11, a12 = col_nu[2] - base[2], col_mu[2] - base[2]
        a21, a22 = col_nu[1] - base[1], col_mu[1] - base[1]
        assert abs(a11 * a22 - a12 * a21 - 1.0) < 1e-12


class TestFrameMapFormCheck:
    """The two-route check compares the two forms of the map; det Lambda is
    gated once, by LinearInvariant at DET_TOL."""

    BETA = 0.2 - 0.1j

    @pytest.mark.parametrize("s", [1.0 + 5e-10, 1.0 + 4e-9])
    def test_det_inside_the_tolerance_maps(self, s):
        # det Lambda = s^2 is off 1 by 1e-9 and 8e-9, inside DET_TOL
        prop = ClassicalPropagator.from_epsilon(s, s * 1j, self.BETA)
        X, mu, nu = np.linspace(-2.0, 2.0, 5), np.full(5, 1.0), np.full(5, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mapped = prop.frame_map(X, mu, nu)
            scalar = prop.frame_map(0.3, 1.0, 0.5)
        # Lambda = s I, so the linear part is N Lambda^-1 = N / s
        assert np.array_equal(mapped[1], mu / s) and np.array_equal(mapped[2], nu / s)
        assert scalar[1:] == (1.0 / s, 0.5 / s)

    def test_det_beyond_the_tolerance_still_raises(self):
        s = 1.0 + 1e-8
        with pytest.raises(ConsistencyError, match="det Lambda"):
            ClassicalPropagator.from_epsilon(s, s * 1j, self.BETA)

    def test_replaced_inv_or_beta_still_disagrees(self):
        s = 1.0 + 4e-9
        prop = ClassicalPropagator.from_epsilon(s, s * 1j, self.BETA)
        prop.frame_map(0.3, 1.0, 0.5)
        for changed in (
            dataclasses.replace(prop, beta=prop.beta + 1e-6),
            dataclasses.replace(prop, inv=propagator_at(0.4).inv),
        ):
            with pytest.raises(ConsistencyError, match="disagree"):
                changed.frame_map(0.3, 1.0, 0.5)
            with pytest.raises(ConsistencyError, match="disagree"):
                changed.frame_map(np.zeros(3), 1.0, np.array([0.5, 1.0, 2.0]))

    def test_zero_eps_side_determinant_disagrees_without_warnings(self):
        # a hand-built propagator: a valid invariant, but Im(conj(eps) eps_dot) = 0
        prop = ClassicalPropagator(1.0 + 0j, 1.0 + 0j, 0j, 0.0, linear_invariant(1.0, 1j, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConsistencyError, match="disagree"):
                prop.frame_map(0.3, 1.0, 0.5)
            with pytest.raises(ConsistencyError, match="disagree"):
                prop.frame_map(np.zeros(2), 1.0, np.array([0.0, 0.5]))

    @pytest.mark.parametrize("t", [7.0, 8.0, 9.0])
    def test_inverted_forced_oscillator_maps_within_the_size_of_the_map(self, t):
        # omega_sq = -1 grows Lambda^-1 and Delta like e^t, so the products that
        # X' - X = N Lambda^-1 Delta sums grow like e^2t and cancel to the size of
        # the image.  Each form reaches a component through at most 7 roundings
        # of 2^-53 of its partial sums (the shared det = D rounds alike in both),
        # so the two agree within 14 * 2^-53 * S, here 16 * 2^-53 * S, with the
        # sizes of the summed products, N = (nu, mu) and |.| entrywise:
        #     S(X') = |X| + |N| |Lambda^-1| |Delta|,   S(nu', mu') = |N| |Lambda^-1|
        profile = DriveProfile.custom(lambda s: np.full_like(s, -1.0), lambda s: np.full_like(s, 1.0))
        prop = ClassicalPropagator.from_profile(profile, t)
        eps, eps_dot, beta = prop.eps, prop.eps_dot, prop.beta
        d = (eps.conjugate() * eps_dot).imag
        lam_inv = np.abs(np.linalg.inv(prop.inv.lam))

        def eps_form(X, mu, nu):
            r = (eps_dot * nu + eps * mu) / d
            return np.array([X + SQRT2 * (beta * np.conj(r)).real, r.real, r.imag])

        def size(X, mu, nu):
            N = np.abs(np.stack(np.broadcast_arrays(nu, mu), axis=-1))
            s_nu, s_mu = np.moveaxis(N @ lam_inv, -1, 0)
            return np.array([np.abs(X) + N @ (lam_inv @ np.abs(prop.inv.delta)), s_mu, s_nu])

        X, mu, nu = np.random.default_rng(41).normal(size=(3, 20))
        for point in [(0.3, 1.0, 0.5), (X, mu, nu)]:
            image = np.array(prop.frame_map(*point))
            assert np.all(np.abs(image - eps_form(*point)) <= 16 * 2.0**-53 * size(*point))

    def test_fault_orthogonal_to_the_mapped_frame_disagrees(self):
        # beta off by 1e-6j moves only the image of frames with nu != 0; at
        # the frame (mu, nu) = (1, 0) the images of both forms coincide
        prop = ClassicalPropagator.from_epsilon(1.0, 1.0j, 0.0)
        changed = dataclasses.replace(prop, beta=prop.beta + 1e-6j)
        X = np.linspace(-1.0, 1.0, 4)
        for _ in range(2):  # a check that raises caches nothing
            with pytest.raises(ConsistencyError, match="disagree"):
                changed.frame_map(0.3, 1.0, 0.0)
            with pytest.raises(ConsistencyError, match="disagree"):
                changed.frame_map(X, np.ones(4), np.zeros(4))


class TestEvolve:
    def test_identity_at_t0(self):
        prop = ClassicalPropagator.from_epsilon(1.0, 1.0j, 0.0, 0.0)
        w0 = lambda X, mu, nu: coherent_mdf(0.3 + 0.1j, 1.0, 1.0j, 0.0, X, mu, nu)
        assert prop.evolve(w0, 0.4, 0.8, 0.6) == w0(0.4, 0.8, 0.6)

    def test_coherent_pushforward_matches_closed_form(self):
        alpha = 0.7 + 0.3j
        w0 = lambda X, mu, nu: coherent_mdf(alpha, 1.0, 1.0j, 0.0, X, mu, nu)
        for t in (0.6, 1.7, 3.1):
            eps, eps_dot, beta = driven_state(t)
            prop = ClassicalPropagator.from_epsilon(eps, eps_dot, beta, t)
            for X in np.linspace(-3.0, 3.0, 7):
                for mu, nu in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)):
                    evolved = prop.evolve(w0, X, mu, nu)
                    closed = coherent_mdf(alpha, eps, eps_dot, beta, X, mu, nu)
                    assert evolved == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize(
        "w0",
        [
            lambda x, mu, nu: fock_mdf(2, 1.0, 1.0j, 0.0, x, mu, nu),
            lambda x, mu, nu: coherent_mdf(0.7 + 0.3j, 1.0, 1.0j, 0.0, x, mu, nu),
        ],
        ids=["fock2", "coherent"],
    )
    def test_pushforward_stays_normalised(self, w0):
        X = np.linspace(-12.0, 12.0, 2401)
        for t in (0.5, 1.0, 3.0):
            prop = propagator_at(t)
            for angle in (0.0, 0.8, 2.1):
                mu, nu = math.cos(angle), math.sin(angle)
                vals = np.array([prop.evolve(w0, xi, mu, nu) for xi in X])
                assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
                assert abs(np.trapezoid(vals, X) - 1.0) < 1e-6


class TestFokkerPlanckResidual:
    def test_constant_function_exact_zero(self):
        profile = DriveProfile.constant(1.0)
        w = lambda X, mu, nu, t: 1.0
        assert fokker_planck_residual(w, profile, (0.3, 0.8, 0.6, 0.9), 1e-3) == 0.0

    @pytest.mark.parametrize("force", [0.0, 1.0])
    def test_coherent_closed_form_second_order(self, force):
        profile = DriveProfile.constant(1.0, force=lambda t, c=force: c)
        alpha = 0.7 + 0.3j

        def w(X, mu, nu, t):
            eps, eps_dot, beta = driven_state(t, force)
            return coherent_mdf(alpha, eps, eps_dot, beta, X, mu, nu)

        point = (0.3, 0.8, 0.6, 0.9)
        res_h = abs(fokker_planck_residual(w, profile, point, 1e-3))
        res_2h = abs(fokker_planck_residual(w, profile, point, 2e-3))
        assert res_h <= 1e-5
        assert 3.5 <= res_2h / res_h <= 4.5

    def test_fock_closed_form_with_ode_epsilon(self):
        profile = DriveProfile.parametric_resonance(0.01)
        traj = solve_epsilon(profile, 3.0, 1e-3)

        def w(X, mu, nu, t):
            eps, eps_dot = traj(t)
            return fock_mdf(2, eps, eps_dot, 0.0, X, mu, nu)

        point = (0.5, 0.7, 0.7, 1.5)
        res_h = abs(fokker_planck_residual(w, profile, point, 1e-3))
        res_2h = abs(fokker_planck_residual(w, profile, point, 2e-3))
        assert res_h < 1e-4
        assert 3.0 <= res_2h / res_h <= 5.0


class TestGreenFunctions:
    def test_free_modulus(self):
        for X, Z in ((0.0, 0.0), (0.3, 0.7), (-2.0, 1.4)):
            assert abs(green_free(X, Z, 1.0)) == pytest.approx(
                (2.0 * math.pi) ** -0.5, abs=1e-14
            )

    def test_sho_at_focus_free_centre(self):
        # exponent vanishes at X = Z = 0, t = pi/2
        assert green_sho(0.0, 0.0, math.pi / 2.0) == pytest.approx(
            (2.0 * math.pi) ** -0.5, abs=1e-12
        )

    def test_sho_small_time_limit_is_free(self):
        t = 1e-2
        for X, Z in ((0.3, 0.4), (-0.2, 0.5), (0.1, -0.3)):
            g_s, g_f = green_sho(X, Z, t), green_free(X, Z, t)
            assert abs(g_s - g_f) / abs(g_f) <= 1e-3

    def test_driven_zero_force_is_sho(self):
        profile = DriveProfile.constant(1.0)
        for X, Z, t in ((0.4, -0.7, 1.1), (1.3, 0.2, 2.6)):
            assert green_driven(X, Z, t, profile) == pytest.approx(green_sho(X, Z, t), abs=1e-14)

    def test_driven_force_integrals_oracle(self):
        # f = 1, t = pi/2: both Simpson integrals equal 1 exactly, so the
        # driven kernel is the oscillator kernel times exp(1j (X + Z))
        profile = DriveProfile.constant(1.0, force=lambda t: 1.0)
        t = math.pi / 2.0
        for X, Z in ((0.0, 0.0), (0.8, -0.3)):
            ratio = green_driven(X, Z, t, profile) / green_sho(X, Z, t)
            assert ratio == pytest.approx(cmath.exp(1j * (X + Z)), abs=1e-9)

    def test_driven_modulus_is_force_independent(self):
        profile = DriveProfile.constant(1.0, force=lambda t: math.cos(t) + 0.5)
        for t in (0.7, 2.0):
            val = abs(green_driven(1.2, -0.4, t, profile))
            assert val == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * abs(math.sin(t))), abs=1e-12)

    def test_caustic_errors(self):
        with pytest.raises(CausticError):
            green_sho(0.1, 0.2, math.pi)
        with pytest.raises(CausticError):
            green_free(0.1, 0.2, 0.0)
        with pytest.raises(CausticError):
            green_driven(0.1, 0.2, 2.0 * math.pi, DriveProfile.constant(1.0))

    @pytest.mark.parametrize("t", [-1.1, -2.6, -7.3])
    def test_driven_forms_at_negative_time(self, t):
        for X, Z in ((0.4, -0.7), (-1.3, 0.2)):
            assert green_driven(X, Z, t, DriveProfile.constant(1.0)) == green_sho(X, Z, t)
        # constant force f: beta = -(1j/sqrt 2) integral_0^t e^{1j s} f ds
        f = 0.8
        profile = DriveProfile.constant(1.0, force=lambda s: f)
        beta = -f * (cmath.exp(1j * t) - 1.0) / SQRT2
        for X, Xp, Z, Zp in ((0.4, -0.2, 0.1, 0.9), (-1.1, 0.5, 0.7, -0.6)):
            direct = quantum_propagator(X, Xp, Z, Zp, t, profile)
            shifted = quantum_propagator_from_shift(X, Xp, Z, Zp, t, beta)
            assert abs(direct - shifted) <= 1e-8

    @pytest.mark.parametrize("t", [0.3, 1.1, 17.0, 123.4, 1999.9, 2000.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "backward"])
    def test_driven_on_the_unforced_profiles_is_green_sho_and_green_free(self, t, sign):
        # one kernel of one flow: the same closed form, bit for bit
        t *= sign
        for X, Z, phase in ((0.4, -0.7, 0.0), (-1.3, 0.2, 0.37)):
            assert green_driven(X, Z, t, DriveProfile.free(), phase) == green_free(X, Z, t, phase)
            assert green_driven(X, Z, t, DriveProfile.constant(1.0), phase) == green_sho(X, Z, t, phase)

    @pytest.mark.parametrize(
        "profile", [DriveProfile.custom(lambda s: 1.0, math.cos), DriveProfile.parametric_resonance(0.3)],
        ids=["custom", "resonance"],
    )
    def test_profile_without_closed_form_runs_forward_from_zero(self, profile):
        for kernel in (green_driven, lambda *a: quantum_propagator(0.1, 0.2, *a)):
            with pytest.raises(ValueError, match=r"^t=-1\.5: .*t must be >= 0$") as err:
                kernel(0.3, -0.4, -1.5, profile)
            assert "t_end" not in str(err.value)
            # the seeded flow (1, 1j, 0) at t = 0 is a focal point
            with pytest.raises(CausticError):
                kernel(0.3, -0.4, 0.0, profile)

    @pytest.mark.parametrize(
        "profile",
        [DriveProfile.constant(1.3, lambda s: 0.7), DriveProfile.free(np.cos),
         DriveProfile.parametric_resonance(0.3, lambda s: np.sin(2.0 * s) + 0.2)],
        ids=["constant", "free", "resonance"],
    )
    def test_route_b_carries_a_coherent_state_to_its_closed_form(self, profile):
        # psi(X, t) = integral G(X, Z, t) psi(Z, 0) dZ on a trapezoid of 241 nodes
        # over [-9, 9] is the coherent state of the flow, up to one global phase
        alpha = 0.7 - 0.4j
        Z = np.linspace(-9.0, 9.0, 241)
        weights = np.full(Z.shape, Z[1] - Z[0])
        weights[[0, -1]] /= 2.0
        psi0 = coherent_wavefunction(alpha, 1.0, 1j, 0.0, Z) * weights
        X = np.linspace(-3.0, 3.0, 7)
        for t in (0.8, 2.2, 6.0):
            flow = flow_at(profile, t)
            kernel = ClassicalPropagator.from_epsilon(*flow).kernel
            psi = kernel(X[:, None], Z) @ psi0
            exact = coherent_wavefunction(alpha, *flow, X)
            phase = np.vdot(exact, psi) / np.vdot(exact, exact)
            assert abs(abs(phase) - 1.0) <= 1e-12
            assert np.max(np.abs(psi - phase * exact)) <= 1e-12
            for x, z in ((0.3, -0.4), (-2.1, 1.7)):
                assert green_driven(x, z, t, profile) == kernel(x, z, 0.0)

    def test_route_b_solves_one_flow(self, monkeypatch):
        from osctomo import dynamics

        solve, calls = dynamics._solve_record, []
        monkeypatch.setattr(dynamics, "_solve_record", lambda *a, **k: calls.append(a) or solve(*a, **k))
        resonance = DriveProfile.parametric_resonance(0.3, lambda s: np.sin(2.0 * s) + 0.2)
        Z = np.linspace(-9.0, 9.0, 241)
        psi0 = coherent_wavefunction(0.7 - 0.4j, 1.0, 1j, 0.0, Z) * (Z[1] - Z[0])
        psi = ClassicalPropagator.from_profile(resonance, 2.2).kernel(np.array([[-1.0], [0.3], [1.2]]), Z) @ psi0
        assert psi.shape == (3,) and len(calls) == 1

    def test_green_functions_share_the_frame_maps_det_gate(self):
        # the RK4 flow of omega = 20 at t = 200 has det Lambda off 1 by ~1.8e-7, beyond
        # DET_TOL: every view of that flow raises, the kernel as the frame map
        profile = DriveProfile.custom(lambda s: 400.0)
        with pytest.raises(ConsistencyError, match="det Lambda"):
            ClassicalPropagator.from_profile(profile, 200.0).frame_map(0.3, 1.0, 0.5)
        for kernel in (green_driven, lambda *a: quantum_propagator(0.1, 0.2, *a)):
            with pytest.raises(ConsistencyError, match="det Lambda"):
                kernel(0.3, -0.4, 200.0, profile)

    @pytest.mark.parametrize("t", [1e7, -1e7, 1e200])
    def test_driven_forms_beyond_max_steps_raise_before_allocating(self, t):
        # t = 1e7 would ask for 10^10 drive-quadrature nodes (~75 GiB each array)
        profile = DriveProfile.constant(1.0, math.cos)
        tracemalloc.start()
        try:
            for kernel in (green_driven, lambda *a: quantum_propagator(0.1, 0.2, *a)):
                with pytest.raises(ValueError, match="MAX_STEPS"):
                    kernel(0.1, 0.2, t, profile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 18

    def test_step_bound_message_names_no_t_end(self):
        # the driven forms' step is fixed, so the message names only the span and the step
        for kernel in (green_driven, lambda *a: quantum_propagator(0.1, 0.2, *a)):
            for profile in (DriveProfile.constant(1.0, math.cos), DriveProfile.custom(lambda s: 1.0, math.cos)):
                with pytest.raises(ValueError, match="MAX_STEPS = 2000000$") as err:
                    kernel(0.1, 0.2, 1e7, profile)
                assert "t_end" not in str(err.value) and "step 0.001" in str(err.value)
        # the unforced constant(1.0) flow builds no grid: its kernel is green_sho's
        assert green_driven(0.1, 0.2, 1e7, DriveProfile.constant(1.0)) == green_sho(0.1, 0.2, 1e7)

    def test_one_drive_grid_per_call(self, monkeypatch):
        from osctomo import dynamics

        calls, grid = [], dynamics._drive_grid
        monkeypatch.setattr(dynamics, "_drive_grid", lambda t, step: calls.append(t) or grid(t, step))
        # a constant profile's flow builds one for a force only; a custom
        # profile's is solved by RK4, and its force integrated on the RK4 grid
        cases = [(DriveProfile.constant(1.0, math.cos), 1), (DriveProfile.constant(1.0), 0),
                 (DriveProfile.custom(lambda s: 1.0), 0), (DriveProfile.custom(lambda s: 1.0, math.cos), 0)]
        for profile, grids in cases:
            for kernel in (green_driven, lambda *a: quantum_propagator(0.1, 0.2, *a)):
                calls.clear()
                kernel(0.3, -0.4, 2.0, profile)
                assert len(calls) == grids
        calls.clear()
        green_sho(0.3, -0.4, 1e7)
        green_free(0.3, -0.4, -1e7)
        assert calls == []

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_driven_non_finite_time_named(self, t):
        for kernel in (green_driven, lambda *a: quantum_propagator(0.1, 0.2, *a)):
            with pytest.raises(ValueError, match="t must be finite"):
                kernel(0.0, 0.0, t, DriveProfile.constant(1.0, math.cos))


class TestQuantumPropagator:
    def test_equal_arguments_real_positive(self):
        profile = DriveProfile.constant(1.0, force=lambda t: 0.7)
        k = quantum_propagator(0.6, 0.6, -0.4, -0.4, 1.3, profile)
        assert abs(k.imag) < 1e-16
        assert k.real > 0.0

    def test_matches_shift_form(self):
        # independent closed form: force enters through beta only
        profile = DriveProfile.constant(1.0, force=lambda t: math.cos(0.7 * t) + 0.4)
        for t in (0.9, 1.3, 2.7):
            traj = solve_epsilon(profile, t, 1e-3)
            beta = beta_shift(traj, t)
            for X, Xp, Z, Zp in ((0.4, -0.2, 0.1, 0.9), (-1.1, 0.5, 0.7, -0.6)):
                direct = quantum_propagator(X, Xp, Z, Zp, t, profile)
                shifted = quantum_propagator_from_shift(X, Xp, Z, Zp, t, beta)
                assert abs(direct - shifted) <= 1e-8

    def test_phase_convention_cancels(self):
        profile = DriveProfile.constant(1.0, force=lambda t: 1.0)
        args = (0.4, -0.2, 0.1, 0.9, 1.3)
        k0 = quantum_propagator(*args, profile, phase=0.0)
        k1 = quantum_propagator(*args, profile, phase=0.37 * args[4])
        assert abs(k0 - k1) <= 1e-12


def seed_green_sho(X, Z, t, phase):
    """The oscillator closed form in the (sin t, cos t) form it first had."""
    s = math.sin(t)
    expo = ((X * X + Z * Z) * math.cos(t) - 2.0 * X * Z) / (2.0 * s)
    return cmath.exp(1j * (expo + phase)) / cmath.sqrt(2.0 * math.pi * s)


def seed_green_free(X, Z, t, phase):
    return cmath.exp(1j * ((X - Z) ** 2 / (2.0 * t) + phase)) / cmath.sqrt(2.0 * math.pi * t)


points = st.floats(-3.0, 3.0)
phases = st.floats(-1.0, 1.0)


@st.composite
def unit_forces(draw):
    """A constant or a cos force, as a scalar callable."""
    c, w, a = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 3.0)), draw(st.floats(-1.0, 1.0))
    if draw(st.booleans()):
        return lambda t: c
    return lambda t: c * math.cos(w * t) + a


frame_points = st.tuples(points, points, points).filter(lambda p: abs(p[1]) + abs(p[2]) >= 1e-2)


@st.composite
def closed_form_cases(draw):
    """(profile, t): a constant (omega in [0, 3]) or free profile with no
    force, a number force or a cos force, at a t of either sign; |t| up to
    1e7 where the flow builds no drive grid, up to 20 for the cos force."""
    kind = draw(st.sampled_from(["none", "number", "callable"]))
    c, w = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 3.0))
    force = {"none": 0.0, "number": c, "callable": lambda s: c * np.cos(w * s)}[kind]
    omega = draw(st.floats(0.0, 3.0))
    profile = DriveProfile.free(force) if draw(st.booleans()) else DriveProfile.constant(omega, force)
    span = 20.0 if kind == "callable" else 1e7
    return profile, draw(st.floats(-span, span))


def outcome(call, *args):
    """repr of call(*args), so signed zeros count, or the type and message of
    the error it raises."""
    try:
        return repr(call(*args))
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


class TestGreenProperties:
    """The one Green kernel against the seed closed forms and the beta-shift
    route, over random times and points."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(X=points, Z=points, t=st.floats(-20.0, 20.0), phase=phases)
    @example(X=0.3, Z=-1.4, t=1e7, phase=0.2)
    @example(X=-2.1, Z=0.8, t=-1e7, phase=-0.6)
    def test_sho_matches_seed_closed_form(self, X, Z, t, phase):
        assume(abs(math.sin(t)) >= 0.1)
        seed = seed_green_sho(X, Z, t, phase)
        assert abs(green_sho(X, Z, t, phase) - seed) <= 1e-13 * abs(seed)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(X=points, Z=points, t=st.floats(-20.0, 20.0), phase=phases)
    @example(X=0.3, Z=-1.4, t=1e7, phase=0.2)
    @example(X=-2.1, Z=0.8, t=-1e7, phase=-0.6)
    def test_free_matches_seed_closed_form(self, X, Z, t, phase):
        assume(abs(t) >= 0.1)
        seed = seed_green_free(X, Z, t, phase)
        assert abs(green_free(X, Z, t, phase) - seed) <= 1e-13 * abs(seed)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(force=unit_forces(), t=st.floats(0.0, 20.0), X=points, Xp=points, Z=points, Zp=points)
    def test_propagator_matches_shift_form(self, force, t, X, Xp, Z, Zp):
        assume(abs(math.sin(t)) >= 0.1)
        profile = DriveProfile.constant(1.0, force)
        beta = flow_at(profile, t)[2]
        direct = quantum_propagator(X, Xp, Z, Zp, t, profile)
        assert abs(direct - quantum_propagator_from_shift(X, Xp, Z, Zp, t, beta)) <= 1e-8

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(force=unit_forces(), t=st.floats(-20.0, 20.0), X=points, Xp=points, Z=points, Zp=points,
           phase=st.floats(-2.0 * math.pi, 2.0 * math.pi))
    def test_propagator_blind_to_phase(self, force, t, X, Xp, Z, Zp, phase):
        assume(abs(math.sin(t)) >= 0.1)
        profile = DriveProfile.constant(1.0, force)
        k = quantum_propagator(X, Xp, Z, Zp, t, profile)
        assert abs(quantum_propagator(X, Xp, Z, Zp, t, profile, phase) - k) <= 1e-12 * abs(k)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=classical_profiles(), t=st.floats(0.0, 8.0, exclude_min=True), X=points, Z=points,
           phase=phases)
    def test_driven_is_the_kernel_of_flow_at(self, case, t, X, Z, phase):
        profile = case[0]
        flow = flow_at(profile, t)
        assume(abs(flow[0].imag) >= 1e-3)
        kernel = ClassicalPropagator.from_epsilon(*flow).kernel
        assert green_driven(X, Z, t, profile, phase) == kernel(X, Z, phase)
        k = kernel(X, Z, phase) * kernel(Z, X, phase).conjugate()
        assert quantum_propagator(X, Z, Z, X, t, profile, phase) == k

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=classical_profiles(), t=st.floats(0.0, 8.0, exclude_min=True),
           X=st.lists(points, min_size=1, max_size=5), Z=st.lists(points, min_size=1, max_size=5),
           phase=st.one_of(st.sampled_from([0.0, -0.0]), phases))
    def test_kernel_on_arrays_is_the_float_kernel_at_each_point(self, case, t, X, Z, phase):
        prop = ClassicalPropagator.from_profile(case[0], t)
        assume(abs(prop.eps.imag) >= 1e-3)
        grid = prop.kernel(np.array(X)[:, None], np.array(Z), phase)
        assert grid.shape == (len(X), len(Z))
        for (i, j), g in np.ndenumerate(grid):
            assert g == prop.kernel(X[i], Z[j], phase)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=closed_form_cases(), X=points, Xp=points, Z=points, Zp=points, phase=phases)
    @example(case=(DriveProfile.free(), 1e7), X=0.3, Xp=0.1, Z=-0.4, Zp=0.2, phase=0.0)
    @example(case=(DriveProfile.constant(1.0, 0.5), -1e7), X=0.3, Xp=0.1, Z=-0.4, Zp=0.2, phase=0.2)
    @example(case=(DriveProfile.constant(1.3, math.cos), -2.5), X=0.3, Xp=0.1, Z=-0.4, Zp=0.2, phase=0.0)
    def test_green_functions_read_the_propagator_of_their_profile(self, case, X, Xp, Z, Zp, phase):
        # bit for bit, at any finite t, caustics and all
        profile, t = case
        prop = ClassicalPropagator.from_profile(profile, t)
        assert repr(flow_at(profile, t)) == repr((prop.eps, prop.eps_dot, prop.beta))
        assert outcome(green_driven, X, Z, t, profile, phase) == outcome(prop.kernel, X, Z, phase)
        propagator = lambda: prop.kernel(X, Z, phase) * prop.kernel(Xp, Zp, phase).conjugate()
        assert outcome(quantum_propagator, X, Xp, Z, Zp, t, profile, phase) == outcome(propagator)
        for green, unforced in ((green_sho, DriveProfile.constant(1.0)), (green_free, DriveProfile.free())):
            kernel = ClassicalPropagator.from_profile(unforced, t).kernel
            assert outcome(green, X, Z, t, phase) == outcome(kernel, X, Z, phase)
        assert outcome(green_driven, X, Z, t, DriveProfile.free(), phase) == outcome(green_free, X, Z, t, phase)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(force=unit_forces(), t=st.floats(0.1, 6.0), X=points, Z=points)
    def test_driven_reads_the_profile_not_its_constructor(self, force, t, X, Z):
        # a custom unit profile is solved by RK4, a constant one takes its closed
        # form: the two flows agree to the integrator's error, not bit for bit
        assume(abs(math.sin(t)) >= 0.1)
        unit = green_driven(X, Z, t, DriveProfile.constant(1.0, force))
        custom = green_driven(X, Z, t, DriveProfile.custom(lambda s: 1.0, force))
        assert abs(custom - unit) <= 1e-9 * abs(unit)


class TestClassicalPropagatorProperties:
    """Structural identities of the frame map over random profiles."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=classical_profiles(), t=st.floats(0.0, 8.0), point=frame_points)
    def test_unit_determinant_and_two_routes(self, case, t, point):
        prop = ClassicalPropagator.from_profile(case[0], t)
        assert abs(prop.inv.det - 1.0) <= DET_TOL
        X, mu, nu = point
        r = prop.eps_dot * nu + prop.eps * mu
        eps_form = (X + SQRT2 * (prop.beta * r.conjugate()).real, r.real, r.imag)
        scale = max(1.0, abs(r))
        assert prop.frame_map(*point) == pytest.approx(eps_form, abs=1e-10 * scale)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(case=classical_profiles(), point=frame_points)
    def test_identity_at_time_zero(self, case, point):
        assert ClassicalPropagator.from_profile(case[0], 0.0).frame_map(*point) == point

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=classical_profiles(), t1=st.floats(0.0, 3.0), t2=st.floats(0.0, 3.0), point=frame_points)
    def test_group_law_for_autonomous_profiles(self, case, t1, t2, point):
        profile, autonomous = case
        assume(autonomous)
        pa, pb, pc = (ClassicalPropagator.from_profile(profile, t) for t in (t1, t2, t1 + t2))
        composed = pa.frame_map(*pb.frame_map(*point))
        assert composed == pytest.approx(pc.frame_map(*point), rel=1e-9, abs=1e-9)


frame_shapes = st.sampled_from([((), (5,), (5,)), ((7,), (), ()), ((3, 1), (1, 4), (4,)), ((2, 3, 2), (3, 1), (2,))])


class TestFrameMapOnArrays:
    """One frame_map body for every shape: arrays map bit for bit as their points do."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=classical_profiles(), t=st.floats(0.0, 8.0), shapes=frame_shapes,
           seed=st.integers(0, 2**32 - 1))
    def test_arrays_match_the_per_point_calls_bitwise(self, case, t, shapes, seed):
        prop = ClassicalPropagator.from_profile(case[0], t)
        rng = np.random.default_rng(seed)
        X, mu, nu = (rng.normal(scale=2.0, size=shape) for shape in shapes)
        shape = np.broadcast_shapes(*shapes)
        mapped = prop.frame_map(X, mu, nu)
        assert all(isinstance(v, np.ndarray) and v.shape == shape for v in mapped)
        points = zip(*(np.broadcast_to(v, shape).ravel().tolist() for v in (X, mu, nu)))
        per_point = np.array([prop.frame_map(*point) for point in points])
        assert np.array_equal(np.stack([v.ravel() for v in mapped], axis=-1), per_point)

    def test_zero_dimensional_input_gives_floats(self):
        prop = propagator_at(1.3)
        mapped = prop.frame_map(np.float64(0.3), np.array(1.0), 0.5)
        assert all(type(v) is float for v in mapped)
        assert mapped == prop.frame_map(0.3, 1.0, 0.5)

    def test_x_slice_with_a_scalar_frame(self):
        prop = propagator_at(2.2)
        X = np.linspace(-3.0, 3.0, 11)
        x_p, mu_p, nu_p = prop.frame_map(X, 0.6, 0.8)
        assert x_p.shape == mu_p.shape == nu_p.shape == (11,)
        _, mu_0, nu_0 = prop.frame_map(0.0, 0.6, 0.8)
        assert np.all(mu_p == mu_0) and np.all(nu_p == nu_0)
        assert x_p.tolist() == [prop.frame_map(x, 0.6, 0.8)[0] for x in X.tolist()]

    def test_frame_grid_from_a_column_and_a_row(self):
        prop = propagator_at(0.9)
        mu, nu = np.linspace(-1.0, 1.0, 4)[:, None], np.linspace(0.5, 2.0, 3)[None, :]
        mapped = prop.frame_map(0.4, mu, nu)
        assert all(v.shape == (4, 3) for v in mapped)
        for i, j in np.ndindex(4, 3):
            assert tuple(float(v[i, j]) for v in mapped) == prop.frame_map(0.4, mu[i, 0], nu[0, j])

    @pytest.mark.parametrize(
        "slots, value",
        [((slot,), value) for slot in (0, 1, 2) for value in (math.nan, math.inf, -math.inf)]
        + [((1, 2), 0.0)],
        ids=[f"{name}-{value}" for name in ("X", "mu", "nu") for value in ("nan", "inf", "-inf")]
        + ["zero-frame"],
    )
    def test_one_bad_element_raises_the_scalar_error(self, slots, value):
        prop = propagator_at(1.3)
        args = [np.linspace(-1.0, 1.0, 6), np.full(6, 0.6), np.full(6, 0.8)]
        for slot in slots:
            args[slot][4] = value
        with pytest.raises(ValueError) as scalar:
            prop.frame_map(*(float(a[4]) for a in args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as array:
                prop.frame_map(*args)
            with pytest.raises(ValueError):
                prop.evolve(lambda X, mu, nu: coherent_mdf(0.3, 1.0, 1.0j, 0.0, X, mu, nu), *args)
        assert str(array.value) == str(scalar.value)

    def test_nan_eps_route_at_one_element_is_a_consistency_error(self):
        # the one point whose image leaves the double range maps to inf on
        # both routes, so their difference is NaN there and finite elsewhere
        prop = propagator_at(math.pi / 4.0, force=0.0)
        X, mu, nu = np.zeros(5), np.full(5, 0.6), np.full(5, 0.8)
        mu[2] = nu[2] = 1.5e308
        prop.frame_map(X[:2], mu[:2], nu[:2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(ConsistencyError, match="disagree"):
                prop.frame_map(X, mu, nu)
            with pytest.raises(ConsistencyError, match="disagree"):
                prop.frame_map(0.0, 1.5e308, 1.5e308)

    def test_huge_frames_map_without_warnings(self):
        prop = propagator_at(1.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the zero-frame test squares mu and nu
            mapped = prop.frame_map(np.zeros(2), np.array([1e200, 0.6]), np.array([0.0, 0.8]))
        assert np.all(np.isfinite(mapped))

    @pytest.mark.parametrize(
        "w0",
        [
            lambda x, mu, nu: fock_mdf(2, 1.0, 1.0j, 0.0, x, mu, nu),
            lambda x, mu, nu: coherent_mdf(0.7 + 0.3j, 1.0, 1.0j, 0.0, x, mu, nu),
        ],
        ids=["fock2", "coherent"],
    )
    def test_evolve_on_arrays_is_w0_at_the_mapped_arrays(self, w0):
        prop = propagator_at(3.0)
        X = np.linspace(-12.0, 12.0, 2401)[:, None]
        angle = np.array([0.0, 0.8, 2.1])
        mu, nu = np.cos(angle), np.sin(angle)
        vals = prop.evolve(w0, X, mu, nu)
        assert vals.shape == (2401, 3)
        assert np.array_equal(vals, w0(*prop.frame_map(X, mu, nu)))
        assert np.all(np.abs(np.trapezoid(vals, X[:, 0], axis=0) - 1.0) < 1e-6)
        for k in (0, 1200, 2400):
            for j in range(3):
                point = prop.evolve(w0, float(X[k, 0]), float(mu[j]), float(nu[j]))
                assert vals[k, j] == pytest.approx(point, rel=1e-14, abs=1e-300)


def array_map(prop):
    """The frame map's matrix and its two-form check formed in numpy arrays,
    as ClassicalPropagator._map formed them before it read floats: the
    reference its float formation matches bit for bit."""
    lam = prop.inv.lam
    lam_inv = np.array([[lam[1, 1], -lam[0, 1]], [-lam[1, 0], lam[0, 0]]]) / prop.inv.det
    eps, eps_dot, beta = prop.eps, prop.eps_dot, prop.beta
    eps_form = np.array([[SQRT2 * (beta * c.conjugate()).real, c.imag, c.real] for c in (eps_dot, eps)])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam_form = np.column_stack([lam_inv @ prop.inv.delta, lam_inv])
        eps_form /= (eps.conjugate() * eps_dot).imag
        err = np.max(np.abs(lam_form - eps_form))
    if not err <= 1e-10 * max(1.0, np.max(np.abs(lam_form))):
        raise ConsistencyError("Lambda^-1 form and eps form of the frame map disagree: "
                               f"{lam_form.tolist()} vs {eps_form.tolist()}")
    return lam_form


# a change to the propagator of a profile's flow
MAP_FAULTS = {
    "none": lambda prop: prop,
    "beta off by 1e-6": lambda prop: dataclasses.replace(prop, beta=prop.beta + 1e-6),
    "another invariant": lambda prop: dataclasses.replace(prop, inv=propagator_at(0.4).inv),
    "D = 0": lambda prop: dataclasses.replace(prop, eps_dot=prop.eps),
    "beta of 1e308": lambda prop: ClassicalPropagator.from_epsilon(prop.eps, prop.eps_dot, 1e308 - 1e308j, prop.t),
}
# a point the float path refuses, or whose image leaves the double range
POINT_FAULTS = {
    "none": {}, "nan X": {0: math.nan}, "inf mu": {1: math.inf}, "zero frame": {1: 0.0, 2: 0.0},
    "int past the double range": {2: -(10**400)}, "image past the double range": {1: 1.5e308, 2: 1.5e308},
}


class TestFloatFrameMap:
    """The frame map's matrix is formed and checked in floats, once per
    propagator, with the bits and errors of its array formation, and a float
    point maps as a 0-d and a 1-element array holding it do."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=classical_profiles(), t=st.floats(0.0, 8.0), fault=st.sampled_from(sorted(MAP_FAULTS)),
           point=frame_points, point_fault=st.sampled_from(sorted(POINT_FAULTS)))
    def test_float_formation_is_the_array_formation(self, case, t, fault, point, point_fault):
        prop = MAP_FAULTS[fault](ClassicalPropagator.from_profile(case[0], t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            formed = outcome(lambda: prop._map.tobytes())
        assert formed == outcome(lambda: array_map(prop).tobytes())
        if fault in ("beta off by 1e-6", "D = 0"):
            assert formed[0] is ConsistencyError
        point = list(point)
        for slot, value in POINT_FAULTS[point_fault].items():
            point[slot] = value

        def as_arrays(as_array):  # an int no double holds stays as it is
            return [v if v == -(10**400) else as_array(v) for v in point]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mapped = outcome(prop.frame_map, *point)
            assert mapped == outcome(prop.frame_map, *as_arrays(lambda v: np.asarray(v, dtype=float)))
            one = outcome(lambda: tuple(float(v[0]) for v in prop.frame_map(*as_arrays(lambda v: np.array([v])))))
        assert one == mapped
        if point_fault != "none" and point_fault != "image past the double range":
            assert mapped[0] is ValueError


class TestGreenNonFinite:
    """Every Green function names a non-finite argument instead of returning nan."""

    P = DriveProfile.constant(1.0, lambda t: 1.0)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: green_sho(0.1, 0.1, math.nan), "t"),
            (lambda: green_sho(math.inf, 0.1, 1.0), "X"),
            (lambda: green_sho(0.1, 0.1, 1.0, phase=math.nan), "phase"),
            (lambda: green_free(0.1, 0.1, math.inf), "t"),
            (lambda: green_free(0.1, -math.inf, 1.0), "Z"),
            (lambda: green_driven(math.nan, 0.1, 1.0, TestGreenNonFinite.P), "X"),
            (lambda: green_driven(0.1, 0.1, 1.0, TestGreenNonFinite.P, math.inf), "phase"),
            (lambda: quantum_propagator(0.1, 0.2, math.inf, 0.3, 1.0, TestGreenNonFinite.P), "Z"),
            (lambda: quantum_propagator(0.1, math.nan, 0.2, 0.3, 1.0, TestGreenNonFinite.P), "Xp"),
            (lambda: quantum_propagator_from_shift(0.1, 0.2, 0.3, 0.4, math.nan, 0.1), "t"),
            (lambda: quantum_propagator_from_shift(0.1, 0.2, 0.3, 0.4, 1.0, complex(math.nan)), "beta"),
            (lambda: quantum_propagator_from_shift(0.1, 0.2, 0.3, math.inf, 1.0, 0.1j), "Zp"),
        ],
        ids=["sho-t", "sho-X", "sho-phase", "free-t", "free-Z", "driven-X", "driven-phase",
             "propagator-Z", "propagator-Xp", "shift-t", "shift-beta", "shift-Zp"],
    )
    def test_non_finite_argument_named(self, call, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                call()


class TestGreenOverflow:
    """A finite argument whose phase overflows raises EvaluationError naming
    X and Z, instead of returning nan+nanj, and no RuntimeWarning escapes."""

    P = DriveProfile.constant(1.0, lambda t: 1.0)

    @staticmethod
    def kernel(X, Z, phase=0.0):
        return ClassicalPropagator.from_profile(TestGreenOverflow.P, 1.0).kernel(X, Z, phase)

    @pytest.mark.parametrize(
        "call, shown",
        [
            (lambda: green_sho(1e200, 0.1, 1.0), "(1e+200, 0.1)"),
            (lambda: green_sho(1e200, 1e200, 1.0), "(1e+200, 1e+200)"),
            (lambda: green_free(0.1, 1e155, 1.0), "(0.1, 1e+155)"),
            (lambda: green_driven(1e200, 0.0, 1.0, TestGreenOverflow.P), "(1e+200, 0.0)"),
            (lambda: quantum_propagator(1e200, 0.0, 0.0, 0.0, 1.0, TestGreenOverflow.P), "(1e+200, 0.0)"),
            (lambda: quantum_propagator(0.0, 0.0, 0.0, -1e200, 1.0, TestGreenOverflow.P), "(0.0, -1e+200)"),
            (lambda: quantum_propagator_from_shift(1e200, 0.0, 0.0, 0.0, 1.0, 0.1j), "(1e+200, 0.0)"),
            (lambda: green_sho(0.0, 1e154, 1.0, phase=1.7e308), "(0.0, 1e+154)"),
            (lambda: green_sho(np.float64(1e200), np.float64(0.1), 1.0), "(1e+200, 0.1)"),
            # arrays name their first overflowing (X, Z) in C order
            (lambda: TestGreenOverflow.kernel(np.array([0.1, 1e200, -1e200]), 0.1), "(1e+200, 0.1)"),
            (lambda: TestGreenOverflow.kernel(np.array([[0.3], [1e200]]), np.array([1e155, 0.2])),
             "(0.3, 1e+155)"),
            (lambda: TestGreenOverflow.kernel(0.0, np.array([0.5, -1e200, 1e200]), 0.37), "(0.0, -1e+200)"),
            (lambda: TestGreenOverflow.kernel(0.0, 1e154, np.array([0.0, 1.7e308])), "(0.0, 1e+154)"),
        ],
        ids=["sho", "sho-nan", "free", "driven", "propagator", "propagator-Zp", "shift", "sho-phase",
             "sho-numpy-scalars", "kernel-X", "kernel-grid", "kernel-Z", "kernel-phase"],
    )
    def test_phase_overflow_raises(self, call, shown):
        # every caller, float or array, words it as the float call at that point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError) as err:
                call()
        assert str(err.value) == f"Green function phase overflows at (X, Z) = {shown}"

    def test_large_finite_phase_still_evaluates(self):
        # the phase m22 X^2 / (2 m12) ~ 3.2e9 rad rounds by ~4e-7 rad, inside the kernel's
        # 1e-6 rad: the value keeps its modulus
        g = green_sho(1e5, 0.0, 1.0)
        assert abs(g) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * math.sin(1.0)), rel=1e-12)

    @pytest.mark.parametrize(
        "call, shown",
        [
            (lambda: green_sho(1e150, 0.0, 1.0), "(1e+150, 0.0)"),
            (lambda: green_driven(0.3, -0.4, 0.3, DriveProfile.constant(1.0, 1e300)), "(0.3, -0.4)"),
            (lambda: quantum_propagator(0.1, 0.2, 0.3, 0.4, 1.0, TestGreenOverflow.P, phase=1e10), "(0.1, 0.3)"),
            (lambda: TestGreenOverflow.kernel(np.array([[0.1], [1e5], [2e5], [1e150]]), np.array([0.0, 1.0])),
             "(200000.0, 0.0)"),
        ],
        ids=["sho", "driven-force", "propagator-phase", "kernel-grid"],
    )
    def test_phase_past_its_rounding_bound_raises(self, call, shown):
        # a finite phase whose rounding error passes 1e-6 rad has no digits to print
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError) as err:
                call()
        assert re.fullmatch(re.escape(f"Green function phase at (X, Z) = {shown} has terms of size ")
                            + r"\S+ rad, which round by more than 1e-06 rad", str(err.value))

    def test_rounding_bound_is_the_documented_size(self):
        # at t = pi/4 the unit kernel's phase at Z = 0 is X^2 / 2 (cot t = 1), so the bound
        # S = 2^53 1e-6 rad falls at X = sqrt(2 S) ~ 134218
        edge = math.sqrt(2.0 * 2.0**53 * 1e-6)
        green_sho(0.999 * edge, 0.0, math.pi / 4.0)
        with pytest.raises(EvaluationError, match="round by more than"):
            green_sho(1.001 * edge, 0.0, math.pi / 4.0)


class TestResidualStep:
    @pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -1e-3])
    def test_step_must_be_finite_and_positive(self, h):
        w = lambda X, mu, nu, t: 1.0
        with pytest.raises(ValueError, match="h must be finite and positive"):
            fokker_planck_residual(w, DriveProfile.constant(1.0), (0.1, 0.2, 0.3, 0.4), h)
