import cmath
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import SQRT2, classical_profiles, driven_state
from osctomo import (
    ClassicalPropagator,
    DegenerateFrameError,
    DriveProfile,
    EvaluationError,
    WignerGrid,
    annihilation_eigencheck,
    coherent_mdf,
    coherent_mdf_fourier,
    coherent_wavefunction,
    cross_mdf,
    flow_at,
    fock_mdf,
    fourier_ladder_apply,
    hermite_gauss,
    mdf_from_wigner,
    mean_X,
    variance_X,
)

VACUUM = (1.0, 1.0j, 0.0)  # (eps, eps_dot, beta) at the initial time


def zerow_oracle(alpha, X, mu, nu):
    """Initial-time coherent tomogram, written out exactly as the Gaussian
    (pi (mu^2+nu^2))^(-1/2) exp{-(X + 1j(a-a*)nu/sqrt2 - (a+a*)mu/sqrt2)^2
    / (mu^2+nu^2)} -- an independent arrangement of the same closed form."""
    s = mu * mu + nu * nu
    shift = 1j * (alpha - np.conj(alpha)) * nu / SQRT2 - (alpha + np.conj(alpha)) * mu / SQRT2
    value = np.exp(-((X + shift) ** 2) / s) / np.sqrt(np.pi * s)
    assert abs(np.imag(value)) < 1e-15
    return np.real(value)


class TestCoherentMdf:
    def test_vacuum_unit_frame_value(self):
        assert coherent_mdf(0.0, *VACUUM, 0.0, 1.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-15
        )

    def test_reduces_to_initial_time_form(self):
        alpha = 0.4 - 0.6j
        for X in np.linspace(-3.0, 3.0, 7):
            for mu, nu in ((1.0, 0.0), (0.3, 0.9), (-0.5, 1.2)):
                assert coherent_mdf(alpha, *VACUUM, X, mu, nu) == pytest.approx(
                    zerow_oracle(alpha, X, mu, nu), abs=1e-15
                )

    def test_normalised_in_x(self):
        X = np.linspace(-12.0, 12.0, 3001)
        for t in (0.0, 1.0, 3.0):
            state = driven_state(t)
            for mu, nu in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)):
                w = coherent_mdf(0.7 + 0.3j, *state, X, mu, nu)
                assert abs(np.trapezoid(w, X) - 1.0) < 1e-6

    def test_positive(self):
        rng = np.random.default_rng(3)
        state = driven_state(1.3)
        for _ in range(50):
            X, mu, nu = rng.normal(scale=3.0), rng.normal(), rng.normal()
            if mu * mu + nu * nu < 1e-2:
                continue
            assert coherent_mdf(0.5 - 0.2j, *state, X, mu, nu) >= 0.0

    def test_frame_homogeneity(self):
        state = driven_state(0.9)
        rng = np.random.default_rng(4)
        for _ in range(20):
            lam = rng.uniform(0.1, 5.0)
            X, mu, nu = rng.normal(), rng.normal(), rng.normal()
            if mu * mu + nu * nu < 1e-2:
                continue
            left = coherent_mdf(0.3j, *state, lam * X, lam * mu, lam * nu)
            right = coherent_mdf(0.3j, *state, X, mu, nu) / lam
            assert left == pytest.approx(right, rel=1e-12)

    def test_degenerate_frame(self):
        with pytest.raises(DegenerateFrameError):
            coherent_mdf(0.0, 1.0, 1.0, 0.0, 0.0, 1.0, -1.0)  # r = mu + nu = 0


class TestInPlaceClosedForms:
    """coherent_mdf and fock_mdf work on one full-size array in place; the
    values and the scalar return types stay those of the allocating forms."""

    STATE = (1.1 + 0.2j, 0.3 + 0.9j, 0.2 - 0.1j)

    @staticmethod
    def inputs():
        rng = np.random.default_rng(12)
        X = rng.normal(0.0, 3.0, (19, 29))
        mu = rng.normal(0.0, 3.0, (19, 1))
        yield X, mu, 0.7  # the tomogram -> density slice layout
        yield np.asfortranarray(X), mu, 0.7  # a Y in F order is copied once into C order
        yield X[0], 0.6, 0.8
        yield 0.4, mu, 0.7  # scalar X, array frame
        yield [0.1, -2.0], 0.6, 0.8
        yield 0.4, 0.6, 0.8
        yield np.float64(-1.3), 1.0, 0.0

    @staticmethod
    def same(got, want):
        return type(got) is type(want) and np.shape(got) == np.shape(want) and np.array_equal(got, want)

    def test_coherent_bit_identical(self):
        for alpha in (0.0, 0.7 + 0.3j, -1.2j):
            for X, mu, nu in self.inputs():
                got = coherent_mdf(alpha, *self.STATE, X, mu, nu)
                assert self.same(got, allocating_coherent_mdf(alpha, *self.STATE, X, mu, nu))

    def test_fock_bit_identical(self):
        for n in (0, 1, 3, 8, 30):
            for X, mu, nu in self.inputs():
                got = fock_mdf(n, *self.STATE, X, mu, nu)
                assert self.same(got, allocating_fock_mdf(n, *self.STATE, X, mu, nu))

    @pytest.mark.parametrize("name", ["fock_mdf 0", "fock_mdf 5", "coherent_mdf"])
    def test_holds_one_array(self, name):
        # a tomogram -> density slice of the demo spec, 160 x 501 = 80 160 values: the Hermite
        # recurrence runs in three 128 KiB chunk buffers and writes back into Y, and the coherent
        # tail works on Y in place, so the peak is the one N-value result; the allocating
        # forms hold two to four N-value arrays
        X = np.linspace(-8.0, 8.0, 501) + np.zeros((160, 1))
        mu = np.linspace(-12.0, 12.0, 160)[:, None]
        form, *n = name.split(" ")
        closed, allocating = {"fock_mdf": (fock_mdf, allocating_fock_mdf),
                              "coherent_mdf": (coherent_mdf, allocating_coherent_mdf)}[form]
        args = (*map(int, n), *self.STATE, X, mu, 0.7) if n else (0.5 - 0.2j, *self.STATE, X, mu, 0.7)
        tracemalloc.start()
        try:
            got = closed(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert self.same(got, allocating(*args))
        assert peak <= 8 * X.size + 2**20

    @pytest.mark.parametrize("X", [1e200, np.array([-3e160, 1e300])], ids=["scalar", "array"])
    def test_far_tails_underflow_to_zero_without_warnings(self, X):
        # past |X| ~ 1e154 the square in the exponent overflows to inf, and exp(-inf) = 0
        with np.errstate(over="ignore"):
            want = allocating_coherent_mdf(0.5, *self.STATE, X, 0.6, 0.8)
            want_fock = allocating_fock_mdf(2, *self.STATE, X, 0.6, 0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.same(coherent_mdf(0.5, *self.STATE, X, 0.6, 0.8), want)
            assert self.same(fock_mdf(2, *self.STATE, X, 0.6, 0.8), want_fock)
            assert np.all(cross_mdf(1, 2, *self.STATE, X, 0.6, 0.8) == 0.0)
        assert np.all(want == 0.0) and np.all(want_fock == 0.0)


def allocating_quadrature(alpha, eps, eps_dot, beta, X, mu, nu):
    """(Y, |r|), Y = (X - <X>) / |r| in real arithmetic: the parts of
    r = eps_dot nu + eps mu, |r| = hypot(Re r, Im r), and
    <X> = sqrt(2) Re((alpha - beta) conj r) = sqrt(2) (Re gamma Re r + Im gamma Im r)."""
    eps, eps_dot, gamma = complex(eps), complex(eps_dot), complex(alpha - beta)
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    r_re, r_im = eps_dot.real * nu + eps.real * mu, eps_dot.imag * nu + eps.imag * mu
    mean = SQRT2 * (gamma.real * r_re + gamma.imag * r_im)
    return (np.asarray(X, dtype=float) - mean) / np.hypot(r_re, r_im), np.hypot(r_re, r_im)


def allocating_coherent_mdf(alpha, eps, eps_dot, beta, X, mu, nu):
    Y, abs_r = allocating_quadrature(alpha, eps, eps_dot, beta, X, mu, nu)
    return np.exp(-(Y**2)) / (np.sqrt(np.pi) * abs_r)


def allocating_fock_mdf(n, eps, eps_dot, beta, X, mu, nu):
    # hermite_gauss itself is pinned to its allocating form in test_dynamics
    Y, abs_r = allocating_quadrature(0.0, eps, eps_dot, beta, X, mu, nu)
    return hermite_gauss(n, Y) ** 2 / abs_r


class TestMoments:
    def test_zero_mean_when_alpha_equals_beta(self):
        eps, eps_dot, beta = driven_state(1.1)
        assert mean_X(beta, eps, eps_dot, beta, 0.7, 0.7) == 0.0

    def test_constant_frequency_variance(self):
        eps, eps_dot, _ = driven_state(2.3, force=0.0)
        for mu, nu in ((1.0, 0.0), (0.5, 1.1)):
            assert variance_X(eps, eps_dot, mu, nu) == pytest.approx(
                0.5 * (mu * mu + nu * nu), abs=1e-14
            )

    def test_match_quadrature(self):
        X = np.linspace(-12.0, 12.0, 4001)
        alpha = 0.7 + 0.3j
        for t in (0.0, 1.7):
            eps, eps_dot, beta = driven_state(t)
            for mu, nu in ((1.0, 0.0), (0.6, 0.8)):
                w = coherent_mdf(alpha, eps, eps_dot, beta, X, mu, nu)
                mean_q = np.trapezoid(X * w, X)
                var_q = np.trapezoid((X - mean_q) ** 2 * w, X)
                assert abs(mean_q - mean_X(alpha, eps, eps_dot, beta, mu, nu)) < 1e-8
                assert abs(var_q - variance_X(eps, eps_dot, mu, nu)) < 1e-8


class TestMomentOverflow:
    """A frame whose |r|^2 overflows raises EvaluationError naming it in
    variance_X, the one closed form whose value is |r|^2 / 2, with no
    RuntimeWarning; the mean and the coherent forms square no |r| and keep
    their finite values."""

    CALLS = {
        "variance_X": lambda mu, nu: variance_X(1.0, 1j, mu, nu),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_overflowing_frame_raises(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=re.escape("frame (mu, nu) = (1.0, 1e+200): |r|^2")):
                self.CALLS[name](1.0, 1e200)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_array_names_its_first_overflowing_frame(self, name):
        mu, nu = np.array([[1.0], [2.0]]), np.array([0.5, 1e300, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=re.escape("frame (mu, nu) = (1.0, 1e+300): |r|^2")):
                self.CALLS[name](mu, nu)

    def test_coherent_forms_need_no_square(self):
        # at |r| = 1e200 the coherent tomogram is exp(-Y^2) / (sqrt(pi) |r|), and w_k keeps
        # its value wherever (k |r|)^2 is finite; past that the exponent names k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert coherent_mdf(0.0, *VACUUM, 1e200, 1.0, 1e200) == pytest.approx(
                math.exp(-1.0) / (math.sqrt(math.pi) * 1e200), rel=1e-15)
            assert coherent_mdf_fourier(2e-200, 0.0, *VACUUM, 1.0, 1e200) == pytest.approx(math.exp(-1.0), rel=1e-15)
            with pytest.raises(EvaluationError, match=re.escape("at k = 0.5")):
                coherent_mdf_fourier(0.5, 0.0, *VACUUM, 1.0, 1e200)
            mu, nu = np.array([[1.0], [2.0]]), np.array([0.5, 1e300, 1e200])
            w = coherent_mdf(0.0, *VACUUM, 0.3, mu, nu)
            assert np.all(w > 0.0)
            assert w.tolist() == [[coherent_mdf(0.0, *VACUUM, 0.3, m, n) for n in nu] for m in mu[:, 0]]

    def test_frame_whose_r_overflows_names_the_square(self):
        # r = 1e10 * 1e300 overflows, so <X> = sqrt(2) Re(0 conj r) is NaN: the
        # failure is |r|^2, named as where only the square overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=re.escape("frame (mu, nu) = (1e+300, 0.0): |r|^2 = ")):
                variance_X(1e10, 1j, 1e300, 0.0)
            with pytest.raises(EvaluationError, match=re.escape("frame (mu, nu) = (1e+300, 0.0): |r|^2 = ")):
                variance_X(1e10, 1j, np.array([1.0, 1e300]), np.array([0.5, 0.0]))

    def test_largest_frame_whose_square_is_finite(self):
        largest = math.sqrt(sys.float_info.max)
        assert variance_X(1.0, 1j, largest, 0.0) == 0.5 * largest**2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="overflows"):
                variance_X(1.0, 1j, math.nextafter(largest, math.inf), 0.0)

    def test_mean_needs_no_square(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mean_X(0.5, *VACUUM, 1.0, 1e200) == SQRT2 * 0.5
            assert mean_X(0.5, *VACUUM, np.array([1.0, 1.0]), np.array([0.5, 1e200])).tolist() == [
                SQRT2 * 0.5, SQRT2 * 0.5]


class TestOneOverflowRule:
    """Every closed form that reads <X> names the same first frame whose <X>
    overflows, with the same EvaluationError and no RuntimeWarning: the
    coherent state gamma and the vacuum at the shift -gamma share one <X>."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(frames=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(
               lambda f: math.hypot(*f) >= 0.1), min_size=1, max_size=6),
           data=st.data(), size=st.floats(1.0, 3.0), angle=st.floats(-math.pi, math.pi),
           scale=st.floats(1.5, 1.7), column=st.booleans())
    def test_closed_forms_name_the_same_first_frame(self, frames, data, size, angle, scale, column):
        # frame j lies along gamma with |r| = scale 1e308, so |<X>| >= sqrt(2) 1.5e308 overflows;
        # the others, with |r| <= 2 sqrt(2) and |gamma| <= 3, keep a finite <X>
        gamma = cmath.rect(size, angle)
        j = data.draw(st.integers(0, len(frames) - 1))
        frames[j] = (scale * 1e308 * math.cos(angle), scale * 1e308 * math.sin(angle))
        mu, nu = (np.array(c) for c in zip(*frames))
        if column:
            mu, nu = mu[:, None], nu[:, None]
        calls = {
            "coherent_mdf": lambda: coherent_mdf(gamma, *VACUUM, 0.3, mu, nu),
            "fock_mdf": lambda: fock_mdf(2, 1.0, 1j, -gamma, 0.3, mu, nu),
            "cross_mdf": lambda: cross_mdf(1, 3, 1.0, 1j, -gamma, 0.3, mu, nu),
            "mean_X": lambda: mean_X(gamma, *VACUUM, mu, nu),
            "coherent_mdf_fourier": lambda: coherent_mdf_fourier(0.5, gamma, *VACUUM, mu, nu),
        }
        want = f"frame (mu, nu) = ({frames[j][0]}, {frames[j][1]}): <X> = sqrt(2) Re((alpha - beta) conj r) overflows"
        for name, call in calls.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EvaluationError) as caught:
                    call()
            assert str(caught.value).startswith(want), name


    @pytest.mark.parametrize("X, mu", [(-1.2e308, 0.5), (1.5e308, 1.0)])
    def test_fock_forms_are_zero_far_out(self, X, mu):
        # <X> and |r| are finite, and |Y| = |X - <X>| / |r| passes 1.27e308, where
        # sqrt(2) Y overflows: every Hermite function is 0 there, with no RuntimeWarning
        beta = -1.2e308 if X < 0 else 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fock_mdf(2, 1.0, 1j, beta, 0.0 if X < 0 else X, mu, 0.0) == 0.0
            assert cross_mdf(1, 3, 1.0, 1j, beta, 0.0 if X < 0 else X, mu, 0.0) == 0.0
            w = fock_mdf(3, 1.0, 1j, 0.0, np.array([X, 1e154, 0.3]), mu, 0.0)
        assert w[:2].tolist() == [0.0, 0.0] and w[2] > 0.0


class TestFourierForm:
    def test_unit_at_k_zero(self):
        state = driven_state(0.8)
        assert coherent_mdf_fourier(0.0, 0.4 + 0.1j, *state, 0.7, 0.7) == 1.0

    def test_conjugation_symmetry(self):
        state = driven_state(1.9)
        for k in (0.3, 1.7, -2.2):
            w_k = coherent_mdf_fourier(k, 0.4 + 0.1j, *state, 0.5, 1.1)
            w_mk = coherent_mdf_fourier(-k, 0.4 + 0.1j, *state, 0.5, 1.1)
            assert np.conj(w_k) == pytest.approx(w_mk, abs=1e-15)

    def test_initial_time_gaussian_coefficients(self):
        # quadratic exponent in (y, z) = (k mu, k nu) must be
        # -(y^2 + z^2)/4: coefficients c = d = -1/4, no cross term
        for k in (0.7, 1.8):
            log_c = math.log(abs(coherent_mdf_fourier(k, 0.0, *VACUUM, 1.0, 0.0)))
            log_d = math.log(abs(coherent_mdf_fourier(k, 0.0, *VACUUM, 0.0, 1.0)))
            log_cd = math.log(abs(coherent_mdf_fourier(k, 0.0, *VACUUM, 1.0, 1.0)))
            assert log_c == pytest.approx(-0.25 * k * k, abs=1e-12)
            assert log_d == pytest.approx(-0.25 * k * k, abs=1e-12)
            assert log_cd - log_c - log_d == pytest.approx(0.0, abs=1e-12)  # h = 0

    def test_inverse_transform_recovers_tomogram(self):
        alpha = 0.4 - 0.3j
        eps, eps_dot, beta = driven_state(1.2)
        mu, nu = 0.6, 0.8
        k = np.linspace(-40.0, 40.0, 8001)
        for X in (-1.5, 0.0, 0.7):
            w_k = coherent_mdf_fourier(k, alpha, eps, eps_dot, beta, mu, nu)
            inv = np.trapezoid(w_k * np.exp(1j * k * X), k) / (2.0 * math.pi)
            assert abs(inv.imag) < 1e-12
            assert inv.real == pytest.approx(
                coherent_mdf(alpha, eps, eps_dot, beta, X, mu, nu), abs=1e-10
            )


class TestEigencheck:
    def test_second_order_residual(self):
        args = (0.3 + 0.2j, *driven_state(0.8), 0.7, 0.6, 0.9)
        r_2h = abs(annihilation_eigencheck(*args, 2e-3))
        r_h = abs(annihilation_eigencheck(*args, 1e-3))
        r_fine = abs(annihilation_eigencheck(*args, 1e-4))
        assert 3.5 <= r_2h / r_h <= 4.5
        assert r_fine <= 1e-6

    def test_vacuum_has_eigenvalue_zero(self):
        residual = annihilation_eigencheck(0.0, *VACUUM, 1.0, 0.4, 1.1, 1e-4)
        assert abs(residual) <= 1e-8

    def test_operator_linearity(self):
        alpha = 0.4 + 0.1j
        eps, eps_dot, beta = driven_state(1.5)
        k, mu, nu, h, scale = 0.9, 0.7, 0.6, 1e-3, 3.7

        def wk(y, z):
            return complex(coherent_mdf_fourier(k, alpha, eps, eps_dot, beta, y / k, z / k))

        def wk_scaled(y, z):
            return scale * wk(y, z)

        y, z = k * mu, k * nu
        plain = fourier_ladder_apply(wk, eps, eps_dot, y, z, h)
        scaled = fourier_ladder_apply(wk_scaled, eps, eps_dot, y, z, h)
        assert scaled == pytest.approx(scale * plain, rel=1e-12)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            annihilation_eigencheck(0.0, *VACUUM, 1.0, 0.0, 0.0, 1e-4)


class TestFockMdf:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=classical_profiles(), t=st.floats(0.0, 8.0), mu=st.floats(-2.0, 2.0), nu=st.floats(-2.0, 2.0),
           alpha=st.complex_numbers(max_magnitude=3.0))
    def test_ground_state_equals_vacuum_coherent(self, case, t, mu, nu, alpha):
        # a coherent state is the vacuum displaced by alpha: its tomogram is the n = 0 Fock
        # tomogram at the shift beta - alpha (one family, read from one kernel)
        eps, eps_dot, beta = flow_at(case[0], t)
        r = eps_dot * nu + eps * mu
        assume(abs(r) >= 1e-3)
        X = SQRT2 * ((alpha - beta) * r.conjugate()).real + abs(r) * np.linspace(-12.0, 12.0, 241)
        coherent = coherent_mdf(alpha, eps, eps_dot, beta, X, mu, nu)
        fock = fock_mdf(0, eps, eps_dot, beta - alpha, X, mu, nu)
        assert np.max(np.abs(coherent - fock)) <= 1e-15 * np.max(coherent)

    def test_depends_only_on_scaled_quadrature_for_sho(self):
        eps = cmath.exp(2.3j)
        rng = np.random.default_rng(9)
        for n in (0, 1, 2, 5):
            for _ in range(10):
                mu, nu = rng.normal(size=2)
                s = math.hypot(mu, nu)
                if s < 0.1:
                    continue
                X = rng.normal() * 2.0
                a = fock_mdf(n, eps, 1j * eps, 0.0, X, mu, nu)
                b = fock_mdf(n, eps, 1j * eps, 0.0, X / s, 1.0, 0.0) / s
                assert a == pytest.approx(b, abs=1e-12)

    def test_first_excited_vanishes_at_y_zero(self):
        eps, eps_dot, beta = driven_state(0.7)
        r = eps_dot * 0.6 + eps * 0.8
        X = -SQRT2 * (np.conj(beta) * r).real  # makes Y = 0
        assert fock_mdf(1, eps, eps_dot, beta, X, 0.8, 0.6) < 1e-28

    def test_normalised(self):
        X = np.linspace(-14.0, 14.0, 4001)
        state = driven_state(2.0)
        for n in (0, 1, 2, 5, 20):
            w = fock_mdf(n, *state, X, 0.6, 0.8)
            assert abs(np.trapezoid(w, X) - 1.0) < 1e-6

    @pytest.mark.parametrize("n", [math.inf, math.nan, 2.5])
    def test_order_must_be_a_whole_number(self, n):
        with pytest.raises(ValueError, match="^order must be at least 0 and a whole number"):
            fock_mdf(n, *VACUUM, 0.3, 1.0, 0.0)

    def test_high_order_finite(self):
        X = np.linspace(-40.0, 40.0, 501)
        w = fock_mdf(200, *driven_state(1.0), X, 1.0, 0.4)
        assert np.all(np.isfinite(w))
        assert np.all(w >= 0.0)


class TestCrossMdf:
    def test_diagonal_is_fock(self):
        state = driven_state(1.4)
        for n in (0, 2, 7):
            val = cross_mdf(n, n, *state, 0.6, 0.5, 1.1)
            assert abs(np.imag(val)) < 1e-16
            assert np.real(val) == pytest.approx(fock_mdf(n, *state, 0.6, 0.5, 1.1), abs=1e-15)

    def test_hermitian_in_indices(self):
        state = driven_state(2.6)
        for n, m in ((0, 1), (2, 5), (3, 1)):
            assert cross_mdf(n, m, *state, 0.4, 0.7, 0.9) == pytest.approx(
                np.conj(cross_mdf(m, n, *state, 0.4, 0.7, 0.9)), abs=1e-16
            )

    def test_modulus_ignores_frame_phase(self):
        eps, eps_dot, beta = driven_state(1.2)
        fk_r = eps_dot * 0.8 + eps * 0.6
        val = cross_mdf(1, 4, eps, eps_dot, beta, 0.3, 0.6, 0.8)
        y = (2.0 * (np.conj(beta) * fk_r).real + SQRT2 * 0.3) / (SQRT2 * abs(fk_r))
        expected = abs(hermite_gauss(1, y) * hermite_gauss(4, y)) / abs(fk_r)
        assert abs(val) == pytest.approx(expected, abs=1e-15)

    def test_series_resums_to_coherent(self):
        alpha = 0.5 * cmath.exp(0.4j)
        eps, eps_dot, beta = driven_state(1.2)
        X = np.linspace(-5.0, 5.0, 21)
        series = np.zeros_like(X, dtype=complex)
        for n in range(13):
            for m in range(13):
                coeff = alpha**n * np.conj(alpha) ** m / math.sqrt(
                    math.factorial(n) * math.factorial(m)
                )
                series += coeff * cross_mdf(n, m, eps, eps_dot, beta, X, 0.6, 0.8)
        series *= math.exp(-abs(alpha) ** 2)
        target = coherent_mdf(alpha, eps, eps_dot, beta, X, 0.6, 0.8)
        assert np.max(np.abs(series - target)) <= 1e-6


class TestCoherentWavefunction:
    def test_initial_vacuum(self):
        x = np.linspace(-3.0, 3.0, 7)
        expected = math.pi**-0.25 * np.exp(-0.5 * x * x)
        np.testing.assert_allclose(coherent_wavefunction(0.0, *VACUUM, x), expected, atol=1e-15)

    def test_normalised(self):
        x = np.linspace(-12.0, 12.0, 4001)
        for t, alpha in ((0.0, 0.7 + 0.3j), (1.3, 0.2 - 0.5j)):
            psi = coherent_wavefunction(alpha, *driven_state(t), x)
            assert abs(np.trapezoid(np.abs(psi) ** 2, x) - 1.0) < 1e-8

    def test_position_density_matches_unit_frame_tomogram(self):
        # |psi(x)|^2 is the tomogram at frame (mu, nu) = (1, 0)
        x = np.linspace(-3.0, 3.0, 11)
        alpha = 0.5 - 0.1j
        state = driven_state(0.9)
        psi = coherent_wavefunction(alpha, *state, x)
        np.testing.assert_allclose(
            np.abs(psi) ** 2, coherent_mdf(alpha, *state, x, 1.0, 0.0), atol=1e-14
        )

    def test_degenerate_eps(self):
        with pytest.raises(DegenerateFrameError):
            coherent_wavefunction(0.1, 0.0, 1.0j, 0.0, 0.5)


@st.composite
def closed_form_cases(draw):
    """A flow state (eps, eps_dot, beta) of a constant (omega_sq < 0
    included), resonance or forced profile at t in [0, 10], a frame with
    |r| >= 0.05 and a coherent amplitude with |alpha| <= 1.5."""
    kind = draw(st.sampled_from(["constant", "resonance", "forced"]))
    if kind == "constant":
        w2 = draw(st.floats(-1.0, 4.0))
        profile = DriveProfile.custom(lambda t: w2)
    elif kind == "resonance":
        profile = DriveProfile.parametric_resonance(draw(st.floats(-0.49, 0.49)))
    else:
        w2, c, wf = draw(st.floats(0.2, 3.0)), draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 3.0))
        profile = DriveProfile.custom(lambda t: w2, lambda t: c * np.cos(wf * t))
    t = draw(st.floats(0.0, 10.0))
    state = flow_at(profile, t, min(1e-3, t) or 1e-3)  # the solver needs step <= t
    mu, nu = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    assume(abs(state[1] * nu + state[0] * mu) >= 0.05)
    alpha = cmath.rect(draw(st.floats(0.0, 1.5)), draw(st.floats(-math.pi, math.pi)))
    return state, mu, nu, alpha


class TestClosedFormProperties:
    """Structural identities of the closed forms over random flows and frames."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=closed_form_cases())
    def test_coherent_normalised_with_closed_form_moments(self, case):
        state, mu, nu, alpha = case
        mean, var = mean_X(alpha, *state, mu, nu), variance_X(*state[:2], mu, nu)
        sigma = math.sqrt(var)
        X = mean + sigma * np.linspace(-12.0, 12.0, 2001)
        w = coherent_mdf(alpha, *state, X, mu, nu)
        assert np.all(w >= 0.0)
        assert np.trapezoid(w, X) == pytest.approx(1.0, abs=1e-9)
        assert abs(np.trapezoid(X * w, X) - mean) <= 1e-9 * (sigma + abs(mean))
        assert np.trapezoid((X - mean) ** 2 * w, X) == pytest.approx(var, rel=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=closed_form_cases(), n=st.integers(0, 10))
    def test_fock_normalised(self, case, n):
        (eps, eps_dot, beta), mu, nu, _ = case
        r = eps_dot * nu + eps * mu
        # X at Hermite arguments Y in [-12, 12]
        X = abs(r) * np.linspace(-12.0, 12.0, 2001) - SQRT2 * (beta.conjugate() * r).real
        w = fock_mdf(n, eps, eps_dot, beta, X, mu, nu)
        assert np.all(w >= 0.0)
        assert np.trapezoid(w, X) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=closed_form_cases(), n=st.integers(0, 10), m=st.integers(0, 10))
    def test_cross_hermitian(self, case, n, m):
        state, mu, nu, _ = case
        X = np.linspace(-5.0, 5.0, 11)
        w_nm, w_mn = cross_mdf(n, m, *state, X, mu, nu), cross_mdf(m, n, *state, X, mu, nu)
        assert np.array_equal(w_nm, np.conj(w_mn))


class TestClosedFormsUnderProfiles:
    """Coherent and Fock tomograms at the flow of a non-constant profile
    (flow_at's eps, eps_dot and beta) are normalised densities, and match
    the classical propagator's pushforward of their t = 0 form.

    The two routes evaluate one closed form at two frames: r directly, and
    the frame map's (Re r, Im r) / det Lambda, whose Lambda^{-1} divides by
    det Lambda, the solved flow's Wronskian, which is 1 only up to the
    integrator's drift.  They also round r differently, an error that the
    cancellation in eps_dot nu + eps mu amplifies by kappa =
    (|eps| + |eps_dot|) / |r|, and the mean, shifted by alpha and beta, carries
    it in proportion to 1 + |alpha| + |beta|.  So they agree within
    C (u kappa + |det Lambda - 1|) (1 + |alpha| + |beta|) of the peak, u the
    double epsilon; C = 100 covers the tomograms' slope over Y in [-12, 12]
    for n <= 5 (the largest seen over 3000 random cases is 14).
    """

    @staticmethod
    def routes(profile, t, mu, nu, tomogram, shift):
        """The tomogram at the flow, on X spanning +-12 |r| about its mean,
        beside the evolved t = 0 form and the bound they agree within."""
        flow = eps, eps_dot, beta = flow_at(profile, t)
        r = eps_dot * nu + eps * mu
        X = SQRT2 * ((shift - beta) * r.conjugate()).real + abs(r) * np.linspace(-12.0, 12.0, 2001)
        w = tomogram(*flow, X, mu, nu)
        prop = ClassicalPropagator.from_profile(profile, t)
        evolved = prop.evolve(lambda *point: tomogram(*VACUUM, *point), X, mu, nu)
        drift = abs(prop.inv.det - 1.0)
        kappa = (abs(eps) + abs(eps_dot)) / abs(r)
        bound = 100.0 * (np.finfo(float).eps * kappa + drift) * (1.0 + abs(shift) + abs(beta)) * np.max(w)
        return X, w, evolved, bound

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=classical_profiles(), t=st.floats(0.0, 8.0), theta=st.floats(-math.pi, math.pi),
           alpha=st.complex_numbers(max_magnitude=3.0))
    def test_coherent(self, case, t, theta, alpha):
        mu, nu = math.cos(theta), math.sin(theta)
        X, w, evolved, bound = self.routes(
            case[0], t, mu, nu, lambda *args: coherent_mdf(alpha, *args), alpha)
        assert np.all(w >= 0.0)
        assert np.trapezoid(w, X) == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(w - evolved)) <= bound

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=classical_profiles(), t=st.floats(0.0, 8.0), theta=st.floats(-math.pi, math.pi),
           n=st.integers(0, 5))
    def test_fock(self, case, t, theta, n):
        mu, nu = math.cos(theta), math.sin(theta)
        X, w, evolved, bound = self.routes(case[0], t, mu, nu, lambda *args: fock_mdf(n, *args), 0.0)
        assert np.all(w >= 0.0)
        assert np.trapezoid(w, X) == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(w - evolved)) <= bound


class TestLadderGuards:
    WK = staticmethod(lambda y, z: complex(coherent_mdf_fourier(1.0, 0.3, *VACUUM, y, z)))

    @pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -1e-3])
    def test_step_must_be_finite_and_positive(self, h):
        with pytest.raises(ValueError, match="h must be finite and positive"):
            fourier_ladder_apply(self.WK, 1.0, 1.0j, 0.3, 0.4, h)
        with pytest.raises(ValueError, match="h must be finite and positive"):
            annihilation_eigencheck(0.3, *VACUUM, 0.6, 0.8, 1.0, h)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 0.0])
    def test_scale_must_be_finite_and_nonzero(self, k):
        with pytest.raises(ValueError, match="k must be finite and nonzero"):
            annihilation_eigencheck(0.3, *VACUUM, 0.6, 0.8, k, 1e-3)


class TestCoherentLabels:
    """A non-finite alpha, eps, eps_dot, beta, mu or nu raises ValueError
    naming it, with no RuntimeWarning, in every closed form that takes it,
    and so does the frame (0, 0): the closed forms follow the package's
    flow and frame rules."""

    CALLS = {
        "coherent_mdf": lambda a, e, ed, b, mu, nu: coherent_mdf(a, e, ed, b, 0.3, mu, nu),
        "mean_X": lambda a, e, ed, b, mu, nu: mean_X(a, e, ed, b, mu, nu),
        "coherent_mdf_fourier": lambda a, e, ed, b, mu, nu: coherent_mdf_fourier(0.5, a, e, ed, b, mu, nu),
        "annihilation_eigencheck": lambda a, e, ed, b, mu, nu: annihilation_eigencheck(a, e, ed, b, mu, nu, 1.0, 1e-3),
        "coherent_wavefunction": lambda a, e, ed, b, mu, nu: coherent_wavefunction(a, e, ed, b, 0.3),
        "fock_mdf": lambda a, e, ed, b, mu, nu: fock_mdf(2, e, ed, b, 0.3, mu, nu),
        "cross_mdf": lambda a, e, ed, b, mu, nu: cross_mdf(1, 2, e, ed, b, 0.3, mu, nu),
        "variance_X": lambda a, e, ed, b, mu, nu: variance_X(e, ed, mu, nu),
    }
    COHERENT = sorted(set(CALLS) - {"fock_mdf", "cross_mdf", "variance_X"})  # the calls taking alpha
    TOMOGRAMS = sorted(set(CALLS) - {"coherent_wavefunction"})  # the calls taking a frame

    @staticmethod
    def raises(call, pattern, **changed):
        args = dict(alpha=0.3 - 0.2j, eps=1.0, eps_dot=1.0j, beta=0.0, mu=0.6, nu=0.8) | changed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=pattern):
                call(*args.values())

    @classmethod
    def raises_naming(cls, call, label, value):
        cls.raises(call, f"^{label} must be finite", **{label: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.5, -math.inf)])
    @pytest.mark.parametrize("label", ["alpha", "beta"])
    @pytest.mark.parametrize("name", COHERENT)
    def test_non_finite_label_named(self, name, label, value):
        self.raises_naming(self.CALLS[name], label, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(math.nan, 1.0)])
    @pytest.mark.parametrize("label", ["eps", "eps_dot"])
    def test_wavefunction_needs_a_finite_flow(self, label, value):
        self.raises_naming(self.CALLS["coherent_wavefunction"], label, value)

    @pytest.mark.parametrize("value", [math.nan, -math.inf, complex(0.5, math.nan)])
    @pytest.mark.parametrize("label", ["eps", "eps_dot"])
    @pytest.mark.parametrize("name", TOMOGRAMS)
    def test_tomograms_need_a_finite_flow(self, name, label, value):
        self.raises_naming(self.CALLS[name], label, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["fock_mdf", "cross_mdf"])
    def test_fock_forms_need_a_finite_shift(self, name, value):
        self.raises_naming(self.CALLS[name], "beta", value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("label", ["mu", "nu"])
    @pytest.mark.parametrize("name", TOMOGRAMS)
    def test_non_finite_frame_named(self, name, label, value):
        self.raises(self.CALLS[name], f"^{label} must be finite, got {value}$", **{label: value})

    @pytest.mark.parametrize("name", TOMOGRAMS)
    def test_zero_frame_is_the_frame_rule(self, name):
        self.raises(self.CALLS[name], r"^frame \(mu, nu\) = \(0, 0\) is not a valid", mu=0.0, nu=0.0)

    @pytest.mark.parametrize("name", ["coherent_mdf", "mean_X", "variance_X", "fock_mdf", "cross_mdf"])
    def test_array_frames_name_the_first_bad_entry(self, name):
        mu = np.array([[0.6, 0.6, math.inf], [0.6, math.nan, 0.6]])
        self.raises(self.CALLS[name], r"^mu must be finite, got inf$", mu=mu, nu=np.full(3, 0.8))
        self.raises(self.CALLS[name], r"\(0, 0\)", mu=np.array([[1.0], [0.0]]), nu=np.array([0.5, 0.0]))

    def test_array_flow_names_its_first_bad_entry(self):
        # figure_table's call: eps and eps_dot columns broadcast against the x row
        eps = np.array([1.0, complex(math.inf, 0.0), complex(math.nan, 1.0)])[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^eps must be finite, got \(inf\+0j\)$"):
                fock_mdf(2, eps, 1.0j, 0.0, np.linspace(-1.0, 1.0, 5), 0.6, 0.8)


class TestFrameRule:
    """The one zero-frame rule, shared by the CLI, the transforms, the
    propagator and the closed-form tomograms."""

    def test_arrays_with_one_zero_frame_raise(self):
        from osctomo.states import _check_frame

        _check_frame(np.array([1.0, 0.0]), np.array([0.0, 0.5]))
        for mu, nu in ((np.array([1.0, 0.0]), np.array([0.5, 0.0])), (np.zeros((2, 1)), np.array([0.0, 1.0]))):
            with pytest.raises(ValueError, match=r"\(0, 0\)"):
                _check_frame(mu, nu)

    def test_tiny_frames_follow_the_scalar_rule(self):
        from osctomo.states import _check_frame

        for mu in (1e-170, -1e-163):  # mu^2 underflows to 0
            with pytest.raises(ValueError, match=r"\(0, 0\)"):
                _check_frame(mu, 0.0)
            with pytest.raises(ValueError, match=r"\(0, 0\)"):
                _check_frame(np.array([1.0, mu]), np.array([0.0, 0.0]))
        _check_frame(1e-160, 0.0)
        _check_frame(np.array([1e-160]), np.array([0.0]))

    def test_huge_frames_pass(self):
        from osctomo.states import _check_frame

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _check_frame(1e200, 1e300)  # float squares overflow to inf silently
            with np.errstate(over="ignore"):
                _check_frame(np.array([1e200, 0.0]), np.array([0.0, -1e300]))


class TestPointRule:
    """One rule for a tomographic point (X, mu, nu), shared by frame_map and
    the two tomogram transforms."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1, 2], ids=["X", "mu", "nu"])
    def test_float_and_array_name_the_same_point(self, slot, value):
        from osctomo.states import _check_point

        args = [np.linspace(-1.0, 1.0, 6), np.full(6, 0.6), np.full(6, 0.8)]
        args[slot][4] = value
        point = [float(a[4]) for a in args]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as scalar:
                _check_point(*point)
            with pytest.raises(ValueError) as array:
                _check_point(*args)
        assert str(scalar.value) == str(array.value) == (
            f"(X, mu, nu) = ({point[0]}, {point[1]}, {point[2]}) must be finite"
        )

    def test_first_bad_point_of_the_broadcast_in_c_order(self):
        from osctomo.states import _check_point

        X, nu = np.array([[0.5, math.nan, 1.5]]), np.array([[0.8], [math.inf]])
        with pytest.raises(ValueError, match=r"^\(X, mu, nu\) = \(nan, 1.0, 0.8\) must be finite$"):
            _check_point(X, 1.0, nu)
        X[0, 1] = 1.0
        with pytest.raises(ValueError, match=r"^\(X, mu, nu\) = \(0.5, 1.0, inf\) must be finite$"):
            _check_point(X, 1.0, nu)

    def test_numpy_scalars_and_ints_follow_the_float_rule(self):
        from osctomo.states import _check_point

        _check_point(np.float64(0.3), 1, np.array(0.5))
        with pytest.raises(ValueError, match=r"^\(X, mu, nu\) = \(0.0, nan, 1.0\) must be finite$"):
            _check_point(0, np.float64(math.nan), 1)

    def test_zero_frame_after_finite_coordinates(self):
        from osctomo.states import _check_point

        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            _check_point(0.3, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            _check_point(np.zeros(3), np.array([1.0, 0.0, 1.0]), 0.0)
        with pytest.raises(ValueError, match="finite"):  # a bad coordinate is named first
            _check_point(math.nan, 0.0, 0.0)


class TestHugeInts:
    """The point and flow rules read a Python int by the number rule, whose
    entry points test_dynamics.TestNumberRule runs: 10**200 maps and
    overflows as 1e200, and an int past the double range is named."""

    AXIS = np.linspace(-6.0, 6.0, 61)
    PROPAGATOR = ClassicalPropagator.from_epsilon(1, 1j, 0)
    WIGNER = WignerGrid(6.0, 2.0 * np.exp(-np.add.outer(AXIS**2, AXIS**2)))

    def test_an_int_maps_and_overflows_as_its_float(self):
        assert self.PROPAGATOR.frame_map(0.3, 10**200, 0.5) == (0.3, 1e200, 0.5)
        with pytest.raises(ValueError, match=r"mu\^2 \+ nu\^2 overflows"):
            mdf_from_wigner(self.WIGNER, 0, 10**200, 10**200)

    def test_an_int_past_the_double_range_names_its_argument(self):
        from osctomo.states import _check_point, _finite

        for slot, name in enumerate(("X", "mu", "nu")):
            point = [0.3, 0.6, 0.8]
            point[slot] = -(10**400)
            with pytest.raises(ValueError, match=f"^{name} must be finite, got an int past"):
                _check_point(*point)
        with pytest.raises(ValueError, match="^beta must be finite, got an int past"):
            _finite(alpha=0.3, beta=10**309)
        assert _check_point(1, 10**200, True) == (1.0, 1e200, 1.0)

    @pytest.mark.parametrize("container", [list, tuple])
    @pytest.mark.parametrize("name", ["X", "mu", "nu"])
    def test_a_listed_int_past_the_double_range_names_its_argument(self, name, container):
        # numpy keeps an int past the int64 range as an object, which float() overflows
        point = {"X": 0.3, "mu": 0.6, "nu": 0.5, name: container([0.2, -(10**400)])}
        for call in (lambda **p: coherent_mdf(0.3, 1, 1j, 0, **p), self.PROPAGATOR.frame_map):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got an int past the double range$"):
                call(**point)

    @pytest.mark.parametrize("name", ["X", "mu", "nu"])
    def test_a_listed_int_past_the_int64_range_reads_as_its_float(self, name):
        listed = {"X": 0.3, "mu": 0.6, "nu": 0.5, name: [2**70, 0.4]}
        floats = {**listed, name: np.array([float(2**70), 0.4])}
        assert np.array_equal(coherent_mdf(0.3, 1, 1j, 0, **listed), coherent_mdf(0.3, 1, 1j, 0, **floats))
        assert all(map(np.array_equal, self.PROPAGATOR.frame_map(**listed), self.PROPAGATOR.frame_map(**floats)))


# each closed form, the Fourier form and hermite_gauss, as a call on
# (n, m, alpha, eps, eps_dot, beta, X, mu, nu); the Fourier form reads the X slot as its k
CLOSED_FORMS = {
    "coherent_mdf": lambda n, m, a, e, ed, b, X, mu, nu: coherent_mdf(a, e, ed, b, X, mu, nu),
    "mean_X": lambda n, m, a, e, ed, b, X, mu, nu: mean_X(a, e, ed, b, mu, nu),
    "variance_X": lambda n, m, a, e, ed, b, X, mu, nu: variance_X(e, ed, mu, nu),
    "fock_mdf": lambda n, m, a, e, ed, b, X, mu, nu: fock_mdf(n, e, ed, b, X, mu, nu),
    "cross_mdf": lambda n, m, a, e, ed, b, X, mu, nu: cross_mdf(n, m, e, ed, b, X, mu, nu),
    "coherent_mdf_fourier": lambda n, m, a, e, ed, b, X, mu, nu: coherent_mdf_fourier(X, a, e, ed, b, mu, nu),
    "hermite_gauss": lambda n, m, a, e, ed, b, X, mu, nu: hermite_gauss(n, X),
}
SLOTS = ("alpha", "eps", "eps_dot", "beta", "X", "mu", "nu")
READS = {  # the slots each call reads
    "coherent_mdf": set(SLOTS), "mean_X": set(SLOTS) - {"X"}, "variance_X": {"eps", "eps_dot", "mu", "nu"},
    "fock_mdf": set(SLOTS) - {"alpha"}, "cross_mdf": set(SLOTS) - {"alpha"},
    "coherent_mdf_fourier": set(SLOTS), "hermite_gauss": {"X"},
}
BAD_VALUES = {"nan": math.nan, "-inf": -math.inf, "10**400": 10**400}
# a fault sets some slots of the drawn point: name -> {slot: value}
FAULTS = {
    "none": {},
    "zero frame": {"mu": 0.0, "nu": 0.0},
    "vanishing r": {"eps": 1.0, "eps_dot": -1.0, "mu": 0.5, "nu": 0.5},
    "overflowing <X>": {"alpha": 1.5e308, "beta": 0.0, "eps": 1.0, "eps_dot": 1j, "mu": 1.0, "nu": 0.25},
    **{f"{label} {slot}": {slot: value} for label, value in BAD_VALUES.items() for slot in SLOTS},
}
finite_reals = st.one_of(st.floats(-3.0, 3.0), st.floats(allow_nan=False, allow_infinity=False), st.integers(-3, 3))
finite_numbers = st.one_of(finite_reals, st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                           st.builds(complex, finite_reals, finite_reals))
# the array shapes a layout gives the slots it names: the sample coordinates as 0-d, 1-element and
# 19-element arrays (two 8-lane float64 vectors and a remainder), frames as columns against a row
# of X, and the flow as columns, as figure_table passes eps[:, None]
LAYOUTS = {
    "0-d": dict.fromkeys(("X", "mu", "nu"), ()),
    "1-element": dict.fromkeys(("X", "mu", "nu"), (1,)),
    "n-element": dict.fromkeys(("X", "mu", "nu"), (19,)),
    "frame columns": {"X": (1, 19), "mu": (3, 1), "nu": (3, 1)},
    "flow columns": {**dict.fromkeys(("alpha", "eps", "eps_dot", "beta"), (3, 1)), "X": (19,)},
}
# a point where numpy's complex products rounded apart in an array loop and on a 0-d array
ROUNDED_APART = (-1.0, -1.9525400179814811, -1 + 1j, 2 + 1j, 0.0, 1.0, 1.0)


def must_raise(name, fault) -> bool:
    """Whether the fault alone makes the call raise: X is not checked, so
    only an int past the double range there raises."""
    if fault == "none":
        return False
    if fault in ("zero frame", "vanishing r"):
        return name != "hermite_gauss"
    if fault == "overflowing <X>":  # the Fock forms read alpha = 0 and this beta = 0: no mean
        return name in ("coherent_mdf", "mean_X", "coherent_mdf_fourier")
    label, slot = fault.split(" ")
    return slot in READS[name] and (slot != "X" or label == "10**400")


def laid_out(args, shapes):
    """The point's arguments in SLOTS order, each slot that shapes names as
    an array of its shape filled with its value, but an int no double holds."""
    return [np.full(shapes[slot], v) if slot in shapes and v != 10**400 else v for slot, v in zip(SLOTS, args)]


def float_outcome(call, *args):
    """("ok", type, dtype, the set of its entries' bytes) of call(*args), or
    ("error", type, message) of the error it raises, with the warnings it
    lets escape."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = np.asarray(got := call(*args))
            got = "ok", type(got), value.dtype.str, {value[i].tobytes() for i in np.ndindex(value.shape)}
        except Exception as exc:  # the error itself is the outcome compared
            got = "error", type(exc), str(exc)
    return got, [str(w.message) for w in caught]


class TestFloatPath:
    """Every shape gives the same bits: a closed form, the Fourier form or
    hermite_gauss called on Python numbers gives the value, type, bits,
    warnings and error of the same point as a 0-d array, and every entry of
    a 1-element or n-element array, or of frame or flow columns, has the
    float call's bits, warnings and error.  The kernel computes in real
    float64 operations, which round alike in numpy's array loops and on
    Python floats; hermite_gauss keeps its own float recurrence."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(CLOSED_FORMS)), fault=st.sampled_from(sorted(FAULTS)),
           values=st.tuples(*[finite_numbers] * 4, *[finite_reals] * 3),
           n=st.integers(0, 12), m=st.integers(0, 12))
    @example(name="coherent_mdf", fault="none", values=ROUNDED_APART, n=0, m=0)
    def test_every_layout_gives_the_float_call_bits(self, name, fault, values, n, m):
        call = CLOSED_FORMS[name]
        point = {**dict(zip(SLOTS, values)), **FAULTS[fault]}
        args = [point[slot] for slot in SLOTS]
        got = float_outcome(call, n, m, *args)
        for layout, shapes in LAYOUTS.items():
            laid = float_outcome(call, n, m, *laid_out(args, shapes))
            if layout == "0-d" or got[0][0] == "error":
                assert laid == got, layout
            else:
                assert laid == (("ok", np.ndarray, *got[0][2:]), got[1]), layout
        if must_raise(name, fault):
            assert got[0][0] == "error"

    def test_a_point_complex_products_rounded_apart(self):
        want = "0x1.2645c770ee958p-21"
        assert float.hex(float(coherent_mdf(*ROUNDED_APART))) == want
        for layout, shapes in LAYOUTS.items():
            got = coherent_mdf(*laid_out(ROUNDED_APART, shapes))
            assert {float.hex(float(v)) for v in np.ravel(got)} == {want}, layout

    @pytest.mark.parametrize("name", sorted(set(CLOSED_FORMS) - {"hermite_gauss"}))
    def test_random_points_as_one_array(self, name):
        # 4000 points, flow and sample coordinates alike, as one array call and as float calls
        rng = np.random.default_rng(31)
        flow = rng.normal(size=(4, 4000, 2)) @ np.array([1.0, 1j])
        X, mu, nu = rng.normal(scale=2.0, size=(3, 4000))
        arrays = CLOSED_FORMS[name](3, 5, *flow, X, mu, nu)
        floats = [CLOSED_FORMS[name](3, 5, *map(complex, flow[:, i]), *map(float, (X[i], mu[i], nu[i])))
                  for i in range(4000)]
        assert np.asarray(floats).tobytes() == arrays.tobytes()

    def test_python_numbers_skip_the_array_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(np, "asarray", lambda *a, **k: calls.append(a))
        for name, form in CLOSED_FORMS.items():
            if name != "coherent_mdf_fourier":  # which reads k as an array
                form(3, 2, 0.5 + 0.1j, 1, 1j, 0.2, 0.3, 0.6, 0.8)
        assert calls == []
