import gc
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from helpers import SQRT2, driven_state, wigner_from_density_function
from osctomo import (
    ConsistencyError,
    DensityGrid,
    FrameUnsupportedError,
    OutOfSupportWarning,
    QuadratureConvergenceError,
    QuadratureSpec,
    WignerGrid,
    coherent_mdf,
    coherent_wavefunction,
    hermite_gauss,
    density_from_mdf,
    density_grid_from_mdf,
    mdf_from_density,
    mdf_from_wigner,
    mean_X,
    variance_X,
)

VACUUM = (1.0, 1.0j, 0.0)


def vacuum_w(Y, mu, nu):
    return coherent_mdf(0.0, *VACUUM, Y, mu, nu)


def gaussian_window(state, alpha=0.0):
    """Y-window callable tracking the tomogram mass frame by frame."""

    def window(mu, nu):
        centre = mean_X(alpha, *state, mu, nu)
        sigma = np.sqrt(variance_X(state[0], state[1], mu, nu))
        return centre - 10.0 * sigma, centre + 10.0 * sigma

    return window


def vacuum_quad(mu_count=160, y_count=501):
    return QuadratureSpec(
        mu_max=12.0, mu_count=mu_count, y_window=gaussian_window(VACUUM), y_count=y_count
    )


@pytest.fixture(scope="module")
def vacuum_density():
    return DensityGrid.from_wavefunction(
        lambda x: coherent_wavefunction(0.0, *VACUUM, x), 8.0, 321
    )


class TestGrids:
    def test_values_read_only(self):
        raw = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        grid = DensityGrid(1.0, raw)
        with pytest.raises(ValueError):
            grid.values[0, 0] = 1
        raw[1, 1] = 0.5  # the caller's own array stays writable
        q = np.linspace(-6.0, 6.0, 201)
        wigner = WignerGrid(6.0, 2.0 * np.exp(-np.add.outer(q * q, q * q)))
        with pytest.raises(ValueError):
            wigner.values[0, 0] = 1

    def test_density_validation(self):
        with pytest.raises(ConsistencyError):
            DensityGrid(3.0, np.array([[1.0, 0.5j], [0.4j, 0.2]]))  # not Hermitian
        z = np.linspace(-6.0, 6.0, 101)
        unnormalised = np.exp(-np.add.outer(z * z, z * z) / 2.0)
        with pytest.raises(ConsistencyError):
            DensityGrid(6.0, unnormalised)  # trace far from 1

    def test_density_save_load_roundtrip(self, vacuum_density, tmp_path):
        path = tmp_path / "rho.txt"
        vacuum_density.save(path)
        loaded = DensityGrid.load(path)
        assert loaded.extent == vacuum_density.extent
        np.testing.assert_array_equal(loaded.values, vacuum_density.values)
        header = path.read_text().splitlines()[0]
        assert header.startswith("# L=") and "n=321" in header

    def test_wigner_validation_and_roundtrip(self, tmp_path):
        q = np.linspace(-6.0, 6.0, 201)
        vacuum = 2.0 * np.exp(-np.add.outer(q * q, q * q))
        grid = WignerGrid(6.0, vacuum)
        assert abs(grid.normalisation() - 1.0) < 1e-4
        path = tmp_path / "wigner.txt"
        grid.save(path)
        loaded = WignerGrid.load(path)
        np.testing.assert_array_equal(loaded.values, grid.values)
        with pytest.raises(ConsistencyError):
            WignerGrid(6.0, 0.5 * vacuum)

    def test_save_format_golden(self, tmp_path):
        # round trips cannot see a format change that hits save and load alike
        rho = DensityGrid(1.0, np.array([[0.25, 0.125 + 0.5j], [0.125 - 0.5j, 0.75]]))
        rho.save(tmp_path / "rho.txt")
        assert (tmp_path / "rho.txt").read_text() == (
            "# L=1 n=2\n0.25 0 0.125 0.5\n0.125 -0.5 0.75 0\n"
        )
        q = math.pi / 2.0
        WignerGrid(1.0, np.array([[q + 0.1, q - 0.1], [q, q]])).save(tmp_path / "w.txt")
        assert (tmp_path / "w.txt").read_text() == (
            "# L=1 n=2\n1.6707963267948966 1.4707963267948965\n"
            "1.5707963267948966 1.5707963267948966\n"
        )


class TestMdfFromDensity:
    def test_vacuum_matches_closed_form(self, vacuum_density):
        for X in np.linspace(-4.0, 4.0, 9):
            for mu, nu in ((0.0, 1.0), (1 / SQRT2, 1 / SQRT2), (0.3, 0.95)):
                val = mdf_from_density(vacuum_density, X, mu, nu)
                assert val == pytest.approx(vacuum_w(X, mu, nu), abs=1e-4)

    def test_driven_coherent_matches_closed_form(self):
        alpha = 0.7 + 0.3j
        state = driven_state(1.0)
        rho = DensityGrid.from_wavefunction(
            lambda x: coherent_wavefunction(alpha, *state, x), 9.0, 361
        )
        for X in np.linspace(-5.0, 5.0, 11):
            for mu, nu in ((0.0, 1.0), (1 / SQRT2, 1 / SQRT2)):
                val = mdf_from_density(rho, X, mu, nu)
                assert val == pytest.approx(
                    coherent_mdf(alpha, *state, X, mu, nu), abs=1e-4
                )

    def test_normalised_in_x(self, vacuum_density):
        X = np.linspace(-8.0, 8.0, 161)
        vals = np.array([mdf_from_density(vacuum_density, x, 0.6, 0.8) for x in X])
        assert abs(np.trapezoid(vals, X) - 1.0) < 1e-4

    def test_nu_zero_rejected(self, vacuum_density):
        with pytest.raises(FrameUnsupportedError):
            mdf_from_density(vacuum_density, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("state", ["vacuum", "coherent", "fock"])
    def test_rank_one_matches_double_trapezoid(self, state):
        psi = {
            "vacuum": lambda x: coherent_wavefunction(0.0, *VACUUM, x),
            "coherent": lambda x: coherent_wavefunction(0.7 + 0.3j, *driven_state(1.3), x),
            "fock": lambda x: hermite_gauss(3, x),
        }[state]
        rho = DensityGrid.from_wavefunction(psi, 8.0, 241)
        rng = np.random.default_rng(7)
        for _ in range(20):
            angle = rng.uniform(0.2, math.pi - 0.2)
            scale = rng.uniform(0.5, 2.0)
            X, mu, nu = rng.uniform(-4.0, 4.0), scale * math.cos(angle), scale * math.sin(angle)
            assert abs(mdf_from_density(rho, X, mu, nu) - double_trapezoid_mdf(rho, X, mu, nu)) <= 1e-13


def double_trapezoid_mdf(rho, X, mu, nu):
    """The n x n kernel form that the rank-one evaluation must reproduce."""
    z = rho.axis
    Z, Zp = z[:, None], z[None, :]
    kernel = np.exp(-1j * (Z - Zp) * (X - mu * (Z + Zp) / 2.0) / nu)
    inner = np.trapezoid(rho.values * kernel, dx=rho.spacing, axis=1)
    return (complex(np.trapezoid(inner, dx=rho.spacing)) / (2.0 * np.pi * abs(nu))).real


class TestDensityFromMdf:
    def test_vacuum_origin_value(self):
        # |psi_0(0)|^2 = pi^(-1/2)
        val = density_from_mdf(vacuum_w, 0.0, 0.0, vacuum_quad())
        assert val.real == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-3)

    def test_hermiticity_and_real_diagonal(self):
        quad = vacuum_quad()
        a = density_from_mdf(vacuum_w, 0.5, -0.3, quad)
        b = density_from_mdf(vacuum_w, -0.3, 0.5, quad)
        assert a == pytest.approx(np.conj(b), abs=1e-10)
        assert abs(density_from_mdf(vacuum_w, 0.7, 0.7, quad).imag) < 1e-6

    def test_convergence_diagnostic(self):
        val = density_from_mdf(vacuum_w, 0.0, 0.0, vacuum_quad(), check_convergence=True)
        assert val.real == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-3)
        starved = QuadratureSpec(mu_max=12.0, mu_count=160, y_window=(-40.0, 40.0), y_count=9)
        with pytest.raises(QuadratureConvergenceError):
            density_from_mdf(vacuum_w, 0.0, 0.0, starved, check_convergence=True)

    def test_doubling_changes_little(self):
        quad = vacuum_quad()
        a = density_from_mdf(vacuum_w, 0.4, -0.2, quad)
        b = density_from_mdf(vacuum_w, 0.4, -0.2, quad.refined())
        assert abs(a - b) < 5e-4  # half the 1e-3 reconstruction tolerance

    def test_grid_builder_matches_pointwise(self):
        quad = vacuum_quad()
        grid = density_grid_from_mdf(vacuum_w, 5.0, 81, quad)
        z = grid.axis
        for i, j in ((40, 40), (52, 30), (20, 46)):
            direct = density_from_mdf(vacuum_w, z[i], z[j], quad)
            assert grid.values[i, j] == pytest.approx(direct, abs=1e-14)


class TestRoundTrip:
    def test_vacuum_round_trip(self):
        grid = density_grid_from_mdf(vacuum_w, 6.0, 161, vacuum_quad())
        worst = 0.0
        for X in np.linspace(-4.0, 4.0, 41):
            for mu, nu in ((0.0, 1.0), (1 / SQRT2, 1 / SQRT2)):
                worst = max(worst, abs(mdf_from_density(grid, X, mu, nu) - vacuum_w(X, mu, nu)))
        assert worst <= 1e-3

    def test_driven_coherent_round_trip(self):
        alpha = 0.7 + 0.3j
        state = driven_state(1.0)
        w = lambda Y, mu, nu: coherent_mdf(alpha, *state, Y, mu, nu)

        def window(mu, nu):
            centre = mean_X(alpha, *state, mu, nu)
            sigma = np.sqrt(variance_X(state[0], state[1], mu, nu))
            return centre - 10.0 * sigma, centre + 10.0 * sigma

        quad = QuadratureSpec(mu_max=12.0, mu_count=160, y_window=window, y_count=501)
        grid = density_grid_from_mdf(w, 7.5, 181, quad)
        worst = 0.0
        for X in np.linspace(-4.0, 4.0, 41):
            for mu, nu in ((0.0, 1.0), (0.6, 0.8)):
                worst = max(worst, abs(mdf_from_density(grid, X, mu, nu) - w(X, mu, nu)))
        assert worst <= 1e-3


@pytest.fixture(scope="module")
def vacuum_wigner():
    q = np.linspace(-6.0, 6.0, 401)
    return WignerGrid(6.0, 2.0 * np.exp(-np.add.outer(q * q, q * q)))


class TestMdfFromWigner:
    def test_vacuum_projection(self, vacuum_wigner):
        for X in np.linspace(-3.0, 3.0, 13):
            for mu, nu in ((1.0, 0.0), (0.0, 1.0), (1 / SQRT2, 1 / SQRT2), (0.6, -0.8)):
                val = mdf_from_wigner(vacuum_wigner, X, mu, nu)
                assert val == pytest.approx(math.exp(-X * X) / math.sqrt(math.pi), abs=1e-4)

    def test_rotation_covariance(self, vacuum_wigner):
        # radially symmetric W: only the angle of (mu, nu) changes, values don't
        for X in (0.0, 0.8, -1.3):
            ref = mdf_from_wigner(vacuum_wigner, X, 1.0, 0.0)
            for angle in (0.5, 1.2, 2.8):
                val = mdf_from_wigner(vacuum_wigner, X, math.cos(angle), math.sin(angle))
                assert val == pytest.approx(ref, abs=1e-6)

    def test_consistency_with_density_route(self):
        # both transforms applied to the same displaced state agree
        alpha = 0.4 + 0.2j
        psi = lambda x: coherent_wavefunction(alpha, *VACUUM, x)
        rho_grid = DensityGrid.from_wavefunction(psi, 8.0, 321)

        def rho(a, b):
            return psi(a) * np.conj(psi(b))

        wigner = wigner_from_density_function(rho, 7.0, 201)
        for X in np.linspace(-2.5, 2.5, 11):
            for mu, nu in ((0.0, 1.0), (0.6, 0.8)):
                via_wigner = mdf_from_wigner(wigner, X, mu, nu)
                via_rho = mdf_from_density(rho_grid, X, mu, nu)
                assert via_wigner == pytest.approx(via_rho, abs=1e-3)
            # the nu = 0 frame is outside the density kernel's domain;
            # check the projection against the closed form instead
            via_wigner = mdf_from_wigner(wigner, X, 1.0, 0.0)
            assert via_wigner == pytest.approx(
                coherent_mdf(alpha, *VACUUM, X, 1.0, 0.0), abs=1e-3
            )

    def test_out_of_support(self, vacuum_wigner):
        with pytest.warns(OutOfSupportWarning):
            assert mdf_from_wigner(vacuum_wigner, 100.0, 1.0, 0.0) == 0.0

    def test_zero_frame_rejected(self, vacuum_wigner):
        with pytest.raises(ValueError):
            mdf_from_wigner(vacuum_wigner, 0.0, 0.0, 0.0)

    def test_cached_coefficients_equal_prefiltered_call(self, vacuum_wigner):
        q = np.linspace(-6.0, 6.0, 401)
        shifted = WignerGrid(6.0, 2.0 * np.exp(-np.add.outer((q - 0.5) ** 2, (q + 0.3) ** 2)))
        rng = np.random.default_rng(11)
        for i in range(12):
            grid = (vacuum_wigner, shifted)[i % 2]
            X, angle = rng.uniform(-2.0, 2.0), rng.uniform(0.0, math.pi)
            mu, nu = math.cos(angle), math.sin(angle)
            assert mdf_from_wigner(grid, X, mu, nu) == direct_projection(grid, X, mu, nu)

    def test_cache_holds_no_grid_alive(self):
        q = np.linspace(-6.0, 6.0, 201)
        grid = WignerGrid(6.0, 2.0 * np.exp(-np.add.outer(q * q, q * q)))
        mdf_from_wigner(grid, 0.3, 0.6, 0.8)
        ref = weakref.ref(grid)
        del grid
        gc.collect()
        assert ref() is None


def direct_projection(W, X, mu, nu):
    """Radon projection with scipy's own prefilter on every call."""
    s2 = mu * mu + nu * nu
    s = math.sqrt(s2)
    q0, p0, dq, dp = mu * X / s2, nu * X / s2, -nu / s, mu / s
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # axis-aligned lines divide by 0
        bounds = [((-W.extent - c) / d, (W.extent - c) / d) for c, d in ((q0, dq), (p0, dp))]
    lo = max(min(b) for b in bounds)
    hi = min(max(b) for b in bounds)
    tau = np.linspace(lo, hi, max(129, 2 * math.ceil((hi - lo) / (0.5 * W.spacing)) + 1))
    rows = (q0 + tau * dq + W.extent) / W.spacing
    cols = (p0 + tau * dp + W.extent) / W.spacing
    vals = map_coordinates(W.values, np.array([rows, cols]), order=3, mode="constant")
    return float(np.trapezoid(vals, x=tau) / (2.0 * np.pi * s))


def test_package_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, osctomo, osctomo.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
