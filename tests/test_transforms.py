import copy
import gc
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import map_coordinates

from helpers import SQRT2, driven_state, wigner_from_density_function
from osctomo import transforms
from osctomo import (
    ConsistencyError,
    DegenerateFrameError,
    DensityGrid,
    FrameUnsupportedError,
    OutOfSupportWarning,
    QuadratureConvergenceError,
    QuadratureSpec,
    WignerGrid,
    coherent_mdf,
    coherent_wavefunction,
    cross_mdf,
    fock_mdf,
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


# the two-point density of the save golden test
TWO_POINT = DensityGrid(1.0, np.array([[0.25, 0.125 + 0.5j], [0.125 - 0.5j, 0.75]]))


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

    @pytest.mark.parametrize("order", ["shrink", "grow"])
    def test_save_over_an_existing_file_equals_a_fresh_save(self, vacuum_density, tmp_path, order):
        # save overwrites in place and cuts the file to length, so no stale tail survives
        first, second = (vacuum_density, TWO_POINT) if order == "shrink" else (TWO_POINT, vacuum_density)
        path, fresh = tmp_path / "rho.txt", tmp_path / "fresh.txt"
        first.save(path)
        second.save(path)
        second.save(fresh)
        assert path.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("header", ["# L=3", "# L=3 n"])
    @pytest.mark.parametrize("cls", [DensityGrid, WignerGrid])
    def test_load_names_the_file_on_a_bad_header(self, tmp_path, cls, header):
        path = tmp_path / "grid.txt"
        path.write_text(f"{header}\n0.5 0 0 0\n0 0 0.5 0\n")
        with pytest.raises(ValueError) as info:
            cls.load(path)
        assert str(path) in str(info.value) and "'# L=<real> n=<int>'" in str(info.value)

    def test_save_to_devnull(self):
        TWO_POINT.save(os.devnull)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_save_to_a_fifo(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        TWO_POINT.save(fifo)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == ["# L=1 n=2\n0.25 0 0.125 0.5\n0.125 -0.5 0.75 0\n"]


class TestGridSaveStreams:
    def test_save_holds_less_than_the_file(self, tmp_path):
        # the lines are streamed to the file, never joined: the peak stays below the text's size
        rho = DensityGrid.from_wavefunction(
            lambda z: coherent_wavefunction(0.3 + 0.2j, *VACUUM, z), 9.0, 361
        )
        path = tmp_path / "rho.txt"
        tracemalloc.start()
        try:
            rho.save(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size
        assert np.array_equal(DensityGrid.load(path).values, rho.values)


def never_sampled(*args):
    raise AssertionError("sampled before the grid arguments were checked")


class TestGridArguments:
    """Bad grid arguments raise a ValueError naming the argument, before any
    quadrature, and no RuntimeWarning on the way."""

    @pytest.mark.parametrize("extent", [math.nan, math.inf, 0.0, -2.0, 1e308])
    def test_extent_must_be_positive_with_a_finite_width(self, extent):
        values = np.eye(5, dtype=complex) / 4.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (
                lambda: DensityGrid(extent, values),
                lambda: WignerGrid(extent, values.real),
                lambda: DensityGrid.from_wavefunction(never_sampled, extent, 5),
                lambda: density_grid_from_mdf(never_sampled, extent, 5),
            ):
                with pytest.raises(ValueError, match="^extent must be positive"):
                    build()

    @pytest.mark.parametrize("n", [1, 0, -3, 41.5, math.inf, math.nan])
    def test_density_grid_needs_two_points(self, n):
        with pytest.raises(ValueError, match="^n must be at least 2"):
            density_grid_from_mdf(never_sampled, 6.0, n)

    @pytest.mark.parametrize("n", [41.5, math.inf, math.nan])
    def test_wavefunction_grid_size_must_be_a_whole_number(self, n):
        with pytest.raises(ValueError, match="^n must be at least 2 and a whole number"):
            DensityGrid.from_wavefunction(never_sampled, 6.0, n)

    def test_integral_float_sizes_build_the_int_grids(self):
        def psi(x):
            return coherent_wavefunction(0.3, *VACUUM, x)

        assert np.array_equal(DensityGrid.from_wavefunction(psi, 6.0, 41.0).values,
                              DensityGrid.from_wavefunction(psi, 6.0, 41).values)
        quad = vacuum_quad(mu_count=40, y_count=101)
        assert np.array_equal(density_grid_from_mdf(vacuum_w, 6.0, 41.0, quad).values,
                              density_grid_from_mdf(vacuum_w, 6.0, 41, quad).values)

    @pytest.mark.parametrize("X, Xp, quad", [
        (1e308, 1e308, QuadratureSpec(y_window=(-10.0, 10.0))),  # X + Xp is inf
        (1e308, -1e308, QuadratureSpec(y_window=(-10.0, 10.0))),  # nu = X - Xp is inf
        (1e300, 1e300, QuadratureSpec(mu_max=1e10)),  # mu (X + Xp) is inf on the mu grid
    ])
    def test_density_element_whose_nu_or_mu_phase_overflows(self, X, Xp, quad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"(X, Xp) = ({X}, {Xp}): X - Xp or mu_max (X + Xp) overflows")):
                density_from_mdf(never_sampled, X, Xp, quad)

    def test_density_grid_whose_mu_phases_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the mu phases overflow"):
                density_grid_from_mdf(never_sampled, 1e300, 3, QuadratureSpec(mu_max=1e10))

    @pytest.mark.parametrize("X", [1e307, 5e306], ids=["bound-overflows", "width-overflows"])
    def test_default_y_window_that_overflows(self, X):
        # 10 hypot(mu, nu) with nu = 2 X, or the width 20 hypot(mu, nu), is past the double range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="y_window bounds must be finite with lo < hi and a finite width"):
                density_from_mdf(never_sampled, X, -X)

    def test_fixed_y_window_whose_width_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="a finite width hi - lo"):
                QuadratureSpec(y_window=(-1e308, 1e308))

    def test_density_grid_whose_coherent_slices_overflow(self):
        # the nu = 5e306 diagonal keeps a finite window, and its coherent tomogram, which squares
        # no |r|, a finite value; the next diagonal's window +-10 nu = +-1e308 has no finite width
        w = lambda Y, mu, nu: coherent_mdf(0.0, *VACUUM, Y, mu, nu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(density_from_mdf(w, 5e306, 0.0))
            with pytest.raises(ValueError, match="^y_window bounds must be finite"):
                density_grid_from_mdf(w, 5e306, 3)

    @pytest.mark.parametrize("quad", [QuadratureSpec(y_window=(-10.0, 10.0)), None], ids=["fixed", "default"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_density_element_needs_finite_points(self, quad, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^X must be finite, got {value}"):
                density_from_mdf(never_sampled, value, 0.0, quad)
            with pytest.raises(ValueError, match=f"^Xp must be finite, got {value}"):
                density_from_mdf(never_sampled, 0.0, value, quad)


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

    def test_zero_frame_follows_the_point_rule(self, vacuum_density):
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            mdf_from_density(vacuum_density, 0.3, 0.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1, 2], ids=["X", "mu", "nu"])
    def test_non_finite_arguments_rejected(self, vacuum_density, slot, value):
        args = [0.3, 1.0, 0.5]
        args[slot] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning, no nan, no silent 0.0
            with pytest.raises(ValueError, match="finite"):
                mdf_from_density(vacuum_density, *args)

    @pytest.mark.parametrize("args", [(1e308, 1.0, 1.0), (0.0, 1e308, 1.0), (1e300, 1.0, 1e-11)])
    def test_overflowing_kernel_phase_rejected(self, vacuum_density, args):
        # finite arguments whose phase (mu Z^2/2 - X Z)/nu overflows at the grid's ends
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="kernel phase .* overflows on the grid"):
                mdf_from_density(vacuum_density, *args)

    def test_undersampled_kernel_phase_rejected(self):
        # spacing h = 0.05: the phase advances (0.6 * 9 + |X|) h / 0.8 per node at |Z| = 9,
        # pi at |X| = 16 pi - 5.4 = 44.87
        rho = DensityGrid.from_wavefunction(lambda x: coherent_wavefunction(0.0, *VACUUM, x), 9.0, 361)
        for X in (200.0, 45.0, -45.0):
            with pytest.raises(ValueError, match="kernel phase .* per node, above pi"):
                mdf_from_density(rho, X, 0.6, 0.8)
        dense = DensityGrid(rho.extent, rho.values)  # the same values, without psi
        for X in (44.8, -44.8, 3.0, 0.0):  # resolved points keep their values bit for bit
            assert mdf_from_density(rho, X, 0.6, 0.8) == rank_one_mdf(rho, X, 0.6, 0.8)
            assert mdf_from_density(dense, X, 0.6, 0.8) == rank_one_mdf(dense, X, 0.6, 0.8)

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


def rank_one_mdf(rho, X, mu, nu):
    """mdf_from_density's own evaluation, without its argument checks:
    |v . psi|^2 on a grid that keeps its wavefunction, v^T rho conj(v) on
    any other."""
    z = rho.axis
    v = transforms._trapz_weights(z) * np.exp(1j * (mu * z * z / 2.0 - X * z) / nu)
    if rho._psi is not None:
        amp = complex(v @ rho._psi)
        return (amp.real * amp.real + amp.imag * amp.imag) / (2.0 * np.pi * abs(nu))
    return (complex(v @ (rho.values @ v.conj())) / (2.0 * np.pi * abs(nu))).real


def double_trapezoid_mdf(rho, X, mu, nu):
    """The n x n kernel form that the rank-one evaluation must reproduce."""
    z = rho.axis
    Z, Zp = z[:, None], z[None, :]
    kernel = np.exp(-1j * (Z - Zp) * (X - mu * (Z + Zp) / 2.0) / nu)
    inner = np.trapezoid(rho.values * kernel, dx=rho.spacing, axis=1)
    return (complex(np.trapezoid(inner, dx=rho.spacing)) / (2.0 * np.pi * abs(nu))).real


@st.composite
def pure_states(draw):
    """psi on the grid: a driven coherent state, a Fock state, or a
    normalised superposition of two Fock states with a complex weight."""
    kind = draw(st.sampled_from(["coherent", "fock", "superposition"]))
    if kind == "coherent":
        alpha = complex(draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5)))
        flow = driven_state(draw(st.floats(0.0, 10.0)), draw(st.floats(-0.5, 0.5)))
        return lambda x: coherent_wavefunction(alpha, *flow, x)
    m = draw(st.integers(0, 5))
    if kind == "fock":
        return lambda x: hermite_gauss(m, x)
    k = draw(st.integers(0, 5).filter(lambda k: k != m))
    c = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    norm = math.sqrt(1.0 + abs(c) ** 2)
    return lambda x: (hermite_gauss(m, x) + c * hermite_gauss(k, x)) / norm


class TestPureGrids:
    """A grid from from_wavefunction reads its psi, O(n) per point; a grid
    made from values reads values, as before."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(psi=pure_states(), X=st.floats(-4.0, 4.0), mu=st.floats(-1.5, 1.5),
           nu=st.floats(0.5, 2.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_pure_path_matches_its_dense_twin(self, psi, X, mu, nu, sign):
        # h = 1/15: the phase advances at most (1.5 * 8 + 4) h / 0.5 = 2.1 rad per node
        rho = DensityGrid.from_wavefunction(psi, 8.0, 241)
        dense = DensityGrid(rho.extent, rho.values)
        assert rho._psi is not None and dense._psi is None
        assert abs(mdf_from_density(rho, X, mu, sign * nu) - mdf_from_density(dense, X, mu, sign * nu)) <= 1e-14

    def test_grids_made_from_values_follow_their_own_values(self, tmp_path):
        rho = DensityGrid.from_wavefunction(lambda z: coherent_wavefunction(0.3 + 0.2j, *VACUUM, z), 8.0, 161)
        other = DensityGrid.from_wavefunction(lambda z: hermite_gauss(2, z), 8.0, 161)
        rho.save(tmp_path / "rho.txt")
        quad = QuadratureSpec(mu_count=60, y_window=(-10.0, 10.0), y_count=121)
        grids = {
            "replace": replace(rho, values=other.values),
            "load": DensityGrid.load(tmp_path / "rho.txt"),
            "density_grid_from_mdf": density_grid_from_mdf(
                lambda Y, mu, nu: coherent_mdf(0.5, *VACUUM, Y, mu, nu), 6.0, 41, quad),
        }
        for how, grid in grids.items():
            assert grid._psi is None, how
            for X, mu, nu in ((0.3, 0.6, 0.8), (-1.1, -0.4, 1.3)):  # v^T values conj(v), bit for bit
                assert mdf_from_density(grid, X, mu, nu) == rank_one_mdf(grid, X, mu, nu), how
        assert mdf_from_density(grids["replace"], 0.3, 0.6, 0.8) == mdf_from_density(
            DensityGrid(other.extent, other.values), 0.3, 0.6, 0.8)

    def test_a_buffer_psi_changes_later_changes_nothing(self):
        returned = []

        def psi(z):
            returned.append(coherent_wavefunction(0.5 - 0.3j, *VACUUM, z).astype(complex))
            return returned[-1]  # complex already: the grid cannot rely on a fresh array

        rho = DensityGrid.from_wavefunction(psi, 8.0, 161)
        points = [(X, 0.6, 0.8) for X in (-1.0, 0.0, 0.7)]
        values, before = rho.values.copy(), [mdf_from_density(rho, *p) for p in points]
        returned[0][:] = 0.0
        assert np.array_equal(rho.values, values)
        assert [mdf_from_density(rho, *p) for p in points] == before
        with pytest.raises(ValueError):
            rho._psi[0] = 1.0

    def test_the_nodes_and_weights_are_built_once_and_read_only(self, vacuum_density):
        z, weights = vacuum_density._nodes
        assert vacuum_density._nodes[0] is z
        assert np.array_equal(z, vacuum_density.axis)
        assert np.array_equal(weights, transforms._trapz_weights(vacuum_density.axis))
        assert vacuum_density.axis is not vacuum_density.axis  # still a fresh array
        for array in (z, weights):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_a_dense_grid_not_hermitian_enough_has_an_imaginary_residue(self, vacuum_density):
        # i 4e-11 on every entry leaves the residue 8e-11, within the 1e-10 gate; at the
        # flat kernel (0, 0, 1e-4) the imaginary part is 4e-11 (sum w)^2 / (2 pi 1e-4) ~ 1.6e-5
        tilted = DensityGrid(vacuum_density.extent, vacuum_density.values + 4e-11j)
        with pytest.raises(ConsistencyError, match=r"imaginary residue 1\.6\d*e-05 above 1e-06"):
            mdf_from_density(tilted, 0.0, 0.0, 1e-4)
        assert mdf_from_density(vacuum_density, 0.0, 0.0, 1e-4) > 0.0  # the pure path has none


def coherent_psi(z):
    return coherent_wavefunction(0.4 - 0.3j, *driven_state(1.3), z)


def unread_grid(n=161):
    """A fresh from_wavefunction grid whose values nothing has read yet."""
    rho = DensityGrid.from_wavefunction(coherent_psi, 8.0, n)
    assert "values" not in vars(rho)
    return rho


def bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


class TestLazyPureGrids:
    """A from_wavefunction grid holds psi and is checked in O(n); its n x n
    values are formed on their first read, with the bits of outer(psi, conj psi)."""

    def test_construction_points_trace_and_save_stay_linear(self):
        # at n = 2001 values would be 64 MB; psi is 32 kB.  save streams one row at a time,
        # so its first rows hold what every row does: the whole 99 MB file takes ~36 s traced
        DensityGrid.from_wavefunction(coherent_psi, 9.0, 41)  # the first call's one-off allocations
        tracemalloc.start()
        try:
            rho = DensityGrid.from_wavefunction(coherent_psi, 9.0, 2001)
            for X in np.linspace(-4.0, 4.0, 20):
                mdf_from_density(rho, X, 0.6, 0.8)
            rho.trace()
            lines = sum(1 for _ in itertools.islice(rho._text_lines(), 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert lines == 8 and "values" not in vars(rho)

    def test_values_on_first_read_are_the_outer_product_read_only_and_kept(self):
        rho = unread_grid()
        samples = np.asarray(coherent_psi(rho.axis), dtype=complex)
        values = rho.values
        assert np.array_equal(bits(values), bits(np.outer(samples, samples.conj())))
        assert rho.values is values
        with pytest.raises(ValueError):
            values[0, 0] = 1.0

    def test_racing_first_reads_share_one_array(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                rho, seen = unread_grid(641), []
                readers = [threading.Thread(target=lambda: seen.append(rho.values)) for _ in range(8)]
                for reader in readers:
                    reader.start()
                for reader in readers:
                    reader.join(timeout=30)
                assert not any(reader.is_alive() for reader in readers)
                assert len(seen) == 8 and all(values is rho.values for values in seen)
        finally:
            sys.setswitchinterval(interval)

    def test_trace_and_save_match_the_dense_twin(self, tmp_path):
        rho = unread_grid()
        samples = np.asarray(coherent_psi(rho.axis), dtype=complex)
        dense = DensityGrid(rho.extent, np.outer(samples, samples.conj()))
        assert float.hex(rho.trace()) == float.hex(dense.trace())
        rho.save(tmp_path / "pure.txt")
        dense.save(tmp_path / "dense.txt")
        assert "values" not in vars(rho)
        assert (tmp_path / "pure.txt").read_bytes() == (tmp_path / "dense.txt").read_bytes()
        assert rho.n == dense.n and rho.spacing == dense.spacing
        assert np.array_equal(rho.axis, dense.axis)

    def test_repr_eq_replace_pickle_and_deepcopy_of_an_unread_grid(self):
        reference = unread_grid().values
        assert repr(unread_grid()) == repr(DensityGrid(8.0, reference))
        rho = unread_grid()
        assert rho == rho and rho != DensityGrid.from_wavefunction(coherent_psi, 9.0, 161)
        twin = replace(unread_grid())
        assert twin._psi is None and np.array_equal(twin.values, reference)
        for copied in (pickle.loads(pickle.dumps(unread_grid())), copy.deepcopy(unread_grid())):
            assert type(copied) is DensityGrid and copied.n == 161
            assert np.array_equal(bits(copied.values), bits(reference))
            assert mdf_from_density(copied, 0.3, 0.6, 0.8) == mdf_from_density(rho, 0.3, 0.6, 0.8)

    def test_an_overridden_trace_still_gates(self):
        class NanTrace(DensityGrid):
            def trace(self):
                return math.nan

        with pytest.raises(ConsistencyError, match="trace nan deviates"):
            NanTrace.from_wavefunction(coherent_psi, 8.0, 161)

    @pytest.mark.parametrize("psi, size", [
        (lambda z: coherent_psi(z[::2]), 81),  # once an 81-point grid on the same extent, past the trace gate
        (lambda z: coherent_psi(z[1:]), 160),
        (lambda z: coherent_psi(np.append(z, 8.1)), 162),
        (lambda z: coherent_psi(0.0), 1),  # once refused as "n must be at least 2", the caller's n
    ], ids=["every-other", "one-short", "one-more", "scalar"])
    def test_psi_of_another_length_is_refused(self, psi, size):
        with pytest.raises(ValueError, match=re.escape(f"psi(z) must hold n = 161 values, one per axis node, got {size}")):
            DensityGrid.from_wavefunction(psi, 8.0, 161)

    def test_psi_of_n_values_in_another_shape_reads_flattened(self):
        column = DensityGrid.from_wavefunction(lambda z: coherent_psi(z)[:, None], 8.0, 161)
        assert np.array_equal(column.values, unread_grid().values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, 1.0)])
    def test_non_finite_psi_names_the_first_bad_z(self, bad):
        def psi(z):
            samples = coherent_psi(z).astype(complex)
            samples[[7, 100]] = bad
            return samples

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(ConsistencyError, match=r"^psi is not finite at z = -7\.3$"):
                DensityGrid.from_wavefunction(psi, 8.0, 161)

    def test_psi_whose_square_overflows_fails_the_trace_gate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConsistencyError, match="trace inf deviates"):
                DensityGrid.from_wavefunction(lambda z: 1e200 * coherent_psi(z), 8.0, 161)


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


def parent_char_slice(w, quad, nu):
    """The per-node form of the Y integral: one exp(1j y) per node and
    np.trapezoid on the nodes lo + (hi - lo) * linspace(0, 1, K)."""
    mu = np.linspace(-quad.mu_max, quad.mu_max, quad.mu_count)
    lo, hi = quad.y_window(mu, nu) if callable(quad.y_window) else quad.y_window
    lo = np.broadcast_to(np.asarray(lo, dtype=float), mu.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), mu.shape)
    y = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, quad.y_count)[None, :]
    return mu, np.trapezoid(w(y, mu[:, None], nu) * np.exp(1j * y), x=y, axis=1)


def parent_density_point(w, X, Xp, quad):
    mu, g = parent_char_slice(w, quad, X - Xp)
    return complex(np.trapezoid(g * np.exp(-1j * mu * (X + Xp) / 2.0), x=mu)) / (2.0 * np.pi)


def parent_density_grid(w, extent, n, quad):
    """One exp(-1j outer(s, mu)) per diagonal, Hermitian fill."""
    z = np.linspace(-extent, extent, n)
    h = z[1] - z[0]
    values = np.empty((n, n), dtype=complex)
    for d in range(n):
        mu, g = parent_char_slice(w, quad, d * h)
        j = np.arange(0, n - d)
        s = z[j] + d * h / 2.0
        wts = np.full(mu.size, mu[1] - mu[0])
        wts[[0, -1]] /= 2.0
        vals = (g[None, :] * np.exp(-1j * np.outer(s, mu))) @ wts / (2.0 * np.pi)
        values[j + d, j] = vals
        values[j, j + d] = vals.conj()
    return values


PARENT_STATES = {
    "coherent": lambda Y, mu, nu: coherent_mdf(0.7 + 0.3j, *VACUUM, Y, mu, nu),
    "fock3": lambda Y, mu, nu: fock_mdf(3, *VACUUM, Y, mu, nu),
    "cross01": lambda Y, mu, nu: cross_mdf(0, 1, *VACUUM, Y, mu, nu),
}


class TestFactorisedQuadrature:
    """The factorised Y phase and the one-product mu integral reproduce the
    per-node formulation to roundoff, for real and complex (cross01)
    samples, whatever the split of K nodes into A rows of S = ceil(sqrt(K))
    plus a tail of K - A S: 2 (A = 1, no tail), 3 (A = 1 and a tail),
    4 (A = 2, no tail), 5 (A = 1, tail 2), 9 (square), 97 (prime),
    500 (even), 501 (odd) and 2401 (the refined default spec, no tail)."""

    Y_COUNTS = [2, 3, 4, 5, 9, 97, 500, 501, 2401]

    @staticmethod
    def spec(window, y_count):
        y_window = gaussian_window(VACUUM, 0.7 + 0.3j) if window == "tracking" else (-40.0, 40.0)
        return QuadratureSpec(mu_max=12.0, mu_count=48, y_window=y_window, y_count=y_count)

    @pytest.mark.parametrize("y_count", Y_COUNTS)
    @pytest.mark.parametrize("window", ["tracking", "fixed"])
    @pytest.mark.parametrize("state", sorted(PARENT_STATES))
    def test_point_matches_per_node_form(self, state, window, y_count):
        w, quad = PARENT_STATES[state], self.spec(window, y_count)
        for X, Xp in ((0.0, 0.0), (0.9, -0.4), (-1.3, 0.6)):
            new = density_from_mdf(w, X, Xp, quad)
            assert abs(new - parent_density_point(w, X, Xp, quad)) <= 1e-13

    @pytest.mark.parametrize("y_count", Y_COUNTS)
    @pytest.mark.parametrize("window", ["tracking", "fixed"])
    @pytest.mark.parametrize("state", sorted(PARENT_STATES))
    def test_grid_matches_per_diagonal_form(self, state, window, y_count, monkeypatch):
        # starved specs fail the grid's trace check, so compare the raw values
        monkeypatch.setattr(transforms, "DensityGrid", lambda extent, values: values)
        w, quad = PARENT_STATES[state], self.spec(window, y_count)
        new = density_grid_from_mdf(w, 5.0, 17, quad)
        assert np.max(np.abs(new - parent_density_grid(w, 5.0, 17, quad))) <= 1e-13


def raw_values(monkeypatch):
    """Make density_grid_from_mdf return its raw values, unchecked: a cross
    term's grid is not a density, and a starved spec fails the trace check."""
    monkeypatch.setattr(transforms, "DensityGrid", lambda extent, values: values)


BAND_STATES = PARENT_STATES | {
    "cross12": lambda Y, mu, nu: cross_mdf(1, 2, *VACUUM, Y, mu, nu),
}


class TestSliceBands:
    """A tomogram slice is sampled in bands of the fewest whole mu rows
    holding _SLICE_VALUES samples, and every row comes out bit for bit as
    from one band; the window is taken and checked once per slice, on the
    whole mu grid, before any band is sampled."""

    ROWS = 10  # rows per band once _SLICE_VALUES is lowered; 48 mu rows leave a last band of 8

    def lower_the_bound(self, monkeypatch, y_count):
        monkeypatch.setattr(transforms, "_SLICE_VALUES", (self.ROWS - 1) * y_count + y_count // 2)

    @staticmethod
    def counting(w, rows):
        def counted(Y, mu, nu):
            rows.append(Y.shape[0])
            return w(Y, mu, nu)

        return counted

    @pytest.mark.parametrize("y_count", [501, 2401])  # 2401 = 49^2: no tail; 501: a tail
    @pytest.mark.parametrize("window", ["tracking", "fixed"])
    @pytest.mark.parametrize("state", sorted(BAND_STATES))
    def test_bands_equal_one_band_bit_for_bit(self, state, window, y_count, monkeypatch):
        raw_values(monkeypatch)
        w, quad = BAND_STATES[state], TestFactorisedQuadrature.spec(window, y_count)
        points = ((0.0, 0.0), (0.9, -0.4), (-1.3, 0.6))

        def run():
            elements = [density_from_mdf(w, X, Xp, q) for X, Xp in points for q in (quad, quad.refined())]
            return np.array(elements), density_grid_from_mdf(w, 5.0, 17, quad)

        one_band = run()
        self.lower_the_bound(monkeypatch, y_count)
        rows = []
        density_from_mdf(self.counting(w, rows), 0.9, -0.4, quad)
        assert rows == [10, 10, 10, 10, 8]
        banded = run()
        for a, b in zip(banded, one_band):
            assert a.tobytes() == b.tobytes()

    def test_window_called_once_per_slice(self, monkeypatch):
        self.lower_the_bound(monkeypatch, 97)
        calls, rows = [], []

        def window(mu, nu):
            calls.append(mu.size)
            return -10.0, 10.0

        quad = QuadratureSpec(mu_max=12.0, mu_count=48, y_window=window, y_count=97)
        density_from_mdf(self.counting(vacuum_w, rows), 0.3, -0.2, quad, check_convergence=True)
        # the refined slice, 193 samples a row, takes 5 rows a band and leaves one
        assert calls == [48, 96] and rows == [10] * 4 + [8] + [5] * 19 + [1]
        calls.clear()
        raw_values(monkeypatch)
        density_grid_from_mdf(vacuum_w, 3.0, 5, quad)
        assert calls == [48] * 5

    def test_bad_window_raises_before_sampling(self, monkeypatch):
        # the NaN bound is in the last band only
        self.lower_the_bound(monkeypatch, 97)
        window = lambda mu, nu: (np.where(mu > 11.0, np.nan, -40.0), 40.0)
        quad = QuadratureSpec(mu_max=12.0, mu_count=48, y_window=window, y_count=97)
        rows = []
        with pytest.raises(ValueError, match="y_window bounds"):
            density_from_mdf(self.counting(vacuum_w, rows), 0.3, -0.2, quad)
        with pytest.raises(ValueError, match="y_window bounds"):
            density_grid_from_mdf(self.counting(vacuum_w, rows), 3.0, 5, quad)
        assert rows == []

    @pytest.mark.parametrize("bands", ["one", "several"])
    def test_w_may_change_or_return_its_nodes(self, bands, monkeypatch):
        # Y is the slice plan's node buffer, rewritten by every band: a w that squares it in
        # place, or returns a view of it, gives what a pure w gives, bit for bit
        raw_values(monkeypatch)
        quad = TestFactorisedQuadrature.spec("fixed", 97)
        if bands == "several":
            self.lower_the_bound(monkeypatch, 97)

        def squaring(Y, mu, nu):
            np.square(Y, out=Y)
            return vacuum_w(Y, mu, nu)

        def viewing(Y, mu, nu):
            Y *= -Y
            return np.exp(Y, out=Y)[:, ::1]

        def run(w):
            elements = [density_from_mdf(w, 0.9, -0.4, q) for q in (quad, quad.refined())]
            return density_grid_from_mdf(w, 5.0, 17, quad), np.array(elements)

        pairs = ((squaring, lambda Y, mu, nu: vacuum_w(Y * Y, mu, nu)),
                 (viewing, lambda Y, mu, nu: np.exp(-Y * Y)))
        for changing, pure in pairs:
            for a, b in zip(run(changing), run(pure)):
                assert a.tobytes() == b.tobytes()

    def test_mu_handed_to_w_is_read_only(self):
        # every slice of a call reads one mu grid, so w may not change it
        def writing(Y, mu, nu):
            mu *= 2.0
            return vacuum_w(Y, mu, nu)

        with pytest.raises(ValueError, match="read-only"):
            density_from_mdf(writing, 0.3, -0.2, vacuum_quad())

    def test_refined_default_fock_element_holds_one_band(self):
        # the refined default slice, 480 x 2401 samples, splits into bands of
        # 219, 219 and 42 rows, which share one node buffer, and fock_mdf holds one
        # array per band: 8.6 MB measured; 20.1 MB with fresh nodes and four
        # arrays per band, 44.0 MB as one piece
        fock3 = lambda Y, mu, nu: fock_mdf(3, *VACUUM, Y, mu, nu)
        rows = []
        tracemalloc.start()
        try:
            density_from_mdf(self.counting(fock3, rows), 0.3, -0.2, check_convergence=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == [240, 219, 219, 42]
        assert peak <= 11 * 2**20


class TestRowBandAssembly:
    """density_grid_from_mdf assembles the grid 64 rows of the diagonal
    product at a time, writing each row and its conjugate column."""

    @pytest.mark.parametrize("n", [2, 17, 64, 65, 130])
    def test_grid_is_exactly_hermitian(self, n, monkeypatch):
        # the diagonal keeps the rounding-level imaginary part of its sum
        raw_values(monkeypatch)
        quad = QuadratureSpec(mu_max=12.0, mu_count=48, y_window=(-40.0, 40.0), y_count=97)
        w = PARENT_STATES["coherent"]
        values = density_grid_from_mdf(w, 5.0, n, quad)
        off = ~np.eye(n, dtype=bool)
        assert np.all((values == values.conj().T)[off])

    def test_assembly_holds_little_beside_the_grid(self):
        # the tril_indices fill held 3.5x the grid (54.5 MB traced at n = 1001)
        quad = QuadratureSpec(mu_count=60, y_window=(-10.0, 10.0), y_count=121)
        w = lambda Y, mu, nu: coherent_mdf(0.5, *VACUUM, Y, mu, nu)
        tracemalloc.start()
        try:
            grid = density_grid_from_mdf(w, 6.0, 1001, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * grid.values.nbytes


class TestQuadratureSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu_count": 1},
            {"y_count": 1},
            {"mu_max": 0.0},
            {"mu_max": -12.0},
            {"mu_max": math.nan},
            {"mu_max": math.inf},
            {"y_window": (40.0, -40.0)},
            {"y_window": (1.0, 1.0)},
            {"y_window": (math.nan, 40.0)},
            {"y_window": (-math.inf, 40.0)},
        ],
        ids=["mu_count-1", "y_count-1", "mu_max-0", "mu_max-negative", "mu_max-nan", "mu_max-inf",
             "window-inverted", "window-empty", "window-nan", "window-inf"],
    )
    def test_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)

    @pytest.mark.parametrize("value", [2.5, math.inf, math.nan])
    @pytest.mark.parametrize("name", ["mu_count", "y_count"])
    def test_count_that_is_not_a_whole_number_is_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be at least 2 and a whole number"):
            QuadratureSpec(**{name: value})

    def test_integral_float_counts_are_the_int_spec(self):
        spec = QuadratureSpec(mu_count=240.0, y_count=np.float64(1201.0))
        assert spec == QuadratureSpec() and type(spec.mu_count) is type(spec.y_count) is int
        assert density_from_mdf(vacuum_w, 0.5, -0.3, spec) == density_from_mdf(vacuum_w, 0.5, -0.3)

    @pytest.mark.parametrize(
        "bad_window",
        [
            lambda mu, nu: (40.0, -40.0),
            lambda mu, nu: (np.where(mu > 0, np.nan, -40.0), 40.0),
            lambda mu, nu: (-40.0, np.full(mu.shape, np.inf)),
        ],
        ids=["inverted", "nan", "inf"],
    )
    def test_callable_window_checked_on_use(self, bad_window):
        quad = QuadratureSpec(mu_count=40, y_window=bad_window, y_count=41)
        with pytest.raises(ValueError):
            density_from_mdf(vacuum_w, 0.0, 0.0, quad)
        with pytest.raises(ValueError):
            density_grid_from_mdf(vacuum_w, 3.0, 5, quad)


class TestNanGates:
    """A NaN fails each tolerance gate instead of passing its comparison."""

    @pytest.mark.parametrize("entry", [(0, 1), (1, 1)], ids=["off-diagonal", "diagonal"])
    def test_density_grid_with_a_nan_entry_rejected(self, entry):
        values = TWO_POINT.values.copy()
        values[entry] = np.nan
        with pytest.raises(ConsistencyError, match="not Hermitian: residue nan"):
            DensityGrid(1.0, values)

    def test_nan_trace_rejected(self):
        class NanTrace(DensityGrid):
            def trace(self):
                return math.nan

        with pytest.raises(ConsistencyError, match="trace nan deviates"):
            NanTrace(1.0, TWO_POINT.values)

    def test_nan_wigner_grid_rejected(self):
        with pytest.raises(ConsistencyError, match="normalisation nan deviates"):
            WignerGrid(5.0, np.full((11, 11), np.nan))

    # a NaN in the last of three row bands still fails: the band maxima and the
    # row integrals are reduced with numpy, which keeps a NaN
    @pytest.mark.parametrize("entry", [(132, 130), (130, 132), (132, 132)],
                             ids=["lower", "upper", "diagonal"])
    def test_nan_in_the_last_band_of_a_density_grid_rejected(self, entry):
        values = multi_band_density().values.copy()
        values[entry] = np.nan
        with pytest.raises(ConsistencyError, match="not Hermitian: residue nan"):
            DensityGrid(8.0, values)

    def test_nan_in_the_last_band_of_a_wigner_grid_rejected(self):
        values = multi_band_wigner().values.copy()
        values[132, 5] = np.nan
        with pytest.raises(ConsistencyError, match="normalisation nan deviates"):
            WignerGrid(8.0, values)

    def test_nan_imaginary_residue_rejected(self):
        values = TWO_POINT.values.copy()
        rho = DensityGrid(1.0, values)
        values[0, 1] = np.nan  # the grid shares this array's memory
        with pytest.raises(ConsistencyError, match="imaginary residue nan"):
            mdf_from_density(rho, 0.3, 0.6, 0.8)

    def test_nan_refinement_change_rejected(self):
        quad = QuadratureSpec(mu_count=40, y_count=101)
        with pytest.raises(QuadratureConvergenceError, match="by nan"):
            density_from_mdf(lambda Y, mu, nu: np.nan, 0.1, 0.2, quad, check_convergence=True)


def multi_band_density():
    """A valid 133-point density grid: three row bands of the grid checks."""
    return DensityGrid.from_wavefunction(lambda z: coherent_wavefunction(0.5, *VACUUM, z), 8.0, 133)


def multi_band_wigner():
    q = np.linspace(-8.0, 8.0, 133)
    return WignerGrid(8.0, 2.0 * np.exp(-np.add.outer(q * q, q * q)))


def unbanded_residue(values):
    """The Hermiticity residue as one full-size expression."""
    return np.max(np.abs(values - values.conj().T))


def unbanded_normalisation(values, dx):
    """The Wigner normalisation as one nested trapezoid over the whole grid."""
    inner = np.trapezoid(values, dx=dx, axis=1)
    return float(np.trapezoid(inner, dx=dx) / (2.0 * np.pi))


class TestBandedGridChecks:
    """The grid checks work one band of rows at a time and return, bit for
    bit, what the full-size expressions return."""

    SIZES = [2, 63, 64, 65, 361, 401]
    PLACES = ["first", "middle", "last"]

    @staticmethod
    def row_in(place, n, rng):
        bands = range(0, n, transforms._BAND_ROWS)
        start = {"first": bands[0], "middle": bands[len(bands) // 2], "last": bands[-1]}[place]
        return int(rng.integers(start, min(start + transforms._BAND_ROWS, n)))

    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("n", SIZES)
    def test_residue_equals_the_full_size_expression(self, n, place):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        values = (a + a.conj().T) / 2.0
        assert transforms._hermiticity_residue(values) == unbanded_residue(values)
        for _ in range(3):
            row, col = self.row_in(place, n, rng), int(rng.integers(n))
            values[row, col] += complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-14, 0)
            assert transforms._hermiticity_residue(values) == unbanded_residue(values)

    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("n", SIZES)
    def test_normalisation_equals_the_full_size_expression(self, n, place):
        rng = np.random.default_rng(n)
        values = rng.random((n, n))
        values[self.row_in(place, n, rng)] *= 1e3
        extent = float(rng.uniform(1.0, 10.0))
        dx = 2.0 * extent / (n - 1)
        values /= unbanded_normalisation(values, dx)
        grid = WignerGrid(extent, values)
        assert grid.normalisation() == unbanded_normalisation(grid.values, dx)

    def test_the_density_check_uses_the_residue(self, monkeypatch):
        monkeypatch.setattr(transforms, "_hermiticity_residue", lambda values: np.float64(0.5))
        with pytest.raises(ConsistencyError, match="residue 5.000e-01"):
            DensityGrid(1.0, TWO_POINT.values)

    @pytest.mark.parametrize("cls", [DensityGrid, WignerGrid])
    def test_checking_a_grid_holds_a_small_share_of_it(self, cls):
        # the full-size expressions held 2.0x (density) and 1.0x (Wigner) the grid
        z = np.linspace(-8.0, 8.0, 1001)
        if cls is DensityGrid:
            psi = coherent_wavefunction(0.5, *VACUUM, z)
            values = np.outer(psi, psi.conj())
        else:
            values = 2.0 * np.exp(-np.add.outer(z * z, z * z))
        tracemalloc.start()
        try:
            cls(8.0, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * values.nbytes


class TestDefaultWindow:
    def test_default_spec_resolves_narrow_slices(self):
        # near mu = 0 on the nu = 0 diagonal the slices are ~|mu| wide; a
        # fixed (-40, 40) window misses them (error ~3e-3 on this grid)
        alpha = 0.7 - 0.4j
        w = lambda Y, mu, nu: coherent_mdf(alpha, *VACUUM, Y, mu, nu)
        grid = density_grid_from_mdf(w, 6.0, 31)
        psi = coherent_wavefunction(alpha, *VACUUM, grid.axis)
        assert np.max(np.abs(grid.values - np.outer(psi, psi.conj()))) <= 1e-10

    def test_odd_mu_count_on_a_diagonal_element_is_the_zero_frame(self):
        # an odd mu_count puts a node at mu = 0; on nu = 0 that is the frame (0, 0)
        quad = QuadratureSpec(mu_count=241)
        with pytest.raises(DegenerateFrameError, match=r"\(0, 0\).*mu_count"):
            density_from_mdf(vacuum_w, 0.3, 0.3, quad)
        with pytest.raises(DegenerateFrameError, match=r"\(0, 0\).*mu_count"):
            density_grid_from_mdf(vacuum_w, 3.0, 11, quad)
        psi = coherent_wavefunction(0.0, *VACUUM, np.array([0.3, 0.1]))
        assert density_from_mdf(vacuum_w, 0.3, 0.1, quad) == pytest.approx(
            psi[0] * psi[1].conj(), abs=1e-8
        )


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1, 2], ids=["X", "mu", "nu"])
    def test_non_finite_arguments_rejected(self, vacuum_wigner, slot, value):
        args = [0.3, 0.6, 0.8]
        args[slot] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning, no silent 0.0
            with pytest.raises(ValueError, match="finite"):
                mdf_from_wigner(vacuum_wigner, *args)

    @pytest.mark.parametrize("frame", [(1e200, 1e200), (-1e200, 0.0), (0.0, 1.5e154)])
    def test_frame_whose_norm_overflows_rejected(self, frame):
        q = np.linspace(-6.0, 6.0, 101)
        grid = WignerGrid(6.0, 2.0 * np.exp(-np.add.outer(q * q, q * q)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^frame \(mu, nu\) = .* mu\^2 \+ nu\^2 overflows"):
                mdf_from_wigner(grid, 0.0, *frame)
        assert "_prefiltered" not in vars(grid)  # rejected before any sampling

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

    def test_each_grid_prefilters_once(self, monkeypatch):
        import scipy.ndimage

        calls = []

        def counting_spline_filter(values, *args, **kwargs):
            calls.append(values.shape)
            return spline_filter(values, *args, **kwargs)

        spline_filter = scipy.ndimage.spline_filter
        monkeypatch.setattr(scipy.ndimage, "spline_filter", counting_spline_filter)
        q = np.linspace(-6.0, 6.0, 201)
        grids = [
            WignerGrid(6.0, 2.0 * np.exp(-np.add.outer((q - a) ** 2, q * q))) for a in (0.0, 0.4)
        ]
        for i in range(8):
            mdf_from_wigner(grids[i % 2], 0.1 * i, 0.6, 0.8)
        assert len(calls) == 2

    def test_nodes_at_most_half_a_spacing_apart(self, monkeypatch):
        import scipy.ndimage

        coordinates = []

        def recording_map_coordinates(values, coords, *args, **kwargs):
            coordinates.append(np.array(coords))
            return map_coordinates(values, coords, *args, **kwargs)

        monkeypatch.setattr(scipy.ndimage, "map_coordinates", recording_map_coordinates)
        q = np.linspace(-6.0, 6.0, 161)
        grid = WignerGrid(6.0, 2.0 * np.exp(-np.add.outer(q * q, q * q)))
        rng = np.random.default_rng(5)
        lines = [(0.0, 1.0, 0.0), (0.3, 0.0, 2.0), (5.9, 0.6, 0.8), (0.0, 1.0, 1.0)]
        lines += [(rng.uniform(-6.0, 6.0), math.cos(a), math.sin(a)) for a in rng.uniform(0.0, math.pi, 40)]
        for X, mu, nu in lines:
            coordinates.clear()
            mdf_from_wigner(grid, X, mu, nu)
            assert len(coordinates) == 1  # one spline evaluation per projection
            coords = coordinates[0]
            assert coords.ndim == 2 and coords.shape[0] == 2
            # the nodes run from edge to edge of the sampled square, equally spaced
            for end in (coords[:, 0], coords[:, -1]):
                assert min(abs(end).min(), abs(end - (grid.n - 1)).min()) <= 1e-9
            gaps = np.hypot(*np.diff(coords, axis=1))  # in grid spacings
            assert gaps.max() <= 0.5 + 1e-12
            assert gaps.max() - gaps.min() <= 1e-9
            chord = math.hypot(*(coords[:, -1] - coords[:, 0]))  # in grid spacings
            assert coords.shape[1] <= max(129, 2 * math.ceil(chord + 1e-9) + 1)

    @pytest.mark.parametrize("n", [81, 101, 201, 401])
    @pytest.mark.parametrize("state", ["coherent", "coherent_far", "fock1", "fock2"])
    def test_half_spacing_moves_little_beside_the_spline_error(self, state, n):
        # nodes a quarter spacing apart change a projection by far less than the
        # spline's own error against the exact tomogram
        rng = np.random.default_rng(n)
        if state.startswith("coherent"):
            radius = 3.5 if state == "coherent_far" else 3.5 * math.sqrt(rng.uniform())
            alpha = radius * np.exp(2j * math.pi * rng.uniform())
            extent, q0, p0 = 10.0, SQRT2 * alpha.real, SQRT2 * alpha.imag
            axis = np.linspace(-extent, extent, n)
            values = 2.0 * np.exp(-np.add.outer((axis - q0) ** 2, (axis - p0) ** 2))
            exact = lambda X, mu, nu: coherent_mdf(alpha, *VACUUM, X, mu, nu)
        else:
            m, alpha, extent = int(state[-1]), 0j, 7.0
            axis = np.linspace(-extent, extent, n)
            r2 = np.add.outer(axis * axis, axis * axis)
            laguerre = {1: 1.0 - 2.0 * r2, 2: 1.0 - 4.0 * r2 + 2.0 * r2 * r2}[m]  # L_m(2 r^2)
            values = 2.0 * (-1) ** m * laguerre * np.exp(-r2)
            exact = lambda X, mu, nu: fock_mdf(m, *VACUUM, X, mu, nu)
        grid = WignerGrid(extent, values)
        moved, spline_error = 0.0, 0.0
        for _ in range(32):
            angle, scale = rng.uniform(0.0, math.pi), rng.uniform(0.5, 2.0)
            mu, nu = scale * math.cos(angle), scale * math.sin(angle)
            sigma = math.sqrt(variance_X(1.0, 1j, mu, nu))
            X = mean_X(alpha, *VACUUM, mu, nu) + sigma * rng.uniform(-3.0, 3.0)
            quarter = direct_projection(grid, X, mu, nu, apart=0.25)
            moved = max(moved, abs(mdf_from_wigner(grid, X, mu, nu) - quarter))
            spline_error = max(spline_error, abs(quarter - exact(X, mu, nu)))
        assert moved <= 0.1 * spline_error

    def test_coefficients_read_only(self, vacuum_wigner):
        mdf_from_wigner(vacuum_wigner, 0.3, 0.6, 0.8)
        coefficients = vacuum_wigner._prefiltered
        assert not coefficients.flags.writeable
        with pytest.raises(ValueError):
            coefficients[0, 0] = 1.0


@st.composite
def driven_states(draw):
    """(alpha, n, flow): a coherent state (n None) or a Fock state n (alpha 0)
    of the unit oscillator at a random time under a random constant force."""
    flow = driven_state(draw(st.floats(0.0, 10.0)), draw(st.floats(-0.5, 0.5)))
    if draw(st.booleans()):
        return complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))), None, flow
    return 0j, draw(st.integers(0, 4)), flow


def state_tomogram(alpha, n, flow):
    if n is None:
        return lambda X, mu, nu: coherent_mdf(alpha, *flow, X, mu, nu)
    return lambda X, mu, nu: fock_mdf(n, *flow, X, mu, nu)


def state_wavefunction(alpha, n, flow):
    """The coherent wavefunction, or the Fock one displaced to the flow's
    mean (q0, p0) (the unit oscillator keeps its width, |eps| = 1)."""
    if n is None:
        return lambda x: coherent_wavefunction(alpha, *flow, x)
    eps, eps_dot, beta = flow
    q0, p0 = -SQRT2 * (beta * eps.conjugate()).real, -SQRT2 * (beta * eps_dot.conjugate()).real
    return lambda x: np.exp(1j * p0 * x) * hermite_gauss(n, x - q0)


class TestTransformWebProperties:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(state=driven_states(), n=st.sampled_from([25, 33, 41]))
    def test_reconstructed_density_is_hermitian_with_unit_trace(self, state, n):
        alpha, _, flow = state

        def window(mu, nu):  # the demo's: +-10 sigma around the slice's mean
            centre = mean_X(alpha, *flow, mu, nu)
            sigma = np.sqrt(variance_X(flow[0], flow[1], mu, nu))
            return centre - 10.0 * sigma, centre + 10.0 * sigma

        quad = QuadratureSpec(mu_max=12.0, mu_count=160, y_window=window, y_count=501)
        grid = density_grid_from_mdf(state_tomogram(*state), 7.0, n, quad)
        assert np.max(np.abs(grid.values - grid.values.conj().T)) <= 1e-13
        # the trapezoid trace of a Fock 4 density is off 1 by ~2e-7 on the
        # 25-point grid; the exact density's own trace on the grid is the reference
        exact = np.abs(state_wavefunction(*state)(grid.axis)) ** 2
        assert abs(grid.trace() - np.trapezoid(exact, dx=grid.spacing)) <= 1e-11
        assert abs(grid.trace() - 1.0) <= 1e-6

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(state=driven_states(), X=st.floats(-3.0, 3.0), angle=st.floats(0.3, math.pi - 0.3),
           scale=st.floats(0.5, 2.0))
    def test_density_to_tomogram_matches_closed_form(self, state, X, angle, scale):
        rho = DensityGrid.from_wavefunction(state_wavefunction(*state), 8.0, 321)
        mu, nu = scale * math.cos(angle), scale * math.sin(angle)
        assert abs(mdf_from_density(rho, X, mu, nu) - state_tomogram(*state)(X, mu, nu)) <= 1e-8


class TestWignerLegProperty:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(alpha=st.complex_numbers(max_magnitude=1.0), force=st.floats(-0.8, 0.8),
           t=st.floats(0.3, 6.0), angle=st.floats(0.0, math.pi), scale=st.floats(0.5, 2.0))
    def test_projection_of_driven_coherent_wigner(self, alpha, force, t, angle, scale):
        # a driven coherent state of the unit oscillator keeps the vacuum
        # width: W = 2 exp(-(q - q0)^2 - (p - p0)^2) around its mean (q0, p0)
        flow = driven_state(t, force)
        q0, p0 = mean_X(alpha, *flow, 1.0, 0.0), mean_X(alpha, *flow, 0.0, 1.0)
        axis = np.linspace(-7.0, 7.0, 401)
        wigner = WignerGrid(7.0, 2.0 * np.exp(-np.add.outer((axis - q0) ** 2, (axis - p0) ** 2)))
        mu, nu = scale * math.cos(angle), scale * math.sin(angle)
        mean, sigma = mean_X(alpha, *flow, mu, nu), math.sqrt(variance_X(flow[0], flow[1], mu, nu))
        for X in mean + sigma * np.linspace(-3.5, 3.5, 8):
            exact = coherent_mdf(alpha, *flow, X, mu, nu)
            assert abs(mdf_from_wigner(wigner, X, mu, nu) - exact) <= 1e-6


def direct_projection(W, X, mu, nu, apart=0.5):
    """Radon projection with scipy's own prefilter on every call, on nodes at
    most ``apart`` grid spacings apart: mdf_from_wigner's rule at 0.5, and at
    0.25 the quarter-spacing rule it replaced, kept as an accuracy reference."""
    s2 = mu * mu + nu * nu
    s = math.sqrt(s2)
    q0, p0, dq, dp = mu * X / s2, nu * X / s2, -nu / s, mu / s
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # axis-aligned lines divide by 0
        bounds = [((-W.extent - c) / d, (W.extent - c) / d) for c, d in ((q0, dq), (p0, dp))]
    lo = max(min(b) for b in bounds)
    hi = min(max(b) for b in bounds)
    tau = np.linspace(lo, hi, max(129, 2 * math.ceil((hi - lo) / (2.0 * apart * W.spacing)) + 1))
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
