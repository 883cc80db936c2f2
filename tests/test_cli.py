import math

import numpy as np
import pytest

from osctomo import cli, fock_mdf, parametric_resonance_epsilon
from osctomo.figures import FigureConfig, figure_table


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    rows = [
        line.split(",")
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    header, data = rows[0], np.array(rows[1:], dtype=float)
    return header, data


class TestEval:
    def test_vacuum_tomogram_value(self, capsys):
        code, out, _ = run(
            ["eval", "coherent_mdf", "alpha=0", "profile=constant:1", "t=0", "X=0", "mu=1", "nu=0"],
            capsys,
        )
        assert code == 0
        assert out.strip() == "0.564189583548"

    def test_frame_map_quarter_period(self, capsys):
        code, out, _ = run(
            ["eval", "frame_map", "profile=constant:1", "t=1.5707963268", "X=0.3", "mu=1", "nu=0"],
            capsys,
        )
        assert code == 0
        x, mu, nu = map(float, out.split())
        assert (x, mu, nu) == pytest.approx((0.3, 0.0, 1.0), abs=1e-8)

    def test_wronskian_drift(self, capsys):
        code, out, _ = run(["eval", "wronskian", "profile=resonance:0.01", "t=20"], capsys)
        assert code == 0
        assert float(out) <= 1e-8

    def test_hermite(self, capsys):
        code, out, _ = run(["eval", "hermite", "n=2", "y=1"], capsys)
        assert code == 0
        assert out.strip() == "2"

    def test_beta_driven(self, capsys):
        code, out, _ = run(
            ["eval", "beta", "profile=constant:1", "force=1", "t=3.14159265358979"], capsys
        )
        assert code == 0
        value = complex(out.strip())
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_green_and_propagator_ops(self, capsys):
        code, out, _ = run(["eval", "green_free", "X=0", "Z=0", "t=1"], capsys)
        assert code == 0
        assert abs(complex(out.strip())) == pytest.approx((2 * math.pi) ** -0.5, abs=1e-12)
        code, out, _ = run(
            ["eval", "quantum_propagator", "X=0.4", "Xp=0.4", "Z=0.1", "Zp=0.1",
             "t=1.3", "profile=constant:1", "force=1"],
            capsys,
        )
        assert code == 0
        k = complex(out.strip())
        assert k.real > 0 and abs(k.imag) < 1e-12

    def test_table_profile(self, capsys, tmp_path):
        table = tmp_path / "profile.txt"
        table.write_text("0.0 1.0\n50.0 1.0\n")
        code, out, _ = run(["eval", "epsilon", f"profile=table:{table}", "t=1.5"], capsys)
        assert code == 0
        eps = complex(out.split()[0])
        assert eps == pytest.approx(np.exp(1.5j), abs=1e-9)

    def test_usage_errors(self, capsys):
        assert run(["eval", "no_such_op"], capsys)[0] == 1
        assert run(["eval", "coherent_mdf", "alpha=0"], capsys)[0] == 1  # missing args
        assert run(["eval", "hermite", "n=2", "y=1", "bogus=3"], capsys)[0] == 1
        assert run(["eval", "hermite", "n=two", "y=1"], capsys)[0] == 1
        assert run(["eval", "coherent_mdf", "alpha=0", "profile=weird:1",
                    "t=0", "X=0", "mu=1", "nu=0"], capsys)[0] == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_inputs_rejected(self, capsys, value):
        code, out, err = run(["eval", "green_sho", "X=0", "Z=0.5", f"t={value}"], capsys)
        assert (code, out) == (1, "")
        assert "not finite" in err
        code, out, _ = run(["eval", "coherent_mdf", f"alpha={value}", "profile=constant:1",
                            "t=0", "X=0", "mu=1", "nu=0"], capsys)
        assert (code, out) == (1, "")

    @pytest.mark.parametrize("op", [["frame_map"], ["coherent_mdf", "alpha=0.5+0.5j"]])
    def test_zero_frame_is_usage_error(self, capsys, op):
        code, out, err = run(["eval", *op, "profile=constant:1", "t=0.7", "X=0.2", "mu=0", "nu=0"],
                             capsys)
        assert (code, out) == (1, "")
        assert "(0, 0)" in err

    def test_unsorted_table_rejected(self, capsys, tmp_path):
        t = np.arange(0.0, 10.5, 0.5)
        rows = np.column_stack([t, 1.0 + 0.3 * np.sin(t)])
        table = tmp_path / "shuffled.txt"
        np.savetxt(table, rows[np.random.default_rng(5).permutation(len(rows))])
        code, out, err = run(["eval", "epsilon", f"profile=table:{table}", "t=1.5"], capsys)
        assert (code, out) == (1, "")
        assert "strictly increasing" in err

    def test_argparse_usage_exit_code(self, capsys):
        assert run(["figure"], capsys)[0] == 1  # missing --id
        assert run(["bogus-command"], capsys)[0] == 1


class TestFigure:
    def test_writes_files_with_expected_structure(self, capsys, tmp_path):
        code, out, _ = run(["figure", "--id", "1", "--out", str(tmp_path)], capsys)
        assert code == 0
        csv_path, gp_path = tmp_path / "fig1.csv", tmp_path / "fig1.gp"
        assert csv_path.exists() and gp_path.exists()
        text = csv_path.read_text()
        assert text.startswith("# osctomo figure 1")
        assert "# grid:" in text
        header, data = read_csv(csv_path)
        assert header == ["x", "t", "value"]
        assert data.shape == (101 * 161, 3)
        assert np.all(np.isfinite(data)) and np.all(data[:, 2] >= 0.0)
        assert "dgrid3d" in gp_path.read_text()

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["figure", "--id", "4", "--out", str(a)], capsys)[0] == 0
        assert run(["figure", "--id", "4", "--out", str(b)], capsys)[0] == 0
        assert (a / "fig4.csv").read_bytes() == (b / "fig4.csv").read_bytes()

    @pytest.mark.parametrize("fig_id", [2, 3, 5, 6])
    def test_all_figures_write(self, capsys, tmp_path, fig_id):
        code, _, _ = run(
            ["figure", "--id", str(fig_id), "--out", str(tmp_path),
             "--t-count", "21", "--x-count", "41", "--mu-count", "21"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / f"fig{fig_id}.csv").exists()

    def test_k_zero_time_independent_surface(self, capsys, tmp_path):
        code, _, _ = run(["figure", "--id", "1", "--out", str(tmp_path), "--k", "0"], capsys)
        assert code == 0
        _, data = read_csv(tmp_path / "fig1.csv")
        x, value = data[:, 0], data[:, 2]
        reference = np.exp(-x * x) / math.sqrt(math.pi)
        assert np.max(np.abs(value - reference)) <= 1e-12

    def test_config_file_equivalent_to_flags(self, capsys, tmp_path):
        config = tmp_path / "fig.cfg"
        config.write_text("k = 0.02\nt_count = 31\n# comment line\nx_count = 51\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["figure", "--id", "2", "--out", str(a), "--config", str(config)], capsys)[0] == 0
        assert run(["figure", "--id", "2", "--out", str(b), "--k", "0.02",
                    "--t-count", "31", "--x-count", "51"], capsys)[0] == 0
        assert (a / "fig2.csv").read_bytes() == (b / "fig2.csv").read_bytes()

    def test_invalid_config_names_field(self, capsys, tmp_path):
        code, _, err = run(
            ["figure", "--id", "1", "--out", str(tmp_path), "--t-count", "1"], capsys
        )
        assert code == 1
        assert "t_count" in err

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("resolution = 5\n")
        code, _, err = run(
            ["figure", "--id", "1", "--out", str(tmp_path), "--config", str(config)], capsys
        )
        assert code == 1
        assert "resolution" in err


def rowwise_table(fig_id, cfg):
    """One fock_mdf call per slice: the loop form figure_table must reproduce.

    eps comes from one array evaluation of the closed form over the time
    grid, as in figure_table; a scalar call per time may differ in the last
    bit, because numpy's vectorised complex product can round differently.
    """
    frames = {1: (1.0, 0.0), 2: (1 / math.sqrt(2), 1 / math.sqrt(2)), 3: (0.0, 1.0)}
    frames[4] = frames[2]
    n = 2 if fig_id == 4 else 0
    x = np.linspace(cfg.x_min, cfg.x_max, cfg.x_count)
    t = np.linspace(0.0, cfg.t_max, cfg.t_count)
    eps, eps_dot = parametric_resonance_epsilon(cfg.k, t)
    mus = np.linspace(0.0, 1.0, cfg.mu_count + 2)[1:-1]
    nus = np.sqrt(1.0 - mus**2)
    if fig_id in frames:
        return np.array([fock_mdf(n, e, ed, 0.0, x, *frames[fig_id]) for e, ed in zip(eps, eps_dot)])
    if fig_id == 5:
        e, ed = parametric_resonance_epsilon(cfg.k, cfg.t_fixed)
        return np.array([fock_mdf(n, e, ed, 0.0, x, m, v) for m, v in zip(mus, nus)])
    columns = [fock_mdf(n, e, ed, 0.0, cfg.x_fixed, mus, nus) for e, ed in zip(eps, eps_dot)]
    return np.array(columns).T


class TestFigureTables:
    def test_fig4_slices_have_two_interior_zeros(self):
        from osctomo.figures import count_near_zero_minima

        _, x, t, values = figure_table(4, FigureConfig())
        for row in values:
            assert count_near_zero_minima(row) == 2

    def test_fig1_slices_are_gaussian(self):
        from osctomo.figures import gaussian_slice_residual

        _, x, t, values = figure_table(1, FigureConfig())
        assert gaussian_slice_residual(x, values) <= 1e-8

    def test_sweep_frames_on_unit_circle(self):
        _, x, mus, _ = figure_table(5, FigureConfig(mu_count=31))
        assert np.all((mus > 0.0) & (mus < 1.0))
        nus = np.sqrt(1.0 - mus**2)
        assert np.max(np.abs(mus**2 + nus**2 - 1.0)) < 1e-15

    @pytest.mark.parametrize("fig_id", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize(
        "cfg",
        [FigureConfig(), FigureConfig(k=0.0), FigureConfig(k=0.2, t_count=23, x_count=37, mu_count=17)],
        ids=["default", "k0", "odd"],
    )
    def test_broadcast_equals_loop(self, fig_id, cfg):
        _, _, _, values = figure_table(fig_id, cfg)
        assert np.array_equal(values, rowwise_table(fig_id, cfg))


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run(["selftest"], capsys)
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("[")]
        assert len(lines) == 13
        assert all("PASS" in line for line in lines)
