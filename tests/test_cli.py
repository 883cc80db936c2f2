import cmath
import math
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osctomo import _csvbody
from osctomo import (
    ClassicalPropagator,
    DriveProfile,
    cli,
    figures,
    flow_at,
    fock_mdf,
    parametric_resonance_epsilon,
)
from osctomo.errors import ConsistencyError
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

    @pytest.mark.parametrize("force, column", [("0", "0"), ("0.0", "0"), ("-0.5", "-0.5"), ("2", "2")])
    def test_a_given_force_replaces_the_table_column(self, capsys, tmp_path, force, column):
        # zero too: an explicit force=0 switches off the table's force column
        with_column, replaced = tmp_path / "forced.txt", tmp_path / "replaced.txt"
        with_column.write_text("0 1 1\n5 1 1\n")
        replaced.write_text(f"0 1 {column}\n5 1 {column}\n")
        given = run(["eval", "beta", f"profile=table:{with_column}", "t=1", f"force={force}"], capsys)
        assert given == run(["eval", "beta", f"profile=table:{replaced}", "t=1"], capsys)
        assert given[0] == 0

    def test_a_zero_force_gives_beta_exactly_zero_on_every_profile(self, capsys, tmp_path):
        table = tmp_path / "forced.txt"
        table.write_text("0 1 1\n5 1 1\n")
        for spec in ("constant:1.3", "free", "resonance:0.2", f"table:{table}"):
            assert run(["eval", "beta", f"profile={spec}", "t=1", "force=0"], capsys) == (0, "0-0j\n", "")

    def test_an_absent_force_keeps_the_table_column(self, capsys, tmp_path):
        table = tmp_path / "forced.txt"
        table.write_text("0 1 1\n5 1 1\n")
        code, out, _ = run(["eval", "beta", f"profile=table:{table}", "t=1"], capsys)
        assert code == 0 and abs(complex(out)) > 0.5

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

    @pytest.mark.parametrize("omega", ["nan", "inf", "1e200"])
    def test_non_finite_constant_profile_is_usage_error(self, capsys, omega):
        code, out, err = run(["eval", "epsilon", f"profile=constant:{omega}", "t=1"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "op",
        [["beta"], ["coherent_mdf", "alpha=0.5", "X=0", "mu=1", "nu=0.5"],
         ["quantum_propagator", "X=0.1", "Xp=-0.3", "Z=0.2", "Zp=0.4"]],
        ids=["beta", "coherent_mdf", "quantum_propagator"],
    )
    def test_overflowing_drive_integral_exits_2(self, capsys, op):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning may escape either
            code, out, err = run(["eval", *op, "profile=free", "force=1e308", "t=5"], capsys)
        assert (code, out) == (2, "")
        assert "drive integral" in err

    def test_large_constant_force_takes_its_finite_exact_beta(self, capsys):
        # |beta| = 1e308 |e^{5j} - 1| / sqrt 2, where a Simpson sum's partial sums overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning may escape either
            code, out, err = run(["eval", "beta", "profile=constant:1", "force=1e308", "t=5"], capsys)
        assert (code, err) == (0, "")
        beta = complex(out.strip())
        assert cmath.isfinite(beta)
        assert abs(beta) == pytest.approx(1e308 * abs(cmath.exp(5j) - 1.0) / math.sqrt(2.0), rel=1e-11)

    @pytest.mark.parametrize("spec, integral", [
        ("constant:1.7", lambda t: complex(math.sin(1.7 * t) / 1.7, (1.0 - math.cos(1.7 * t)) / 1.7**2)),
        ("free", lambda t: complex(t, t * t / 2.0)),
    ])
    def test_constant_force_beta_is_the_closed_form(self, capsys, spec, integral):
        # to the 12 digits printed
        for force, t in ((0.6, 3.0), (1.0, 3.0), (-0.7, 12.5)):
            code, out, _ = run(["eval", "beta", f"profile={spec}", f"force={force}", f"t={t}"], capsys)
            assert code == 0
            assert complex(out) == pytest.approx(-1j / math.sqrt(2.0) * force * integral(t), rel=1e-11)

    @pytest.mark.parametrize("op", [["variance_X"]], ids=["variance_X"])
    def test_overflowing_coherent_variance_exits_2(self, capsys, op):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning may escape either
            code, out, err = run(["eval", *op, "profile=constant:1", "t=1", "mu=1", "nu=1e200"], capsys)
        assert (code, out) == (2, "")
        assert "frame (mu, nu) = (1.0, 1e+200): |r|^2" in err and "overflows" in err

    def test_coherent_tomogram_of_a_frame_whose_variance_overflows_is_finite(self, capsys):
        # exp(-Y^2) / (sqrt(pi) |r|) squares no |r|: at Y ~ 1 it is ~ e^-1 / (sqrt(pi) 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["eval", "coherent_mdf", "alpha=0", "X=1e200", "profile=constant:1", "t=1",
                                  "mu=1", "nu=1e200"], capsys)
        assert (code, out, err) == (0, "2.0755374871e-201\n", "")

    @pytest.mark.parametrize("op", [["fock_mdf", "n=2"], ["cross_mdf", "n=1", "m=2"]], ids=["fock_mdf", "cross_mdf"])
    @pytest.mark.parametrize("drive", [["profile=free", "force=1e156", "mu=0", "nu=1e153"]], ids=["large-frame"])
    def test_overflowing_fock_shift_exits_2(self, capsys, op, drive):
        # a finite beta whose mean <X> overflows is named, rather than printing nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning may escape either
            code, out, err = run(["eval", *op, *drive, "t=1.3", "X=0.3"], capsys)
        assert (code, out) == (2, "")
        assert "frame (mu, nu) = (0.0, 1e+153): <X> = sqrt(2) Re((alpha - beta) conj r) overflows" in err

    @pytest.mark.parametrize("op", [["coherent_mdf", "alpha=0"], ["fock_mdf", "n=0"], ["fock_mdf", "n=2"],
                                    ["cross_mdf", "n=1", "m=2"]], ids=["coherent_mdf", "fock_mdf-0", "fock_mdf-2",
                                                                       "cross_mdf"])
    def test_finite_mean_far_past_X_underflows_to_0(self, capsys, op):
        # <X> = 1.547e308 is finite, so Y = (X - <X>) / |r| is too, and every tomogram of the
        # one family reads 0 there, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["eval", *op, "profile=free", "force=1e308", "mu=0.6", "nu=0.8", "t=1.3",
                                  "X=0.3"], capsys)
        assert (code, err) == (0, "") and complex(out) == 0.0

    def test_mean_of_a_frame_whose_variance_overflows_stays_finite(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the mean needs no |r|^2, and squares none
            code, out, err = run(["eval", "mean_X", "alpha=0.5", "profile=constant:1", "t=1",
                                  "mu=1", "nu=1e200"], capsys)
        assert (code, out, err) == (0, "-5.95009839529e+199\n", "")

    @pytest.mark.parametrize("op", [["mean_X"], ["coherent_mdf", "X=0.3"]], ids=["mean_X", "coherent_mdf"])
    def test_overflowing_mean_exits_2(self, capsys, op):
        # <X> = sqrt(2) 1.5e308 is past the double range: named, where mean_X printed inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["eval", *op, "alpha=1.5e308", "profile=constant:1", "t=0", "mu=1", "nu=0"], capsys)
        assert (code, out) == (2, "")
        assert "frame (mu, nu) = (1.0, 0.0): <X> = sqrt(2) Re((alpha - beta) conj r) overflows" in err

    def test_too_many_steps_is_usage_error(self, capsys):
        # an RK4 profile's grid of 1e10 steps is rejected before it is allocated
        code, out, err = run(["eval", "epsilon", "profile=resonance:0.1", "t=1e7"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage error:") and "MAX_STEPS" in err
        # the free profile's closed form builds no grid, so it has no step bound
        assert run(["eval", "epsilon", "profile=free", "t=1e7"], capsys) == (0, "1+10000000j 0+1j\n", "")

    def test_overflowing_flow_exits_2(self, capsys, tmp_path):
        # omega_sq = 1e300 overflows the RK4 steps to NaN; a table profile is solved by RK4
        table = tmp_path / "huge.txt"
        table.write_text("0 1e300\n5 1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning may escape either
            code, out, err = run(["eval", "epsilon", f"profile=table:{table}", "t=1"], capsys)
        assert (code, out) == (2, "")
        assert "Wronskian drift nan" in err

    def test_large_constant_frequency_takes_the_exact_flow(self, capsys):
        # cos 1e150 + 1j sin(1e150) / 1e150, where the RK4 product overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["eval", "epsilon", "profile=constant:1e150", "t=1"], capsys)
        assert (code, err) == (0, "")
        assert out == "-0.723207235222+6.90631084532e-151j -6.90631084532e+149-0.723207235222j\n"

    def test_constant_flow_is_the_closed_form_to_12_digits(self, capsys):
        # cos 20 = 0.408082061813392..., which RK4 at step 1e-3 rounds to ...814
        code, out, _ = run(["eval", "epsilon", "profile=constant:1", "t=20"], capsys)
        assert (code, out) == (0, "0.408082061813+0.912945250728j -0.912945250728+0.408082061813j\n")

    def test_unforced_closed_forms_take_no_drive_grid(self, capsys):
        # beta of the zero force is exactly 0, and green_sho keeps no step bound at large |t|
        assert run(["eval", "beta", "profile=free", "t=20"], capsys) == (0, "0-0j\n", "")
        # and so is an RK4 profile's, with no drive grid either
        assert run(["eval", "beta", "profile=resonance:0.3", "t=5"], capsys) == (0, "0-0j\n", "")
        out = "0.612014671945-0.0623280472411j\n"
        assert run(["eval", "green_sho", "X=0.1", "Z=0.2", "t=1e7"], capsys) == (0, out, "")

    def test_driven_forms_beyond_max_steps_are_usage_errors(self, capsys, tmp_path):
        # 1e10 RK4 steps would be ~1 TB; the check comes first
        table = tmp_path / "unit.txt"
        table.write_text("0 1\n2e7 1\n")
        for op in (["green_driven", "X=0.1", "Z=0.2"], ["quantum_propagator", "X=0", "Xp=0.1", "Z=0", "Zp=0.2"]):
            code, out, err = run(["eval", *op, f"profile=table:{table}", "t=1e7"], capsys)
            assert (code, out) == (1, "")
            assert err.startswith("usage error:") and "MAX_STEPS" in err
        # the unforced constant:1 flow builds no grid: its kernel is green_sho's
        sho = run(["eval", "green_sho", "X=0.1", "Z=0.2", "t=1e7"], capsys)
        assert sho == (0, "0.612014671945-0.0623280472411j\n", "")
        assert run(["eval", "green_driven", "X=0.1", "Z=0.2", "profile=constant:1", "t=1e7"], capsys) == sho
        out = "0.376499340959+0.0383429838945j\n"
        argv = ["eval", "quantum_propagator", "X=0", "Xp=0.1", "Z=0", "Zp=0.2", "profile=constant:1", "t=1e7"]
        assert run(argv, capsys) == (0, out, "")

    @pytest.mark.parametrize("n, y", [("3", "1e200"), ("200", "30")])
    def test_overflowing_hermite_exits_2(self, capsys, n, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning may escape either
            code, out, err = run(["eval", "hermite", f"n={n}", f"y={y}"], capsys)
        assert (code, out) == (2, "")
        assert f"H_{n}(y) overflows" in err and f"y = {float(y):g}" in err

    @pytest.mark.parametrize(
        "op, value",
        [(["coherent_mdf", "alpha=0"], "0"), (["fock_mdf", "n=2"], "0"),
         (["cross_mdf", "n=1", "m=2"], "0+0j")],
        ids=["coherent_mdf", "fock_mdf", "cross_mdf"],
    )
    def test_far_shifted_tomogram_underflows_without_warnings(self, capsys, op, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["eval", *op, "X=0", "mu=1", "nu=0.5", "t=1", "force=1e300"],
                                 capsys)
        assert (code, out.strip(), err) == (0, value, "")

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

    @pytest.mark.parametrize(
        "rows, t", [("0 1\n5 1\n", "12"), ("0.5 1\n50 1\n", "1.5")], ids=["ends-early", "starts-late"]
    )
    def test_table_must_cover_zero_to_t(self, capsys, tmp_path, rows, t):
        table = tmp_path / "short.txt"
        table.write_text(rows)
        for op in (["epsilon"], ["wronskian"], ["coherent_mdf", "alpha=0", "X=0", "mu=1", "nu=0"]):
            code, out, err = run(["eval", *op, f"profile=table:{table}", f"t={t}"], capsys)
            assert (code, out) == (1, "")
            assert "covers t in" in err

    @pytest.mark.parametrize(
        "rows", ["0 1 0\n2 1 nan\n5 1 0\n", "0 1\n2 inf\n5 1\n"], ids=["nan-force", "inf-omega-sq"]
    )
    def test_non_finite_table_rejected(self, capsys, tmp_path, rows):
        table = tmp_path / "non_finite.txt"
        table.write_text(rows)
        for op in (["beta"], ["frame_map", "X=0.3", "mu=1", "nu=0"]):
            code, out, err = run(["eval", *op, f"profile=table:{table}", "t=3"], capsys)
            assert (code, out) == (1, "")
            assert "must be finite" in err

    @pytest.mark.parametrize(
        "op, message",
        [
            (["epsilon", "profile=resonance:0.1", "t=-1"], "t must be >= 0"),
            (["beta", "profile=resonance:0.1", "force=1", "t=-1"], "t must be >= 0"),
            (["coherent_mdf", "alpha=0", "X=0", "mu=1", "nu=0", "profile=resonance:0.1", "t=-1"],
             "t must be >= 0"),
            (["wronskian", "t=-1"], "t must be >= 0"),
            (["epsilon", "t=1", "step=0"], "0 < step <= t"),
            (["epsilon", "t=1", "step=5"], "0 < step <= t"),
            (["wronskian", "t=2", "step=-1e-3"], "0 < step <= t"),
        ],
        ids=["epsilon", "beta", "coherent_mdf", "wronskian", "step-zero", "step-above-t",
             "step-negative"],
    )
    def test_negative_time_and_bad_step_rejected(self, capsys, op, message):
        code, out, err = run(["eval", *op], capsys)
        assert (code, out) == (1, "")
        assert message in err

    def test_closed_form_before_time_zero(self, capsys):
        # e^{-i} and i e^{-i}; beta of the force 1 is -(i/sqrt 2)(-sin 1 + i(1 - cos 1))
        out = "0.540302305868-0.841470984808j 0.841470984808+0.540302305868j\n"
        assert run(["eval", "epsilon", "profile=constant:1", "t=-1"], capsys) == (0, out, "")
        out = "0.325055356816+0.595009839529j\n"
        assert run(["eval", "beta", "profile=constant:1", "force=1", "t=-1"], capsys) == (0, out, "")
        out = "0.564189583548\n"  # the vacuum tomogram at X = 0, pi^{-1/2}
        argv = ["eval", "coherent_mdf", "alpha=0", "X=0", "mu=1", "nu=0", "t=-1"]
        assert run(argv, capsys) == (0, out, "")

    @pytest.mark.parametrize("profile", ["resonance:0.1", "free"])
    @pytest.mark.parametrize(
        "op, value",
        [(["green_driven", "X=0.3", "Z=-0.4"], lambda g: g(0.3, -0.4, 0.0)),
         (["quantum_propagator", "X=0.3", "Xp=0.1", "Z=-0.4", "Zp=0.2"],
          lambda g: g(0.3, -0.4, 0.0) * g(0.1, 0.2, 0.0).conjugate())],
        ids=["green_driven", "quantum_propagator"],
    )
    def test_non_unit_profile_prints_the_kernel_of_its_flow(self, capsys, op, value, profile):
        kernel = ClassicalPropagator.from_epsilon(*flow_at(cli._parse_profile(profile, None)[0], 1.0)).kernel
        out = f"{cli._fmt(value(kernel))}\n"
        assert run(["eval", *op, f"profile={profile}", "t=1"], capsys) == (0, out, "")

    @pytest.mark.parametrize(
        "op", [["green_driven", "X=0", "Z=0"], ["quantum_propagator", "X=0", "Xp=0.1", "Z=0", "Zp=0.2"]],
        ids=["green_driven", "quantum_propagator"],
    )
    def test_profile_without_closed_form_before_time_zero_is_usage_error(self, capsys, op):
        code, out, err = run(["eval", *op, "profile=resonance:0.1", "t=-1"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: t=-1.0:") and "t must be >= 0" in err

    def test_unit_table_equals_constant_profile(self, capsys, tmp_path):
        table = tmp_path / "unit.txt"
        table.write_text("0 1 0.7\n5 1 0.7\n")
        for op in (["green_driven", "X=0.3", "Z=-0.2"],
                   ["quantum_propagator", "X=0.3", "Xp=-0.5", "Z=-0.2", "Zp=0.6"]):
            from_table = run(["eval", *op, f"profile=table:{table}", "t=1.1"], capsys)
            constant = run(["eval", *op, "profile=constant:1", "force=0.7", "t=1.1"], capsys)
            assert from_table[0] == 0 and from_table == constant

    def test_wronskian_at_time_zero_still_valid(self, capsys):
        code, out, _ = run(["eval", "wronskian", "t=0"], capsys)
        assert code == 0
        assert float(out) <= 1e-12

    def test_usage_error_exit_code(self, capsys):
        assert run(["figure"], capsys)[0] == 1  # missing --id
        assert run(["bogus-command"], capsys)[0] == 1

    def test_a_call_does_not_depend_on_the_calls_before_it(self, capsys):
        calls = [
            ["eval", "hermite", "n=2", "y=1"],
            ["eval", "hermite", "n=2"],
            ["eval"],
            ["eval", "epsilon", "profile=resonance:0.1", "t=0.5"],
            ["bogus-command"],
            ["eval", "hermite", "n=3", "y=0.5"],
        ]
        in_order = [run(argv, capsys) for argv in calls]
        reversed_order = [run(argv, capsys) for argv in reversed(calls)][::-1]
        assert in_order == reversed_order
        assert [code for code, _, _ in in_order] == [0, 1, 1, 0, 1, 0]


# every eval operation with valid arguments, and the malformed values of the
# library's own input rules it can reach (green_sho and green_free have none,
# so they get a value the argument reader rejects); a t < 0 or a grid above
# MAX_STEPS is malformed only on a profile without a closed form
BEFORE_ZERO, TOO_LONG = "profile=resonance:0.1 t=-1", "profile=resonance:0.1 t=1e7"
EVAL_CASES = {
    "epsilon": (["t=1"], [BEFORE_ZERO, "step=0", "step=2"]),
    "wronskian": (["t=1"], ["t=-1", "step=0", "step=2"]),
    "beta": (["force=1", "t=1"], [BEFORE_ZERO, "step=0", "step=2"]),
    "frame_map": (["t=1", "X=0.3", "mu=1", "nu=0.5"], [BEFORE_ZERO, "step=0", "step=2"]),
    "coherent_mdf": (["alpha=0.5+0.2j", "t=1", "X=0.3", "mu=1", "nu=0.5"], [BEFORE_ZERO, "step=2"]),
    "fock_mdf": (["n=2", "t=1", "X=0.3", "mu=1", "nu=0.5"], ["n=-1", BEFORE_ZERO, "step=0"]),
    "cross_mdf": (["n=2", "m=1", "t=1", "X=0.3", "mu=1", "nu=0.5"], ["m=-2", "n=-1", "step=2"]),
    "mean_X": (["alpha=0.5+0.2j", "t=1", "mu=1", "nu=0.5"], [BEFORE_ZERO, "step=0"]),
    "variance_X": (["t=1", "mu=1", "nu=0.5"], [BEFORE_ZERO, "step=2"]),
    "annihilation_eigencheck": (
        ["alpha=0.5+0.2j", "t=1", "mu=1", "nu=0.5", "k=0.7"], ["k=0", "h=0", "h=-1e-3", BEFORE_ZERO]
    ),
    "hermite": (["n=3", "y=0.5"], ["n=-1"]),
    "green_sho": (["X=0.1", "Z=0.2", "t=1"], ["t=nan"]),
    "green_free": (["X=0.1", "Z=0.2", "t=1"], ["Z=inf"]),
    "green_driven": (
        ["X=0.1", "Z=0.2", "t=1", "profile=constant:1", "force=0.5"], [TOO_LONG],
    ),
    "quantum_propagator": (
        ["X=0.1", "Xp=-0.3", "Z=0.2", "Zp=0.4", "t=1", "profile=constant:1", "force=0.5"], [TOO_LONG],
    ),
}


def with_override(args, overrides):
    """args with the key of each space-separated key=value in ``overrides``
    set to its value (added if absent)."""
    for override in overrides.split():
        key = override.partition("=")[0]
        args = [a for a in args if a.partition("=")[0] != key] + [override]
    return args


class TestEvalChecks:
    """What eval accepts and reports follows the library's one copy of each check."""

    @pytest.mark.parametrize("t", ["7", "8", "9"])
    def test_frame_map_of_the_inverted_forced_oscillator(self, capsys, tmp_path, t):
        # images of ~1e3 whose two forms agree to roundoff of that size
        table = tmp_path / "inverted.txt"
        table.write_text("0 -1 1\n10 -1 1\n")
        code, out, err = run(["eval", "frame_map", f"profile=table:{table}", f"t={t}",
                              "X=0.3", "mu=1", "nu=0.5"], capsys)
        assert (code, err) == (0, "")
        assert len(out.split()) == 3

    @pytest.mark.parametrize("alpha", ["inf", "0.5-infj", "0.5-infi"])
    def test_only_a_final_i_is_the_imaginary_unit(self, capsys, alpha):
        # the i of inf stays, so an infinite value is not finite, not malformed
        args = ["coherent_mdf", "profile=constant:1", "t=1", "X=0", "mu=1", "nu=0.5"]
        code, out, err = run(["eval", *args, f"alpha={alpha}"], capsys)
        assert (code, out) == (1, "")
        assert "not finite" in err
        with_i = run(["eval", *args, "alpha=0.7+0.3i"], capsys)
        assert with_i[0] == 0 and with_i == run(["eval", *args, "alpha=0.7+0.3j"], capsys)

    def test_frame_map_accepts_the_flow_epsilon_accepts(self, capsys, tmp_path):
        # the RK4 flow of omega = 8 (a table profile, so not the closed form) has
        # det Lambda off 1 by ~7e-10 at t = 200: inside DET_TOL, so the map is computed
        table = tmp_path / "omega8.txt"
        table.write_text("0 64\n250 64\n")
        args = [f"profile=table:{table}", "t=200"]
        assert run(["eval", "epsilon", *args], capsys)[0] == 0
        code, out, err = run(["eval", "frame_map", *args, "X=0.3", "mu=1", "nu=0.5"], capsys)
        prop = ClassicalPropagator.from_profile(DriveProfile.custom(lambda t: 64.0), 200.0)
        assert 1e-10 < abs(prop.inv.det - 1.0) < 1e-8
        assert (code, err) == (0, "")
        assert out == " ".join(map(cli._fmt, prop.frame_map(0.3, 1.0, 0.5))) + "\n"

    @pytest.mark.parametrize(
        "op, shown",
        [
            (["green_sho", "X=1e200", "Z=0", "t=1"], "(1e+200, 0.0)"),
            (["green_free", "X=0.1", "Z=1e155", "t=1"], "(0.1, 1e+155)"),
            (["quantum_propagator", "X=1e200", "Xp=0", "Z=0", "Zp=0", "t=1"], "(1e+200, 0.0)"),
        ],
        ids=["green_sho", "green_free", "quantum_propagator"],
    )
    def test_green_phase_overflow_exits_2(self, capsys, op, shown):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["eval", *op], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("numerical invariant failure:") and f"(X, Z) = {shown}" in err

    def test_green_phase_past_its_rounding_bound_exits_2(self, capsys):
        # a phase of ~1e299 rad is finite, but its rounding error leaves no correct digit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["eval", "green_driven", "profile=constant:1", "force=1e300", "X=0.3", "Z=-0.4",
                                  "t=0.3"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("numerical invariant failure: Green function phase at (X, Z) = (0.3, -0.4)")
        assert "round by more than 1e-06 rad" in err

    def test_eval_calls_the_library_through_the_package_root(self, capsys, monkeypatch):
        from osctomo import states

        monkeypatch.setattr(states, "coherent_mdf", lambda *args: 0.125)
        code, out, _ = run(
            ["eval", "coherent_mdf", "alpha=0", "t=0", "X=0", "mu=1", "nu=0"], capsys
        )
        assert (code, out) == (0, "0.125\n")


class TestProfileMemo:
    """eval keeps the profiles it parsed, each with the record of its RK4
    flow, so a later request on one reads that record; no output depends
    on the requests before it."""

    RESONANCE = ["profile=resonance:0.2", "force=0.7"]

    def test_same_spec_and_force_give_the_same_profile(self):
        first = cli._parse_profile("resonance:0.2", 0.7)
        assert cli._parse_profile("resonance:0.2", 0.7) is first
        assert cli._parse_profile("resonance:0.2", None)[0] is not first[0]
        for k in range(2 * cli._PROFILES_KEPT):
            cli._parse_profile(f"constant:{1 + k}", None)
        assert len(cli._PROFILES) == cli._PROFILES_KEPT
        assert cli._parse_profile("resonance:0.2", 0.7) is not first

    def test_rewritten_table_gives_the_new_tables_output(self, capsys, tmp_path):
        table = tmp_path / "profile.txt"
        argv = ["eval", "epsilon", f"profile=table:{table}", "t=1.5"]
        table.write_text("0 1\n5 1\n")
        unit = run(argv, capsys)
        table.write_text("0 4\n5 4\n")
        double = run(argv, capsys)
        assert unit[0] == double[0] == 0 and unit != double
        assert complex(double[1].split()[0]) == pytest.approx(complex(math.cos(3.0), math.sin(3.0) / 2), abs=1e-9)
        cli._PROFILES.clear()
        assert run(argv, capsys) == double

    def test_unsorted_table_exits_1_on_every_call(self, capsys, tmp_path):
        t = np.arange(0.0, 10.5, 0.5)
        table = tmp_path / "shuffled.txt"
        np.savetxt(table, np.column_stack([t, 1.0 + 0.3 * np.sin(t)])[::-1])
        for _ in range(3):
            code, out, err = run(["eval", "epsilon", f"profile=table:{table}", "t=1.5"], capsys)
            assert (code, out) == (1, "") and "strictly increasing" in err
        assert not any(key[0] == f"table:{table}" for key in cli._PROFILES)

    def test_table_without_rows_is_a_usage_error(self, capsys, tmp_path):
        table = tmp_path / "empty.txt"
        table.write_text("# t omega_sq\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["eval", "epsilon", f"profile=table:{table}", "t=1"], capsys)
        assert (code, out) == (1, "") and "needs columns" in err

    @pytest.mark.parametrize("op", [["epsilon"], ["beta"], ["wronskian"],
                                    ["coherent_mdf", "alpha=0.5+0.2j", "X=0.3", "mu=0.8", "nu=0.6"]],
                             ids=["epsilon", "beta", "wronskian", "coherent_mdf"])
    def test_output_does_not_depend_on_a_longer_request_before(self, capsys, op):
        argv = ["eval", *op, *self.RESONANCE, "t=3.4567"]
        cli._PROFILES.clear()
        fresh = run(argv, capsys)
        assert run(["eval", "epsilon", *self.RESONANCE, "t=17.3"], capsys)[0] == 0
        assert run(argv, capsys) == fresh and fresh[0] == 0


# a value for every key an eval operation reads, at which each operation succeeds
EVAL_VALUES = {
    "alpha": "0.4-0.2j", "X": "0.3", "mu": "1", "nu": "0.5", "n": "2", "m": "3", "k": "0.7", "h": "1e-4",
    "y": "0.4", "Z": "-0.4", "Xp": "0.1", "Zp": "0.9", "profile": "resonance:0.3", "force": "0.5", "t": "1.3",
    "step": "0.001",
}


class TestEvalKeys:
    """Each eval operation declares the keys it reads, and a request with any
    other key is refused before the operation runs."""

    def test_an_unknown_key_is_refused_before_the_operation_runs(self, capsys):
        # run, hermite at y = 1e200 would overflow and exit 2
        assert run(["eval", "hermite", "n=3", "y=1e200"], capsys)[0] == 2
        assert run(["eval", "hermite", "n=3", "y=1e200", "foo=1"], capsys) == (
            1, "", "usage error: unknown argument(s): foo\n")

    @pytest.mark.parametrize("operation", sorted(cli._OPERATIONS))
    def test_each_operation_reads_the_keys_it_declares(self, capsys, monkeypatch, operation):
        keys = cli._OPERATIONS[operation].keys
        read, get = [], cli._Args.get
        monkeypatch.setattr(cli._Args, "get", lambda self, key, *a: read.append(key) or get(self, key, *a))
        code, _, err = run(["eval", operation, *(f"{key}={EVAL_VALUES[key]}" for key in sorted(keys))], capsys)
        assert (code, err) == (0, "")
        assert set(read) == keys
        assert run(["eval", operation, "foo=1", "bar=2"], capsys) == (1, "", "usage error: unknown argument(s): bar, foo\n")

    def test_help_reads_no_docstring(self, capsys):
        # python -OO strips docstrings, and help still prints the usage block
        assert cli._USAGE in cli.__doc__
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-OO", "-m", "osctomo.cli", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == run(["--help"], capsys)[1]


class TestLibraryErrorsAreUsageErrors:
    def test_every_operation_is_covered(self):
        assert set(EVAL_CASES) == set(cli._OPERATIONS)

    @pytest.mark.parametrize("op", list(EVAL_CASES))
    def test_valid_arguments_succeed(self, capsys, op):
        code, out, err = run(["eval", op, *EVAL_CASES[op][0]], capsys)
        assert (code, err) == (0, "") and out.strip()

    @pytest.mark.parametrize(
        "op, bad", [(op, bad) for op, (_, bads) in EVAL_CASES.items() for bad in bads]
    )
    def test_malformed_value_exits_1_without_raising(self, capsys, op, bad):
        code, out, err = run(["eval", op, *with_override(EVAL_CASES[op][0], bad)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage error:") and "Traceback" not in err

    def test_default_step_below_the_default(self, capsys):
        # t below 1e-3: the default step is t itself, as in flow_at
        code, out, _ = run(["eval", "epsilon", "profile=constant:1", "t=0.0005"], capsys)
        eps, eps_dot, _ = flow_at(DriveProfile.constant(1.0), 5e-4)
        assert (code, out) == (0, f"{cli._fmt(eps)} {cli._fmt(eps_dot)}\n")

    def test_frame_map_default_step_below_the_default(self, capsys):
        code, out, _ = run(["eval", "frame_map", "t=0.0005", "X=0.3", "mu=1", "nu=0.5"], capsys)
        prop = ClassicalPropagator.from_profile(DriveProfile.constant(1.0), 5e-4)
        assert (code, out) == (0, " ".join(map(cli._fmt, prop.frame_map(0.3, 1.0, 0.5))) + "\n")


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

    @pytest.mark.parametrize("source", ["config", "flag"])
    @pytest.mark.parametrize(
        "key, value, kind",
        [("t_count", "1.5", "an integer"), ("k", "abc", "a real number"), ("x_min", "nan", "finite")],
    )
    def test_value_of_the_wrong_type_names_its_key(self, capsys, tmp_path, source, key, value, kind):
        if source == "config":
            config = tmp_path / "fig.cfg"
            config.write_text(f"{key} = {value}\n")
            option = ["--config", str(config)]
        else:
            option = [f"--{key.replace('_', '-')}={value}"]
        code, out, err = run(["figure", "--id", "1", "--out", str(tmp_path), *option], capsys)
        assert (code, out) == (1, "")
        assert err == f"usage error: argument {key}={value!r} is not {kind}\n"
        assert not (tmp_path / "fig1.csv").exists()

    def test_missing_config_file_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.cfg"
        code, out, err = run(
            ["figure", "--id", "1", "--out", str(tmp_path), "--config", str(missing)], capsys
        )
        assert (code, out) == (1, "")
        assert err.startswith("usage error:") and str(missing) in err

    def test_out_under_a_regular_file_is_usage_error(self, capsys, tmp_path):
        out_dir = tmp_path / "file" / "figures"
        out_dir.parent.write_text("")
        code, out, err = run(["figure", "--id", "1", "--out", str(out_dir)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage error:") and str(out_dir) in err

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("resolution = 5\n")
        code, _, err = run(
            ["figure", "--id", "1", "--out", str(tmp_path), "--config", str(config)], capsys
        )
        assert code == 1
        assert "resolution" in err

    @pytest.mark.parametrize(
        "overrides",
        [["--id", "1", "--t-max", "1e4", "--t-count", "3"], ["--id", "5", "--t-fixed", "1e4"]],
        ids=["surface", "sweep"],
    )
    def test_overflowing_resonance_closed_form_exits_2(self, capsys, tmp_path, overrides):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning may escape either
            code, out, err = run(["figure", *overrides, "--k", "0.3", "--out", str(tmp_path)], capsys)
        assert (code, out) == (2, "")
        assert "k = 0.3 overflows double precision at t = 10000" in err
        assert not any(tmp_path.iterdir())


SMALL_GRID = ["--t-count", "21", "--x-count", "41", "--mu-count", "21"]


def written_figure(capsys, out_dir, fig_id, *overrides):
    """CSV and .gp bytes after one `figure` run per override list, all into out_dir."""
    for extra in overrides:
        assert run(["figure", "--id", str(fig_id), "--out", str(out_dir), *extra], capsys)[0] == 0
    return [(out_dir / f"fig{fig_id}.{ext}").read_bytes() for ext in ("csv", "gp")]


class TestFigureOverwrite:
    """Figures are overwritten in place and cut to length: what a rewrite leaves
    is what a write into a fresh directory leaves."""

    @pytest.mark.parametrize("fig_id", figures.FIGURE_IDS)
    @pytest.mark.parametrize(
        "before, after", [([], SMALL_GRID), (SMALL_GRID, [])], ids=["shrink", "grow"]
    )
    def test_rewrite_equals_fresh_write(self, capsys, tmp_path, fig_id, before, after):
        rewritten = written_figure(capsys, tmp_path / "rewritten", fig_id, before, after)
        assert rewritten == written_figure(capsys, tmp_path / "fresh", fig_id, after)

    @pytest.mark.parametrize(
        "fig_id, overrides, code",
        [
            (4, ["--t-count", "7", "--x-count", "9", "--mu-count", "5"], 1),
            (1, ["--k", "0.3", "--t-max", "1e4", "--t-count", "3"], 2),
        ],
        ids=["unresolved-zeros", "overflow"],
    )
    def test_failed_figure_leaves_existing_files_unchanged(self, capsys, tmp_path, fig_id, overrides, code):
        before = written_figure(capsys, tmp_path, fig_id, SMALL_GRID)
        assert run(["figure", "--id", str(fig_id), "--out", str(tmp_path), *overrides], capsys)[0] == code
        assert written_figure(capsys, tmp_path, fig_id) == before

    def test_surface_failing_validation_leaves_existing_files_unchanged(
        self, capsys, tmp_path, monkeypatch
    ):
        before = written_figure(capsys, tmp_path, 1, SMALL_GRID)

        def negative_table(fig_id, cfg):
            columns, first, second, values = figure_table(fig_id, cfg)
            return columns, first, second, -values

        monkeypatch.setattr(figures, "figure_table", negative_table)
        code, _, err = run(["figure", "--id", "1", "--out", str(tmp_path)], capsys)
        assert code == 2 and "negative tomogram values" in err
        assert written_figure(capsys, tmp_path, 1) == before

    def test_existing_file_keeps_its_inode_and_mode(self, capsys, tmp_path):
        written_figure(capsys, tmp_path, 1, [])
        csv_path = tmp_path / "fig1.csv"
        csv_path.chmod(0o640)
        inode = csv_path.stat().st_ino
        written_figure(capsys, tmp_path, 1, SMALL_GRID)
        assert (csv_path.stat().st_ino, stat.S_IMODE(csv_path.stat().st_mode)) == (inode, 0o640)

    def test_symlinked_figure_stays_a_link_to_the_new_bytes(self, capsys, tmp_path):
        target = tmp_path / "kept" / "surface.csv"
        target.parent.mkdir()
        target.write_text("stale\n" * 200_000)  # longer than the figure: a kept tail would show
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "fig1.csv").symlink_to(target)
        written = written_figure(capsys, out_dir, 1, SMALL_GRID)
        assert (out_dir / "fig1.csv").is_symlink()
        assert os.readlink(out_dir / "fig1.csv") == str(target)
        assert target.read_bytes() == written[0]
        assert written == written_figure(capsys, tmp_path / "fresh", 1, SMALL_GRID)


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

    @pytest.mark.parametrize("fig_id", [1, 2, 3, 4, 5, 6])
    def test_integral_float_counts_build_the_int_table(self, fig_id):
        floats = FigureConfig(t_count=3.0, x_count=np.float64(41.0), mu_count=5.0)
        whole = FigureConfig(t_count=3, x_count=41, mu_count=5)
        assert floats == whole and type(floats.t_count) is int
        (columns, *arrays), (want_columns, *want) = figure_table(fig_id, floats), figure_table(fig_id, whole)
        assert columns == want_columns and all(map(np.array_equal, arrays, want))


def pointwise_csv(fig_id, cfg):
    """The CSV text as one f-string per point on numpy scalars: the reference formatter."""
    columns, first, second, values = figure_table(fig_id, cfg)
    lines = [
        f"# osctomo figure {fig_id}: {figures._FIGURES[fig_id][-1]}",
        "# profile: parametric resonance k=%.12g, force=0, "
        "epsilon from the closed-form resonance approximation" % cfg.k,
        "# grid: %s in [%.12g, %.12g] (%d points), %s over %d points"
        % (columns[0], first[0], first[-1], len(first), columns[1], len(second)),
        ",".join(columns),
    ]
    for j, b in enumerate(second):
        for i, a in enumerate(first):
            lines.append(f"{a:.12g},{b:.12g},{values[j, i]:.12g}")
    return "\n".join(lines) + "\n"


def rowwise_gaussian_residual(x, values):
    design = np.vander(x, 3)
    worst = 0.0
    for row in values:
        logs = np.log(row)
        coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
        worst = max(worst, float(np.max(np.abs(design @ coef - logs))))
    return worst


FIGURE_CONFIGS = {
    "default": FigureConfig(),
    "k0": FigureConfig(k=0.0),
    "odd": FigureConfig(k=0.2, t_count=23, x_count=37, mu_count=17),
    # values down to 1e-61 and times like 2.5e-06 print in exponent form
    "exponent": FigureConfig(t_max=1e-5, x_min=-12.0, x_max=12.0, x_count=97, t_count=5, mu_count=5),
}


class TestFigureWriteAndChecks:
    @pytest.mark.parametrize("fig_id", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("name", list(FIGURE_CONFIGS))
    def test_csv_bytes_equal_pointwise_formatter(self, tmp_path, fig_id, name):
        cfg = FIGURE_CONFIGS[name]
        csv_path, _ = figures.write_figure(fig_id, tmp_path, cfg)
        assert csv_path.read_bytes() == pointwise_csv(fig_id, cfg).encode()

    @pytest.mark.parametrize("fig_id", [1, 2, 3, 5])
    @pytest.mark.parametrize("name", list(FIGURE_CONFIGS))
    def test_batched_gaussian_residual_equals_row_loop(self, fig_id, name):
        _, first, _, values = figure_table(fig_id, FIGURE_CONFIGS[name])
        assert np.all(values >= np.finfo(float).tiny)
        batched = figures.gaussian_slice_residual(first, values)
        assert abs(batched - rowwise_gaussian_residual(first, values)) <= 1e-12

    def test_zero_minima_counted_per_row(self):
        rng = np.random.default_rng(3)
        for values in (figure_table(4, FigureConfig())[3], rng.random((40, 25))):
            counts = figures.count_near_zero_minima(values)
            assert counts.tolist() == [figures.count_near_zero_minima(row) for row in values]
            assert all(type(figures.count_near_zero_minima(row)) is int for row in values)

    def test_zeroed_peak_fails_the_gaussian_check(self):
        cfg = FigureConfig()
        _, first, second, values = figure_table(1, cfg)
        values = values.copy()
        values[5, 80] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConsistencyError, match="figure 1: ground-state slice 5"):
                figures._validate(1, cfg, first, second, values)

    def test_slice_with_fewer_than_three_normal_values_fails(self):
        x = np.linspace(-1.0, 1.0, 5)
        row = np.exp(-x * x)
        row[:3] = 0.0
        with pytest.raises(ConsistencyError, match="slice 0: fewer than 3"):
            figures.gaussian_slice_residual(x, row)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1e-3])
    def test_non_finite_or_negative_value_fails_the_fit(self, bad):
        x = np.linspace(-3.0, 3.0, 31)
        values = np.exp(-x * x)[None].repeat(3, axis=0)
        values[1, 4] = bad
        with pytest.raises(ConsistencyError, match="slice 1: value"):
            figures.gaussian_slice_residual(x, values)

    @pytest.mark.parametrize("fig_id", [1, 5])
    def test_underflowed_tails_pass_without_warnings(self, tmp_path, fig_id):
        """Zero and subnormal tails are left out of the fit, not logged."""
        cfg = FigureConfig(k=0.3, t_max=40.0, x_min=-30.0, x_max=30.0)
        values = figure_table(fig_id, cfg)[3]
        assert np.any(values == 0.0) and np.any((values > 0.0) & (values < np.finfo(float).tiny))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            figures.write_figure(fig_id, tmp_path, cfg)


def formatted(values):
    """Each value through the CSV formatter, its field's NULs dropped."""
    fields = _csvbody.format_g12(np.asarray(values, dtype=float))
    return [bytes(field[field != 0]).decode("ascii") for field in fields]


def edge_values():
    powers = np.array([float(f"1e{k}") for k in range(-320, 16)])
    edges = [
        9.999999999995e-5, 0.0001, 999999999999.5, 99999999999.95,
        5e-324, 2.2250738585072014e-308, 0.0, -0.0, np.finfo(float).max,
    ]
    decimals = [i / 10**j for i in range(1, 1000) for j in range(0, 18)]
    return [*powers, *np.nextafter(powers, 0.0), *np.nextafter(powers, np.inf), *edges, *decimals]


class TestCsvFormatter:
    """The array formatter writes exactly the bytes of Python's "%.12g"."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(
        st.one_of(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), st.just(-0.0)),
        min_size=1, max_size=64,
    ))
    def test_non_negative_values_match_percent_g(self, values):
        assert formatted(values) == ["%.12g" % v for v in values]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_float_matches_percent_g(self, values):
        assert formatted(values) == ["%.12g" % v for v in values]

    def test_edge_values_match_percent_g(self):
        values = edge_values()
        assert formatted(values) == ["%.12g" % v for v in values]
        negative = [-v for v in values]
        assert formatted(negative) == ["%.12g" % v for v in negative]

    def test_rows_match_pointwise_formatting(self):
        rng = np.random.default_rng(20)
        first = np.concatenate([[-0.0, 0.0, 1e-300], rng.standard_normal(37) * 10.0 ** rng.integers(-6, 14, 37)])
        second = np.concatenate([[0.0, 2.5e-6, 300.0], rng.random(50) * 10.0 ** rng.integers(-3, 3, 50)])
        values = rng.random((second.size, first.size)) * 10.0 ** rng.integers(-320, 5, (second.size, first.size))
        values[::7, ::3] = 0.0
        expected = "".join(f"{a:.12g},{b:.12g},{values[j, i]:.12g}\n"
                           for j, b in enumerate(second) for i, a in enumerate(first))
        assert "".join(_csvbody.csv_rows(first, second, values)) == expected


# above _csvbody._BLOCK_VALUES values on every figure, so each CSV body is written in several blocks
MULTI_BLOCK = FigureConfig(t_count=83, x_count=161, mu_count=71)


class TestStreamedFigureWrite:
    """The CSV body goes to disk block by block, as the bytes of Python's "%.12g"."""

    @pytest.mark.parametrize("fig_id", [1, 2, 3, 4, 5, 6])
    def test_multi_block_csv_equals_percent_g_rows(self, tmp_path, fig_id):
        columns, first, second, values = figure_table(fig_id, MULTI_BLOCK)
        assert len(list(_csvbody.csv_rows(first, second, values))) > 1
        csv_path, _ = figures.write_figure(fig_id, tmp_path, MULTI_BLOCK)
        header = [
            f"# osctomo figure {fig_id}: {figures._FIGURES[fig_id][-1]}",
            "# profile: parametric resonance k=%.12g, force=0, "
            "epsilon from the closed-form resonance approximation" % MULTI_BLOCK.k,
            "# grid: %s in [%.12g, %.12g] (%d points), %s over %d points"
            % (columns[0], first[0], first[-1], len(first), columns[1], len(second)),
            ",".join(columns),
        ]
        rows = ["%.12g,%.12g,%.12g" % (a, b, v)
                for b, row in zip(second.tolist(), values.tolist()) for a, v in zip(first.tolist(), row)]
        assert csv_path.read_text().split("\n") == [*header, *rows, ""]

    def test_peak_memory_per_point(self, tmp_path):
        # the CSV text is never held whole: the peak is the surface and its validation
        points = 400 * 500
        tracemalloc.start()
        try:
            figures.write_figure(1, tmp_path, FigureConfig(t_count=400, x_count=500))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60 * points


class TestFigureLimits:
    def test_overflowing_x_width_is_usage_error(self, capsys, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning may escape either
            code, out, err = run(["figure", "--id", "1", "--x-min=-1e308", "--x-max=1e308",
                                  "--out", str(tmp_path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage error:") and "x_max - x_min must be finite" in err
        assert not (tmp_path / "fig1.csv").exists()

    @pytest.mark.parametrize(
        "fig_id, x_min, x_max", [(1, "-1e200", "-1e199"), (5, "-1e155", "1e155")], ids=["far", "wide"]
    )
    def test_fit_on_huge_x_fails_without_overflow(self, capsys, tmp_path, fig_id, x_min, x_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fit's x**2 must not overflow
            code, out, err = run(["figure", "--id", str(fig_id), f"--x-min={x_min}", f"--x-max={x_max}",
                                  "--out", str(tmp_path)], capsys)
        assert (code, out) == (2, "")
        assert f"figure {fig_id}: ground-state slice 0: fewer than 3 values above underflow" in err

    def test_figure_above_max_points_is_rejected_before_allocating(self):
        count = figures.MAX_FIGURE_POINTS // 2 + 1  # 2 * count points, just above the cap
        tracemalloc.start()
        try:
            for counts in ((count, 2, 2), (2, count, 2), (2, 2, count)):
                with pytest.raises(ValueError, match="exceeds MAX_FIGURE_POINTS"):
                    FigureConfig(**dict(zip(("x_count", "t_count", "mu_count"), counts)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        FigureConfig(x_count=2, t_count=count - 1, mu_count=2)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 2.5])
    @pytest.mark.parametrize("name", ["t_count", "x_count", "mu_count"])
    def test_count_must_be_a_whole_number(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be at least 2 and a whole number"):
            FigureConfig(**{name: value})

    def test_figure_above_max_points_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(["figure", "--id", "1", "--t-count", "30000", "--x-count", "30000",
                              "--out", str(tmp_path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage error:") and "MAX_FIGURE_POINTS" in err


class TestFigureFourZeroResolution:
    @pytest.mark.parametrize(
        "overrides, slice_t, needed",
        [
            (["--t-count", "7", "--x-count", "9", "--mu-count", "5"], "0", "0.235"),
            (["--x-min", "-30", "--x-max", "30", "--t-max", "40", "--k", "0.3"], "2.8", "0.207"),
            (["--x-min", "-0.5", "--x-max", "0.5"], "0", "0.235"),
        ],
        ids=["coarse", "coarse-late-slice", "zeros-outside"],
    )
    def test_unresolvable_zeros_are_a_usage_error(
        self, tmp_path, capsys, overrides, slice_t, needed
    ):
        code, _, err = run(["figure", "--id", "4", "--out", str(tmp_path), *overrides], capsys)
        assert code == 1
        assert f"figure 4: slice t = {slice_t} needs an x spacing of at most {needed} " in err
        assert err.startswith("usage error: ")
        assert not (tmp_path / "fig4.csv").exists()

    def test_resolvable_slice_without_two_zeros_stays_a_failure(self):
        cfg = FigureConfig()
        _, first, second, values = figure_table(4, cfg)
        values = values.copy()
        values[3] = np.exp(-first * first)
        with pytest.raises(ConsistencyError, match="slice t = 0.3 shows 0 interior zeros"):
            figures._validate(4, cfg, first, second, values)


HELP = object()  # stands for the help text: the usage block and the operation names
WRITTEN = "fig{0}.csv\nfig{0}.gp\n"
# one value per FigureConfig field, on a figure that reads it
FIELD_CASES = {
    "k": (1, "0.02"), "t_max": (1, "5"), "t_count": (1, "7"), "x_min": (1, "-3"),
    "x_max": (1, "3.5"), "x_count": (1, "31"), "mu_count": (5, "7"), "t_fixed": (5, "2.5"),
    "x_fixed": (6, "0.25"),
}


def field_argvs(key):
    """The figure argv of FIELD_CASES[key], with --key value and with --key=value."""
    fig_id, value = FIELD_CASES[key]
    flag = f"--{key.replace('_', '-')}"
    return [["figure", "--id", str(fig_id), *SMALL_GRID, flag, value],
            ["figure", "--id", str(fig_id), *SMALL_GRID, f"{flag}={value}"]]


# argv -> (exit code, stdout, stderr prefix; "" means an empty stderr), run in
# an empty directory.  The rows marked CHANGED are the grammar's two changes
# from the argparse reader it replaced: an abbreviated flag is refused, and a
# help flag prints the help text and returns 0 instead of raising SystemExit.
GRAMMAR = [
    ([], 1, "", "usage error: "),
    (["bogus"], 1, "", "usage error: "),
    (["-x"], 1, "", "usage error: "),
    (["--", "selftest"], 1, "", "usage error: "),
    (["eval"], 1, "", "usage error: "),
    (["eval", "nope"], 1, "", "usage error: "),
    (["eval", "hermite", "n=2", "y=1"], 0, "2\n", ""),
    (["eval", "hermite", "y=1", "n=3", "n=2"], 0, "2\n", ""),  # a later entry wins
    (["eval", "hermite", "n=2", "y=-1"], 0, "2\n", ""),
    (["eval", "hermite", "--", "n=2", "y=1"], 0, "2\n", ""),  # one "--" ends the options
    (["eval", "--", "hermite", "n=2", "y=1"], 0, "2\n", ""),
    (["eval", "hermite", "n=2", "y=1", "--", "--"], 1, "", "usage error: "),
    (["eval", "hermite", "n=2", "y=1", "-x"], 1, "", "usage error: "),
    (["eval", "hermite", "n=2", "y=1", "--", "-h"], 1, "", "usage error: "),
    (["figure"], 1, "", "usage error: "),
    (["figure", "--id", "7"], 1, "", "usage error: "),
    (["figure", "--id", "0"], 1, "", "usage error: "),
    (["figure", "--id", "1.0"], 1, "", "usage error: "),
    (["figure", "--id"], 1, "", "usage error: "),
    (["figure", "--id="], 1, "", "usage error: "),
    (["figure", "-id", "1"], 1, "", "usage error: "),
    (["figure", "--id", "1", "stray"], 1, "", "usage error: "),
    (["figure", "--id", "1", "-5"], 1, "", "usage error: "),
    (["figure", "--id", "1", "--"], 1, "", "usage error: "),
    (["figure", "--", "--id", "1"], 1, "", "usage error: "),
    (["figure", "--id", "1", "--t_count", "5"], 1, "", "usage error: "),
    (["figure", "--id", "1", "--resolution", "5"], 1, "", "usage error: "),
    (["figure", "--id", "1", "--config"], 1, "", "usage error: "),
    (["figure", "--id", "1", "--x-min", "-1e3"], 1, "", "usage error: "),  # not a value: use --x-min=-1e3
    (["figure", "--id", "1", "--x-min", "-30", *SMALL_GRID], 0, WRITTEN.format(1), ""),
    (["figure", "--id", "1", "--x-min", "-.5", *SMALL_GRID], 0, WRITTEN.format(1), ""),
    (["figure", "--id", "1", "--x-min=-1e308", *SMALL_GRID], 2, "", "numerical invariant failure: "),
    (["figure", "--id", "2", "--id", "1", *SMALL_GRID], 0, WRITTEN.format(1), ""),  # the last flag wins
    (["figure", "--id=01", *SMALL_GRID, "--config="], 0, WRITTEN.format(1), ""),
    (["figure", "--id", "1", *SMALL_GRID, "--out", "-"], 0, "-/fig1.csv\n-/fig1.gp\n", ""),
    (["figure", "--id", "1", *SMALL_GRID, "--out=-h"], 0, "-h/fig1.csv\n-h/fig1.gp\n", ""),
    *[(argv, 0, WRITTEN.format(argv[2]), "") for key in FIELD_CASES for argv in field_argvs(key)],
    (["selftest", "extra"], 1, "", "usage error: "),
    (["selftest", "--"], 1, "", "usage error: "),
    # CHANGED: argparse took an unambiguous prefix of a flag for the flag
    (["figure", "--id", "1", "--t-c", "5"], 1, "", "usage error: "),
    # CHANGED: argparse printed its own help text and raised SystemExit(0), or
    # refused the argv if it met an error before the help flag
    (["--help"], 0, HELP, ""),
    (["-h"], 0, HELP, ""),
    (["figure", "--help"], 0, HELP, ""),
    (["figure", "--id", "1", "-h"], 0, HELP, ""),
    (["eval", "--help"], 0, HELP, ""),
    (["eval", "hermite", "n=2", "-h"], 0, HELP, ""),
    (["selftest", "-h"], 0, HELP, ""),
    (["figure", "--id", "1", "--out", "-h"], 0, HELP, ""),
    (["figure", "--id", "7", "-h"], 0, HELP, ""),
]


class TestGrammar:
    @pytest.mark.parametrize("argv, code, out, err", GRAMMAR, ids=[" ".join(row[0]) or "(empty)" for row in GRAMMAR])
    def test_argv(self, capsys, tmp_path, monkeypatch, argv, code, out, err):
        monkeypatch.chdir(tmp_path)
        got_code, got_out, got_err = run(argv, capsys)
        if out is HELP:
            assert got_out.startswith("usage:\n") and "    osctomo eval OPERATION" in got_out
            assert set(cli._OPERATIONS) <= set(got_out.split())
            assert run(["--help"], capsys)[1] == got_out  # one help text
        else:
            assert got_out == out
        assert got_code == code
        assert got_err.startswith(err) if err else got_err == ""

    @pytest.mark.parametrize("key", sorted(FIELD_CASES))
    def test_both_flag_forms_write_the_figure_of_the_field(self, capsys, tmp_path, key):
        fig_id, value = FIELD_CASES[key]
        small = {"t_count": 21, "x_count": 41, "mu_count": 21}  # SMALL_GRID
        cfg = FigureConfig(**{**small, key: FigureConfig._types()[key](value)})
        figures.write_figure(fig_id, tmp_path / "library", cfg)
        expected = (tmp_path / "library" / f"fig{fig_id}.csv").read_bytes()
        for i, argv in enumerate(field_argvs(key)):
            assert run([*argv, "--out", str(tmp_path / str(i))], capsys)[0] == 0
            assert (tmp_path / str(i) / f"fig{fig_id}.csv").read_bytes() == expected


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run(["selftest"], capsys)
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("[")]
        assert len(lines) == 13
        assert all("PASS" in line for line in lines)
