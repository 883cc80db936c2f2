"""The package root resolves its names lazily, and each CLI command imports
only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import osctomo
from osctomo import states

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the routes the tests compare against, defined in tests/helpers.py and not in the package
TEST_REFERENCES = {
    "invariant_from_ladder", "ladder_commutator", "IMAG_RESIDUE_TOL", "_to_real",
    "quantum_propagator_from_shift", "_prefix_products",
}


def modules_after(code, cwd):
    """sys.modules names after a fresh interpreter runs `code` (stdout discarded)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    script = (
        "import contextlib, io, json, sys\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    {code}\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


class TestLazyRoot:
    @pytest.mark.parametrize("name", sorted(set(osctomo.__all__) - {"__version__"}))
    def test_name_is_its_submodule_attribute(self, name):
        value = getattr(osctomo, name)
        assert value.__module__.startswith("osctomo.")
        assert getattr(importlib.import_module(value.__module__), name) is value

    def test_patched_submodule_attribute_shows_through_the_root(self, monkeypatch):
        def sentinel():
            pass

        monkeypatch.setattr(states, "coherent_mdf", sentinel)
        assert osctomo.coherent_mdf is sentinel

    def test_dir_lists_every_public_name(self):
        assert set(osctomo.__all__) <= set(dir(osctomo))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            osctomo.no_such_name

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from osctomo import *", namespace)
        assert len(osctomo.__all__) == 47
        assert {name: namespace[name] for name in osctomo.__all__} == {
            name: getattr(osctomo, name) for name in osctomo.__all__
        }


class TestNameTable:
    """The root's table of name -> submodule is the one record of where each
    public name lives; __all__ is built from it and errors.__all__."""

    def test_each_name_is_public_in_its_submodule(self):
        for name, module in osctomo._SUBMODULE_OF.items():
            assert name in importlib.import_module(f"osctomo.{module}").__all__

    def test_errors_all_lists_every_exception_type(self):
        from osctomo import errors

        defined = {name for name, value in vars(errors).items()
                   if isinstance(value, type) and value.__module__ == errors.__name__}
        assert set(errors.__all__) == defined
        assert {name: getattr(osctomo, name) for name in errors.__all__} == {
            name: getattr(errors, name) for name in errors.__all__
        }

    def test_all_names_each_public_name_once(self):
        assert len(set(osctomo.__all__)) == len(osctomo.__all__) == 47
        assert osctomo.__all__[-1] == "__version__"

    @pytest.mark.parametrize("module", ["osctomo", "osctomo.invariants", "osctomo.propagators", "osctomo.dynamics"])
    @pytest.mark.parametrize("name", sorted(TEST_REFERENCES))
    def test_a_test_reference_lives_in_the_tests_only(self, module, name):
        assert hasattr(helpers, name)
        assert not hasattr(importlib.import_module(module), name)


def package_modules(modules):
    return {name for name in modules if name == "osctomo" or name.startswith("osctomo.")}


def test_cli_import_loads_errors_and_numpy_only(tmp_path):
    modules = modules_after("import osctomo, osctomo.cli", tmp_path)
    assert package_modules(modules) == {"osctomo", "osctomo.cli", "osctomo.errors"}
    assert "numpy" in modules


def test_eval_loads_neither_selftest_nor_transforms(tmp_path):
    modules = modules_after(
        "from osctomo import cli; assert cli.main(['eval', 'hermite', 'n=2', 'y=0.5']) == 0", tmp_path
    )
    assert "osctomo.dynamics" in modules
    assert not {"osctomo.selftest", "osctomo.transforms"} & modules


def test_figure_loads_only_figures_and_what_it_uses(tmp_path):
    modules = modules_after(
        "from osctomo import cli; "
        "assert [cli.main(['figure', '--id', str(i)]) for i in range(1, 7)] == [0] * 6",
        tmp_path,
    )
    assert "osctomo.figures" in modules
    unused = {"osctomo.selftest", "osctomo.transforms", "osctomo.propagators", "osctomo.invariants"}
    assert not unused & modules


def test_only_a_written_figure_loads_the_csv_formatter(tmp_path):
    evaluated = modules_after(
        "from osctomo import cli; assert cli.main(['eval', 'hermite', 'n=2', 'y=0.5']) == 0", tmp_path
    )
    assert not {"osctomo.figures", "argparse", "osctomo._csvbody"} & evaluated
    written = modules_after("from osctomo import cli; assert cli.main(['figure', '--id', '1']) == 0", tmp_path)
    assert "osctomo._csvbody" in written
