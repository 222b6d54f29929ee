"""The package namespace: public names and submodules load on first use."""
import subprocess
import sys

import pytest

import gaussmax


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from gaussmax import *", ns)
    assert set(ns) - {"__builtins__"} == set(gaussmax.__all__)


def test_dir_lists_every_public_name():
    assert set(gaussmax.__all__) <= set(dir(gaussmax))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        gaussmax.no_such_name


def test_name_is_the_module_object_and_is_cached():
    assert gaussmax.pbar_density is gaussmax.bounds.pbar_density
    assert vars(gaussmax)["pbar_density"] is gaussmax.bounds.pbar_density


def test_submodules_load_in_a_fresh_interpreter():
    script = ("import sys\n"
              "from gaussmax import bounds\n"
              "import gaussmax\n"
              "assert gaussmax.bounds is bounds\n"
              "assert 'gaussmax.simulate' not in sys.modules\n"
              "print(gaussmax.simulate.__name__)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "gaussmax.simulate\n"
