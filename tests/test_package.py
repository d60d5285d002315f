"""The package namespace: lazy public names and what a bare import loads."""

import importlib
import json
import subprocess
import sys

import pytest

import bookcross

from test_cli import _src_env

# Imports bookcross alone and prints the modules it left loaded that the
# package loads lazily: its submodules, numpy and fractions (which bounds
# imports).
_BARE_IMPORT = """
import json, sys
import bookcross
print(json.dumps(sorted(m for m in sys.modules if m.startswith(("bookcross.", "numpy", "fractions")))))
"""


def test_bare_import_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", _BARE_IMPORT], capture_output=True, env=_src_env(), text=True, timeout=60, check=True
    )
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("name", bookcross.__all__)
def test_public_name_is_its_module_attribute(name):
    module = importlib.import_module(f"bookcross.{bookcross._MODULE_OF[name]}")
    assert getattr(bookcross, name) is getattr(module, name)
    assert vars(bookcross)[name] is getattr(module, name)  # kept: the next lookup skips __getattr__


def test_star_import_binds_all():
    namespace = {}
    exec("from bookcross import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(bookcross.__all__)


def test_dir_lists_all():
    assert set(bookcross.__all__) <= set(dir(bookcross))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bookcross.no_such_name
    assert not hasattr(bookcross, "no_such_name")
