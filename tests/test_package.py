"""The package namespace: every public name resolves on first access."""

import os
import pathlib
import subprocess
import sys

import pytest

import knormal

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_every_public_name_resolves_from_its_submodule():
    for name in knormal.__all__:
        value = getattr(knormal, name)
        assert value.__module__.startswith("knormal.")
    namespace = {}
    exec("from knormal import *", namespace)
    assert set(knormal.__all__) <= set(namespace)
    assert set(knormal.__all__) <= set(dir(knormal))
    assert knormal.galois.find_irreducible is knormal.find_irreducible
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        knormal.no_such_name


def test_importing_the_package_compiles_no_submodule():
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = "import sys, knormal\nprint(*sorted(m for m in sys.modules if 'knormal' in m))\n"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["knormal"]
