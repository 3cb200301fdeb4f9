"""The package namespace: lazy layer modules and names resolved on first use."""

import json
import pathlib
import subprocess
import sys

import pytest

import parkstat

SRC = pathlib.Path(parkstat.__file__).resolve().parent


def test_every_public_name_resolves():
    for name in parkstat.__all__:
        home = sys.modules[f"parkstat.{parkstat._HOME[name]}"]
        assert getattr(parkstat, name) is getattr(home, name), name
    namespace = {}
    exec("from parkstat import *", namespace)
    assert set(parkstat.__all__) <= namespace.keys()
    assert set(parkstat.__all__) <= set(dir(parkstat))
    with pytest.raises(AttributeError, match="no_such_name"):
        parkstat.no_such_name


def test_every_module_is_registered_lazily():
    # a module added under src/parkstat/ without registration would be
    # compiled on import as before, or not be found where the tracer looks
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__", "cli"}
    probe = ("import json, sys, types, parkstat; print(json.dumps(sorted("
             "k.split('.')[1] for k, m in sys.modules.items() if k.startswith('parkstat.')"
             " and type(m) is not types.ModuleType and vars(parkstat)[k.split('.')[1]] is m)))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(modules)
