"""Every program name the benchmark harness resolves exists.

perfbench/tracer.py wraps functions by module and name and its counters
bind call arguments by name; perfbench/run.py rebuilds fits from their JSON
output and reads parkstat.BACKEND.  A rename or deletion under src/ that
breaks one of these would otherwise show only when the benchmark runs.
"""

import importlib
import importlib.util
import inspect
import json
import pathlib
import re
import sys

import parkstat
from parkstat import backend
from parkstat.conjecture_fit import fit_moment

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _home(layer):
    # where tracer.install looks a name up
    return backend.kernels if layer == "kernels" else sys.modules[f"parkstat.{layer}"]


def test_every_name_the_tracer_wraps_resolves(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    importlib.import_module("parkstat.cli")
    wrapped = [(layer, fname) for layer, names in tracer.WRAPPED.items()
               for fname in names]
    wrapped += [("kernels", fname) for fname in tracer.KERNELS]
    for layer, fname in wrapped:
        assert callable(getattr(_home(layer), fname, None)), f"{layer}.{fname}"
    assert set(tracer.COUNTERS) <= {f"{layer}.{fname}" for layer, fname in wrapped}

    bound = set()
    for name, counter in tracer.COUNTERS.items():
        keys = set(re.findall(r'args\["(\w+)"\]', inspect.getsource(counter)))
        layer, fname = name.split(".")
        params = inspect.signature(getattr(_home(layer), fname)).parameters
        assert keys <= set(params), (name, keys - set(params))
        bound |= keys
    assert {"sys", "prev", "n", "a"} <= bound  # the scan found the counters' reads


def test_run_rebuilds_fits_from_their_json(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends perfbench/
    run = _load("run", monkeypatch)
    for general_a in (False, True):
        obj = json.loads(json.dumps(fit_moment(2, general_a=general_a).to_json_obj()))
        n = max(tuple(p) for p in obj["holdout"])[0] + 1
        extra = [(n, 1), (n, 2)] if general_a else [(n, 1), (n + 1, 1)]
        assert run.verify_fit_json(obj, extra), general_a
    assert isinstance(parkstat.BACKEND, str)
