"""The benchmark's per-layer tracer (perfbench/layers.py) patches package
functions by (namespace, attribute) name.  A refactor that renames or stops
importing one of them would silently break ``perfbench/run.py --trace 1``;
these tests pin every name the tracer uses."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("layers")
    for name in ("layers", "workloads"):
        sys.modules.pop(name, None)


def test_every_traced_function_resolves_to_one_object(layers):
    for layer, sites in layers.FUNCTIONS.items():
        first = getattr(*sites[0], None)
        assert callable(first), (layer, sites[0])
        for ns, attr in sites[1:]:
            # the tracer wraps the first site's function and installs that
            # wrapper at every site, so all sites must hold the same function
            assert getattr(ns, attr, None) is first, (layer, ns.__name__, attr)


def test_every_traced_method_is_defined_on_its_class(layers):
    for layer, (cls, attr) in layers.METHODS.items():
        assert callable(cls.__dict__.get(attr)), (layer, cls.__name__, attr)
