"""Every exported name resolves, and the deleted library surface stays gone."""

import dataclasses
import importlib
import inspect

import pytest

import catlab

MODULES = ["catlab", "catlab.classical", "catlab.hilbert", "catlab.coherent",
           "catlab.quantize", "catlab.quasimodes", "catlab.io"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing


def test_deleted_surface_is_gone():
    exported = {n for name in MODULES for n in importlib.import_module(name).__all__}
    assert "torus_distance" not in exported
    assert not hasattr(catlab.classical, "torus_distance")
    for cls, attr in ((catlab.CatMap, "as_array"), (catlab.Orbit, "min_separation"),
                      (catlab.Symbol, "plane_wave")):
        assert not hasattr(cls, attr), (cls, attr)

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert fields(catlab.CatMap) == {"a", "b", "c", "d", "lyapunov", "b1", "b2"}
    assert fields(catlab.Orbit) == {"jk", "l"}
    for gone in ("BallReport", "ScMeasureReport", "NonequiReport"):
        assert not hasattr(catlab.quasimodes, gone) and gone not in exported, gone
    assert "support_ball" not in fields(catlab.Symbol)
    assert list(inspect.signature(catlab.choose_N).parameters) == ["T", "delta", "lyapunov"]
    assert list(inspect.signature(catlab.antiwick_expectation).parameters) == [
        "psi", "symbol", "catmap", "hgrid"
    ]
