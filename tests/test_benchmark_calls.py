"""The benchmark under perfbench/ names package functions and calls a few
of them itself; these tests fail as soon as a change to src/ breaks one
of those names or call shapes, without running the benchmark."""

import functools
import importlib
import importlib.util
from pathlib import Path

import apnsurf
from apnsurf.criteria import curve_singular_points
from apnsurf.mvpoly import TriPoly
from apnsurf.surface import infinity_curve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_function_resolves():
    spans = _load("spans")
    for module, path in spans.SPANNED:
        owner = importlib.import_module("apnsurf." + module)
        fn = functools.reduce(getattr, path.split("."), owner)
        assert callable(fn), (module, path)


def test_witness_divides_on_an_x2_free_witness():
    workloads = _load("workloads")
    F2 = infinity_curve(6).field
    x0 = TriPoly.var(F2, 0)
    # x0 * (x0 + x1)(x1 + x2)(x0 + x2)
    curve = infinity_curve(6) * x0
    w = TriPoly(F2, {(2, 0, 0): 1, (1, 1, 0): 1})  # x0^2 + x0*x1
    assert w.dehomogenize() == w
    assert workloads.witness_divides(apnsurf, curve, w)
    square = TriPoly(F2, {(2, 0, 0): 1, (0, 2, 0): 1})  # (x0 + x1)^2
    assert not workloads.witness_divides(apnsurf, curve, square)


def test_is_singular_on_the_degree9_singular_points():
    workloads = _load("workloads")
    curve = infinity_curve(9)
    pts = curve_singular_points(curve)
    assert pts
    assert all(workloads.is_singular(apnsurf, curve, p) for p in pts)
