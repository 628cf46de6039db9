"""The benchmark tracer against the package: every traced name resolves, and
an install/uninstall round trip leaves every binding as it was."""

import importlib
import inspect
import sys
import types
from pathlib import Path

import kummerlat

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    # compiled from the source text, so nothing is written next to it
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), module.__dict__)
    return module


def package_functions():
    return {
        (key, attr): value
        for key, module in list(sys.modules.items())
        if key == "kummerlat" or key.startswith("kummerlat.")
        for attr, value in vars(module).items()
        if inspect.isfunction(value)
    }


def test_tracer_resolves_every_traced_name():
    spans = load_spans()
    for name in spans.SPAN_NAMES:
        mod, fn = name.split(".")
        assert callable(getattr(importlib.import_module(f"kummerlat.{mod}"), fn)), name
    tracer = spans.Tracer()
    assert len(tracer._wrappers) == len(spans.SPAN_NAMES)


def test_tracer_round_trip_restores_bindings():
    spans = load_spans()
    before = package_functions()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert kummerlat.ade.classify_dynkin is not before["kummerlat.ade", "classify_dynkin"]
        assert kummerlat.gram is not before["kummerlat", "gram"]
    finally:
        tracer.uninstall()
    after = package_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
