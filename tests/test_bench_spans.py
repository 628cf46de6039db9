"""The benchmark tracer against the package: every traced name resolves, an
install/uninstall round trip leaves every binding as it was, and a traced
run gives the exact work counts pinned below."""

import importlib
import inspect
import random
import sys
import types
from pathlib import Path

import pytest

import kummerlat

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS_PATH = BENCH / "spans.py"


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
    gram = kummerlat.gram  # read through the package, as the workloads read it
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert kummerlat.ade.classify_dynkin is not before["kummerlat.ade", "classify_dynkin"]
        assert kummerlat.gram is not gram
    finally:
        tracer.uninstall()
    assert kummerlat.gram is gram
    after = package_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


# `python3 bench/run.py --workload W --seed 7 --seconds 10 --trace 1` prints
# these exact work counts; a traced run does --seconds // 2 of work
TRACED_SEED, TRACED_SECONDS = 7, 10
TRACED_COUNTS = {
    "lattice-build": {"torus.closure.elements": 94, "torus.fixed_points.points": 0,
                      "lattice.roots.pairs": 4279},
    "census-sweep": {"divisibility.excluded": 8, "divisibility.admissible_candidates": 33076,
                     "divisibility.witness_sets": 117},
}


@pytest.fixture
def bench_run(monkeypatch):
    """bench/run.py as a module: its sibling modules are imported from bench/
    with no bytecode written there, and leave sys.modules afterwards."""
    siblings = ("workloads", "deadline", "spans")
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in siblings:
        monkeypatch.delitem(sys.modules, name, raising=False)
    path = BENCH / "run.py"
    module = types.ModuleType("bench_run")
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, module.__name__, module)  # its dataclass looks it up
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
        yield module
    finally:
        for name in siblings:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", sorted(TRACED_COUNTS))
def test_traced_run_gives_the_pinned_work_counts(bench_run, workload):
    files = sorted(BENCH.rglob("*"))
    rounds = bench_run.build_rounds(workload, random.Random(TRACED_SEED), TRACED_SECONDS // 2)
    samples, metrics, _ = bench_run.traced_run(rounds)
    assert [s.status for s in samples if s.status != "ok"] == []
    assert {name: metrics[name][0] for name in TRACED_COUNTS[workload]} == TRACED_COUNTS[workload]
    assert sorted(BENCH.rglob("*")) == files  # nothing written under bench/
