"""Spans around the library's public functions, recorded from outside it.

`Tracer.install()` replaces each traced function by a wrapper in every
`kummerlat` module (and the package) that holds the same function object,
so cross-module imports and intra-module calls such as
`standard_group -> closure` both pass through the wrapper.  Spans
(function, start, end, parent) are kept in memory; `uninstall()` restores
the original bindings.  Per-layer metrics are derived from the spans at the
end of the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from functools import wraps

# Public functions per module, as "<module>.<function>".  Tiny hot helpers
# (gram_pair, vec, unit_vector) are left alone: a span around each of their
# calls would cost more than the work it measures.
TRACED = {
    "snf": ("smith_normal_form", "hermite_row_basis", "det_int"),
    "lattice": ("discriminant_group", "q_value", "roots", "overlattice"),
    "ade": ("parse_config", "gram", "dynkin", "max_disjoint_curves",
            "enumerate_configs", "classify_dynkin"),
    "divisibility": ("check_nonexistence", "enriques_census"),
    "kummer": ("build_group_report", "build_K_Q8hat", "build_K_T24hat", "build_F"),
    "torus": ("standard_group", "closure", "fixed_points", "stabilizer_ade_type",
              "singularity_configuration"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _count_roots(result) -> dict[str, int]:
    return {"lattice.roots.pairs": len(result)}


def _count_closure(result) -> dict[str, int]:
    return {"torus.closure.elements": len(result)}


def _count_fixed_points(result) -> dict[str, int]:
    return {"torus.fixed_points.points": len(result.points)}


def _count_report(report) -> dict[str, int]:
    counts = Counter({"divisibility.excluded": int(report.excluded)})
    for step in report.steps:
        for key in ("admissible_candidates", "witness_sets"):
            value = step.get(key)
            if value is not None:
                counts[f"divisibility.{key}"] += int(value)
    return counts


# Exact work counts read off a traced function's return value.  A recursive
# call's result is part of its caller's, so only the outermost call counts.
RESULT_COUNTERS = {
    "lattice.roots": _count_roots,
    "torus.closure": _count_closure,
    "torus.fixed_points": _count_fixed_points,
    "divisibility.check_nonexistence": _count_report,
}
COUNT_NAMES = (
    "lattice.roots.pairs",
    "torus.closure.elements",
    "torus.fixed_points.points",
    "divisibility.excluded",
    "divisibility.admissible_candidates",
    "divisibility.witness_sets",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, float, float, int]] = []  # name, start, end, parent
        self.errors: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[tuple[int, int]] = []  # open span, its name
        self._bindings: list[tuple[object, str, object]] = []
        self._originals = []  # keeps the ids below valid
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        for name_idx, name in enumerate(SPAN_NAMES):
            mod, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"kummerlat.{mod}"), fn_name)
            self._originals.append(original)
            self._wrappers[id(original)] = self._wrap(name_idx, original)

    def _wrap(self, name_idx: int, fn):
        name = SPAN_NAMES[name_idx]
        counter = RESULT_COUNTERS.get(name)
        spans, stack, errors, counts = self.spans, self._stack, self.errors, self.counts
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_name = stack[-1] if stack else (-1, -1)
            idx = len(spans)
            spans.append(None)
            stack.append((idx, name_idx))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # charge the innermost open span only, a timeout included
                if not getattr(exc, "_bench_charged", False):
                    errors[name] += 1
                    exc._bench_charged = True
                raise
            finally:
                spans[idx] = (name_idx, start, clock(), parent)
                stack.pop()
            if counter is not None and parent_name != name_idx:
                counts.update(counter(result))
            return result

        return traced

    def install(self) -> None:
        for key, module in list(sys.modules.items()):
            if key != "kummerlat" and not key.startswith("kummerlat."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Calls, self time and errors per function, module roll-ups, counts.

        A span's self time is its duration minus the durations of its child
        spans; spans of one thread nest, so children never overlap.
        """
        n = len(SPAN_NAMES)
        calls = [0] * n
        self_s = [0.0] * n
        child_s = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):  # children after parents
            name_idx, start, end, parent = self.spans[i]
            duration = end - start
            calls[name_idx] += 1
            self_s[name_idx] += duration - child_s[i]
            if parent >= 0:
                child_s[parent] += duration
        out: dict[str, tuple[float, str]] = {}
        modules: Counter[str] = Counter()
        for k, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = (calls[k], "count")
            out[f"{name}.self_s"] = (self_s[k], "s")
            out[f"{name}.errors"] = (self.errors[name], "count")
            modules[name.split(".")[0]] += self_s[k]
        for mod in TRACED:
            out[f"{mod}.self_s"] = (modules[mod], "s")
        for name in COUNT_NAMES:
            out[name] = (self.counts[name], "count")
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name_idx, start, end, parent in self.spans:
                fh.write(json.dumps([SPAN_NAMES[name_idx], start, end, parent]) + "\n")
