"""The package namespace: `import kummerlat` loads no layer, a name loads its
layer on first use, and every public name resolves to the object its layer
holds at the time it is read."""

import ast
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import kummerlat

SRC = Path(__file__).resolve().parent.parent / "src"

# the package's public names, as the eager re-export list gave them
ALL = [
    "ADEConfig", "AffineTorusMap", "CensusTooLarge", "ClosureExceedsBound", "DegenerateLattice",
    "DiscriminantGroup", "DivisibleCandidate", "DynkinGraph", "FixedPointSet", "GramLattice",
    "InvalidComponent", "KummerReport", "LengthBoundResult", "NonIntegralGlue",
    "NonIsolatedFixedLocus", "NonReducedIntersection", "NotADEAfterContraction", "NotInDual",
    "NotNegativeDefinite", "ObstructionReport", "ObstructionStep", "OddGlue", "OverlatticeResult",
    "ParseError", "RankLimitExceeded", "SingularityReport", "TorusGroup", "TorusLattice",
    "UnrecognizedGroup", "abcd_shorthand", "ade", "build_F", "build_K_Q8hat", "build_K_T24hat",
    "build_group_report", "check_nonexistence", "det_int", "discriminant_group", "divisibility",
    "double_cover_transform", "dynkin", "enriques_census", "enumerate_configs",
    "even_set_candidates", "fixed_points", "gram", "hermite_row_basis", "kummer", "lattice",
    "left_mult_matrix", "length_bound_check", "lieberman_check", "m_value", "max_disjoint_curves",
    "overlattice", "parse_config", "q_value", "required_even_sets", "roots",
    "singularity_configuration", "smith_normal_form", "snf", "stabilizer_ade_type",
    "standard_group", "three_divisible_candidates", "torus",
]


def run_fresh(code: str) -> object:
    """Run `code` in a fresh interpreter without site, so nothing but the
    package and what it imports is loaded, and return the value it prints."""
    script = f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                         check=True, timeout=60)
    return ast.literal_eval(out.stdout)


LOADED = "print(sorted(m for m in sys.modules if m.startswith('kummerlat.')))"


def test_all_is_the_pinned_name_list():
    assert kummerlat.__all__ == ALL
    assert len(ALL) == 66 and ALL == sorted(ALL)


def test_import_loads_no_layer_and_no_fractions():
    code = ("import kummerlat\n"
            "print([m for m in sys.modules if m.startswith('kummerlat') or m == 'fractions'])")
    assert run_fresh(code) == ["kummerlat"]


@pytest.mark.parametrize("name, loaded", [
    ("parse_config", ["_record", "ade", "lattice", "snf"]),
    ("det_int", ["snf"]),
    ("snf", ["snf"]),
])
def test_a_name_loads_its_layer_and_what_that_imports(name, loaded):
    code = f"import kummerlat\nkummerlat.{name}\n{LOADED}"
    assert run_fresh(code) == [f"kummerlat.{m}" for m in loaded]


def test_every_name_resolves_to_its_home_module_object():
    # the home is the module that defines the object, not the package's table
    code = """
import inspect, kummerlat
wrong = []
for name in kummerlat.__all__:
    obj = getattr(kummerlat, name)
    if inspect.ismodule(obj):
        home = sys.modules[f"kummerlat.{name}"]
    else:
        home = getattr(sys.modules[obj.__module__], name, None)
        assert inspect.isfunction(obj) or inspect.isclass(obj), name
    if obj is not home:
        wrong.append(name)
print(wrong)
"""
    assert run_fresh(code) == []


def test_star_import_binds_every_name():
    code = """
from kummerlat import *
import kummerlat
print([n for n in kummerlat.__all__ if globals().get(n) is not getattr(kummerlat, n)])
"""
    assert run_fresh(code) == []


def test_unknown_names_are_refused_by_name():
    with pytest.raises(AttributeError, match="^module 'kummerlat' has no attribute 'GlueVector'$"):
        kummerlat.GlueVector
    assert not hasattr(kummerlat, "no_such_name")
    assert set(dir(kummerlat)) >= set(ALL) | {"__version__"}


def test_a_rebinding_in_the_layer_shows_through_the_package(monkeypatch):
    real = kummerlat.lattice.roots
    with monkeypatch.context() as patch:
        patch.setattr(kummerlat.lattice, "roots", len)
        assert kummerlat.roots is len
    assert kummerlat.roots is real
    assert "roots" not in vars(kummerlat)


def test_a_pickled_config_loads_after_import_kummerlat_alone():
    config = kummerlat.parse_config("2A1+A3+D4")
    code = f"import kummerlat, pickle\nprint(repr(repr(pickle.loads({pickle.dumps(config)!r}))))"
    assert run_fresh(code) == repr(config)
