"""kummerlat: exact lattice and torus-quotient computations.

Library layers, each imported the first time one of its names is read from
the package (PEP 562); `import kummerlat.<layer>` imports one at once:

* `snf` - Smith and Hermite normal forms and integer determinants;
* `lattice` - integer Gram lattices, discriminant groups, root
  enumeration and overlattices by rational glue vectors;
* `ade` - ADE configurations, the orbifold deficiency m(C) and the
  exhaustive census of configurations with prescribed m and rank;
* `divisibility` - even / 3-divisible set candidates, double-cover
  transforms and the configuration nonexistence checker;
* `kummer` - the ten torus-quotient curve lattices and the two explicit
  primitive saturations with their glue data;
* `torus` - finite affine quaternion group actions on 4-tori: fixed
  points, orbits, stabilizers and quotient singularities;
* `cli` - the `kummerlat` command line (census, kummer, obstruct, torus).

Everything is exact: Python ints and `fractions.Fraction`, never floats.
The lattice and torus layers hold rational vectors as integer numerators
over one common denominator and run their arithmetic on those; `Fraction`
appears only on the values they return.
All public objects are immutable and the operations are pure functions,
safe for concurrent use; outputs are deterministic.
"""

from importlib import import_module

# each public name and the layer that holds it; a layer's own name maps to itself
_HOME = {
    "ade": "ade",
    "ADEConfig": "ade",
    "CensusTooLarge": "ade",
    "DynkinGraph": "ade",
    "InvalidComponent": "ade",
    "ParseError": "ade",
    "RankLimitExceeded": "ade",
    "dynkin": "ade",
    "enumerate_configs": "ade",
    "gram": "ade",
    "m_value": "ade",
    "max_disjoint_curves": "ade",
    "parse_config": "ade",
    "divisibility": "divisibility",
    "DivisibleCandidate": "divisibility",
    "NonReducedIntersection": "divisibility",
    "NotADEAfterContraction": "divisibility",
    "ObstructionReport": "divisibility",
    "ObstructionStep": "divisibility",
    "check_nonexistence": "divisibility",
    "double_cover_transform": "divisibility",
    "enriques_census": "divisibility",
    "even_set_candidates": "divisibility",
    "required_even_sets": "divisibility",
    "three_divisible_candidates": "divisibility",
    "kummer": "kummer",
    "KummerReport": "kummer",
    "build_F": "kummer",
    "build_group_report": "kummer",
    "build_K_Q8hat": "kummer",
    "build_K_T24hat": "kummer",
    "lattice": "lattice",
    "DegenerateLattice": "lattice",
    "DiscriminantGroup": "lattice",
    "GramLattice": "lattice",
    "LengthBoundResult": "lattice",
    "NonIntegralGlue": "lattice",
    "NotInDual": "lattice",
    "NotNegativeDefinite": "lattice",
    "OddGlue": "lattice",
    "OverlatticeResult": "lattice",
    "discriminant_group": "lattice",
    "length_bound_check": "lattice",
    "overlattice": "lattice",
    "q_value": "lattice",
    "roots": "lattice",
    "snf": "snf",
    "det_int": "snf",
    "hermite_row_basis": "snf",
    "smith_normal_form": "snf",
    "torus": "torus",
    "AffineTorusMap": "torus",
    "ClosureExceedsBound": "torus",
    "FixedPointSet": "torus",
    "NonIsolatedFixedLocus": "torus",
    "SingularityReport": "torus",
    "TorusGroup": "torus",
    "TorusLattice": "torus",
    "UnrecognizedGroup": "torus",
    "abcd_shorthand": "torus",
    "fixed_points": "torus",
    "left_mult_matrix": "torus",
    "lieberman_check": "torus",
    "singularity_configuration": "torus",
    "stabilizer_ade_type": "torus",
    "standard_group": "torus",
}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # read from the layer on every use, never cached, so a rebinding there shows here too
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    layer = globals().get(home) or import_module(f"{__name__}.{home}")
    return layer if name == home else getattr(layer, name)


def __dir__():
    return sorted({*globals(), *__all__})
