"""kummerlat: exact lattice and torus-quotient computations.

Library layers:

* `snf` - Smith and Hermite normal forms and integer determinants;
* `lattice` - integer Gram lattices, discriminant groups, root
  enumeration, glue vectors and overlattices;
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

from .ade import (
    ADEConfig,
    CensusTooLarge,
    DynkinGraph,
    InvalidComponent,
    ParseError,
    RankLimitExceeded,
    dynkin,
    enumerate_configs,
    gram,
    m_value,
    max_disjoint_curves,
    parse_config,
)
from .divisibility import (
    DivisibleCandidate,
    NonReducedIntersection,
    NotADEAfterContraction,
    ObstructionReport,
    ObstructionStep,
    check_nonexistence,
    double_cover_transform,
    enriques_census,
    even_set_candidates,
    required_even_sets,
    three_divisible_candidates,
)
from .kummer import (
    KummerReport,
    build_F,
    build_group_report,
    build_K_Q8hat,
    build_K_T24hat,
    verify_root_equality,
)
from .lattice import (
    DegenerateLattice,
    DiscriminantGroup,
    GlueVector,
    GramLattice,
    LengthBoundResult,
    NonIntegralGlue,
    NotASublattice,
    NotInDual,
    NotNegativeDefinite,
    OddGlue,
    OverlatticeResult,
    discriminant_group,
    length_bound_check,
    overlattice,
    q_value,
    roots,
)
from .snf import det_int, hermite_row_basis, smith_normal_form
from .torus import (
    AffineTorusMap,
    ClosureExceedsBound,
    FixedPointSet,
    NonIsolatedFixedLocus,
    SingularityReport,
    TorusGroup,
    TorusLattice,
    UnrecognizedGroup,
    abcd_shorthand,
    fixed_points,
    left_mult_matrix,
    lieberman_check,
    singularity_configuration,
    stabilizer_ade_type,
    standard_group,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
