"""Exceptional-curve lattices of the ten torus-quotient K3 configurations and
the two primitive saturations built from explicit glue data.

`build_F` produces the lattice spanned by the exceptional curves of a
quotient configuration.  For the two translation-twisted quaternionic
groups the primitive saturation is generated over F by explicit glue:

* Q8hat (A1+6A3): 4-divisible classes delta_1 = (1,1,1,1,2,0) and
  delta_2 = (1,3,2,0,1,3) in the base t_r = (1/4)(C_r^1 + 2 C_r^2 + 3 C_r^3);
* T24hat (4A2+2A3+A5): an order-3 class supported with coefficients (1,2)
  on the six A_2 configurations lying inside the 4A2+A5 part, with the
  orientations fixed by integrality against the middle A_5 curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from .ade import ADEConfig, parse_config
from . import ade
from .lattice import (
    DiscriminantGroup,
    GlueVector,
    GramLattice,
    NotASublattice,
    OverlatticeResult,
    discriminant_group,
    overlattice,
    q_value,
    roots,
)
from .snf import mat_mul


class NoIntegralOrientation(ValueError):
    """No orientation assignment makes the 3-divisible glue integral."""


GROUP_CONFIGS: dict[str, str] = {
    "Z2": "16A1",
    "Z3": "9A2",
    "Z4": "6A1+4A3",
    "Z6": "5A1+4A2+A5",
    "Q8": "2A1+3A3+2D4",
    "Q8_T24": "3A1+4D4",
    "Q8hat": "A1+6A3",
    "Q12": "A1+2A2+3A3+D5",
    "T24": "A1+4A2+D4+E6",
    "T24hat": "4A2+2A3+A5",
}


@dataclass(frozen=True)
class KummerLatticeSpec:
    group_name: str
    config: ADEConfig


@dataclass(frozen=True)
class KummerReport:
    group: str
    config: ADEConfig
    F: GramLattice
    disc_F: DiscriminantGroup
    K: OverlatticeResult | None = None
    disc_K: DiscriminantGroup | None = None
    root_pairs_F: int | None = None
    root_pairs_K: int | None = None
    roots_equal: bool | None = None
    even_sets: tuple[tuple[str, ...], ...] = ()
    glue_info: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        pairs_f, pairs_k = self.root_pairs_F, self.root_pairs_K
        return {
            "group": self.group,
            "config": self.config.render(),
            "rank": self.config.rank,
            "disc_F": list(self.disc_F.invariant_factors),
            "disc_K": list(self.disc_K.invariant_factors) if self.disc_K else None,
            "index": self.K.index if self.K else None,
            "root_pairs_F": pairs_f,
            "root_pairs_K": pairs_k,
            "root_vectors_F": None if pairs_f is None else 2 * pairs_f,
            "root_vectors_K": None if pairs_k is None else 2 * pairs_k,
            "roots_equal": self.roots_equal,
            "even_sets": [list(s) for s in self.even_sets],
            "glue": list(self.glue_info),
        }


def spec_for(group_name: str) -> KummerLatticeSpec:
    if group_name not in GROUP_CONFIGS:
        raise KeyError(f"unknown group {group_name!r}; known: {sorted(GROUP_CONFIGS)}")
    return KummerLatticeSpec(group_name, parse_config(GROUP_CONFIGS[group_name]))


def build_F(spec: KummerLatticeSpec | str) -> GramLattice:
    """Curve lattice of the configuration, with quotient-style labels."""
    if isinstance(spec, str):
        spec = spec_for(spec)
    labels = _curve_labels(spec.group_name, spec.config)
    return ade.gram(spec.config, labels=labels)


def _curve_labels(group_name: str, config: ADEConfig) -> tuple[str, ...] | None:
    if group_name == "Q8hat":
        # A1 block first (C0), then the six A3 blocks C_r^s
        labels = ["C0"]
        for r in range(1, 7):
            labels.extend(f"C{r}^{s}" for s in range(1, 4))
        return tuple(labels)
    return None


def _t_base_vector(coeffs: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Expand coefficients on t_1..t_6 into A1+6A3 curve coordinates.

    t_r = (1/4)(C_r^1 + 2 C_r^2 + 3 C_r^3); coordinate 0 is the A_1 curve.
    """
    out = [Fraction(0)] * 19
    for r, c in enumerate(coeffs):
        base = 1 + 3 * r
        out[base] += Fraction(c, 4)
        out[base + 1] += Fraction(2 * c, 4)
        out[base + 2] += Fraction(3 * c, 4)
    return tuple(out)


DELTA_1 = (1, 1, 1, 1, 2, 0)
DELTA_2 = (1, 3, 2, 0, 1, 3)
DELTA_2_ALT = (3, 1, 2, 0, 3, 1)

EVEN_SET_BLOCKS = ((1, 2, 3, 4), (3, 4, 5, 6), (1, 2, 5, 6))


def build_K_Q8hat() -> KummerReport:
    """Index-16 saturation of the A1+6A3 curve lattice by delta_1, delta_2."""
    spec = spec_for("Q8hat")
    F = build_F(spec)
    disc_F = discriminant_group(F)

    d1 = GlueVector.in_dual(F, _t_base_vector(DELTA_1))
    d2 = GlueVector.in_dual(F, _t_base_vector(DELTA_2))
    K = overlattice(F, [d1, d2])
    disc_K = discriminant_group(K.lattice)

    roots_F = roots(F)
    roots_K = roots(K.lattice)
    equal = _same_roots(K, roots_F, roots_K)

    even_sets = []
    notes = []
    doubled_glue = [
        tuple(2 * c for c in d1.vector),
        tuple(2 * c for c in d2.vector),
        tuple(2 * (a + b) for a, b in zip(d1.vector, d2.vector)),
    ]
    for blocks, double in zip(EVEN_SET_BLOCKS, (doubled_glue[0], doubled_glue[2], doubled_glue[1])):
        support = []
        v = [Fraction(0)] * 19
        for r in blocks:
            for s in (1, 3):
                idx = 1 + 3 * (r - 1) + (s - 1)
                v[idx] = Fraction(1, 2)
                support.append(f"C{r}^{s}")
        if not K.contains(tuple(v)):
            raise AssertionError("half even set is missing from the saturation")
        # the doubled glue classes and the half even sets agree mod F
        if any((a - b).denominator != 1 for a, b in zip(double, v)):
            raise AssertionError("doubled glue does not reduce to the even set")
        even_sets.append(tuple(support))
    notes.append("half of each even set v_1, v_2, v_3 lies in the saturation")
    notes.append("2*delta_1, 2*delta_2, 2*(delta_1+delta_2) reduce to v_1/2, v_3/2, v_2/2 mod F")

    alt = GlueVector.in_dual(F, _t_base_vector(DELTA_2_ALT))
    K_alt = overlattice(F, [d1, alt])
    if [[x * K.den for x in r] for r in K_alt.H] != [[x * K_alt.den for x in r] for r in K.H]:
        raise AssertionError("alternative second glue generates a different lattice")
    notes.append("delta_2 and its variant (3,1,2,0,3,1) generate the same lattice")

    return KummerReport(
        group="Q8hat",
        config=spec.config,
        F=F,
        disc_F=disc_F,
        K=K,
        disc_K=disc_K,
        root_pairs_F=len(roots_F),
        root_pairs_K=len(roots_K),
        roots_equal=equal,
        even_sets=tuple(even_sets),
        glue_info=(
            "delta_1 = (1,1,1,1,2,0) in base t_1..t_6",
            "delta_2 = (1,3,2,0,1,3) in base t_1..t_6",
            f"q(delta_1) = {q_value(F, d1.vector)}",
            f"q(delta_2) = {q_value(F, d2.vector)}",
        ),
        notes=tuple(notes),
    )


def build_K_T24hat() -> KummerReport:
    """Index-3 saturation of the 4A2+2A3+A5 curve lattice by order-3 glue.

    Searches the orientation assignments (coefficients (1,2) or (2,1) on
    each of the four free A_2 and the two A_2 inside the A_5) for vectors
    with integral pairings, and glues the first one.
    """
    spec = spec_for("T24hat")
    F = build_F(spec)
    disc_F = discriminant_group(F)

    # canonical block layout: 4 x A2 at 0,2,4,6; 2 x A3 at 8,11; A5 at 14
    free_pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
    a5_pairs = [(14, 15), (17, 18)]
    pairs = free_pairs + a5_pairs

    # an orientation is the numerator w of w / 3, integral iff F.w = 0 mod 3
    valid = []
    for orient in product((1, 2), repeat=len(pairs)):
        w = [0] * F.rank
        for (i, j), o in zip(pairs, orient):
            w[i], w[j] = o, 3 - o
        if all(sum(map(mul, row, w)) % 3 == 0 for row in F.gram):
            valid.append((orient, w))
    if not valid:
        raise NoIntegralOrientation("no integral orientation for the order-3 glue")

    orient, w = valid[0]
    g = GlueVector.in_dual(F, [Fraction(c, 3) for c in w])
    K = overlattice(F, [g])
    disc_K = discriminant_group(K.lattice)

    roots_F = roots(F)
    roots_K = roots(K.lattice)
    equal = _same_roots(K, roots_F, roots_K)

    labels = F.basis_labels
    orient_desc = tuple(
        f"({labels[i]},{labels[j]}) <- ({1 if o == 1 else 2},{2 if o == 1 else 1})"
        for (i, j), o in zip(pairs, orient)
    )
    return KummerReport(
        group="T24hat",
        config=spec.config,
        F=F,
        disc_F=disc_F,
        K=K,
        disc_K=disc_K,
        root_pairs_F=len(roots_F),
        root_pairs_K=len(roots_K),
        roots_equal=equal,
        glue_info=(f"integral orientations: {len(valid)}",) + orient_desc,
        notes=(f"q(gamma) = {q_value(F, g.vector)}",),
    )


def _same_roots(K: OverlatticeResult, roots_parent, roots_over) -> bool:
    """Compare root sets of a finite-index overlattice and its parent.

    The overlattice roots map to parent coordinates by one integer product
    with the basis numerators K.H (basis = H / den), divided by den once.
    """
    den = K.den
    over_in_parent = set()
    for w in mat_mul(roots_over, K.H):
        if any(x % den for x in w):
            return False  # a root of the overlattice outside the parent
        nz = next((x for x in w if x), 0)
        over_in_parent.add(tuple(x // den if nz > 0 else -x // den for x in w))
    return set(roots_parent) == over_in_parent


def verify_root_equality(K: OverlatticeResult, F: GramLattice) -> bool:
    """True iff the norm -2 vectors of the overlattice all lie in F.

    Raises NotASublattice when F is not contained in the overlattice.
    """
    n = F.rank
    for i in range(n):
        e = tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
        if not K.contains(e):
            raise NotASublattice("parent basis vector missing from overlattice")
    return _same_roots(K, roots(F), roots(K.lattice))


def build_group_report(group_name: str) -> KummerReport:
    """F-lattice report for any of the ten groups; full K for the two
    translation-twisted ones."""
    if group_name == "Q8hat":
        return build_K_Q8hat()
    if group_name == "T24hat":
        return build_K_T24hat()
    spec = spec_for(group_name)
    F = build_F(spec)
    disc_F = discriminant_group(F)
    return KummerReport(
        group=group_name,
        config=spec.config,
        F=F,
        disc_F=disc_F,
        root_pairs_F=len(roots(F)),
    )
