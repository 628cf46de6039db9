"""Exceptional-curve lattices of the ten torus-quotient K3 configurations and
the two primitive saturations built from explicit glue data.

`build_F` and the reports take a group name, which fixes the quotient
configuration; `build_F` gives the lattice its exceptional curves span.
For the two translation-twisted quaternionic groups the primitive
saturation is generated over F by explicit glue:

* Q8hat (A1+6A3): 4-divisible classes delta_1 = (1,1,1,1,2,0) and
  delta_2 = (1,3,2,0,1,3) in the base t_r = (1/4)(C_r^1 + 2 C_r^2 + 3 C_r^3);
  its three half even sets are the doubles 2*gamma of the glue mod F;
* T24hat (4A2+2A3+A5): an order-3 class supported with coefficients (1,2)
  on the six A_2 configurations lying inside the 4A2+A5 part: on each
  component a 3-torsion pattern placed by `divisibility` (on the A_5, its
  two end A_2), so integrality needs no search, and labelled by the same
  decoder as the 3-divisible candidates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import prod
from operator import add, or_

from ._record import Record
from .ade import ADEConfig, parse_config
from . import ade
from .divisibility import _candidate, _patterns
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


class KummerReport(Record):
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


@lru_cache(maxsize=None)
def _config(group: str) -> ADEConfig:
    """The configuration that the group name fixes, parsed once per process."""
    if group not in GROUP_CONFIGS:
        raise KeyError(f"unknown group {group!r}; known: {sorted(GROUP_CONFIGS)}")
    return parse_config(GROUP_CONFIGS[group])


def build_F(group: str) -> GramLattice:
    """Curve lattice of the group's configuration, with quotient-style labels."""
    labels = None
    if group == "Q8hat":  # A1 block first (C0), then the six A3 blocks C_r^s
        labels = ("C0", *(f"C{r}^{s}" for r in range(1, 7) for s in (1, 2, 3)))
    return ade.gram(_config(group), labels=labels)


def _t_base_nums(coeffs: tuple[int, ...]) -> list[int]:
    """Coefficients on t_1..t_6 as numerators over 4 of A1+6A3 curve
    coordinates: t_r = (1/4)(C_r^1 + 2 C_r^2 + 3 C_r^3); coordinate 0 is the
    A_1 curve."""
    return [0] + [s * c for c in coeffs for s in (1, 2, 3)]


def _t_base_vector(coeffs: tuple[int, ...]) -> tuple[Fraction, ...]:
    """`_t_base_nums` over 4, as a rational vector."""
    return tuple(Fraction(x, 4) for x in _t_base_nums(coeffs))


DELTA_1 = (1, 1, 1, 1, 2, 0)
DELTA_2 = (1, 3, 2, 0, 1, 3)
DELTA_2_ALT = (3, 1, 2, 0, 3, 1)


def _saturation(group: str, F: GramLattice, glue: list[GlueVector]) -> KummerReport:
    """Report on F, its overlattice K by the glue, and their roots: K contains
    F, so the two root sets are equal exactly when their counts are."""
    K = overlattice(F, glue)
    pairs_F, pairs_K = len(roots(F)), len(roots(K.lattice))
    return KummerReport(
        group=group, config=_config(group), F=F, disc_F=discriminant_group(F), K=K,
        disc_K=discriminant_group(K.lattice), root_pairs_F=pairs_F,
        root_pairs_K=pairs_K, roots_equal=pairs_F == pairs_K,
    )


def build_K_Q8hat() -> KummerReport:
    """Index-16 saturation of the A1+6A3 curve lattice by delta_1, delta_2."""
    F = build_F("Q8hat")
    d1, d2 = (GlueVector.in_dual(F, _t_base_vector(d)) for d in (DELTA_1, DELTA_2))
    # 2*gamma, numerators over 2, is half the curves with an odd numerator
    # mod F and lies in K with gamma: those curves form an even set
    doubles = (DELTA_1, tuple(map(add, DELTA_1, DELTA_2)), DELTA_2)
    even_sets = [tuple(label for label, x in zip(F.basis_labels, _t_base_nums(gamma)) if x % 2)
                 for gamma in doubles]
    text = {d: str(d).replace(" ", "") for d in (DELTA_1, DELTA_2, DELTA_2_ALT)}
    return _saturation("Q8hat", F, [d1, d2]).replace(
        even_sets=tuple(even_sets),
        glue_info=(
            f"delta_1 = {text[DELTA_1]} in base t_1..t_6",
            f"delta_2 = {text[DELTA_2]} in base t_1..t_6",
            f"q(delta_1) = {q_value(F, d1.vector)}",
            f"q(delta_2) = {q_value(F, d2.vector)}",
        ),
        notes=(
            "half of each even set v_1, v_2, v_3 lies in the saturation",
            "2*delta_1, 2*delta_2, 2*(delta_1+delta_2) reduce to v_1/2, v_3/2, v_2/2 mod F",
            f"delta_2 and its variant {text[DELTA_2_ALT]} generate the same lattice",
        ),
    )


def build_K_T24hat() -> KummerReport:
    """Index-3 saturation of the 4A2+2A3+A5 curve lattice by order-3 glue.

    Components are orthogonal, so a class with a nonzero 3-torsion pattern
    (`divisibility._patterns`) on each component that has one is integral:
    the integral orientations are the products of those patterns.  The glue
    joins each component's largest pattern, the one with coefficient 1 on
    its first curve, and is labelled like a 3-divisible candidate.
    """
    F = build_F("T24hat")
    graph = ade.dynkin(_config("T24hat"))
    patterns = [pats for pats in _patterns(graph, 3) if pats]
    glue = _candidate(graph, 3, reduce(or_, (pats[-1] for pats in patterns)))
    g = GlueVector.in_dual(F, glue.class_vector)
    return _saturation("T24hat", F, [g]).replace(
        glue_info=(f"integral orientations: {prod(map(len, patterns))}",
                   *(f"({one},{two}) <- (1,2)" for one, two in glue.support)),
        notes=(f"q(gamma) = {q_value(F, g.vector)}",),
    )


def verify_root_equality(K: OverlatticeResult, F: GramLattice) -> bool:
    """True iff the norm -2 vectors of the overlattice all lie in F.

    Raises NotASublattice when F is not K's parent or not contained in the
    overlattice.  Then the roots of F are roots of K, and the root sets are
    equal exactly when their counts are.
    """
    if F.gram != K.parent.gram:
        raise NotASublattice("F is not the overlattice's parent")
    if not all(K.contains([int(i == j) for j in range(F.rank)]) for i in range(F.rank)):
        raise NotASublattice("parent basis vector missing from overlattice")
    return len(roots(F)) == len(roots(K.lattice))


def build_group_report(group_name: str) -> KummerReport:
    """F-lattice report for any of the ten groups; full K for the two
    translation-twisted ones."""
    if group_name == "Q8hat":
        return build_K_Q8hat()
    if group_name == "T24hat":
        return build_K_T24hat()
    F = build_F(group_name)
    return KummerReport(group_name, _config(group_name), F, discriminant_group(F),
                        root_pairs_F=len(roots(F)))
