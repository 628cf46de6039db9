"""Finite quaternion group actions on 4-tori and their quotient singularities.

The Hurwitz order a = Z[1, i, j, t], t = (1+i+j+k)/2, has unit group the
binary tetrahedral group.  Left multiplication gives torus actions; the
translation-twisted groups act without global fixed points.  Fixed point
sets are solved exactly and the quotient singularities assembled from the
orbit stabilizers.
"""

from fractions import Fraction

from kummerlat import (
    abcd_shorthand,
    fixed_points,
    lieberman_check,
    singularity_configuration,
    standard_group,
)
from kummerlat.torus import ALPHA, HURWITZ, QUAT_I, QUAT_J, QUAT_K, _map_from_quat

print("fixed 2-torsion points (abcd = a/2 + b/2 i + c/2 j + d/2 t):")
for name, q, shift in (
    ("i   ", QUAT_I, (0, 0, 0, 0)),
    ("j'  ", QUAT_J, ALPHA),
    ("k'  ", QUAT_K, ALPHA),
):
    fp = fixed_points(_map_from_quat(HURWITZ, q, shift))
    print(f"  Fix({name}) = {sorted(abcd_shorthand(p) for p in fp.points)}")

print("\nquotient singularities for the catalog of groups:")
for name in ("neg1", "i", "Q8", "Q8_T24", "Q8hat", "D12", "T24", "T24hat"):
    group = standard_group(name)
    rep = singularity_configuration(group)
    print(f"  {name:>8} (|G| = {len(group):2}, lattice {group.lattice.name:>7})"
          f" -> {rep.config.render()}")

rep = singularity_configuration(standard_group("Q8hat"))
print("\norbit detail for Q8hat:")
for orbit, order, ade in zip(rep.orbits, rep.stabilizer_orders, rep.stabilizer_types):
    pts = ", ".join(abcd_shorthand(p) for p in orbit)
    print(f"  {'%s%d' % ade}: stabilizer order {order}, orbit {{{pts}}}")

half = Fraction(1, 2)
lieb = lieberman_check((half, 0), (0, half))
print("\nproduct-torus involution (-z1 + e1, z2 + e2):")
print("  tau fixed locus:", lieb.tau_fixed, "/ -tau:", lieb.neg_tau_fixed)
print("  quotient configuration:", lieb.config.render())
