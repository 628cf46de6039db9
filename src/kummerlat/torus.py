"""Finite affine group actions on real 4-tori with exact arithmetic.

Group elements are affine maps x -> Mx + r written in coordinates of the
defining lattice, so the linear part is an integer matrix with determinant
+-1 and the translation is a rational vector taken mod Z^4.  Fixed points
are solved exactly via the Smith normal form of M - I; quotient
singularities are read off from orbit stabilizers through the standard
quotient-singularity dictionary (cyclic Z_n -> A_{n-1}, quaternion of order
8 -> D_4, binary dihedral of order 4m -> D_{m+2}, binary tetrahedral -> E_6).

Every translation and every fixed point lies in (1/N)Z^4/Z^4 for some N, so
the action runs on Python ints: a point is an int 4-tuple mod N and a group
element is its integer M with the translation numerators mod N.  Closure,
fixed points, orbits and stabilizers are computed that way.  A torus
lattice basis is likewise integer numerators over one denominator, and the
change into lattice coordinates is an integer product with its adjugate.
Arithmetic runs on these integer numerators; points and translations
convert to `Fraction` only on returned values (`AffineTorusMap`,
`FixedPointSet.points`, `SingularityReport`).  `AffineTorusMap.__call__` and
`compose` are the exception: they act on `Fraction` points directly.

Every standard group is generated by maps x -> qx + t in a quaternion
algebra with I^2 = -1, J^2 = sq_j and K = IJ.  One matrix,
`left_mult_matrix(q, sq_j)`, is x -> qx in the frame (1, I, J, K) for both
algebras in use: Hamilton's quaternions (sq_j = -1) carry the
Hurwitz-order groups, and the algebra with J^2 = -3 carries the binary
dihedral group of order 12, the unit group of its maximal order with the
rational basis 1, I, (I+J)/2, (1+K)/2.  The table `_GROUPS` gives each
group its default lattice, sq_j and generators as (q, frame translation)
pairs; every generator is written in coordinates of the lattice it acts on,
which it must preserve.

Two-torsion points on the Hurwitz lattice are written in the 'abcd'
shorthand: abcd = (a/2) + (b/2) i + (c/2) j + (d/2) t for the lattice basis
(1, i, j, t), t = (1+i+j+k)/2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from operator import mul

from .ade import ADEConfig
from .lattice import DegenerateLattice, RationalVector, _integer_rows, frac_str
from .snf import det_int, identity_matrix, mat_mul, smith_normal_form


class ClosureExceedsBound(ValueError):
    """Generator closure ran past the size bound (bad generators)."""


class NonIsolatedFixedLocus(ValueError):
    """Some group element fixes a positive-dimensional set."""

    def __init__(self, element: "AffineTorusMap"):
        super().__init__(f"element {element} has a positive-dimensional fixed locus")
        self.element = element


class UnrecognizedGroup(ValueError):
    """Stabilizer outside the cyclic/quaternionic/binary families."""


NON_SYMPLECTIC = "NonSymplectic"


def left_mult_matrix(coeffs, sq_j: int = -1) -> list[list[Fraction]]:
    """Matrix of x -> qx, q = a + bI + cJ + dK, in the frame (1, I, J, K).

    The algebra has I^2 = -1, J^2 = sq_j and K = IJ, so IJ = -JI = K,
    IK = -J, KI = J, JK = -sq_j I, KJ = sq_j I and K^2 = sq_j.  Hamilton's
    quaternions are sq_j = -1.
    """
    a, b, c, d = (Fraction(x) for x in coeffs)
    s = Fraction(sq_j)
    # columns: images of 1, I, J, K
    return [
        [a, -b, s * c, s * d],
        [b, a, s * d, -s * c],
        [c, d, a, -b],
        [d, -c, b, a],
    ]


@dataclass(frozen=True)
class TorusLattice:
    """Rank-4 lattice given by basis vectors in the ambient frame.

    Basis vector i is rows[i] / den in frame coordinates.  With C the
    integer matrix whose columns are the rows, frame coordinates f have
    lattice coordinates den adj(C) f / det(C).
    """

    name: str
    den: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) != 4 or any(len(b) != 4 for b in self.rows):
            raise ValueError("need 4 basis vectors of length 4")

    @cached_property
    def _frame_change(self) -> tuple[list[list[int]], list[list[int]], int]:
        """(C, adj(C), det(C)), computed once per lattice."""
        cols = [list(c) for c in zip(*self.rows)]
        det = det_int(cols)
        if det == 0:
            raise DegenerateLattice("torus lattice basis is singular")
        # adj(C)[i][j] is the (j, i) cofactor of C
        adj = [
            [(-1) ** (i + j) * det_int([r[:i] + r[i + 1:] for k, r in enumerate(cols) if k != j])
             for j in range(4)]
            for i in range(4)
        ]
        return cols, adj, det

    def to_lattice_matrix(self, frame_matrix) -> tuple[tuple[int, ...], ...]:
        """Conjugate a frame-coordinate linear map M = nums / m into lattice
        coordinates: C^-1 M C = adj(C) nums C / (det(C) m)."""
        cols, adj, det = self._frame_change
        m, nums = _integer_rows(frame_matrix, 4)
        q = det * m
        out = mat_mul(mat_mul(adj, nums), cols)
        if any(x % q for row in out for x in row):
            raise ValueError("linear map does not preserve the lattice")
        return tuple(tuple(x // q for x in row) for row in out)

    def to_lattice_vector(self, frame_vector) -> RationalVector:
        _, adj, det = self._frame_change
        d, (nums,) = _integer_rows([frame_vector], 4)
        return tuple(Fraction(self.den * sum(map(mul, row, nums)), det * d) for row in adj)


_T = Fraction(1, 2)
_UNIT_ROWS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

HURWITZ = TorusLattice("a", 2, ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 1)))

LIPSCHITZ = TorusLattice("a0", 1, _UNIT_ROWS)

# order Z[1, i, h, l] with h = (i+J)/2, l = (1+K)/2 in the (-1,-3) algebra
DIHEDRAL_ORDER = TorusLattice("b", 2, ((2, 0, 0, 0), (0, 2, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1)))

PRODUCT_LATTICE = TorusLattice("product", 1, _UNIT_ROWS)

LATTICES = {
    "a": HURWITZ,
    "a0": LIPSCHITZ,
    "b": DIHEDRAL_ORDER,
    "product": PRODUCT_LATTICE,
}


@dataclass(frozen=True)
class AffineTorusMap:
    """x -> Mx + r in lattice coordinates; r is reduced mod Z^4."""

    linear: tuple[tuple[int, ...], ...]
    translation: RationalVector

    @classmethod
    def of(cls, linear, translation=(0, 0, 0, 0)) -> "AffineTorusMap":
        """Checked constructor: M must be an integer matrix with det +-1."""
        if any(int(x) != x for row in linear for x in row):
            raise ValueError("linear part must be an integer matrix")
        lin = tuple(tuple(int(x) for x in row) for row in linear)
        if abs(det_int(lin)) != 1:
            raise ValueError("linear part must have determinant +-1")
        tr = tuple(Fraction(x) % 1 for x in translation)
        return cls(lin, tr)

    def __call__(self, point: RationalVector) -> RationalVector:
        return tuple(
            (sum(self.linear[i][j] * point[j] for j in range(4)) + self.translation[i]) % 1
            for i in range(4)
        )

    def compose(self, other: "AffineTorusMap") -> "AffineTorusMap":
        lin = tuple(map(tuple, mat_mul(self.linear, other.linear)))
        return AffineTorusMap(lin, self(other.translation))

    def is_identity(self) -> bool:
        return self.linear == _IDENTITY and all(t == 0 for t in self.translation)


_IDENTITY = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
IDENTITY_MAP = AffineTorusMap(_IDENTITY, (Fraction(0),) * 4)


@dataclass(frozen=True)
class TorusGroup:
    name: str
    lattice: TorusLattice
    elements: tuple[AffineTorusMap, ...]

    def __len__(self) -> int:
        return len(self.elements)


def _apply(m, t, x, n: int) -> tuple[int, ...]:
    """Mx + t mod n on numerators over n."""
    return tuple((sum(a * b for a, b in zip(row, x)) + ti) % n for row, ti in zip(m, t))


def closure(generators, bound: int = 120) -> tuple[AffineTorusMap, ...]:
    """Breadth-first multiplicative closure of affine maps mod the lattice.

    Elements are composed as (M, translation numerators mod N) pairs, N the
    lcm of the generators' translation denominators; each `AffineTorusMap`
    is built once, at the end, sorted by (linear, translation).
    """
    n, nums = _integer_rows([g.translation for g in generators], 4)
    gens = [(g.linear, tuple(x % n for x in t)) for g, t in zip(generators, nums)]
    els = {(_IDENTITY, (0,) * 4)}
    frontier = list(gens)
    els.update(frontier)
    while frontier:
        new = []
        for m, t in gens:
            for k, s in frontier:
                gh = (tuple(map(tuple, mat_mul(m, k))), _apply(m, t, s, n))
                if gh not in els:
                    els.add(gh)
                    new.append(gh)
                    if len(els) > bound:
                        raise ClosureExceedsBound(f"closure exceeded {bound} elements")
        frontier = new
    return tuple(
        AffineTorusMap(lin, tuple(Fraction(x, n) for x in t)) for lin, t in sorted(els)
    )


QUAT_I = (0, 1, 0, 0)
QUAT_J = (0, 0, 1, 0)
QUAT_K = (0, 0, 0, 1)
QUAT_T = (_T, _T, _T, _T)
ALPHA = (_T, _T, 0, 0)  # (1+i)/2 in frame coordinates
HALF_S = (Fraction(1, 4), Fraction(1, 4), Fraction(-1, 4), Fraction(1, 4))  # s/2
_NO_SHIFT = (0, 0, 0, 0)


def _map_from_quat(lat: TorusLattice, q, translation_frame=_NO_SHIFT, sq_j: int = -1) -> AffineTorusMap:
    lin = lat.to_lattice_matrix(left_mult_matrix(q, sq_j))
    tr = lat.to_lattice_vector(translation_frame)
    return AffineTorusMap.of(lin, tr)


# name -> (default lattice, sq_j, generators as (q, translation in the frame))
_GROUPS = {
    "neg1": ("a", -1, [((-1, 0, 0, 0), _NO_SHIFT)]),
    "i": ("a", -1, [(QUAT_I, _NO_SHIFT)]),
    "Q8": ("a0", -1, [(QUAT_I, _NO_SHIFT), (QUAT_J, _NO_SHIFT)]),
    "Q8_T24": ("a", -1, [(QUAT_I, _NO_SHIFT), (QUAT_J, _NO_SHIFT)]),
    "T24": ("a", -1, [(QUAT_I, _NO_SHIFT), (QUAT_J, _NO_SHIFT), (QUAT_T, _NO_SHIFT)]),
    # I, (I+J)/2 and (1+K)/2 in the algebra with J^2 = -3
    "D12": ("b", -3, [(QUAT_I, _NO_SHIFT), ((0, _T, _T, 0), _NO_SHIFT),
                      ((_T, 0, 0, _T), _NO_SHIFT)]),
    "Q8hat": ("a", -1, [(QUAT_I, _NO_SHIFT), (QUAT_J, ALPHA)]),
    "T24hat": ("a", -1, [(QUAT_I, _NO_SHIFT), (QUAT_J, ALPHA), (QUAT_T, HALF_S)]),
}
_ALIASES = {
    "Z2": "neg1",
    "-1": "neg1",
    "Z4": "i",
    "<i>": "i",
    "Q8<T24": "Q8_T24",
    "Q8subT24": "Q8_T24",
}


def standard_group(name: str, lattice: str | None = None, e1=None, e2=None) -> TorusGroup:
    """Catalog of the torus groups used by the quotient constructions.

    Names: neg1 (or Z2), i (or Z4), Q8, Q8_T24, T24, D12, Q8hat, T24hat,
    lieberman.  The lieberman group takes nonzero 2-torsion points e1, e2 of
    the two elliptic-curve factors and lives on the product lattice only.
    A lattice the generators do not preserve raises ValueError.
    """
    key = name.strip()
    key = _ALIASES.get(key, key)
    if key == "lieberman":
        if lattice not in (None, "product"):
            raise ValueError("the lieberman group lives on the product lattice only")
        lat = LATTICES["product"]
        gens = _lieberman_maps(e1, e2)
    elif key in _GROUPS:
        default, sq_j, table = _GROUPS[key]
        lat = LATTICES[lattice or default]
        gens = [_map_from_quat(lat, q, t, sq_j) for q, t in table]
    else:
        raise UnrecognizedGroup(f"unknown group name {name!r}")
    return TorusGroup(key, lat, closure(gens))


def _lieberman_maps(e1, e2) -> tuple[AffineTorusMap, AffineTorusMap]:
    """-1 and tau: (z1, z2) -> (-z1 + e1, z2 + e2) on the product torus."""
    e1 = _two_torsion_pair(e1, "e1")
    e2 = _two_torsion_pair(e2, "e2")
    neg = AffineTorusMap.of([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    tau = AffineTorusMap.of(
        [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        (*e1, *e2),
    )
    return neg, tau


def _two_torsion_pair(e, label: str):
    if e is None:
        raise ValueError(f"{label} is required for the lieberman group")
    pair = tuple(Fraction(x) % 1 for x in e)
    if len(pair) != 2 or any((2 * x) % 1 != 0 for x in pair):
        raise ValueError(f"{label} must be a 2-torsion point of an elliptic factor")
    return pair


# ---------------------------------------------------------------------------
# fixed points


@dataclass(frozen=True)
class FixedPointSet:
    kind: str  # "finite" | "empty" | "positive_dimensional"
    points: tuple[RationalVector, ...] = ()


def fixed_points(g: AffineTorusMap) -> FixedPointSet:
    """Exact solution set of (M - I) x = -r mod Z^4 in lattice coordinates.

    When det(M - I) != 0 there are exactly |det(M - I)| fixed points; when
    the determinant vanishes, solvability decides between an empty and a
    positive-dimensional fixed locus.  With r = t/N and U(M - I)V = D the
    Smith form, y = V^-1 x solves d_i y_i = c_i/N mod 1 for c = -Ut, so the
    points are enumerated as ints mod Q = N lcm(d_i) and become `Fraction`
    only in the returned set.
    """
    if g.is_identity():
        raise ValueError("fixed points of the identity are the whole torus")
    A = [[g.linear[i][j] - (1 if i == j else 0) for j in range(4)] for i in range(4)]
    n, (t,) = _integer_rows([g.translation], 4)
    D, U, V = smith_normal_form(A)
    c = [-sum(u * x for u, x in zip(row, t)) for row in U]
    d = [D[i][i] for i in range(4)]
    if any(di == 0 and ci % n for di, ci in zip(d, c)):
        return FixedPointSet("empty")
    if 0 in d:
        return FixedPointSet("positive_dimensional")
    q = n * lcm(*d)
    # y_i = (c_i + k n) / (d_i n) for k in range(d_i), as numerators over q
    ys = [[(ci + k * n) * (q // (di * n)) for k in range(di)] for di, ci in zip(d, c)]
    points = {
        tuple(sum(v * y for v, y in zip(row, combo)) % q for row in V)
        for combo in product(*ys)
    }
    if len(points) != abs(det_int(A)):
        raise AssertionError("fixed point count disagrees with |det(M - I)|")
    return FixedPointSet(
        "finite", tuple(tuple(Fraction(x, q) for x in p) for p in sorted(points))
    )


# ---------------------------------------------------------------------------
# singularities of the quotient


@dataclass(frozen=True)
class SingularityReport:
    group: str
    lattice: str
    points: tuple[RationalVector, ...]
    orbits: tuple[tuple[RationalVector, ...], ...]
    stabilizer_orders: tuple[int, ...]
    stabilizer_types: tuple[tuple[str, int], ...]
    config: ADEConfig

    def to_json_dict(self) -> dict:
        pts = []
        for orbit_idx, orbit in enumerate(self.orbits):
            for p in orbit:
                entry = {
                    "coords": [frac_str(c) for c in p],
                    "orbit": orbit_idx,
                    "stabilizer_order": self.stabilizer_orders[orbit_idx],
                    "ade": "%s%d" % self.stabilizer_types[orbit_idx],
                }
                short = abcd_shorthand(p)
                if short is not None:
                    entry["abcd"] = short
                pts.append(entry)
        return {
            "group": self.group,
            "lattice": self.lattice,
            "points": pts,
            "config": self.config.render(),
        }


def abcd_shorthand(point: RationalVector) -> str | None:
    """Two-torsion shorthand abcd for lattice coordinates (a/2, b/2, c/2, d/2)."""
    digits = []
    for c in point:
        h, rest = divmod(2 * c.numerator, c.denominator)
        if rest or h not in (0, 1):
            return None
        digits.append(str(h))
    return "".join(digits)


def parse_abcd(text: str) -> RationalVector:
    if len(text) != 4 or any(ch not in "01" for ch in text):
        raise ValueError("abcd shorthand needs four binary digits")
    return tuple(Fraction(int(ch), 2) for ch in text)


def stabilizer_ade_type(matrices) -> tuple[str, int] | str:
    """Quotient-singularity type of a finite stabilizer of linear parts.

    Cyclic groups of order n give A_{n-1}; binary dihedral groups of order
    4m give D_{m+2} (the quaternion group, m = 2, gives D_4); the binary
    tetrahedral group of order 24 gives E_6.
    """
    mats = [[list(r) for r in m] for m in matrices]
    order = len(mats)
    if any(det_int(m) != 1 for m in mats):
        return NON_SYMPLECTIC
    if order == 1:
        raise UnrecognizedGroup("trivial stabilizer has no singularity type")
    identity = identity_matrix(4)

    def mat_order(m) -> int:
        p = m
        for k in range(1, order + 1):
            if p == identity:
                return k
            p = mat_mul(m, p)
        raise UnrecognizedGroup("element order exceeds group order")

    orders = sorted(mat_order(m) for m in mats)
    if order in orders:
        return ("A", order - 1)
    involutions = orders.count(2)
    if order % 4 == 0 and involutions == 1 and orders.count(order // 2) > 0:
        # binary dihedral of order 4m contains a cyclic subgroup of order 2m
        m = order // 4
        if order in (8, 12, 16, 20, 24):
            return ("D", m + 2)
    if order == 24 and involutions == 1:
        return ("E", 6)
    raise UnrecognizedGroup(f"stabilizer of order {order} not classified")


def singularity_configuration(group: TorusGroup) -> SingularityReport:
    """Quotient singularities of the torus by the group action.

    Collects the fixed points of all nontrivial elements, partitions them
    into orbits, classifies each orbit stabilizer and assembles the ADE
    configuration.  Raises NonIsolatedFixedLocus if some element fixes a
    positive-dimensional set.

    Points are int 4-tuples mod N, N the lcm of all point and translation
    denominators.  One pass over the sorted points takes each unvisited p
    (the least point of its orbit), builds its image row g(p) over the
    group once, and reads the orbit and the stabilizer of p off that row.
    The report holds the `Fraction` points that `fixed_points` returned.
    """
    fixed = []
    for g in group.elements:
        if g.is_identity():
            continue
        fp = fixed_points(g)
        if fp.kind == "positive_dimensional":
            raise NonIsolatedFixedLocus(g)
        fixed.extend(fp.points)
    n, nums = _integer_rows(fixed + [g.translation for g in group.elements], 4)
    nums = [tuple(x % n for x in v) for v in nums]
    frac = dict(zip(nums, fixed))
    maps = [(g.linear, t) for g, t in zip(group.elements, nums[len(fixed):])]

    orbits = []
    stab_orders = []
    stab_types = []
    visited: set[tuple[int, ...]] = set()
    for p in sorted(frac):
        if p in visited:
            continue
        row = [_apply(m, t, p, n) for m, t in maps]
        orbit = sorted(set(row))
        stab = [g for g, x in zip(group.elements, row) if x == p]
        if len(orbit) * len(stab) != len(group):
            raise AssertionError("orbit-stabilizer identity violated")
        if not all(x in frac for x in orbit):
            raise AssertionError("an orbit leaves the fixed points: the group is not closed")
        visited.update(orbit)
        orbits.append(tuple(frac[x] for x in orbit))
        ade_type = stabilizer_ade_type([g.linear for g in stab])
        if ade_type == NON_SYMPLECTIC:
            raise UnrecognizedGroup("non-symplectic stabilizer encountered")
        stab_orders.append(len(stab))
        stab_types.append(ade_type)

    config = ADEConfig.from_counts(Counter(stab_types))
    if config.rank != sum(n for _, n in stab_types):
        raise AssertionError("configuration rank mismatch")
    return SingularityReport(
        group=group.name,
        lattice=group.lattice.name,
        points=tuple(frac[p] for p in sorted(frac)),
        orbits=tuple(orbits),
        stabilizer_orders=tuple(stab_orders),
        stabilizer_types=tuple(stab_types),
        config=config,
    )


@dataclass(frozen=True)
class LiebermanReport:
    e1: tuple[Fraction, Fraction]
    e2: tuple[Fraction, Fraction]
    tau_fixed: str
    neg_tau_fixed: str
    fixed_point_free: bool
    config: ADEConfig | None

    def to_json_dict(self) -> dict:
        return {
            "e1": [frac_str(c) for c in self.e1],
            "e2": [frac_str(c) for c in self.e2],
            "tau_fixed": self.tau_fixed,
            "neg_tau_fixed": self.neg_tau_fixed,
            "fixed_point_free": self.fixed_point_free,
            "config": self.config.render() if self.config else None,
        }


def lieberman_check(e1, e2) -> LiebermanReport:
    """Verify the product-torus involution x -> (-z1 + e1, z2 + e2).

    For nonzero 2-torsion e1, e2 both tau and -tau act freely and the
    quotient by {1, -1, tau, -tau} carries an 8A1 configuration.
    """
    neg, tau = _lieberman_maps(e1, e2)
    fp_tau = fixed_points(tau)
    fp_neg = fixed_points(neg.compose(tau))
    free = fp_tau.kind == "empty" and fp_neg.kind == "empty"
    config = None
    if free:
        config = singularity_configuration(standard_group("lieberman", e1=e1, e2=e2)).config
    return LiebermanReport(
        e1=tau.translation[:2],
        e2=tau.translation[2:],
        tau_fixed=fp_tau.kind,
        neg_tau_fixed=fp_neg.kind,
        fixed_point_free=free,
        config=config,
    )
