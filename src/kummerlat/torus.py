"""Finite affine group actions on real 4-tori with exact arithmetic.

Group elements are affine maps x -> Mx + r written in coordinates of the
defining lattice, so the linear part is an integer matrix with determinant
+-1 and the translation is a rational vector taken mod Z^4.  Fixed points
are solved exactly via the Smith normal form of M - I; quotient
singularities are read off from orbit stabilizers through the standard
quotient-singularity dictionary (cyclic Z_n -> A_{n-1}, quaternion of order
8 -> D_4, binary dihedral of order 4m -> D_{m+2}, binary tetrahedral -> E_6).

Hurwitz-order groups live on the quaternions with i^2 = j^2 = -1; the
binary dihedral group of order 12 lives in the algebra with i^2 = -1 and
J^2 = -3, where its maximal order has the rational basis 1, i, (i+J)/2,
(1+K)/2.

Two-torsion points on the Hurwitz lattice are written in the 'abcd'
shorthand: abcd = (a/2) + (b/2) i + (c/2) j + (d/2) t for the lattice basis
(1, i, j, t), t = (1+i+j+k)/2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .ade import ADEConfig
from .lattice import DegenerateLattice, RationalVector, frac_str, solve
from .snf import det_int, smith_normal_form


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


@dataclass(frozen=True)
class QuatRational:
    """Quaternion a + bi + cj + dk over Q, with i^2 = j^2 = k^2 = -1."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @classmethod
    def of(cls, a=0, b=0, c=0, d=0) -> "QuatRational":
        return cls(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def __mul__(self, other: "QuatRational") -> "QuatRational":
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return QuatRational(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def __neg__(self) -> "QuatRational":
        return QuatRational(-self.a, -self.b, -self.c, -self.d)

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)


def left_mult_matrix(q: QuatRational) -> list[list[Fraction]]:
    """Matrix of x -> q x in the frame (1, i, j, k); multiplicative."""
    a, b, c, d = q.coords()
    return [
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ]


def _algebra_left_matrix(coeffs, sq_i: int, sq_j: int) -> list[list[Fraction]]:
    """Left multiplication in the algebra with I^2 = sq_i, J^2 = sq_j, K = IJ.

    Multiplication rules: IJ = -JI = K, IK = sq_i J, KI = -sq_i J,
    JK = -sq_j I, KJ = sq_j I, K^2 = -sq_i sq_j.
    """
    a, b, c, d = (Fraction(x) for x in coeffs)
    ai, aj = Fraction(sq_i), Fraction(sq_j)
    # columns: images of 1, I, J, K
    return [
        [a, ai * b, aj * c, -ai * aj * d],
        [b, a, aj * d, -aj * c],
        [c, -ai * d, a, ai * b],
        [d, -c, b, a],
    ]


@dataclass(frozen=True)
class TorusLattice:
    """Rank-4 lattice given by basis vectors in the ambient frame."""

    name: str
    basis: tuple[RationalVector, ...]  # rows: basis vectors in frame coords

    def __post_init__(self):
        if len(self.basis) != 4 or any(len(b) != 4 for b in self.basis):
            raise ValueError("need 4 basis vectors of length 4")

    def basis_columns(self) -> list[list[Fraction]]:
        return [[self.basis[j][i] for j in range(4)] for i in range(4)]

    def _solve(self, frame_columns) -> list[list[Fraction]]:
        """Lattice coordinates X with B.X = frame_columns, B the basis columns."""
        X = solve(self.basis_columns(), frame_columns)
        if X is None:
            raise DegenerateLattice("torus lattice basis is singular")
        return X

    def to_lattice_matrix(self, frame_matrix) -> tuple[tuple[int, ...], ...]:
        """Conjugate a frame-coordinate linear map into lattice coordinates."""
        B = self.basis_columns()
        MB = [[sum(frame_matrix[i][t] * B[t][j] for t in range(4)) for j in range(4)] for i in range(4)]
        out = self._solve(MB)
        rows = []
        for row in out:
            ints = []
            for x in row:
                if x.denominator != 1:
                    raise ValueError("linear map does not preserve the lattice")
                ints.append(int(x))
            rows.append(tuple(ints))
        return tuple(rows)

    def to_lattice_vector(self, frame_vector) -> RationalVector:
        return tuple(row[0] for row in self._solve([[x] for x in frame_vector]))


_T = Fraction(1, 2)

HURWITZ = TorusLattice(
    "a",
    (
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
        (_T, _T, _T, _T),
    ),
)

LIPSCHITZ = TorusLattice(
    "a0",
    (
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
    ),
)

# order Z[1, i, h, l] with h = (i+J)/2, l = (1+K)/2 in the (-1,-3) algebra
DIHEDRAL_ORDER = TorusLattice(
    "b",
    (
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), _T, _T, Fraction(0)),
        (_T, Fraction(0), Fraction(0), _T),
    ),
)

PRODUCT_LATTICE = TorusLattice("product", LIPSCHITZ.basis)

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
        lin = tuple(tuple(int(x) for x in row) for row in linear)
        tr = tuple(Fraction(x) % 1 for x in translation)
        return cls(lin, tr)

    def __call__(self, point: RationalVector) -> RationalVector:
        return tuple(
            (sum(self.linear[i][j] * point[j] for j in range(4)) + self.translation[i]) % 1
            for i in range(4)
        )

    def compose(self, other: "AffineTorusMap") -> "AffineTorusMap":
        lin = tuple(
            tuple(sum(self.linear[i][t] * other.linear[t][j] for t in range(4)) for j in range(4))
            for i in range(4)
        )
        tr = tuple(
            (
                sum(self.linear[i][j] * other.translation[j] for j in range(4))
                + self.translation[i]
            )
            % 1
            for i in range(4)
        )
        return AffineTorusMap(lin, tr)

    def is_identity(self) -> bool:
        return self.linear == _IDENTITY and all(t == 0 for t in self.translation)

    def order(self, bound: int = 48) -> int:
        g = self
        for k in range(1, bound + 1):
            if g.is_identity():
                return k
            g = self.compose(g)
        raise ClosureExceedsBound("element order exceeds bound")


_IDENTITY = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
IDENTITY_MAP = AffineTorusMap(_IDENTITY, (Fraction(0),) * 4)


@dataclass(frozen=True)
class TorusGroup:
    name: str
    lattice: TorusLattice
    elements: tuple[AffineTorusMap, ...]

    def __len__(self) -> int:
        return len(self.elements)


def closure(generators, bound: int = 120) -> tuple[AffineTorusMap, ...]:
    """Breadth-first multiplicative closure of affine maps mod the lattice."""
    els = {IDENTITY_MAP}
    frontier = list(generators)
    els.update(frontier)
    while frontier:
        new = []
        for g in generators:
            for h in frontier:
                gh = g.compose(h)
                if gh not in els:
                    els.add(gh)
                    new.append(gh)
                    if len(els) > bound:
                        raise ClosureExceedsBound(f"closure exceeded {bound} elements")
        frontier = new
    return tuple(sorted(els, key=lambda e: (e.linear, e.translation)))


QUAT_1 = QuatRational.of(1)
QUAT_I = QuatRational.of(0, 1)
QUAT_J = QuatRational.of(0, 0, 1)
QUAT_K = QuatRational.of(0, 0, 0, 1)
QUAT_T = QuatRational.of(_T, _T, _T, _T)
ALPHA = (_T, _T, 0, 0)  # (1+i)/2 in frame coordinates
HALF_S = (Fraction(1, 4), Fraction(1, 4), Fraction(-1, 4), Fraction(1, 4))  # s/2


def _map_from_quat(lat: TorusLattice, q: QuatRational, translation_frame=(0, 0, 0, 0)) -> AffineTorusMap:
    lin = lat.to_lattice_matrix(left_mult_matrix(q))
    tr = lat.to_lattice_vector(translation_frame)
    return AffineTorusMap.of(lin, tr)


def _dihedral_generators() -> list[AffineTorusMap]:
    lat = DIHEDRAL_ORDER
    gens = []
    for coeffs in ((0, 1, 0, 0), (0, _T, _T, 0), (_T, 0, 0, _T)):  # i, h, l
        frame = _algebra_left_matrix(coeffs, -1, -3)
        gens.append(AffineTorusMap.of(lat.to_lattice_matrix(frame)))
    return gens


def standard_group(name: str, lattice: str | None = None, e1=None, e2=None) -> TorusGroup:
    """Catalog of the torus groups used by the quotient constructions.

    Names: neg1 (or Z2), i (or Z4), Q8, Q8_T24, T24, D12, Q8hat, T24hat,
    lieberman.  The lieberman group takes nonzero 2-torsion points e1, e2 of
    the two elliptic-curve factors.
    """
    key = name.strip()
    aliases = {
        "Z2": "neg1",
        "-1": "neg1",
        "Z4": "i",
        "<i>": "i",
        "Q8<T24": "Q8_T24",
        "Q8subT24": "Q8_T24",
    }
    key = aliases.get(key, key)

    defaults = {
        "neg1": "a",
        "i": "a",
        "Q8": "a0",
        "Q8_T24": "a",
        "T24": "a",
        "D12": "b",
        "Q8hat": "a",
        "T24hat": "a",
        "lieberman": "product",
    }
    if key not in defaults:
        raise UnrecognizedGroup(f"unknown group name {name!r}")
    lat = LATTICES[lattice] if lattice else LATTICES[defaults[key]]

    if key == "neg1":
        gens = [_map_from_quat(lat, -QUAT_1)]
    elif key == "i":
        gens = [_map_from_quat(lat, QUAT_I)]
    elif key in ("Q8", "Q8_T24"):
        gens = [_map_from_quat(lat, QUAT_I), _map_from_quat(lat, QUAT_J)]
    elif key == "T24":
        gens = [
            _map_from_quat(lat, QUAT_I),
            _map_from_quat(lat, QUAT_J),
            _map_from_quat(lat, QUAT_T),
        ]
    elif key == "D12":
        gens = _dihedral_generators()
    elif key == "Q8hat":
        gens = [
            _map_from_quat(lat, QUAT_I),
            _map_from_quat(lat, QUAT_J, ALPHA),
        ]
    elif key == "T24hat":
        gens = [
            _map_from_quat(lat, QUAT_I),
            _map_from_quat(lat, QUAT_J, ALPHA),
            _map_from_quat(lat, QUAT_T, HALF_S),
        ]
    else:  # lieberman
        e1 = _two_torsion_pair(e1, "e1")
        e2 = _two_torsion_pair(e2, "e2")
        neg = AffineTorusMap.of([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
        tau = AffineTorusMap.of(
            [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            (e1[0], e1[1], e2[0], e2[1]),
        )
        gens = [neg, tau]
    return TorusGroup(key, lat, closure(gens))


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

    def __len__(self) -> int:
        return len(self.points)


def fixed_points(g: AffineTorusMap, lat: TorusLattice) -> FixedPointSet:
    """Exact solution set of (M - I) x = -r mod Z^4 in lattice coordinates.

    When det(M - I) != 0 there are exactly |det(M - I)| fixed points; when
    the determinant vanishes, solvability decides between an empty and a
    positive-dimensional fixed locus.
    """
    if g.is_identity():
        raise ValueError("fixed points of the identity are the whole torus")
    A = [[g.linear[i][j] - (1 if i == j else 0) for j in range(4)] for i in range(4)]
    rhs = [-t for t in g.translation]
    D, U, V = smith_normal_form(A)
    c = [sum(U[i][j] * rhs[j] for j in range(4)) for i in range(4)]
    ranges = []
    for i in range(4):
        d = D[i][i]
        if d == 0:
            if c[i] % 1 != 0:
                return FixedPointSet("empty")
            ranges.append(None)
        else:
            ranges.append(d)
    if any(r is None for r in ranges):
        return FixedPointSet("positive_dimensional")
    points = set()
    for combo in product(*(range(abs(r)) for r in ranges)):
        y = [(c[i] + combo[i]) / ranges[i] for i in range(4)]
        x = tuple(
            (sum(V[i][j] * y[j] for j in range(4))) % 1 for i in range(4)
        )
        points.add(x)
    if len(points) != abs(det_int(A)):
        raise AssertionError("fixed point count disagrees with |det(M - I)|")
    return FixedPointSet("finite", tuple(sorted(points)))


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
        h = c * 2
        if h.denominator != 1 or int(h) not in (0, 1):
            return None
        digits.append(str(int(h)))
    return "".join(digits)


def parse_abcd(text: str) -> RationalVector:
    if len(text) != 4 or any(ch not in "01" for ch in text):
        raise ValueError("abcd shorthand needs four binary digits")
    return tuple(Fraction(int(ch), 2) for ch in text)


def stabilizer_ade_type(matrices) -> tuple[str, int] | str:
    """Quotient-singularity type of a finite stabilizer of linear parts.

    Cyclic groups of order n give A_{n-1}; the quaternion group of order 8
    gives D_4; binary dihedral groups of order 4m give D_{m+2}; the binary
    tetrahedral group of order 24 gives E_6.
    """
    mats = list(matrices)
    order = len(mats)
    if any(det_int([list(r) for r in m]) != 1 for m in mats):
        return NON_SYMPLECTIC
    if order == 1:
        raise UnrecognizedGroup("trivial stabilizer has no singularity type")

    def mat_order(m) -> int:
        p = m
        for k in range(1, order + 1):
            if p == _IDENTITY:
                return k
            p = tuple(
                tuple(sum(m[i][t] * p[t][j] for t in range(4)) for j in range(4))
                for i in range(4)
            )
        raise UnrecognizedGroup("element order exceeds group order")

    orders = sorted(mat_order(m) for m in mats)
    if order in orders:
        return ("A", order - 1)
    involutions = orders.count(2)
    if order == 8 and involutions == 1:
        return ("D", 4)
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
    """
    all_points: set[RationalVector] = set()
    for g in group.elements:
        if g.is_identity():
            continue
        fp = fixed_points(g, group.lattice)
        if fp.kind == "positive_dimensional":
            raise NonIsolatedFixedLocus(g)
        all_points.update(fp.points)

    remaining = set(all_points)
    orbits = []
    while remaining:
        seed = min(remaining)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            p = frontier.pop()
            for g in group.elements:
                q = g(p)
                if q not in orbit:
                    orbit.add(q)
                    frontier.append(q)
        orbits.append(tuple(sorted(orbit)))
        remaining -= orbit

    orbits.sort()
    stab_orders = []
    stab_types = []
    for orbit in orbits:
        rep = orbit[0]
        stab = [g for g in group.elements if g(rep) == rep]
        if len(orbit) * len(stab) != len(group.elements):
            raise AssertionError("orbit-stabilizer identity violated")
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
        points=tuple(sorted(all_points)),
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
    e1 = tuple(Fraction(x) % 1 for x in e1)
    e2 = tuple(Fraction(x) % 1 for x in e2)
    group = standard_group("lieberman", e1=e1, e2=e2)
    tau = AffineTorusMap.of(
        [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        (e1[0], e1[1], e2[0], e2[1]),
    )
    neg_tau = AffineTorusMap.of(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        tuple(-t for t in tau.translation),
    )
    fp_tau = fixed_points(tau, group.lattice)
    fp_neg = fixed_points(neg_tau, group.lattice)
    free = fp_tau.kind == "empty" and fp_neg.kind == "empty"
    config = None
    if free:
        config = singularity_configuration(group).config
    return LiebermanReport(
        e1=e1,
        e2=e2,
        tau_fixed=fp_tau.kind,
        neg_tau_fixed=fp_neg.kind,
        fixed_point_free=free,
        config=config,
    )
