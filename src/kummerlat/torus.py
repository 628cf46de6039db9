"""Finite affine group actions on real 4-tori with exact arithmetic.

Group elements are affine maps x -> Mx + r in coordinates of the defining
lattice: M is an integer matrix of determinant +-1 and r a rational vector
mod Z^4.  Fixed points are solved exactly via the Smith normal form of
M - I.  The singular points of the quotient are the fixed points of one
generator of each cyclic subgroup of prime order, read off one table of
element orders per group; each orbit stabilizer is named from the same
table by the quotient-singularity dictionary (cyclic of order n -> A_{n-1},
binary dihedral of order 4m -> D_{m+2}, binary tetrahedral, octahedral,
icosahedral -> E_6, E_7, E_8).

Every translation and fixed point lies in (1/N)Z^4/Z^4 for some N, so the
action runs on Python ints: a point is an int 4-tuple mod N and an element
is its integer M with the translation numerators mod N.  A torus lattice
basis is integer numerators over one denominator, and the change into
lattice coordinates is an integer product with its adjugate.  Points and
translations become `Fraction` only on returned values (`AffineTorusMap`,
`FixedPointSet.points`, `SingularityReport`); `AffineTorusMap.__call__` and
`compose` act on `Fraction` points directly.  A tuple that a call frees is
built from a list or a display, never from an iterator (README's conventions).

Every standard group is generated by maps x -> qx + t in a quaternion
algebra with I^2 = -1, J^2 = sq_j and K = IJ; `left_mult_matrix(q, sq_j)`
is x -> qx in the frame (1, I, J, K).  Hamilton's quaternions (sq_j = -1)
carry the Hurwitz-order groups; the algebra with J^2 = -3 carries the
binary dihedral group of order 12, the unit group of its maximal order with
rational basis 1, I, (I+J)/2, (1+K)/2.  `_GROUPS` gives each group its
default lattice, sq_j and generators as (q, frame translation) pairs, each
written in coordinates of a lattice it must preserve.  The Lieberman group
{1, -1, tau, -tau} is not in the table: `lieberman_check` builds it on the
product lattice from its two 2-torsion points.

Two-torsion points on the Hurwitz lattice are written in the 'abcd'
shorthand: abcd = (a/2) + (b/2) i + (c/2) j + (d/2) t for the lattice basis
(1, i, j, t), t = (1+i+j+k)/2.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add, mul

from ._record import Record
from .ade import ADEConfig, _group_order
from .lattice import DegenerateLattice, RationalVector, _integer_rows, frac_str
from .snf import det_int, mat_mul, smith_normal_form


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


class TorusLattice(Record):
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
        """(C, adj(C), det(C)), computed once per lattice: with U C V = D the
        Smith form, adj(C) = det(C) C^-1 = V diag(det(C) / d_i) U."""
        cols = [list(c) for c in zip(*self.rows)]
        det = det_int(cols)
        if det == 0:
            raise DegenerateLattice("torus lattice basis is singular")
        D, U, V = smith_normal_form(cols)
        return cols, mat_mul(V, [[det // D[k][k] * x for x in row] for k, row in enumerate(U)]), det

    def to_lattice_matrix(self, frame_matrix) -> tuple[tuple[int, ...], ...]:
        """Conjugate a frame-coordinate linear map M = nums / m into lattice
        coordinates: C^-1 M C = adj(C) nums C / (det(C) m)."""
        cols, adj, det = self._frame_change
        m, nums = _integer_rows(frame_matrix, 4)
        q = det * m
        out = mat_mul(mat_mul(adj, nums), cols)
        if any(x % q for row in out for x in row):
            raise ValueError("linear map does not preserve the lattice")
        return tuple([tuple([x // q for x in row]) for row in out])

    def to_lattice_vector(self, frame_vector) -> RationalVector:
        _, adj, det = self._frame_change
        d, (nums,) = _integer_rows([frame_vector], 4)
        return tuple([Fraction(self.den * sum(map(mul, row, nums)), det * d) for row in adj])


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


class AffineTorusMap(Record):
    """x -> Mx + r in lattice coordinates; r is reduced mod Z^4."""

    linear: tuple[tuple[int, ...], ...]
    translation: RationalVector

    @classmethod
    def of(cls, linear, translation=(0, 0, 0, 0)) -> "AffineTorusMap":
        """Checked constructor: M must be a 4 x 4 integer matrix with det +-1
        and r a vector of 4 rationals."""
        if any(int(x) != x for row in linear for x in row):
            raise ValueError("linear part must be an integer matrix")
        lin = tuple([tuple([int(x) for x in row]) for row in linear])
        if len(lin) != 4 or any(len(row) != 4 for row in lin):
            raise ValueError("linear part must be a 4 x 4 matrix")
        if abs(det_int(lin)) != 1:
            raise ValueError("linear part must have determinant +-1")
        tr = tuple([Fraction(x) % 1 for x in translation])
        if len(tr) != 4:
            raise ValueError("translation must have 4 entries")
        return cls(lin, tr)

    def __call__(self, point: RationalVector) -> RationalVector:
        return tuple([(sum(map(mul, row, point)) + r) % 1 for row, r in zip(self.linear, self.translation)])

    def compose(self, other: "AffineTorusMap") -> "AffineTorusMap":
        lin = tuple([*map(tuple, mat_mul(self.linear, other.linear))])
        return AffineTorusMap(lin, self(other.translation))

    def is_identity(self) -> bool:
        return self.linear == _IDENTITY and all(t == 0 for t in self.translation)


_IDENTITY = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
IDENTITY_MAP = AffineTorusMap(_IDENTITY, (Fraction(0),) * 4)


class TorusGroup(Record):
    name: str
    lattice: TorusLattice
    elements: tuple[AffineTorusMap, ...]

    def __len__(self) -> int:
        return len(self.elements)


def _apply(m, t, x, n: int) -> tuple[int, ...]:
    """Mx + t mod n on numerators over n."""
    x0, x1, x2, x3 = x
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
    t0, t1, t2, t3 = t
    return ((a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3 + t0) % n,
            (b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3 + t1) % n,
            (c0 * x0 + c1 * x1 + c2 * x2 + c3 * x3 + t2) % n,
            (d0 * x0 + d1 * x1 + d2 * x2 + d3 * x3 + t3) % n)


def _compose(g, h, n: int):
    """g h for (M, translation numerators mod n) pairs."""
    (m, t), (k, s) = g, h
    (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3), (s0, s1, s2, s3) = k
    return tuple([(a * p0 + b * q0 + c * r0 + d * s0, a * p1 + b * q1 + c * r1 + d * s1,
                   a * p2 + b * q2 + c * r2 + d * s2, a * p3 + b * q3 + c * r3 + d * s3)
                  for a, b, c, d in m]), _apply(m, t, s, n)


_CLOSURE_BOUND = 120  # the largest group here has 24 elements


def closure(generators) -> tuple[AffineTorusMap, ...]:
    """Breadth-first multiplicative closure of affine maps mod the lattice.

    Elements are composed as (M, translation numerators mod N) pairs, N the
    lcm of the generators' translation denominators; each `AffineTorusMap`
    is built once, at the end, sorted by (linear, translation).
    """
    n, nums = _integer_rows([g.translation for g in generators], 4)
    gens = [(g.linear, tuple([x % n for x in t])) for g, t in zip(generators, nums)]
    els = {(_IDENTITY, (0,) * 4), *gens}
    frontier = list(gens)
    while frontier:
        new = []
        for m, t in gens:
            for k, s in frontier:
                gh = _compose((m, t), (k, s), n)
                if gh not in els:
                    els.add(gh)
                    new.append(gh)
                    if len(els) > _CLOSURE_BOUND:
                        raise ClosureExceedsBound(f"closure exceeded {_CLOSURE_BOUND} elements")
        frontier = new
    frac = {x: Fraction(x, n) for _, t in els for x in t}
    return tuple([AffineTorusMap(lin, tuple([*map(frac.__getitem__, t)])) for lin, t in sorted(els)])


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
_ALIASES = {"Z2": "neg1", "Z4": "i"}


def standard_group(name: str, lattice: str | None = None) -> TorusGroup:
    """Catalog of the torus groups used by the quotient constructions.

    Names: neg1 (or Z2), i (or Z4), Q8, Q8_T24, T24, D12, Q8hat, T24hat.
    The Lieberman involution group is not among them: `lieberman_check`
    builds it from its 2-torsion points.  An unknown lattice name, or a
    lattice the generators do not preserve, raises ValueError.
    """
    key = name.strip()
    key = _ALIASES.get(key, key)
    if key not in _GROUPS:
        raise UnrecognizedGroup(f"unknown group name {name!r}")
    default, sq_j, table = _GROUPS[key]
    lat = LATTICES.get(lattice or default)
    if lat is None:
        raise ValueError(f"unknown lattice {lattice!r}; known: {sorted(LATTICES)}")
    gens = [_map_from_quat(lat, q, t, sq_j) for q, t in table]
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
    pair = tuple([Fraction(x) % 1 for x in e])
    if len(pair) != 2 or any((2 * x) % 1 != 0 for x in pair):
        raise ValueError(f"{label} must be a 2-torsion point of an elliptic factor")
    return pair


# ---------------------------------------------------------------------------
# fixed points


class FixedPointSet(Record):
    kind: str  # "finite" | "empty" | "positive_dimensional"
    points: tuple[RationalVector, ...] = ()


def _fixed_ints(linear, t, n: int) -> tuple[str, int, list[tuple[int, ...]]]:
    """(kind, q, points) of x -> Mx + t/n: the fixed points as sorted int
    4-tuples mod q, none and q = 1 unless kind is "finite".  With U(M - I)V = D
    the Smith form, y = V^-1 x solves d_i y_i = c_i/n mod 1 for c = -Ut, so
    the points are ints mod q = n lcm(d_i); there are |det(M - I)| of them.
    """
    A = [[linear[i][j] - (1 if i == j else 0) for j in range(4)] for i in range(4)]
    D, U, V = smith_normal_form(A)
    c = [-sum(u * x for u, x in zip(row, t)) for row in U]
    d = [D[i][i] for i in range(4)]
    if any(di == 0 and ci % n for di, ci in zip(d, c)):
        return "empty", 1, []
    if 0 in d:
        return "positive_dimensional", 1, []
    q = n * lcm(*d)
    # x = V y with y_i = (c_i + k n) / (d_i n) for k in range(d_i): add the
    # columns' multiples one column at a time, as numerators over q
    points = [(0, 0, 0, 0)]
    for col, di, ci in zip(zip(*V), d, c):
        steps = [[(ci + k * n) * (q // (di * n)) * v for v in col] for k in range(di)]
        points = [tuple([*map(add, p, y)]) for p in points for y in steps]
    points = sorted({tuple([x % q for x in p]) for p in points})
    if len(points) != abs(det_int(A)):
        raise AssertionError("fixed point count disagrees with |det(M - I)|")
    return "finite", q, points


def fixed_points(g: AffineTorusMap) -> FixedPointSet:
    """Exact solution set of (M - I) x = -r mod Z^4 in lattice coordinates.

    When det(M - I) != 0 there are exactly |det(M - I)| fixed points; when
    the determinant vanishes, solvability decides between an empty and a
    positive-dimensional fixed locus.  The `Fraction` form of `_fixed_ints`.
    """
    if g.is_identity():
        raise ValueError("fixed points of the identity are the whole torus")
    n, (t,) = _integer_rows([g.translation], 4)
    kind, q, points = _fixed_ints(g.linear, t, n)
    frac = {x: Fraction(x, q) for x in {x for p in points for x in p}}
    return FixedPointSet(kind, tuple([tuple([*map(frac.__getitem__, p)]) for p in points]))


# ---------------------------------------------------------------------------
# singularities of the quotient


class SingularityReport(Record):
    group: str
    lattice: str
    orbits: tuple[tuple[RationalVector, ...], ...]
    stabilizer_orders: tuple[int, ...]
    stabilizer_types: tuple[tuple[str, int], ...]
    config: ADEConfig

    @property
    def points(self) -> tuple[RationalVector, ...]:
        """The singular points, sorted: the points of the orbits."""
        return tuple(sorted(p for orbit in self.orbits for p in orbit))

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
                if (short := abcd_shorthand(p)) is not None:
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


def _cyclic_orders(maps, n: int) -> tuple[list[int], list[int], list[int]]:
    """(orders, dets, primes) of the (M, t mod n) pairs of a finite group.

    Each cyclic subgroup <g> not yet covered is walked once, g, g^2, ..., 1:
    g^k has order ord(g) / gcd(k, ord(g)) and determinant det(M)^k.  `primes`
    holds the least index generating each cyclic subgroup of prime order.  A
    power outside the pairs raises AssertionError: they are not a group.
    """
    index = {g: i for i, g in enumerate(maps)}
    orders, dets, primes = [0] * len(maps), [0] * len(maps), set()
    for i, g in enumerate(maps):
        if orders[i]:
            continue
        walk, h = [i], g
        while h[0] != _IDENTITY or any(h[1]):
            h = _compose(g, h, n)
            if h not in index:
                raise AssertionError("a power leaves the element set: the group is not closed")
            walk.append(index[h])
        k, det = len(walk), det_int(g[0])
        for e, j in enumerate(walk, 1):
            orders[j], dets[j] = k // gcd(e, k), det**e
        # the subgroup of prime order p is generated by each g^(ek/p), 0 < e < p
        primes.update(min(walk[e * k // p - 1] for e in range(1, p)) for p in range(2, k + 1)
                      if k % p == 0 and all(p % q for q in range(2, p)))
    return orders, dets, sorted(primes)


def _ade_type(orders: list[int]) -> tuple[str, int]:
    """ADE type of a finite subgroup of SL(2, C) from its element orders.

    It is cyclic of order n + 1 (A_n) when an element has the group's order;
    otherwise -1 is its one involution and its largest element order is
    2(n - 2) for the binary dihedral group of D_n, 2(n - 3) for the binary
    polyhedral group of E_n.  The group order must then be the one
    `ade.component_m` uses for that type.
    """
    size, top = len(orders), max(orders, default=0)
    if top == size:
        letter, rank = "A", size - 1
    else:
        letter, rank = ("D", top // 2 + 2) if 2 * top == size else ("E", top // 2 + 3)
    if size < 2 or letter != "A" and orders.count(2) != 1 or _group_order(letter, rank) != size:
        raise UnrecognizedGroup(f"stabilizer of order {size} not classified")
    return letter, rank


def stabilizer_ade_type(matrices) -> tuple[str, int] | str:
    """Quotient-singularity type of a finite stabilizer of linear parts.

    Cyclic groups of order n give A_{n-1}; binary dihedral groups of order
    4m give D_{m+2} (the quaternion group, m = 2, gives D_4); the binary
    tetrahedral, octahedral and icosahedral groups give E_6, E_7, E_8.
    A matrix of determinant -1 gives NON_SYMPLECTIC.
    """
    orders, dets, _ = _cyclic_orders([(tuple([*map(tuple, m)]), (0, 0, 0, 0)) for m in matrices], 1)
    return NON_SYMPLECTIC if any(d != 1 for d in dets) else _ade_type(orders)


def singularity_configuration(group: TorusGroup) -> SingularityReport:
    """Quotient singularities of the torus by the group action.

    A point with a nontrivial stabilizer is fixed by an element of prime
    order (Cauchy), and Fix(g) = Fix(g^k) for k prime to ord(g), so the
    singular points are the fixed points of one generator of each cyclic
    subgroup of prime order, read off one table of element orders.  They are
    partitioned into orbits, each orbit stabilizer is classified from the
    same table, and the ADE configuration is assembled.  Raises
    NonIsolatedFixedLocus if some element fixes a positive-dimensional set:
    then so does its power of prime order, whose fixed set contains its own.

    Points are int 4-tuples mod N, a common denominator of all points and
    translations, as `_fixed_ints` solves them.  One pass over the sorted
    points takes each unvisited p (the least point of its orbit), builds its
    image row g(p) over the group once, and reads the orbit and the
    stabilizer of p off that row.  Each point becomes `Fraction` once.
    """
    n, nums = _integer_rows([g.translation for g in group.elements], 4)
    maps = [(g.linear, tuple([x % n for x in t])) for g, t in zip(group.elements, nums)]
    orders, dets, primes = _cyclic_orders(maps, n)
    solved = [_fixed_ints(*maps[i], n) for i in primes]
    for i, (kind, _, _) in zip(primes, solved):
        if kind == "positive_dimensional":
            raise NonIsolatedFixedLocus(group.elements[i])
    # every point and translation over N
    N = lcm(n, *(q for _, q, _ in solved))
    maps = [(m, tuple([x * (N // n) for x in t])) for m, t in maps]
    points = sorted({tuple([x * (N // q) for x in p]) for _, q, pts in solved for p in pts})
    coord = {x: Fraction(x, N) for x in {x for p in points for x in p}}
    frac = {p: tuple([*map(coord.__getitem__, p)]) for p in points}

    orbits, stab_orders, stab_types = [], [], []
    visited: set[tuple[int, ...]] = set()
    for p in points:
        if p in visited:
            continue
        row = [_apply(m, t, p, N) for m, t in maps]
        orbit = sorted(set(row))
        stab = [i for i, x in enumerate(row) if x == p]
        if len(orbit) * len(stab) != len(group):
            raise AssertionError("orbit-stabilizer identity violated")
        if not all(x in frac for x in orbit):
            raise AssertionError("an orbit leaves the fixed points: the group is not closed")
        if any(dets[i] != 1 for i in stab):
            raise UnrecognizedGroup("non-symplectic stabilizer encountered")
        visited.update(orbit)
        orbits.append(tuple([frac[x] for x in orbit]))
        stab_orders.append(len(stab))
        stab_types.append(_ade_type([orders[i] for i in stab]))

    return SingularityReport(
        group=group.name,
        lattice=group.lattice.name,
        orbits=tuple(orbits),
        stabilizer_orders=tuple(stab_orders),
        stabilizer_types=tuple(stab_types),
        config=ADEConfig([(letter, n, 1) for letter, n in stab_types]),
    )


class LiebermanReport(Record):
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
    config = (singularity_configuration(
        TorusGroup("lieberman", PRODUCT_LATTICE, closure([neg, tau]))).config if free else None)
    return LiebermanReport(
        e1=tau.translation[:2],
        e2=tau.translation[2:],
        tau_fixed=fp_tau.kind,
        neg_tau_fixed=fp_neg.kind,
        fixed_point_free=free,
        config=config,
    )
