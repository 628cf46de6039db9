import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from kummerlat import (
    ADEConfig,
    abcd_shorthand,
    fixed_points,
    left_mult_matrix,
    lieberman_check,
    singularity_configuration,
    stabilizer_ade_type,
    standard_group,
)
from kummerlat.snf import det_int, mat_mul, smith_normal_form
from kummerlat.torus import (
    _GROUPS,
    ALPHA,
    HURWITZ,
    IDENTITY_MAP,
    LATTICES,
    PRODUCT_LATTICE,
    NonIsolatedFixedLocus,
    QUAT_I,
    QUAT_J,
    QUAT_K,
    QUAT_T,
    AffineTorusMap,
    ClosureExceedsBound,
    FixedPointSet,
    SingularityReport,
    TorusGroup,
    UnrecognizedGroup,
    TorusLattice,
    _lieberman_maps,
    _map_from_quat,
    closure,
)
from kummerlat.lattice import DegenerateLattice

from fraction_oracles import (
    basis_columns,
    fraction_to_lattice_matrix,
    fraction_to_lattice_vector,
    solve,
)

ONE = (1, 0, 0, 0)
MINUS_ONE = (-1, 0, 0, 0)
HALF = Fraction(1, 2)
UNITS = {"1": ONE, "I": QUAT_I, "J": QUAT_J, "K": QUAT_K, "t": QUAT_T}


def lieberman_group(e1, e2):
    """{1, -1, tau, -tau} on the product lattice, as lieberman_check builds it."""
    return TorusGroup("lieberman", PRODUCT_LATTICE, closure(_lieberman_maps(e1, e2)))


# --- quaternion algebras ------------------------------------------------------


def hamilton(p, q):
    """Hamilton product of coefficient tuples in (1, i, j, k): the oracle."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def mul(p, q, sq_j=-1):
    """p q in the algebra with I^2 = -1, J^2 = sq_j, through L(p) applied to q."""
    M = left_mult_matrix(p, sq_j)
    return tuple(sum(M[r][c] * q[c] for c in range(4)) for r in range(4))


def neg(q):
    return tuple(-x for x in q)


def test_multiplication_table():
    i, j, k = QUAT_I, QUAT_J, QUAT_K
    assert mul(i, i) == MINUS_ONE
    assert mul(j, j) == MINUS_ONE
    assert mul(k, k) == MINUS_ONE
    assert mul(i, j) == k
    assert mul(j, i) == neg(k)
    assert mul(j, k) == i
    assert mul(k, j) == neg(i)
    assert mul(k, i) == j
    assert mul(i, k) == neg(j)
    samples = list(UNITS.values()) + [
        (Fraction(-3, 4), 2, Fraction(1, 3), -1),
        (5, Fraction(-1, 2), 0, Fraction(7, 3)),
    ]
    for p in samples:
        for q in samples:
            assert mul(p, q) == hamilton(p, q)


def test_d12_algebra_table():
    i, j, k = QUAT_I, QUAT_J, QUAT_K
    minus_three = (-3, 0, 0, 0)
    assert mul(i, i, -3) == MINUS_ONE
    assert mul(j, j, -3) == minus_three
    assert mul(k, k, -3) == minus_three
    assert mul(i, j, -3) == k
    assert mul(j, i, -3) == neg(k)
    assert mul(i, k, -3) == neg(j)
    assert mul(k, i, -3) == j
    assert mul(j, k, -3) == (0, 3, 0, 0)
    assert mul(k, j, -3) == (0, -3, 0, 0)


def test_left_mult_matrix_identity():
    for sq_j in (-1, -3):
        assert left_mult_matrix(ONE, sq_j) == [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]


def test_left_mult_matrix_i():
    M = left_mult_matrix(QUAT_I)
    # 1 -> i, i -> -1, j -> k, k -> -j (columns)
    cols = [[M[r][c] for r in range(4)] for c in range(4)]
    assert cols[0] == [0, 1, 0, 0]
    assert cols[1] == [-1, 0, 0, 0]
    assert cols[2] == [0, 0, 0, 1]
    assert cols[3] == [0, 0, -1, 0]


def test_left_mult_multiplicative():
    for sq_j, (p, q) in product((-1, -3), product(UNITS.values(), repeat=2)):
        assert left_mult_matrix(mul(p, q, sq_j), sq_j) == mat_mul(
            left_mult_matrix(p, sq_j), left_mult_matrix(q, sq_j)
        )


def test_t_has_order_6():
    t3 = mul(QUAT_T, mul(QUAT_T, QUAT_T))
    assert t3 == MINUS_ONE
    assert hamilton(QUAT_T, hamilton(QUAT_T, QUAT_T)) == MINUS_ONE
    assert left_mult_matrix(t3) == left_mult_matrix(MINUS_ONE)


# --- groups ------------------------------------------------------------------


def test_group_orders():
    assert len(standard_group("neg1")) == 2
    assert len(standard_group("i")) == 4
    assert len(standard_group("Q8")) == 8
    assert len(standard_group("Q8_T24")) == 8
    assert len(standard_group("Q8hat")) == 8
    assert len(standard_group("D12")) == 12
    assert len(standard_group("T24")) == 24
    assert len(standard_group("T24hat")) == 24


def test_T24hat_contains_Q8hat():
    small = set(standard_group("Q8hat").elements)
    big = set(standard_group("T24hat").elements)
    assert small <= big


def test_jprime_squares_to_minus_one():
    jp = _map_from_quat(HURWITZ, QUAT_J, ALPHA)
    assert jp.compose(jp) == _map_from_quat(HURWITZ, MINUS_ONE)


def test_closure_bound_guard():
    # an element of infinite order: translation by an irrational-free shift
    shear = AffineTorusMap.of(
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        (Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
    )
    bad = AffineTorusMap.of(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        (Fraction(1, 7), 0, 0, 0),
    )
    with pytest.raises(ClosureExceedsBound):
        closure([shear, bad])


def test_affine_map_rejects_non_integer_linear_part():
    half = [[1, HALF, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(ValueError, match="integer matrix"):
        AffineTorusMap.of(half)
    with pytest.raises(ValueError, match="integer matrix"):
        AffineTorusMap.of([[0.5, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


@pytest.mark.parametrize(
    "diagonal", [(2, 1, 1, 1), (0, 1, 1, 1), (-1, -1, -1, 3), (2, 2, 2, 2)]
)
def test_affine_map_rejects_det_other_than_unit(diagonal):
    lin = [[diagonal[i] if i == j else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError, match="determinant"):
        AffineTorusMap.of(lin, (HALF, 0, 0, 0))


def test_affine_map_accepts_integral_fractions():
    g = AffineTorusMap.of(
        [[Fraction(1), Fraction(2), 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        (Fraction(3, 2), -1, 0, Fraction(-1, 3)),
    )
    assert g.linear == ((1, 2, 0, 0), (0, 1, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
    assert all(type(x) is int for row in g.linear for x in row)
    assert g.translation == (HALF, 0, 0, Fraction(2, 3))


@pytest.mark.parametrize("lattice", ["a", "a0", "product"])
def test_d12_needs_its_own_order(lattice):
    with pytest.raises(ValueError, match="does not preserve the lattice"):
        standard_group("D12", lattice=lattice)


@pytest.mark.parametrize(
    "e1, message",
    [(None, "e1 is required for the lieberman group"),
     ((Fraction(1, 3), 0), "e1 must be a 2-torsion point of an elliptic factor")],
    ids=["missing", "one-third"],
)
def test_lieberman_needs_a_two_torsion_e1(e1, message):
    with pytest.raises(ValueError, match=message):
        lieberman_check(e1, (0, HALF))


@pytest.mark.parametrize("rows", [((1, 0, 0, 0),) * 3, ((1, 0, 0),) * 4], ids=["3x4", "4x3"])
def test_torus_lattice_needs_a_4x4_basis(rows):
    with pytest.raises(ValueError, match="need 4 basis vectors of length 4"):
        TorusLattice("t", 1, rows)


def test_unknown_group_name():
    with pytest.raises(UnrecognizedGroup):
        standard_group("Z7")


def test_lieberman_is_not_a_standard_group():
    # lieberman_check builds its group from its 2-torsion points
    for lattice in (None, "product"):
        with pytest.raises(UnrecognizedGroup, match="unknown group name 'lieberman'"):
            standard_group("lieberman", lattice=lattice)


# --- fixed points ------------------------------------------------------------


def test_fix_i_known_points():
    g = _map_from_quat(HURWITZ, QUAT_I)
    fp = fixed_points(g)
    assert fp.kind == "finite"
    assert sorted(abcd_shorthand(p) for p in fp.points) == [
        "0000",
        "0110",
        "1010",
        "1100",
    ]


def test_fix_jprime_kprime_known_points():
    jp = _map_from_quat(HURWITZ, QUAT_J, ALPHA)
    kp = _map_from_quat(HURWITZ, QUAT_K, ALPHA)
    fj = {abcd_shorthand(p) for p in fixed_points(jp).points}
    fk = {abcd_shorthand(p) for p in fixed_points(kp).points}
    assert fj == {"0011", "0101", "1001", "1111"}
    assert fk == {"0001", "1011", "0111", "1101"}


def test_fixed_sets_disjoint_and_leftover_orbit():
    gi = _map_from_quat(HURWITZ, QUAT_I)
    jp = _map_from_quat(HURWITZ, QUAT_J, ALPHA)
    kp = _map_from_quat(HURWITZ, QUAT_K, ALPHA)
    sets = [set(fixed_points(g).points) for g in (gi, jp, kp)]
    assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])
    two_torsion = {
        tuple(Fraction(a, 2) for a in combo) for combo in product((0, 1), repeat=4)
    }
    leftover = two_torsion - sets[0] - sets[1] - sets[2]
    assert {abcd_shorthand(p) for p in leftover} == {"1000", "0100", "0010", "1110"}


def test_fix_neg1_sixteen_points():
    g = _map_from_quat(HURWITZ, MINUS_ONE)
    fp = fixed_points(g)
    assert len(fp.points) == 16


def test_fixed_count_matches_det_small_denominators():
    group = standard_group("T24hat")
    for g in group.elements:
        if g.is_identity():
            continue
        A = [
            [g.linear[i][j] - (1 if i == j else 0) for j in range(4)]
            for i in range(4)
        ]
        from kummerlat.snf import det_int

        d = det_int(A)
        fp = fixed_points(g)
        if d != 0:
            assert fp.kind in ("finite",)
            assert len(fp.points) == abs(d)
            denom = max(c.denominator for p in fp.points for c in p)
            if denom <= 4:
                # cross-check against explicit torsion enumeration
                count = 0
                step = Fraction(1, denom)
                vals = [i * step for i in range(denom)]
                for x in product(vals, repeat=4):
                    if g(x) == x:
                        count += 1
                assert count == len(fp.points)


def test_positive_dimensional_detected():
    g = AffineTorusMap.of(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    )
    fp = fixed_points(g)
    assert fp.kind == "positive_dimensional"


def test_empty_fixed_set():
    tau = AffineTorusMap.of(
        [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        (HALF, 0, HALF, 0),
    )
    fp = fixed_points(tau)
    assert fp.kind == "empty"


# --- singularity configurations ------------------------------------------------


TABLE_ROWS = [
    ("neg1", "16A1"),
    ("i", "6A1+4A3"),
    ("Q8", "2A1+3A3+2D4"),
    ("Q8_T24", "3A1+4D4"),
    ("Q8hat", "A1+6A3"),
    ("D12", "A1+2A2+3A3+D5"),
    ("T24", "A1+4A2+D4+E6"),
    ("T24hat", "4A2+2A3+A5"),
]


@pytest.mark.parametrize("name,expected", TABLE_ROWS)
def test_singularity_configurations(name, expected):
    report = singularity_configuration(standard_group(name))
    assert report.config.render() == expected


# (|G|, sum over g != 1 of |Fix(g)|, |points|, |orbits|)
EXACT_COUNTS = {
    "neg1": (2, 16, 16, 16),
    "i": (4, 24, 16, 10),
    "Q8": (8, 40, 16, 7),
    "Q8_T24": (8, 40, 16, 7),
    "Q8hat": (8, 40, 16, 7),
    "D12": (12, 60, 24, 7),
    "T24": (24, 120, 48, 7),
    "T24hat": (24, 120, 48, 7),
}


def fixed_point_total(group):
    return sum(len(fixed_points(g).points) for g in group.elements if not g.is_identity())


@pytest.mark.parametrize("name", sorted(EXACT_COUNTS))
def test_exact_counts(name):
    group = standard_group(name)
    report = singularity_configuration(group)
    counts = (len(group), fixed_point_total(group), len(report.points), len(report.orbits))
    assert counts == EXACT_COUNTS[name]


def test_exact_counts_lieberman():
    group = lieberman_group((HALF, 0), (0, HALF))
    assert (len(group), fixed_point_total(group)) == (4, 16)


@pytest.mark.parametrize("name,expected", TABLE_ROWS)
def test_orbit_stabilizer_identity(name, expected):
    group = standard_group(name)
    report = singularity_configuration(group)
    for orbit, order in zip(report.orbits, report.stabilizer_orders):
        assert len(orbit) * order == len(group)


def test_non_isolated_locus_raises():
    refl = AffineTorusMap.of(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    )
    from kummerlat.torus import TorusGroup, IDENTITY_MAP, LIPSCHITZ

    group = TorusGroup("refl", LIPSCHITZ, (IDENTITY_MAP, refl))
    with pytest.raises(NonIsolatedFixedLocus):
        singularity_configuration(group)


@pytest.mark.parametrize("picks", [(18, 2), (18, 12, 20, 5, 16)])
def test_non_closed_element_set_fails_loudly(picks):
    # these sets of T24hat elements are not groups
    nontrivial = [g for g in standard_group("T24hat").elements if not g.is_identity()]
    group = TorusGroup("open", HURWITZ, (IDENTITY_MAP, *(nontrivial[i] for i in picks)))
    with pytest.raises(AssertionError):
        singularity_configuration(group)


ROTATE_FIRST_PLANE = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def cyclic_group(linear):
    """The cyclic group of a linear map of finite order, on the Lipschitz lattice."""
    from kummerlat.torus import LIPSCHITZ

    g = AffineTorusMap.of(linear)
    elements, h = [IDENTITY_MAP], g
    while not h.is_identity():
        elements.append(h)
        h = g.compose(h)
    return TorusGroup("cyclic", LIPSCHITZ, tuple(elements))


def test_non_isolated_locus_seen_through_the_prime_order_power():
    # an order-4 rotation fixing a 2-plane: only its square has prime order,
    # and the square's fixed set contains the plane
    group = cyclic_group(ROTATE_FIRST_PLANE)
    assert len(group) == 4
    with pytest.raises(NonIsolatedFixedLocus) as info:
        singularity_configuration(group)
    square = AffineTorusMap.of(mat_mul(ROTATE_FIRST_PLANE, ROTATE_FIRST_PLANE))
    assert info.value.element == square
    assert fixed_points(square).kind == "positive_dimensional"


def test_power_outside_the_element_set_fails_loudly():
    # the rotation of order 4 without its square and cube
    rotation = AffineTorusMap.of(ROTATE_FIRST_PLANE)
    group = TorusGroup("open", HURWITZ, (IDENTITY_MAP, rotation))
    with pytest.raises(AssertionError, match="not closed"):
        singularity_configuration(group)


PRIME_ORDER_SOLVES = {"neg1": 1, "i": 1, "Q8": 1, "Q8_T24": 1, "Q8hat": 1, "D12": 2,
                      "T24": 5, "T24hat": 5}


def test_one_solve_per_cyclic_subgroup_of_prime_order(monkeypatch):
    # one solve per nontrivial element before the prime-order route (82), 17 now
    from kummerlat import torus

    solved = []
    real = torus._fixed_ints
    monkeypatch.setattr(torus, "_fixed_ints", lambda m, t, n: solved.append(m) or real(m, t, n))
    counts = {}
    for name in PRIME_ORDER_SOLVES:
        before = len(solved)
        singularity_configuration(standard_group(name))
        counts[name] = len(solved) - before
    assert counts == PRIME_ORDER_SOLVES
    assert sum(counts.values()) == 17
    assert sum(len(standard_group(name)) - 1 for name in counts) == 82


def test_fixed_point_count_is_checked_against_the_determinant(monkeypatch):
    # a Smith form with a wrong diagonal enumerates the wrong number of
    # points; the |det(M - I)| check catches it for both callers of the solver
    from kummerlat import torus

    real = torus.smith_normal_form

    def doubled_last(A):
        D, U, V = real(A)
        D = [list(row) for row in D]
        D[3][3] *= 2
        return D, U, V

    monkeypatch.setattr(torus, "smith_normal_form", doubled_last)
    with pytest.raises(AssertionError, match="disagrees with"):
        fixed_points(AffineTorusMap.of([[-1 if i == j else 0 for j in range(4)] for i in range(4)]))
    with pytest.raises(AssertionError, match="disagrees with"):
        singularity_configuration(standard_group("neg1"))


def orders_of(counts):
    """Element orders of a group given as {order: number of elements}."""
    return [o for o, k in counts.items() for _ in range(k)]


def binary_dihedral_orders(m):
    """BD_4m: a cyclic subgroup of order 2m and 2m elements of order 4."""
    from math import gcd

    return [2 * m // gcd(e, 2 * m) for e in range(2 * m)] + [4] * (2 * m)


@pytest.mark.parametrize(
    "orders,expected",
    [([1, 2], ("A", 1)), ([1, 5, 5, 5, 5], ("A", 4))]
    + [(binary_dihedral_orders(m), ("D", m + 2)) for m in (2, 3, 4, 5, 6, 12, 30)]
    + [
        (orders_of({1: 1, 2: 1, 3: 8, 4: 6, 6: 8}), ("E", 6)),
        (orders_of({1: 1, 2: 1, 3: 8, 4: 18, 6: 8, 8: 12}), ("E", 7)),
        (orders_of({1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24}), ("E", 8)),
    ],
)
def test_stabilizer_rule_reads_the_group_order_table(orders, expected):
    from kummerlat.ade import component_m
    from kummerlat.torus import _ade_type

    assert _ade_type(orders) == expected
    assert component_m(*expected) == expected[1] + 1 - Fraction(1, len(orders))


@pytest.mark.parametrize(
    "orders",
    [
        [],  # empty
        [1],  # trivial
        [1, 2, 2, 2],  # Klein four group
        orders_of({1: 1, 2: 5, 4: 2}),  # dihedral of order 8
        orders_of({1: 1, 2: 3, 4: 12}),  # Z4 x Z4
        orders_of({1: 1, 2: 1, 3: 8, 6: 8}),  # Z3 x Z6: one involution, but order 18
    ],
)
def test_stabilizer_rule_refuses_other_groups(orders):
    from kummerlat.torus import _ade_type

    with pytest.raises(UnrecognizedGroup, match="not classified"):
        _ade_type(orders)


def test_unclassified_stabilizer_exits_3(monkeypatch, capsys):
    from kummerlat import cli, torus

    # with binary dihedral group orders off by one, the D4 stabilizers of Q8
    # (order 8) match no type
    real = torus._group_order
    monkeypatch.setattr(torus, "_group_order", lambda letter, n: real(letter, n) + (letter == "D"))
    assert cli.main(["torus", "--group", "Q8"]) == 3
    assert "stabilizer of order 8 not classified" in capsys.readouterr().err


# --- lieberman ---------------------------------------------------------------


def test_lieberman_valid():
    report = lieberman_check((HALF, 0), (0, HALF))
    assert report.fixed_point_free
    assert report.tau_fixed == "empty"
    assert report.neg_tau_fixed == "empty"
    assert report.config.render() == "8A1"


def test_lieberman_all_nonzero_choices():
    torsion = [(HALF, 0), (0, HALF), (HALF, HALF)]
    for e1 in torsion:
        for e2 in torsion:
            report = lieberman_check(e1, e2)
            assert report.fixed_point_free
            assert report.config.render() == "8A1"


def test_lieberman_zero_e1_flagged():
    report = lieberman_check((0, 0), (HALF, 0))
    assert not report.fixed_point_free
    assert report.config is None


def test_identity_has_no_fixed_point_set():
    with pytest.raises(ValueError, match="fixed points of the identity are the whole torus"):
        fixed_points(IDENTITY_MAP)


# --- shorthand ---------------------------------------------------------------


def test_abcd_roundtrip():
    for text in ("0000", "1010", "1111"):
        assert abcd_shorthand(tuple(Fraction(int(ch), 2) for ch in text)) == text
    assert abcd_shorthand((Fraction(1, 3), 0, 0, 0)) is None


def test_abcd_needs_coordinates_in_zero_and_one_half():
    assert abcd_shorthand((0, HALF, 0, HALF)) == "0101"
    for bad in (Fraction(3, 2), Fraction(-1, 2), 1, Fraction(1, 4)):
        assert abcd_shorthand((bad, 0, 0, 0)) is None


# --- the integer action against the Fraction oracle ---------------------------


def oracle_fixed_points(g):
    """(M - I) x = -r mod Z^4 solved and enumerated in Fractions."""
    A = [[g.linear[i][j] - (1 if i == j else 0) for j in range(4)] for i in range(4)]
    rhs = [-Fraction(t) for t in g.translation]
    D, U, V = smith_normal_form(A)
    c = [sum(U[i][j] * rhs[j] for j in range(4)) for i in range(4)]
    d = [D[i][i] for i in range(4)]
    if any(d[i] == 0 and c[i] % 1 != 0 for i in range(4)):
        return FixedPointSet("empty")
    if 0 in d:
        return FixedPointSet("positive_dimensional")
    points = set()
    for combo in product(*(range(di) for di in d)):
        y = [(c[i] + combo[i]) / d[i] for i in range(4)]
        points.add(tuple(sum(V[i][j] * y[j] for j in range(4)) % 1 for i in range(4)))
    assert len(points) == abs(det_int(A))
    return FixedPointSet("finite", tuple(sorted(points)))


def oracle_closure(generators):
    """Breadth-first closure through Fraction-valued `compose`."""
    els = {IDENTITY_MAP} | set(generators)
    frontier = list(generators)
    while frontier:
        frontier = [g.compose(h) for g in generators for h in frontier]
        frontier = [gh for gh in dict.fromkeys(frontier) if gh not in els]
        els.update(frontier)
    return tuple(sorted(els, key=lambda e: (e.linear, e.translation)))


def oracle_stabilizer_ade_type(matrices):
    """The stabilizer rule before the order table: each element's order by
    repeated products, and a hand list of binary dihedral orders."""
    mats = [[list(r) for r in m] for m in matrices]
    order = len(mats)
    if any(det_int(m) != 1 for m in mats):
        return "NonSymplectic"
    identity = [[int(i == j) for j in range(4)] for i in range(4)]

    def mat_order(m):
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
        if order in (8, 12, 16, 20, 24):
            return ("D", order // 4 + 2)
    if order == 24 and involutions == 1:
        return ("E", 6)
    raise UnrecognizedGroup(f"stabilizer of order {order} not classified")


def oracle_singularity_configuration(group):
    """The fixed points of every nontrivial element (not only of the
    prime-order ones), every orbit rebuilt from each of its points, every
    stabilizer by applying every element again, all through Fraction-valued
    g(p), and each stabilizer typed by the old rule."""
    all_points = set()
    for g in group.elements:
        if g.is_identity():
            continue
        fp = oracle_fixed_points(g)
        if fp.kind == "positive_dimensional":
            raise NonIsolatedFixedLocus(g)
        all_points.update(fp.points)
    orbits = sorted({tuple(sorted({g(p) for g in group.elements})) for p in all_points})
    stab_orders = []
    stab_types = []
    for orbit in orbits:
        stab = [g for g in group.elements if g(orbit[0]) == orbit[0]]
        assert len(orbit) * len(stab) == len(group.elements)
        stab_orders.append(len(stab))
        stab_types.append(oracle_stabilizer_ade_type([g.linear for g in stab]))
    return SingularityReport(
        group=group.name,
        lattice=group.lattice.name,
        orbits=tuple(orbits),
        stabilizer_orders=tuple(stab_orders),
        stabilizer_types=tuple(stab_types),
        config=ADEConfig.from_counts(Counter(stab_types)),
    )


# the generators of these groups do not preserve these lattices
REJECTED = {("T24", lat) for lat in ("a0", "b", "product")}
REJECTED |= {("T24hat", lat) for lat in ("a0", "b", "product")}
REJECTED |= {("D12", lat) for lat in ("a", "a0", "product")}


@pytest.mark.parametrize("name,lattice", list(product(_GROUPS, LATTICES)))
def test_singularities_match_oracle(name, lattice):
    if (name, lattice) in REJECTED:
        with pytest.raises(ValueError, match="does not preserve the lattice"):
            standard_group(name, lattice=lattice)
        return
    group = standard_group(name, lattice=lattice)
    _, sq_j, table = _GROUPS[name]
    gens = [_map_from_quat(LATTICES[lattice], q, t, sq_j) for q, t in table]
    assert group.elements == closure(gens) == oracle_closure(gens)
    assert singularity_configuration(group) == oracle_singularity_configuration(group)


@pytest.mark.parametrize(
    "e1,e2", list(product([(HALF, 0), (0, HALF), (HALF, HALF)], repeat=2))
)
def test_lieberman_matches_oracle(e1, e2):
    group = lieberman_group(e1, e2)
    assert group.elements == oracle_closure(list(group.elements))
    report = singularity_configuration(group)
    assert report == oracle_singularity_configuration(group)
    assert report.config.render() == "8A1"
    for g in group.elements:
        if not g.is_identity():
            assert fixed_points(g) == oracle_fixed_points(g)


def orbifold_euler(report):
    """Sum over the singular orbits of n_p + 1 - 1/|G_p|."""
    return sum(Fraction(n + 1) - Fraction(1, order)
               for (_, n), order in zip(report.stabilizer_types, report.stabilizer_orders))


ACCEPTED = [pair for pair in product(_GROUPS, LATTICES) if pair not in REJECTED]


@pytest.mark.parametrize("name,lattice", ACCEPTED)
def test_orbifold_euler_identity(name, lattice):
    # e(T) = 0, so the orbifold Euler number of a K3 quotient is sum (n_p + 1
    # - 1/|G_p|) = 24: the equality case of the orbifold BMY inequality
    assert len(ACCEPTED) == 23
    assert orbifold_euler(singularity_configuration(standard_group(name, lattice=lattice))) == 24


def test_orbifold_euler_identity_enriques():
    # the Lieberman quotient is an Enriques surface: 8A1 gives 12
    group = lieberman_group((HALF, 0), (0, HALF))
    report = singularity_configuration(group)
    assert report.config.render() == "8A1"
    assert orbifold_euler(report) == 12


# --- stabilizer classification -------------------------------------------------


def test_stabilizer_types_basic():
    neg = tuple(tuple(-1 if i == j else 0 for j in range(4)) for i in range(4))
    ident = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    assert stabilizer_ade_type([ident, neg]) == ("A", 1)


def test_stabilizer_types_from_groups():
    q8 = standard_group("Q8")
    mats = [g.linear for g in q8.elements]
    assert stabilizer_ade_type(mats) == ("D", 4)
    t24 = standard_group("T24")
    assert stabilizer_ade_type([g.linear for g in t24.elements]) == ("E", 6)
    z4 = standard_group("i")
    assert stabilizer_ade_type([g.linear for g in z4.elements]) == ("A", 3)
    d12 = standard_group("D12")
    assert stabilizer_ade_type([g.linear for g in d12.elements]) == ("D", 5)


def test_non_symplectic_marker():
    refl = tuple(
        tuple((-1 if i == 0 else 1) if i == j else 0 for j in range(4))
        for i in range(4)
    )
    ident = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    from kummerlat.torus import NON_SYMPLECTIC

    assert stabilizer_ade_type([ident, refl]) == NON_SYMPLECTIC


def elementary_pair(rng, steps):
    """A random unimodular P, as a product of elementary row operations,
    with its inverse."""
    P = [[int(i == j) for j in range(4)] for i in range(4)]
    P_inv = [row[:] for row in P]
    for _ in range(steps):
        i, j = rng.sample(range(4), 2)
        c = rng.choice((-2, -1, 1, 2))
        # P <- (I + c e_ij) P and P_inv <- P_inv (I - c e_ij)
        P[i] = [a + c * b for a, b in zip(P[i], P[j])]
        for row in P_inv:
            row[j] -= c * row[i]
    return P, P_inv


# 2x2 blocks of determinant +-1, with and without the eigenvalue 1
BLOCKS = [
    [[1, 0], [0, 1]],
    [[1, 1], [0, 1]],
    [[1, 0], [0, -1]],
    [[0, 1], [1, 0]],
    [[-1, 0], [0, -1]],
    [[0, -1], [1, 0]],
    [[0, -1], [1, 1]],
    [[-1, -1], [1, 0]],
    [[2, 1], [1, 1]],
]


def random_affine_map(rng):
    """x -> Mx + t, det M = +-1 and t with one denominator from 1 to 6.

    M is either a product of elementary operations or such a product
    conjugating a block-diagonal core, so fixed loci of every kind occur."""
    if rng.random() < 0.25:
        M, _ = elementary_pair(rng, 3)
    else:
        B1, B2 = rng.choice(BLOCKS), rng.choice(BLOCKS)
        core = [B1[0] + [0, 0], B1[1] + [0, 0], [0, 0] + B2[0], [0, 0] + B2[1]]
        P, P_inv = elementary_pair(rng, 6)
        M = mat_mul(mat_mul(P, core), P_inv)
    den = rng.randint(1, 6)
    return AffineTorusMap.of(M, tuple(Fraction(rng.randrange(den), den) for _ in range(4)))


def test_fixed_points_match_oracle_on_random_maps():
    rng = random.Random(20260901)
    kinds = Counter()
    denominators = set()
    for _ in range(400):
        g = random_affine_map(rng)
        if g.is_identity():
            continue
        fp = fixed_points(g)
        assert fp == oracle_fixed_points(g)
        kinds[fp.kind] += 1
        denominators.update(c.denominator for p in fp.points for c in p)
    assert min(kinds[k] for k in ("finite", "empty", "positive_dimensional")) >= 30
    assert {2, 3, 4, 5, 6} <= denominators


# --- change of basis: integer adjugate against the Fraction solve -------------


def outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return "ok", f(*args)
    except ValueError as e:
        return type(e), str(e)


NOT_PRESERVED = (ValueError, "linear map does not preserve the lattice")


@pytest.mark.parametrize("name,lattice", list(product(_GROUPS, LATTICES)))
def test_change_of_basis_matches_fraction_oracle(name, lattice):
    lat = LATTICES[lattice]
    _, sq_j, table = _GROUPS[name]
    outcomes = []
    for q, t in table:
        frame = left_mult_matrix(q, sq_j)
        got = outcome(lat.to_lattice_matrix, frame)
        assert got == outcome(fraction_to_lattice_matrix, lat, frame)
        outcomes.append(got)
        vector = lat.to_lattice_vector(t)
        assert vector == fraction_to_lattice_vector(lat, t)
        assert all(type(c) is Fraction for c in vector)
    assert (NOT_PRESERVED in outcomes) == ((name, lattice) in REJECTED)
    assert all(o[0] == "ok" or o == NOT_PRESERVED for o in outcomes)


def test_singular_torus_basis():
    lat = TorusLattice("s", 2, ((2, 0, 0, 0), (0, 2, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1)))
    singular = (DegenerateLattice, "torus lattice basis is singular")
    frame = left_mult_matrix(QUAT_I)
    assert outcome(lat.to_lattice_matrix, frame) == singular
    assert outcome(fraction_to_lattice_matrix, lat, frame) == singular
    assert outcome(lat.to_lattice_vector, ALPHA) == singular
    assert outcome(fraction_to_lattice_vector, lat, ALPHA) == singular


def cofactor_adjugate(cols):
    """adj(C)[i][j] as the (j, i) cofactor of C: the 16 determinants that the
    Smith-form adjugate replaced."""
    return [[(-1) ** (i + j) * det_int([r[:i] + r[i + 1:] for k, r in enumerate(cols) if k != j])
             for j in range(4)] for i in range(4)]


def seeded_bases(seed, count, singular=False):
    rng = random.Random(seed)
    bases = []
    while len(bases) < count:
        rows = tuple(tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(4))
        if (det_int(rows) == 0) == singular:
            bases.append(TorusLattice("r", rng.randint(1, 4), rows))
    return bases


@pytest.mark.parametrize(
    "lat", [*LATTICES.values(), *seeded_bases(36, 8)], ids=[*LATTICES, *(f"seeded-{i}" for i in range(8))]
)
def test_frame_change_is_the_cofactor_adjugate(lat):
    cols, adj, det = lat._frame_change
    assert cols == [list(c) for c in zip(*lat.rows)]
    assert (adj, det) == (cofactor_adjugate(cols), det_int(cols))
    assert mat_mul(cols, adj) == [[det * (i == j) for j in range(4)] for i in range(4)]


def test_frame_change_of_a_singular_basis():
    for lat in seeded_bases(36, 3, singular=True):
        with pytest.raises(DegenerateLattice, match="singular"):
            lat._frame_change


def test_change_of_basis_matches_fraction_oracle_on_random_lattices():
    rng = random.Random(20261018)
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    kinds = Counter()
    for _ in range(150):
        den = rng.randint(1, 6)
        lat = TorusLattice("r", den, tuple(tuple(rng.randint(-3, 3) for _ in range(4))
                                           for _ in range(4)))
        cols = basis_columns(lat)
        inverse = solve(cols, identity)
        if inverse is None or rng.random() < 0.5:
            # mostly maps that do not preserve the lattice, or a singular basis
            frame = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)]
                     for _ in range(4)]
        else:
            # B P B^-1 for unimodular P is P in lattice coordinates
            P, _ = elementary_pair(rng, 4)
            frame = mat_mul(mat_mul(cols, P), inverse)
        got = outcome(lat.to_lattice_matrix, frame)
        assert got == outcome(fraction_to_lattice_matrix, lat, frame)
        kinds[got[0]] += 1
        v = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(4))
        assert outcome(lat.to_lattice_vector, v) == outcome(fraction_to_lattice_vector, lat, v)
    assert min(kinds["ok"], kinds[ValueError], kinds[DegenerateLattice]) >= 5
