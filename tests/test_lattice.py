import gc
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd, isqrt, lcm
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from kummerlat import (
    DegenerateLattice,
    GramLattice,
    NonIntegralGlue,
    NotInDual,
    NotNegativeDefinite,
    OddGlue,
    discriminant_group,
    enumerate_configs,
    gram,
    length_bound_check,
    overlattice,
    parse_config,
    q_value,
    roots,
)
from kummerlat import lattice
from kummerlat.ade import component_gram
from kummerlat.kummer import GROUP_CONFIGS, build_F, build_K_Q8hat, build_K_T24hat
from kummerlat.lattice import _search_levels, direct_sum, length_bound
from kummerlat.snf import det_int, hermite_row_basis

from fraction_oracles import solve
from test_divisibility import ATLAS_SAMPLE, COMPONENT_TYPES
from test_snf import oracle_smith_normal_form


def L(text):
    return gram(parse_config(text))


# --- discriminant groups --------------------------------------------------


def test_disc_An_cyclic():
    for n in range(1, 9):
        d = discriminant_group(L(f"A{n}"))
        assert d.invariant_factors == (n + 1,)


def test_disc_Dn():
    assert discriminant_group(L("D4")).invariant_factors == (2, 2)
    assert discriminant_group(L("D5")).invariant_factors == (4,)
    assert discriminant_group(L("D6")).invariant_factors == (2, 2)
    assert discriminant_group(L("D7")).invariant_factors == (4,)
    assert discriminant_group(L("D8")).invariant_factors == (2, 2)


def test_disc_En():
    assert discriminant_group(L("E6")).invariant_factors == (3,)
    assert discriminant_group(L("E7")).invariant_factors == (2,)
    assert discriminant_group(L("E8")).invariant_factors == ()
    assert L("E8").det == 1


def test_disc_F_Q8hat():
    d = discriminant_group(L("A1+6A3"))
    assert d.invariant_factors == (2, 4, 4, 4, 4, 4, 4)
    assert d.order == 8192
    assert d.symbol() == "Z2 x (Z4)^6"


def test_disc_generator_orders():
    lat = L("2A1+3A3+2D4")
    d = discriminant_group(lat)
    assert d.order == abs(lat.det)
    for factor, g in zip(d.invariant_factors, d.generators):
        assert all((factor * c).denominator == 1 for c in g)
        # order is exactly the invariant factor
        for k in range(1, factor):
            assert any((k * c).denominator != 1 for c in g)


def test_disc_degenerate():
    lat = GramLattice(gram=((0, 0), (0, 0)))
    with pytest.raises(DegenerateLattice):
        discriminant_group(lat)


# --- per-block discriminant groups and determinants against the dense ones ---


def oracle_discriminant_group(lat):
    """(invariant factors, generators) from one Smith form of the whole Gram:
    generator i is column i of V over d_i, coordinates reduced into [0, 1)."""
    D, _, V = oracle_smith_normal_form([list(r) for r in lat.gram])
    n = lat.rank
    pieces = [(D[i][i], i) for i in range(n) if D[i][i] > 1]
    gens = tuple(tuple(Fraction(V[j][i] % d, d) for j in range(n)) for d, i in pieces)
    return tuple(d for d, _ in pieces), gens


def first_fit_sums(seed):
    """Every component type once, shuffled and packed first-fit into direct
    sums of rank <= 19, in the shuffled block order."""
    types = list(COMPONENT_TYPES)
    random.Random(seed).shuffle(types)
    bins = []
    for letter, n in types:
        fit = next((b for b in bins if sum(k for _, k in b) + n <= 19), None)
        if fit is None:
            bins.append([(letter, n)])
        else:
            fit.append((letter, n))
    return [GramLattice(gram=direct_sum([component_gram(*t) for t in b])) for b in bins]


def shuffled(n, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def permuted(lat, seed):
    """The same lattice in a shuffled basis, so that blocks interleave: basis
    vector i is the old basis vector shuffled(rank, seed)[i]."""
    perm = shuffled(lat.rank, seed)
    return GramLattice(gram=tuple(tuple(lat.gram[i][j] for j in perm) for i in perm))


def disc_oracle_inputs():
    """(kind, lattice) for the per-block versus dense comparisons."""
    for letter, n in COMPONENT_TYPES:
        yield "component", GramLattice(gram=component_gram(letter, n))
    for config in ATLAS_SAMPLE:
        yield "atlas", gram(config)
    for seed in range(4):
        for k, lat in enumerate(first_fit_sums(seed)):
            yield "first-fit", lat
            yield "permuted", permuted(lat, 100 * seed + k)
    for group in GROUP_CONFIGS:
        yield "F", build_F(group)
    for build in (build_K_Q8hat, build_K_T24hat):
        yield "K", build().K.lattice


DISC_ORACLE_INPUTS = list(disc_oracle_inputs())


def test_disc_matches_dense_oracle():
    kinds = Counter()
    for kind, lat in DISC_ORACLE_INPUTS:
        kinds[kind] += 1
        d = discriminant_group(lat)
        factors, dense_gens = oracle_discriminant_group(lat)
        assert d.invariant_factors == factors, (kind, lat.gram)
        for f, g, q in zip(d.invariant_factors, d.generators, d.q_values):
            # g has exact order f and lies in L^vee (q_value raises NotInDual
            # otherwise), and q is its q-value
            assert lcm(*(c.denominator for c in g)) == f
            assert q == q_value(lat, g)
        # L and the generators span L^vee: their index over L is |det|
        den = max(factors, default=1)
        rows = [[den * (i == j) for j in range(lat.rank)] for i in range(lat.rank)]
        rows += [[int(den * c) for c in g] for g in d.generators]
        H = hermite_row_basis(rows)
        assert den**lat.rank == abs(lat.det) * abs(det_int(H))
        if len(lat.blocks) == 1:
            kinds["one block"] += 1
            assert d.generators == dense_gens, (kind, lat.gram)
    assert kinds == {
        "component": 38, "atlas": 300, "first-fit": 91, "permuted": 91, "F": 10, "K": 2,
        "one block": 123,
    }, kinds


def test_disc_A3_keeps_dense_generator():
    d = discriminant_group(L("A3"))
    assert d.generators == ((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),)
    assert d.q_values == (Fraction(5, 4),)


def test_block_det_matches_dense():
    for kind, lat in DISC_ORACLE_INPUTS:
        assert lat.det == det_int([list(r) for r in lat.gram]), (kind, lat.gram)


@pytest.mark.parametrize(
    "blocks, det",
    [
        ([[[0, 1], [1, 0]]], -1),  # the hyperbolic plane
        ([[[0, 1], [1, 0]], [[-2]]], 2),
        ([[[1, 2], [2, 1]], [[-2]], [[-2]]], -12),
        ([[[2, 1], [1, 2]], [[0, 3], [3, 0]], [[-1]]], 27),
        # repeated blocks: one det_int each, raised to the multiplicity
        ([[[0, 1], [1, 0]]] * 3 + [[[-2]]], 2),
        ([[[0, 1], [1, 0]]] * 2 + [[[-2]]], -2),
        ([[[1, 2], [2, 1]]] * 3 + [[[-2]]], 54),
        ([[[-2, 1], [1, -2]]] * 4 + [[[-2]]], -162),
    ],
)
def test_block_det_signs(blocks, det):
    lat = permuted(GramLattice(gram=direct_sum(blocks)), 7)
    assert len(lat.blocks) == len(blocks)
    assert lat.det == det == det_int([list(r) for r in lat.gram])
    assert discriminant_group(lat).order == abs(det)
    assert oracle_discriminant_group(lat)[0] == discriminant_group(lat).invariant_factors


@pytest.mark.parametrize(
    "blocks",
    [
        [[[-2]], [[2, 2], [2, 2]]],
        [[[0]], [[-2, 1], [1, -2]]],
        [[[-2, 1, 0], [1, -2, 1], [0, 1, -2]], [[1, 1, 0], [1, 2, 1], [0, 1, 1]]],
        [[[2, 2], [2, 2]]] * 3 + [[[-2]]],
    ],
)
def test_singular_block_is_degenerate(blocks):
    lat = GramLattice(gram=direct_sum(blocks))
    assert lat.det == 0 == det_int([list(r) for r in lat.gram])
    with pytest.raises(DegenerateLattice):
        discriminant_group(lat)


@pytest.mark.parametrize("text, distinct", [("19A1", 1), ("A1+6A3", 2), ("4A2+2A3+A5", 3)])
def test_smith_and_det_once_per_distinct_block(monkeypatch, text, distinct):
    calls = Counter()

    def counted(name):
        real = getattr(lattice, name)
        return lambda *args: calls.update([name]) or real(*args)

    # the discriminant path takes its Smith forms from the uncertified `_smith`
    for name in ("_smith", "det_int"):
        monkeypatch.setattr(lattice, name, counted(name))
    lat = L(text)
    d = discriminant_group(lat)
    assert calls == {"_smith": distinct, "det_int": distinct}
    assert d.invariant_factors == oracle_discriminant_group(lat)[0]


def mutated_smith(mutate):
    """lattice._smith with its (D, V) changed in place by mutate."""
    real = lattice._smith

    def smith(mat, track_u):
        D, U, V = real(mat, track_u)
        mutate(D, V)
        return D, U, V

    return smith


@pytest.mark.parametrize(
    "mutate, error, message",
    [
        # V with a doubled column of factor 1: every part still lies in L^vee
        # and the factors still multiply to |det|
        (lambda D, V: [r.__setitem__(0, 2 * r[0]) for r in V], AssertionError, "not unimodular"),
        # V unimodular, same factors, but (V_2 + V_0) / 4 is not in L^vee
        (lambda D, V: [r.__setitem__(2, r[2] + r[0]) for r in V], NotInDual, "non-integrally"),
        # factor 4 read as 2: V_2 / 2 lies in L^vee, but the order is 2, not 4
        (lambda D, V: D[2].__setitem__(2, 2), AssertionError, "invariant factor product"),
    ],
)
def test_discriminant_certificate_needs_each_check(monkeypatch, mutate, error, message):
    # the Smith form of A3 is diag(1, 1, 4); each mutation passes the other
    # two checks, so each check is needed
    D, _, _ = lattice._smith([list(r) for r in L("A3").gram], False)
    assert [D[i][i] for i in range(3)] == [1, 1, 4]
    monkeypatch.setattr(lattice, "_smith", mutated_smith(mutate))
    with pytest.raises(error, match=message):
        discriminant_group(L("A3"))


def test_disc_huge_prime_block():
    p = 100000000000031
    d = discriminant_group(GramLattice(gram=((-p,),)))
    assert d.invariant_factors == (p,) and d.generators == ((Fraction(1, p),),)
    assert d.q_values == (2 - Fraction(1, p),)


def test_disc_huge_composite_blocks():
    # the coprime base splits the orders without factoring them; trial
    # division up to the prime factors of p * q (near 10^14) would not finish
    p, q = 100000000000031, 100000000000133
    lat = GramLattice(gram=((-2 * p, 0), (0, -2 * p * q)))
    d = discriminant_group(lat)
    assert d.invariant_factors == (2 * p, 2 * p * q)
    for f, g, qv in zip(d.invariant_factors, d.generators, d.q_values):
        assert lcm(*(c.denominator for c in g)) == f  # the order of g mod L = Z^2
        assert q_value(lat, g) == qv  # raises NotInDual outside L^vee


# --- q values ---------------------------------------------------------------


def test_q_zero_vector():
    assert q_value(L("A3"), (0, 0, 0)) == 0


def test_q_of_quarter_class_in_A3():
    t = (Fraction(1, 4), Fraction(2, 4), Fraction(3, 4))
    lat = L("A3")
    assert lat.pair(t, t) == Fraction(-3, 4)
    assert q_value(lat, t) == Fraction(5, 4)


def test_q_rejects_non_dual():
    with pytest.raises(NotInDual):
        q_value(L("A3"), (Fraction(1, 3), 0, 0))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["A2", "A3", "D4", "A5", "D5", "E6"]),
    st.integers(0, 30),
    st.lists(st.integers(-3, 3), min_size=6, max_size=6),
)
def test_q_well_defined_mod_lattice(text, gen_pick, shift):
    lat = L(text)
    d = discriminant_group(lat)
    g = d.generators[gen_pick % len(d.generators)]
    shifted = tuple(c + s for c, s in zip(g, shift[: lat.rank]))
    assert q_value(lat, shifted) == q_value(lat, g)


# --- roots ------------------------------------------------------------------


def brute_force_roots(lat):
    """Box search oracle: coordinates bounded via the inverse form, norms
    evaluated as the integer sum of g_ij x_i x_j."""
    n = lat.rank
    g = lat.gram
    Q = [[-x for x in row] for row in g]
    Qinv = solve(Q, [[int(i == j) for j in range(n)] for i in range(n)])
    bounds = []
    for i in range(n):
        b = 2 * Qinv[i][i]
        k = 0
        while k * k <= b:
            k += 1
        bounds.append(k)
    out = set()
    for combo in product(*(range(-b, b + 1) for b in bounds)):
        if sum(x * sum(map(mul, row, combo)) for x, row in zip(combo, g) if x) == -2:
            nz = next(c for c in combo if c)
            if nz > 0:
                out.add(tuple(Fraction(c) for c in combo))
    return out


def test_roots_A1_A2():
    assert len(roots(L("A1"))) == 1
    assert len(roots(L("A2"))) == 3


def test_root_counts_ADE():
    # positive root counts: A_n: n(n+1)/2, D_n: n(n-1), E6: 36, E7: 63, E8: 120
    assert len(roots(L("A5"))) == 15
    assert len(roots(L("D4"))) == 12
    assert len(roots(L("D5"))) == 20
    assert len(roots(L("E6"))) == 36
    assert len(roots(L("E7"))) == 63
    assert len(roots(L("E8"))) == 120


RANK6_CONFIGS = [
    "A1", "2A1", "3A1", "6A1", "A2", "A2+A1", "2A2", "3A2", "A3",
    "A3+A2", "A3+3A1", "2A3", "A4", "A4+A2", "A5", "A5+A1", "A6",
    "D4", "D4+A1", "D4+2A1", "D4+A2", "D5", "D5+A1", "D6", "E6",
]


@pytest.mark.parametrize("text", RANK6_CONFIGS)
def test_roots_match_brute_force(text):
    lat = L(text)
    assert lat.rank <= 6
    got = set(roots(lat))
    assert got == brute_force_roots(lat)


def test_roots_requires_negative_definite():
    lat = GramLattice(gram=((2, 0), (0, -2)))
    with pytest.raises(NotNegativeDefinite):
        roots(lat)


@pytest.mark.parametrize(
    "g",
    [
        # affine A2~: positive semidefinite -gram, the last pivot is 0
        ((-2, 1, 1), (1, -2, 1), (1, 1, -2)),
        # -gram has leading minors 2, 3, 4, -19: indefinite, the last pivot < 0
        ((-2, 1, 0, 0), (1, -2, 1, 0), (0, 1, -2, 3), (0, 0, 3, -2)),
    ],
    ids=["affine-A2", "indefinite"],
)
def test_roots_late_pivot_failure(g):
    with pytest.raises(NotNegativeDefinite):
        roots(GramLattice(gram=g))
    with pytest.raises(NotNegativeDefinite):
        fraction_roots(GramLattice(gram=g))


# --- differential: integer root search against a Fraction search -------------


def _fraction_ldl(posdef):
    """LDL^T of a positive definite rational matrix, in Fraction arithmetic:
    Q(x) = sum_i d_i (x_i + sum_{j>i} u[i][j] x_j)^2."""
    n = len(posdef)
    q = [[Fraction(x) for x in row] for row in posdef]
    for i in range(n):
        if q[i][i] <= 0:
            raise NotNegativeDefinite("Gram matrix is not negative definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    d = [q[i][i] for i in range(n)]
    u = [[q[i][j] if j > i else Fraction(0) for j in range(n)] for i in range(n)]
    return d, u


def fraction_roots(lat):
    """Oracle: Fincke-Pohst on -gram with Fraction centres and bounds, both
    signs of every pair searched, no orthogonal-block split."""
    n = lat.rank
    d, u = _fraction_ldl([[-x for x in row] for row in lat.gram])
    found = []
    x = [0] * n

    def descend(i, remaining):
        if i < 0:
            if remaining == 0:
                found.append(tuple(x))
            return
        c = sum(u[i][j] * x[j] for j in range(i + 1, n))
        s = isqrt(int(remaining / d[i])) + 1
        for xi in range(ceil(-c - s), floor(-c + s) + 1):
            t = d[i] * (xi + c) ** 2
            if t <= remaining:
                x[i] = xi
                descend(i - 1, remaining - t)
        x[i] = 0

    descend(n - 1, Fraction(2))
    reps = set()
    for v in found:
        nz = next(c for c in v if c != 0)
        reps.add(v if nz > 0 else tuple(-c for c in v))
    return sorted(tuple(Fraction(c) for c in v) for v in reps)


IRREDUCIBLE = (
    [f"A{n}" for n in range(1, 20)] + [f"D{n}" for n in range(4, 20)] + ["E6", "E7", "E8"]
)


@pytest.mark.parametrize("text", IRREDUCIBLE)
def test_roots_match_fraction_search(text):
    lat = L(text)
    got = roots(lat)
    assert got == fraction_roots(lat)
    n = lat.rank
    pairs = {"A": n * (n + 1) // 2, "D": n * (n - 1), "E": {6: 36, 7: 63, 8: 120}.get(n)}
    assert len(got) == pairs[text[0]]


SCRAMBLE_CONFIGS = ["A4", "D5", "E6", "E7", "E8", "A3+A2", "D4+A1", "2A2+A1", "A8", "D8"]


def scrambled(text, seed):
    """U.gram.U^T for a seeded unimodular U made of elementary row operations."""
    g = L(text).gram
    n = len(g)
    rng = random.Random(seed)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    ug = [[sum(map(mul, row, col)) for col in zip(*g)] for row in u]
    return GramLattice(gram=[[sum(map(mul, row, v)) for v in u] for row in ug])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("text", SCRAMBLE_CONFIGS)
def test_roots_match_fraction_search_scrambled(text, seed):
    lat = scrambled(text, seed)
    assert lat.rank <= 8 and abs(lat.det) == abs(L(text).det)
    # some centre denominator D_k > 1: the integer levels really rescale
    assert max(D for D, _, _ in _search_levels([[-x for x in row] for row in lat.gram])[1]) > 1
    got = roots(lat)
    assert got == fraction_roots(lat)
    assert len(got) == len(roots(L(text)))
    for v in got:
        assert lat.pair(v, v) == -2


@pytest.mark.parametrize("build", [build_K_Q8hat, build_K_T24hat], ids=["Q8hat", "T24hat"])
def test_roots_match_fraction_search_kummer(build):
    report = build()
    for lat in (report.F, report.K.lattice):
        got = roots(lat)
        assert got == fraction_roots(lat)
        assert len(got) == {"Q8hat": 37, "T24hat": 39}[report.group]


# --- roots of split and repeated blocks --------------------------------------


def sign_normalised(vectors):
    return sorted(v if next(filter(None, v)) > 0 else tuple(-c for c in v) for v in vectors)


@pytest.mark.parametrize("seed", range(3))
def test_roots_of_permuted_first_fit_sums(seed):
    split = 0
    for k, lat in enumerate(first_fit_sums(seed)):
        perm = shuffled(lat.rank, 100 * seed + k)
        shuffled_lat = permuted(lat, 100 * seed + k)
        split += any(c[-1] - c[0] + 1 != len(c) for c, _ in shuffled_lat.blocks)
        got = roots(shuffled_lat)
        assert got == sign_normalised(tuple(r[i] for i in perm) for r in roots(lat))
        assert all(type(c) is int for v in got for c in v)
    assert split >= 5  # the permuted sums do have non-contiguous blocks


@pytest.mark.parametrize("text, pairs", [("19A1", 19), ("A1+6A3", 37), ("A1+6A2", 19)])
def test_roots_of_repeated_blocks(text, pairs):
    lat = L(text)
    got = roots(lat)
    assert len(got) == pairs and got == fraction_roots(lat)
    assert all(type(c) is int for v in got for c in v)


@pytest.mark.parametrize(
    "text, distinct", [("19A1", 1), ("A1+6A3", 2), ("4A2+2A3+A5", 3), ("shuffled Q8hat", 4)]
)
def test_block_roots_once_per_distinct_block(monkeypatch, text, distinct):
    calls = []
    real = lattice._block_roots
    monkeypatch.setattr(lattice, "_block_roots", lambda q, *place: calls.append(q) or real(q, *place))
    lat = permuted(build_F("Q8hat"), 7) if text == "shuffled Q8hat" else L(text)
    if text == "shuffled Q8hat":  # six A3 copies at scattered indices, in three orders of their path
        assert sum(c[-1] - c[0] + 1 != len(c) for c, g in lat.blocks if len(g) == 3) == 6
        assert sorted(Counter(g for _, g in lat.blocks).values()) == [1, 1, 2, 3]
    assert roots(lat) == fraction_roots(lat)
    assert len(calls) == distinct


# --- the lazy-row levels and the forced-level root search against dense ones --


def oracle_search_levels(q):
    """The Fincke-Pohst levels from the dense Bareiss loop before lazy rows."""
    n = len(q)
    m = [list(row) for row in q]
    prev = 1
    raw = []
    for k in range(n):
        p = m[k][k]
        if p <= 0:
            raise NotNegativeDefinite("Gram matrix is not negative definite")
        row = m[k]
        for i in range(k + 1, n):
            mi = m[i]
            f = mi[k]
            for j in range(k + 1, n):
                mi[j] = (p * mi[j] - f * row[j]) // prev
        g = gcd(p, *row[k + 1:])
        D = p // g
        raw.append((D, [(j, row[j] // g) for j in range(k + 1, n) if row[j]], p, prev * D * D))
        prev = p
    S = lcm(*(w_den for *_, w_den in raw))
    return S, [(D, u, w_num * (S // w_den)) for D, u, w_num, w_den in raw]


def oracle_block_roots(q):
    """The root search before forced levels: one recursive call per level,
    down to the last, on the dense levels."""
    S, levels = oracle_search_levels(q)
    n = len(levels)
    x = [0] * n
    found = []

    def descend(i, rem, zero_above):
        D, u, W = levels[i]
        C = sum(c * x[j] for j, c in u)
        m = isqrt(rem // W)
        lo = 0 if zero_above else -((m + C) // D)
        if i:
            for xi in range(lo, (m - C) // D + 1):
                t = D * xi + C
                x[i] = xi
                descend(i - 1, rem - W * t * t, zero_above and not xi)
            x[i] = 0
        elif W * m * m == rem:
            for t in sorted({-m, m}):
                xi, r = divmod(t - C, D)
                if not r and xi >= lo:
                    found.append((xi, *x[1:]))

    if n:
        descend(n - 1, 2 * S, True)
    return found


def oracle_roots(lat):
    """Roots block by block from the recursive search, each pair's sign and
    full-length vector fixed one root at a time."""
    out = []
    for comp, g in lat.blocks:
        for v in oracle_block_roots([[-x for x in row] for row in g]):
            full = [0] * lat.rank
            for i, c in zip(comp, v):
                full[i] = c if next(filter(None, v)) > 0 else -c
            out.append(tuple(full))
    return sorted(out)


def definite_inputs():
    """(kind, positive definite matrix): the negated ADE and K Grams,
    scrambled ADE Grams and seeded B B^T + I for sparse and dense B."""
    for letter, n in COMPONENT_TYPES:
        yield "ADE", [[-x for x in row] for row in component_gram(letter, n)]
    for build in (build_K_Q8hat, build_K_T24hat):
        yield "K", [[-x for x in row] for row in build().K.lattice.gram]
    for seed, text in enumerate(SCRAMBLE_CONFIGS):
        yield "scrambled", [[-x for x in row] for row in scrambled(text, seed).gram]
    rng = random.Random(20261019)
    for t in range(60):
        n = rng.randint(1, 7)
        pick = (lambda: rng.choice((0, 0, 0, 1, -1))) if t % 2 else (lambda: rng.randint(-2, 2))
        B = [[pick() for _ in range(n)] for _ in range(n)]
        yield "B B^T + I", [[sum(map(mul, r, s)) + (i == j) for j, s in enumerate(B)]
                            for i, r in enumerate(B)]


def test_search_levels_and_block_roots_match_dense_recursion():
    kinds = Counter()
    for kind, q in definite_inputs():
        kinds[kind] += 1
        assert _search_levels(q) == oracle_search_levels(q), (kind, q)
        n = len(q)
        found = lattice._block_roots(q, range(n), n)
        assert found == oracle_block_roots(q), (kind, q)
        # the same roots written in reverse at the odd entries of a wider tuple
        spread = lattice._block_roots(q, range(2 * n - 1, 0, -2), 2 * n)
        assert [r[::-2] for r in spread] == found and not any(any(r[::2]) for r in spread)
        kinds["roots"] += bool(found)
    assert (kinds["ADE"], kinds["K"], kinds["scrambled"]) == (38, 2, 10)
    assert kinds["roots"] >= 70, kinds


def test_search_levels_refuse_the_same_inputs():
    """Indefinite and semidefinite matrices, zero leading minors included:
    the lazy levels raise exactly where the dense ones do."""
    rng = random.Random(20261019)
    raised = Counter()
    for t in range(400):
        n = rng.randint(1, 6)
        if t % 2:  # semidefinite: B B^T for a singular B
            B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            B[rng.randrange(n)] = [0] * n
            q = [[sum(map(mul, r, s)) for s in B] for r in B]
        else:
            q = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    q[i][j] = q[j][i] = rng.randint(-3, 3) + 4 * (i == j)
        try:
            want = oracle_search_levels(q)
        except NotNegativeDefinite:
            raised["dense"] += 1
            with pytest.raises(NotNegativeDefinite):
                _search_levels(q)
            raised["both"] += 1
        else:
            assert _search_levels(q) == want
    assert raised["both"] == raised["dense"] >= 200, raised
    for q in ([[0, 1], [1, 0]], [[0]], [[1, 0], [0, 0]], [[2, 1, 1], [1, 2, 1], [1, 1, 0]]):
        with pytest.raises(NotNegativeDefinite):
            _search_levels(q)


@pytest.mark.parametrize("seed", range(3))
def test_roots_of_permuted_first_fit_sums_match_recursion(seed):
    for k, lat in enumerate(first_fit_sums(seed)):
        shuffled_lat = permuted(lat, 100 * seed + k)
        assert roots(shuffled_lat) == oracle_roots(shuffled_lat)
        assert roots(lat) == oracle_roots(lat)


def test_repeated_blocks_at_non_contiguous_indices():
    # the ten curve lattices in shuffled bases: a repeated block Gram is
    # searched and reduced once and placed at every copy's indices
    scattered = 0
    for seed in range(3):
        for k, group in enumerate(GROUP_CONFIGS):
            lat = permuted(build_F(group), 100 * seed + k)
            grams = Counter(g for _, g in lat.blocks)
            scattered += any(grams[g] > 1 and c[-1] - c[0] + 1 != len(c) for c, g in lat.blocks)
            assert roots(lat) == oracle_roots(lat), (group, seed)
            d = discriminant_group(lat)
            assert d.invariant_factors == oracle_discriminant_group(lat)[0], (group, seed)
            for f, g, q in zip(d.invariant_factors, d.generators, d.q_values):
                assert lcm(*(c.denominator for c in g)) == f
                assert q == q_value(lat, g)  # raises NotInDual outside L^vee
    assert scattered == 27  # all but 16A1, whose shuffled Gram is its own


def test_root_search_and_census_leave_no_garbage():
    """The recursive searches free their self-referencing closures: with the
    collector off, nothing is left for it."""
    lat = L("A1+6A3")
    roots(lat)
    enumerate_configs(24, 19)
    gc.collect()
    gc.disable()
    try:
        roots(L("A1+6A3"))
        left_by_roots = gc.collect()
        enumerate_configs(24, 19)
        left_by_census = gc.collect()
    finally:
        gc.enable()
    assert (left_by_roots, left_by_census) == (0, 0)


@pytest.mark.parametrize("text", ["D19", "A1+D17"])
def test_roots_hold_little_beyond_their_result(text):
    """Each root is built once, at its place: after the free lists are
    emptied, what a call leaves allocated is its result and little more,
    not the freed intermediate tuples parked in tuple free lists."""
    lat = L(text)
    roots(lat)  # the cached blocks are built outside the measurement
    gc.collect()  # a full collection empties the free lists
    tracemalloc.start()
    try:
        got = roots(lat)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    own = sys.getsizeof(got) + sum(map(sys.getsizeof, got))
    assert held < 1.5 * own, held / own


# --- glue and overlattices ---------------------------------------------------


def test_empty_glue_is_identity():
    lat = L("A3+A1")
    res = overlattice(lat, [])
    assert res.index == 1
    assert res.lattice.gram == lat.gram


def test_overlattice_8A1_half_sum():
    lat = L("8A1")
    assert abs(lat.det) == 2**8
    res = overlattice(lat, [[Fraction(1, 2)] * 8])
    assert res.index == res.den == 2
    # glue given as ints and "p/q" strings is read as the Fractions it names
    fractions = overlattice(lat, [[HALF] * 8, [Fraction(1)] * 8])
    assert overlattice(lat, [["1/2"] * 8, [1] * 8]) == fractions == res
    assert abs(res.lattice.det) == 2**6
    assert abs(res.lattice.det) * res.index**2 == abs(lat.det)


def test_glue_validation():
    lat = L("8A1")
    with pytest.raises(NonIntegralGlue):
        overlattice(lat, [[Fraction(1, 3)] + [0] * 7])
    with pytest.raises(ValueError, match="vector has wrong length"):
        overlattice(lat, [[Fraction(1, 2)] * 7])
    # self-pairing -2 is even: gluing 4 curves is fine lattice-wise
    assert overlattice(lat, [[Fraction(1, 2)] * 4 + [0] * 4]).index == 2
    with pytest.raises(OddGlue):
        overlattice(lat, [[Fraction(1, 2)] * 2 + [0] * 6])


HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "text, glue, exc, message",
    [
        # not in the dual: 1/3 on one A1 curve
        ("8A1", [[Fraction(1, 3)] + [0] * 7], NonIntegralGlue,
         "glue #0 pairs non-integrally with basis 0"),
        # in the dual but with self-pairing -1/2
        ("A1", [[HALF]], NonIntegralGlue, "glue #0 has non-integral self-pairing -1/2"),
        ("8A1", [[HALF] * 2 + [0] * 6], OddGlue, "glue #0 has odd self-pairing -1"),
        # two even half-vectors whose supports share 3 curves pair to -3/2
        ("8A1", [[HALF] * 4 + [0] * 4, [0] + [HALF] * 4 + [0] * 3], NonIntegralGlue,
         "glue #1 pairs non-integrally with glue #0"),
        # the first failing glue index is reported, each glue checked in turn
        ("8A1", [[HALF] * 8, [HALF] * 2 + [0] * 6, [Fraction(1, 3)] + [0] * 7], OddGlue,
         "glue #1 has odd self-pairing -1"),
        ("8A1", [[HALF] * 4 + [0] * 4, [HALF] * 8, [0] * 7 + [Fraction(1, 3)]],
         NonIntegralGlue, "glue #2 pairs non-integrally with basis 7"),
        ("8A1", [[HALF] * 4 + [0] * 4, [0] * 4 + [HALF] * 4, [0] + [HALF] * 4 + [0] * 3],
         NonIntegralGlue, "glue #2 pairs non-integrally with glue #0"),
    ],
)
def test_overlattice_glue_errors(text, glue, exc, message):
    lat = L(text)
    with pytest.raises(exc) as info:
        overlattice(lat, glue)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_wrong_length_vectors_are_refused():
    lat = L("8A1")
    zero = [0] * 8
    calls = [
        lambda v: q_value(lat, v),
        lambda v: lat.pair(v, zero),
        lambda v: lat.pair(zero, v),
        lambda v: overlattice(lat, [v]),
    ]
    for call in calls:
        for v in ([HALF] * 8 + [Fraction(1, 3)], zero + [HALF], [HALF] * 7, []):
            with pytest.raises(ValueError) as info:
                call(v)
            assert type(info.value) is ValueError
            assert str(info.value) == "vector has wrong length"


def test_overlattice_det_identity_random_glue():
    rng = random.Random(11)
    lat = L("12A1")
    for _ in range(20):
        size = rng.choice([4, 8])
        support = rng.sample(range(12), size)
        coords = [Fraction(1, 2) if i in support else Fraction(0) for i in range(12)]
        res = overlattice(lat, [coords])
        assert abs(res.lattice.det) * res.index**2 == abs(lat.det)
        assert res.index == 2


def test_overlattice_invariant_product():
    for text in ("A3", "2A1+A2", "D4+A1", "4A2"):
        lat = L(text)
        d = discriminant_group(lat)
        assert d.order == abs(lat.det)


# --- length bound -------------------------------------------------------------


def test_length_bound_12A1():
    res = length_bound_check(L("12A1"), 22)
    assert res.bound == length_bound(12, 22) == 10
    assert not res.ok
    assert res.excess == 2
    assert res.length == 12


def test_length_bound_A1():
    assert length_bound_check(L("A1"), 22).ok


# --- Gram validation ----------------------------------------------------------


@pytest.mark.parametrize(
    "rows, message",
    [(((-2, 1),), "must be square"), (((-2, 1), (-1, -2)), "must be symmetric")],
    ids=["non-square", "non-symmetric"],
)
def test_gram_must_be_square_and_symmetric(rows, message):
    with pytest.raises(ValueError, match=message):
        GramLattice(gram=rows)


def test_non_integer_gram_entries_raise():
    with pytest.raises(ValueError, match="must be integers"):
        GramLattice(gram=((-2.7, 1), (1, -2)))
    # integral values of other types are still accepted
    lat = GramLattice(gram=[[-2.0, Fraction(2, 2)], [1, -2]])
    assert lat.gram == ((-2, 1), (1, -2)) and all(type(x) is int for row in lat.gram for x in row)
