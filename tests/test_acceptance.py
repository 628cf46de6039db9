"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is an exact integer or rational; the stated wall-clock
budgets are asserted as hard limits.
"""

import random
import time
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from kummerlat import (
    build_K_Q8hat,
    build_K_T24hat,
    check_nonexistence,
    discriminant_group,
    enriques_census,
    enumerate_configs,
    even_set_candidates,
    gram,
    lieberman_check,
    m_value,
    overlattice,
    parse_config,
    q_value,
    roots,
    singularity_configuration,
    standard_group,
)
from kummerlat.divisibility import EXCLUDED, NO_OBSTRUCTION
from kummerlat.snf import det_int, mat_mul, smith_normal_form
from kummerlat.torus import ALPHA, HURWITZ, QUAT_I, QUAT_J, QUAT_K, _map_from_quat
from kummerlat.torus import abcd_shorthand, fixed_points

from fraction_oracles import solve

TABLE_10 = [
    "16A1",
    "9A2",
    "6A1+4A3",
    "5A1+4A2+A5",
    "2A1+3A3+2D4",
    "3A1+4D4",
    "A1+6A3",
    "A1+2A2+3A3+D5",
    "A1+4A2+D4+E6",
    "4A2+2A3+A5",
]

EXTRA_8 = [
    "11A1+2A3",
    "7A1+A3+2D4",
    "5A1+A3+A7+D4",
    "6A1+2A2+A3+D5",
    "5A1+A2+D4+D8",
    "5A1+A3+A4+D7",
    "2A1+2A2+2D4+D5",
    "A1+4A2+2D5",
]


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_census():
    t0 = time.monotonic()
    census = enumerate_configs(24, 19)
    elapsed = time.monotonic() - t0
    got = sorted(c.render() for c in census)
    expected = sorted(TABLE_10 + EXTRA_8)
    report(
        "1 census",
        len(census) == 18 and got == expected and elapsed < 5.0,
        f"{len(census)} configurations in {elapsed:.2f}s",
    )


def test_criterion_2_m_values():
    ok = all(m_value(parse_config(s)) == 24 for s in TABLE_10 + EXTRA_8)
    doubled_1 = m_value(2 * parse_config("8A1"))
    doubled_2 = m_value(2 * parse_config("3A1+2A3"))
    ok = ok and doubled_1 == 24 and doubled_2 == 24
    report("2 m-values", ok, f"m(2*8A1) = {doubled_1}, m(2*(3A1+2A3)) = {doubled_2}")


def test_criterion_3_K_Q8hat():
    t0 = time.monotonic()
    r = build_K_Q8hat()
    elapsed = time.monotonic() - t0
    checks = [
        r.disc_F.invariant_factors == (2, 4, 4, 4, 4, 4, 4),
        r.disc_F.order == 8192,
        r.K.index == 16,
        r.disc_K.invariant_factors == (2, 4, 4),
        r.root_pairs_F == 37,
        r.root_pairs_K == 37,
        r.roots_equal,
        elapsed < 10.0,
    ]
    report(
        "3 K_Q8hat",
        all(checks),
        f"index {r.K.index}, disc {r.disc_K.invariant_factors}, "
        f"{r.root_pairs_K} root pairs in {elapsed:.2f}s",
    )


def test_criterion_4_K_T24hat():
    t0 = time.monotonic()
    r = build_K_T24hat()
    elapsed = time.monotonic() - t0
    checks = [
        r.disc_F.invariant_factors == (3, 3, 6, 12, 12),
        r.disc_F.order == 7776,
        r.K.index == 3,
        r.disc_K.invariant_factors == (6, 12, 12),
        r.root_pairs_F == 39,
        r.root_pairs_K == 39,
        r.roots_equal,
        elapsed < 10.0,
    ]
    report(
        "4 K_T24hat",
        all(checks),
        f"index {r.K.index}, disc {r.disc_K.invariant_factors}, "
        f"{r.root_pairs_K} root pairs in {elapsed:.2f}s",
    )


def test_criterion_5_torus_actions():
    t0 = time.monotonic()
    rows = [
        ("neg1", None, "16A1"),
        ("i", None, "6A1+4A3"),
        ("Q8", None, "2A1+3A3+2D4"),
        ("Q8_T24", None, "3A1+4D4"),
        ("Q8hat", None, "A1+6A3"),
        ("D12", None, "A1+2A2+3A3+D5"),
        ("T24", None, "A1+4A2+D4+E6"),
        ("T24hat", None, "4A2+2A3+A5"),
    ]
    results = []
    for name, lattice, expected in rows:
        config = singularity_configuration(standard_group(name, lattice=lattice)).config
        results.append(config.render() == expected)
    fix_i = {
        abcd_shorthand(p)
        for p in fixed_points(_map_from_quat(HURWITZ, QUAT_I)).points
    }
    fix_j = {
        abcd_shorthand(p)
        for p in fixed_points(_map_from_quat(HURWITZ, QUAT_J, ALPHA)).points
    }
    fix_k = {
        abcd_shorthand(p)
        for p in fixed_points(_map_from_quat(HURWITZ, QUAT_K, ALPHA)).points
    }
    results += [
        fix_i == {"0000", "1100", "1010", "0110"},
        fix_j == {"0011", "0101", "1001", "1111"},
        fix_k == {"0001", "1011", "0111", "1101"},
    ]
    elapsed = time.monotonic() - t0
    results.append(elapsed < 5.0)
    report("5 torus actions", all(results), f"8 rows + 3 fix sets in {elapsed:.2f}s")


def test_criterion_6_obstruction_engine():
    t0 = time.monotonic()
    verdicts_ok = True
    for s in EXTRA_8:
        if check_nonexistence(parse_config(s)).verdict != EXCLUDED:
            verdicts_ok = False
    for s in TABLE_10:
        if check_nonexistence(parse_config(s)).verdict != NO_OBSTRUCTION:
            verdicts_ok = False
    c3 = check_nonexistence(parse_config("5A1+A3+A7+D4"))
    cover_ok = any(
        step.kind == "CoverRankExceeds"
        and "2A7" in step.get("cover_config")
        and int(step.get("cover_rank")) == 20
        for step in c3.steps
    )
    elapsed = time.monotonic() - t0
    report(
        "6 obstruction engine",
        verdicts_ok and cover_ok and elapsed < 10.0,
        f"18 verdicts + C3 cover in {elapsed:.2f}s",
    )


def test_criterion_7_enriques():
    got = [c.render() for c in enriques_census()]
    lieb = lieberman_check((Fraction(1, 2), 0), (0, Fraction(1, 2)))
    ok = (
        got == ["8A1", "3A1+2A3"]
        and lieb.fixed_point_free
        and lieb.config.render() == "8A1"
    )
    report("7 enriques", ok, f"census {got}, lieberman {lieb.config.render()}")


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    rng = random.Random(2024)

    # SNF self-certification on 1000 random matrices
    for _ in range(1000):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = [[rng.randint(-40, 40) for _ in range(n)] for _ in range(m)]
        D, U, V = smith_normal_form(M)
        assert mat_mul(mat_mul(U, M), V) == D
        assert abs(det_int(U)) == 1 and abs(det_int(V)) == 1

    # roots vs brute force on every ADE sum of rank <= 6
    def configs_of_rank_at_most(bound):
        comps = [("A", n) for n in range(1, bound + 1)]
        comps += [("D", n) for n in range(4, bound + 1)]
        if bound >= 6:
            comps.append(("E", 6))
        out = []

        def go(idx, budget, acc):
            out.append(list(acc))
            for k in range(idx, len(comps)):
                letter, n = comps[k]
                if n <= budget:
                    acc.append((letter, n))
                    go(k, budget - n, acc)
                    acc.pop()

        go(0, bound, [])
        return [c for c in out if c]

    from kummerlat.ade import ADEConfig

    n_checked = 0
    for comps in configs_of_rank_at_most(6):
        config = ADEConfig([(letter, n, 1) for letter, n in comps])
        lat = gram(config)
        got = set(roots(lat))
        g = lat.gram
        Q = [[-x for x in row] for row in g]
        Qinv = solve(Q, [[int(i == j) for j in range(lat.rank)] for i in range(lat.rank)])
        bounds = []
        for i in range(lat.rank):
            b = 2 * Qinv[i][i]
            k = 0
            while k * k <= b:
                k += 1
            bounds.append(k)
        brute = set()
        for combo in product(*(range(-b, b + 1) for b in bounds)):
            if sum(x * sum(map(mul, row, combo)) for x, row in zip(combo, g) if x) == -2:
                nz = next(c for c in combo if c)
                if nz > 0:
                    brute.add(tuple(Fraction(c) for c in combo))
        assert got == brute, config.render()
        n_checked += 1

    # overlattice determinant identity on random admissible glue
    for _ in range(25):
        n_curves = rng.choice([8, 12, 16])
        lat = gram(parse_config(f"{n_curves}A1"))
        support = rng.sample(range(n_curves), 8)
        coords = [
            Fraction(1, 2) if i in support else Fraction(0) for i in range(n_curves)
        ]
        res = overlattice(lat, [coords])
        assert abs(res.lattice.det) * res.index**2 == abs(lat.det)

    # orbit-stabilizer identity on all standard groups
    for name in ("neg1", "i", "Q8", "Q8_T24", "Q8hat", "D12", "T24", "T24hat"):
        group = standard_group(name)
        rep = singularity_configuration(group)
        for orbit, order in zip(rep.orbits, rep.stabilizer_orders):
            assert len(orbit) * order == len(group)

    # q-value well-definedness on random dual lifts
    for text in ("A3", "D4", "A5", "E6", "2A1+A3"):
        lat = gram(parse_config(text))
        disc = discriminant_group(lat)
        for g in disc.generators:
            for _ in range(5):
                shift = [rng.randint(-4, 4) for _ in range(lat.rank)]
                lifted = tuple(c + s for c, s in zip(g, shift))
                assert q_value(lat, lifted) == q_value(lat, g)

    elapsed = time.monotonic() - t0
    report(
        "8 property suites",
        True,
        f"1000 SNF, {n_checked} root oracles, glue/orbit/q properties in {elapsed:.2f}s",
    )
