from fractions import Fraction
from itertools import product

import pytest

from kummerlat import (
    GlueVector,
    build_F,
    build_group_report,
    build_K_Q8hat,
    build_K_T24hat,
    discriminant_group,
    dynkin,
    even_set_candidates,
    overlattice,
    parse_config,
    q_value,
    roots,
    three_divisible_candidates,
    verify_root_equality,
)
from kummerlat.kummer import GROUP_CONFIGS

from fraction_oracles import basis_in_parent


def test_group_table():
    expected_rho = {
        "Z2": 16,
        "Z3": 18,
        "Z4": 18,
        "Z6": 18,
        "Q8": 19,
        "Q8_T24": 19,
        "Q8hat": 19,
        "Q12": 19,
        "T24": 19,
        "T24hat": 19,
    }
    for name, rho in expected_rho.items():
        assert parse_config(GROUP_CONFIGS[name]).rank == rho
        assert build_F(name).rank == rho


def test_build_F_Z2():
    F = build_F("Z2")
    assert F.rank == 16
    assert discriminant_group(F).invariant_factors == (2,) * 16


def test_build_F_Q8hat_labels():
    F = build_F("Q8hat")
    assert F.basis_labels[0] == "C0"
    assert F.basis_labels[1] == "C1^1"
    assert F.basis_labels[-1] == "C6^3"
    d = discriminant_group(F)
    assert d.invariant_factors == (2, 4, 4, 4, 4, 4, 4)
    assert d.order == 8192


def test_build_F_T24hat():
    F = build_F("T24hat")
    assert F.rank == 19
    d = discriminant_group(F)
    assert d.invariant_factors == (3, 3, 6, 12, 12)
    assert d.order == 7776
    assert d.length == 5


@pytest.fixture(scope="module")
def q8hat_report():
    return build_K_Q8hat()


@pytest.fixture(scope="module")
def t24hat_report():
    return build_K_T24hat()


class TestKQ8hat:
    @pytest.fixture()
    def report(self, q8hat_report):
        return q8hat_report

    def test_index_16(self, report):
        assert report.K.index == 16

    def test_disc_K(self, report):
        assert report.disc_K.invariant_factors == (2, 4, 4)
        assert abs(report.K.lattice.det) == 32

    def test_roots_37_pairs_and_equal(self, report):
        assert report.root_pairs_F == 37
        assert report.root_pairs_K == 37
        assert report.roots_equal

    def test_even_sets_recovered(self, report):
        assert len(report.even_sets) == 3
        blocks = [
            {lab.split("^")[0] for lab in s} for s in report.even_sets
        ]
        assert blocks[0] == {"C1", "C2", "C3", "C4"}
        assert blocks[1] == {"C3", "C4", "C5", "C6"}
        assert blocks[2] == {"C1", "C2", "C5", "C6"}

    def test_even_sets_are_the_candidates_in_K(self, report):
        # the hand-placed half even sets are exactly the even-set candidates
        # whose half-sums lie in K, compared as sets of curve indices
        # (candidates are labelled A3.r.s, the report C_r^s)
        config = parse_config("A1+6A3")
        nodes, labels = dynkin(config).nodes, report.F.basis_labels
        candidates = even_set_candidates(config)
        inside = [c for c in candidates if report.K.contains(c.class_vector)]
        assert (len(candidates), len(inside)) == (15, 3)
        assert {frozenset(map(nodes.index, c.support)) for c in inside} == {
            frozenset(map(labels.index, s)) for s in report.even_sets}

    def test_glue_is_isotropic(self, report):
        F = report.F
        from kummerlat.kummer import DELTA_1, DELTA_2, _t_base_vector

        d1 = _t_base_vector(DELTA_1)
        d2 = _t_base_vector(DELTA_2)
        assert F.pair(d1, d1) == -6
        assert F.pair(d2, d2) == -18
        assert F.pair(d1, d2) == -6
        assert q_value(F, d1) == 0
        assert q_value(F, d2) == 0

    def test_length_bound_at_rank_19(self, report):
        from kummerlat import length_bound_check

        res = length_bound_check(report.K.lattice, 22)
        assert res.ok
        assert res.length == 3


def oracle_t24hat_orientations(F):
    """(pairs, valid): the six A_2 of 4A2+A5 in 4A2+2A3+A5 as curve-index
    pairs (the four A_2 blocks, then curves 1,2 and 4,5 of the A_5), and in
    product order every orientation o, coefficient o on the first curve of
    each pair and 3 - o on the second, whose class over 3 pairs integrally
    with every row of F.gram."""
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7), (14, 15), (17, 18)]
    valid = []
    for orient in product((1, 2), repeat=len(pairs)):
        w = [0] * F.rank
        for (i, j), o in zip(pairs, orient):
            w[i], w[j] = o, 3 - o
        if all(sum(a * b for a, b in zip(row, w)) % 3 == 0 for row in F.gram):
            valid.append(orient)
    return pairs, valid


class TestKT24hat:
    @pytest.fixture()
    def report(self, t24hat_report):
        return t24hat_report

    def test_index_3(self, report):
        assert report.K.index == 3
        assert abs(report.F.det) // abs(report.K.lattice.det) == 9

    def test_disc_K(self, report):
        assert report.disc_K.invariant_factors == (6, 12, 12)
        assert abs(report.K.lattice.det) == 864

    def test_roots_39_pairs_and_equal(self, report):
        assert report.root_pairs_F == 39
        assert report.root_pairs_K == 39
        assert report.roots_equal

    def test_orientation_count(self, report):
        assert report.glue_info[0] == "integral orientations: 32"

    def test_glue_matches_the_orientation_scan(self, report):
        # the report reads its glue off the per-component 3-torsion tables;
        # the scan tries all 64 orientations against F.gram
        F = report.F
        pairs, valid = oracle_t24hat_orientations(F)
        assert len(valid) == 32
        labels = F.basis_labels
        assert report.glue_info == (
            f"integral orientations: {len(valid)}",
            *(f"({labels[i]},{labels[j]}) <- ({o},{3 - o})" for (i, j), o in zip(pairs, valid[0])))
        w = [0] * F.rank
        for (i, j), o in zip(pairs, valid[0]):
            w[i], w[j] = Fraction(o, 3), Fraction(3 - o, 3)
        assert overlattice(F, [GlueVector.in_dual(F, w)]).H == report.K.H

    def test_glue_is_a_three_divisible_candidate(self, report):
        # the pairs of the report, with coefficients (1/3, 2/3), are one of
        # the public 3-divisible candidates of the configuration, and in K
        labels = report.F.basis_labels
        pairs = tuple(tuple(g[1 : g.index(")")].split(",")) for g in report.glue_info[1:])
        vector = [Fraction(0)] * report.F.rank
        for one, two in pairs:
            vector[labels.index(one)], vector[labels.index(two)] = Fraction(1, 3), Fraction(2, 3)
        cands = three_divisible_candidates(parse_config("4A2+2A3+A5"))
        assert len(pairs) == 6
        assert (pairs, tuple(vector)) in {(c.support, c.class_vector) for c in cands}
        assert report.K.contains(vector)

    def test_length_bound_at_rank_19(self, report):
        from kummerlat import length_bound_check

        res = length_bound_check(report.K.lattice, 22)
        assert res.ok
        assert res.length == 3


def test_verify_root_equality_trivial():
    F = build_F("Z2")
    res = overlattice(F, [])
    assert verify_root_equality(res, F)


def test_verify_root_equality_full():
    report = build_K_Q8hat()
    assert verify_root_equality(report.K, report.F)


def test_group_report_other_groups():
    rep = build_group_report("Z4")
    assert rep.K is None
    assert rep.config.render() == "6A1+4A3"
    assert rep.root_pairs_F == 6 * 1 + 4 * 6  # one pair per A1, six per A3


def test_root_pair_count_F_T24hat():
    # 4 A2 x 3 + 2 A3 x 6 + A5 x 15
    assert len(roots(build_F("T24hat"))) == 39


def test_unknown_group():
    with pytest.raises(KeyError):
        build_F("Z5")


@pytest.mark.parametrize("build", [build_F, build_group_report])
def test_unknown_group_names_the_known_ones(build):
    with pytest.raises(KeyError, match=r"unknown group 'Z5'; known: \['Q12', 'Q8', "):
        build("Z5")


def test_verify_root_equality_not_sublattice():
    from kummerlat import GramLattice, NotASublattice, gram, parse_config
    from kummerlat.lattice import OverlatticeResult

    L = gram(parse_config("2A1"))
    doubled = GramLattice(gram=((-8, 0), (0, -8)))
    fake = OverlatticeResult(doubled, 1, 1, ((2, 0), (0, 2)), L)
    with pytest.raises(NotASublattice):
        verify_root_equality(fake, L)


def test_verify_root_equality_new_roots_outside_parent():
    # 4A1 glued by (1/2, 1/2, 1/2, 1/2) is D4: its roots (+-1/2, ...) are not in 4A1
    from kummerlat import GlueVector, gram

    L = gram(parse_config("4A1"))
    res = overlattice(L, [GlueVector.in_dual(L, (Fraction(1, 2),) * 4)])
    assert res.index == 2
    assert len(roots(res.lattice)) == 12
    assert not verify_root_equality(res, L)


def fraction_same_roots(K, roots_parent, roots_over):
    """Each overlattice root mapped to the parent row by row in Fractions."""
    over_in_parent = set()
    for r in roots_over:
        w = [sum((c * row[j] for c, row in zip(r, basis_in_parent(K))), Fraction(0))
             for j in range(len(basis_in_parent(K)))]
        if next((c for c in w if c), 0) < 0:
            w = [-c for c in w]
        over_in_parent.add(tuple(w))
    return {tuple(v) for v in roots_parent} == over_in_parent


def report_case(build):
    def case():
        report = build()
        return report.K, report.F, report.roots_equal, True
    case.__name__ = build.__name__
    return case


def trivial_Z2():
    Z2 = build_F("Z2")
    return overlattice(Z2, []), Z2, None, True


def glue_4A1_to_D4():
    from kummerlat import GlueVector, gram

    L = gram(parse_config("4A1"))
    D4 = overlattice(L, [GlueVector.in_dual(L, (Fraction(1, 2),) * 4)])
    return D4, L, None, False


@pytest.mark.parametrize(
    "case",
    [report_case(build_K_Q8hat), report_case(build_K_T24hat), trivial_Z2, glue_4A1_to_D4],
    ids=lambda case: case.__name__,
)
def test_same_roots_matches_fraction_oracle(case):
    # the report and verify_root_equality decide by counting roots; the
    # oracle maps every overlattice root into the parent in Fractions;
    # case() gives the overlattice, its parent, the report's roots_equal
    # (None without a report) and the oracle's expected verdict
    K, F, reported, expected = case()
    oracle = fraction_same_roots(K, roots(K.parent), roots(K.lattice))
    assert oracle == expected
    assert verify_root_equality(K, F) == oracle
    if reported is not None:
        assert reported == oracle


def test_verify_root_equality_refuses_another_parent():
    from kummerlat import NotASublattice

    report = build_K_T24hat()
    with pytest.raises(NotASublattice, match="not the overlattice's parent"):
        verify_root_equality(report.K, build_F("Q8hat"))


def test_alternative_glue_generates_the_same_lattice():
    # the report shows this by the congruence delta_2 + alt = 0 mod F; the
    # overlattice it no longer builds agrees
    from kummerlat import GlueVector
    from kummerlat.kummer import DELTA_1, DELTA_2, DELTA_2_ALT, _t_base_vector

    F = build_F("Q8hat")
    d1, d2, alt = (GlueVector.in_dual(F, _t_base_vector(d)) for d in (DELTA_1, DELTA_2, DELTA_2_ALT))
    assert overlattice(F, [d1, alt]).H == overlattice(F, [d1, d2]).H
    assert all((a + b) % 4 == 0 for a, b in zip(DELTA_2, DELTA_2_ALT))
    assert "delta_2 and its variant (3,1,2,0,3,1) generate the same lattice" in build_K_Q8hat().notes


# Smith forms (one per distinct block Gram of F and of K, none certified by
# U*A*V) and overlattices of each saturation report: Q8hat built a second
# overlattice for the alternative glue before.  T24hat reads the per-type
# 3-torsion tables of divisibility: the first report of a process builds
# them, one more Smith form for each of A2, A3 and A5, and later ones reuse them
REPORT_COUNTS = {"Q8hat": {"_smith": 4, "overlattice": 1},
                 "T24hat": {"_smith": 5, "overlattice": 1}}
TABLE_SMITHS = {"Q8hat": 0, "T24hat": 3}


@pytest.mark.parametrize("group", sorted(REPORT_COUNTS))
def test_saturation_report_operation_counts(monkeypatch, group):
    from collections import Counter

    from kummerlat import divisibility, kummer, lattice, snf

    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.update([name]) or real(*a))

    divisibility._torsion_patterns.cache_clear()
    divisibility._component_disc.cache_clear()
    counted(lattice, "_smith")
    counted(kummer, "overlattice")
    counted(snf, "smith_normal_form")
    build_group_report(group)
    assert calls == Counter(REPORT_COUNTS[group]) + Counter(_smith=TABLE_SMITHS[group])
    calls.clear()
    build_group_report(group)
    assert calls == REPORT_COUNTS[group]
