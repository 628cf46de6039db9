import hashlib
import random
import sys
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from kummerlat import (
    ADEConfig,
    InvalidComponent,
    ParseError,
    RankLimitExceeded,
    check_nonexistence,
    discriminant_group,
    dynkin,
    enumerate_configs,
    gram,
    m_value,
    max_disjoint_curves,
    parse_config,
)
from kummerlat.ade import _MAX_DIGITS as N, component_gram, invariant_factors_from_orders

from test_divisibility import COMPONENT_TYPES, oracle_component_mis
from test_snf import oracle_smith_normal_form

TABLE_10 = {
    "16A1": 16,
    "9A2": 18,
    "6A1+4A3": 18,
    "5A1+4A2+A5": 18,
    "2A1+3A3+2D4": 19,
    "3A1+4D4": 19,
    "A1+6A3": 19,
    "A1+2A2+3A3+D5": 19,
    "A1+4A2+D4+E6": 19,
    "4A2+2A3+A5": 19,
}

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


# --- parsing -----------------------------------------------------------------


def count(config, letter, n):
    return next((c for x, k, c in config.terms if (x, k) == (letter, n)), 0)


def test_parse_simple():
    c = parse_config("16A1")
    assert count(c, "A", 1) == 16
    assert c.render() == "16A1"


def test_parse_mixed():
    c = parse_config("4A2+2A3+A5")
    assert count(c, "A", 2) == 4
    assert count(c, "A", 3) == 2
    assert count(c, "A", 5) == 1


def test_parse_whitespace_and_roundtrip():
    c = parse_config("  5A1 + 4 A2+ A5 ")
    assert c.render() == "5A1+4A2+A5"
    assert parse_config(c.render()) == c


def test_parse_invalid_component():
    with pytest.raises(InvalidComponent):
        parse_config("2D3")
    with pytest.raises(InvalidComponent):
        parse_config("E5")
    with pytest.raises(InvalidComponent):
        parse_config("A0")


@pytest.mark.parametrize("text, position", [("0A1", 0), ("A1+0A2", 3), ("2A1 + 00D4", 5), ("D2+0A1", 3)])
def test_parse_refuses_zero_count(text, position):
    # "0A1" was read as the empty configuration, whose rendering "0" the
    # parser refuses; the constructor checks the components after every term is read
    with pytest.raises(ParseError, match="zero count") as err:
        parse_config(text)
    assert err.value.position == position


@pytest.mark.parametrize("text", ["A1++A2", "A1+"])
def test_parse_refuses_empty_term(text):
    with pytest.raises(ParseError, match="empty term") as err:
        parse_config(text)
    assert err.value.position == 3


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_config("2A1+؟+A3")
    assert err.value.position == 4


# --- m values and ranks ---------------------------------------------------


def test_m_16A1():
    assert m_value(parse_config("16A1")) == 24


def test_m_single_A1():
    assert m_value(parse_config("A1")) == Fraction(3, 2)


def test_m_C5():
    assert m_value(parse_config("5A1+A2+D4+D8")) == 24


@pytest.mark.parametrize("text,rho", sorted(TABLE_10.items()))
def test_table_m_and_rank(text, rho):
    c = parse_config(text)
    assert m_value(c) == 24
    assert c.rank == rho


@pytest.mark.parametrize("text", EXTRA_8)
def test_extra_configs_m24(text):
    c = parse_config(text)
    assert m_value(c) == 24
    assert c.rank <= 19


def test_rank_examples():
    assert parse_config("16A1").rank == 16
    assert parse_config("A1+6A3").rank == 19
    assert ADEConfig().rank == 0


def test_non_integer_sizes_and_counts_raise():
    with pytest.raises(ValueError, match="must be integers"):
        ADEConfig((("A", 2.9, 1),))
    with pytest.raises(ValueError, match="must be integers"):
        ADEConfig((("A", 1, 2.5),))
    assert ADEConfig((("A", 2.0, 1), ("A", 1, Fraction(2)))).render() == "2A1+A2"
    # the letter is data: a nonzero count of one outside A, D, E is refused by name
    with pytest.raises(InvalidComponent, match="^B1 is not an ADE component$"):
        ADEConfig((("A", 1, 1), ("B", 1, 2)))


def test_a_size_given_twice_adds_its_counts():
    config = ADEConfig((("A", 1, 2), ("A", 1, 3)))
    assert config.render() == "5A1"
    assert (count(config, "A", 1), config.rank) == (5, 5)
    assert config == parse_config("5A1") and hash(config) == hash(parse_config("5A1"))
    assert check_nonexistence(config).config.render() == "5A1"
    # a zero count is still dropped and a negative one still raises
    assert ADEConfig((("A", 1, 2), ("A", 1, 0), ("A", 3, 0), ("D", 4, 0), ("B", 1, 0))) == parse_config("2A1")
    with pytest.raises(ValueError, match="component counts must be nonnegative"):
        ADEConfig((("A", 1, 2), ("A", 1, -1)))
    # terms given out of order, a size repeated apart, are stored sorted and added up
    config = ADEConfig((("E", 6, 1), ("A", 3, 1), ("D", 4, 2), ("A", 1, 1), ("A", 3, 2)))
    assert config.terms == (("A", 1, 1), ("A", 3, 3), ("D", 4, 2), ("E", 6, 1))
    assert config == parse_config("A1+3A3+2D4+E6") and config.render() == "A1+3A3+2D4+E6"


# N is the interpreter's int/str digit limit: 4300 by default, the figure the
# test names give
NINES = 10**N - 1  # as copies of A_1: a rank of N digits, and m = 3/2 rank of N + 1
HALF_N = N // 2 + 50  # 2200 at the default


def a1(count: int) -> ADEConfig:
    return ADEConfig((("A", 1, count),))


@pytest.mark.parametrize(
    "make",
    [
        lambda: ADEConfig((("A", 1, 10**N),)),
        lambda: ADEConfig((("A", 1, NINES),)),
        lambda: ADEConfig((("A", 10**HALF_N, 1),)),  # a rank of HALF_N + 1 digits, an m of 2 HALF_N + 1
        # 100 sizes of N + 1 digits: the rank is refused before m, which would take seconds to sum
        lambda: ADEConfig(tuple(("A", 10**N + k, 1) for k in range(100))),
        lambda: ADEConfig((("D", 4, 1), ("A", 1, 10**N - 4))),
        lambda: ADEConfig((("E", 8, 1), ("A", 1, NINES - 8))),  # a rank of N digits
        lambda: parse_config("9" * N + "A1+A1"),
        lambda: parse_config("9" * N + "A1"),
        lambda: a1(5 * 10**(N - 1)) + a1(5 * 10**(N - 1)),
        lambda: a1(NINES // 3) + a1(2 * NINES // 3),
        lambda: 10 * a1(10**(N - 1)),
        lambda: 9 * a1(NINES // 9),
        lambda: a1(10**(N - 1)) * 10,
        lambda: a1(NINES // 9) * 9,
    ],
    ids=["ADEConfig-rank", "ADEConfig-m", "ADEConfig-m-size", "ADEConfig-rank-100-sizes",
         "unsorted-rank", "unsorted-m", "parse_config-rank", "parse_config-m", "add-rank", "add-m",
         "rmul-rank", "rmul-m", "mul-rank", "mul-m"],
)
def test_a_config_that_cannot_print_is_refused_where_it_is_made(make):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^a configuration with a rank or m of more than {N} digits "
                                         "cannot be printed$"):
        make()
    assert time.perf_counter() - start < 0.5


# the largest configuration accepted: a rank and an m = 15 * 10**(N - 2) of N digits each
EDGE = a1(10**(N - 1))


@pytest.mark.parametrize(
    "call, config, error, expected",
    [
        (gram, EDGE, RankLimitExceeded, f"^rank {10**(N - 1)} exceeds the K3 limit 19$"),
        (dynkin, EDGE, RankLimitExceeded, f"^rank {10**(N - 1)} exceeds the K3 limit 19$"),
        (ADEConfig.render, EDGE, None, f"{10**(N - 1)}A1"),
        (str, EDGE, None, f"{10**(N - 1)}A1"),
        (repr, EDGE, None, f"ADEConfig(terms=(('A', 1, {10**(N - 1)}),))"),
        (ADEConfig.to_json_dict, EDGE, None, {"A": {"1": 10**(N - 1)}, "D": {}, "E": {},
                                              "m": f"{15 * 10**(N - 2)}/1", "rank": 10**(N - 1)}),
        # m = NINES / 2, of N digits over 2
        (ADEConfig.to_json_dict, a1(NINES // 3), None, {"A": {"1": NINES // 3}, "D": {}, "E": {},
                                                        "m": f"{NINES}/2", "rank": NINES // 3}),
        (lambda c: str(m_value(c)), EDGE, None, str(15 * 10**(N - 2))),
        (lambda c: check_nonexistence(c).to_json_dict()["steps"], EDGE, None,
         [{"kind": "RankExceeds", "rank": str(10**(N - 1)), "rank_limit": "19"}]),
        (gram, parse_config("20A1"), RankLimitExceeded, "^rank 20 exceeds the K3 limit 19$"),
    ],
    ids=["gram", "dynkin", "render", "str", "repr", "to_json_dict", "to_json_dict-m", "m_value",
         "check_nonexistence", "gram-rank-20"],
)
def test_numbers_past_4300_digits_are_refused_by_name(call, config, error, expected):
    # past N digits a configuration is refused where it is made (above), so on
    # the largest one accepted every call answers, or refuses by name (`expected`
    # is then the message), and none leaks the interpreter's "Exceeds the limit"
    if error is None:
        assert call(config) == expected
        return
    with pytest.raises(error, match=expected) as info:
        call(config)
    assert "Exceeds the limit" not in str(info.value)


def test_add_sums_counts_per_type():
    # a sum over component types, never one entry per component
    huge = 99999999999999999999
    total = parse_config(f"{huge}A1+D4") + parse_config("A1+2A3")
    assert total == parse_config(f"{huge + 1}A1+2A3+D4")
    assert total.rank == huge + 11
    assert parse_config("E8") + ADEConfig() == parse_config("E8")


small_configs = st.builds(
    lambda a, d, e: ADEConfig([("A", *t) for t in a.items()] + [("D", *t) for t in d.items()]
                              + [("E", *t) for t in e.items()]),
    a=st.dictionaries(st.integers(1, 6), st.integers(1, 3), max_size=3),
    d=st.dictionaries(st.integers(4, 7), st.integers(1, 2), max_size=2),
    e=st.dictionaries(st.sampled_from([6, 7, 8]), st.integers(1, 1), max_size=1),
)


@settings(max_examples=80, deadline=None)
@given(small_configs, small_configs)
def test_m_additive(c1, c2):
    assert m_value(c1 + c2) == m_value(c1) + m_value(c2)
    assert c1 + c2 == ADEConfig([(*t, 1) for t in c1.components() + c2.components()])


@settings(max_examples=40, deadline=None)
@given(small_configs)
def test_m_doubling(c):
    assert m_value(2 * c) == 2 * m_value(c)
    assert (2 * c).rank == 2 * c.rank


# --- Gram / Dynkin -------------------------------------------------------------


def test_gram_A2():
    assert gram(parse_config("A2")).gram == ((-2, 1), (1, -2))


def test_gram_D4_center():
    g = gram(parse_config("D4")).gram
    degrees = [sum(1 for x in row if x == 1) for row in g]
    assert sorted(degrees) == [1, 1, 1, 3]


def test_gram_E8_unimodular():
    assert gram(parse_config("E8")).det == 1


def test_dynkin_components():
    graph = dynkin(parse_config("2A1+A3"))
    comps = graph.component_slices
    assert [(l, n) for l, n, _, _ in comps] == [("A", 1), ("A", 1), ("A", 3)]
    assert len(graph.nodes) == 5
    assert len(graph.edges) == 2


# --- closed-form discriminants -------------------------------------------------


def closed_form_disc(config):
    """Invariant factors of the discriminant group from the classical table.

    A_n contributes Z_{n+1}; D_n contributes (Z_2)^2 for even n and Z_4 for
    odd n; E_6, E_7, E_8 contribute Z_3, Z_2, nothing.  An oracle for the
    Smith normal form of gram(config), and the other way round.
    """
    orders = []
    for letter, n, c in config.terms:
        if letter == "A":
            orders.extend([n + 1] * c)
        elif letter == "D":
            orders.extend(([2, 2] if n % 2 == 0 else [4]) * c)
        else:
            orders.extend({6: [3], 7: [2], 8: []}[n] * c)
    return invariant_factors_from_orders(orders)


def test_closed_form_A3():
    assert closed_form_disc(parse_config("A3")) == (4,)


def test_closed_form_T24hat_config():
    assert closed_form_disc(parse_config("4A2+2A3+A5")) == (3, 3, 6, 12, 12)


def test_closed_form_E8():
    assert closed_form_disc(parse_config("E8")) == ()


def test_invariant_factors_from_orders_match_smith_form():
    """The chain of a sum of cyclic groups is the Smith form of diag(orders)."""
    rng = random.Random(15)
    pool = list(range(1, 61)) + [49, 121, 125, 243, 997, 9409, 9973, 2 * 9973, 9991]
    for _ in range(300):
        orders = [rng.choice(pool) for _ in range(rng.randint(0, 7))]
        diag = [[o * (i == j) for j in range(len(orders))] for i, o in enumerate(orders)]
        D = oracle_smith_normal_form(diag)[0]
        assert invariant_factors_from_orders(orders) == tuple(
            D[i][i] for i in range(len(orders)) if D[i][i] > 1
        ), orders


def trial_division_chain(orders):
    """Invariant factors of a sum of cyclic groups Z/d, by factoring each
    order by trial division: per prime, the prime-power parts sorted and
    aligned at the top of the chain."""
    by_prime = {}
    for d in orders:
        rest, p = d, 2
        while rest > 1:
            p = p if p * p <= rest else rest
            q = 1
            while rest % p == 0:
                rest, q = rest // p, q * p
            if q > 1:
                by_prime.setdefault(p, []).append(q)
            p += 1
    for parts in by_prime.values():
        parts.sort()
    depth = max(map(len, by_prime.values()), default=0)
    return tuple(
        prod(ps[-k] for ps in by_prime.values() if len(ps) >= k) for k in range(depth, 0, -1)
    )


def test_coprime_base_chain_matches_trial_division():
    rng = random.Random(17)
    # composite orders whose coprime base is not prime: 6 and 10 refine to 2, 3, 5
    pool = list(range(2, 61)) + [6, 10, 15, 36, 100, 210, 243, 1024, 2310, 9409, 9973 * 9967]
    for _ in range(400):
        orders = [rng.choice(pool) for _ in range(rng.randint(0, 9))]
        assert invariant_factors_from_orders(orders) == trial_division_chain(orders), orders


@pytest.mark.parametrize("letter,n", COMPONENT_TYPES, ids=[f"{t}{n}" for t, n in COMPONENT_TYPES])
def test_coprime_base_chain_on_component_types(letter, n):
    # the Smith orders of the block, alone, three times, and next to every other type
    D = oracle_smith_normal_form(component_gram(letter, n))[0]
    orders = [D[i][i] for i in range(n)]
    others = [oracle_smith_normal_form(component_gram(*t))[0][-1][-1] for t in COMPONENT_TYPES]
    for multiset in (orders, orders * 3, orders + others):
        assert invariant_factors_from_orders(multiset) == trial_division_chain(multiset)


def test_coprime_base_chain_on_huge_primes():
    # no factoring: orders built from primes near 10^12 and 10^14
    p, q, r = 1000000000039, 100000000000031, 999999999989
    for orders in ([p], [p * q, q], [p * p, p * q, r], [p * q * r, p, q * r, 6 * q]):
        D = oracle_smith_normal_form([[o * (i == j) for j in range(len(orders))]
                                      for i, o in enumerate(orders)])[0]
        want = tuple(D[i][i] for i in range(len(orders)) if D[i][i] > 1)
        assert invariant_factors_from_orders(orders) == want, orders


# every component type of rank <= 19
ALL_COMPONENTS = (
    [f"A{n}" for n in range(1, 20)] + [f"D{n}" for n in range(4, 20)] + ["E6", "E7", "E8"]
)


@pytest.mark.parametrize("text", ALL_COMPONENTS)
def test_closed_form_matches_snf_components(text):
    c = parse_config(text)
    assert closed_form_disc(c) == discriminant_group(gram(c)).invariant_factors


@pytest.mark.parametrize("text", sorted(TABLE_10) + EXTRA_8)
def test_closed_form_matches_snf_census(text):
    c = parse_config(text)
    assert closed_form_disc(c) == discriminant_group(gram(c)).invariant_factors


# --- max disjoint curves ---------------------------------------------------


def test_max_disjoint_examples():
    assert max_disjoint_curves(parse_config("D8"))[0] == 5
    assert max_disjoint_curves(parse_config("D7"))[0] == 4
    assert max_disjoint_curves(parse_config("A3"))[0] == 2


def test_max_disjoint_witness_is_independent():
    c = parse_config("2A1+3A3+2D4")
    size, witness = max_disjoint_curves(c)
    assert len(witness) == size
    lat = gram(c)
    idx = {lab: i for i, lab in enumerate(lat.basis_labels)}
    for a in witness:
        for b in witness:
            if a != b:
                assert lat.gram[idx[a]][idx[b]] == 0


def brute_force_mis(text):
    graph = dynkin(parse_config(text))
    n = len(graph.nodes)
    best = 0
    for s in range(1 << n):
        if any(s >> i & 1 and s >> j & 1 for i, j in graph.edges):
            continue
        best = max(best, bin(s).count("1"))
    return best


@pytest.mark.parametrize("text", ["A7", "D8", "E8", "A3+D4", "2A2+D5"])
def test_max_disjoint_brute_force(text):
    assert max_disjoint_curves(parse_config(text))[0] == brute_force_mis(text)


def oracle_max_disjoint(config):
    graph = dynkin(config)
    witness = []
    for letter, n, start, _ in graph.component_slices:
        witness += [graph.nodes[start + i] for i in oracle_component_mis(letter, n)[1]]
    return len(witness), tuple(witness)


@pytest.mark.parametrize(
    "config",
    [ADEConfig(((*t, 1),)) for t in COMPONENT_TYPES]
    + [parse_config(t) for t in sorted(TABLE_10) + EXTRA_8],
    ids=str,
)
def test_max_disjoint_matches_memoized_search(config):
    # size and witness labels, against the take-or-skip recursion
    assert max_disjoint_curves(config) == oracle_max_disjoint(config)


# --- census ---------------------------------------------------------------


def test_census_minimal_m():
    assert [c.render() for c in enumerate_configs(Fraction(3, 2), 19)] == ["A1"]


def test_census_12_9():
    names = [c.render() for c in enumerate_configs(12, 9)]
    assert "8A1" in names
    assert "3A1+2A3" in names


def test_census_24_19_is_the_18():
    got = sorted(c.render() for c in enumerate_configs(24, 19))
    expected = sorted(list(TABLE_10) + EXTRA_8)
    assert got == expected


def test_census_deterministic():
    first = [c.render() for c in enumerate_configs(24, 19)]
    second = [c.render() for c in enumerate_configs(24, 19)]
    assert first == second
    ranks = [c.rank for c in enumerate_configs(24, 19)]
    assert ranks == sorted(ranks)


@pytest.mark.parametrize(
    "m, max_rank, count, digest",
    [(48, 40, 1144, "6a8f9cb1d990e75636c6e7e0127fa08204bf0e00f27907e3caff1cb34afcc7a8"),
     (60, 45, 137, "1bf7b70f76be86974882d16670455d9020afaeb5e5e8bb2ba3f805583f94a150")],
    ids=["48-rank-40", "60-rank-45"],
)
def test_census_order_beyond_rank_19_is_pinned(m, max_rank, count, digest):
    # sort_key's per-letter tie-break orders the configurations whose rank and
    # parts of rank <= 19 agree; the sha256 of the renders, one a line, pins it
    configs = enumerate_configs(m, max_rank)
    assert len(configs) == count
    assert hashlib.sha256("\n".join(c.render() for c in configs).encode()).hexdigest() == digest


def test_census_rejects_nonpositive_m():
    with pytest.raises(ValueError):
        enumerate_configs(0, 19)


@pytest.mark.parametrize("max_rank", [-1, -19])
def test_census_rejects_negative_max_rank(max_rank):
    with pytest.raises(ValueError, match="max rank"):
        enumerate_configs(Fraction(3, 2), max_rank)
    assert enumerate_configs(Fraction(3, 2), 0) == []


def walk_calls(m, max_rank):
    """(results, calls of the census walk's `descend`), counted by a profile hook."""
    calls = 0

    source = enumerate_configs.__code__.co_filename

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "descend" and frame.f_code.co_filename == source:
            calls += 1

    sys.setprofile(count)
    try:
        results = enumerate_configs(m, max_rank)
    finally:
        sys.setprofile(None)
    return len(results), calls


@pytest.mark.parametrize(
    "m, max_rank, results, calls",
    [(Fraction(3, 2), 19, 1, 1), (12, 9, 2, 2), (24, 19, 18, 51), (Fraction(57, 2), 19, 1, 1),
     (36, 19, 0, 0), (48, 40, 1144, 5630)],
    ids=["3/2", "12", "24", "57/2", "36", "48-rank-40"],
)
def test_census_walk_calls_per_result(m, max_rank, results, calls):
    # counts step along the grain and within the rank left over, so few branches die
    assert walk_calls(m, max_rank) == (results, calls)
    assert calls <= 38 * results


def test_census_cap_keeps_the_largest_pinned_census():
    assert len(enumerate_configs(58, 1000)) == 8735


# --- JSON render -----------------------------------------------------------


def test_config_json_dict():
    d = parse_config("5A1+4A2+A5").to_json_dict()
    assert d["A"] == {"1": 5, "2": 4, "5": 1}
    assert d["m"] == "24/1"
    assert d["rank"] == 18
