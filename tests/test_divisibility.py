import hashlib
import json
import math
import operator
import random
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, combinations_with_replacement, compress, product, repeat
from types import SimpleNamespace

import pytest

from kummerlat import (
    NonReducedIntersection,
    NotADEAfterContraction,
    check_nonexistence,
    double_cover_transform,
    enriques_census,
    enumerate_configs,
    even_set_candidates,
    gram,
    m_value,
    max_disjoint_curves,
    parse_config,
    required_even_sets,
    three_divisible_candidates,
)
from kummerlat import divisibility
from kummerlat.divisibility import (
    EXCLUDED,
    K3_RANK_LIMIT,
    NO_OBSTRUCTION,
    _component_autos,
    _SIZES,
    _candidate,
    _component_policies,
    _cover_exceeds,
    _enumerate_candidates,
    _join,
    _largest_code,
    _least_candidate,
    _live_sizes,
    _local_cover,
    _patterns,
    _torsion_patterns,
    _type_options,
    _type_table,
    _witnesses,
)
from kummerlat.ade import (
    ADEConfig,
    DynkinGraph,
    _independent_sets,
    classify_dynkin,
    component_edges,
    dynkin,
)
from kummerlat.lattice import connected_components, discriminant_group, q_value

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


# --- even-set candidates ------------------------------------------------------


def test_even_candidates_A1_6A3():
    cands = even_set_candidates(parse_config("A1+6A3"))
    assert len(cands) == 15  # choose 4 of the 6 A3 end-pairs
    for c in cands:
        assert len(c.support) == 8
        assert all(lab.startswith("A3") for lab in c.support)
        # both ends, never the middle curve
        assert all(lab.endswith(".1") or lab.endswith(".3") for lab in c.support)


def test_even_candidates_16A1():
    cands = even_set_candidates(parse_config("16A1"))
    sizes = sorted(len(c.support) for c in cands)
    assert sizes.count(16) == 1
    assert sizes.count(8) == 12870


def test_even_candidates_never_single_A3_curve():
    # a lone curve of an A_3 cannot appear: supports use both ends or none
    for cand in even_set_candidates(parse_config("11A1+2A3")):
        for block in ("A3.1", "A3.2"):
            hit = [lab for lab in cand.support if lab.startswith(block)]
            assert len(hit) in (0, 2)


def brute_force_even(text):
    config = parse_config(text)
    lat = gram(config)
    n = lat.rank
    out = set()
    for size in (8, 16):
        if size > n:
            continue
        for comb in combinations(range(n), size):
            if any(lat.gram[i][j] for i in comb for j in comb if i < j):
                continue
            ok = True
            for j in range(n):
                total = sum(lat.gram[j][i] for i in comb)
                if total % 2:
                    ok = False
                    break
            if ok:
                out.add(tuple(lat.basis_labels[i] for i in comb))
    return out


@pytest.mark.parametrize(
    "text", ["12A1", "2A1+2A3+D4", "A1+3A3", "4A2+A3", "8A1+D4", "3A3+A1"]
)
def test_even_candidates_match_brute_force(text):
    got = {c.support for c in even_set_candidates(parse_config(text))}
    assert got == brute_force_even(text)


def test_candidate_class_vectors_in_dual():
    config = parse_config("2A1+3A3+2D4")
    lat = gram(config)
    for cand in even_set_candidates(config):
        q_value(lat, cand.class_vector)  # raises NotInDual outside L^vee
        assert math.lcm(*(c.denominator for c in cand.class_vector)) == 2


# --- 3-divisible candidates ---------------------------------------------------


def test_three_divisible_T24hat_config():
    cands = three_divisible_candidates(parse_config("4A2+2A3+A5"))
    supports = {frozenset(p for pair in c.support for p in pair) for c in cands}
    assert len(supports) == 1  # unique support: 4 free A2 + both A2 in the A5
    (supp,) = supports
    assert not any(lab.startswith("A3") for lab in supp)
    assert len(cands) == 32  # orientations: 2^4 free choices x 2 coupled A5 choices
    for c in cands:
        a5 = sorted(pair for pair in c.support if pair[0].startswith("A5"))
        assert len(a5) == 2


def test_three_divisible_9A2():
    cands = three_divisible_candidates(parse_config("9A2"))
    # 6 of 9 supports with free orientations, plus all-9 supports
    assert len(cands) == 84 * 64 + 512


def test_three_divisible_A1_6A3_empty():
    assert three_divisible_candidates(parse_config("A1+6A3")) == []


def test_three_divisible_no_D5_support():
    # Z4 components carry no 3-torsion, so D5 curves never enter a support
    for cand in three_divisible_candidates(parse_config("A1+4A2+2D5")):
        raise AssertionError("C8 admits no 3-divisible candidate")


def test_three_divisible_class_vectors_in_dual():
    config = parse_config("4A2+2A3+A5")
    lat = gram(config)
    for cand in three_divisible_candidates(config):
        q_value(lat, cand.class_vector)  # raises NotInDual outside L^vee
        assert math.lcm(*(c.denominator for c in cand.class_vector)) == 3


@pytest.mark.parametrize("text", ["9A2", "4A2+2A3+A5", "6A2+A5"])
def test_three_divisible_candidates_closed_under_negation(text):
    # -x is again a candidate: the packed search oracle relies on this to
    # skip checking the multiples of a new basis vector
    vectors = {c.class_vector for c in three_divisible_candidates(parse_config(text))}
    assert vectors
    for vec in vectors:
        assert tuple((-x) % 1 for x in vec) in vectors


# --- hand-built codes as oracles for the code search --------------------------


def _parity(x):
    return bin(x).count("1") % 2


# basis words (point index sets) of weight-{8,16} codes on nA1, dimension 1-5
A1_CODES = {
    8: [range(8)],
    12: [range(8), range(4, 12)],
    # 14 points: F_2^3 minus 0, each point doubled
    14: [
        [2 * t + s for t in range(7) for s in (0, 1) if _parity((t + 1) & w)]
        for w in (1, 2, 4)
    ],
    # 15 points: the simplex code on F_2^4 minus 0
    15: [[t - 1 for t in range(1, 16) if _parity(t & w)] for w in (1, 2, 4, 8)],
    # 16 points: the Kummer code RM(1, 4) (Nikulin, "On Kummer surfaces", 1975)
    16: [[t for t in range(16) if _parity(t & w)] for w in (1, 2, 4, 8)] + [range(16)],
}


def _f2_span(basis):
    span = [0]
    for word in basis:
        mask = sum(1 << i for i in word)
        span += [mask ^ w for w in span]
    return span


@pytest.mark.parametrize("points", sorted(A1_CODES))
def test_a1_code_words_are_even_set_candidates(points):
    basis = A1_CODES[points]
    config = parse_config(f"{points}A1")
    labels = gram(config).basis_labels
    supports = {frozenset(c.support) for c in even_set_candidates(config)}
    words = [w for w in _f2_span(basis) if w]
    assert len(set(words)) == 2 ** len(basis) - 1
    for word in words:
        assert bin(word).count("1") in (8, 16)
        assert frozenset(labels[i] for i in range(points) if word >> i & 1) in supports


def _global_found(report, prime):
    (step,) = [
        s
        for s in report.steps
        if s.kind == "AdmissibleCandidateCount" and s.get("prime") == str(prime)
    ]
    return int(step.get("independent_found"))


def test_search_reaches_kummer_code_dimension():
    report = check_nonexistence(parse_config("16A1"))
    assert report.verdict == NO_OBSTRUCTION
    assert _global_found(report, 2) == len(A1_CODES[16])


def test_nine_cusp_code_words_are_candidates():
    # Barth, "K3 surfaces with nine cusps" (1998): the nine A_2 slots are the
    # points of F_3^2 and the code is spanned by the affine functionals
    config = parse_config("9A2")
    labels = gram(config).basis_labels
    points = [(x, y) for x in range(3) for y in range(3)]
    vectors = {c.class_vector for c in three_divisible_candidates(config)}
    words = 0
    for a, b, c in product(range(3), repeat=3):
        if not (a or b or c):
            continue
        coeffs = [0] * len(labels)
        for slot, (x, y) in enumerate(points, start=1):
            value = (a + b * x + c * y) % 3
            coeffs[labels.index(f"A2.{slot}.1")] = value
            coeffs[labels.index(f"A2.{slot}.2")] = 2 * value % 3
        assert tuple(Fraction(v, 3) for v in coeffs) in vectors
        words += 1
    assert words == 26
    report = check_nonexistence(config)
    assert report.verdict == NO_OBSTRUCTION
    assert _global_found(report, 3) == 3


@pytest.mark.parametrize("k", range(1, 20))
def test_kA1_verdicts(k):
    # every kA1 with k <= 16 sits inside Nikulin's 16A1; 17A1 to 19A1 are
    # excluded, and the two largest must decide quickly
    start = time.perf_counter()
    report = check_nonexistence(parse_config(f"{k}A1"))
    elapsed = time.perf_counter() - start
    assert report.verdict == (NO_OBSTRUCTION if k <= 16 else EXCLUDED)
    if k >= 18:
        assert elapsed < 10.0


def test_17A1_search_stops_at_dimension_5():
    # 17 points carry no weight-{8,16} code of dimension 6, so the search
    # looks for dimension 5, finds RM(1, 4) and reports the deficit
    start = time.perf_counter()
    report = check_nonexistence(parse_config("17A1"))
    elapsed = time.perf_counter() - start
    assert report.verdict == EXCLUDED
    deficits = [s for s in report.steps if s.kind == "IndependenceDeficit"]
    assert [(s.get("required"), s.get("available")) for s in deficits] == [("6", "5")]
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "text,prime,k",
    [("16A1", 2, 5), ("2A1+3A3+2D4", 2, 3), ("9A2", 3, 3), ("8A2", 3, 2), ("6A2+A5", 3, 2)],
)
def test_found_code_spans_only_candidates(text, prime, k):
    # expand the packed basis into coefficient vectors and span it with
    # plain mod-p arithmetic, independently of the match
    graph = dynkin(parse_config(text))
    n, pats = len(graph.nodes), _patterns(graph, prime)
    basis = _largest_code(prime, n, pats, k)
    assert len(basis) == k
    assert_spans_only_candidates(n, prime, basis, _enumerate_candidates(prime, pats))


def assert_spans_only_candidates(n, prime, basis, cands):
    def coeffs(v):
        return tuple((v >> i & 1) + 2 * (v >> (n + i) & 1) for i in range(n))

    vectors = [coeffs(b) for b in basis]
    words = {
        tuple(sum(c * vec[i] for c, vec in zip(cs, vectors)) % prime for i in range(n))
        for cs in product(range(prime), repeat=len(basis))
        if any(cs)
    }
    assert len(words) == prime ** len(basis) - 1
    packed = {sum(1 << (x - 1) * n + i for i, x in enumerate(w) if x) for w in words}
    assert packed <= set(cands)


# --- the per-component tables against their dense derivations ---------------------

COMPONENT_TYPES = (
    [("A", n) for n in range(1, 20)]
    + [("D", n) for n in range(4, 20)]
    + [("E", n) for n in (6, 7, 8)]
)


def atlas(max_rank=19):
    """Every nonempty configuration of rank <= max_rank, from rank
    partitions (independent of the m-driven enumerate_configs)."""
    out = []

    def walk(i, rem, counts):
        if i == len(COMPONENT_TYPES):
            if counts:
                out.append(ADEConfig([(*t, c) for t, c in counts.items()]))
            return
        letter, n = COMPONENT_TYPES[i]
        for c in range(rem // n + 1):
            walk(i + 1, rem - c * n, {**counts, (letter, n): c} if c else counts)

    walk(0, max_rank, {})
    return out


ATLAS = atlas()
ATLAS_SAMPLE = random.Random(20261018).sample(ATLAS, 300)


def test_atlas_size():
    assert len(ATLAS) == 7573


def componentwise_admissible(graph, p, v):
    """An allowed support size, and on every component nothing or one of the
    component's p-torsion patterns."""
    if v.bit_count() not in _SIZES[p]:
        return False
    n = len(graph.nodes)
    for (_, _, start, stop), pats in zip(graph.component_slices, _patterns(graph, p)):
        cmask = sum(1 << ((c - 1) * n + node) for c in range(1, p) for node in range(start, stop))
        if v & cmask and v & cmask not in pats:
            return False
    return True


def packed_ops(p, n):
    """The F_p addition on packed classes of n curves, the nonzero multiples
    of a class, and `pool`, the sorted candidates with coefficient 1 on their
    top curve: the operations of the packed code searches below."""
    if p == 2:
        return operator.xor, lambda v: (v,), lambda cands: cands  # already sorted by top curve
    low = (1 << n) - 1

    def add(u, v):
        # coefficient 1 from 0+1, 1+0, 2+2; coefficient 2 from 0+2, 2+0, 1+1
        u1, u2, v1, v2 = u & low, u >> n, v & low, v >> n
        s1 = (u1 ^ v1) & ~(u2 | v2) | (u2 & v2)
        s2 = (u2 ^ v2) & ~(u1 | v1) | (u1 & v1)
        return s1 | s2 << n

    return (
        add,
        lambda v: (v, (v & low) << n | v >> n),  # v and -v
        # the halves share no curve, so top coefficient 1 means the low half is larger
        lambda cs: sorted((c for c in cs if c & low > c >> n), key=lambda c: c & low),
    )


def code_searches(config):
    """(prime, allowed patterns, candidates, required dimension) of every
    witness and global search of a check; a global search that no length
    excess forces requires dimension 0."""
    length = check_nonexistence(config).steps[0]
    for w in _witnesses(config):
        yield 2, w.allowed, _enumerate_candidates(2, [list(a) for a in w.allowed]), w.required
    for p in (2, 3):
        pats = _patterns(dynkin(config), p)
        k = int(length.get(f"required_glue_{p}"))
        yield p, pats, _enumerate_candidates(p, pats), k


@pytest.mark.parametrize("sample", ["census", "atlas"])
def test_candidate_membership_is_componentwise_admissibility(sample):
    # every sum of up to three candidates, drawn from at most 24 of each search
    texts = TABLE_10 + EXTRA_8 if sample == "census" else ATLAS_SAMPLE[:40]
    rng = random.Random(7)
    verdicts = Counter()
    for text in texts:
        graph = dynkin(config := parse_config(str(text)))
        for p, _, cands, _ in code_searches(config):
            add = packed_ops(p, len(graph.nodes))[0]
            members = set(cands)
            chosen = rng.sample(cands, min(24, len(cands)))
            for r in (1, 2, 3):
                for combo in combinations_with_replacement(chosen, r):
                    v = 0
                    for u in combo:
                        v = add(v, u)
                    ok = componentwise_admissible(graph, p, v)
                    assert (v in members) == ok, (str(text), p, combo)
                    verdicts[ok] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


# --- the catalogue match against the code classification and the searches it replaced


def code_lengths(p, weights, points, information_sets=True):
    """{d: fewest points} over the F_p codes of dimension d on at most
    `points` points whose nonzero words all have a weight in `weights`; the
    first dimension missing has no code.

    Up to the order of its points, a code with a chosen basis is the
    multiset of its columns in F_p^d, each taken up to a nonzero scalar
    (first nonzero entry 1), which changes no weight; the zero column counts
    the unused points.  Every code of dimension d + 1 extends one of its
    subcodes of dimension d by a row.  Adding an old word to that row spans
    the same code, so the row may vanish on one point of each column of an
    information set (`information_sets`)."""
    table, level, d = {}, {(((), points),)}, 0
    while level:
        level = {new for code in level for new in extend_code(p, weights, code, information_sets)}
        d += 1
        if level:
            table[d] = min(points - dict(code).get((0,) * d, 0) for code in level)
    return table


def extend_code(p, weights, code, information_sets):
    """The codes one dimension above `code`, a sorted tuple of (column,
    multiplicity).  Each column type splits its points among the new
    entries (0 or 1 below the zero column, which keeps the new columns
    normalized), and each new word (a, 1) must get an allowed weight; the
    other new words are multiples of these."""
    d = len(code[0][0])
    words = list(product(range(p), repeat=d))
    pinned = independent_columns(p, [c for c, _ in code]) if information_sets else set()
    options = []  # per column type: (new columns, weight added to each new word)
    for idx, (c, m) in enumerate(code):
        values = range(p) if any(c) else range(2)
        options.append([
            (
                tuple((c + (v,), x) for v, x in zip(values, parts) if x),
                [sum(x for v, x in zip(values, parts) if (v + sum(map(operator.mul, a, c))) % p)
                 for a in words],
            )
            for parts in splits(m, len(values), int(idx in pinned))
        ])
    rest = [sum(m for _, m in code[i:]) for i in range(len(code) + 1)]
    found = []

    def walk(i, weight, columns):
        if not all(any(w <= t <= w + rest[i] for t in weights) for w in weight):
            return
        if i == len(options):
            found.append(tuple(sorted(columns)))
            return
        for new, adds in options[i]:
            walk(i + 1, list(map(operator.add, weight, adds)), columns + new)

    walk(0, [0] * len(words), ())
    return found


def independent_columns(p, columns):
    """Indices of columns that form a basis of their span, by elimination
    mod p."""
    rows, picked = [], set()
    for idx, c in enumerate(columns):
        v = list(c)
        for pivot, row in rows:
            f = v[pivot]
            v = [(x - f * y) % p for x, y in zip(v, row)]
        if any(v):
            pivot = next(i for i, x in enumerate(v) if x)
            inverse = pow(v[pivot], -1, p)
            rows.append((pivot, [x * inverse % p for x in v]))
            picked.add(idx)
    return picked


def splits(m, k, least_first=0):
    """Every way to write m as an ordered sum of k parts, the first at
    least least_first."""
    if k == 1:
        return [(m,)] if m >= least_first else []
    return [(x, *rest) for x in range(least_first, m + 1) for rest in splits(m - x, k - 1)]


@lru_cache(maxsize=None)
def derived_code_length():
    """The fewest curves per code dimension, from the classification, on at
    most 19 curves (rank <= 19).  Binary codes live on the curves with
    weights 8 or 16.  A ternary word is c (1, 2) on each A_2 pair it
    covers, so a ternary code lives on at most 9 pairs with weights 6 or 9,
    and each pair is two curves."""
    pairs = code_lengths(3, (6, 9), 19 // 2)
    return {2: code_lengths(2, (8, 16), 19), 3: {d: 2 * t for d, t in pairs.items()}}


def classified_codes(p, weights, points):
    """{d: codes} over every dimension `extend_code` reaches, each code as
    the multiset of its nonzero columns."""
    codes, level, d = {}, {(((), points),)}, 0
    while level := {new for code in level for new in extend_code(p, weights, code, True)}:
        d += 1
        codes[d] = {tuple((c, m) for c, m in code if any(c)) for code in level}
    return codes


def code_form(p, d, columns):
    """("simplex", m) when the (column, multiplicity) pairs are every point of
    PG(d - 1, p), each m times, and ("affine", m) when they are every point
    off one hyperplane, each m times; forms that GL(d, p) keeps.  Else None."""
    points = {v for v in product(range(p), repeat=d) if any(v) and next(x for x in v if x) == 1}
    support, times = {c for c, _ in columns}, {m for _, m in columns}
    if len(times) != 1:
        return None
    (m,) = times
    if support == points:
        return "simplex", m
    for h in points:
        if support == {v for v in points if sum(map(operator.mul, h, v)) % p}:
            return "affine", m
    return None


# the classified codes per prime and dimension, by form and multiplicity
# (in curves for p = 2, in A_2 pairs for p = 3); at d = 1 both are simplex
CODE_FORMS = {
    2: {
        1: {("simplex", 8), ("simplex", 16)},
        2: {("simplex", 4), ("affine", 8)},
        3: {("simplex", 2), ("affine", 4)},
        4: {("simplex", 1), ("affine", 2)},
        5: {("affine", 1)},
    },
    3: {1: {("simplex", 6), ("simplex", 9)}, 2: {("simplex", 2), ("affine", 3)}, 3: {("affine", 1)}},
}


def test_code_length_table_is_derived():
    # every code the classifier finds (binary on <= 19 curves, ternary on
    # <= 9 A_2 pairs) is a catalogue code up to GL(d, p), and every
    # catalogue code occurs; no code one dimension above (binary d = 6,
    # ternary d = 4) exists, and the fewest curves per dimension, read off
    # the catalogue, are the classifier's
    for p, weights, points in ((2, (8, 16), 19), (3, (6, 9), 9)):
        classified = {
            d: {code_form(p, d, code) for code in codes}
            for d, codes in classified_codes(p, weights, points).items()
        }
        assert classified == CODE_FORMS[p], p
        catalogue = divisibility._catalogue(p)
        forms = {
            d: [code_form(p, d, [(c, m // (p - 1)) for c, m in code.items()]) for code in codes]
            for d, codes in catalogue.items()
        }
        assert {d: set(f) for d, f in forms.items()} == CODE_FORMS[p], p
        assert sum(map(len, forms.values())) == sum(map(len, CODE_FORMS[p].values()))
        lengths = {d: min(sum(code.values()) for code in codes) for d, codes in catalogue.items()}
        assert lengths == derived_code_length()[p]
    # the information-set cut loses no code, seen where the full search is cheap
    assert code_lengths(3, (6, 9), 9, information_sets=False) == code_lengths(3, (6, 9), 9)


def covered_curves(n, cands):
    """How many curves the packed candidates cover, in either half."""
    u = reduce(operator.or_, cands, 0)
    return ((u | u >> n) & ((1 << n) - 1)).bit_count()


class SearchBudget(Exception):
    """An oracle search passed its budget of candidate tests."""


def find_code(p, n, cands, k, budget=None):
    """The packed search the catalogue match replaced, as (basis or None,
    largest dimension reached), on the sorted candidates `cands`.

    Each code is visited once, through its basis in reduced echelon form: a
    vector's pivot is its highest curve, where its coefficient is 1, pivots
    increase along the basis, and each basis vector is 0 on the other
    pivots.  So the basis is drawn from `pool(cands)`, and a later vector
    must be 0 on every chosen pivot.  Extending the span by v adds m + w
    for each nonzero multiple m of v and each old element w; each level
    keeps the later candidates u with u + x in `cands` for every element x
    just added, which covers the other multiples of u, since the new
    elements and `cands` are closed under negation.  The search stops at
    min(k, d_max(N)) from the derived code lengths on the N curves the
    candidates cover; if that is below k the result is (None, d_max(N)).
    Raises SearchBudget once more than `budget` candidates have been
    tested."""
    add, multiples, pool = packed_ops(p, n)
    low = (1 << n) - 1
    lengths = derived_code_length()[p]
    target = min(k, max((d for d, t in lengths.items() if t <= covered_curves(n, cands)), default=0))
    admissible = set(cands)
    best_seen = tested = 0
    basis = []

    def extend(compatible, span, pivots):
        nonlocal best_seen, tested
        best_seen = max(best_seen, len(basis))
        if len(basis) == target:
            return True
        for idx, v in enumerate(compatible):
            tested += len(compatible) - idx - 1
            if budget is not None and tested > budget:
                raise SearchBudget
            top = 1 << (v & low).bit_length() - 1
            taken = pivots | top | top << n  # both packed halves of each pivot
            new = [add(m, w) for m in multiples(v) for w in span]
            rest = [u for u in compatible[idx + 1 :] if not u & taken]
            for x in new:
                rest = [u for u in rest if add(u, x) in admissible]
            basis.append(v)
            if extend(rest, span + new, taken):
                return True
            basis.pop()
        return False

    found = extend(pool(cands), [0], 0)
    return (basis if found and target == k else None), (target if found else best_seen)


def oracle_search(p, n, allowed, cands, k, budget=None):
    """The search `find_code` replaced, as (found, largest dimension
    reached).  When every allowed pattern is one curve the dimension is
    capped from the derived binary code lengths without a search; otherwise
    every increasing basis drawn from `cands` is tried, so each code is
    visited once per such basis.  Raises SearchBudget once more than
    `budget` candidates have been tested."""
    usable = [q for pats in allowed for q in pats]
    if all(q.bit_count() == 1 for q in usable):
        lengths = derived_code_length()[2]
        cap = max((d for d, t in lengths.items() if t <= len(usable)), default=0)
        if k > cap:
            return False, cap
    add, multiples, _ = packed_ops(p, n)
    admissible = set(cands)
    best_seen = tested = 0

    def extend(compatible, span, depth):
        nonlocal best_seen, tested
        best_seen = max(best_seen, depth)
        if depth == k:
            return True
        for idx, v in enumerate(compatible):
            tested += len(compatible) - idx - 1
            if budget is not None and tested > budget:
                raise SearchBudget
            new = [add(m, w) for m in multiples(v) for w in span]
            # one pass per new element: u + x in `cands` for every x in `new`
            rest = compatible[idx + 1 :]
            for x in new:
                rest = list(compress(rest, map(admissible.__contains__, map(add, rest, repeat(x)))))
            if extend(rest, span + new, depth + 1):
                return True
        return False

    found = extend(cands, [0], 0)
    return found, (k if found else best_seen)


# candidate tests after which an oracle gives up; a search past it is
# skipped, since some witness searches run for minutes in either oracle
ORACLE_BUDGET = 200_000
# the dimension past every catalogue code, per prime
PAST_CATALOGUE = {2: 6, 3: 4}
# per oracle, (searches compared, searches skipped at ORACLE_BUDGET);
# "find_code past" asks for a dimension past every catalogue code
ORACLE_COUNTS = {
    "atlas": {"oracle_search": (161, 5), "find_code": (163, 3), "find_code past": (324, 3)},
    "atlas_4A2": {"oracle_search": (96, 1), "find_code": (97, 0), "find_code past": (264, 0)},
    "census": {"oracle_search": (119, 6), "find_code": (121, 4), "find_code past": (138, 4)},
    "deep": {"oracle_search": (73, 24), "find_code": (82, 15), "find_code past": (93, 15)},
}


def oracle_sample(sample):
    if sample == "census":
        return TABLE_10 + EXTRA_8
    if sample == "atlas":
        return ATLAS_SAMPLE[:100]
    if sample == "deep":
        return DP_SAMPLES["deep"]
    # four or more A2 components: most F_3 searches, up to dimension 3
    rich = [c for c in ATLAS if ("A", 2) in {(t, n) for t, n, k in c.terms if k >= 4}]
    return random.Random(3).sample(rich, 120)


@pytest.mark.parametrize("sample", sorted(ORACLE_COUNTS))
def test_find_code_matches_oracle(sample):
    # every witness and global search: the match's largest dimension up to
    # the required k against both oracles, and past every catalogue code
    # against `find_code`; a basis the match returns spans only candidates
    counts = {name: [0, 0] for name in ORACLE_COUNTS[sample]}
    for text in oracle_sample(sample):
        config = parse_config(str(text))
        n = config.rank
        for p, allowed, cands, k in code_searches(config):
            top = PAST_CATALOGUE[p]
            oracles = [
                (k, [
                    ("oracle_search", lambda: oracle_search(p, n, allowed, cands, k, ORACLE_BUDGET)),
                    ("find_code", lambda: find_code(p, n, cands, k, ORACLE_BUDGET)),
                ]),
                (top, [("find_code past", lambda: find_code(p, n, cands, top, ORACLE_BUDGET))]),
            ]
            for want, named in oracles:
                if not want:
                    continue
                basis = _largest_code(p, n, allowed, want)
                assert_spans_only_candidates(n, p, basis, cands)
                for name, oracle in named:
                    try:
                        found, dim = oracle()
                    except SearchBudget:
                        counts[name][1] += 1
                        continue
                    assert (len(basis) == want, len(basis)) == (found not in (None, False), dim), (
                        str(text), p, want,
                    )
                    counts[name][0] += 1
    assert {name: tuple(c) for name, c in counts.items()} == ORACLE_COUNTS[sample]


@pytest.mark.parametrize("text", ["2D4+D5+D6", "3D4+D7", "7A1+A3+2D4"])
def test_code_bound_decides_mixed_witness(text):
    # one witness's candidates cover too few curves for a weight-{8,16} code
    # of the required dimension k, so the match ends at k - 1, where both
    # oracles end too
    config = parse_config(text)
    n = config.rank
    short = []
    for w in _witnesses(config):
        cands = _enumerate_candidates(2, [list(a) for a in w.allowed])
        if cands and covered_curves(n, cands) < derived_code_length()[2][w.required]:
            short.append((w, cands))
    ((w, cands),) = short
    k = w.required
    assert len(_largest_code(2, n, w.allowed, k)) == k - 1
    assert find_code(2, n, cands, k) == (None, k - 1)
    assert oracle_search(2, n, w.allowed, cands, k) == (False, k - 1)


# witness searches off the checker's path that ran for minutes before the
# match, with the dimension found on each witness of the required dimension
UNREACHED_SEARCHES = {
    ("15A1+A3", 4): [3, 3],
    ("15A1+A3", 5): [4, 4],
    ("15A1+A3", 6): [4],
    ("14A1+A2+A3", 5): [3, 3],
    ("14A1+A2+A3", 6): [4],
    ("10A1+2D4", 5): [4],
    ("11A1+2A3", 4): [3],
}


@pytest.mark.parametrize("text,k", sorted(UNREACHED_SEARCHES))
def test_unreached_witness_searches_decide(text, k):
    # each decides well within a second, and a code it finds spans only
    # candidates.  No oracle finishes on them; on 15A1+A3 at k = 5 a
    # dimension-5 code would be RM(1, 4), 16 distinct columns, while the A_3
    # gives its column twice and the A_1 give 15
    config = parse_config(text)
    n = config.rank
    found = []
    for w in _witnesses(config):
        if w.required == k:
            start = time.perf_counter()
            basis = _largest_code(2, n, w.allowed, k)
            assert time.perf_counter() - start < 1.0, w.description
            assert_spans_only_candidates(n, 2, basis, _enumerate_candidates(2, w.allowed))
            found.append(len(basis))
    assert found == UNREACHED_SEARCHES[text, k]


def test_match_refuses_a_non_subspace():
    # a shape reads a component's patterns with 0 as a subspace; two of the
    # three leaf-pair patterns of D_4 are not one
    (pats,) = _patterns(dynkin(parse_config("D4")), 2)
    assert len(pats) == 3 and _largest_code(2, 4, [pats], 2) == []
    with pytest.raises(AssertionError, match="not an F_2-subspace"):
        _largest_code(2, 4, [pats[:2]], 1)


# --- the candidate and cover DPs against the walk and scan they replaced ------

# the deepest F_2 and F_3 code searches of the rank <= 19 atlas
RESIDUE = ["9A1+2D4", "10A1+A2+D4", "10A1+A3+D4", "3A1+8A2", "8A2+A3", "7A2+A5"]
# the longest candidate lists and cover scans of the atlas
DEEP = ["19A1", "18A1", "16A1+A3", "15A1+D4", "17A1+A2"]
DP_SAMPLES = {
    "census": TABLE_10 + EXTRA_8,
    "atlas": [str(c) for c in ATLAS_SAMPLE],
    "deep": RESIDUE + DEEP,
}


def oracle_enumerate(p, allowed):
    """The recursive walk `_enumerate_candidates` replaced: every choice of
    at most one allowed pattern per component, cut when the support is too
    large or can no longer reach the smallest allowed size."""
    sizes = _SIZES[p]
    lo, hi = min(sizes), max(sizes)
    suffix = [0] * (len(allowed) + 1)
    for i in range(len(allowed) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + max((q.bit_count() for q in allowed[i]), default=0)
    out = []

    def walk(i, v, size):
        if size > hi:
            return
        if i == len(allowed):
            if size in sizes:
                out.append(v)
            return
        if size + suffix[i] < lo:
            return
        walk(i + 1, v, size)
        for q in allowed[i]:
            walk(i + 1, v | q, size + q.bit_count())

    walk(0, 0, 0)
    return sorted(out)


def oracle_cover_scan(graph, masks):
    """The scan `_cover_exceeds` replaced: None if some
    candidate has an ADE cover of rank <= 19, else the first candidate with
    its cover (None when that cover is not ADE)."""
    first_bad = None
    for mask in masks:
        pieces = [
            _local_cover(letter, k, mask >> start & ((1 << k) - 1))
            for letter, k, start, _ in graph.component_slices
        ]
        ade = not any(isinstance(p, str) for p in pieces)
        if ade and sum(p.rank for p in pieces) <= K3_RANK_LIMIT:
            return None
        if first_bad is None:
            first_bad = (mask, sum(pieces, ADEConfig()) if ade else None)
    return first_bad


def candidate_dp(graph, p, allowed):
    """The DP that the joined per-type tables replaced: over the components
    in turn, per support size a count of partial classes and their least
    cover rank, dropping each size once it cannot reach an allowed one."""
    live = _live_sizes(p, allowed)
    level = {0: (1, 0)} if live[0] & 1 else {}
    for i, ((letter, k, start, _), pats) in enumerate(zip(graph.component_slices, allowed)):
        nxt = {}
        for q in (0, *pats):
            rank = getattr(_local_cover(letter, k, q >> start), "rank", math.inf) if p == 2 else 0
            for t, (c, r) in level.items():
                if live[i + 1] >> (u := t + q.bit_count()) & 1:
                    c0, r0 = nxt.get(u, (0, math.inf))
                    nxt[u] = c0 + c, min(r0, r + rank)
        level = nxt
    return sum(c for c, _ in level.values()), min((r for _, r in level.values()), default=math.inf)


def global_tables(config, p):
    """The type tables of a global step: every copy may take any pattern."""
    return [
        _type_table(letter, n, p, (_torsion_patterns(letter, n, p),) * c)
        for letter, n, c in config.terms
    ]


# (searches compared, candidates listed) over every witness and global search
ENUMERATION_COUNTS = {"census": (142, 55454), "atlas": (978, 102481), "deep": (108, 666158)}
# (counts compared, least candidates compared), the latter on nonempty lists,
# by prime
COUNT_DP_COUNTS = {
    "census": (142, {2: 114, 3: 4}),
    "atlas": (978, {2: 446, 3: 6}),
    "deep": (108, {2: 94, 3: 3}),
}


@pytest.mark.parametrize("sample", sorted(DP_SAMPLES))
def test_enumeration_dp_matches_walk(sample):
    # the list against the walk it replaced; the joined type tables and the
    # least-candidate walk, which build no list, against the list, and the
    # tables' count and least cover rank against the DP they replaced
    searches = listed = 0
    least = Counter()
    for text in DP_SAMPLES[sample]:
        graph = dynkin(config := parse_config(text))
        lists = [(2, [list(a) for a in w.allowed], w.tables) for w in _witnesses(config)]
        lists += [(p, _patterns(graph, p), global_tables(config, p)) for p in (2, 3)]
        for p, allowed, tables in lists:
            cands = _enumerate_candidates(p, allowed)
            assert cands == oracle_enumerate(p, allowed), (text, p)
            joined = _join(p, tables)
            assert joined == candidate_dp(graph, p, allowed), (text, p)
            assert joined[0] == len(cands), (text, p)
            if cands:
                assert _least_candidate(p, allowed) == cands[0], (text, p)
                least[p] += 1
            searches += 1
            listed += len(cands)
    assert (searches, listed) == ENUMERATION_COUNTS[sample]
    assert (searches, least) == COUNT_DP_COUNTS[sample]


# (witnesses compared, CoverRankExceeds steps, witnesses without candidates)
COVER_COUNTS = {"census": (106, 8, 6), "atlas": (378, 109, 53), "deep": (86, 36, 0)}


@pytest.mark.parametrize("sample", sorted(DP_SAMPLES))
def test_cover_dp_matches_scan(sample):
    # the step, its example mask and its cover, for every witness; the least
    # ADE cover rank is exactly 19 on some census and atlas witnesses
    compared = fired = empty = 0
    for text in DP_SAMPLES[sample]:
        graph = dynkin(config := parse_config(text))
        for w in _witnesses(config):
            cands = _enumerate_candidates(2, [list(a) for a in w.allowed])
            count, got = _cover_exceeds(graph, w)
            assert count == len(cands), (text, w.description)
            assert got == oracle_cover_scan(graph, cands), (text, w.description)
            compared += 1
            fired += got is not None
            empty += not cands
    assert (compared, fired, empty) == COVER_COUNTS[sample]


def test_cover_dp_reports_non_ade_example():
    # no 2-torsion pattern of rank <= 19 has a non-ADE local cover, so the
    # witness is made up: the centre of D4 alone branches into a triangle of
    # leaves, and the one candidate, 5 curves of A1 and 3 centres, fires
    # with a non-ADE example
    graph = dynkin(parse_config("5A1+3D4"))
    slices = graph.component_slices
    allowed = [[1 << (start + (k > 1))] for _, k, start, _ in slices]
    tables = [_type_table(letter, k, 2, ((1 << (k > 1),),)) for letter, k, _, _ in slices]
    cands = _enumerate_candidates(2, allowed)
    assert len(cands) == 1
    assert isinstance(_local_cover("D", 4, 0b10), str)
    assert _cover_exceeds(graph, SimpleNamespace(allowed=allowed, tables=tables)) == (1, (cands[0], None))
    assert oracle_cover_scan(graph, cands) == (cands[0], None)


# --- the searches the checker runs, against the full search -------------------


def searches_run(config, skipped):
    """(prime, dimension, dimension found) of each code search the checker
    should run, in order: every witness of dimension 2 or more until one
    falls short, then each global step that a length excess forces, unless
    the check is excluded by then.  The dimension found is the full
    `find_code`'s on the listed candidates, and a global step must report it
    with the list's length.  A witness of dimension 1 needs one candidate,
    so the checker skips its search, and `skipped` counts it."""
    graph, n = dynkin(config), config.rank
    report = check_nonexistence(config)
    runs = []
    excluded = False
    for w in _witnesses(config):
        if not excluded:
            cands = _enumerate_candidates(2, w.allowed)
            basis, dim = find_code(2, n, cands, w.required)
            if w.required == 1:
                assert (basis is not None, dim) == (bool(cands), min(len(cands), 1))
                skipped["witness"] += 1
            else:
                runs.append((2, w.required, dim))
            excluded = basis is None
        excluded |= _cover_exceeds(graph, w)[1] is not None
    glue = {p: int(report.steps[0].get(f"required_glue_{p}")) for p in (2, 3)}
    for p, k in glue.items():
        if not k or excluded:
            continue
        cands = _enumerate_candidates(p, _patterns(graph, p))
        basis, dim = find_code(p, n, cands, k)
        where = ("AdmissibleCandidateCount", "global", str(p))
        (step,) = [s for s in report.steps if (s.kind, s.get("scope"), s.get("prime")) == where]
        assert step.get("admissible_candidates") == str(len(cands))
        assert step.get("independent_found") == str(dim)
        runs.append((p, k, dim))
        excluded = basis is None
    return runs


# searches the checker skips, by kind, and searches it runs; before every
# search went through the match it also skipped 7 global steps that a
# witness code proved and 7 searches the code-length table decided on the
# census (29 run), and 15 and 1 on the atlas sample (5 run)
SKIPPED_COUNTS = {"census": ({"witness": 44}, 43), "atlas": ({"witness": 54}, 21)}


@pytest.mark.parametrize("sample", sorted(SKIPPED_COUNTS))
def test_skipped_searches_match_full_search(monkeypatch, sample):
    # the checker matches exactly the other searches, and each finds the
    # full search's dimension
    texts = TABLE_10 + EXTRA_8 if sample == "census" else ATLAS_SAMPLE[:100]
    calls = []
    real = divisibility._largest_code

    def recorded(p, n, allowed, k):
        basis = real(p, n, allowed, k)
        calls.append((p, k, len(basis)))
        return basis

    monkeypatch.setattr(divisibility, "_largest_code", recorded)
    skipped = Counter()
    ran = 0
    for text in texts:
        config = parse_config(str(text))
        expected = searches_run(config, skipped)
        calls.clear()
        check_nonexistence(config)
        assert calls == expected, str(text)
        ran += len(calls)
    assert (skipped, ran) == SKIPPED_COUNTS[sample]


def test_census_lists_candidates_only_for_searches(monkeypatch):
    # 118 lists and 87 code searches before the checker counted candidates
    # without listing them, 36 and 36 (33549 candidates listed) before the
    # code-length table decided complete searches, and 29 and 29 (3900
    # listed) before every search became a catalogue match, which lists none
    # (a witness of dimension 1 needs no search)
    calls = Counter()
    real_list, real_match = divisibility._enumerate_candidates, divisibility._largest_code

    def enumerate_candidates(*a):
        calls["_enumerate_candidates"] += 1
        return real_list(*a)

    def largest_code(*a):
        calls["_largest_code"] += 1
        return real_match(*a)

    monkeypatch.setattr(divisibility, "_enumerate_candidates", enumerate_candidates)
    monkeypatch.setattr(divisibility, "_largest_code", largest_code)
    for text in TABLE_10 + EXTRA_8:
        check_nonexistence(parse_config(text))
    assert calls == {"_largest_code": 43}


def test_global_steps_do_not_depend_on_witness_codes(monkeypatch):
    # the global F_2 step is matched on its own, whatever the witnesses
    # found: without its last witness (for A1+6A3 the one of dimension 2,
    # for 16A1 the 16-curve one, whose code RM(1, 4) has dimension 5) each
    # configuration reports the same verdict and the same steps
    full = {text: check_nonexistence(parse_config(text)) for text in ("A1+6A3", "16A1")}
    witnesses = divisibility._witnesses
    monkeypatch.setattr(divisibility, "_witnesses", lambda config: witnesses(config)[:-1])
    for text, report in full.items():
        short = check_nonexistence(parse_config(text))
        assert short.verdict == report.verdict == NO_OBSTRUCTION
        assert short.steps[1:] == report.steps[1:]
        assert _global_found(short, 2) > 0


@lru_cache(maxsize=None)
def atlas_reports():
    """One checker pass over the atlas, shared by the tests that read it."""
    return tuple(check_nonexistence(c) for c in ATLAS)


def test_atlas_verdicts_and_report_digest():
    # every configuration of rank <= 19: the verdict histogram, and a digest
    # of the reports that pins them byte for byte
    digest = hashlib.sha256()
    verdicts = Counter()
    for r in atlas_reports():
        report = r.to_json_dict()
        verdicts[report["verdict"]] += 1
        digest.update((json.dumps(report, sort_keys=True) + "\n").encode())
    assert verdicts == {NO_OBSTRUCTION: 6158, EXCLUDED: 1415}
    assert digest.hexdigest() == "f4b3974787242071483e5b35497663047f3b83b19efacc6ce7685ac417c05984"


def component_disc_orders(letter, n):
    """Orders of cyclic summands of a component's discriminant group, from the
    classical table: Z_{n+1} for A_n, (Z_2)^2 for D_n of even n and Z_4 of
    odd n, and Z_3, Z_2, nothing for E_6, E_7, E_8."""
    if letter == "A":
        return [n + 1]
    if letter == "D":
        return [2, 2] if n % 2 == 0 else [4]
    return {6: [3], 7: [2], 8: []}[n]


def primary_lengths(orders):
    """l_p, for each prime p, of a sum of cyclic groups of these orders: the
    number of orders that p divides."""
    lengths = Counter()
    for d in orders:
        p = 2
        while d > 1:
            if d % p == 0:
                lengths[p] += 1
                while d % p == 0:
                    d //= p
            p += 1
    return lengths


def test_component_disc_orders_match_discriminant_group():
    for letter, n in COMPONENT_TYPES:
        factors = discriminant_group(gram(ADEConfig([(letter, n, 1)]))).invariant_factors
        assert primary_lengths(component_disc_orders(letter, n)) == primary_lengths(factors)
    assert len(COMPONENT_TYPES) == 38


def nikulin_slack(config):
    """21 - r - l(A_S) for S = R + <2q>, R the configuration's root lattice of
    rank r and q an odd prime prime to |A_R|: l_2(A_S) = l_2(A_R) + 1,
    l_q(A_S) = 1 and l_p(A_S) = l_p(A_R) for the other odd p."""
    lengths = Counter()
    for letter, n, c in config.terms:
        for p, k in primary_lengths(component_disc_orders(letter, n)).items():
            lengths[p] += c * k
    return 21 - config.rank - max([lengths[2] + 1, *(k for p, k in lengths.items() if p > 2)])


def test_realizable_configurations_are_never_excluded():
    """Nikulin's criterion, an independent check from the existence side.

    S = R + <2q>, of signature (1, r), embeds primitively in the K3 lattice
    of signature (3, 19) when 22 - (r + 1) > l(A_S) (Nikulin, "Integral
    symmetric bilinear forms and some of their applications", Math. USSR
    Izv. 14 (1980), Cor. 1.12.3), that is, when `nikulin_slack` is positive.
    Then the surjectivity of the period map gives a K3 surface with
    Neron-Severi lattice S, whose roots orthogonal to the polarisation are
    those of R, so the configuration is realized and no sound checker
    excludes it.  The criterion reaches 1779 configurations of the atlas.
    1417 more lie on its boundary, slack 0, where Nikulin's Theorem 1.12.2
    would decide from the discriminant form; they are left undecided here.
    """
    slack = Counter()
    for c, report in zip(ATLAS, atlas_reports()):
        s = nikulin_slack(c)
        slack[s > 0, s == 0] += 1
        if s > 0:
            assert report.verdict == NO_OBSTRUCTION, c.render()
    assert slack[True, False] == 1779
    assert slack[False, True] == 1417


def test_enumerate_configs_matches_rank_partitions():
    by_m = {}
    for c in ATLAS:
        by_m.setdefault(m_value(c), []).append(c)
    rng = random.Random(24)
    targets = [Fraction(3, 2), Fraction(6), Fraction(12), Fraction(24)]
    targets += rng.sample(sorted(set(by_m) - set(targets)), 40)
    for m in targets:
        for max_rank in (9, 12, 19):
            expected = sorted((c for c in by_m[m] if c.rank <= max_rank), key=ADEConfig.sort_key)
            assert enumerate_configs(m, max_rank) == expected, (m, max_rank)
    # no sum of component m values reaches these: 23 divides no denominator,
    # and the last lies within 1e-40 of the 18 configurations of m = 24
    for m in (Fraction(100, 7), Fraction(200, 23), 24 + Fraction(1, 10**40)):
        assert m not in by_m
        assert enumerate_configs(m, 19) == []
    for m in (0, Fraction(-3, 2)):
        with pytest.raises(ValueError):
            enumerate_configs(m, 19)


@lru_cache(maxsize=None)
def oracle_component_mis(letter, n):
    """Maximum independent set of one component graph, with witness nodes,
    by a memoized take-or-skip recursion on the lowest node."""
    adj = [0] * n
    for i, j in component_edges(letter, n):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    memo: dict[int, tuple[int, int]] = {}

    def best(mask: int) -> tuple[int, int]:
        if mask == 0:
            return (0, 0)
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        take_size, take_set = best(mask & ~((1 << v) | adj[v]))
        take = (take_size + 1, take_set | (1 << v))
        skip = best(mask & ~(1 << v))
        out = take if take[0] >= skip[0] else skip
        memo[mask] = out
        return out

    size, chosen = best((1 << n) - 1)
    return size, tuple(i for i in range(n) if chosen >> i & 1)


def oracle_pairs(letter, n, coeffs):
    """Decompose a mod-3 coefficient vector on one component into oriented
    disjoint A_2 pairs (node with coefficient 1, node with coefficient 2),
    or None when it does not split so."""
    adj = [0] * n
    for i, j in component_edges(letter, n):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    support = sum(1 << i for i, c in enumerate(coeffs) if c)
    pairs = set()
    for i, c in enumerate(coeffs):
        if not c:
            continue
        partners = adj[i] & support
        j = partners.bit_length() - 1
        if partners.bit_count() != 1 or adj[j] & support != 1 << i or {c, coeffs[j]} != {1, 2}:
            return None
        pairs.add((i, j) if c == 1 else (j, i))
    return sorted(pairs)


def test_three_torsion_patterns_are_oriented_A2_pairs():
    # the 3-divisible candidates pair each curve of coefficient 1 with its one
    # neighbour of coefficient 2, and the ternary code lengths count pairs:
    # both need every 3-torsion pattern to be c (1, 2) on disjoint A_2 pairs
    found = {}
    for letter, n in COMPONENT_TYPES:
        for q in _torsion_patterns(letter, n, 3):
            coeffs = [(q >> i & 1) + 2 * (q >> n + i & 1) for i in range(n)]
            pairs = oracle_pairs(letter, n, coeffs)
            assert pairs is not None, (letter, n, coeffs)
            found.setdefault((letter, n), []).append(len(pairs))
    assert found == {("A", 3 * k - 1): [k, k] for k in range(1, 7)} | {("E", 6): [2, 2]}


@pytest.mark.parametrize("p", [2, 3])
def test_placed_patterns_keep_their_order_and_decode(p):
    # one component at curve 3 of k + 5 curves: its placed patterns stay in
    # the order of its local ones, and each decodes back to the local
    # coefficients over p, with the oriented A_2 pairs for p = 3
    # (`build_K_T24hat` takes the largest placed pattern as the local one
    # with coefficient 1 on the first curve)
    start = 3
    for letter, k in COMPONENT_TYPES:
        n = k + 5
        labels = tuple(f"c{i}" for i in range(n))
        graph = DynkinGraph(labels, (), ((letter, k, start, start + k),))
        local = _torsion_patterns(letter, k, p)
        (placed,) = _patterns(graph, p)
        assert placed == sorted(placed) and len(placed) == len(local), (letter, k)
        for q, v in zip(local, placed):
            coeffs = [(q >> i & 1) + 2 * (q >> k + i & 1) for i in range(k)]
            cand = _candidate(graph, p, v)
            expected = [Fraction(0)] * n
            expected[start : start + k] = (Fraction(c, p) for c in coeffs)
            assert cand.class_vector == tuple(expected), (letter, k, q)
            if p == 2:
                support = tuple(labels[start + i] for i in range(k) if coeffs[i])
            else:
                pairs = oracle_pairs(letter, k, coeffs)
                support = tuple((labels[start + i], labels[start + j]) for i, j in pairs)
            assert cand.support == support, (letter, k, q)


def oracle_component_autos(letter, n):
    """The diagram automorphisms of one component, by hand: A_n reverses,
    D_4 permutes its three leaves, D_n swaps its two short arms and E_6
    reverses its long path."""
    autos = [tuple(range(n))]
    if letter == "A" and n > 1:
        autos.append(tuple(reversed(range(n))))
    elif letter == "D":
        if n == 4:
            autos += [(0, 1, 3, 2), (2, 1, 0, 3), (3, 1, 2, 0), (2, 1, 3, 0), (3, 1, 0, 2)]
        else:
            swap = list(range(n))
            swap[n - 2], swap[n - 1] = swap[n - 1], swap[n - 2]
            autos.append(tuple(swap))
    elif letter == "E" and n == 6:
        autos.append((4, 3, 2, 1, 0, 5))
    return autos


def test_component_autos_match_hand_table():
    for letter, n in COMPONENT_TYPES:
        autos = _component_autos(letter, n)
        assert len(set(autos)) == len(autos), (letter, n)
        assert set(autos) == set(oracle_component_autos(letter, n)), (letter, n)
    assert len(COMPONENT_TYPES) == 38


def scanned_policies(letter, n):
    """The policy table from a scan of all 2^n node subsets."""
    patterns = _torsion_patterns(letter, n, 2)
    autos = _component_autos(letter, n)
    adj = [0] * n
    for i, j in component_edges(letter, n):
        adj[i] |= 1 << j
        adj[j] |= 1 << i

    def canon(alive):
        return min(
            tuple(sorted(sum(1 << perm[i] for i in range(n) if m >> i & 1) for m in alive))
            for perm in autos
        )

    best = {}
    for s in range(1 << n):
        if any(s & adj[i] for i in range(n) if s >> i & 1):
            continue
        key = canon(tuple(sorted(p for p in patterns if p & ~s == 0)))
        if key not in best or s.bit_count() > best[key][0]:
            best[key] = (s.bit_count(), s)
    out = [
        (
            size,
            tuple(sorted(p for p in patterns if p & ~s == 0)),
            s,
        )
        for size, s in best.values()
    ]
    return tuple(sorted(out, key=lambda t: (-t[0], t[1])))


@pytest.mark.parametrize(
    "letter,n", [t for t in COMPONENT_TYPES if t[1] <= 14], ids=lambda t: str(t)
)
def test_policies_match_subset_scan(letter, n):
    assert _component_policies(letter, n) == scanned_policies(letter, n)


def test_large_component_witnesses_come_from_largest_policy(monkeypatch):
    # a policy below the maximum independent set of a component of rank >= 15
    # leaves at most 4 curves elsewhere, too few for a 12-curve witness
    configs = [c for c in ATLAS if any(n >= 15 for _, n in c.components())]
    full = [_witnesses(c) for c in configs]
    # the options are cached per component type: an empty cache of their
    # own builds them from the patched policies, and goes with the patch
    fresh = lru_cache(maxsize=None)(_type_options.__wrapped__)
    monkeypatch.setattr(divisibility, "_type_options", fresh)

    def largest_only(letter, n):
        if n < 15:
            return _component_policies(letter, n)
        size, chosen = oracle_component_mis(letter, n)
        s = sum(1 << i for i in chosen)
        patterns = _torsion_patterns(letter, n, 2)
        return ((size, tuple(sorted(p for p in patterns if p & ~s == 0)), s),)

    monkeypatch.setattr(divisibility, "_component_policies", largest_only)
    assert [_witnesses(c) for c in configs] == full
    assert len(configs) == 54
    assert {c.render() for c, ws in zip(configs, full) if ws} == {"4A1+A15", "3A1+D16", "4A1+D15"}


def oracle_witnesses(graph):
    """The witness builder `_witnesses` replaced: every policy combination
    built in full over per-node tuples, then dropped below 12 curves; the
    curves come as labels."""
    comps = [(letter, k, tuple(range(start, stop))) for letter, k, start, stop in graph.component_slices]
    groups: dict[tuple[str, int], list[int]] = {}
    for idx, (letter, k, _) in enumerate(comps):
        groups.setdefault((letter, k), []).append(idx)
    per_type = []
    for (letter, k), members in sorted(groups.items()):
        policies = _component_policies(letter, k)
        assignments = list(combinations_with_replacement(range(len(policies)), len(members)))
        per_type.append(((letter, k), members, policies, assignments))

    witnesses = []
    for combo in product(*(range(len(t[3])) for t in per_type)):
        size = 0
        allowed: dict[int, tuple[int, ...]] = {}
        curve_nodes: list[int] = []
        desc_parts = []
        for ((letter, k), members, policies, assignments), pick in zip(per_type, combo):
            counts: dict[int, int] = {}
            for comp_idx, pol_idx in zip(members, assignments[pick]):
                psize, alive_local, mask_local = policies[pol_idx]
                size += psize
                counts[pol_idx] = counts.get(pol_idx, 0) + 1
                _, _, comp_nodes = comps[comp_idx]
                allowed[comp_idx] = tuple(
                    sum(1 << comp_nodes[i] for i in range(k) if m >> i & 1) for m in alive_local
                )
                curve_nodes.extend(comp_nodes[i] for i in range(k) if mask_local >> i & 1)
            desc_parts.append(
                f"{letter}{k}:" + ",".join(f"p{p}x{c}" for p, c in sorted(counts.items()))
            )
        if size < 12:
            continue
        witnesses.append(
            (
                size,
                size - 11,
                tuple(allowed[i] for i in range(len(comps))),
                tuple(graph.nodes[i] for i in sorted(curve_nodes)),
                "; ".join(desc_parts),
            )
        )
    witnesses.sort(key=lambda w: (w[1], w[0], w[4]))
    return witnesses


def mask_labels(graph, mask):
    return tuple(lab for i, lab in enumerate(graph.nodes) if mask >> i & 1)


WITNESS_SAMPLES = {
    "census": TABLE_10 + EXTRA_8,
    "atlas": [str(c) for c in ATLAS_SAMPLE],
    "large": [c.render() for c in ATLAS if any(n >= 15 for _, n, _ in c.terms)],
    "deep": DEEP,
}
# (configurations, witnesses) compared
WITNESS_COUNTS = {"census": (18, 106), "atlas": (300, 378), "large": (54, 3), "deep": (5, 53)}


@pytest.mark.parametrize("sample", sorted(WITNESS_SAMPLES))
def test_witnesses_match_oracle(sample):
    configs = witnesses = 0
    for text in WITNESS_SAMPLES[sample]:
        graph = dynkin(config := parse_config(text))
        got = [
            (w.size, w.required, w.allowed, mask_labels(graph, w.curves), w.description)
            for w in _witnesses(config)
        ]
        assert got == oracle_witnesses(graph), text
        configs += 1
        witnesses += len(got)
    assert (configs, witnesses) == WITNESS_COUNTS[sample]


def factors_divisible_by(disc, p):
    """The number of invariant factors of disc that p divides."""
    return sum(d % p == 0 for d in disc.invariant_factors)


@pytest.mark.parametrize("text", TABLE_10 + EXTRA_8)
def test_length_step_matches_dense_snf(text):
    c = parse_config(text)
    disc = discriminant_group(gram(c))
    step = check_nonexistence(c).steps[0]
    assert step.kind == "LengthRequirement"
    assert step.get("disc_group") == disc.symbol()
    assert step.get("disc_length") == str(disc.length)
    assert step.get("length_2") == str(factors_divisible_by(disc, 2))
    assert step.get("length_3") == str(factors_divisible_by(disc, 3))


def test_disc_factors_match_dense_snf_on_atlas_sample():
    # the length step forms the factors per component type
    for c in ATLAS_SAMPLE:
        disc = discriminant_group(gram(c))
        step = check_nonexistence(c).steps[0]
        assert step.kind == "LengthRequirement", c.render()
        assert step.get("disc_group") == disc.symbol(), c.render()
        assert step.get("disc_length") == str(disc.length), c.render()
        assert step.get("length_2") == str(factors_divisible_by(disc, 2)), c.render()
        assert step.get("length_3") == str(factors_divisible_by(disc, 3)), c.render()


# --- required even sets ------------------------------------------------------


def test_required_even_sets_thresholds():
    assert required_even_sets(parse_config("11A1")) == 0
    assert required_even_sets(parse_config("12A1")) == 1
    assert required_even_sets(parse_config("13A1")) == 2
    assert required_even_sets(parse_config("14A1")) == 3
    # the LengthRequirement step reads this one function for the r - 11 rule
    for config in enumerate_configs(24, 19):
        assert required_even_sets(config) == max(0, max_disjoint_curves(config)[0] - 11), config.render()
    # a sum over component types, never one entry per curve
    huge = 99999999999999999999
    start = time.perf_counter()
    assert required_even_sets(parse_config(f"{huge}A1")) == huge - 11
    assert time.perf_counter() - start < 0.5
    assert required_even_sets(parse_config(f"{huge}A3+D4")) == 2 * huge + 3 - 11


def test_disjoint_curves_match_a_scan_of_every_independent_set():
    # the cached largest set per type, against the scan it replaces
    for config in ATLAS_SAMPLE:
        scan = sum(c * max(map(int.bit_count, _independent_sets(letter, n)))
                   for letter, n, c in config.terms)
        assert divisibility._disjoint_curves(config) == scan, config.render()
        assert required_even_sets(config) == max(0, scan - 11), config.render()


# --- double cover transform ----------------------------------------------------


def test_cover_16A1_full_even_set():
    config = parse_config("16A1")
    full = [c for c in even_set_candidates(config) if len(c.support) == 16][0]
    cover = double_cover_transform(config, full)
    assert cover.rank == 0


def test_cover_16A1_half():
    config = parse_config("16A1")
    half = [c for c in even_set_candidates(config) if len(c.support) == 8][0]
    cover = double_cover_transform(config, half)
    assert cover.render() == "16A1"


def test_cover_A1_6A3():
    config = parse_config("A1+6A3")
    cand = even_set_candidates(config)[0]
    cover = double_cover_transform(config, cand)
    assert cover.render() == "6A1+4A3"
    assert cover.rank == 18


def test_cover_C3():
    config = parse_config("5A1+A3+A7+D4")
    labels = gram(config).basis_labels
    support = [
        lab
        for lab in labels
        if lab in ("A1.1.1", "A1.2.1", "A1.3.1", "A1.4.1", "A3.1.1", "A3.1.3", "D4.1.1", "D4.1.3")
    ]
    cover = double_cover_transform(config, support)
    assert cover.render() == "3A1+A3+2A7"
    assert cover.rank == 20


@pytest.mark.parametrize(
    "text,support_size",
    [("5A1+A3+A7+D4", 8), ("16A1", 8), ("A1+6A3", 8)],
)
def test_cover_euler_bookkeeping(text, support_size):
    config = parse_config(text)
    cand = next(c for c in even_set_candidates(config) if len(c.support) == support_size)
    cover = double_cover_transform(config, cand)
    assert m_value(cover) == 2 * m_value(config) - 3 * support_size


@lru_cache(maxsize=None)
def gram_adjacency(gram):
    """Per curve, the other curves it meets: the Gram's nonzero entries."""
    return [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(gram)]


def global_cover(lat, labels):
    """The double cover built as one intersection form over the whole
    configuration lattice, with the (-1)-curves contracted one at a time, as
    an independent oracle for the component-local closed form.  The form is
    kept sparse: a self-intersection per cover curve and a map from each
    cover curve to the ones it meets, built from the Gram's nonzero
    entries."""
    g, n = lat.gram, lat.rank
    adj = gram_adjacency(g)
    in_branch = [lab in labels for lab in lat.basis_labels]
    branch_hits = [sum(g[i][j] for j in adj[i] if in_branch[j]) for i in range(n)]
    for i in range(n):
        if not in_branch[i]:
            if branch_hits[i] > 2:
                raise NonReducedIntersection(
                    f"curve {lat.basis_labels[i]} meets the branch in {branch_hits[i]} points"
                )
            if branch_hits[i] % 2:
                raise ValueError("candidate is not an even set (odd branch parity)")

    # split-curve clusters: connected non-branch curves away from the branch
    split = [not in_branch[i] and not branch_hits[i] for i in range(n)]
    cluster = [0] * n
    split_adj = [[w for w in adj[v] if split[w]] if split[v] else [] for v in range(n)]
    for idx, comp in enumerate(connected_components(split_adj)):
        for v in comp:
            cluster[v] = idx

    nodes = []  # (curve, kind, sheet)
    for i in range(n):
        if in_branch[i]:
            nodes.append((i, "branch", 0))
        elif branch_hits[i]:
            nodes.append((i, "ram", 0))
        else:
            nodes.append((i, "split", 0))
            nodes.append((i, "split", 1))
    over = [[] for _ in range(n)]  # curve -> its cover curves
    for a, (i, _, _) in enumerate(nodes):
        over[i].append(a)
    self_int = [{"branch": -1, "ram": -4, "split": -2}[kind] for _, kind, _ in nodes]
    meet = [{} for _ in nodes]
    for ia in range(n):
        for ib in adj[ia]:
            inter = g[ia][ib]
            for a in over[ia]:
                for b in over[ib]:
                    _, ka, ca = nodes[a]
                    _, kb, cb = nodes[b]
                    if {ka, kb} in ({"branch"}, {"branch", "split"}):
                        val = 0
                    elif ka == kb == "ram":
                        val = 2 * inter
                    elif ka == kb == "split":
                        val = inter if (cluster[ia] == cluster[ib] and ca == cb) else 0
                    else:  # branch-ram or ram-split
                        val = inter
                    if val:
                        meet[a][b] = val

    # contract (-1)-curves one at a time until none remain; a contraction
    # changes only the curves that met the one contracted
    alive = set(range(len(nodes)))
    todo = [a for a, x in enumerate(self_int) if x == -1]
    while todo:
        e = todo.pop()
        if e not in alive or self_int[e] != -1:
            continue
        alive.discard(e)
        row = meet[e]
        for i in row:
            del meet[i][e]
        for i, x in row.items():
            self_int[i] += x * x
            for j, y in row.items():
                if j != i:
                    meet[i][j] = meet[i].get(j, 0) + x * y
        todo += row
    keep = sorted(alive)
    for i in keep:
        if self_int[i] != -2:
            raise NotADEAfterContraction(f"contracted curve has self-intersection {self_int[i]}")
    index = {i: a for a, i in enumerate(keep)}
    edges = []
    for i in keep:
        for j in sorted(j for j in meet[i] if j > i):
            if meet[i][j] != 1:
                raise NotADEAfterContraction(f"contracted intersection number {meet[i][j]}")
            edges.append((index[i], index[j]))
    try:
        return classify_dynkin(len(keep), edges)
    except ValueError as exc:
        raise NotADEAfterContraction(str(exc)) from exc


def parity_valid_masks(letter, n):
    """Every curve set of one component that each other curve meets 0 or 2
    times (its curves may meet each other)."""
    edges = component_edges(letter, n)
    for mask in range(1 << n):
        hits = [0] * n
        for i, j in edges:
            hits[i] += mask >> j & 1
            hits[j] += mask >> i & 1
        if all(mask >> i & 1 or hits[i] in (0, 2) for i in range(n)):
            yield mask


COMPONENTS_TO_14 = (
    [("A", n) for n in range(1, 15)]
    + [("D", n) for n in range(4, 15)]
    + [("E", n) for n in (6, 7, 8)]
)


def test_local_cover_matches_global_oracle():
    cases = 0
    for letter, n in COMPONENTS_TO_14:
        lat = gram(parse_config(f"{letter}{n}"))
        for mask in parity_valid_masks(letter, n):
            branch = {lat.basis_labels[i] for i in range(n) if mask >> i & 1}
            assert _local_cover(letter, n, mask) == global_cover(lat, branch), (
                letter, n, mask,
            )
            cases += 1
    assert cases == 1899


def test_ramified_curves_are_never_adjacent():
    # `_local_cover` has no case for two adjacent ramified curves (each
    # meeting two branch curves): on every independent set of every
    # component type of rank <= 19 that double_cover_transform accepts
    # (every other curve meets 0 or 2 of it), no ramified curve meets another.
    # Nor for an intersection number above 1 after contraction: two curves
    # off the set meet once if adjacent, plus once per branch curve both
    # meet; on every independent set, two curves meeting one branch curve
    # are not adjacent and meet no second one
    sets = accepted = ramified = 0
    for letter, n in COMPONENT_TYPES:
        adj = [0] * n
        for i, j in component_edges(letter, n):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        # the pairs of curves that meet branch curve b
        through = [list(combinations([i for i in range(n) if adj[b] >> i & 1], 2)) for b in range(n)]
        for s in _independent_sets(letter, n):
            sets += 1
            for b in range(n):
                if s >> b & 1:
                    for i, j in through[b]:
                        assert (adj[i] >> j & 1) + (adj[i] & adj[j] & s).bit_count() == 1, (letter, n, s)
            if all(s >> i & 1 or (adj[i] & s).bit_count() in (0, 2) for i in range(n)):
                ram = sum(1 << i for i in range(n) if not s >> i & 1 and adj[i] & s)
                assert not any(ram >> i & 1 and adj[i] & ram for i in range(n)), (letter, n, s)
                accepted += 1
                ramified += ram.bit_count()
    assert (len(COMPONENT_TYPES), sets, accepted, ramified) == (38, 59997, 81, 135)


@pytest.mark.parametrize("text", TABLE_10 + EXTRA_8)
def test_cover_transform_matches_global_oracle_on_census(text):
    config = parse_config(text)
    lat = gram(config)
    for cand in even_set_candidates(config):
        assert double_cover_transform(config, cand) == global_cover(lat, set(cand.support))


def test_cover_non_reduced_intersection():
    config = parse_config("A1+D4+A3")
    with pytest.raises(NonReducedIntersection) as err:
        double_cover_transform(config, ["D4.1.1", "D4.1.3", "D4.1.4"])
    assert str(err.value) == "curve D4.1.2 meets the branch in 3 points"


def test_cover_odd_branch_parity():
    with pytest.raises(ValueError) as err:
        double_cover_transform(parse_config("A1+D4+A3"), ["A3.1.1"])
    assert str(err.value) == "candidate is not an even set (odd branch parity)"


def test_cover_meeting_branch_curves():
    # the two curves of an A_2 meet, so they are no even set
    with pytest.raises(ValueError) as err:
        double_cover_transform(parse_config("A2"), ["A2.1.1", "A2.1.2"])
    assert str(err.value) == "candidate is not an even set (branch curves A2.1.1 and A2.1.2 meet)"


def test_cover_unknown_label():
    with pytest.raises(ValueError) as err:
        double_cover_transform(parse_config("A1+D4+A3"), ["A3.1.1", "nope", "A3.1.3"])
    assert str(err.value) == "unknown curve label 'nope'"


# --- the checker ------------------------------------------------------------


@pytest.mark.parametrize("text", TABLE_10)
def test_table_configs_unobstructed(text):
    report = check_nonexistence(parse_config(text))
    assert report.verdict == NO_OBSTRUCTION


def deletion_graphs(config):
    """The graph (node count, edges) left by deleting each curve in turn."""
    graph = dynkin(config)
    n = len(graph.nodes)
    for gone in range(n):
        index = {i: j for j, i in enumerate(i for i in range(n) if i != gone)}
        yield n - 1, [(index[i], index[j]) for i, j in graph.edges if gone not in (i, j)]


def one_curve_deletions(config):
    for n, edges in deletion_graphs(config):
        yield classify_dynkin(n, edges)


@lru_cache(maxsize=None)
def torus_closure():
    """The ten torus quotients and everything reached from them by deleting
    curves one at a time."""
    closure = {parse_config(t) for t in TABLE_10}
    todo = list(closure)
    while todo:
        for smaller in one_curve_deletions(todo.pop()):
            if smaller.rank and smaller not in closure:
                closure.add(smaller)
                todo.append(smaller)
    return sorted(closure, key=ADEConfig.sort_key)


def test_torus_configs_close_downward_unobstructed():
    # a configuration on a K3 leaves one on the same K3 when a curve is
    # deleted, so nothing below the ten torus quotients may be Excluded
    closure = torus_closure()
    assert len(closure) == 829
    assert [c.render() for c in closure if check_nonexistence(c).verdict != NO_OBSTRUCTION] == []


def oracle_classify_dynkin(n_nodes, edges):
    """ADE recognition by walking the arms of a tree from its branch node."""
    adj: list[set[int]] = [set() for _ in range(n_nodes)]
    for i, j in edges:
        if i == j:
            raise ValueError("self loop")
        adj[i].add(j)
        adj[j].add(i)
    counts: Counter[tuple[str, int]] = Counter()
    for comp in connected_components(adj):
        n = len(comp)
        if sum(1 for i, j in edges if i in comp and j in comp) != n - 1:
            raise ValueError("component is not a tree")
        branch = [v for v in comp if len(adj[v]) >= 3]
        if not branch:
            counts[("A", n)] += 1
            continue
        if len(branch) > 1 or len(adj[branch[0]]) > 3:
            raise ValueError("not an ADE diagram")
        arms = []
        for start in adj[branch[0]]:
            length, prev, cur = 1, branch[0], start
            while nxt := [w for w in adj[cur] if w != prev]:
                prev, cur = cur, nxt[0]
                length += 1
            arms.append(length)
        arms.sort()
        if arms[:2] == [1, 1]:
            counts[("D", n)] += 1
        elif arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
            counts[("E", n)] += 1
        else:
            raise ValueError("not an ADE diagram")
    return ADEConfig([(*t, c) for t, c in counts.items()])


def random_graphs(rng, count):
    """Seeded trees, forests, cycles and dense graphs on up to 20 nodes."""
    for k in range(count):
        n = rng.randint(1, 20)
        kind = k % 4
        if kind == 0:  # a tree: each node joins an earlier one
            edges = [(rng.randrange(i), i) for i in range(1, n)]
        elif kind == 1:  # a forest: a tree with edges dropped
            edges = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.8]
        elif kind == 2:  # a cycle, with a tree hanging off it
            c = min(n, rng.randint(3, 8))
            edges = [(i, (i + 1) % c) for i in range(c)] if c >= 3 else []
            edges += [(rng.randrange(i), i) for i in range(c, n)]
        else:  # dense
            n = rng.randint(1, 8)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        perm = list(range(n))
        rng.shuffle(perm)
        yield n, [(perm[i], perm[j]) if rng.random() < 0.5 else (perm[j], perm[i]) for i, j in edges]


def recognized(classify, n, edges):
    try:
        return classify(n, edges)
    except ValueError:
        return ValueError


def test_classify_dynkin_matches_arm_walk():
    rng = random.Random(20261019)
    base = [g for c in torus_closure() for g in deletion_graphs(c)]
    base += random_graphs(rng, 3000)
    graphs = list(base)
    for n, edges in rng.sample(base, 2000):
        if edges:  # a repeated edge, either way round
            i, j = rng.choice(edges)
            graphs.append((n, edges + [rng.choice([(i, j), (j, i)])]))
        if n:
            v = rng.randrange(n)
            graphs.append((n, edges + [(v, v)]))
    verdicts = Counter()
    for n, edges in graphs:
        want = recognized(oracle_classify_dynkin, n, edges)
        assert recognized(classify_dynkin, n, edges) == want, (n, edges)
        verdicts[want is ValueError] += 1
    assert verdicts[True] > 2000 and verdicts[False] > 10000, verdicts


def test_atlas_sample_verdicts_monotone_under_deletion():
    # a configuration on a K3 leaves one on the same K3 when a curve is
    # deleted, so no one-curve deletion of an unobstructed one is Excluded
    verdicts = {c: check_nonexistence(c).verdict for c in ATLAS_SAMPLE}
    assert Counter(verdicts.values()) == {NO_OBSTRUCTION: 240, EXCLUDED: 60}
    pairs = {
        (c, smaller)
        for c, v in verdicts.items()
        if v == NO_OBSTRUCTION
        for smaller in one_curve_deletions(c)
    }
    assert len(pairs) == 2141
    deletions = {smaller for _, smaller in pairs}
    assert [c.render() for c in deletions if check_nonexistence(c).verdict != NO_OBSTRUCTION] == []


@pytest.mark.parametrize("text", EXTRA_8)
def test_extra_configs_excluded(text):
    report = check_nonexistence(parse_config(text))
    assert report.verdict == EXCLUDED
    assert len(report.steps) >= 2  # length summary plus re-checkable evidence


def test_C1_deficit_on_13_curves():
    report = check_nonexistence(parse_config("11A1+2A3"))
    deficits = [s for s in report.steps if s.kind == "IndependenceDeficit"]
    assert deficits
    assert any(
        int(s.get("required")) == 2 and int(s.get("available")) == 1 for s in deficits
    )


def test_C3_report_contains_rank20_cover_with_2A7():
    report = check_nonexistence(parse_config("5A1+A3+A7+D4"))
    covers = [s for s in report.steps if s.kind == "CoverRankExceeds"]
    assert covers
    assert any(
        "2A7" in s.get("cover_config") and int(s.get("cover_rank")) == 20
        for s in covers
    )


def test_C8_excluded_by_missing_3_divisible():
    report = check_nonexistence(parse_config("A1+4A2+2D5"))
    assert report.verdict == EXCLUDED
    global_steps = [
        s
        for s in report.steps
        if s.kind == "IndependenceDeficit" and s.get("prime") == "3"
    ]
    assert global_steps
    assert int(global_steps[0].get("available")) == 0


def test_report_json_shape():
    report = check_nonexistence(parse_config("16A1"))
    d = report.to_json_dict()
    assert d["config"] == "16A1"
    assert d["verdict"] == NO_OBSTRUCTION
    assert all(isinstance(v, str) for step in d["steps"] for v in step.values())


def test_empty_configuration_has_no_obstruction():
    # no component type: one empty choice of options, and no witness
    report = check_nonexistence(ADEConfig())
    (step,) = report.steps
    assert (report.verdict, step.get("witness_sets")) == (NO_OBSTRUCTION, "0")


# --- Enriques --------------------------------------------------------------


def test_enriques_census():
    got = [c.render() for c in enriques_census()]
    assert got == ["8A1", "3A1+2A3"]


def test_census_doublings_have_m_24_and_rank_at_most_18():
    # enriques_census checks neither: m is additive, and rank <= 9 doubles
    # to rank <= 18, under the K3 limit of 19
    doubled = [2 * c for c in enumerate_configs(Fraction(12), 9)]
    assert [(d.render(), m_value(d), d.rank) for d in doubled] == [
        ("16A1", 24, 16), ("6A1+4A3", 24, 18)]
