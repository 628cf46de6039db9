import operator
import random
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, combinations_with_replacement, product

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
    _component_policies,
    _Context,
    _cover_exceeds,
    _cover_pieces,
    _enumerate_candidates,
    _find_code,
    _local_cover,
    _torsion_patterns,
    _witnesses,
)
from kummerlat.ade import ADEConfig, classify_dynkin, component_edges, dynkin
from kummerlat.lattice import connected_components, discriminant_group, group_symbol

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
        assert lat.in_dual(cand.class_vector)


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
        assert lat.in_dual(cand.class_vector)


@pytest.mark.parametrize("text", ["9A2", "4A2+2A3+A5", "6A2+A5"])
def test_three_divisible_candidates_closed_under_negation(text):
    # -x is again a candidate: the code search relies on this to skip
    # checking the multiples of a new basis vector
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
    # plain mod-p arithmetic, independently of the packed addition
    ctx = _Context(parse_config(text))
    cls = ctx.classes[prime]
    cands = _enumerate_candidates(cls, cls.patterns)
    basis, found = _find_code(cls, cands, k)
    assert basis is not None and found == k
    assert_spans_only_candidates(ctx.n, prime, basis, cands)


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
    assert words <= {coeffs(c) for c in cands}


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
                out.append(ADEConfig.from_counts(counts))
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


def componentwise_admissible(ctx, p, v):
    """An allowed support size, and on every component nothing or one of the
    component's p-torsion patterns."""
    cls = ctx.classes[p]
    if v.bit_count() not in cls.sizes:
        return False
    for (_, _, nodes), pats in zip(ctx.graph.component_nodes(), cls.patterns):
        cmask = sum(1 << ((c - 1) * ctx.n + node) for c in range(1, p) for node in nodes)
        if v & cmask and v & cmask not in pats:
            return False
    return True


def code_searches(ctx):
    """(prime, allowed patterns, candidates, required dimension) of every
    witness and global search of a check; a global search that no length
    excess forces requires dimension 0."""
    length = check_nonexistence(ctx.config).steps[0]
    even = ctx.classes[2]
    for w in _witnesses(ctx):
        yield 2, w.allowed, _enumerate_candidates(even, [list(a) for a in w.allowed]), w.required
    for p in (2, 3):
        cls = ctx.classes[p]
        k = int(length.get(f"required_glue_{p}"))
        yield p, cls.patterns, _enumerate_candidates(cls, cls.patterns), k


@pytest.mark.parametrize("sample", ["census", "atlas"])
def test_candidate_membership_is_componentwise_admissibility(sample):
    # every sum of up to three candidates, drawn from at most 24 of each search
    texts = TABLE_10 + EXTRA_8 if sample == "census" else ATLAS_SAMPLE[:40]
    rng = random.Random(7)
    verdicts = Counter()
    for text in texts:
        ctx = _Context(parse_config(str(text)))
        for p, _, cands, _ in code_searches(ctx):
            add = ctx.classes[p].add
            members = set(cands)
            chosen = rng.sample(cands, min(24, len(cands)))
            for r in (1, 2, 3):
                for combo in combinations_with_replacement(chosen, r):
                    v = 0
                    for u in combo:
                        v = add(v, u)
                    ok = componentwise_admissible(ctx, p, v)
                    assert (v in members) == ok, (str(text), p, combo)
                    verdicts[ok] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


# --- the code search against the search it replaced --------------------------


class SearchBudget(Exception):
    """The oracle search passed its budget of candidate tests."""


# Fewest points carrying a weight-{8,16} binary code of dimension d
PURE_A1_THRESHOLD = {1: 8, 2: 12, 3: 14, 4: 15, 5: 16}


def oracle_search(cls, allowed, cands, k, budget=None):
    """The search `_find_code` replaced, as (found, largest dimension
    reached).  When every allowed pattern is one curve the dimension is
    capped from PURE_A1_THRESHOLD without a search; otherwise every
    increasing basis drawn from `cands` is tried, so each code is visited
    once per such basis.  Raises SearchBudget once more than `budget`
    candidates have been tested."""
    usable = [p for pats in allowed for p in pats]
    if all(p.bit_count() == 1 for p in usable):
        cap = max((d for d, t in PURE_A1_THRESHOLD.items() if t <= len(usable)), default=0)
        if k > cap:
            return False, cap
    add, multiples = cls.add, cls.multiples
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
            rest = [u for u in compatible[idx + 1 :] if all(add(u, x) in admissible for x in new)]
            if extend(rest, span + new, depth + 1):
                return True
        return False

    found = extend(cands, [0], 0)
    return found, (k if found else best_seen)


# candidate tests after which the oracle gives up; a search past it is
# skipped, since some witness searches the checker never reaches run for
# minutes in either search
ORACLE_BUDGET = 200_000
# (searches compared, searches skipped at ORACLE_BUDGET)
ORACLE_COUNTS = {"census": (119, 6), "atlas": (161, 5), "atlas_4A2": (96, 1)}


def oracle_sample(sample):
    if sample == "census":
        return TABLE_10 + EXTRA_8
    if sample == "atlas":
        return ATLAS_SAMPLE[:100]
    # four or more A2 components: most F_3 searches, up to dimension 3
    rich = [c for c in ATLAS if ("A", 2) in {(t, n) for t, n, k in c.terms() if k >= 4}]
    return random.Random(3).sample(rich, 120)


@pytest.mark.parametrize("sample", sorted(ORACLE_COUNTS))
def test_find_code_matches_oracle(sample):
    # every witness and global search, on (found, largest dimension reached)
    compared = skipped = 0
    for text in oracle_sample(sample):
        ctx = _Context(parse_config(str(text)))
        for p, allowed, cands, k in code_searches(ctx):
            if not k:
                continue
            cls = ctx.classes[p]
            try:
                expected = oracle_search(cls, allowed, cands, k, ORACLE_BUDGET)
            except SearchBudget:
                skipped += 1
                continue
            basis, dim = _find_code(cls, cands, k)
            assert (basis is not None, dim) == expected, (str(text), p, k)
            if basis is not None:
                assert_spans_only_candidates(ctx.n, p, basis, cands)
            compared += 1
    assert (compared, skipped) == ORACLE_COUNTS[sample]


@pytest.mark.parametrize("text", ["2D4+D5+D6", "3D4+D7", "7A1+A3+2D4"])
def test_code_bound_decides_mixed_witness(text):
    # one witness's candidates cover too few curves for a weight-{8,16} code
    # of the required dimension k, so the search stops at k - 1, where the
    # exhaustive oracle ends too
    ctx = _Context(parse_config(text))
    even = ctx.classes[2]
    short = []
    for w in _witnesses(ctx):
        cands = _enumerate_candidates(even, [list(a) for a in w.allowed])
        if cands and reduce(operator.or_, cands).bit_count() < PURE_A1_THRESHOLD[w.required]:
            short.append((w, cands))
    ((w, cands),) = short
    k = w.required
    assert _find_code(even, cands, k) == (None, k - 1)
    assert oracle_search(even, w.allowed, cands, k) == (False, k - 1)


@pytest.mark.parametrize("text", ["5A1+A3+A7+D4", "6A1+A3+D4+D6", "8A2+A3"])
def test_search_visits_each_code_once(text):
    # a search for dimension 3 that is not cut short by the length bound and
    # ends at 2 expands one node per admissible code of dimension 1 or 2:
    # each line, and each plane, counted from its C(p + 1, 2) pairs of lines
    ctx = _Context(parse_config(text))
    checked = 0
    for p, _, cands, _ in code_searches(ctx):
        cls = ctx.classes[p]
        if not cands or p == 2 and reduce(operator.or_, cands).bit_count() < 14:
            continue
        nodes = 0
        multiples = cls.multiples

        def counted(v):  # called once per node the search expands
            nonlocal nodes
            nodes += 1
            return multiples(v)

        cls.multiples = counted
        found = _find_code(cls, cands, 3)
        cls.multiples = multiples
        if found != (None, 2):
            continue
        members = set(cands)
        lines = {min(multiples(v)) for v in cands}
        pairs = sum(
            1
            for a, b in combinations(sorted(lines), 2)
            if all(cls.add(m, b) in members for m in multiples(a))
        )
        assert pairs % (p * (p + 1) // 2) == 0
        assert nodes == len(lines) + pairs // (p * (p + 1) // 2), (text, p)
        checked += 1
    assert checked


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


def oracle_enumerate(cls, allowed):
    """The recursive walk `_enumerate_candidates` replaced: every choice of
    at most one allowed pattern per component, cut when the support is too
    large or can no longer reach the smallest allowed size."""
    lo, hi = min(cls.sizes), max(cls.sizes)
    suffix = [0] * (len(allowed) + 1)
    for i in range(len(allowed) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + max((p.bit_count() for p in allowed[i]), default=0)
    out = []

    def walk(i, v, size):
        if size > hi:
            return
        if i == len(allowed):
            if size in cls.sizes:
                out.append(v)
            return
        if size + suffix[i] < lo:
            return
        walk(i + 1, v, size)
        for p in allowed[i]:
            walk(i + 1, v | p, size + p.bit_count())

    walk(0, 0, 0)
    return sorted(out)


def oracle_cover_scan(ctx, masks):
    """The scan `_cover_exceeds` replaced: None if some
    candidate has an ADE cover of rank <= 19, else the first candidate with
    its cover (None when that cover is not ADE)."""
    first_bad = None
    for mask in masks:
        pieces = _cover_pieces(ctx.graph, mask)
        ade = not any(isinstance(p, str) for p in pieces)
        if ade and sum(p.rank for p in pieces) <= K3_RANK_LIMIT:
            return None
        if first_bad is None:
            first_bad = (mask, sum(pieces, ADEConfig()) if ade else None)
    return first_bad


# (searches compared, candidates listed) over every witness and global search
ENUMERATION_COUNTS = {"census": (142, 55454), "atlas": (978, 102481), "deep": (108, 666158)}


@pytest.mark.parametrize("sample", sorted(DP_SAMPLES))
def test_enumeration_dp_matches_walk(sample):
    searches = listed = 0
    for text in DP_SAMPLES[sample]:
        ctx = _Context(parse_config(text))
        even = ctx.classes[2]
        lists = [(even, [list(a) for a in w.allowed]) for w in _witnesses(ctx)]
        lists += [(ctx.classes[p], ctx.classes[p].patterns) for p in (2, 3)]
        for cls, allowed in lists:
            cands = _enumerate_candidates(cls, allowed)
            assert cands == oracle_enumerate(cls, allowed), (text, cls.p)
            searches += 1
            listed += len(cands)
    assert (searches, listed) == ENUMERATION_COUNTS[sample]


# (witnesses compared, CoverRankExceeds steps, witnesses without candidates)
COVER_COUNTS = {"census": (106, 8, 6), "atlas": (378, 109, 53), "deep": (86, 36, 0)}


@pytest.mark.parametrize("sample", sorted(DP_SAMPLES))
def test_cover_dp_matches_scan(sample):
    # the step, its example mask and its cover, for every witness; the least
    # ADE cover rank is exactly 19 on some census and atlas witnesses
    compared = fired = empty = 0
    for text in DP_SAMPLES[sample]:
        ctx = _Context(parse_config(text))
        for w in _witnesses(ctx):
            cands = _enumerate_candidates(ctx.classes[2], [list(a) for a in w.allowed])
            got = _cover_exceeds(ctx, w.allowed, cands)
            assert got == oracle_cover_scan(ctx, cands), (text, w.description)
            compared += 1
            fired += got is not None
            empty += not cands
    assert (compared, fired, empty) == COVER_COUNTS[sample]


def test_cover_dp_reports_non_ade_example():
    # no 2-torsion pattern of rank <= 19 has a non-ADE local cover, so the
    # witness is made up: the centre of D4 alone branches into a triangle of
    # leaves, and the one candidate, 5 curves of A1 and 3 centres, fires
    # with a non-ADE example
    ctx = _Context(parse_config("5A1+3D4"))
    allowed = [[1 << (start + (k > 1))] for _, k, start, _ in ctx.graph.component_slices]
    cands = _enumerate_candidates(ctx.classes[2], allowed)
    assert len(cands) == 1
    assert isinstance(_local_cover("D", 4, 0b10), str)
    assert _cover_exceeds(ctx, allowed, cands) == (cands[0], None)
    assert oracle_cover_scan(ctx, cands) == (cands[0], None)


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


def scanned_policies(letter, n):
    """The policy table from a scan of all 2^n node subsets."""
    patterns = [sum(c << i for i, c in enumerate(co)) for co in _torsion_patterns(letter, n, 2)]
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
            tuple(i for i in range(n) if s >> i & 1),
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
    full = [_witnesses(_Context(c)) for c in configs]

    def largest_only(letter, n):
        if n < 15:
            return _component_policies(letter, n)
        size, chosen = oracle_component_mis(letter, n)
        s = sum(1 << i for i in chosen)
        patterns = [sum(c << i for i, c in enumerate(co)) for co in _torsion_patterns(letter, n, 2)]
        return ((size, tuple(sorted(p for p in patterns if p & ~s == 0)), chosen),)

    monkeypatch.setattr(divisibility, "_component_policies", largest_only)
    assert [_witnesses(_Context(c)) for c in configs] == full
    assert len(configs) == 54
    assert {c.render() for c, ws in zip(configs, full) if ws} == {"4A1+A15", "3A1+D16", "4A1+D15"}


def oracle_witnesses(ctx):
    """The witness builder `_witnesses` replaced: every policy combination
    built in full over per-node tuples, then dropped below 12 curves; the
    curves come as labels."""
    comps = ctx.graph.component_nodes()
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
                psize, alive_local, nodes_local = policies[pol_idx]
                size += psize
                counts[pol_idx] = counts.get(pol_idx, 0) + 1
                _, _, comp_nodes = comps[comp_idx]
                allowed[comp_idx] = tuple(
                    sum(1 << comp_nodes[i] for i in range(k) if m >> i & 1) for m in alive_local
                )
                curve_nodes.extend(comp_nodes[i] for i in nodes_local)
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
                tuple(ctx.labels[i] for i in sorted(curve_nodes)),
                "; ".join(desc_parts),
            )
        )
    witnesses.sort(key=lambda w: (w[1], w[0], w[4]))
    return witnesses


WITNESS_SAMPLES = {
    "census": TABLE_10 + EXTRA_8,
    "atlas": [str(c) for c in ATLAS_SAMPLE],
    "large": [c.render() for c in ATLAS if any(n >= 15 for _, n, _ in c.terms())],
    "deep": DEEP,
}
# (configurations, witnesses) compared
WITNESS_COUNTS = {"census": (18, 106), "atlas": (300, 378), "large": (54, 3), "deep": (5, 53)}


@pytest.mark.parametrize("sample", sorted(WITNESS_SAMPLES))
def test_witnesses_match_oracle(sample):
    configs = witnesses = 0
    for text in WITNESS_SAMPLES[sample]:
        ctx = _Context(parse_config(text))
        got = [
            (w.size, w.required, w.allowed, ctx.mask_labels(w.curves), w.description)
            for w in _witnesses(ctx)
        ]
        assert got == oracle_witnesses(ctx), text
        configs += 1
        witnesses += len(got)
    assert (configs, witnesses) == WITNESS_COUNTS[sample]


@pytest.mark.parametrize("text", TABLE_10 + EXTRA_8)
def test_length_step_matches_dense_snf(text):
    c = parse_config(text)
    disc = discriminant_group(gram(c))
    step = check_nonexistence(c).steps[0]
    assert step.kind == "LengthRequirement"
    assert step.get("disc_group") == disc.symbol()
    assert step.get("disc_length") == str(disc.length)
    assert step.get("length_2") == str(disc.primary_length(2))
    assert step.get("length_3") == str(disc.primary_length(3))


def test_disc_factors_match_dense_snf_on_atlas_sample():
    for c in ATLAS_SAMPLE:
        disc = discriminant_group(gram(c))
        factors = _Context(c).disc_factors
        assert factors == disc.invariant_factors, c.render()
        assert group_symbol(factors) == disc.symbol()


# --- required even sets ------------------------------------------------------


def test_required_even_sets_thresholds():
    assert required_even_sets(parse_config("11A1")) == 0
    assert required_even_sets(parse_config("12A1")) == 1
    assert required_even_sets(parse_config("13A1")) == 2
    assert required_even_sets(parse_config("14A1")) == 3
    # a sum over component types, never one entry per curve
    huge = 99999999999999999999
    assert required_even_sets(parse_config(f"{huge}A1")) == huge - 11
    assert required_even_sets(parse_config(f"{huge}A3+D4")) == 2 * huge + 3 - 11


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


def global_cover(lat, labels):
    """The double cover built as one matrix over the whole configuration
    lattice, with the (-1)-curves contracted one at a time, as an
    independent oracle for the component-local closed form."""
    g, n = lat.gram, lat.rank
    in_branch = [lab in labels for lab in lat.basis_labels]
    branch_hits = [
        sum(g[i][j] for j in range(n) if in_branch[j] and j != i) for i in range(n)
    ]
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
    adj = [
        [w for w in range(n) if split[w] and g[v][w] and w != v] if split[v] else []
        for v in range(n)
    ]
    cluster = [0] * n
    for idx, comp in enumerate(connected_components(adj)):
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
    size = len(nodes)
    cov = [[0] * size for _ in range(size)]
    for a, (ia, ka, ca) in enumerate(nodes):
        cov[a][a] = {"branch": -1, "ram": -4, "split": -2}[ka]
        for b in range(a + 1, size):
            ib, kb, cb = nodes[b]
            inter = g[ia][ib] if ia != ib else 0
            if not inter:
                continue
            if {ka, kb} in ({"branch"}, {"branch", "split"}):
                val = 0
            elif ka == kb == "ram":
                val = 2 * inter
            elif ka == kb == "split":
                val = inter if (cluster[ia] == cluster[ib] and ca == cb) else 0
            else:  # branch-ram or ram-split
                val = inter
            cov[a][b] = cov[b][a] = val

    # contract (-1)-curves one at a time until none remain
    alive = set(range(size))
    while True:
        e = next((i for i in sorted(alive) if cov[i][i] == -1), None)
        if e is None:
            break
        alive.discard(e)
        meets = [i for i in alive if cov[i][e]]
        for i in meets:
            for j in meets:
                cov[i][j] += cov[i][e] * cov[j][e]
    keep = sorted(alive)
    for i in keep:
        if cov[i][i] != -2:
            raise NotADEAfterContraction(f"contracted curve has self-intersection {cov[i][i]}")
    for a, i in enumerate(keep):
        for j in keep[a + 1 :]:
            if cov[i][j] not in (0, 1):
                raise NotADEAfterContraction(f"contracted intersection number {cov[i][j]}")
    edges = [
        (a, b)
        for a, i in enumerate(keep)
        for b, j in enumerate(keep)
        if a < b and cov[i][j] == 1
    ]
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
    return ADEConfig.from_counts(counts)


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


# --- Enriques --------------------------------------------------------------


def test_enriques_census():
    got = [c.render() for c in enriques_census()]
    assert got == ["8A1", "3A1+2A3"]
