"""Even sets, 3-divisible sets and the configuration nonexistence checker.

A half-sum (1/2) sum_{C in S} C of configuration curves lies in the dual
lattice exactly when S consists of pairwise disjoint curves and every curve
outside S meets an even number of curves of S; on a K3 surface the support
of such a 2-divisible class has 8 or 16 curves.  Likewise a 3-divisible
class (1/3) sum (C^1 + 2 C^2) is supported on 6 or 9 pairwise disjoint A_2
sub-configurations.  Candidates are computed per component from the torsion
of the component discriminant groups, so obstructions like "an A_2 inside
an A_3 is never 3-divisible" fall out of the integrality test itself.

The nonexistence checker first excludes rank > 19 (the exceptional curves
of a K3 span a negative-definite lattice) and then combines three
mechanisms:

* counting: any set R of r >= 12 pairwise disjoint curves forces an
  F_2-space of divisible classes supported on R of dimension r - 11, all of
  whose nonzero elements must be admissible candidates; the witness sets R
  are built once per component type and joined across types;
* global length: the discriminant group of a rank-rho configuration inside
  the rank-22 unimodular K3 lattice must reach length <= min(rho, 22 - rho)
  after gluing, counted prime by prime (order-2 glue comes from even sets,
  order-3 glue from 3-divisible sets);
* double covers: a forced even set produces a double cover whose curve
  configuration must again fit on a K3 (rank <= 19).  The cover is a sum of
  per-component pieces, each contracted in one step (on an ADE tree the
  branch preimages are disjoint (-1)-curves), so the least cover rank over
  the candidates of a witness is a knapsack over components.

No check lists candidates.  A join of cached per-type tables {support
size: (count, least cover rank)} counts a witness's (or global step's)
candidates and finds their least cover rank, and a walk down the
components gives the least candidate as an example.  Every witness search
of dimension 2 or more and every global step, p = 2 or 3, is one match: up
to a change of basis the codes are repeated simplex and first-order affine
codes, and a code exists exactly when one splits among the components.
"""

from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, chain, combinations, combinations_with_replacement, product
from math import inf

from ._record import Record
from .ade import (
    K3_RANK_LIMIT,
    _MAX_DIGITS,
    _TOO_LONG,
    ADEConfig,
    DynkinGraph,
    _independent_sets,
    _largest_independent_set,
    _neighbours,
    classify_dynkin,
    component_edges,
    component_gram,
    dynkin,
    enumerate_configs,
    invariant_factors_from_orders,
)
from .lattice import GramLattice, discriminant_group, group_symbol, length_bound

K3_AMBIENT_RANK = 22
EVEN_SUPPORT_SIZES = (8, 16)
THREE_SUPPORT_SIZES = (6, 9)
_SIZES = {2: EVEN_SUPPORT_SIZES, 3: tuple(2 * s for s in THREE_SUPPORT_SIZES)}

EXCLUDED = "Excluded"
NO_OBSTRUCTION = "NoObstructionFound"


class NotADEAfterContraction(ValueError):
    """The contracted double-cover configuration is not a sum of ADE graphs."""


class NonReducedIntersection(ValueError):
    """A curve meets the branch locus in more than two points."""


class DivisibleCandidate(Record):
    """Candidate p-divisible class on a configuration.

    For prime 2 the support is a tuple of curve labels; for prime 3 it is a
    tuple of oriented pairs (label with coefficient 1, label with
    coefficient 2).  The class vector is the rational coordinate vector of
    the class in the configuration basis.
    """

    prime: int
    support: tuple
    class_vector: tuple[Fraction, ...]


class ObstructionStep(Record):
    kind: str
    data: tuple[tuple[str, str], ...]

    def get(self, key: str) -> str | None:
        return dict(self.data).get(key)

    def to_dict(self) -> dict:
        return {"kind": self.kind, **dict(self.data)}


class ObstructionReport(Record):
    config: ADEConfig
    verdict: str
    steps: tuple[ObstructionStep, ...]

    @property
    def excluded(self) -> bool:
        return self.verdict == EXCLUDED

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.render(),
            "verdict": self.verdict,
            "steps": [s.to_dict() for s in self.steps],
        }


def _step(kind: str, **data) -> ObstructionStep:
    return ObstructionStep(kind, tuple((k, str(v)) for k, v in data.items()))


# ---------------------------------------------------------------------------
# per-component divisibility patterns, from component discriminant torsion


@lru_cache(maxsize=None)
def _component_disc(letter: str, n: int):
    g = GramLattice(gram=component_gram(letter, n))
    return discriminant_group(g)


@lru_cache(maxsize=None)
def _torsion_patterns(letter: str, n: int, p: int) -> tuple[int, ...]:
    """The nonzero p-torsion dual classes as sorted local masks: bit i is
    coefficient 1 on node i and, for p = 3 only, bit n + i coefficient 2.

    For p = 3 each one is c (1, 2) on disjoint, mutually non-adjacent A_2
    pairs of the component: only A_{3k-1} and E_6 have 3-torsion, and the
    tests check the pairs on every component type.
    """
    disc = _component_disc(letter, n)
    parts = [
        (g, d // p) for d, g in zip(disc.invariant_factors, disc.generators) if d % p == 0
    ]
    pats = set()
    for combo in product(range(p), repeat=len(parts)):
        x = [sum(c * m * g[j] for c, (g, m) in zip(combo, parts)) % 1 for j in range(n)]
        if any((p * v).denominator != 1 for v in x):
            raise AssertionError(f"{p}-torsion class is not a 1/{p}-sum")
        pats.add(sum(1 << (int(p * v) - 1) * n + i for i, v in enumerate(x) if v))
    return tuple(sorted(pats - {0}))


# ---------------------------------------------------------------------------
# packed classes


def _patterns(graph: DynkinGraph, p: int) -> list[list[int]]:
    """Per component, its p-torsion patterns placed as packed classes,
    sorted.  A class is one int: bit i is coefficient 1 on curve i and, for
    p = 3 only, bit n + i coefficient 2.  Components are disjoint, so
    patterns combine by bitwise OR and the support size is the bit count."""
    n = len(graph.nodes)
    return [
        [(q & (1 << k) - 1 | q >> k << n) << start for q in _torsion_patterns(letter, k, p)]
        for letter, k, start, _ in graph.component_slices
    ]


def _candidate(graph: DynkinGraph, p: int, v: int) -> DivisibleCandidate:
    """The packed class v as a labelled candidate: for p = 3 each curve with
    coefficient 1 is paired with its one neighbour of coefficient 2."""
    labels, n = graph.nodes, len(graph.nodes)
    support = []
    for letter, k, start, _ in graph.component_slices:
        adj = _neighbours(letter, k)
        for i in range(k):
            if v >> start + i & 1:
                j = start + (adj[i] & v >> n + start).bit_length() - 1
                support.append(labels[start + i] if p == 2 else (labels[start + i], labels[j]))
    values = tuple(Fraction(c, p) for c in range(p))
    coeffs = tuple(values[(v >> i & 1) + 2 * (v >> n + i & 1)] for i in range(n))
    return DivisibleCandidate(p, tuple(support), coeffs)


def _live_sizes(p: int, allowed) -> list[int]:
    """Bit t of entry i is set when some choice of at most one allowed
    pattern on each of components i.. takes support size t to an allowed one."""
    live = [sum(1 << s for s in _SIZES[p])]
    for pats in reversed(allowed):
        live.append(reduce(operator.or_, (live[-1] >> q.bit_count() for q in pats), live[-1]))
    return live[::-1]


def _enumerate_candidates(p: int, allowed) -> list[int]:
    """All combinations of at most one allowed pattern per component whose
    support size is admissible, sorted: a DP over components that keeps the
    partial classes by support size and drops a size once it is not live."""
    live = _live_sizes(p, allowed)
    level: dict[int, list[int]] = {0: [0]} if live[0] & 1 else {}
    for i, pats in enumerate(allowed):
        nxt: dict[int, list[int]] = {}
        for t, vs in level.items():
            for q in (0, *pats):
                if live[i + 1] >> (u := t + q.bit_count()) & 1:
                    nxt.setdefault(u, []).extend([v | q for v in vs] if q else vs)
        level = nxt
    return sorted(v for vs in level.values() for v in vs)


def _product(tables, cap: int) -> dict[int, tuple[int, float]]:
    """{support size: (count, least cover rank)} of one choice from each
    table up to size cap: sizes add, counts multiply and ranks add."""
    level = {0: (1, 0)}
    for table in tables:
        nxt: dict[int, tuple[int, float]] = {}
        for s, (c, r) in level.items():
            for t, (d, q) in table.items():
                if (u := s + t) <= cap:
                    c0, r0 = nxt.get(u, (0, inf))
                    nxt[u] = c0 + c * d, r0 if r0 < r + q else r + q
        level = nxt
    return level


@lru_cache(maxsize=None)
def _type_table(letter: str, n: int, p: int, choices: tuple[tuple[int, ...], ...]):
    """The table of copies of one component type, copy i taking nothing or a
    local pattern of choices[i]: one copy counts each choice with its
    `_local_cover` rank (inf if not ADE, 0 for p = 3); copies join by `_product`."""
    if len(choices) > 1:
        return _product([_type_table(letter, n, p, (pats,)) for pats in choices], _SIZES[p][-1])
    table: dict[int, tuple[int, float]] = {}
    for q in (0, *choices[0]):
        c, r = table.get(q.bit_count(), (0, inf))
        rank = getattr(_local_cover(letter, n, q), "rank", inf) if p == 2 else 0
        table[q.bit_count()] = c + 1, min(r, rank)
    return table


def _join(p: int, tables) -> tuple[int, float]:
    """How many candidates `_enumerate_candidates` lists and, for p = 2, the
    least rank of their ADE double covers (inf if none), without the list:
    the product of the type tables, the largest one read at the allowed sizes."""
    *rest, last = sorted(tables, key=len)
    hits = [(c * last[u - s][0], r + last[u - s][1]) for s, (c, r) in
            _product(rest, _SIZES[p][-1]).items() for u in _SIZES[p] if u - s in last]
    return sum(c for c, _ in hits), min((r for _, r in hits), default=inf)


def _least_candidate(p: int, allowed) -> int:
    """The least candidate, without the list.  A component's patterns lie
    above the earlier components' (for p = 3 its coefficient-2 bits fix its
    pattern), so walk down from the last component, taking the least
    pattern after which the earlier components still reach an allowed size."""
    live, t, mask = _live_sizes(p, allowed[::-1]), 0, 0
    for pats, below in zip(reversed(allowed), live[1:]):
        q = min(q for q in (0, *pats) if below >> t + q.bit_count() & 1)
        t, mask = t + q.bit_count(), mask | q
    return mask


# ---------------------------------------------------------------------------
# public candidate operations


def even_set_candidates(config: ADEConfig) -> list[DivisibleCandidate]:
    """All admissible even-set candidates: 8 or 16 disjoint curves whose
    half-sum pairs integrally with every curve of the configuration."""
    return _candidates(config, 2)


def three_divisible_candidates(config: ADEConfig) -> list[DivisibleCandidate]:
    """All admissible 3-divisible candidates: 6 or 9 disjoint oriented A_2
    sub-configurations whose weighted third-sum is integral against all
    curves."""
    return _candidates(config, 3)


def _candidates(config: ADEConfig, p: int) -> list[DivisibleCandidate]:
    graph = dynkin(config)
    out = [_candidate(graph, p, v) for v in _enumerate_candidates(p, _patterns(graph, p))]
    out.sort(key=lambda c: (len(c.support), c.support))
    return out


def _disjoint_curves(config: ADEConfig) -> int:
    """Size of a maximum set of pairwise disjoint curves, summed per type."""
    return sum(c * _largest_independent_set(letter, n).bit_count() for letter, n, c in config.terms())


def required_even_sets(config: ADEConfig) -> int:
    """Number of independent even sets forced by r disjoint curves: r - 11."""
    return max(0, _disjoint_curves(config) - 11)


# ---------------------------------------------------------------------------
# double cover transform


def double_cover_transform(config: ADEConfig, candidate) -> ADEConfig:
    """Configuration on the double cover branched over an even set.

    Rules: a branch curve pulls back to a (-1)-curve; a curve disjoint from
    the branch splits into two copies; a curve meeting the branch in two
    points pulls back to one (-4)-curve through the corresponding branch
    preimages.  The (-1)-curves are pairwise disjoint and meet no other
    branch preimage, so one contraction of all of them leaves only
    (-2)-curves; the result is recognized as an ADE configuration,
    component by component.  Raises ValueError on an unknown label and on
    branch curves that are not an even set.
    """
    graph, index_of = _labelled_graph(config)
    if isinstance(candidate, DivisibleCandidate):
        candidate = candidate.support
    if unknown := [lab for lab in candidate if lab not in index_of]:
        raise ValueError(f"unknown curve label {unknown[0]!r}")
    mask = sum(1 << index_of[lab] for lab in set(candidate))
    hits = [0] * len(graph.nodes)
    for i, j in graph.edges:
        if mask >> i & mask >> j & 1:
            meet = f"branch curves {graph.nodes[i]} and {graph.nodes[j]} meet"
            raise ValueError(f"candidate is not an even set ({meet})")
        hits[i] += mask >> j & 1
        hits[j] += mask >> i & 1
    for i, h in enumerate(hits):
        if not mask >> i & 1:
            if h > 2:
                raise NonReducedIntersection(
                    f"curve {graph.nodes[i]} meets the branch in {h} points"
                )
            if h % 2:
                raise ValueError("candidate is not an even set (odd branch parity)")
    return _cover(graph, mask)


@lru_cache(maxsize=64)
def _labelled_graph(config: ADEConfig) -> tuple[DynkinGraph, dict[str, int]]:
    graph = dynkin(config)  # built once per configuration, with its label index
    return graph, {lab: i for i, lab in enumerate(graph.nodes)}


def _cover(graph: DynkinGraph, mask: int) -> ADEConfig:
    """The components' covers, each branched over its part of mask, merged
    once; raises NotADEAfterContraction on the first piece that is not ADE."""
    counts: Counter[tuple[str, int]] = Counter()
    for letter, k, start, _ in graph.component_slices:
        piece = _local_cover(letter, k, mask >> start & ((1 << k) - 1))
        if isinstance(piece, str):
            raise NotADEAfterContraction(piece)
        counts.update({(a, n): c for a, n, c in piece.terms()})
    return ADEConfig.from_counts(counts)


@lru_cache(maxsize=None)
def _local_cover(letter: str, n: int, local_mask: int) -> ADEConfig | str:
    """Contracted double cover of one component branched over the curves in
    local_mask, where every other curve meets 0 or 2 of them.

    After contracting the branch preimages, a ramified curve (two branch
    points) is one (-4 + 2)-curve and a split curve (none) two
    (-2)-curves, one per sheet.  Split copies meet on the same sheet, a
    ramified curve meets both copies of a split neighbour, and two
    ramified curves meet in the branch curves they both meet: in one at
    most, as a tree has no cycle, and never directly (each would have
    degree 3, which one node of an ADE tree has at most).  So every
    intersection number is 0 or 1.  Returns the ADE type, or the
    NotADEAfterContraction message so that a failing piece is cached too.
    """
    adj = _neighbours(letter, n)
    nodes: dict[int, range] = {}  # curve off the branch -> its preimages
    size = 0
    for i in range(n):
        if not local_mask >> i & 1:
            k = 1 if adj[i] & local_mask else 2
            nodes[i] = range(size, size + k)
            size += k
    meet: set[tuple[int, int]] = set()
    for i, j in component_edges(letter, n):
        if i in nodes and j in nodes:
            a, b = nodes[i], nodes[j]
            meet.update(zip(a, b) if len(a) == len(b) else product(a, b))
    for i in range(n):
        if local_mask >> i & 1:
            meet.update(combinations([nodes[j][0] for j in nodes if adj[i] >> j & 1], 2))
    try:
        return classify_dynkin(size, sorted(meet))
    except ValueError as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# F_p codes of candidates: one match against a catalogue of codes


def _normal(v: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Nonzero v up to a scalar: first nonzero entry 1 (units of F_2, F_3 are self-inverse)."""
    return tuple(y * next(x for x in v if x) % p for y in v)


@lru_cache(maxsize=None)
def _catalogue(p: int) -> dict[int, tuple[dict[tuple[int, ...], int], ...]]:
    """The codes a search can find, by dimension d, as normalized columns
    with multiplicities in curves: up to GL(d, p), the codes with weights 8
    or 16 on <= 19 curves (6 or 9 on <= 9 A_2 pairs, each two curves with
    one column) are all points of PG(d - 1, p) (simplex) or all points off a
    hyperplane (affine), each 8 (6) or 16 (9) / p^(d-1) times where whole,
    up to RM(1, 4) on a Kummer surface's 16 nodes (Nikulin 1975) and Barth's
    nine cusps (1998).  Tier-1 classifies the codes apart from this."""
    low, top = EVEN_SUPPORT_SIZES if p == 2 else THREE_SUPPORT_SIZES
    out = {}
    for d in range(1, top.bit_length() + 1):  # every d with 2^(d-1) <= top
        points = [v for v in product(range(p), repeat=d) if any(v) and _normal(v, p) == v]
        out[d] = tuple(
            {v: (p - 1) * weight // p ** (d - 1) for v in columns}
            for weight, columns in ((low, points), (top, [v for v in points if v[0]]))
            if weight % p ** (d - 1) == 0
        )
    return {d: codes for d, codes in out.items() if codes}


@lru_cache(maxsize=None)
def _shape(p: int, n: int, pats: tuple[int, ...]):
    """A component's allowed patterns as (words, shape) over a basis `rows`
    of their span: node i's code column is sum_j rows[j][i] l_j for free l_j
    in F_p^d, so the patterns with 0 must be a subspace, and the shape is
    the nodes' normalized coefficient vectors with counts."""
    nodes = [i for i in range(n) if any(q >> i & 1 or q >> n + i & 1 for q in pats)]
    vecs = {tuple((q >> i & 1) + 2 * (q >> n + i & 1) for i in nodes) for q in pats}
    rows, span = [], {(): (0,) * len(nodes)}  # coefficients on the rows -> vector
    for v in sorted(vecs):
        if v not in span.values():
            rows.append(v)
            span = {cs + (c,): tuple((a + c * b) % p for a, b in zip(w, v))
                    for cs, w in span.items() for c in range(p)}
    if set(span.values()) != vecs | {(0,) * len(nodes)}:
        raise AssertionError(f"allowed patterns {pats} with 0 are not an F_{p}-subspace")
    words = {cs: sum(1 << (x - 1) * n + i for i, x in zip(nodes, w) if x) for cs, w in span.items()}
    return words, tuple(sorted(Counter(_normal(col, p) for col in zip(*rows)).items()))


@lru_cache(maxsize=None)
def _options(p: int, shape, d: int, c: int):
    """The column multisets a shape can give catalogue code c of dimension d,
    as count vectors over its columns with free vectors giving each, and the largest total."""
    code = _catalogue(p)[d][c]
    index = {v: i for i, v in enumerate(code)}
    limit = (*code.values(), 0)  # the last count is of columns off the code
    out: dict[tuple[int, ...], tuple] = {}
    for lams in product(product(range(p), repeat=d), repeat=len(shape[0][0])):
        counts = [0] * len(limit)
        for u, m in shape:
            col = tuple(sum(map(operator.mul, u, lt)) % p for lt in zip(*lams))
            if any(col):
                counts[index.get(_normal(col, p), -1)] += m
        if all(map(operator.le, counts, limit)):
            out.setdefault(tuple(counts[:-1]), lams)
    return tuple(sorted(out.items())), max(map(sum, out))


def _split(p: int, shapes, d: int, c: int) -> dict[int, tuple] | None:
    """Free vectors per component (others 0) giving exactly the columns of
    catalogue code c of dimension d, or None: most constrained shapes first,
    shapes of one column last, identical ones in non-decreasing options."""
    code = _catalogue(p)[d][c]
    opts = [_options(p, s, d, c) for s in shapes]
    ts = [s[0][1] if len(s) == 1 == len(s[0][0]) else 0 for s in shapes]
    order = sorted(range(len(ts)), key=lambda i: (ts[i] > 0, -ts[i] or len(opts[i][0]), shapes[i]))
    room = [*accumulate((opts[j][1] for j in reversed(order)), initial=0)][::-1]  # suffix sums

    def walk(i: int, rem: tuple[int, ...], lo: int) -> dict[int, tuple] | None:
        if not any(rem):
            return {}
        if sum(rem) > room[i]:
            return None
        j = order[i]
        same = i + 1 < len(order) and shapes[order[i + 1]] == shapes[j]
        for idx in range(lo, len(opts[j][0])):
            counts, lams = opts[j][0][idx]
            if all(map(operator.le, counts, rem)):
                rest = walk(i + 1, tuple(map(operator.sub, rem, counts)), idx if same else 0)
                if rest is not None:
                    return {**rest, j: lams}
        return None

    found = walk(0, tuple(code.values()), 0)
    del walk  # the closure refers to itself: free it now, not at a GC pass
    return found


def _largest_code(p: int, n: int, allowed, k: int) -> list[int]:
    """A basis of a code of the largest dimension d <= k whose nonzero words
    are all candidates on `allowed`: a linear map from F_p^d into the
    components' patterns with 0, so the rows of a catalogue code that splits
    among the shapes, mapped back; d falls from k until one splits."""
    comps = [_shape(p, n, tuple(pats)) for pats in allowed if pats]
    shapes = [shape for _, shape in comps]
    for d in range(k, 0, -1):
        splits = (_split(p, shapes, d, c) for c in range(len(_catalogue(p).get(d, ()))))
        if (best := next((s for s in splits if s is not None), None)) is not None:
            rows = [(comps[j][0], list(zip(*lams))) for j, lams in best.items()]
            return [sum(words[cs[t]] for words, cs in rows) for t in range(d)]
    return []


# ---------------------------------------------------------------------------
# witness sets


@lru_cache(maxsize=None)
def _component_autos(letter: str, n: int) -> tuple[tuple[int, ...], ...]:
    """The diagram automorphisms of one component, as node permutations:
    nodes 0, 1, ... are mapped in turn, each to an unused node with the
    same adjacency to the images of the nodes mapped before."""
    adj = _neighbours(letter, n)
    perms: list[tuple[int, ...]] = [()]
    for i in range(n):
        perms = [
            perm + (j,)
            for perm in perms
            for j in range(n)
            if j not in perm and all(adj[i] >> a & 1 == adj[j] >> b & 1 for a, b in enumerate(perm))
        ]
    return tuple(perms)


@lru_cache(maxsize=None)
def _component_policies(letter: str, n: int):
    """Independent-set policies per component, one per distinct alive
    pattern set (up to diagram automorphism), keeping the largest set and,
    among those, the least mask.  Returns tuples (size, alive_local_masks
    (sorted tuple), indset mask).
    """
    indsets = _independent_sets(letter, n)
    patterns = _torsion_patterns(letter, n, 2)
    autos = _component_autos(letter, n)
    canon: dict[tuple[int, ...], tuple[int, ...]] = {}  # alive -> its least image
    best: dict[tuple[int, ...], tuple[int, tuple[int, ...], int]] = {}
    for s in indsets:
        alive = tuple(p for p in patterns if p & ~s == 0)
        if alive not in canon:
            canon[alive] = min(
                tuple(sorted(sum(1 << perm[i] for i in range(n) if m >> i & 1) for m in alive))
                for perm in autos
            )
        key = canon[alive]
        if key not in best or s.bit_count() > best[key][0]:
            best[key] = (s.bit_count(), alive, s)
    return tuple(sorted(best.values(), key=lambda t: (-t[0], t[1])))


class _Witness(Record):
    """A choice of one policy per component, its masks placed on the components."""

    size: int
    description: str
    tables: tuple  # per component type: its `_type_table`
    allowed: tuple[tuple[int, ...], ...]  # per component: the global pattern masks
    curves: int  # the mask of the witness's disjoint curves

    @property
    def required(self) -> int:
        """The dimension of the even-set code that the size forces."""
        return self.size - 11


@lru_cache(maxsize=None)
def _type_options(letter: str, k: int, count: int):
    """The policy multisets of `count` copies of one component type, as
    (size, allowed local masks and curve local mask per copy, description
    part, type table)."""
    policies = _component_policies(letter, k)
    options = []
    for pick in combinations_with_replacement(range(len(policies)), count):
        size, alive, curves = zip(*(policies[i] for i in pick))
        part = f"{letter}{k}:" + ",".join(f"p{i}x{c}" for i, c in sorted(Counter(pick).items()))
        options.append((sum(size), alive, curves, part, _type_table(letter, k, 2, alive)))
    return tuple(options)


def _witnesses(config: ADEConfig) -> list[_Witness]:
    """Every choice of one policy per component whose curves number 12 or
    more, from each component type's `_type_options`, with its local masks
    moved onto their components (mask << start)."""
    starts = (0, *accumulate(k for _, k in config.components()))[:-1]
    per_type = [_type_options(letter, k, c) for letter, k, c in config.terms()]
    witnesses = []
    for combo in product(*per_type):
        if (size := sum(t[0] for t in combo)) >= 12:
            _, alive, masks, parts, tables = zip(*combo)
            allowed = tuple(tuple(q << s for q in a) for s, a in zip(starts, chain(*alive)))
            curves = sum(m << s for s, m in zip(starts, chain(*masks)))
            witnesses.append(_Witness(size, "; ".join(parts), tables, allowed, curves))
    witnesses.sort(key=lambda w: (w.size, w.description))
    return witnesses


# ---------------------------------------------------------------------------
# the checker


def check_nonexistence(config: ADEConfig) -> ObstructionReport:
    """Run the rank, length, counting and double-cover obstructions in order.

    The verdict is Excluded when some forced resource is unavailable: rank
    above 19, a set of r >= 12 disjoint curves without its r - 11
    independent admissible even sets, a p-primary length excess without
    enough p-divisible glue, or a forced even set all of whose double covers
    exceed rank 19.  A witness of dimension 1 needs one candidate, and
    every other code search is one catalogue match (`_largest_code`).  A
    rank of more than 4300 digits, which no step could print, raises ValueError.
    """
    rho = config.rank
    if rho >= _TOO_LONG:  # before a step fails to print it
        raise ValueError(f"a rank of more than {_MAX_DIGITS} digits cannot be printed")
    if rho > K3_RANK_LIMIT:
        step = _step("RankExceeds", rank=rho, rank_limit=K3_RANK_LIMIT)
        return ObstructionReport(config=config, verdict=EXCLUDED, steps=(step,))
    graph = dynkin(config)
    steps: list[ObstructionStep] = []
    excluded = False

    def labels(mask: int) -> str:
        return " ".join(lab for i, lab in enumerate(graph.nodes) if mask >> i & 1)

    # the discriminant group of an orthogonal sum is the sum of the blocks'
    factors = invariant_factors_from_orders(
        [d for a, n, c in config.terms() for d in _component_disc(a, n).invariant_factors * c]
    )
    bound = length_bound(rho, K3_AMBIENT_RANK)
    l2 = sum(1 for d in factors if d % 2 == 0)
    l3 = sum(1 for d in factors if d % 3 == 0)
    k2 = max(0, -((l2 - bound) // -2))
    k3 = max(0, -((l3 - bound) // -2))
    maxd = _disjoint_curves(config)
    witnesses = _witnesses(config)
    steps.append(
        _step(
            "LengthRequirement",
            rank=rho,
            ambient_rank=K3_AMBIENT_RANK,
            disc_group=group_symbol(factors),
            disc_length=len(factors),
            length_2=l2,
            length_3=l3,
            length_bound=bound,
            required_glue_2=k2,
            required_glue_3=k3,
            max_disjoint_curves=maxd,
            required_even_sets=max(0, maxd - 11),
            witness_sets=len(witnesses),
        )
    )

    for w in witnesses:
        count, bad = _cover_exceeds(graph, w)
        if not excluded:
            # any one candidate spans a code of dimension 1
            k = w.required
            best = min(count, 1) if k == 1 else len(_largest_code(2, rho, w.allowed, k))
            if best < w.required:
                where = {"witness_curves": labels(w.curves)}
                steps += _search_steps(where, w.required, count, best, witness_size=w.size)
                excluded = True
        if bad is not None:
            example_mask, example_cover = bad
            steps.append(
                _step(
                    "CoverRankExceeds",
                    witness_curves=labels(w.curves),
                    witness_size=w.size,
                    candidates=count,
                    example_even_set=labels(example_mask),
                    cover_config=example_cover.render() if example_cover else "not ADE",
                    cover_rank=(example_cover.rank if example_cover else -1),
                    rank_limit=K3_RANK_LIMIT,
                )
            )
            excluded = True

    for prime, k in ((2, k2), (3, k3)):
        if k == 0 or excluded:
            continue
        tables = [_type_table(a, n, prime, (_torsion_patterns(a, n, prime),) * c)
                  for a, n, c in config.terms()]
        count = _join(prime, tables)[0]
        best = len(_largest_code(prime, rho, _patterns(graph, prime), k))
        steps += _search_steps({"scope": "global", "prime": prime}, k, count, best)
        excluded = best < k

    verdict = EXCLUDED if excluded else NO_OBSTRUCTION
    return ObstructionReport(config=config, verdict=verdict, steps=tuple(steps))


def _search_steps(where: dict, k: int, count: int, best: int, **extra) -> list[ObstructionStep]:
    """A code search's AdmissibleCandidateCount step, and its
    IndependenceDeficit step when the search fell short of dimension k."""
    steps = [_step("AdmissibleCandidateCount", **where, **extra, required_independent=k,
                   admissible_candidates=count, independent_found=best)]
    if best < k:
        steps.append(_step("IndependenceDeficit", **where, required=k, available=best))
    return steps


def _cover_exceeds(graph: DynkinGraph, w: _Witness) -> tuple[int, tuple[int, ADEConfig | None] | None]:
    """The number of even-set candidates on `w.allowed` (type tables
    `w.tables`), with None if there is none or some candidate has an ADE
    cover of rank <= 19, else the least candidate with its cover (None if
    not ADE)."""
    count, least = _join(2, w.tables)
    if not count or least <= K3_RANK_LIMIT:
        return count, None
    mask = _least_candidate(2, w.allowed)
    try:
        return count, (mask, _cover(graph, mask))
    except NotADEAfterContraction:
        return count, (mask, None)


# ---------------------------------------------------------------------------
# Enriques census


def enriques_census() -> list[ADEConfig]:
    """Configurations C with m(C) = 12 and rank <= 9 whose doubling 2C is
    unobstructed on the K3 double cover; m is additive, so m(2C) = 24, and
    rank(2C) <= 18."""
    configs = enumerate_configs(Fraction(12), 9)
    return [c for c in configs if not check_nonexistence(2 * c).excluded]
