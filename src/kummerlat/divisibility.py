"""Even sets, 3-divisible sets and the configuration nonexistence checker.

A half-sum (1/2) sum_{C in S} C of configuration curves lies in the dual
lattice exactly when S consists of pairwise disjoint curves and every curve
outside S meets an even number of curves of S; on a K3 surface the support
of such a 2-divisible class has 8 or 16 curves.  Likewise a 3-divisible
class (1/3) sum (C^1 + 2 C^2) is supported on 6 or 9 pairwise disjoint A_2
sub-configurations.  Candidates are computed per component from the torsion
of the component discriminant groups, so obstructions like "an A_2 inside
an A_3 is never 3-divisible" fall out of the integrality test itself.

Classes of both primes are packed into one int: bit i is coefficient 1 on
curve i and, for p = 3, bit n + i is coefficient 2.  One enumeration, one
admissibility test and one F_p code search serve p = 2 and p = 3; addition
differs (XOR, or a bitsliced mod-3 add), and binary codes have a length bound.

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
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, combinations_with_replacement, groupby, product

from .ade import (
    K3_RANK_LIMIT,
    ADEConfig,
    DynkinGraph,
    _independent_sets,
    _neighbours,
    classify_dynkin,
    component_edges,
    component_gram,
    dynkin,
    enumerate_configs,
    invariant_factors_from_orders,
    m_value,
)
from .lattice import GramLattice, discriminant_group, group_symbol, length_bound

K3_AMBIENT_RANK = 22
EVEN_SUPPORT_SIZES = (8, 16)
THREE_SUPPORT_SIZES = (6, 9)

EXCLUDED = "Excluded"
NO_OBSTRUCTION = "NoObstructionFound"


class NotADEAfterContraction(ValueError):
    """The contracted double-cover configuration is not a sum of ADE graphs."""


class NonReducedIntersection(ValueError):
    """A curve meets the branch locus in more than two points."""


@dataclass(frozen=True)
class DivisibleCandidate:
    """Candidate p-divisible class on a configuration.

    For prime 2 the support is a tuple of curve labels; for prime 3 it is a
    tuple of oriented pairs (label with coefficient 1, label with
    coefficient 2).  The class vector is the rational coordinate vector of
    the class in the configuration basis.
    """

    prime: int
    support: tuple
    class_vector: tuple[Fraction, ...]


@dataclass(frozen=True)
class ObstructionStep:
    kind: str
    data: tuple[tuple[str, str], ...]

    def get(self, key: str) -> str | None:
        return dict(self.data).get(key)

    def to_dict(self) -> dict:
        return {"kind": self.kind, **dict(self.data)}


@dataclass(frozen=True)
class ObstructionReport:
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
def _torsion_patterns(letter: str, n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Coefficient vectors (mod p) of the nonzero p-torsion dual classes.

    For p = 3 only classes that decompose into disjoint, mutually
    non-adjacent adjacent pairs carrying coefficients {1, 2} qualify as
    supports of 3-divisible sets.
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
        coeffs = tuple(int(p * v) for v in x)
        if any(coeffs) and (p == 2 or _pairs_of_coeffs(letter, n, coeffs) is not None):
            pats.add(coeffs)
    return tuple(sorted(pats))


@lru_cache(maxsize=None)
def _pairs_of_coeffs(letter: str, n: int, coeffs) -> tuple[tuple[int, int], ...] | None:
    """Decompose a mod-3 coefficient vector on one component into oriented
    disjoint A_2 pairs (local node indices)."""
    adj = _neighbours(letter, n)
    support = sum(1 << i for i, c in enumerate(coeffs) if c)
    seen = set()
    pairs = []
    for i, c in enumerate(coeffs):
        if not c or i in seen:
            continue
        partners = adj[i] & support
        if partners.bit_count() != 1:
            return None
        j = partners.bit_length() - 1
        if adj[j] & support != 1 << i:
            return None
        if {coeffs[i], coeffs[j]} != {1, 2}:
            return None
        seen.update((i, j))
        pairs.append((i, j) if coeffs[i] == 1 else (j, i))
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# configuration context and packed classes


class _Classes:
    """The allowed per-component patterns of p-divisible classes, for p = 2
    or 3, with the F_p addition on packed classes.

    A class is one int.  Bit i means coefficient 1 on curve i; for p = 3
    only, bit n + i means coefficient 2 on curve i.  Components are
    disjoint, so per-component patterns combine by bitwise OR and the
    support size is the bit count.  Addition, and with it the nonzero
    multiples, is the per-prime operation (`_find_code` also reads p).  A
    class is admissible when it is one of the candidates
    `_enumerate_candidates` lists.
    """

    def __init__(self, ctx: "_Context", p: int):
        n = self.n = ctx.n
        self.p = p
        self.patterns: list[list[int]] = [  # per component, sorted
            sorted(
                sum(1 << ((c - 1) * n + start + i) for i, c in enumerate(coeffs) if c)
                for coeffs in _torsion_patterns(letter, k, p)
            )
            for letter, k, start, _ in ctx.graph.component_slices
        ]
        if p == 2:
            self.sizes = EVEN_SUPPORT_SIZES
            self.add = operator.xor
            self.multiples = lambda v: (v,)
            return
        self.sizes = tuple(2 * s for s in THREE_SUPPORT_SIZES)  # curves
        low = (1 << n) - 1

        def add(u: int, v: int) -> int:
            # coefficient 1 from 0+1, 1+0, 2+2; coefficient 2 from 0+2, 2+0, 1+1
            u1, u2, v1, v2 = u & low, u >> n, v & low, v >> n
            s1 = (u1 ^ v1) & ~(u2 | v2) | (u2 & v2)
            s2 = (u2 ^ v2) & ~(u1 | v1) | (u1 & v1)
            return s1 | s2 << n

        self.add = add
        self.multiples = lambda v: (v, (v & low) << n | v >> n)  # v and -v


class _Context:
    def __init__(self, config: ADEConfig):
        self.config = config
        self.graph = dynkin(config)
        self.labels = self.graph.nodes
        self.n = len(self.labels)
        # the discriminant group of an orthogonal sum is the sum of the blocks'
        blocks = [_component_disc(letter, k) for letter, k, _, _ in self.graph.component_slices]
        self.disc_factors = invariant_factors_from_orders(
            [d for g in blocks for d in g.invariant_factors]
        )
        self.classes = {p: _Classes(self, p) for p in (2, 3)}

    def mask_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in range(self.n) if mask >> i & 1)


def _live_sizes(cls: _Classes, allowed) -> list[int]:
    """Bit t of entry i is set when some choice of at most one allowed
    pattern on each of components i.. takes support size t to an allowed one."""
    live = [sum(1 << s for s in cls.sizes)]
    for pats in reversed(allowed):
        live.append(reduce(operator.or_, (live[-1] >> p.bit_count() for p in pats), live[-1]))
    return live[::-1]


def _enumerate_candidates(cls: _Classes, allowed) -> list[int]:
    """All combinations of at most one allowed pattern per component whose
    support size is admissible, sorted: a DP over components that keeps the
    partial classes by support size and drops a size once it is not live."""
    live = _live_sizes(cls, allowed)
    level: dict[int, list[int]] = {0: [0]} if live[0] & 1 else {}
    for i, pats in enumerate(allowed):
        nxt: dict[int, list[int]] = {}
        for t, vs in level.items():
            for p in (0, *pats):
                if live[i + 1] >> (u := t + p.bit_count()) & 1:
                    nxt.setdefault(u, []).extend([v | p for v in vs] if p else vs)
        level = nxt
    return sorted(v for vs in level.values() for v in vs)


# ---------------------------------------------------------------------------
# public candidate operations


def even_set_candidates(config: ADEConfig) -> list[DivisibleCandidate]:
    """All admissible even-set candidates: 8 or 16 disjoint curves whose
    half-sum pairs integrally with every curve of the configuration."""
    ctx = _Context(config)
    cls = ctx.classes[2]
    half = (Fraction(0), Fraction(1, 2))
    out = []
    for mask in _enumerate_candidates(cls, cls.patterns):
        vectorc = tuple(half[mask >> i & 1] for i in range(ctx.n))
        out.append(DivisibleCandidate(2, ctx.mask_labels(mask), vectorc))
    out.sort(key=lambda c: (len(c.support), c.support))
    return out


def three_divisible_candidates(config: ADEConfig) -> list[DivisibleCandidate]:
    """All admissible 3-divisible candidates: 6 or 9 disjoint oriented A_2
    sub-configurations whose weighted third-sum is integral against all
    curves."""
    ctx = _Context(config)
    cls, n, labels = ctx.classes[3], ctx.n, ctx.labels
    thirds = tuple(Fraction(c, 3) for c in range(3))
    def coeffs(v: int, lo: int = 0, hi: int = n) -> tuple[int, ...]:  # of curves lo .. hi - 1
        return tuple((v >> i & 1) + 2 * (v >> (n + i) & 1) for i in range(lo, hi))
    # each component's bits and the labelled pairs of its allowed patterns
    # (which decompose), built once per pattern
    parts = []
    for (letter, k, start, stop), pats in zip(ctx.graph.component_slices, cls.patterns):
        table = {0: ()}
        for v in pats:
            local = _pairs_of_coeffs(letter, k, coeffs(v, start, stop))
            table[v] = tuple((labels[start + i], labels[start + j]) for i, j in local)
        bits = ((1 << k) - 1) << start
        parts.append((bits | bits << n, table))
    # components are increasing node ranges, so a candidate's pairs stay sorted
    out = [DivisibleCandidate(3, sum((table[v & bits] for bits, table in parts), ()),
                              tuple(thirds[c] for c in coeffs(v)))
           for v in _enumerate_candidates(cls, cls.patterns)]
    out.sort(key=lambda c: (len(c.support), c.support))
    return out


def _disjoint_curves(config: ADEConfig) -> int:
    """Size of a maximum set of pairwise disjoint curves, summed per type."""
    return sum(
        c * max(map(int.bit_count, _independent_sets(letter, n))) for letter, n, c in config.terms()
    )


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
    component by component.
    """
    graph, index_of = _labelled_graph(config)
    if isinstance(candidate, DivisibleCandidate):
        candidate = candidate.support
    mask = sum(1 << index_of[lab] for lab in set(candidate))
    hits = [0] * len(graph.nodes)
    for i, j in graph.edges:
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
    pieces = _cover_pieces(graph, mask)
    for piece in pieces:
        if isinstance(piece, str):
            raise NotADEAfterContraction(piece)
    return sum(pieces, ADEConfig())


@lru_cache(maxsize=64)
def _labelled_graph(config: ADEConfig) -> tuple[DynkinGraph, dict[str, int]]:
    graph = dynkin(config)  # built once per configuration, with its label index
    return graph, {lab: i for i, lab in enumerate(graph.nodes)}


def _cover_pieces(graph: DynkinGraph, mask: int) -> list[ADEConfig | str]:
    """The covers of the components, each branched over its part of mask."""
    return [
        _local_cover(letter, k, mask >> start & ((1 << k) - 1))
        for letter, k, start, _ in graph.component_slices
    ]


@lru_cache(maxsize=None)
def _local_cover(letter: str, n: int, local_mask: int) -> ADEConfig | str:
    """Contracted double cover of one component branched over the curves in
    local_mask, where every other curve meets 0 or 2 of them.

    After contracting the branch preimages, a ramified curve (two branch
    points) is one (-4 + 2)-curve and a split curve (none) two
    (-2)-curves, one per sheet.  Split copies meet on the same sheet, a
    ramified curve meets both copies of a split neighbour, and two
    ramified curves meet 2 (C . C') plus the number of branch curves they
    both meet.  Returns the ADE type, or the NotADEAfterContraction
    message so that a failing piece is cached too.
    """
    adj = _neighbours(letter, n)
    nodes: dict[int, range] = {}  # curve off the branch -> its preimages
    size = 0
    for i in range(n):
        if not local_mask >> i & 1:
            k = 1 if adj[i] & local_mask else 2
            nodes[i] = range(size, size + k)
            size += k
    meet: Counter[tuple[int, int]] = Counter()
    for i, j in component_edges(letter, n):
        if i in nodes and j in nodes:
            a, b = nodes[i], nodes[j]
            if len(a) + len(b) == 2:
                meet[a[0], b[0]] += 2
            else:
                meet.update(zip(a, b) if len(a) == len(b) else product(a, b))
    for i in range(n):
        if local_mask >> i & 1:
            meet.update(combinations([nodes[j][0] for j in nodes if adj[i] >> j & 1], 2))
    bad = next((k for k in meet.values() if k > 1), None)
    if bad is not None:
        return f"contracted intersection number {bad}"
    try:
        return classify_dynkin(size, sorted(meet))
    except ValueError as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# F_p code search over packed classes (everywhere-admissible subspaces)


def _find_code(cls: _Classes, cands: list[int], k: int) -> tuple[list[int] | None, int]:
    """Search for an F_p subspace of dimension k all of whose nonzero
    elements are among the sorted candidates `cands`; return (basis or
    None, largest dimension reached).

    Each code is visited once, through its basis in reduced echelon form:
    a vector's pivot is its highest curve, where its coefficient is 1,
    pivots increase along the basis, and each basis vector is 0 on the
    other pivots.  So the basis is drawn, in order of top curve, from the
    candidates with top coefficient 1 (for p = 2, all of `cands`), and a
    later one must be 0 on every chosen pivot.  Extending the span by v
    adds m + w for each nonzero multiple m of v and each old element w;
    each level keeps the later candidates u with u + x in `cands` for every
    element x just added.  That covers the other multiples of u, since the
    new elements and `cands` are closed under negation (for p = 3 it swaps
    each oriented pair).  Membership is admissibility: a global search
    lists every pattern, and in a witness search (p = 2) each component's
    patterns form, with zero, a group under XOR.

    A binary code here has all nonzero weights 8 or 16 on the N curves the
    candidates cover, so the search stops at t = min(k, d_max(N)), the
    largest d with `_EVEN_CODE_LENGTH[d] <= N`; if t < k, a code of
    dimension t is the best possible and the result is (None, t).
    """
    add, multiples, n = cls.add, cls.multiples, cls.n
    low = (1 << n) - 1
    target, pool = k, cands
    if cls.p == 2:
        points = reduce(operator.or_, cands, 0).bit_count()
        target = min(k, max((d for d, t in _EVEN_CODE_LENGTH.items() if t <= points), default=0))
    else:  # top coefficient 1: the halves share no curve, so the low one is larger
        pool = sorted((c for c in cands if c & low > c >> n), key=lambda c: c & low)
    admissible = set(cands)
    best_seen = 0
    basis: list[int] = []

    def extend(compatible: list[int], span: list[int], pivots: int) -> bool:
        nonlocal best_seen
        best_seen = max(best_seen, len(basis))
        if len(basis) == target:
            return True
        for idx, v in enumerate(compatible):
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

    found = extend(pool, [0], 0)
    del extend  # the closure refers to itself: free its search state now, not at a GC pass
    return (basis if found and target == k else None), (target if found else best_seen)


# Fewest points carrying a binary code of dimension d whose nonzero weights
# are all 8 or 16: the Griesmer bound, met by RM(1, 4) on the 16 nodes of a
# Kummer surface (Nikulin, "On Kummer surfaces", 1975) and its shortenings.
# On at most 19 points (rank <= 19) a weight-moment count reduces d = 6 to a
# [9, 6, 4] or [13, 6, 6] code, which the Griesmer bound forbids.
_EVEN_CODE_LENGTH = {1: 8, 2: 12, 3: 14, 4: 15, 5: 16}


# ---------------------------------------------------------------------------
# witness sets


def _component_autos(letter: str, n: int) -> list[tuple[int, ...]]:
    autos = [tuple(range(n))]
    if letter == "A" and n > 1:
        autos.append(tuple(reversed(range(n))))
    elif letter == "D":
        if n == 4:
            for perm in (
                (0, 1, 3, 2),
                (2, 1, 0, 3),
                (3, 1, 2, 0),
                (2, 1, 3, 0),
                (3, 1, 0, 2),
            ):
                autos.append(perm)
        else:
            swap = list(range(n))
            swap[n - 2], swap[n - 1] = swap[n - 1], swap[n - 2]
            autos.append(tuple(swap))
    elif letter == "E" and n == 6:
        autos.append((4, 3, 2, 1, 0, 5))
    return autos


@lru_cache(maxsize=None)
def _component_policies(letter: str, n: int):
    """Independent-set policies per component, one per distinct alive
    pattern set (up to diagram automorphism), keeping the largest set and,
    among those, the least mask.  Returns tuples (size, alive_local_masks
    (sorted tuple), indset nodes).
    """
    indsets = _independent_sets(letter, n)
    patterns = sorted(
        sum(c << i for i, c in enumerate(coeffs)) for coeffs in _torsion_patterns(letter, n, 2)
    )
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
    out = [
        (size, alive, tuple(i for i in range(n) if s >> i & 1)) for size, alive, s in best.values()
    ]
    out.sort(key=lambda t: (-t[0], t[1]))
    return tuple(out)


@dataclass(frozen=True)
class _Witness:
    size: int
    required: int
    allowed: tuple[tuple[int, ...], ...]  # per component: global pattern masks
    curves: int  # mask of the witness's disjoint curves
    description: str


def _witnesses(ctx: _Context) -> list[_Witness]:
    """Every choice of one policy per component whose curves number 12 or
    more.  The policy multisets of each component type are built once, as
    (size, allowed masks, curve mask, description part), with each local
    mask moved onto its component as mask << start; only the join over
    types runs per witness."""
    per_type = []
    for (letter, k), slices in groupby(ctx.graph.component_slices, key=lambda s: s[:2]):
        starts = [start for _, _, start, _ in slices]
        policies = _component_policies(letter, k)
        options = []
        for pick in combinations_with_replacement(range(len(policies)), len(starts)):
            chosen = [policies[i] for i in pick]
            counts = ",".join(f"p{i}x{c}" for i, c in sorted(Counter(pick).items()))
            options.append(
                (
                    sum(size for size, _, _ in chosen),
                    tuple(tuple(m << s for m in alive) for s, (_, alive, _) in zip(starts, chosen)),
                    sum(1 << s + i for s, (_, _, nodes) in zip(starts, chosen) for i in nodes),
                    f"{letter}{k}:{counts}",
                )
            )
        per_type.append(options)
    witnesses = []
    for combo in product(*per_type):
        size = sum(t[0] for t in combo)
        if size >= 12:
            allowed = tuple(a for t in combo for a in t[1])
            curves = sum(t[2] for t in combo)
            description = "; ".join(t[3] for t in combo)
            witnesses.append(_Witness(size, size - 11, allowed, curves, description))
    witnesses.sort(key=lambda w: (w.required, w.size, w.description))
    return witnesses


# ---------------------------------------------------------------------------
# the checker


def check_nonexistence(config: ADEConfig) -> ObstructionReport:
    """Run the rank, length, counting and double-cover obstructions in order.

    The verdict is Excluded when some forced resource is unavailable: rank
    above 19, a set of r >= 12 disjoint curves without its r - 11
    independent admissible even sets, a p-primary length excess without
    enough p-divisible glue, or a forced even set all of whose double covers
    exceed rank 19.
    """
    rho = config.rank
    if rho > K3_RANK_LIMIT:
        step = _step("RankExceeds", rank=rho, rank_limit=K3_RANK_LIMIT)
        return ObstructionReport(config=config, verdict=EXCLUDED, steps=(step,))
    ctx = _Context(config)
    even = ctx.classes[2]
    steps: list[ObstructionStep] = []
    excluded = False

    factors = ctx.disc_factors
    bound = length_bound(rho, K3_AMBIENT_RANK)
    l2 = sum(1 for d in factors if d % 2 == 0)
    l3 = sum(1 for d in factors if d % 3 == 0)
    k2 = max(0, -((l2 - bound) // -2))
    k3 = max(0, -((l3 - bound) // -2))
    maxd = _disjoint_curves(config)
    witnesses = _witnesses(ctx)
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
        cands = _enumerate_candidates(even, w.allowed)
        if not excluded:
            basis, best = _find_code(even, cands, w.required)
            if basis is None:
                curves = " ".join(ctx.mask_labels(w.curves))
                steps.append(
                    _step(
                        "AdmissibleCandidateCount",
                        witness_curves=curves,
                        witness_size=w.size,
                        required_independent=w.required,
                        admissible_candidates=len(cands),
                        independent_found=best,
                    )
                )
                steps.append(
                    _step(
                        "IndependenceDeficit",
                        witness_curves=curves,
                        required=w.required,
                        available=best,
                    )
                )
                excluded = True
        bad = _cover_exceeds(ctx, w.allowed, cands)
        if bad is not None:
            example_mask, example_cover = bad
            steps.append(
                _step(
                    "CoverRankExceeds",
                    witness_curves=" ".join(ctx.mask_labels(w.curves)),
                    witness_size=w.size,
                    candidates=len(cands),
                    example_even_set=" ".join(ctx.mask_labels(example_mask)),
                    cover_config=(
                        example_cover.render() if example_cover else "not ADE"
                    ),
                    cover_rank=(example_cover.rank if example_cover else -1),
                    rank_limit=K3_RANK_LIMIT,
                )
            )
            excluded = True

    for prime, k in ((2, k2), (3, k3)):
        if k == 0 or excluded:
            continue
        cls = ctx.classes[prime]
        cands = _enumerate_candidates(cls, cls.patterns)
        basis, best = _find_code(cls, cands, k)
        steps.append(
            _step(
                "AdmissibleCandidateCount",
                scope="global",
                prime=prime,
                required_independent=k,
                admissible_candidates=len(cands),
                independent_found=best,
            )
        )
        if basis is None:
            steps.append(
                _step(
                    "IndependenceDeficit",
                    scope="global",
                    prime=prime,
                    required=k,
                    available=best,
                )
            )
            excluded = True

    return ObstructionReport(
        config=config,
        verdict=EXCLUDED if excluded else NO_OBSTRUCTION,
        steps=tuple(steps),
    )


def _cover_exceeds(ctx: _Context, allowed, cands: list[int]):
    """None if there is no candidate or some candidate has an ADE cover of
    rank <= 19, else the least candidate with its cover (None if not ADE).
    A cover is the sum of its components' `_local_cover` pieces, so the
    least ADE cover rank per support size is a knapsack over components."""
    live = _live_sizes(ctx.classes[2], allowed)
    least = {0: 0}  # support size -> least ADE cover rank
    for i, ((letter, k, start, _), pats) in enumerate(zip(ctx.graph.component_slices, allowed)):
        nxt: dict[int, int] = {}
        for p in (0, *pats):
            piece = _local_cover(letter, k, p >> start)
            if isinstance(piece, str):
                continue
            for t, r in least.items():
                if live[i + 1] >> (u := t + p.bit_count()) & 1:
                    nxt[u] = min(nxt.get(u, r + piece.rank), r + piece.rank)
        least = nxt
    if not cands or any(r <= K3_RANK_LIMIT for r in least.values()):
        return None
    pieces = _cover_pieces(ctx.graph, cands[0])
    ade = not any(isinstance(p, str) for p in pieces)
    return cands[0], (sum(pieces, ADEConfig()) if ade else None)


# ---------------------------------------------------------------------------
# Enriques census


def enriques_census() -> list[ADEConfig]:
    """Configurations C with m(C) = 12 and rank <= 9 whose doubling fits on
    the K3 double cover: m(2C) = 24, rank(2C) <= 19 and 2C unobstructed."""
    out = []
    for config in enumerate_configs(Fraction(12), 9):
        doubled = 2 * config
        if doubled.rank > K3_RANK_LIMIT or m_value(doubled) != 24:
            continue
        if not check_nonexistence(doubled).excluded:
            out.append(config)
    return out
