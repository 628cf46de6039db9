"""Even sets, 3-divisible sets and the configuration nonexistence checker.

A half-sum (1/2) sum_{C in S} C of configuration curves lies in the dual
lattice exactly when S consists of pairwise disjoint curves and every curve
outside S meets an even number of curves of S; on a K3 surface the support
of such a 2-divisible class has 8 or 16 curves.  Likewise a 3-divisible
class (1/3) sum (C^1 + 2 C^2) is supported on 6 or 9 pairwise disjoint A_2
sub-configurations.  Candidates are computed per component from the torsion
of the component discriminant groups, so obstructions like "an A_2 inside
an A_3 is never 3-divisible" fall out of the integrality test itself.

The nonexistence checker combines three mechanisms:

* counting: any set R of r >= 12 pairwise disjoint curves forces an
  F_2-space of divisible classes supported on R of dimension r - 11, all of
  whose nonzero elements must be admissible candidates;
* global length: the discriminant group of a rank-rho configuration inside
  the rank-22 unimodular K3 lattice must reach length <= min(rho, 22 - rho)
  after gluing, counted prime by prime (order-2 glue comes from even sets,
  order-3 glue from 3-divisible sets);
* double covers: a forced even set produces a double cover whose curve
  configuration must again fit on a K3 (rank <= 19).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .ade import (
    ADEConfig,
    classify_dynkin,
    component_edges,
    component_gram,
    dynkin,
    enumerate_configs,
    gram,
    m_value,
    max_disjoint_curves,
)
from .lattice import GramLattice, connected_components, discriminant_group

K3_AMBIENT_RANK = 22
EVEN_SUPPORT_SIZES = (8, 16)
THREE_SUPPORT_SIZES = (6, 9)
COVER_RANK_LIMIT = 19

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
    g = GramLattice(gram=tuple(tuple(r) for r in component_gram(letter, n)))
    return discriminant_group(g)


@lru_cache(maxsize=None)
def _even_patterns_local(letter: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Supports of the nonzero 2-torsion dual classes (node index tuples)."""
    disc = _component_disc(letter, n)
    halves = [
        (g, d // 2) for d, g in zip(disc.invariant_factors, disc.generators) if d % 2 == 0
    ]
    pats = set()
    for bits in range(1, 1 << len(halves)):
        x = [Fraction(0)] * n
        for t, (g, c) in enumerate(halves):
            if bits >> t & 1:
                for j in range(n):
                    x[j] = (x[j] + c * g[j]) % 1
        supp = tuple(j for j in range(n) if x[j])
        if supp:
            if any(x[j] != Fraction(1, 2) for j in supp):
                raise AssertionError("2-torsion class is not a half-sum")
            pats.add(supp)
    return tuple(sorted(pats))


@lru_cache(maxsize=None)
def _three_patterns_local(letter: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Coefficient vectors (mod 3) of the nonzero 3-torsion dual classes.

    Only classes that decompose into disjoint, mutually non-adjacent
    adjacent pairs carrying coefficients {1, 2} qualify as supports of
    3-divisible sets.
    """
    disc = _component_disc(letter, n)
    thirds = [
        (g, d // 3) for d, g in zip(disc.invariant_factors, disc.generators) if d % 3 == 0
    ]
    adj = [set() for _ in range(n)]
    for i, j in component_edges(letter, n):
        adj[i].add(j)
        adj[j].add(i)
    pats = set()
    for combo in product(range(3), repeat=len(thirds)):
        if not any(combo):
            continue
        x = [Fraction(0)] * n
        for c, (g, third) in zip(combo, thirds):
            if c:
                for j in range(n):
                    x[j] = (x[j] + c * third * g[j]) % 1
        coeffs = tuple(int(3 * v) for v in x)
        if any(3 * v != int(3 * v) for v in x):
            raise AssertionError("3-torsion class is not a third-sum")
        if _pairs_of_coeffs(coeffs, adj) is not None:
            pats.add(coeffs)
    return tuple(sorted(pats))


def _pairs_of_coeffs(coeffs, adj) -> tuple[tuple[int, int], ...] | None:
    """Decompose a mod-3 coefficient vector into oriented disjoint A_2 pairs."""
    support = [i for i, c in enumerate(coeffs) if c]
    seen = set()
    pairs = []
    for i in support:
        if i in seen:
            continue
        partners = [j for j in adj[i] if coeffs[j]]
        if len(partners) != 1:
            return None
        j = partners[0]
        if [k for k in adj[j] if coeffs[k]] != [i]:
            return None
        if {coeffs[i], coeffs[j]} != {1, 2}:
            return None
        seen.update((i, j))
        pairs.append((i, j) if coeffs[i] == 1 else (j, i))
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# configuration context


class _Context:
    def __init__(self, config: ADEConfig):
        self.config = config
        self.graph = dynkin(config)
        self.lattice = gram(config)
        self.labels = self.graph.nodes
        self.n = len(self.labels)
        self.comps = self.graph.component_nodes()  # (letter, n, node tuple)
        self.comp_masks = []
        self.even_patterns: list[list[int]] = []  # global masks per component
        self.even_pattern_sets: list[set[int]] = []
        self.three_patterns: list[list[tuple[int, ...]]] = []  # global coeff tuples
        self.three_pattern_sets: list[set[tuple[int, ...]]] = []
        for letter, k, nodes in self.comps:
            mask = 0
            for node in nodes:
                mask |= 1 << node
            self.comp_masks.append(mask)
            pats = []
            for supp in _even_patterns_local(letter, k):
                pats.append(sum(1 << nodes[i] for i in supp))
            self.even_patterns.append(sorted(pats))
            self.even_pattern_sets.append(set(pats))
            tpats = []
            for coeffs in _three_patterns_local(letter, k):
                full = [0] * self.n
                for i, c in enumerate(coeffs):
                    full[nodes[i]] = c
                tpats.append(tuple(full))
            self.three_patterns.append(sorted(tpats))
            self.three_pattern_sets.append({t for t in tpats})

    def even_class_ok(self, mask: int) -> bool:
        if bin(mask).count("1") not in EVEN_SUPPORT_SIZES:
            return False
        for cmask, pats in zip(self.comp_masks, self.even_pattern_sets):
            sub = mask & cmask
            if sub and sub not in pats:
                return False
        return True

    def three_class_ok(self, coeffs: tuple[int, ...]) -> bool:
        nonzero = sum(1 for c in coeffs if c)
        if nonzero // 2 not in THREE_SUPPORT_SIZES or nonzero % 2:
            return False
        for (letter, k, nodes), pats in zip(self.comps, self.three_pattern_sets):
            if any(coeffs[i] for i in nodes):
                sub = tuple(coeffs[i] if i in nodes else 0 for i in range(self.n))
                if sub not in pats:
                    return False
        return True

    def mask_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in range(self.n) if mask >> i & 1)


def _enumerate_even_masks(ctx: _Context, allowed: list[list[int]]) -> list[int]:
    """All pattern combinations whose total support size is 8 or 16."""
    sizes = [max((bin(p).count("1") for p in pats), default=0) for pats in allowed]
    suffix = [0] * (len(allowed) + 1)
    for i in range(len(allowed) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sizes[i]
    out = []
    target_max = max(EVEN_SUPPORT_SIZES)

    def walk(i: int, mask: int, size: int) -> None:
        if size > target_max:
            return
        if i == len(allowed):
            if size in EVEN_SUPPORT_SIZES:
                out.append(mask)
            return
        if size + suffix[i] < min(EVEN_SUPPORT_SIZES):
            return
        walk(i + 1, mask, size)
        for p in allowed[i]:
            walk(i + 1, mask | p, size + bin(p).count("1"))

    walk(0, 0, 0)
    return sorted(out)


def _enumerate_three_vectors(ctx: _Context) -> list[tuple[int, ...]]:
    """All 3-divisible candidates: pattern combinations with 6 or 9 pairs."""
    out = []
    allowed = ctx.three_patterns
    sizes = [max((sum(1 for c in p if c) for p in pats), default=0) for pats in allowed]
    suffix = [0] * (len(allowed) + 1)
    for i in range(len(allowed) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sizes[i]
    max_curves = max(THREE_SUPPORT_SIZES) * 2

    def walk(i: int, coeffs: tuple[int, ...], size: int) -> None:
        if size > max_curves:
            return
        if i == len(allowed):
            if size // 2 in THREE_SUPPORT_SIZES:
                out.append(coeffs)
            return
        if size + suffix[i] < min(THREE_SUPPORT_SIZES) * 2:
            return
        walk(i + 1, coeffs, size)
        for p in allowed[i]:
            merged = tuple(a + b for a, b in zip(coeffs, p))
            walk(i + 1, merged, size + sum(1 for c in p if c))

    walk(0, tuple([0] * ctx.n), 0)
    return sorted(set(out))


# ---------------------------------------------------------------------------
# public candidate operations


def even_set_candidates(config: ADEConfig) -> list[DivisibleCandidate]:
    """All admissible even-set candidates: 8 or 16 disjoint curves whose
    half-sum pairs integrally with every curve of the configuration."""
    ctx = _Context(config)
    masks = _enumerate_even_masks(ctx, ctx.even_patterns)
    out = []
    for mask in masks:
        vectorc = tuple(
            Fraction(1, 2) if mask >> i & 1 else Fraction(0) for i in range(ctx.n)
        )
        out.append(DivisibleCandidate(2, ctx.mask_labels(mask), vectorc))
    out.sort(key=lambda c: (len(c.support), c.support))
    return out


def three_divisible_candidates(config: ADEConfig) -> list[DivisibleCandidate]:
    """All admissible 3-divisible candidates: 6 or 9 disjoint oriented A_2
    sub-configurations whose weighted third-sum is integral against all
    curves."""
    ctx = _Context(config)
    adj = [set() for _ in range(ctx.n)]
    for i, j in ctx.graph.edges:
        adj[i].add(j)
        adj[j].add(i)
    out = []
    for coeffs in _enumerate_three_vectors(ctx):
        pairs = _pairs_of_coeffs(coeffs, adj)
        if pairs is None:
            raise AssertionError("candidate coefficients fail to decompose")
        support = tuple((ctx.labels[i], ctx.labels[j]) for i, j in pairs)
        vectorc = tuple(Fraction(c, 3) for c in coeffs)
        out.append(DivisibleCandidate(3, support, vectorc))
    out.sort(key=lambda c: (len(c.support), c.support))
    return out


def required_even_sets(config: ADEConfig) -> int:
    """Number of independent even sets forced by r disjoint curves: r - 11."""
    r, _ = max_disjoint_curves(config)
    return max(0, r - 11)


# ---------------------------------------------------------------------------
# double cover transform


def double_cover_transform(config: ADEConfig, candidate) -> ADEConfig:
    """Configuration on the double cover branched over an even set.

    Rules: a branch curve pulls back to a (-1)-curve; a curve disjoint from
    the branch splits into two copies; a curve meeting the branch in two
    points pulls back to one (-4)-curve through the corresponding branch
    preimages.  All (-1)-curves are then contracted iteratively and the
    result is recognized as an ADE configuration.
    """
    ctx = _Context(config)
    if isinstance(candidate, DivisibleCandidate):
        support = set(candidate.support)
    else:
        support = set(candidate)
    index_of = {lab: i for i, lab in enumerate(ctx.labels)}
    mask = 0
    for lab in support:
        mask |= 1 << index_of[lab]
    return _transform_mask(ctx, mask)


def _transform_mask(ctx: _Context, mask: int) -> ADEConfig:
    n = ctx.n
    g = ctx.lattice.gram
    in_branch = [bool(mask >> i & 1) for i in range(n)]
    branch_hits = [
        sum(g[i][j] for j in range(n) if in_branch[j] and j != i) for i in range(n)
    ]
    for i in range(n):
        if not in_branch[i]:
            if branch_hits[i] > 2:
                raise NonReducedIntersection(
                    f"curve {ctx.labels[i]} meets the branch in {branch_hits[i]} points"
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

    nodes = []  # (orig, kind, copy)
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
    for a in range(size):
        ia, ka, ca = nodes[a]
        cov[a][a] = {"branch": -1, "ram": -4, "split": -2}[ka]
        for b in range(a + 1, size):
            ib, kb, cb = nodes[b]
            inter = g[ia][ib] if ia != ib else 0
            if ka == "branch" and kb == "branch":
                val = 0
            elif {ka, kb} == {"branch", "ram"}:
                val = inter
            elif {ka, kb} == {"branch", "split"}:
                val = 0
            elif ka == "ram" and kb == "ram":
                val = 2 * inter
            elif {ka, kb} == {"ram", "split"}:
                val = inter
            else:  # split-split
                val = inter if (cluster[ia] == cluster[ib] and ca == cb) else 0
            cov[a][b] = cov[b][a] = val

    # contract (-1)-curves until none remain
    while True:
        e = next((i for i in range(len(cov)) if cov[i][i] == -1), None)
        if e is None:
            break
        keep = [i for i in range(len(cov)) if i != e]
        cov = [
            [cov[i][j] + cov[i][e] * cov[j][e] for j in keep] for i in keep
        ]

    for i in range(len(cov)):
        if cov[i][i] != -2:
            raise NotADEAfterContraction(
                f"contracted curve has self-intersection {cov[i][i]}"
            )
        for j in range(i + 1, len(cov)):
            if cov[i][j] not in (0, 1):
                raise NotADEAfterContraction(
                    f"contracted intersection number {cov[i][j]}"
                )
    edges = [
        (i, j)
        for i in range(len(cov))
        for j in range(i + 1, len(cov))
        if cov[i][j] == 1
    ]
    try:
        return classify_dynkin(len(cov), edges)
    except ValueError as exc:
        raise NotADEAfterContraction(str(exc)) from exc


# ---------------------------------------------------------------------------
# F_2 / F_3 code search (everywhere-admissible subspaces)


def _find_f2_code(cands: list[int], k: int, is_ok) -> tuple[list[int] | None, int]:
    """Search for an F_2 subspace of dimension k all of whose nonzero
    elements are admissible.  Returns (basis or None, best dimension seen)."""
    if k == 0:
        return [], 0
    cands = sorted(cands)
    best_seen = 0
    basis: list[int] = []
    span: list[int] = [0]
    span_set: set[int] = {0}

    def extend(start: int) -> bool:
        nonlocal best_seen
        best_seen = max(best_seen, len(basis))
        if len(basis) == k:
            return True
        for idx in range(start, len(cands)):
            v = cands[idx]
            if v in span_set:
                continue
            if all(is_ok(v ^ w) for w in span if w):
                basis.append(v)
                old_len = len(span)
                span.extend(v ^ w for w in span[:old_len])
                span_set.update(span[old_len:])
                if extend(idx + 1):
                    return True
                basis.pop()
                for w in span[old_len:]:
                    span_set.discard(w)
                del span[old_len:]
        return False

    found = extend(0)
    return (basis if found else None), (k if found else best_seen)


_PURE_A1_THRESHOLD = {1: 8, 2: 12, 3: 14, 4: 15, 5: 16}


def _pure_a1_code(usable: list[int], k: int):
    """Constructive weight-{8,16} F_2 codes when all patterns are single
    curves.  Returns (basis or None, best achievable dimension)."""
    cap = max((d for d, t in _PURE_A1_THRESHOLD.items() if t <= len(usable)), default=0)
    if k > cap:
        return None, cap
    if k == 0:
        return [], 0
    pos = usable

    def mask_of(idxs):
        m = 0
        for i in idxs:
            m |= 1 << pos[i]
        return m

    if k <= 2:
        basis = [mask_of(range(8))]
        if k == 2:
            basis.append(mask_of(range(4, 12)))
        return basis, k
    if k == 3:
        # positions 0..13 <-> doubled points of F_2^3 \ 0
        basis = [
            mask_of([2 * t + s for t in range(7) for s in (0, 1) if bin((t + 1) & w).count("1") % 2])
            for w in (1, 2, 4)
        ]
        return basis, k
    if k == 4:
        basis = [
            mask_of([t - 1 for t in range(1, 16) if bin(t & w).count("1") % 2])
            for w in (1, 2, 4, 8)
        ]
        return basis, k
    basis = [
        mask_of([t for t in range(16) if bin(t & w).count("1") % 2])
        for w in (1, 2, 4, 8)
    ]
    basis.append(mask_of(range(16)))
    return basis, 5


def _find_even_code(ctx: _Context, allowed: list[list[int]], k: int, cands: list[int]):
    """Find an everywhere-admissible F_2 code of dimension k among the even
    candidates `cands`, enumerated from the per-component allowed patterns."""
    if k == 0:
        return [], 0
    if all(bin(p).count("1") == 1 for pats in allowed for p in pats):
        usable = sorted(p.bit_length() - 1 for pats in allowed for p in pats)
        basis, best = _pure_a1_code(usable, k)
        if basis is not None:
            for v in _span_f2(basis):
                if v and not ctx.even_class_ok(v):
                    raise AssertionError("constructed code fails admissibility")
        return basis, best
    return _find_f2_code(cands, k, ctx.even_class_ok)


def _span_f2(basis: list[int]) -> list[int]:
    span = [0]
    for v in basis:
        span += [v ^ w for w in span]
    return span


def _find_f3_code(ctx: _Context, k: int, cands: list[tuple[int, ...]]):
    """F_3 analogue for 3-divisible classes among the ternary candidates
    `cands` (constructive for pure n A_2)."""
    if k == 0:
        return [], 0
    if not cands:
        return None, 0
    pure_a2 = all(letter == "A" and kk == 2 for letter, kk, _ in ctx.comps)
    if pure_a2 and len(ctx.comps) == 9 and k <= 3:
        # slots <-> points of F_3^2; affine functionals give weights {6, 9}
        slots = [nodes for _, _, nodes in ctx.comps]

        def coeff_vec(values):
            out = [0] * ctx.n
            for slot, c in zip(slots, values):
                out[slot[0]] = c
                out[slot[1]] = (2 * c) % 3
            return tuple(out)

        points = [(x, y) for x in range(3) for y in range(3)]
        basis = [
            coeff_vec([1] * 9),
            coeff_vec([p[0] for p in points]),
            coeff_vec([p[1] for p in points]),
        ][:k]
        for v in _span_f3(basis, ctx.n):
            if any(v) and not ctx.three_class_ok(v):
                raise AssertionError("constructed ternary code fails admissibility")
        return basis, k

    def add(u, v):
        return tuple((a + b) % 3 for a, b in zip(u, v))

    def dbl(u):
        return tuple((2 * a) % 3 for a in u)

    best_seen = 0
    basis: list[tuple[int, ...]] = []
    span: list[tuple[int, ...]] = [tuple([0] * ctx.n)]

    def extend(start: int) -> bool:
        nonlocal best_seen
        best_seen = max(best_seen, len(basis))
        if len(basis) == k:
            return True
        for idx in range(start, len(cands)):
            v = cands[idx]
            if v in span:
                continue
            new = [add(v, w) for w in span] + [add(dbl(v), w) for w in span]
            if all(ctx.three_class_ok(u) for u in new if any(u)):
                basis.append(v)
                old = list(span)
                span.extend(new)
                if extend(idx + 1):
                    return True
                basis.pop()
                del span[len(old):]
        return False

    found = extend(0)
    return (basis if found else None), (k if found else best_seen)


def _span_f3(basis, n):
    span = [tuple([0] * n)]
    for v in basis:
        new = []
        for w in span:
            u1 = tuple((a + b) % 3 for a, b in zip(v, w))
            u2 = tuple((2 * a + b) % 3 for a, b in zip(v, w))
            new += [u1, u2]
        span += new
    return span


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
    pattern set (up to diagram automorphism), keeping the largest set.

    Returns tuples (size, alive_local_masks (sorted tuple), indset nodes).
    """
    patterns = [sum(1 << i for i in supp) for supp in _even_patterns_local(letter, n)]
    edges = component_edges(letter, n)
    autos = _component_autos(letter, n)

    def apply(perm: tuple[int, ...], mask: int) -> int:
        out = 0
        for i in range(n):
            if mask >> i & 1:
                out |= 1 << perm[i]
        return out

    def canon(alive: tuple[int, ...]) -> tuple[int, ...]:
        return min(tuple(sorted(apply(p, m) for m in alive)) for p in autos)

    best: dict[tuple[int, ...], tuple[int, int]] = {}
    if n <= 14:
        adj = [0] * n
        for i, j in edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        for s in range(1 << n):
            if any(s & adj[i] for i in range(n) if s >> i & 1):
                continue
            alive = tuple(sorted(p for p in patterns if p & ~s == 0))
            key = canon(alive)
            size = bin(s).count("1")
            if key not in best or size > best[key][0]:
                best[key] = (size, s)
    else:
        # large components: single max-independent-set policy
        from .ade import _component_mis

        size, chosen = _component_mis(letter, n)
        s = sum(1 << i for i in chosen)
        alive = tuple(sorted(p for p in patterns if p & ~s == 0))
        best[canon(alive)] = (size, s)
    out = []
    for key, (size, s) in best.items():
        alive = tuple(sorted(p for p in patterns if p & ~s == 0))
        out.append((size, alive, tuple(i for i in range(n) if s >> i & 1)))
    out.sort(key=lambda t: (-t[0], t[1]))
    return tuple(out)


@dataclass(frozen=True)
class _Witness:
    size: int
    required: int
    allowed: tuple[tuple[int, ...], ...]  # per component: global pattern masks
    curves: tuple[str, ...]
    description: str


def _witnesses(ctx: _Context) -> list[_Witness]:
    groups: dict[tuple[str, int], list[int]] = {}
    for idx, (letter, k, _) in enumerate(ctx.comps):
        groups.setdefault((letter, k), []).append(idx)
    per_type = []
    for (letter, k), members in sorted(groups.items()):
        policies = _component_policies(letter, k)
        assignments = list(
            combinations_with_replacement(range(len(policies)), len(members))
        )
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
                _, _, comp_nodes = ctx.comps[comp_idx]
                allowed[comp_idx] = tuple(
                    sum(1 << comp_nodes[i] for i in range(k) if m >> i & 1)
                    for m in alive_local
                )
                curve_nodes.extend(comp_nodes[i] for i in nodes_local)
            desc_parts.append(
                f"{letter}{k}:" + ",".join(f"p{p}x{c}" for p, c in sorted(counts.items()))
            )
        if size < 12:
            continue
        witnesses.append(
            _Witness(
                size=size,
                required=size - 11,
                allowed=tuple(allowed[i] for i in range(len(ctx.comps))),
                curves=tuple(ctx.labels[i] for i in sorted(curve_nodes)),
                description="; ".join(desc_parts),
            )
        )
    witnesses.sort(key=lambda w: (w.required, w.size, w.description))
    return witnesses


# ---------------------------------------------------------------------------
# the checker


def check_nonexistence(config: ADEConfig) -> ObstructionReport:
    """Run the length, counting and double-cover obstructions in order.

    The verdict is Excluded when some forced resource is unavailable: a set
    of r >= 12 disjoint curves without its r - 11 independent admissible
    even sets, a p-primary length excess without enough p-divisible glue,
    or a forced even set all of whose double covers exceed rank 19.
    """
    ctx = _Context(config)
    steps: list[ObstructionStep] = []
    excluded = False

    rho = config.rank
    disc = discriminant_group(ctx.lattice)
    bound = min(rho, K3_AMBIENT_RANK - rho)
    l2 = disc.primary_length(2)
    l3 = disc.primary_length(3)
    k2 = max(0, -((l2 - bound) // -2))
    k3 = max(0, -((l3 - bound) // -2))
    maxd, _ = max_disjoint_curves(config)
    witnesses = _witnesses(ctx)
    steps.append(
        _step(
            "LengthRequirement",
            rank=rho,
            ambient_rank=K3_AMBIENT_RANK,
            disc_group=disc.symbol(),
            disc_length=disc.length,
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
        allowed = [list(a) for a in w.allowed]
        cands = _enumerate_even_masks(ctx, allowed)
        if not excluded:
            basis, best = _find_even_code(ctx, allowed, w.required, cands)
            if basis is None:
                steps.append(
                    _step(
                        "AdmissibleCandidateCount",
                        witness_curves=" ".join(w.curves),
                        witness_size=w.size,
                        required_independent=w.required,
                        admissible_candidates=len(cands),
                        independent_found=best,
                    )
                )
                steps.append(
                    _step(
                        "IndependenceDeficit",
                        witness_curves=" ".join(w.curves),
                        required=w.required,
                        available=best,
                    )
                )
                excluded = True
        if cands:
            good, first_bad = _cover_scan(ctx, cands)
            if good is None:
                example_mask, example_cover = first_bad
                steps.append(
                    _step(
                        "CoverRankExceeds",
                        witness_curves=" ".join(w.curves),
                        witness_size=w.size,
                        candidates=len(cands),
                        example_even_set=" ".join(ctx.mask_labels(example_mask)),
                        cover_config=(
                            example_cover.render() if example_cover else "not ADE"
                        ),
                        cover_rank=(example_cover.rank if example_cover else -1),
                        rank_limit=COVER_RANK_LIMIT,
                    )
                )
                excluded = True

    for prime, k in ((2, k2), (3, k3)):
        if k == 0:
            continue
        if prime == 2:
            cands2 = _enumerate_even_masks(ctx, ctx.even_patterns)
            total = len(cands2)
            if not excluded:
                basis, best = _find_even_code(ctx, ctx.even_patterns, k, cands2)
            else:
                basis, best = [], -1
        else:
            cands3 = _enumerate_three_vectors(ctx)
            total = len(cands3)
            if not excluded:
                basis, best = _find_f3_code(ctx, k, cands3)
            else:
                basis, best = [], -1
        if best >= 0:
            steps.append(
                _step(
                    "AdmissibleCandidateCount",
                    scope="global",
                    prime=prime,
                    required_independent=k,
                    admissible_candidates=total,
                    independent_found=(k if basis is not None else best),
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


def _cover_scan(ctx: _Context, masks: list[int]):
    """First candidate with a rank <= 19 ADE cover, else the first bad one."""
    first_bad = None
    for mask in masks:
        try:
            cover = _transform_mask(ctx, mask)
        except (NotADEAfterContraction, NonReducedIntersection):
            if first_bad is None:
                first_bad = (mask, None)
            continue
        if cover.rank <= COVER_RANK_LIMIT:
            return (mask, cover), first_bad
        if first_bad is None:
            first_bad = (mask, cover)
    return None, first_bad


# ---------------------------------------------------------------------------
# Enriques census


def enriques_census() -> list[ADEConfig]:
    """Configurations C with m(C) = 12 and rank <= 9 whose doubling fits on
    the K3 double cover: m(2C) = 24, rank(2C) <= 19 and 2C unobstructed."""
    out = []
    for config in enumerate_configs(Fraction(12), 9):
        doubled = 2 * config
        if doubled.rank > 19 or m_value(doubled) != 24:
            continue
        if not check_nonexistence(doubled).excluded:
            out.append(config)
    return out
