"""ADE curve configurations: parsing, Gram/Dynkin builders, the orbifold
deficiency m(C), invariant factors from cyclic orders and exhaustive census
search.

A configuration is a multiset of components A_n (n >= 1), D_n (n >= 4) and
E_6, E_7, E_8.  The canonical basis ordering inside a component is frozen:

* A_n: the chain C^1 .. C^n in path order;
* D_n: a path of n-2 nodes, then the two fork leaves attached to node n-2;
* E_n: a path of n-1 nodes, then the branch node attached to path node 3.

Component blocks are ordered A ascending, then D, then E.  Curve-level
builders and per-node tables refuse rank above K3_RANK_LIMIT with
RankLimitExceeded.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd, lcm, prod

from ._record import Record
from .lattice import GramLattice, connected_components, direct_sum, frac_str, primary_chain
from .snf import bareiss

ADE_E_RANKS = (6, 7, 8)
# the exceptional curves of a K3 span a negative-definite lattice of rank <= 19
K3_RANK_LIMIT = 19


class ParseError(ValueError):
    """Configuration text that does not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidComponent(ValueError):
    """A component outside the ADE family (D1-D3, E5, E9, ...)."""


class RankLimitExceeded(ValueError):
    """Rank above 19, which no K3 carries, given to a curve-level builder."""


class CensusTooLarge(ValueError):
    """A census with more configurations than `_CENSUS_CAP`."""


# about 2 s of walk at m = 200; the time per configuration grows with the catalogue
_CENSUS_CAP = 10_000
# the interpreter's default limit on the digits that int() reads or str() writes
_MAX_DIGITS = 4300
_TOO_LONG = 10**_MAX_DIGITS  # the least number of more than _MAX_DIGITS digits


def _check_rank(rank: int) -> None:
    if rank > K3_RANK_LIMIT:
        shown = rank if rank < _TOO_LONG else f"of more than {_MAX_DIGITS} digits"
        raise RankLimitExceeded(f"rank {shown} exceeds the K3 limit {K3_RANK_LIMIT}")


class ADEConfig(Record):
    """Counts of A/D/E components, keyed by n, stored as sorted pairs; the
    counts of a size given twice add up."""

    a: tuple[tuple[int, int], ...] = ()
    d: tuple[tuple[int, int], ...] = ()
    e: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        d = self.__dict__
        for letter, key in (("A", "a"), ("D", "d"), ("E", "e")):
            if not (pairs := d[key]):
                d[key] = ()
                continue
            clean = tuple([(int(n), int(c)) for n, c in pairs])
            if clean != pairs and clean != tuple(map(tuple, pairs)):
                raise ValueError("component sizes and counts must be integers")
            counts: dict[int, int] = {}
            for n, c in clean:
                if c:
                    _check_component(letter, n)
                    if c < 0:
                        raise ValueError("component counts must be nonnegative")
                    counts[n] = counts.get(n, 0) + c
            d[key] = tuple(sorted(counts.items()))

    @classmethod
    def from_counts(cls, counts: dict[tuple[str, int], int]) -> "ADEConfig":
        """Configuration from component counts {(letter, n): count}."""
        pairs: dict[str, list[tuple[int, int]]] = {"A": [], "D": [], "E": []}
        for (letter, n), c in counts.items():
            pairs[letter].append((n, c))
        return cls(tuple(pairs["A"]), tuple(pairs["D"]), tuple(pairs["E"]))

    def count(self, letter: str, n: int) -> int:
        pairs = {"A": self.a, "D": self.d, "E": self.e}[letter]
        return dict(pairs).get(n, 0)

    def terms(self) -> list[tuple[str, int, int]]:
        """(letter, n, count) per component type, in canonical block order;
        sizes and m are sums over these, never over a list of components."""
        return [
            (letter, n, c)
            for letter, pairs in (("A", self.a), ("D", self.d), ("E", self.e))
            for n, c in pairs
        ]

    def components(self) -> list[tuple[str, int]]:
        """Component list in canonical block order (A asc, D asc, E asc)."""
        return [(letter, n) for letter, n, c in self.terms() for _ in range(c)]

    @cached_property
    def rank(self) -> int:
        return sum(n * c for _, n, c in self.terms())

    def __add__(self, other: "ADEConfig") -> "ADEConfig":
        counts: Counter[tuple[str, int]] = Counter()
        for letter, n, c in self.terms() + other.terms():
            counts[letter, n] += c
        return ADEConfig.from_counts(counts)

    def __mul__(self, k: int) -> "ADEConfig":
        return ADEConfig(
            a=tuple((n, c * k) for n, c in self.a),
            d=tuple((n, c * k) for n, c in self.d),
            e=tuple((n, c * k) for n, c in self.e),
        )

    __rmul__ = __mul__

    def render(self) -> str:
        terms = self.terms()
        if any(max(n, c) >= _TOO_LONG for _, n, c in terms):
            raise ValueError(f"a count or size of more than {_MAX_DIGITS} digits cannot be printed")
        parts = [f"{c if c > 1 else ''}{letter}{n}" for letter, n, c in terms]
        return "+".join(parts) or "0"

    def __str__(self) -> str:
        return self.render()

    def sort_key(self) -> tuple:
        counts = [0] * len(_SORT_SLOTS)
        for letter, n, c in self.terms():
            if (slot := _SORT_SLOTS.get((letter, n))) is not None:
                counts[slot] = c
        # trailing exact tuples keep the order total beyond rank-19 parts
        return (self.rank, tuple(counts), self.a, self.d, self.e)

    def to_json_dict(self) -> dict:
        m = m_value(self)
        if max(self.rank, m.numerator, m.denominator) >= _TOO_LONG:  # the rank bounds every count and size
            raise ValueError(f"a rank or m of more than {_MAX_DIGITS} digits cannot be printed")
        return {
            "A": {str(n): c for n, c in self.a},
            "D": {str(n): c for n, c in self.d},
            "E": {str(n): c for n, c in self.e},
            "m": frac_str(m),
            "rank": self.rank,
        }


def _component_types(max_rank: int) -> list[tuple[str, int]]:
    """Every component type of rank <= max_rank: A, then D, then E, each ascending."""
    return ([("A", n) for n in range(1, max_rank + 1)] + [("D", n) for n in range(4, max_rank + 1)]
            + [("E", n) for n in ADE_E_RANKS if n <= max_rank])


# the 38 component types of rank <= 19, in `sort_key`'s count order
_SORT_SLOTS = {t: i for i, t in enumerate(_component_types(K3_RANK_LIMIT))}


def _check_component(letter: str, n: int) -> None:
    if letter == "A" and n >= 1:
        return
    if letter == "D" and n >= 4:
        return
    if letter == "E" and n in ADE_E_RANKS:
        return
    raise InvalidComponent(f"{letter}{n} is not an ADE component")


_TERM_RE = re.compile(r"(\d+)?([ADE])(\d+)$")


def parse_config(text: str) -> ADEConfig:
    """Parse '5A1+4A2+A5' style text; count defaults to 1, whitespace ignored."""
    counts: dict[tuple[str, int], int] = {}
    pos = 0
    for raw in text.split("+"):
        term = re.sub(r"\s+", "", raw)
        if not term:
            raise ParseError("empty term", pos)
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(f"malformed term {term!r}", pos)
        if max(len(m.group(1) or ""), len(m.group(3))) > _MAX_DIGITS:
            raise ParseError(f"more than {_MAX_DIGITS} digits in term {term!r}", pos)
        mult = int(m.group(1)) if m.group(1) else 1
        if not mult:
            raise ParseError(f"zero count in term {term!r}", pos)
        letter = m.group(2)
        n = int(m.group(3))
        _check_component(letter, n)
        key = (letter, n)
        counts[key] = counts.get(key, 0) + mult
        pos += len(raw) + 1
    return ADEConfig.from_counts(counts)


def _group_order(letter: str, n: int) -> int | None:
    """|G| for the finite group G of the quotient singularity of type letter_n:
    n+1 for A_n, 4(n-2) for D_n and 24, 48, 120 for E_6, E_7, E_8 (else None)."""
    return n + 1 if letter == "A" else 4 * (n - 2) if letter == "D" else {6: 24, 7: 48, 8: 120}.get(n)


def component_m(letter: str, n: int) -> Fraction:
    """m of one component: (n+1) - 1/|G| (`_group_order`)."""
    return Fraction(n + 1) - Fraction(1, _group_order(letter, n))


def m_value(config: ADEConfig) -> Fraction:
    """Orbifold Euler-number deficiency of the configuration: the sum of
    component_m over its components."""
    return sum((c * component_m(letter, n) for letter, n, c in config.terms()), Fraction(0))


def component_edges(letter: str, n: int) -> list[tuple[int, int]]:
    """Edges of one component in the canonical 0-based node ordering."""
    _check_component(letter, n)
    if letter == "A":
        return [(s, s + 1) for s in range(n - 1)]
    # a path through all nodes but the last, which hangs off node n - 3 (D) or 2 (E)
    return [(s, s + 1) for s in range(n - 2)] + [(n - 3 if letter == "D" else 2, n - 1)]


@lru_cache(maxsize=None)
def _neighbours(letter: str, n: int) -> tuple[int, ...]:
    """Bit mask of each node's neighbours in one component.  Every per-node
    table starts here, so a component of rank above 19 is refused first."""
    _check_rank(n)
    adj = [0] * n
    for i, j in component_edges(letter, n):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


@lru_cache(maxsize=None)
def _independent_sets(letter: str, n: int) -> tuple[int, ...]:
    """Every independent node set of one component, as increasing masks,
    built once by doubling over the nodes: F(n+2) sets for A_n."""
    adj = _neighbours(letter, n)
    sets = [0]  # each pass appends the sets whose top bit is i
    for i in range(n):
        sets += [s | 1 << i for s in sets if not s & adj[i]]
    return tuple(sets)


@lru_cache(maxsize=None)
def _largest_independent_set(letter: str, n: int) -> int:
    """The least of the largest independent node sets of one component."""
    return max(_independent_sets(letter, n), key=int.bit_count)


@lru_cache(maxsize=None)
def component_gram(letter: str, n: int) -> tuple[tuple[int, ...], ...]:
    adj = _neighbours(letter, n)
    return tuple(tuple(-2 if i == j else adj[i] >> j & 1 for j in range(n)) for i in range(n))


class DynkinGraph(Record):
    """Curve-level view: nodes labelled like 'A3.2.1', edges as index pairs."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    component_slices: tuple[tuple[str, int, int, int], ...]  # (letter, n, start, stop)


def _component_labels(config: ADEConfig) -> list[str]:
    labels = []
    seen: dict[tuple[str, int], int] = {}
    for letter, n in config.components():
        idx = seen.get((letter, n), 0) + 1
        seen[(letter, n)] = idx
        labels.extend(f"{letter}{n}.{idx}.{s+1}" for s in range(n))
    return labels


def dynkin(config: ADEConfig) -> DynkinGraph:
    _check_rank(config.rank)
    edges, slices, ofs = [], [], 0
    for letter, n in config.components():
        edges += [(ofs + i, ofs + j) for i, j in component_edges(letter, n)]
        slices.append((letter, n, ofs, ofs + n))
        ofs += n
    return DynkinGraph(tuple(_component_labels(config)), tuple(edges), tuple(slices))


def gram(config: ADEConfig, labels: tuple[str, ...] | None = None) -> GramLattice:
    _check_rank(config.rank)
    blocks = [component_gram(letter, n) for letter, n in config.components()]
    g = direct_sum(blocks)
    return GramLattice(
        gram=tuple(tuple(row) for row in g),
        basis_labels=labels or tuple(_component_labels(config)),
    )


def invariant_factors_from_orders(orders: list[int]) -> tuple[int, ...]:
    """Convert a multiset of cyclic orders to the invariant factor chain."""
    chain = primary_chain((o, None) for o in orders if o > 1)
    return tuple(prod(q for q, _, _ in parts) for parts in chain)


def max_disjoint_curves(config: ADEConfig) -> tuple[int, tuple[str, ...]]:
    """Size of a maximum set of pairwise disjoint curves, plus a witness."""
    graph = dynkin(config)
    witness: list[str] = []
    for letter, n, start, _ in graph.component_slices:
        best = _largest_independent_set(letter, n)
        witness += [graph.nodes[start + i] for i in range(n) if best >> i & 1]
    return len(witness), tuple(witness)


@lru_cache(maxsize=64)
def _component_catalog(max_rank: int) -> tuple[int, tuple[tuple[str, int, int], ...], tuple[int, ...]]:
    """(scale, items, grain): every ADE component of rank <= max_rank as
    (letter, n, m * scale), largest m first, scale the lcm of the m
    denominators, and grain[i] the gcd of the scaled m of items i.."""
    kinds = _component_types(max_rank)
    ms = [component_m(letter, n) for letter, n in kinds]
    scale = lcm(*(m.denominator for m in ms))
    items = sorted(((letter, n, m.numerator * (scale // m.denominator)) for (letter, n), m in zip(kinds, ms)),
                   key=lambda t: (-t[2], t[0], -t[1]))
    grain = [*accumulate((m for _, _, m in reversed(items)), gcd)][::-1]
    return scale, tuple(items), tuple(grain)


def enumerate_configs(m_target: Fraction | int | str, max_rank: int) -> list[ADEConfig]:
    """All configurations with m(C) exactly m_target and rank <= max_rank.

    The search is exhaustive: each component contributes m >= 3/2 and the
    densest component per unit of rank is A_1 (3/2 per rank), which bounds
    the tree.  It runs on m scaled to integers by the lcm of the catalog's
    denominators.  Components idx.. sum to multiples of their gcd (grain[idx])
    only, so a remainder off the grain ends a branch, and the last component,
    A_1, takes the remainder in one step.  The counts of a component step
    along the residue that leaves the remainder on the next grain, up to the
    rank that copies of A_1 leave over; a count of 0 moves on to the next
    component in the same call, so the recursion is only as deep as the
    number of component types in use.  Output sorted by (rank, counts); more
    than `_CENSUS_CAP` configurations raise CensusTooLarge.
    """
    m_target = Fraction(m_target)
    if m_target <= 0 or max_rank < 0:
        raise ValueError("m target must be positive and max rank nonnegative")
    if 2 * m_target > 3 * max_rank:  # A_1 gives the most m per unit of rank
        return []
    # component_m(letter, n) > n, so no component of rank above m fits
    scale, items, grain = _component_catalog(min(max_rank, int(m_target)))
    if (m_target * scale).denominator != 1:  # no sum of component m values
        return []
    results: list[ADEConfig] = []
    neg_m = [-m for _, _, m in items]
    waste = [3 * scale * n - 2 * m for _, n, m in items]
    steps = [b // a for a, b in zip(grain, grain[1:])]
    inverse = [pow(m // a, -1, step) for (_, _, m), a, step in zip(items, grain, steps)]

    def found(counts: dict) -> None:
        if len(results) == _CENSUS_CAP:
            raise CensusTooLarge(f"more than {_CENSUS_CAP} configurations with m = {m_target} "
                                 f"and rank <= {max_rank}")
        results.append(ADEConfig.from_counts(counts))

    def descend(idx: int, rem_m: int, slack: int, counts: dict) -> None:
        # slack = 3 rem_rank - 2 rem_m >= 0 (scaled) is the rank that copies of A_1
        # leave over; a copy of a component spends waste = 3n - 2m of it
        if rem_m == 0:
            return found(counts)
        # components idx.. whose m exceeds rem_m take a count of 0
        while (idx := bisect_left(neg_m, -rem_m, idx)) < len(items) and rem_m % grain[idx] == 0:
            letter, n, m_comp = items[idx]
            if idx + 1 == len(items):  # rem_m // m_comp copies of A_1, which the slack fits
                return found({**counts, (letter, n): rem_m // m_comp})
            # the counts c = c0 mod step leave the remainder on the next grain
            top, step = min(rem_m // m_comp, slack // waste[idx]), steps[idx]
            c0 = rem_m // grain[idx] * inverse[idx] % step
            for c in range(top - (top - c0) % step, 0, -step):
                descend(idx + 1, rem_m - c * m_comp, slack - c * waste[idx], {**counts, (letter, n): c})
            idx += 1

    descend(0, int(m_target * scale), int((3 * max_rank - 2 * m_target) * scale), {})
    del descend  # the closure refers to itself: free it now, not at a GC pass
    return sorted(results, key=ADEConfig.sort_key)


def classify_dynkin(n_nodes: int, edges: list[tuple[int, int]]) -> ADEConfig:
    """Recognize a disjoint union of ADE diagrams; raises ValueError if not.

    A connected graph is an ADE diagram exactly when 2I - A is positive
    definite, A counting the edges between two nodes; its rank and
    determinant then name it: det n + 1 for A_n, 4 for D_n (n >= 4) and
    3, 2, 1 for E_6, E_7, E_8.  Bareiss elimination checks definiteness: no
    swap, and every pivot (a leading principal minor) positive.
    """
    adj: list[set[int]] = [set() for _ in range(n_nodes)]
    meets: Counter[tuple[int, int]] = Counter()
    for i, j in edges:
        if i == j:
            raise ValueError("self loop")
        adj[i].add(j)
        adj[j].add(i)
        meets[i, j] += 1
        meets[j, i] += 1
    counts: Counter[tuple[str, int]] = Counter()
    for comp in connected_components(adj):
        n = len(comp)
        swaps, rows = bareiss([[2 if i == j else -meets[i, j] for j in comp] for i in comp])
        if swaps or len(rows) < n or any(rows[k][k] <= 0 for k in range(n)):
            raise ValueError("not an ADE diagram")
        det = rows[-1][-1]
        counts["A" if det == n + 1 else "D" if det == 4 else "E", n] += 1
    return ADEConfig.from_counts(counts)
