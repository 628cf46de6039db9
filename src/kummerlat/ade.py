"""ADE curve configurations: parsing, Gram/Dynkin builders, the orbifold
deficiency m(C), invariant factors from cyclic orders and exhaustive census
search.

A configuration is a multiset of components A_n (n >= 1), D_n (n >= 4) and
E_6, E_7, E_8.  The canonical basis ordering inside a component is frozen:

* A_n: the chain C^1 .. C^n in path order;
* D_n: a path of n-2 nodes, then the two fork leaves attached to node n-2;
* E_n: a path of n-1 nodes, then the branch node attached to path node 3.

Component blocks are ordered A ascending, then D, then E: the sorted order
of the (letter, n, count) terms that are an `ADEConfig`'s one field.
Curve-level builders and per-node tables refuse rank above K3_RANK_LIMIT
with RankLimitExceeded.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import lru_cache
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
# the interpreter's limit on the digits that int() reads or str() writes, at most its
# default 4300 (also in place of 0, no limit), which keeps parsing bounded in time
_MAX_DIGITS = min(getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300, 4300)
_TOO_LONG = 10**_MAX_DIGITS  # the least number of more than _MAX_DIGITS digits


def _check_rank(rank: int) -> None:
    if rank > K3_RANK_LIMIT:
        raise RankLimitExceeded(f"rank {rank} exceeds the K3 limit {K3_RANK_LIMIT}")


class ADEConfig(Record):
    """A configuration as its one field `terms`: a (letter, n, count) triple
    per component type, sorted, which is the canonical block order.  The
    constructor is the one way to build one: it checks each component, adds
    up the counts of a type given twice, drops zero counts and sets `rank`.
    It refuses with ValueError a configuration whose rank or m has more than
    `_MAX_DIGITS` digits, which str() would refuse to write."""

    terms: tuple[tuple[str, int, int], ...] = ()

    def __post_init__(self):
        counts: dict[tuple[str, int], int] = {}
        rank = 0
        for letter, size, count in self.terms:
            if (n := int(size)) != size or (c := int(count)) != count:
                raise ValueError("component sizes and counts must be integers")
            if c:
                _check_component(letter, n)
                if c < 0:
                    raise ValueError("component counts must be nonnegative")
                counts[letter, n] = counts.get((letter, n), 0) + c
                rank += n * c
        self.__dict__.update(terms=tuple(sorted((*t, c) for t, c in counts.items())), rank=rank)
        # The rank bounds every count and size, and m >= rank; it is tested
        # first, since m over many sizes of thousands of digits takes seconds.
        # Below rank 1000, m prints under the least limit the interpreter
        # allows, 640 digits: den(m) divides the lcm of the |G| of at most
        # 2 sqrt(rank) + 3 < 67 distinct types (k distinct A or D sizes sum to
        # at least k**2 / 4), each |G| <= 4 rank + 120 < 4120, and m < 2 rank,
        # so m has under 250 digits.
        if rank >= 1000 and (rank >= _TOO_LONG or max(m_value(self).as_integer_ratio()) >= _TOO_LONG):
            raise ValueError(f"a configuration with a rank or m of more than {_MAX_DIGITS} digits"
                             " cannot be printed")

    def components(self) -> list[tuple[str, int]]:
        """Component list in canonical block order (A asc, D asc, E asc)."""
        return [(letter, n) for letter, n, c in self.terms for _ in range(c)]

    def __add__(self, other: "ADEConfig") -> "ADEConfig":
        return ADEConfig(self.terms + other.terms)

    def __mul__(self, k: int) -> "ADEConfig":
        return ADEConfig([(letter, n, c * k) for letter, n, c in self.terms])

    __rmul__ = __mul__

    def render(self) -> str:
        parts = [f"{c if c > 1 else ''}{letter}{n}" for letter, n, c in self.terms]
        return "+".join(parts) or "0"

    def __str__(self) -> str:
        return self.render()

    def sort_key(self) -> tuple:
        counts = [0] * len(_SORT_SLOTS)
        for letter, n, c in self.terms:
            if (slot := _SORT_SLOTS.get((letter, n))) is not None:
                counts[slot] = c
        # trailing exact (n, count) lists per letter keep the order total beyond rank-19 parts
        exact = (tuple([(n, c) for x, n, c in self.terms if x == letter]) for letter in "ADE")
        return (self.rank, tuple(counts), *exact)

    def to_json_dict(self) -> dict:
        return {letter: {str(n): c for x, n, c in self.terms if x == letter} for letter in "ADE"} | {
            "m": frac_str(m_value(self)), "rank": self.rank}


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
    terms = []
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
        terms.append((m.group(2), int(m.group(3)), mult))
        pos += len(raw) + 1
    return ADEConfig(terms)


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
    return sum((c * component_m(letter, n) for letter, n, c in config.terms), Fraction(0))


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
        gram=tuple([tuple(row) for row in g]),
        basis_labels=labels or tuple(_component_labels(config)),
    )


def invariant_factors_from_orders(orders: list[int]) -> tuple[int, ...]:
    """Convert a multiset of cyclic orders to the invariant factor chain."""
    chain = primary_chain((o, None) for o in orders if o > 1)
    return tuple([prod(q for q, _, _ in parts) for parts in chain])


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

    def found(terms: tuple) -> None:
        if len(results) == _CENSUS_CAP:
            raise CensusTooLarge(f"more than {_CENSUS_CAP} configurations with m = {m_target} "
                                 f"and rank <= {max_rank}")
        results.append(ADEConfig(terms))

    def descend(idx: int, rem_m: int, slack: int, terms: tuple) -> None:
        # slack = 3 rem_rank - 2 rem_m >= 0 (scaled) is the rank that copies of A_1
        # leave over; a copy of a component spends waste = 3n - 2m of it
        if rem_m == 0:
            return found(terms)
        # components idx.. whose m exceeds rem_m take a count of 0
        while (idx := bisect_left(neg_m, -rem_m, idx)) < len(items) and rem_m % grain[idx] == 0:
            letter, n, m_comp = items[idx]
            if idx + 1 == len(items):  # rem_m // m_comp copies of A_1, which the slack fits
                return found((*terms, (letter, n, rem_m // m_comp)))
            # the counts c = c0 mod step leave the remainder on the next grain
            top, step = min(rem_m // m_comp, slack // waste[idx]), steps[idx]
            c0 = rem_m // grain[idx] * inverse[idx] % step
            for c in range(top - (top - c0) % step, 0, -step):
                descend(idx + 1, rem_m - c * m_comp, slack - c * waste[idx], (*terms, (letter, n, c)))
            idx += 1

    descend(0, int(m_target * scale), int((3 * max_rank - 2 * m_target) * scale), ())
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
    terms = []
    for comp in connected_components(adj):
        n = len(comp)
        swaps, rows = bareiss([[2 if i == j else -meets[i, j] for j in comp] for i in comp])
        if swaps or len(rows) < n or any(rows[k][k] <= 0 for k in range(n)):
            raise ValueError("not an ADE diagram")
        det = rows[-1][-1]
        terms.append(("A" if det == n + 1 else "D" if det == 4 else "E", n, 1))
    return ADEConfig(terms)
