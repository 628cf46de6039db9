"""Integer Gram lattices: discriminant groups, roots, glue and overlattices.

Conventions
-----------
A lattice is held as its Gram matrix in a fixed basis.  Curve configuration
lattices are negative definite with -2 on the diagonal and 0/1 off-diagonal
intersection numbers.  Vectors are coordinate tuples in the lattice basis;
dual vectors therefore have rational coordinates.  All arithmetic is exact
and runs on Python ints - never floats: a rational vector (or a set of
them) is held as integer numerators over one common denominator, the lcm of
its denominators.  Pairings, dual and glue checks, the root search and the
overlattice Hermite basis work on those numerators; `fractions.Fraction`
appears only on rational values returned to the caller.  Each distinct block
is handled once per call, and each root is built once, at its place: one
integer tuple of the lattice's width.  A tuple that a call frees is built from
a list or a display, never from an iterator (README's conventions).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, isqrt, lcm, prod
from operator import itemgetter, mul

from ._record import Record
from .snf import _smith, bareiss, det_int, hermite_row_basis, mat_mul

RationalVector = tuple[Fraction, ...]


class DegenerateLattice(ValueError):
    """The Gram matrix is singular where a nondegenerate lattice is required."""


class NotInDual(ValueError):
    """A vector pairs non-integrally with some basis vector."""


class NotNegativeDefinite(ValueError):
    """Root enumeration needs a negative definite Gram matrix."""


class NonIntegralGlue(ValueError):
    """A glue vector (or a pair of them) has a non-integral pairing."""


class OddGlue(ValueError):
    """A glue vector has odd self-pairing and cannot glue an even lattice."""


def vec(coords) -> RationalVector:
    return tuple([Fraction(c) for c in coords])


def frac_str(q: Fraction) -> str:
    """The 'p/q' form used for every rational in JSON output."""
    return f"{q.numerator}/{q.denominator}"


def _integer_rows(rows, width: int) -> tuple[int, list[list[int]]]:
    """(den, nums): rational rows of the given width as integer numerators
    over den, the lcm of all their denominators (1 for no rows)."""
    if any(len(r) != width for r in rows):
        raise ValueError("vector has wrong length")
    den = lcm(*[c.denominator for r in rows for c in r])
    return den, [[c.numerator * (den // c.denominator) for c in r] for r in rows]


def _dual_products(gram, x: RationalVector) -> tuple[int, list[int], list[int]]:
    """(den, nums, prods): x = nums / den with den the lcm of the denominators
    of x, and prods = gram.nums, so that x.e_i = prods[i] / den."""
    den, (nums,) = _integer_rows([x], len(gram))
    prods = [sum(map(mul, row, nums)) for row in gram]
    return den, nums, prods


def connected_components(adj) -> list[list[int]]:
    """Components of the graph on range(len(adj)) with neighbour lists adj,
    each sorted, ordered by their smallest node."""
    seen = [False] * len(adj)
    out = []
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = True
        stack = [s]
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        out.append(sorted(comp))
    return out


class GramLattice(Record):
    """Symmetric integer Gram matrix with labelled basis vectors."""

    gram: tuple[tuple[int, ...], ...]
    basis_labels: tuple[str, ...] = ()

    def __post_init__(self):
        d = self.__dict__
        g = tuple([tuple([*map(int, row)]) for row in self.gram])
        if g != self.gram and g != tuple([*map(tuple, self.gram)]):
            raise ValueError("Gram matrix entries must be integers")
        d["gram"] = g
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        if g != tuple([*zip(*g)]):
            raise ValueError("Gram matrix must be symmetric")
        if not self.basis_labels:
            d["basis_labels"] = tuple([f"e{i+1}" for i in range(n)])
        elif len(self.basis_labels) != n:
            raise ValueError("label count does not match rank")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def blocks(self) -> tuple[tuple[list[int], tuple[tuple[int, ...], ...]], ...]:
        """Orthogonal blocks: (basis indices, Gram) for each connected
        component of the Gram's support graph, ordered by smallest index."""
        comps = connected_components([[j for j, g in enumerate(row) if g] for row in self.gram])
        return tuple([(c, tuple([tuple([self.gram[i][j] for j in c]) for i in c])) for c in comps])

    @cached_property
    def det(self) -> int:
        return prod(det_int(g) ** k for g, k in Counter(g for _, g in self.blocks).items())

    def pair(self, x, y) -> Fraction:
        """Bilinear pairing x . y with respect to the Gram matrix."""
        dx, _, prods = _dual_products(self.gram, vec(x))
        dy, (ny,) = _integer_rows([vec(y)], self.rank)
        return Fraction(sum(map(mul, prods, ny)), dx * dy)


def direct_sum(blocks: list[list[list[int]]]) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    ofs = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                out[ofs + i][ofs + j] = b[i][j]
        ofs += k
    return out


class DiscriminantGroup(Record):
    """Invariant factors and dual-vector generators of L^vee / L.

    `generators[i]` has exact order `invariant_factors[i]`; `q_values[i]` is
    the discriminant quadratic form x.x reduced into [0, 2) modulo 2Z.
    """

    invariant_factors: tuple[int, ...]
    generators: tuple[RationalVector, ...]
    q_values: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def length(self) -> int:
        return len(self.invariant_factors)

    def symbol(self) -> str:
        """Human-readable product form, e.g. 'Z2 x (Z4)^6'."""
        return group_symbol(self.invariant_factors)


def group_symbol(factors: tuple[int, ...]) -> str:
    """Product form of the abelian group with these invariant factors."""
    if not factors:
        return "trivial"
    counts = sorted(Counter(factors).items())
    return " x ".join(f"Z{d}" if k == 1 else f"(Z{d})^{k}" for d, k in counts)


def q_value(L: GramLattice, x) -> Fraction:
    """Discriminant quadratic form x.x mod 2Z, reduced into [0, 2)."""
    den, nums, prods = _dual_products(L.gram, vec(x))
    for i, s in enumerate(prods):
        if s % den:
            raise NotInDual(f"pairing with basis vector {i} is {Fraction(s, den)}")
    den2 = den * den
    return Fraction(sum(map(mul, nums, prods)) % (2 * den2), den2)


def primary_chain(pieces) -> list[list[tuple[int, int, object]]]:
    """Invariant-factor chain of a sum of cyclic groups Z/d, from pieces (d, x)
    with d > 1 and any payload x.  A coprime base of the orders, found by gcd
    refinement without factoring, splits each piece into parts (q, d, x); per
    base element the parts are sorted by q (stably) and aligned at the top.
    Returns the factors in ascending order, each as its list of parts."""
    pieces = list(pieces)
    base: list[int] = []
    todo = list(dict.fromkeys(d for d, _ in pieces))
    while todo:
        a = todo.pop()
        b = next((b for b in base if gcd(a, b) > 1), None)
        if b is None:
            base.append(a)
        else:  # a = g (a/g), b = g (b/g): the product of the pending terms drops
            base.remove(b)
            g = gcd(a, b)
            todo += [t for t in (g, a // g, b // g) if t > 1]
    by_base: dict[int, list] = {b: [] for b in base}
    for d, x in pieces:
        for b, parts in by_base.items():
            q = gcd(d, b ** d.bit_length())  # d is a product of powers of the base
            if q > 1:
                parts.append((q, d, x))
    for parts in by_base.values():
        parts.sort(key=itemgetter(0))
    depth = max(map(len, by_base.values()), default=0)
    return [[ps[-k] for ps in by_base.values() if len(ps) >= k] for k in range(depth, 0, -1)]


def discriminant_group(L: GramLattice) -> DiscriminantGroup:
    """Invariant factors of coker(gram) with generators lifted to L^vee.

    L^vee / L is the sum of the blocks' groups.  The Smith form U G V = D of
    each distinct block Gram G gives pieces V_i / d, split by `primary_chain`
    into parts c V_i / q of coprime orders q (c = (d / q)^-1 mod q).  A
    generator and its q-value are the sums of its parts' (parts of coprime
    orders pair integrally): one block keeps its V_i / d.

    The result certifies itself, without U or the Smith steps: |det V| = 1,
    every part lies in L^vee and the factors multiply to |det L|.  Then the
    columns V_i / d_i span a lattice of index prod d_i = |det L| over Z^n
    inside L^vee, which is all of L^vee.
    """
    if L.det == 0:
        raise DegenerateLattice("discriminant group needs det != 0")
    snf, pieces = {}, []
    for comp, g in L.blocks:
        if g not in snf:  # one Smith form per distinct block Gram
            D, _, V = _smith(g, False)
            _, rows = bareiss(V)
            if len(rows) < len(V) or abs(rows[-1][-1]) != 1:
                raise AssertionError("Smith form transform V is not unimodular")
            snf[g] = [(D[i][i], [r[i] for r in V]) for i in range(len(g)) if D[i][i] > 1]
        pieces += [(d, (comp, g, col)) for d, col in snf[g]]
    factors, gens, qs = [], [], []
    for parts in primary_chain(pieces):
        f = prod(q for q, _, _ in parts)
        nums, qnum = [0] * L.rank, 0
        for q, d, (comp, g, col) in parts:
            c, w = pow(d // q, -1, q), f // q
            v = [c * x % q for x in col]
            gv = [sum(map(mul, row, v)) for row in g]
            if any(s % q for s in gv):
                raise NotInDual(f"a part of order {q} pairs non-integrally with the lattice")
            for i, x in zip(comp, v):
                nums[i] += w * x
            qnum += w * w * sum(map(mul, v, gv))
        factors.append(f)
        # one Fraction per distinct coordinate, shared across the generator
        frac = {x: Fraction(x % f, f) for x in set(nums)}
        gens.append(tuple([*map(frac.__getitem__, nums)]))
        qs.append(Fraction(qnum % (2 * f * f), f * f))
    disc = DiscriminantGroup(tuple(factors), tuple(gens), tuple(qs))
    if disc.order != abs(L.det):
        raise AssertionError("invariant factor product differs from |det|")
    return disc


class OverlatticeResult(Record):
    """Overlattice with its basis written in the parent's coordinates.

    Basis vector i is H[i] / den in parent coordinates, where H is the
    (upper triangular, full rank) Hermite row basis of the overlattice
    scaled by den.
    """

    lattice: GramLattice
    index: int
    den: int
    H: tuple[tuple[int, ...], ...]


def overlattice(L: GramLattice, glue) -> OverlatticeResult:
    """Lattice generated by L and the glue, rational vectors in L's basis
    (ints, Fractions or strings), with index [L' : L].

    Requires every glue vector in L^vee, integral mutual pairings and even
    self-pairings (even overlattice condition).
    """
    n = L.rank
    gram = [list(r) for r in L.gram]
    # glue a is nums[a] / den: it pairs with e_i to prods[a][i] / den and with
    # glue b to pairs[a][b] / den^2
    den, nums = _integer_rows([vec(g) for g in glue], n)
    den2 = den * den
    prods = mat_mul(nums, gram)
    pairs = mat_mul(prods, [list(c) for c in zip(*nums)])
    for a, (row, pair) in enumerate(zip(prods, pairs)):
        i = next((i for i, s in enumerate(row) if s % den), None)
        if i is not None:
            raise NonIntegralGlue(f"glue #{a} pairs non-integrally with basis {i}")
        s = pair[a]
        if s % den2:
            raise NonIntegralGlue(f"glue #{a} has non-integral self-pairing {Fraction(s, den2)}")
        if s // den2 % 2:
            raise OddGlue(f"glue #{a} has odd self-pairing {s // den2}")
        b = next((b for b in range(a) if pair[b] % den2), None)
        if b is not None:
            raise NonIntegralGlue(f"glue #{a} pairs non-integrally with glue #{b}")

    H = hermite_row_basis([[den if j == i else 0 for j in range(n)] for i in range(n)] + nums)
    if len(H) != n:
        raise AssertionError("overlattice basis is not full rank")
    index, rest = divmod(den**n, prod(H[i][i] for i in range(n)))  # H is upper triangular
    if rest:
        raise AssertionError("index [L':L] is not an integer")
    # b_i . b_j = (H G H^T)_ij / den^2 for the basis b_i = H_i / den
    hgh = mat_mul(mat_mul(H, gram), [list(c) for c in zip(*H)])
    if any(p % den2 for row in hgh for p in row):
        raise AssertionError("overlattice Gram is not integral")
    lat = GramLattice(
        gram=tuple([tuple([p // den2 for p in row]) for row in hgh]),
        basis_labels=tuple([f"b{i+1}" for i in range(n)]),
    )
    if abs(lat.det) * index * index != abs(L.det):
        raise AssertionError("overlattice determinant identity violated")
    return OverlatticeResult(lat, index, den, tuple([*map(tuple, H)]))


def _search_levels(q) -> tuple[int, list]:
    """Integer Fincke-Pohst levels of a positive definite integer matrix q.

    Fraction-free (Bareiss) elimination gives the leading principal minors
    p_k and the pivot rows r_k, with
    x.q.x = sum_k (p_k / p_{k-1}) (x_k + sum_{j>k} r_kj x_j / p_k)^2.
    Level k is (D_k, [(j, U_kj) for j > k], W_k): the centre of x_k is
    -C_k / D_k with C_k = sum_j U_kj x_j, and for the returned scale S,
    S x.q.x = sum_k W_k (D_k x_k + C_k)^2 with every W_k an integer.
    Raises NotNegativeDefinite (the caller passes -gram) unless every
    leading principal minor is positive.
    """
    swaps, rows = bareiss(q)
    if swaps or len(rows) < len(q) or any(row[k] <= 0 for k, row in enumerate(rows)):
        raise NotNegativeDefinite("Gram matrix is not negative definite")
    prev, raw = 1, []
    for k, row in enumerate(rows):
        p, g = row[k], gcd(*row[k:])
        D = p // g
        u = [(j, row[j] // g) for j in compress(range(k + 1, len(q)), row[k + 1 :])]
        raw.append((D, u, p, prev * D * D))  # level weight p / (prev D^2)
        prev = p
    S = lcm(*[w_den for *_, w_den in raw])
    return S, [(D, u, w_num * (S // w_den)) for D, u, w_num, w_den in raw]


def _block_roots(q, at, width: int) -> list[tuple[int, ...]]:
    """All x with x.q.x = 2 for positive definite integer q, one per {x, -x}
    pair: the one whose last nonzero coordinate is positive, each built once,
    at its place: coordinate k is entry at[k] of a width-long tuple, 0 elsewhere."""
    S, levels = _search_levels(q)
    n = len(levels)
    levels = [(D, [(at[j], c) for j, c in u], W) for D, u, W in levels]
    x = [0] * width
    found: list[tuple[int, ...]] = []

    def descend(i: int, rem: int, zero_above: bool) -> None:
        D, u, W = levels[i]
        C = 0
        for j, c in u:
            C += c * x[j]
        # D x_i + C ranges over [-m, m]; while x_j = 0 for all j > i only
        # x_i >= 0 is searched, which finds each pair once
        m = isqrt(rem // W)
        lo = 0 if zero_above else -((m + C) // D)
        if i:
            for xi in range(lo, (m - C) // D + 1):
                t = D * xi + C
                x[at[i]] = xi
                if r := rem - W * t * t:
                    descend(i - 1, r, zero_above and not xi)
                    continue
                # zero budget: each lower level is forced, D_k x_k + C_k = 0
                for k in range(i - 1, -1, -1):
                    Dk, uk, _ = levels[k]
                    Ck = 0
                    for j, c in uk:
                        Ck += c * x[j]
                    x[at[k]], s = divmod(-Ck, Dk)
                    if s:
                        break
                else:
                    found.append(tuple(x))
        elif W * m * m == rem:  # last level: rem == W t^2 only for t = -m, m
            for t in sorted({-m, m}):
                xi, r = divmod(t - C, D)
                if not r and xi >= lo:
                    x[at[0]] = xi
                    found.append(tuple(x))

    if n:
        descend(n - 1, 2 * S, True)
    del descend  # the closure refers to itself: free its search state now, not at a GC pass
    return found


def roots(L: GramLattice) -> list[tuple[int, ...]]:
    """All norm -2 vectors of a negative definite lattice, one per {x, -x} pair.

    Exact Fincke-Pohst enumeration on -gram in Python ints: a fraction-free
    LDL scaled to integer weights and centres, with exact isqrt bounds, and
    each pair searched once.  Roots of an orthogonal sum lie in single
    blocks, so each distinct block Gram is searched once per call, in
    reversed coordinates, with each root built once, at its place; a later
    block with that Gram is placed from the first one's roots.  Pairs are
    reported by the representative whose first nonzero coordinate is
    positive, as sorted integer tuples (2 * len(result) vectors).
    """
    n = L.rank
    first, out = {}, []  # per call: each distinct block Gram's indices and roots
    for comp, g in L.blocks:
        if g in first:  # placed from the first block with this Gram
            base, found = first[g]
            idx = [comp[0]] * n  # off this block: an index that is 0 in every root found
            for i, j in zip(comp, base):
                idx[i] = j
            out += map(itemgetter(*idx), found)
        else:  # searched in reversed coordinates
            rev = [[-x for x in reversed(row)] for row in reversed(g)]
            first[g] = comp, _block_roots(rev, comp[::-1], n)
            out += first[g][1]
    out.sort()
    return out


class LengthBoundResult(Record):
    ok: bool
    length: int
    bound: int
    excess: int


def length_bound(rank: int, ambient_rank: int) -> int:
    """For a primitive sublattice of rank r in a unimodular lattice of rank
    N, the discriminant group length cannot exceed min(r, N - r)."""
    return min(rank, ambient_rank - rank)


def length_bound_check(L: GramLattice, ambient_rank: int) -> LengthBoundResult:
    """Primitive-sublattice length bound inside a unimodular ambient lattice."""
    disc = discriminant_group(L)
    bound = length_bound(L.rank, ambient_rank)
    excess = max(0, disc.length - bound)
    return LengthBoundResult(excess == 0, disc.length, bound, excess)
