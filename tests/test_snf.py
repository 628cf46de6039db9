import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kummerlat.ade import component_gram
from kummerlat.kummer import build_K_Q8hat, build_K_T24hat
from kummerlat.snf import (
    bareiss,
    det_int,
    hermite_row_basis,
    identity_matrix,
    mat_mul,
    smith_normal_form,
)

from test_divisibility import COMPONENT_TYPES


def assert_snf_certificate(M):
    m, n = len(M), len(M[0])
    D, U, V = smith_normal_form(M)
    assert mat_mul(mat_mul(U, M), V) == D
    assert abs(det_int(U)) == 1
    assert abs(det_int(V)) == 1
    diag = [D[i][i] for i in range(min(m, n))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0


def test_identity():
    I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    D, U, V = smith_normal_form(I3)
    assert D == I3 and U == I3 and V == I3


def test_divisibility_reorder():
    D, U, V = smith_normal_form([[4, 0], [0, 2]])
    assert [D[0][0], D[1][1]] == [2, 4]
    assert_snf_certificate([[4, 0], [0, 2]])


def test_random_5x5_certificate():
    rng = random.Random(7)
    for _ in range(50):
        M = [[rng.randint(-50, 50) for _ in range(5)] for _ in range(5)]
        assert_snf_certificate(M)


def test_singular_and_nonsquare():
    assert_snf_certificate([[2, 4], [1, 2]])
    assert_snf_certificate([[0, 0], [0, 0]])
    assert_snf_certificate([[3, 6, 9]])
    assert_snf_certificate([[3], [5], [7]])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-99, 99), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_self_certifying(rows):
    assert_snf_certificate(rows)


def test_det_bareiss_matches_cofactor():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]

        def cof(mat):
            if len(mat) == 1:
                return mat[0][0]
            return sum(
                (-1) ** j * mat[0][j] * cof([r[:j] + r[j + 1 :] for r in mat[1:]])
                for j in range(len(mat))
            )

        assert det_int(M) == cof(M)


def test_hermite_row_basis_spans_same_lattice():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    H = hermite_row_basis(rows)
    # determinant of the row span is preserved
    assert abs(det_int(H)) == abs(det_int(rows))
    # echelon: pivots strictly to the right, positive
    pivots = [next(j for j, x in enumerate(r) if x) for r in H]
    assert pivots == sorted(pivots)
    assert all(r[p] > 0 for r, p in zip(H, pivots))


def random_unimodular(rng, m):
    """A product of random elementary row operations, swaps and sign flips."""
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(3 * m):
        i, j = rng.sample(range(m), 2) if m > 1 else (0, 0)
        op = rng.randrange(3)
        if op == 0 and i != j:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        elif op == 1:
            U[i], U[j] = U[j], U[i]
        else:
            U[i] = [-a for a in U[i]]
    assert abs(det_int(U)) == 1
    return U


def random_rows(rng, rank_deficient):
    """A random integer m x n matrix: m <= n rows, or rank deficient with
    its last rows integer combinations of the others."""
    n = rng.randint(1, 6)
    m = rng.randint(2, 7) if rank_deficient else rng.randint(1, n)
    A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    if rank_deficient:
        k = rng.randint(1, m - 1)
        for i in range(m - k, m):
            c = [rng.randint(-2, 2) for _ in range(m - k)]
            A[i] = [sum(ci * A[r][j] for ci, r in zip(c, range(m - k))) for j in range(n)]
    return A


@pytest.mark.parametrize("rank_deficient", [False, True])
def test_hermite_row_basis_is_canonical(rank_deficient):
    """The Hermite basis depends on the row span only: overlattice
    membership reduces against its pivots."""
    rng = random.Random(f"hermite-{rank_deficient}")
    full_rank = []
    for _ in range(200):
        A = random_rows(rng, rank_deficient)
        H = hermite_row_basis(A)
        U = random_unimodular(rng, len(A))
        assert hermite_row_basis(mat_mul(U, A)) == H
        assert hermite_row_basis(H) == H
        full_rank.append(len(H) == len(A))
    # random rows of length n >= m are independent all but rarely
    assert full_rank.count(not rank_deficient) >= (200 if rank_deficient else 190)


def test_hermite_row_basis_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(20261018)
    for t in range(300):
        A = random_rows(rng, t % 3 == 0)
        if not any(any(r) for r in A):
            continue
        # sympy's form is column-style and pivots from the last coordinate:
        # its columns, read backwards in reverse order, are our row basis of
        # the coordinate-reversed rows
        W = hermite_normal_form(sympy.Matrix(A).T)
        theirs = [[int(x) for x in W[:, j]][::-1] for j in reversed(range(W.cols))]
        assert hermite_row_basis([r[::-1] for r in A]) == theirs, A


def test_smith_normal_form_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(20261018)
    shapes = Counter()
    for t in range(300):
        if t % 3 == 0:
            n = rng.randint(1, 6)
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        else:
            A = random_rows(rng, t % 3 == 2)
        m, n = len(A), len(A[0])
        shapes["square" if m == n else "non-square"] += 1
        shapes["singular" if m != n or det_int(A) == 0 else "regular"] += 1
        D, _, _ = smith_normal_form(A)
        S = sympy_snf(sympy.Matrix(A), domain=sympy.ZZ)
        ours = [D[i][i] for i in range(min(m, n))]
        theirs = [abs(int(S[i, i])) for i in range(min(m, n))]
        assert ours == theirs, A
    assert min(shapes.values()) >= 50, shapes


def run_optimized(script):
    """Run a script under python -O with the package on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(script)],
        capture_output=True, text=True, env=env,
    )


def test_certificate_check_survives_optimize():
    # python -O strips assert statements; the U*A*V = D check must still
    # raise, and the CLI must report it as an internal error (exit 3).  The
    # torus command reaches the certified form through its fixed-point solve
    # (the discriminant path certifies its own output instead, tested below).
    res = run_optimized(
        """
        import sys
        from kummerlat import cli, snf
        real = snf.mat_mul
        snf.mat_mul = lambda a, b: [[x + 1 for x in row] for row in real(a, b)]
        try:
            snf.smith_normal_form([[2, 0], [0, 3]])
        except AssertionError as exc:
            print("raised:", exc)
        print("optimize:", sys.flags.optimize)
        sys.exit(cli.main(["torus", "--group", "neg1"]))
        """
    )
    assert "optimize: 1" in res.stdout
    assert "raised: Smith normal form certificate" in res.stdout
    assert res.returncode == 3
    assert "internal invariant violation" in res.stderr


def test_discriminant_certificate_survives_optimize():
    # a Smith transform V of determinant 2 must fail the discriminant
    # group's unimodularity check under python -O, with exit 3 from the CLI
    res = run_optimized(
        """
        import sys
        from kummerlat import cli, lattice
        real = lattice._smith
        def doubled(mat, track_u):
            D, U, V = real(mat, track_u)
            return D, U, [[2 * r[0], *r[1:]] for r in V]
        lattice._smith = doubled
        print("optimize:", sys.flags.optimize)
        sys.exit(cli.main(["kummer", "--group", "Z2"]))
        """
    )
    assert "optimize: 1" in res.stdout
    assert res.returncode == 3
    assert "internal invariant violation: Smith form transform V is not unimodular" in res.stderr


# --- the unit-pivot Smith form against the full-scan one ----------------------


def oracle_smith_normal_form(mat):
    """The Smith form before the unit-pivot exits: every pivot is a global
    minimum found by a full scan, and the divisibility scan runs for every
    pivot, units included."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [list(row) for row in mat]
    U = identity_matrix(m)
    V = identity_matrix(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for r in A:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    t = 0
    while t < min(m, n):
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = A[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    piv = (i, j)
                    best = abs(v)
        if piv is None:
            break
        if piv != (t, t):
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
        d = A[t][t]
        i = next((i for i in range(t + 1, m) if A[i][t] != 0), None)
        if i is not None:
            add_row(i, t, -(A[i][t] // d))
            continue
        j = next((j for j in range(t + 1, n) if A[t][j] != 0), None)
        if j is not None:
            add_col(j, t, -(A[t][j] // d))
            continue
        offender = None
        for i in range(t + 1, m):
            if any(x % d for x in A[i][t + 1 :]):
                offender = i
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    for i in range(min(m, n)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    return A, U, V


def oracle_inputs():
    """(kind, matrix): seeded random matrices, the 38 ADE block Grams and
    the Grams of the two glued K lattices."""
    rng = random.Random(20261018)
    for t in range(600):
        if t % 3 == 0:
            # entries up to 2 give many unit pivots and singular matrices
            n, size = rng.randint(1, 7), (9, 2)[t % 2]
            yield "square", [[rng.randint(-size, size) for _ in range(n)] for _ in range(n)]
        else:
            yield "rows", random_rows(rng, rank_deficient=t % 3 == 2)
    for letter, n in COMPONENT_TYPES:
        yield "ADE", component_gram(letter, n)
    for build in (build_K_Q8hat, build_K_T24hat):
        yield "K", [list(r) for r in build().K.lattice.gram]


def test_smith_normal_form_matches_full_scan():
    kinds = Counter()
    for kind, M in oracle_inputs():
        m, n = len(M), len(M[0])
        kinds[kind] += 1
        kinds["non-square" if m != n else "singular" if det_int(M) == 0 else "regular"] += 1
        assert smith_normal_form(M) == oracle_smith_normal_form(M), M
    assert (kinds["ADE"], kinds["K"]) == (38, 2)
    assert min(kinds[k] for k in ("non-square", "singular", "regular")) >= 30, kinds


# --- the lazy-row Bareiss and the zero-skipping product against dense ones ----


def oracle_det_int(mat):
    """The dense Bareiss determinant before lazy rows: every row below the
    pivot is updated at every step."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def oracle_mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def square_inputs():
    """(kind, matrix): seeded random sparse, dense, singular and zero-pivot
    square matrices, the 38 ADE block Grams and the two glued K Grams."""
    rng = random.Random(20261019)
    for t in range(150):
        n = rng.randint(1, 12)
        yield "sparse", [[rng.choice((0,) * 6 + (-2, -1, 1, 3)) for _ in range(n)] for _ in range(n)]
        n = rng.randint(1, 7)
        yield "dense", [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        # the last rows are integer combinations of the others
        n = rng.randint(2, 8)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(1, n - 1))]
        while len(M) < n:
            c = [rng.randint(-2, 2) for _ in M]
            M.append([sum(ci * r[j] for ci, r in zip(c, M)) for j in range(n)])
        rng.shuffle(M)
        yield "singular", M
        # shuffled rows of an upper triangular matrix: leading minors vanish
        n = rng.randint(2, 9)
        M = [[rng.choice((-3, -1, 1, 2)) if i == j else rng.randint(-4, 4) * (j > i)
              for j in range(n)] for i in range(n)]
        rng.shuffle(M)
        yield "zero pivot", M
    for letter, n in COMPONENT_TYPES:
        yield "ADE", component_gram(letter, n)
    for build in (build_K_Q8hat, build_K_T24hat):
        yield "K", [list(r) for r in build().K.lattice.gram]


def test_det_int_matches_dense_bareiss():
    kinds = Counter()
    for kind, M in square_inputs():
        swaps, rows = bareiss(M)
        d = det_int(M)
        assert d == oracle_det_int(M), (kind, M)
        kinds[kind] += 1
        kinds["det 0"] += d == 0
        kinds["swapped"] += swaps > 0
        if not swaps:  # the pivots are the leading principal minors
            assert [r[k] for k, r in enumerate(rows)] == [
                oracle_det_int([r[: k + 1] for r in M[: k + 1]]) for k in range(len(rows))
            ], (kind, M)
    assert (kinds["ADE"], kinds["K"]) == (38, 2)
    assert min(kinds[k] for k in ("sparse", "dense", "singular", "zero pivot")) == 150
    assert kinds["det 0"] >= 150 and kinds["swapped"] >= 150, kinds


def test_mat_mul_matches_dense_product():
    rng = random.Random(20261019)
    for t in range(300):
        m, k, n = rng.randint(0, 6), rng.randint(1, 6), rng.randint(1, 6)
        pick = (lambda: rng.choice((0, 0, 0, -1, 2))) if t % 2 else (lambda: rng.randint(-9, 9))
        a = [[pick() for _ in range(k)] for _ in range(m)]
        b = [[pick() for _ in range(n)] for _ in range(k)]
        assert mat_mul(a, b) == oracle_mat_mul(a, b)
    for kind, M in square_inputs():
        assert mat_mul(M, M) == oracle_mat_mul(M, M), kind
    assert mat_mul([[Fraction(1, 2), 0]], [[2, 0], [0, Fraction(1, 3)]]) == [[1, 0]]


def test_smith_normal_form_matches_full_scan_on_square_inputs():
    for kind, M in square_inputs():
        assert smith_normal_form(M) == oracle_smith_normal_form(M), (kind, M)
