"""Exact integer matrix routines: Smith and Hermite normal forms, determinants.

All functions operate on lists of lists of Python ints.  Arithmetic is
arbitrary precision; nothing here touches floating point.
"""

from __future__ import annotations

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a * b, skipping the zero entries of both factors (those of b listed
    once per row)."""
    m = len(b[0]) if b else 0
    nonzero = [[(j, x) for j, x in enumerate(bt) if x] for bt in b]
    out = []
    for ai in a:
        oi = [0] * m
        for c, bt in zip(ai, nonzero):
            if c:
                for j, x in bt:
                    oi[j] += c * x
        out.append(oi)
    return out


def bareiss(mat: IntMatrix) -> tuple[int, IntMatrix]:
    """Fraction-free (Bareiss) elimination of a square integer matrix.

    Returns (swaps, rows): rows[k][k:] is pivot row k and rows[k][k] the k-th
    pivot, with no swaps the leading principal minor of order k + 1.  A zero
    pivot is swapped with the first nonzero entry below it; a singular matrix
    gives fewer rows.  A row that is 0 in the pivot column is only rescaled by
    p_k / p_{k-1}: it stays stale, and as these factors telescope, its next
    update divides by the pivot `at` it is current for.
    """
    n, swaps, prev = len(mat), 0, 1
    a, at = [list(r) for r in mat], [1] * n
    for k in range(n):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return swaps, a[:k]
            a[k], a[piv], at[k], at[piv] = a[piv], a[k], at[piv], at[k]
            swaps += 1
        row, s = a[k], at[k]
        if s != prev:
            row[k:] = [x * prev // s for x in row[k:]]
        p = row[k]
        for i in range(k + 1, n):
            ri, s, f = a[i], at[i], a[i][k]
            if f:
                for j in range(k + 1, n):
                    ri[j] = (p * ri[j] - f * row[j]) // s
                at[i] = p
        prev = p
    return swaps, a


def det_int(mat: IntMatrix) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    swaps, rows = bareiss(mat)
    if len(rows) < len(mat):
        return 0
    return (-1) ** swaps * rows[-1][-1] if rows else 1


def smith_normal_form(
    mat: IntMatrix,
) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix: returns (D, U, V) with U*mat*V = D.

    D is diagonal with d_1 | d_2 | ... >= 0, and U, V are unimodular
    (determinant +-1).  Total on integer matrices, including singular and
    non-square input.
    """
    return _smith(mat, True)


def _smith(mat: IntMatrix, track_u: bool) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """`smith_normal_form`; without track_u the row operations are not
    recorded, U has empty rows and there is no certificate U*A*V = D."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [list(row) for row in mat]
    U = identity_matrix(m) if track_u else [[] for _ in range(m)]
    W = identity_matrix(n)  # W = V^T: column operations update one row

    def add_row(dst: int, src: int, q: int) -> None:
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        if track_u:
            U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    for t in range(min(m, n)):
        # pivot: the first entry (row by row) of least nonzero size in the trailing
        # block; an operation changes one row, so afterwards only a smaller entry
        # of that row can take its place (never for a unit)
        piv, best = None, 0
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = abs(row[j])
                if v and (not best or v < best):
                    piv, best = (i, j), v
                    if v == 1:
                        break
            if best == 1:
                break
        while piv:
            i, j = piv
            A[t], A[i], U[t], U[i] = A[i], A[t], U[i], U[t]
            if j != t:  # rows above t are zero from column t on
                for r in A[t:]:
                    r[t], r[j] = r[j], r[t]
                W[t], W[j] = W[j], W[t]
            d, piv = A[t][t], None
            for i in range(t + 1, m):  # clear column t
                if A[i][t]:
                    add_row(i, t, -(A[i][t] // d))
                    if best > 1 and min(size := [abs(x) or best for x in A[i][t:]]) < best:
                        best, piv = min(size), (i, t + size.index(min(size)))
                        break
            while not piv:
                for j in range(t + 1, n):  # clear row t: column t is clear, so no other row changes
                    if A[t][j]:
                        q, A[t][j] = A[t][j] // d, A[t][j] % d
                        W[j] = [a - q * b for a, b in zip(W[j], W[t])]
                        if A[t][j]:
                            best, piv = abs(A[t][j]), (t, j)
                            break
                else:  # a non-unit pivot must divide the trailing block: merge an offending row
                    if best == 1:
                        break
                    offender = next((i for i in range(t + 1, m) if any(x % d for x in A[i][t + 1 :])), None)
                    if offender is None:
                        break
                    add_row(t, offender, 1)

    for i in range(min(m, n)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    V = [list(c) for c in zip(*W)]
    # self-certification, kept under python -O
    if track_u and mat_mul(mat_mul(U, mat), V) != A:
        raise AssertionError("Smith normal form certificate U*A*V = D fails")
    return A, U, V


def hermite_row_basis(rows: list[list[int]]) -> list[list[int]]:
    """Canonical basis (row-style Hermite form) of the integer row span."""
    A = [list(r) for r in rows if any(r)]
    if not A:
        return []
    n = len(A[0])
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, len(A)):
            if A[i][col] != 0 and (piv is None or abs(A[i][col]) < abs(A[piv][col])):
                piv = i
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        while True:
            dirty = False
            for i in range(r + 1, len(A)):
                if A[i][col]:
                    q = A[i][col] // A[r][col]
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                    if A[i][col]:
                        A[r], A[i] = A[i], A[r]
                        dirty = True
            if not dirty:
                break
        if A[r][col] < 0:
            A[r] = [-x for x in A[r]]
        for i in range(r):
            q = A[i][col] // A[r][col]
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
        r += 1
        if r == len(A):
            break
    return [row for row in A[:r] if any(row)]
