"""Exact integer matrix routines: Smith and Hermite normal forms, determinants.

All functions operate on lists of lists of Python ints.  Arithmetic is
arbitrary precision; nothing here touches floating point.
"""

from __future__ import annotations

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    oi[j] += c * bt[j]
    return out


def det_int(mat: IntMatrix) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
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


def smith_normal_form(
    mat: IntMatrix,
) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix: returns (D, U, V) with U*mat*V = D.

    D is diagonal with d_1 | d_2 | ... >= 0, and U, V are unimodular
    (determinant +-1).  Total on integer matrices, including singular and
    non-square input.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [list(row) for row in mat]
    U = identity_matrix(m)
    V = identity_matrix(n)

    def swap_rows(i: int, j: int) -> None:
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i: int, j: int) -> None:
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(dst: int, src: int, q: int) -> None:
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst: int, src: int, q: int) -> None:
        for r in A:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    t = 0
    while t < min(m, n):
        # global minimum pivot (the first unit), re-selected after every
        # elementary operation (keeps intermediate entries small)
        piv = None
        best = 0
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
        # a non-unit pivot must divide the trailing block for the divisibility
        # chain; merge an offending row and reduce again
        rows = range(t + 1, m) if best > 1 else ()
        offender = next((i for i in rows if any(x % d for x in A[i][t + 1 :])), None)
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    for i in range(min(m, n)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    # self-certification, kept under python -O
    if mat_mul(mat_mul(U, mat), V) != A:
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
