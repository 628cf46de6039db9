import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from kummerlat.snf import det_int, hermite_row_basis, mat_mul, smith_normal_form


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


def test_certificate_check_survives_optimize():
    # python -O strips assert statements; the U*A*V = D check must still
    # raise, and the CLI must report it as an internal error (exit 3)
    script = textwrap.dedent(
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
        sys.exit(cli.main(["kummer", "--group", "Z2"]))
        """
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert "optimize: 1" in res.stdout
    assert "raised: Smith normal form certificate" in res.stdout
    assert res.returncode == 3
    assert "internal invariant violation" in res.stderr
