"""Fraction oracles for the integer-numerator lattice and torus code.

Gauss-Jordan elimination over `Fraction`, with the overlattice membership
test and the torus change of basis written on top of it.  The library
changes torus bases with integer numerators over one denominator, and the
tests check it against these; the library has no membership test, so the
Kummer tests decide membership in a saturation with this one.
"""

from fractions import Fraction

from kummerlat.lattice import DegenerateLattice, vec
from kummerlat.snf import mat_mul


def solve(A, B):
    """X with A.X = B for a square rational matrix A, or None if A is singular.

    Gauss-Jordan elimination on [A | B] in exact arithmetic.
    """
    n = len(A)
    M = [[Fraction(x) for x in A[i]] + [Fraction(x) for x in B[i]] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if M[i][c] != 0), None)
        if piv is None:
            return None
        M[c], M[piv] = M[piv], M[c]
        inv = 1 / M[c][c]
        M[c] = [x * inv for x in M[c]]
        for i in range(n):
            if i != c and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return [row[n:] for row in M]


def basis_in_parent(K):
    """The overlattice basis in parent coordinates: the rows H[i] / den."""
    return tuple(tuple(Fraction(x, K.den) for x in row) for row in K.H)


def fraction_contains(K, coords):
    """Overlattice membership: the coordinates in K's basis are integers."""
    basis_cols = list(zip(*basis_in_parent(K)))
    x = solve(basis_cols, [[c] for c in vec(coords)])
    return x is not None and all(row[0].denominator == 1 for row in x)


def basis_columns(lat):
    """The torus lattice basis vectors as Fraction columns in the frame."""
    return [[Fraction(lat.rows[j][i], lat.den) for j in range(4)] for i in range(4)]


def _lattice_solve(lat, frame_columns):
    X = solve(basis_columns(lat), frame_columns)
    if X is None:
        raise DegenerateLattice("torus lattice basis is singular")
    return X


def fraction_to_lattice_matrix(lat, frame_matrix):
    """Conjugate a frame-coordinate linear map into lattice coordinates."""
    out = _lattice_solve(lat, mat_mul(frame_matrix, basis_columns(lat)))
    rows = []
    for row in out:
        ints = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("linear map does not preserve the lattice")
            ints.append(int(x))
        rows.append(tuple(ints))
    return tuple(rows)


def fraction_to_lattice_vector(lat, frame_vector):
    return tuple(row[0] for row in _lattice_solve(lat, [[x] for x in frame_vector]))
