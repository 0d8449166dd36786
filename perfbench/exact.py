"""Small exact integer and rational matrix helpers for building inputs.

The benchmark derives every reference answer from the construction of
its inputs, so it carries its own arithmetic instead of calling latdec.
Matrices are lists or tuples of rows; nothing here uses floating point.
"""

from fractions import Fraction


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(M):
    return [list(col) for col in zip(*M)]


def mat_mul(A, B):
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def vec_mat(v, M):
    return [sum(v[i] * M[i][j] for i in range(len(v))) for j in range(len(M[0]))]


def block_diag(blocks):
    n = sum(len(B) for B in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for B in blocks:
        for i, row in enumerate(B):
            for j, x in enumerate(row):
                out[at + i][at + j] = x
        at += len(B)
    return out


def congruent(U, G):
    """U G U^T: the Gram matrix of G on the basis given by the rows of U."""
    return mat_mul(mat_mul(U, G), transpose(U))


def _egcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def hnf(rows):
    """Row Hermite normal form of the integer span of rows, zero rows dropped.

    Pivots are positive, pivot columns increase strictly, and the entries
    above each pivot lie in [0, pivot).  Equal spans give equal results.
    """
    A = [list(r) for r in rows if any(r)]
    if not A:
        return ()
    n = len(A[0])
    r = 0
    for j in range(n):
        for i in range(r + 1, len(A)):
            b = A[i][j]
            if not b:
                continue
            a = A[r][j]
            g, x, y = _egcd(a, b)
            top = [x * p + y * q for p, q in zip(A[r], A[i])]
            A[i] = [(b // g) * p - (a // g) * q for p, q in zip(A[r], A[i])]
            A[r] = top
        if r < len(A) and A[r][j]:
            if A[r][j] < 0:
                A[r] = [-x for x in A[r]]
            p = A[r][j]
            for i in range(r):
                q = A[i][j] // p
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
            r += 1
    return tuple(tuple(row) for row in A[:r])


def random_unimodular(rng, n, max_abs=2):
    """(U, U^-1): a random integer matrix of determinant +-1 and its inverse.

    Built from 3n signed row additions that keep |entries| <= max_abs,
    followed by a random signed permutation; the inverse is tracked op by
    op, so no division happens.
    """
    U = identity(n)
    V = identity(n)
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        row = [a + c * b for a, b in zip(U[i], U[j])]
        if max(abs(x) for x in row) > max_abs:
            continue
        U[i] = row
        # U <- E U with E = I + c e_i e_j^T, so V <- V E^-1: col j -= c col i
        for k in range(n):
            V[k][j] -= c * V[k][i]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    U = [[signs[k] * x for x in U[perm[k]]] for k in range(n)]
    V = [[signs[k] * V[r][perm[k]] for k in range(n)] for r in range(n)]
    if mat_mul(U, V) != identity(n):
        raise AssertionError("unimodular inverse tracking is broken")
    return U, V


def rational_str(x):
    """A rational as the input schema takes it: an int or a 'p/q' string."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)
