"""Exact linear algebra over Z and Q.

Matrices are tuples of tuples (rows); integer matrices hold Python ints,
rational ones hold fractions.Fraction.  Everything here is exact: no
floating point appears in any code path, including the short-vector
enumeration bounds.  Vectors are plain coordinate tuples.  Row convention
throughout: a basis is a matrix whose rows are the basis vectors, and a
change of basis acts as G' = U * G * U^T.

All exact solving over Q goes through one fraction-free elimination,
_echelon (Bareiss, Math. Comp. 22 (1968)): det, inverse, rational_rank,
solve_rational, solve_rational_columns (many right-hand sides against
one matrix) and first_nonpositive_minor are thin readings of it.

lll_integral is Cohen's integral LLL (Alg. 2.6.7): it updates integer
Gram-Schmidt data in place and returns them with the reduced Gram.  One
Fincke-Pohst descent (Math. Comp. 44 (1985)) on such data, all in
integers, serves enumerate_short_vectors (a ball) and sphere_point (a
shell of a coset of 2Z^n).  integer_scaled gives rational matrices one
common integer scale, the form in which the decomposition pipeline pairs.
"""

import math
from fractions import Fraction
from operator import add, mul

from .errors import (InvalidInputError, NoSolutionError, NotPositiveDefiniteError,
                     RankTooLargeError)

LLL_DELTA = Fraction(99, 100)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(M):
    return tuple(zip(*M)) if M else ()


def mat_mul(A, B):
    """Matrix product, exact in whatever scalar type the entries carry."""
    Bt = transpose(B)
    return tuple(tuple(sum(map(mul, row, col)) for col in Bt) for row in A)


def mat_vec(M, v):
    """Apply M to the column vector v, returning a coordinate tuple."""
    return tuple(sum(map(mul, row, v)) for row in M)


def vec_mat(v, M):
    """Row vector times matrix: the row-convention image of v under M."""
    return tuple(sum(map(mul, v, col)) for col in zip(*M))


def mat_neg(A):
    return tuple(tuple(-a for a in row) for row in A)


def dot(u, v):
    return sum(map(mul, u, v))


def gram_value(G, u, v):
    """Evaluate the bilinear form with Gram matrix G at (u, v)."""
    return sum(u[i] * dot(G[i], v) for i in range(len(u)) if u[i])


def as_fraction_matrix(M):
    return tuple(tuple(Fraction(x) for x in row) for row in M)


def integer_scaled(mats):
    """(s, the matrices times s as ints), s the lcm of all their denominators."""
    mats = tuple(as_fraction_matrix(M) for M in mats)
    s = math.lcm(*(x.denominator for M in mats for row in M for x in row))
    return s, tuple(tuple(tuple(x.numerator * (s // x.denominator) for x in row)
                          for row in M) for M in mats)


def is_integral(M):
    return all(Fraction(x).denominator == 1 for row in M for x in row)


def to_int_matrix(M):
    """Cast a rational matrix known to be integral; raises if it is not."""
    out = []
    for row in M:
        r = []
        for x in row:
            f = Fraction(x)
            if f.denominator != 1:
                raise InvalidInputError("matrix entry %s is not an integer" % (x,))
            r.append(f.numerator)
        out.append(tuple(r))
    return tuple(out)


def is_symmetric(M):
    n = len(M)
    return all(len(row) == n for row in M) and all(
        M[i][j] == M[j][i] for i in range(n) for j in range(i)
    )


def _echelon(M, B=()):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of [M | B] over Z.

    B holds right-hand-side columns of length len(M).  Each row of
    [M | B] is first scaled by the lcm of its denominators; scale is the
    product of those factors.  Rows are never moved: the pivot in column
    c is the first row not yet used that is nonzero there.  Every step
    replaces each other row by (pivot * row - row[c] * pivot_row) // prev,
    an exact division by the previous pivot (Sylvester's identity), so
    all entries stay integral minors of the scaled matrix.

    Returns (A, pivots, scale).  pivots lists (row, column, value) in
    order, value being the pivot as it was chosen.  While pivot k sits
    at row k and column k, its value is the leading minor D_(k+1) times
    the positive scales of rows 0..k.  At the end every pivot entry of A
    equals the last pivot, and A is zero off the pivots in the pivot
    columns and in every non-pivot row of the M part.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A = []
    scale = 1
    for i, row in enumerate(M):
        row = [x if isinstance(x, (int, Fraction)) else Fraction(x)
               for x in (*row, *(b[i] for b in B))]
        s = math.lcm(*(x.denominator for x in row))
        scale *= s
        A.append([x.numerator * (s // x.denominator) for x in row])
    pivots = []
    free = list(range(m))
    prev = 1
    for c in range(n):
        r = next((i for i in free if A[i][c]), None)
        if r is None:
            continue
        free.remove(r)
        piv = A[r]
        pv = piv[c]
        pivots.append((r, c, pv))
        for i in range(m):
            if i != r:
                f = A[i][c]
                A[i] = [(pv * a - f * b) // prev for a, b in zip(A[i], piv)]
        prev = pv
        if not free:
            break
    return A, pivots, scale


def det(M):
    """Exact determinant: the last Bareiss pivot, signed and unscaled."""
    _, pivots, scale = _echelon(M)
    if len(pivots) < len(M):
        return Fraction(0)
    rows = [i for i, _, _ in pivots]
    inversions = sum(a > b for k, a in enumerate(rows) for b in rows[k + 1:])
    last = pivots[-1][2] if pivots else 1
    return Fraction((-1) ** inversions * last, scale)


def solve_rational_columns(M, bs):
    """solve_rational(M, b) for every b in bs, from one elimination.

    Returns a tuple of solutions in the order of bs; raises
    NoSolutionError when any of the systems is inconsistent.
    """
    n = len(M[0]) if M else 0
    A, pivots, _ = _echelon(M, bs)
    used = {i for i, _, _ in pivots}
    if any(any(row[n:]) for i, row in enumerate(A) if i not in used):
        raise NoSolutionError("inconsistent linear system")
    solutions = []
    for t in range(n, n + len(bs)):
        x = [Fraction(0)] * n
        for i, c, _ in pivots:
            x[c] = Fraction(A[i][t], A[i][c])
        solutions.append(tuple(x))
    return tuple(solutions)


def solve_rational(M, b):
    """One exact solution x of M*x = b (x a column), free variables set to 0.

    Free variables at 0 make the answer unique: the pivot columns are
    the columns not in the span of the columns before them.  Raises
    NoSolutionError when the system is inconsistent.
    """
    return solve_rational_columns(M, (b,))[0]


def inverse(M):
    """Exact inverse of a square rational matrix."""
    try:
        columns = solve_rational_columns(M, identity(len(M)))
    except NoSolutionError:
        raise InvalidInputError("matrix is singular")
    return transpose(columns)


def is_unimodular(M):
    n = len(M)
    if n == 0:
        return True
    if any(len(row) != n for row in M):
        return False
    if not is_integral(M):
        return False
    return abs(det(M)) == 1


def first_nonpositive_minor(M):
    """1-based index of the first non-positive leading minor, or None.

    Read off the Bareiss pivots: up to the first zero leading minor, the
    elimination takes pivot k at row k and column k, with the sign of D_k.
    """
    _, pivots, _ = _echelon(M)
    for k, (i, c, value) in enumerate(pivots):
        if i != k or c != k or value <= 0:
            return k + 1
    return len(pivots) + 1 if len(pivots) < len(M) else None


def is_positive_definite(M):
    return is_symmetric(M) and first_nonpositive_minor(M) is None


def rational_rank(M):
    """Row rank over Q: the number of Bareiss pivots."""
    return len(_echelon(M)[1])


def hnf(M):
    """Row-style Hermite normal form with transform.

    Returns (H, U): U is unimodular with U*M equal to H stacked on zero
    rows; H has positive pivots, entries above each pivot reduced into
    [0, pivot), pivot columns strictly increasing, and zero rows trimmed
    (so an all-zero input yields an empty H).  H is the canonical
    identifier of the row span: equal spans give equal H.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A = [[int(x) for x in row] for row in M]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    r = 0
    for j in range(n):
        if r == m:
            break
        while True:
            live = [i for i in range(r, m) if A[i][j] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: (abs(A[i][j]), i))
            if A[i0][j] < 0:
                A[i0] = [-a for a in A[i0]]
                U[i0] = [-a for a in U[i0]]
            if i0 != r:
                A[r], A[i0] = A[i0], A[r]
                U[r], U[i0] = U[i0], U[r]
            clean = True
            for i in range(r + 1, m):
                q = A[i][j] // A[r][j]
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                if A[i][j]:
                    clean = False
            if clean:
                break
        if r < m and A[r][j] != 0:
            p = A[r][j]
            for i in range(r):
                q = A[i][j] // p
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
            r += 1
    H = tuple(tuple(row) for row in A[:r])
    return H, tuple(tuple(row) for row in U)


def hnf_basis(rows):
    """HNF of the span of the given integer vectors (transform dropped)."""
    return hnf(tuple(rows))[0]


def row_span_contains(H, v):
    """Membership of an integer vector in the row span of an HNF basis."""
    w = list(v)
    for row in H:
        j = next(k for k, x in enumerate(row) if x)
        q, rem = divmod(w[j], row[j])
        if rem:
            return False
        if q:
            w = [a - q * b for a, b in zip(w, row)]
    return not any(w)


def left_integer_kernel(M):
    """Basis (rows) of {x in Z^m : x*M = 0}; always saturated."""
    H, U = hnf(M)
    return U[len(H):]


def _integral_gso(A, scale):
    """Integral Gram-Schmidt data of an integer Gram matrix A (Cohen 2.6.7).

    d[i] is the Gram determinant of the first i vectors and lam[k][j] =
    d[j+1] * mu[k][j]; all divisions are exact.  Raises the PD error for
    the first norm d[i+1] / d[i] of A / scale that is not positive.
    """
    n = len(A)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        li = lam[i]
        for j in range(i + 1):
            u = A[i][j]
            for t in range(j):
                u = (d[t + 1] * u - li[t] * lam[j][t]) // d[t]
            if j < i:
                li[j] = u
            elif u <= 0:
                raise NotPositiveDefiniteError(
                    "Gram matrix is not positive definite (Gram-Schmidt norm %d is %s)"
                    % (i + 1, Fraction(u, d[i] * scale)))
            else:
                d[i + 1] = u
    return d, lam


def lll_integral(A, scale=1, delta=LLL_DELTA):
    """(R, U, d, lam) for an integer Gram A: R = U*A*U^T LLL-reduced, U
    unimodular, d, lam the integral Gram-Schmidt data of R.  Cohen's Alg.
    2.6.7: a size reduction, by q = floor(mu + 1/2) against j = k-1, ...,
    0, updates one row of lam; a swap updates d[k] and the lam entries
    below it.  scale, the factor A carries, only words the PD error."""
    n = len(A)
    d, lam = _integral_gso(A, scale)  # PD check up front
    U = [list(row) for row in identity(n)]
    p, q = Fraction(delta).as_integer_ratio()
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            r = (2 * lk[j] + dj) // (2 * dj)
            if r:
                U[k] = [a - r * b for a, b in zip(U[k], U[j])]
                lk[j] -= r * dj
                lj = lam[j]
                for i in range(j):
                    lk[i] -= r * lj[i]
        l = lk[k - 1]
        if q * d[k + 1] * d[k - 1] >= p * d[k] * d[k] - q * l * l:
            k += 1
            continue
        U[k], U[k - 1] = U[k - 1], U[k]
        lk1 = lam[k - 1]
        for j in range(k - 1):
            lk[j], lk1[j] = lk1[j], lk[j]
        b = (d[k - 1] * d[k + 1] + l * l) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - l * t) // d[k]
            li[k - 1] = (b * t + l * li[k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)
    U = tuple(tuple(row) for row in U)
    return mat_mul(mat_mul(U, A), transpose(U)), U, d, lam


def lll_reduce(G, delta=LLL_DELTA):
    """(G', U): lll_integral on the rational Gram G scaled to integers."""
    if not is_symmetric(G):
        raise InvalidInputError("gram: matrix is not symmetric")
    scale, (A,) = integer_scaled((G,))
    R, U, _, _ = lll_integral(A, scale, delta)
    return tuple(tuple(Fraction(x, scale) for x in row) for row in R), U


def canonical_sign(v):
    """Pick the representative of {v, -v} whose first nonzero entry is > 0."""
    for x in v:
        if x:
            return v if x > 0 else tuple(-a for a in v)
    return v


def _fincke_pohst(d, lam, U, num, den, out=None, residues=None, avoid=(), nodes=0,
                  cap=math.inf):
    """Fincke-Pohst over the integer x with norm(x) = x*A*x^T <= num / den.

    d, lam are the integral Gram-Schmidt data of A: norm(x) sums t_i^2 /
    (d_i*d_(i+1)), t_i = d_(i+1)*x_i + sum_(j>i) lam[j][i]*x_j, and level
    i spends w_i*t_i^2 = den*L*t_i^2 / (d_i*d_(i+1)) of the budget num*L,
    L the lcm of the d_i*d_(i+1).  With residues, x runs over residues +
    2Z^n in steps of 2.  The top nonzero x_i stays positive.  Each x is
    seen as v = x*U with rest, the budget left: with out a list, every
    (-rest, canonical_sign(v)) goes into it, else the search stops at the
    first v on the shell (rest 0) not in avoid.  Returns (that v or None,
    nodes plus the nodes visited); more than cap is RankTooLargeError.
    """
    n = len(U)
    L = math.lcm(*(d[i] * d[i + 1] for i in range(n)))
    w = [den * L // (d[i] * d[i + 1]) for i in range(n)]
    step, residues = (1, (0,) * n) if residues is None else (2, residues)
    strides = [tuple(step * a for a in row) for row in U]
    x = [0] * n

    def descend(i, left, v, top):
        # on entry v = sum_(j>i) x_j U_j; top: every x_j with j > i is zero
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise RankTooLargeError(
                "sphere search: %d nodes exceed the decomposition work guard %d"
                % (nodes, cap))
        D, wi, Ui = d[i + 1], w[i], U[i]
        c = sum(lam[j][i] * x[j] for j in range(i + 1, n) if x[j])
        k = math.isqrt(left // wi)
        lo = 0 if top else -((k + c) // D)
        lo += (residues[i] - lo) % step
        v = tuple(a + lo * b for a, b in zip(v, Ui))  # then x_i*U_i added
        for xi in range(lo, (k - c) // D + 1, step):
            t = D * xi + c
            rest = left - wi * t * t
            if i:
                x[i] = xi
                found = descend(i - 1, rest, v, top and not xi)
                if found:
                    return found
            elif out is not None:
                if xi or not top:
                    out.append((-rest, canonical_sign(v)))
            elif not rest and v not in avoid:
                return v
            v = tuple(map(add, v, strides[i]))
        x[i] = 0

    found = descend(n - 1, num * L, (0,) * n, True) if n else None
    del descend  # a self-referencing closure: free it without the GC
    return found, nodes


def enumerate_short_vectors(G, bound, reduced=None):
    """All nonzero integer vectors with 0 < v*G*v^T <= bound, one per +- pair,
    sorted by (norm, lexicographic order), first nonzero coordinate positive.
    G is rational, symmetric and positive definite; reduced is the (G', U)
    of lll_reduce(G) when the caller already has it."""
    n = len(G)
    if not is_symmetric(G):
        raise InvalidInputError("gram: matrix is not symmetric")
    P, Q = Fraction(bound).as_integer_ratio()
    if P <= 0 or not n:
        return ()
    Gred, U = reduced or lll_reduce(G)
    s, (A,) = integer_scaled((Gred,))
    d, lam = _integral_gso(A, s)
    found = []  # (minus the budget left, canonical vector)
    _fincke_pohst(d, lam, U, s * P, Q, found)
    found.sort()
    return tuple(v for _, v in found)


def sphere_point(d, lam, x, norm, nodes=0, cap=math.inf):
    """(u or None, nodes plus the nodes visited) for u on the Thales sphere
    of x: u = x (mod 2), norm(u) = norm(x) = norm, u != +-x.  Every split
    x = y + (x - y) into orthogonal nonzero parts has y = (x + u) / 2."""
    return _fincke_pohst(d, lam, identity(len(x)), norm, 1, None, tuple(a % 2 for a in x),
                         (x, tuple(-a for a in x)), nodes, cap)
