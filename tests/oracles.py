"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the library's own enumeration and
reduction code paths: short vectors come from exhaustive box searches
and from a Fincke-Pohst enumeration in Fractions, group orders from
explicit closure, isometries from a full backtrack on Fraction pairings,
reducedness from a direct check of the defining inequalities, LLL from a
rational Gram-Schmidt table recomputed after every step, determinants,
ranks and solutions from the permutation expansion and Cramer's rule,
orthogonal splittings from Fraction pairings evaluated straight from the
definition, polarised splittings from idempotents of the endomorphism
order, and the algebra and involution laws from Fraction products of
basis elements.  The one exception is ball_pipeline, the decomposition
engine the sphere split replaced, kept as it was: it checks the sphere
split by another algorithm, on the library's ball enumeration.
"""

import itertools
import math
import operator
from fractions import Fraction
from itertools import islice

from latdec.errors import NotPositiveDefiniteError, RankTooLargeError
from latdec.hodge import _commutant_matrix_basis, endomorphism_order
from latdec.idempotents import decompose_unity
from latdec.lattice import DECOMPOSE_MAX_RANK, merge_blocks, resolve_max_rank
from latdec.linalg import (
    as_fraction_matrix,
    dot,
    enumerate_short_vectors,
    gram_value,
    hnf_basis,
    integer_scaled,
    inverse,
    lll_reduce,
    mat_mul,
    mat_vec,
)


def _box_radii(G, bound):
    # |x_i| <= sqrt(bound * (G^-1)_ii) for any x with x G x^T <= bound
    Gf = as_fraction_matrix(G)
    Ginv = inverse(Gf)
    prod = mat_mul(Gf, Ginv)
    n = len(G)
    assert prod == tuple(
        tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
    ), "inverse sanity check failed"
    radii = []
    for i in range(n):
        r = Fraction(bound) * Ginv[i][i]
        assert r >= 0
        radii.append(math.isqrt(r.numerator // r.denominator))
    return radii


def leibniz_det(M):
    """Determinant by the permutation expansion, exact in Fractions."""
    n = len(M)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i, p in enumerate(perm):
            term *= M[i][p]
        total += term
    return total


def leading_minors(M):
    """D_1..D_n, each by the permutation expansion."""
    return [leibniz_det([row[:k] for row in M[:k]]) for k in range(1, len(M) + 1)]


def minor_rank(M):
    """Size of the largest nonzero minor."""
    m = len(M)
    n = len(M[0]) if m else 0
    for k in range(min(m, n), 0, -1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                if leibniz_det([[M[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def cramer_solve(M, b):
    """The solution of M x = b with free variables 0, or None if inconsistent.

    The pivot columns are those that raise the rank of the column prefix;
    x on them solves a nonsingular square subsystem by Cramer's rule.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    r = minor_rank(M)
    if minor_rank([tuple(row) + (b[i],) for i, row in enumerate(M)]) != r:
        return None
    cols = [c for c in range(n)
            if minor_rank([row[:c + 1] for row in M]) > minor_rank([row[:c] for row in M])]
    rows = next(R for R in itertools.combinations(range(m), r)
                if leibniz_det([[M[i][c] for c in cols] for i in R]))
    A = [[M[i][c] for c in cols] for i in rows]
    D = leibniz_det(A)
    x = [Fraction(0)] * n
    for k, c in enumerate(cols):
        Ak = [[b[i] if kk == k else A[ii][kk] for kk in range(r)]
              for ii, i in enumerate(rows)]
        x[c] = leibniz_det(Ak) / D
    return tuple(x)


def canonical(v):
    for x in v:
        if x:
            return v if x > 0 else tuple(-a for a in v)
    return v


def brute_short_vectors(G, bound):
    """Exhaustive exact search, one representative per +- pair, sorted.

    Norms are taken in integers, against G times the lcm s of its
    denominators, and compared with s * bound.
    """
    Gf = as_fraction_matrix(G)
    s = math.lcm(*(x.denominator for row in Gf for x in row))
    Gs = [[int(x * s) for x in row] for row in Gf]
    limit = Fraction(bound) * s
    radii = _box_radii(G, bound)
    hits = {}
    for v in itertools.product(*(range(-r, r + 1) for r in radii)):
        q = sum(a * sum(map(operator.mul, row, v)) for a, row in zip(v, Gs) if a)
        if 0 < q <= limit:
            hits[canonical(v)] = q
    return sorted(hits, key=lambda v: (hits[v], v))


def brute_short_vectors_big(G, bound):
    """Same search, vectorised with numpy for desk-scale ranks around 8.

    Integer arithmetic in int64; guarded against overflow, which keeps it
    exact.  The largest coordinate is looped in Python so the mesh stays
    small.
    """
    import numpy as np

    n = len(G)
    Gi = [[int(x) for x in row] for row in G]
    bound = int(bound)
    radii = _box_radii(G, bound)
    worst = max(radii) ** 2 * max(abs(x) for row in Gi for x in row) * n * n
    assert worst < 2 ** 62, "box too large for int64"
    k = radii.index(max(radii))
    rest = [i for i in range(n) if i != k]
    axes = [np.arange(-radii[i], radii[i] + 1, dtype=np.int64) for i in rest]
    mesh = np.meshgrid(*axes, indexing="ij")
    V = np.stack([m.ravel() for m in mesh], axis=1)
    Gnp = np.array(Gi, dtype=np.int64)
    Gsub = Gnp[np.ix_(rest, rest)]
    qpart = np.einsum("ij,jk,ik->i", V, Gsub, V)
    cross = V @ Gnp[rest, k]
    dkk = Gnp[k, k]
    hits = set()
    for xk in range(-radii[k], radii[k] + 1):
        q = qpart + 2 * xk * cross + dkk * xk * xk
        ok = np.nonzero((q > 0) & (q <= bound))[0]
        for idx in ok:
            v = [0] * n
            for pos, i in enumerate(rest):
                v[i] = int(V[idx, pos])
            v[k] = xk
            hits.add(canonical(tuple(v)))
    Gf = as_fraction_matrix(G)
    return sorted(hits, key=lambda v: (gram_value(Gf, v, v), v))


def _floor_sqrt_plus(r, c):
    """floor(sqrt(r) + c) for Fractions r >= 0, c arbitrary; exact."""
    m = math.isqrt(r.numerator // r.denominator)
    k = math.floor(m + c)
    t = k + 1 - c
    if t <= 0 or t * t <= r:
        return k + 1
    return k


def fraction_short_vectors(G, bound):
    """Fincke-Pohst in Fractions, one representative per +- pair, sorted.

    mu, B and each level's centre come from gram_schmidt of the reduced
    Gram, interval ends are floor(sqrt(r) + c) exact in Fractions, a set
    drops the second sign, and the sort recomputes every norm from G.
    The reduction is lll_full_recompute's.
    """
    n = len(G)
    bound = Fraction(bound)
    if bound <= 0:
        return ()
    Gred, U = lll_full_recompute(G)
    B, mu = gram_schmidt(Gred)
    found = set()
    x = [0] * n

    def descend(i, remaining):
        if i < 0:
            if any(x):
                found.add(canonical(tuple(
                    sum(a * row[j] for a, row in zip(x, U)) for j in range(n))))
            return
        c = sum((mu[j][i] * x[j] for j in range(i + 1, n)), Fraction(0))
        r = remaining / B[i]
        for xi in range(-_floor_sqrt_plus(r, c), _floor_sqrt_plus(r, -c) + 1):
            x[i] = xi
            descend(i - 1, remaining - B[i] * (xi + c) * (xi + c))
        x[i] = 0

    descend(n - 1, bound)
    Gf = as_fraction_matrix(G)
    return tuple(sorted(found, key=lambda v: (gram_value(Gf, v, v), v)))


def gram_schmidt(G):
    """Squared norms B and coefficients mu of a Gram matrix, in Fractions.

    Raises NotPositiveDefiniteError, worded as latdec words it, at the
    first orthogonalised norm that is not positive.
    """
    n = len(G)
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            s = Fraction(G[i][j])
            for k in range(j):
                s -= mu[i][k] * mu[j][k] * B[k]
            mu[i][j] = s / B[j]
        s = Fraction(G[i][i])
        for k in range(i):
            s -= mu[i][k] * mu[i][k] * B[k]
        if s <= 0:
            raise NotPositiveDefiniteError(
                "Gram matrix is not positive definite (Gram-Schmidt norm %d is %s)"
                % (i + 1, s))
        B[i] = s
    return B, mu


def is_lll_reduced(G, delta=Fraction(99, 100)):
    """Direct check of size reduction and the Lovasz condition."""
    n = len(G)
    try:
        B, mu = gram_schmidt(G)
    except NotPositiveDefiniteError:
        return False
    for i in range(n):
        for j in range(i):
            if abs(mu[i][j]) > Fraction(1, 2):
                return False
    for k in range(1, n):
        if B[k] < (delta - mu[k][k - 1] * mu[k][k - 1]) * B[k - 1]:
            return False
    return True


def lll_full_recompute(G, delta=Fraction(99, 100)):
    """Textbook rational LLL on a Gram matrix: (G', U) with G' = U G U^T.

    Row k is size-reduced against j = k-1, ..., 0 with q = floor(mu + 1/2),
    then the Lovasz test decides between k + 1 and a swap.  The whole
    Gram-Schmidt table is recomputed from the current Gram matrix after
    every step, so nothing is updated incrementally.
    """
    n = len(G)
    A = [[Fraction(x) for x in row] for row in G]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    gram_schmidt(A)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = math.floor(gram_schmidt(A)[1][k][j] + Fraction(1, 2))
            if q:
                for c in range(n):
                    A[k][c] -= q * A[j][c]
                for r in range(n):
                    A[r][k] -= q * A[r][j]
                U[k] = [a - q * b for a, b in zip(U[k], U[j])]
        B, mu = gram_schmidt(A)
        if B[k] >= (delta - mu[k][k - 1] * mu[k][k - 1]) * B[k - 1]:
            k += 1
        else:
            A[k], A[k - 1] = A[k - 1], A[k]
            for row in A:
                row[k], row[k - 1] = row[k - 1], row[k]
            U[k], U[k - 1] = U[k - 1], U[k]
            k = max(k - 1, 1)
    return tuple(map(tuple, A)), tuple(map(tuple, U))


def splits_off(x, vectors, norm, pair):
    """True when some y in +-vectors with norm(y) < norm(x) has pair(y, x - y) zero.

    pair(u, v) returns the pairing value as a tuple, zero meaning orthogonal.
    """
    for y in vectors:
        if norm(y) >= norm(x):
            continue
        for cand in (y, tuple(-a for a in y)):
            z = tuple(a - b for a, b in zip(x, cand))
            if any(z) and not any(pair(cand, z)):
                return True
    return False


def oracle_blocks(gram, pair):
    """Block spans of the orthogonal splitting, straight from the definitions.

    The ball S has radius the largest diagonal entry of gram, so it holds
    the basis; its primitive vectors, grouped by "pair is nonzero" into
    connected components, span the blocks.  Returns a frozenset of HNFs.
    """
    Gf = as_fraction_matrix(gram)
    ball = brute_short_vectors(gram, max(Gf[i][i] for i in range(len(Gf))))
    norms = {v: gram_value(Gf, v, v) for v in ball}
    prims = [x for x in ball if not splits_off(x, ball, norms.__getitem__, pair)]
    spans = []
    while prims:
        comp = [prims.pop()]
        for u in comp:
            linked = [v for v in prims if any(pair(u, v))]
            prims = [v for v in prims if v not in linked]
            comp.extend(linked)
        spans.append(hnf_basis(comp))
    return frozenset(spans)


def _witness_split(col, below):
    """A y in below (all shorter than x) such that y or -y splits off from x.

    col is the column G x^T of the integer Gram G, so f(y, x) = y . col,
    and below yields pairs (y, f(y, y)).  As f(+-y, x -+ y) = +-f(y, x) -
    f(y, y), the test is |f(y, x)| = f(y, y).
    """
    for y, norm in below:
        if abs(dot(y, col)) == norm:
            return y
    return None


def ball_pipeline(gram, max_rank=None):
    """Sorted HNF bases of the Z-blocks of a positive definite rational Gram.

    The former lattice.decompose_pipeline, with its signature: it
    enumerates the ball S up to the largest reduced norm, keeps the
    primitive vectors of S (no shorter y in S splits off) and joins them
    by "f(u, v) is nonzero".  Its time grows with the spread of the
    reduced norms, so it serves only where they are narrow.
    """
    n = len(gram)
    limit = resolve_max_rank(DECOMPOSE_MAX_RANK, max_rank)
    if n > limit:
        raise RankTooLargeError(
            "rank %d exceeds decomposition guard %d (set LATDEC_MAX_RANK to override)"
            % (n, limit))
    gram = as_fraction_matrix(gram)
    reduced = lll_reduce(gram)
    bound = max((reduced[0][i][i] for i in range(n)), default=0)
    shorts = enumerate_short_vectors(gram, bound)
    _, (G,) = integer_scaled((gram,))
    done = []  # (y, f(y, y)) for the vectors y before x
    cols = {}  # the primitives, with their columns G x^T
    level = 0  # done[:level] are the vectors of smaller norm than x
    for i, x in enumerate(shorts):
        col = mat_vec(G, x)
        norm = dot(x, col)
        if i and norm != done[level][1]:
            level = i
        if _witness_split(col, islice(done, level)) is None:
            cols[x] = col
        done.append((x, norm))
    return merge_blocks(n, [(x,) for x in cols], lambda r, s: dot(s, cols[r]))


def hodge_by_order(H):
    """Block spans of a polarised structure through its endomorphism order.

    Splits 1 in the order into Hermitian idempotents and spans the image
    of each as a matrix in the saturated commutant basis of j.  The order
    has dimension up to (2g)^2 / 2, so its guard is lifted.  Raises
    InvalidHodgeStructureError when the adjoint leaves the order, as it
    may for a polarisation that is not principal.  Returns a frozenset
    of HNFs.
    """
    order = endomorphism_order(H)
    basis = _commutant_matrix_basis(H.j)
    N = H.rank
    spans = set()
    for v in decompose_unity(order, max_rank=order.dim).idems:
        M = [[0] * N for _ in range(N)]
        for coeff, B in zip(v, basis):
            if coeff:
                for a in range(N):
                    for b in range(N):
                        M[a][b] += coeff * B[a][b]
        spans.add(hnf_basis(tuple(zip(*M))))
    return frozenset(spans)


def closure_order(generators, cap=10 ** 6):
    """Order of the group generated by the given matrices, by saturation."""
    gens = [tuple(tuple(int(x) for x in row) for row in g) for g in generators]
    if not gens:
        return 1
    n = len(gens[0])
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                p = tuple(
                    tuple(sum(a[i][m] * g[m][j] for m in range(n)) for j in range(n))
                    for i in range(n)
                )
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
                    assert len(seen) <= cap, "closure exceeded cap"
        frontier = nxt
    return len(seen)


def o_stable(action, rows):
    """Whether A r lies in the Z-span of the rows for every A and every row r.

    The rows must be linearly independent.  x solves the normal equations
    x (rows rows^T) = w rows^T by Cramer's rule; w = A r lies in the span
    exactly when x * rows = w with x integral.
    """
    K = [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]
    for A in action:
        for r in rows:
            w = [sum(Fraction(a) * c for a, c in zip(row, r)) for row in A]
            x = cramer_solve(K, [sum(a * b for a, b in zip(u, w)) for u in rows])
            if [sum(c * u[j] for c, u in zip(x, rows)) for j in range(len(w))] != w \
                    or any(c.denominator != 1 for c in x):
                return False
    return True


def isometry_elements(G):
    """Every isometry X (X G X^T = G) of a small Gram, by full enumeration.

    A backtrack on R = U G U^T, U from lll_full_recompute, lists every W
    with W R W^T = R: its rows have R's diagonal norms, so they are among
    the box-searched short vectors and their negatives, and Fraction
    pairings prune the partial rows.  Each W is carried back as U^-1 W U.
    """
    R, U = lll_full_recompute(G)
    n = len(R)
    vecs = [w for v in brute_short_vectors(R, max(R[i][i] for i in range(n)))
            for w in (v, tuple(-x for x in v))]
    levels = [[v for v in vecs if gram_value(R, v, v) == R[i][i]] for i in range(n)]
    pairs = {}
    sols = []

    def pair(u, v):
        if (u, v) not in pairs:
            pairs[u, v] = gram_value(R, u, v)
        return pairs[u, v]

    def extend(rows):
        i = len(rows)
        if i == n:
            sols.append(rows)
            return
        for v in levels[i]:
            if all(pair(rows[j], v) == R[i][j] for j in range(i)):
                extend(rows + [v])

    extend([])
    # U is unimodular, so U^-1 is integral and the products stay in Z
    U_inv = tuple(tuple(int(x) for x in row) for row in inverse(as_fraction_matrix(U)))
    elements = {mat_mul(mat_mul(U_inv, W), U) for W in sols}
    assert len(elements) == len(sols), "conjugation collapsed distinct isometries"
    return elements


def random_unimodular(rng, n, max_abs=3, steps=12):
    """Unimodular matrix with entries bounded by max_abs, via random row ops."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    done = 0
    attempts = 0
    while done < steps and attempts < 200:
        attempts += 1
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and n > 1:
            s = rng.choice((1, -1))
            cand = [a + s * b for a, b in zip(M[i], M[j])]
            if max(abs(x) for x in cand) <= max_abs:
                M[i] = cand
                done += 1
        elif kind == 1 and n > 1:
            M[i], M[j] = M[j], M[i]
            done += 1
        else:
            M[i] = [-x for x in M[i]]
            done += 1
    return tuple(tuple(row) for row in M)


def random_spd_gram(rng, n, spread=2):
    """Random integer SPD Gram matrix, built as A A^T + diag."""
    A = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
    G = [[sum(A[i][k] * A[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    for i in range(n):
        G[i][i] += rng.randint(1, 2)
    return tuple(tuple(row) for row in G)


def _fraction_mult(c, x, y):
    d = len(c)
    return tuple(
        sum((x[i] * y[j] * c[i][j][k] for i in range(d) for j in range(d) if x[i] and y[j]),
            Fraction(0))
        for k in range(d))


def algebra_law_failure(structure, one):
    """First failure message of the unit and associativity laws, or None.

    The Fraction loops of the original constructor: the unit law on every
    basis element, then (e_i e_j) e_k = e_i (e_j e_k) over i, j, k.
    """
    d = len(structure)
    c = [[[Fraction(x) for x in row] for row in plane] for plane in structure]
    one = tuple(Fraction(x) for x in one)
    basis = [tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)]
    for i, e in enumerate(basis):
        if _fraction_mult(c, one, e) != e or _fraction_mult(c, e, one) != e:
            return "one: unit law fails at basis element %d" % i
    for i, j, k in itertools.product(range(d), repeat=3):
        if _fraction_mult(c, c[i][j], basis[k]) != _fraction_mult(c, basis[i], c[j][k]):
            return "structure_constants: associativity fails at (%d,%d,%d)" % (i, j, k)
    return None


def involution_law_failure(structure, one, matrix):
    """First failure message of the involution laws, or None.

    S^2 = 1, S fixes the unit, then (e_i e_j)* = e_j* e_i* over i, j, with
    each star image recomputed as in the original constructor.
    """
    d = len(structure)
    c = [[[Fraction(x) for x in row] for row in plane] for plane in structure]
    S = as_fraction_matrix(matrix)

    def star(x):
        return tuple(sum(S[r][k] * x[k] for k in range(d)) for r in range(d))

    if mat_mul(S, S) != as_fraction_matrix(tuple(
            tuple(int(i == j) for j in range(d)) for i in range(d))):
        return "involution: S^2 is not the identity"
    if star(one) != tuple(Fraction(x) for x in one):
        return "involution: does not fix the unit"
    basis = [tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)]
    for i in range(d):
        si = star(basis[i])
        for j in range(d):
            sj = star(basis[j])
            if star(c[i][j]) != _fraction_mult(c, sj, si):
                return "involution: (e_%d e_%d)* != e_%d* e_%d*" % (i, j, j, i)
    return None


def perm_closure(perms, degree):
    """Every product of the permutations (p[i] the image of i), by search."""
    ident = tuple(range(degree))
    seen = {ident} | set(perms)
    queue = list(seen)
    for p in queue:
        for q in perms:
            r = tuple(p[q[i]] for i in range(degree))
            if r not in seen:
                seen.add(r)
                queue.append(r)
    return seen
