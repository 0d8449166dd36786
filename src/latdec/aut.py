"""Isometry groups of small definite lattices.

The Grams are scaled to integers once, by one common factor, and reduced
by lll_integral.  Row i of a solution W of W*F_to*W^T = F_from on the
reduced Grams has norm F_from[i][i], so it comes from that norm shell of
F_to, either sign.  Each candidate keeps its integer column F_to*w^T, and
a backtrack checks its products with the chosen prefix of rows only.

aut_group follows the stabiliser chain of Plesken and Souvignier
(J. Symbolic Comput. 24 (1997)).  For i = n-1 down to 0 it completes the
orbit of b_i under the isometries that fix b_0..b_(i-1): each candidate
image that the generators found so far do not reach gets one backtrack,
and a success becomes a generator.  |Aut| is the product of the orbit
lengths, and only the generators are carried back to the input basis.

The rank guard (default 8) remains because the enumerated ball and the
backtrack grow exponentially with the rank.
"""

import math
from collections import deque
from dataclasses import dataclass

from .errors import InternalError, RankTooLargeError
from .lattice import decompose, resolve_max_rank
from .linalg import (
    dot,
    enumerate_short_vectors,
    hnf,
    hnf_basis,
    identity,
    integer_scaled,
    is_integral,
    lll_integral,
    mat_mul,
    transpose,
    vec_mat,
)

AUT_MAX_RANK = 8
CLOSURE_CAP = 10 ** 6


@dataclass(frozen=True)
class IsometryGroup:
    """Generators (unimodular, Gram-preserving) and the exact group order."""

    generators: tuple
    order: int


def group_closure(generators, cap=CLOSURE_CAP):
    """All products of the given matrices; generators must be nonempty."""
    n = len(generators[0])
    seen = {identity(n)}
    queue = deque(seen)
    gens = [tuple(tuple(int(x) for x in row) for row in g) for g in generators]
    while queue:
        x = queue.popleft()
        for g in gens:
            y = mat_mul(x, g)
            if y not in seen:
                if len(seen) >= cap:
                    raise InternalError("group closure exceeded %d elements" % cap)
                seen.add(y)
                queue.append(y)
    return seen


def _shells(F_from, F_to, vectors):
    """Candidate rows of W with W*G_to*W^T = G_from, shell by shell.

    F_from and F_to are the Grams times one common integer scale; vectors
    are short vectors of G_to, one per sign, that include every norm of
    the G_from diagonal.  Returns (cols, shells): shells[i] lists the
    signed candidates of the norm of row i, and cols[w] = F_to*w^T.
    """
    diagonal = [F_from[i][i] for i in range(len(F_from))]
    cols, by_norm = {}, {d: [] for d in diagonal}
    for v in vectors:
        col = vec_mat(v, F_to)
        norm = dot(v, col)
        if norm in by_norm:
            neg = tuple(-x for x in v)
            cols[v], cols[neg] = col, tuple(-x for x in col)
            by_norm[norm] += (v, neg)
    return cols, [by_norm[d] for d in diagonal]


def _fits(F, cols, rows, w):
    """Whether candidate w can follow the rows: its products with them match."""
    for r, target in zip(rows, F[len(rows)]):
        if dot(w, cols[r]) != target:
            return False
    return True


def _extend(F, cols, shells, rows):
    """The rows of a whole solution that begins with rows, or None."""
    if len(rows) == len(F):
        return rows
    for w in shells[len(rows)]:
        if _fits(F, cols, rows, w):
            found = _extend(F, cols, shells, rows + [w])
            if found:
                return found
    return None


def _orbit(v, gens):
    """The orbit of the row vector v under the group the matrices generate."""
    orbit = {v}
    queue = [v]
    for w in queue:
        for g in gens:
            x = vec_mat(w, g)
            if x not in orbit:
                orbit.add(x)
                queue.append(x)
    return orbit


def _in_input_basis(Ws, U_from, U_to, S_from, S_to):
    """U_from^-1 * W * U_to for solutions W on reduced bases, each checked
    against the input Grams S_from, S_to, scaled to integers by one factor."""
    V = hnf(U_from)[1]  # hnf(U) is (I, U^-1) for a unimodular U
    Xs = tuple(mat_mul(mat_mul(V, W), U_to) for W in Ws)
    if any(mat_mul(mat_mul(X, S_to), transpose(X)) != S_from for X in Xs):
        raise InternalError("isometry fails its defining equation")
    return Xs


def _check_rank(rank, max_rank):
    limit = resolve_max_rank(AUT_MAX_RANK, max_rank)
    if rank > limit:
        raise RankTooLargeError(
            "rank %d exceeds isometry guard %d (set LATDEC_MAX_RANK to override)"
            % (rank, limit))


def aut_group(L, max_rank=None):
    """The full isometry group of the lattice, with exact order."""
    n = L.rank
    _check_rank(n, max_rank)
    if n == 0:
        return IsometryGroup((), 1)
    s, (A,) = integer_scaled((L.gram,))
    F, U, _, _ = lll_integral(A, s)
    cols, shells = _shells(F, F, enumerate_short_vectors(F, max(F[i][i] for i in range(n))))
    base = list(identity(n))
    gens = []  # on the reduced basis; those found at level i fix b_0..b_(i-1)
    order = 1
    for i in reversed(range(n)):
        orbit = _orbit(base[i], gens)
        for w in shells[i]:
            if w in orbit or not _fits(F, cols, base[:i], w):
                continue
            rows = _extend(F, cols, shells, base[:i] + [w])
            if rows is not None:
                gens.append(tuple(rows))
                orbit = _orbit(base[i], gens)
        order *= len(orbit)
    return IsometryGroup(_in_input_basis(gens, U, U, A, A), order)


def isometry_witness(L1, L2, max_rank=None):
    """U with U*G2*U^T = G1, or None when the lattices are not isometric."""
    n = max(L1.rank, L2.rank)
    _check_rank(n, max_rank)
    if L1.rank != L2.rank:
        return None
    if n == 0:
        return ()
    s, (A1, A2) = integer_scaled((L1.gram, L2.gram))
    (F1, U1, d1, _), (F2, U2, d2, _) = (lll_integral(A, s) for A in (A1, A2))
    if d1[n] != d2[n]:  # the determinants, under the common scale
        return None
    bound = max(F[i][i] for F in (F1, F2) for i in range(n))
    # one enumeration per side, at one bound: the norm lists, then the shells
    vecs1, vecs2 = (enumerate_short_vectors(F, bound) for F in (F1, F2))
    if [dot(vec_mat(v, F1), v) for v in vecs1] != [dot(vec_mat(v, F2), v) for v in vecs2]:
        return None
    cols, shells = _shells(F1, F2, vecs2)
    rows = _extend(F1, cols, shells, [])
    if rows is None:
        return None
    return _in_input_basis([tuple(rows)], U1, U2, A1, A2)[0]


def is_isometric(L1, L2, max_rank=None):
    return isometry_witness(L1, L2, max_rank) is not None


def _isometry_classes(blocks, max_rank=None):
    """Isometry classes of the blocks, each read as a lattice (.gram, .rank):
    pairs (first-seen representative, list of indices)."""
    classes = []
    for idx, b in enumerate(blocks):
        for rep, idxs in classes:
            if rep.rank == b.rank and is_isometric(rep, b, max_rank):
                idxs.append(idx)
                break
        else:
            classes.append((b, [idx]))
    return classes


def grouped_decomposition(L, max_rank=None):
    """Indecomposable blocks grouped into isometry classes with multiplicity.

    Blocks are canonically ordered, so the first member of each class is
    the canonically smallest and serves as the representative.
    """
    D = decompose(L, max_rank)
    return tuple((rep, len(idxs)) for rep, idxs in _isometry_classes(D.blocks, max_rank))


def _perm_group_order(perms, degree):
    """Order of the group the permutations generate (p[i] is the image of i).

    Schreier-Sims with a Sims filter: row i holds, per image j of i, one
    sifted element fixing 0..i-1 that sends i to j.  Each new entry's
    products s*t with row(s) >= row(t) are sifted in turn; once all sift
    through, the rows are transversals of the stabiliser chain (Knuth,
    "Efficient representation of perm groups", 1991).
    """
    table = [{} for _ in range(degree)]  # row i: image of i -> (u, u^-1)
    queue = list(perms)
    while queue:
        g = queue.pop()
        for i in range(degree):
            j = g[i]
            if j == i:
                continue
            if j in table[i]:
                g = tuple(table[i][j][1][x] for x in g)
                continue
            table[i][j] = (g, tuple(sorted(range(degree), key=g.__getitem__)))
            for row in table[i:]:
                queue.extend(tuple(s[x] for x in g) for s, _ in row.values())
            for row in table[:i + 1]:
                queue.extend(tuple(g[x] for x in t) for t, _ in row.values())
            break
    return math.prod(len(row) + 1 for row in table)


def verify_aut_factorization(L, A, max_rank=None):
    """Audit a claimed isometry group A of L against the blocks of L.

    (a) Every claimed generator is an integer isometry of L, (b) |A| equals
    the product over isometry classes of |Aut(representative)|^e times e!,
    (c) every generator permutes the set of block spans, and (d) within
    each class of e blocks the induced permutations generate all of S_e,
    as those of the full group do.
    """
    return _factorization(L, A, max_rank)[1]


def _factorization(L, A, max_rank=None):
    """grouped_decomposition(L) and verify_aut_factorization(L, A) at once.

    Both come from one decomposition of L and one sorting of its blocks
    into isometry classes.
    """
    D = decompose(L, max_rank)
    classes = _isometry_classes(D.blocks, max_rank)
    grouped = tuple((rep, len(idxs)) for rep, idxs in classes)
    _, (S,) = integer_scaled((L.gram,))
    for X in A.generators:
        if (len(X) != L.rank or any(len(r) != L.rank for r in X)
                or not is_integral(X) or mat_mul(mat_mul(X, S), transpose(X)) != S):
            return grouped, False
    expected = 1
    for rep, idxs in classes:
        expected *= aut_group(rep, max_rank).order ** len(idxs)
        expected *= math.factorial(len(idxs))
    if expected != A.order:
        return grouped, False
    span_index = {b.basis: k for k, b in enumerate(D.blocks)}
    induced = [set() for _ in classes]
    for X in A.generators:
        mapping = []
        for b in D.blocks:
            img = hnf_basis(tuple(
                tuple(int(y) for y in vec_mat(r, X)) for r in b.basis
            ))
            if img not in span_index:
                return grouped, False
            mapping.append(span_index[img])
        for c, (_, idxs) in enumerate(classes):
            images = [mapping[i] for i in idxs]
            if sorted(images) != sorted(idxs):
                return grouped, False
            induced[c].add(tuple(idxs.index(m) for m in images))
    ok = all(_perm_group_order(induced[c], len(idxs)) == math.factorial(len(idxs))
             for c, (_, idxs) in enumerate(classes))
    return grouped, ok
