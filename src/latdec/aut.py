"""Isometry groups of small definite lattices.

Isometries are found by backtracking over images of an LLL-reduced
basis.  Every row of an isometry has the norm of the corresponding
reduced basis vector, so candidates come from the finite enumerated
ball of norm up to the largest reduced diagonal; partial inner-product
constraints prune the search.  Integer inner products between candidates,
against both Grams scaled by one common factor, are precomputed once,
which keeps the inner loop to table lookups.

Everything here is desk-scale on purpose: the rank guard (default 8)
exists because the full group is enumerated element by element.
"""

import math
from collections import deque
from dataclasses import dataclass

from .errors import InternalError, RankTooLargeError
from .lattice import ZLattice, decompose, resolve_max_rank
from .linalg import (
    as_fraction_matrix,
    det,
    dot,
    enumerate_short_vectors,
    hnf_basis,
    identity,
    integer_scaled,
    inverse,
    lll_reduce,
    mat_mul,
    to_int_matrix,
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


def _int_mul(A, B):
    cols = tuple(zip(*B))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
        for row in A
    )


def group_closure(generators, cap=CLOSURE_CAP):
    """All products of the given matrices; generators must be nonempty."""
    n = len(generators[0])
    seen = {identity(n)}
    queue = deque(seen)
    gens = [tuple(tuple(int(x) for x in row) for row in g) for g in generators]
    while queue:
        x = queue.popleft()
        for g in gens:
            y = _int_mul(x, g)
            if y not in seen:
                if len(seen) >= cap:
                    raise InternalError("group closure exceeded %d elements" % cap)
                seen.add(y)
                queue.append(y)
    return seen


def _reduce_generators(elements):
    """Greedy: keep an element only when the kept ones do not reach it."""
    ident = identity(len(elements[0]))
    closure = {ident}
    gens = []
    for g in sorted(elements):
        if g not in closure:
            gens.append(g)
            closure = group_closure(gens)
    if len(closure) != len(elements):
        raise InternalError("generator closure disagrees with enumerated order")
    return tuple(gens)


def _search(G_from, G_to, find_all):
    """Integer W with W*G_to*W^T = G_from, as lists of rows.

    Complete: rows of any solution have the norms of the G_from diagonal
    and therefore appear among the enumerated candidates.
    """
    n = len(G_from)
    bound = max(G_from[i][i] for i in range(n))
    cands = []
    # G_to is LLL-reduced already, and the enumerated set does not depend on the basis
    for v in enumerate_short_vectors(G_to, bound, reduced=(G_to, identity(n))):
        cands.append(v)
        cands.append(tuple(-x for x in v))
    # one scale for both Grams: their denominators may differ
    _, (F_from, F_to) = integer_scaled((G_from, G_to))
    ip = [[dot(r, v) for v in cands] for r in (vec_mat(u, F_to) for u in cands)]
    by_level = []
    for i in range(n):
        target = F_from[i][i]
        level = tuple(k for k in range(len(cands)) if ip[k][k] == target)
        if not level:
            return []
        by_level.append(level)
    sols = []
    rows = []

    def rec(i):
        for a in by_level[i]:
            ok = True
            for j in range(i):
                if ip[rows[j]][a] != F_from[i][j]:
                    ok = False
                    break
            if not ok:
                continue
            rows.append(a)
            if i + 1 == n:
                sols.append(tuple(rows))
                if not find_all:
                    rows.pop()
                    return True
            elif rec(i + 1):
                rows.pop()
                return True
            rows.pop()
        return False

    rec(0)
    return [tuple(cands[a] for a in s) for s in sols]


def aut_group(L, max_rank=None):
    """The full isometry group of the lattice, with exact order."""
    n = L.rank
    limit = resolve_max_rank(AUT_MAX_RANK, max_rank)
    if n > limit:
        raise RankTooLargeError(
            "rank %d exceeds isometry guard %d (set LATDEC_MAX_RANK to override)"
            % (n, limit))
    if n == 0:
        return IsometryGroup((), 1)
    R, U = lll_reduce(L.gram)
    mats = _search(R, R, find_all=True)
    U_int = to_int_matrix(U)
    U_inv = to_int_matrix(inverse(as_fraction_matrix(U_int)))
    elements = {_int_mul(_int_mul(U_inv, W), U_int) for W in mats}
    if len(elements) != len(mats):
        raise InternalError("conjugation collapsed distinct isometries")
    gens = _reduce_generators(list(elements))
    G = L.gram
    for X in gens:
        XF = as_fraction_matrix(X)
        if mat_mul(mat_mul(XF, G), transpose(XF)) != G:
            raise InternalError("generator does not preserve the Gram matrix")
    return IsometryGroup(gens, len(elements))


def isometry_witness(L1, L2, max_rank=None):
    """U with U*G2*U^T = G1, or None when the lattices are not isometric."""
    limit = resolve_max_rank(AUT_MAX_RANK, max_rank)
    if max(L1.rank, L2.rank) > limit:
        raise RankTooLargeError(
            "rank %d exceeds isometry guard %d (set LATDEC_MAX_RANK to override)"
            % (max(L1.rank, L2.rank), limit))
    if L1.rank != L2.rank:
        return None
    if L1.rank == 0:
        return ()
    G1, G2 = L1.gram, L2.gram
    if det(G1) != det(G2):
        return None
    R1, U1 = lll_reduce(G1)
    R2, U2 = lll_reduce(G2)
    bound = max(max(R1[i][i] for i in range(len(R1))),
                max(R2[i][i] for i in range(len(R2))))
    _, (F1, F2) = integer_scaled((R1, R2))  # R1 and R2 are reduced already
    norms1, norms2 = ([dot(vec_mat(v, F), v) for v in enumerate_short_vectors(
        R, bound, reduced=(R, identity(L1.rank)))] for R, F in ((R1, F1), (R2, F2)))
    if norms1 != norms2:
        return None
    sols = _search(R1, R2, find_all=False)
    if not sols:
        return None
    W = sols[0]
    V = _int_mul(_int_mul(to_int_matrix(inverse(U1)), W), to_int_matrix(U2))
    VF = as_fraction_matrix(V)
    if mat_mul(mat_mul(VF, G2), transpose(VF)) != as_fraction_matrix(G1):
        raise InternalError("isometry witness fails its defining equation")
    return V


def is_isometric(L1, L2, max_rank=None):
    return isometry_witness(L1, L2, max_rank) is not None


def _isometry_classes(blocks, max_rank=None):
    """Partition blocks into isometry classes, first-seen representative."""
    classes = []
    for idx, b in enumerate(blocks):
        Lb = ZLattice(b.gram)
        for cls in classes:
            if cls[2].rank == Lb.rank and is_isometric(cls[2], Lb, max_rank):
                cls[1].append(idx)
                break
        else:
            classes.append((b, [idx], Lb))
    return classes


def grouped_decomposition(L, max_rank=None):
    """Indecomposable blocks grouped into isometry classes with multiplicity.

    Blocks are canonically ordered, so the first member of each class is
    the canonically smallest and serves as the representative.
    """
    D = decompose(L, max_rank)
    return tuple(
        (cls[0], len(cls[1])) for cls in _isometry_classes(D.blocks, max_rank)
    )


def _perm_closure(perms, degree):
    ident = tuple(range(degree))
    seen = {ident} | set(perms)
    queue = deque(seen)
    while queue:
        p = queue.popleft()
        for q in perms:
            r = tuple(p[q[i]] for i in range(degree))
            if r not in seen:
                seen.add(r)
                queue.append(r)
    return seen


def verify_aut_factorization(L, max_rank=None):
    """Check the product shape of the isometry group against the blocks.

    (a) |Aut| equals the product over classes of |Aut(representative)|^e
    times e!, (b) every generator permutes the set of block spans, and
    (c) the permutations induced within each class close up inside the
    symmetric group on that class.
    """
    A = aut_group(L, max_rank)
    D = decompose(L, max_rank)
    classes = _isometry_classes(D.blocks, max_rank)
    expected = 1
    for _, idxs, rep in classes:
        expected *= aut_group(rep, max_rank).order ** len(idxs)
        expected *= math.factorial(len(idxs))
    if expected != A.order:
        return False
    span_index = {b.basis: k for k, b in enumerate(D.blocks)}
    induced = [set() for _ in classes]
    for X in A.generators:
        mapping = []
        for b in D.blocks:
            img = hnf_basis(tuple(
                tuple(int(y) for y in vec_mat(r, X)) for r in b.basis
            ))
            if img not in span_index:
                return False
            mapping.append(span_index[img])
        for c, (_, idxs, _rep) in enumerate(classes):
            images = [mapping[i] for i in idxs]
            if sorted(images) != sorted(idxs):
                return False
            induced[c].add(tuple(idxs.index(m) for m in images))
    for c, (_, idxs, _rep) in enumerate(classes):
        closure = _perm_closure(induced[c], len(idxs))
        if math.factorial(len(idxs)) % len(closure) != 0:
            return False
    return True
