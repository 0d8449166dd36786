"""Orthogonal block decomposition of positive definite Z-lattices.

A lattice is presented by its Gram matrix alone; vectors are integer
coordinate tuples.  decompose() splits the lattice into its unique
family of pairwise orthogonal indecomposable sublattices:

  1. LLL-reduce once; let B be the largest diagonal entry of the reduced
     Gram.
  2. Enumerate S, the vectors of norm at most B, from that reduction
     (the reduced basis is in S, so S generates the lattice).
  3. Keep the primitive elements P of S: x is primitive when it admits no
     splitting x = y + z into nonzero orthogonal parts.  Norms add along
     such splittings, so a witness y lives in +-S with norm(y) < norm(x),
     a finite search of a few integer dot products per y (_witness_split).
     Every element of S is a sum of primitives of no larger norm, hence P
     still generates.
  4. Group P into connected components under "f(u, v) is nonzero".
  5. Span each component over Z (HNF bases).  The spans are already
     pairwise orthogonal: primitives in different components pair to
     zero in both orders (the pairing is symmetric, or Hermitian with
     f(y, x) = f(x, y)*), and the pairing is Z-bilinear.
  6. Assert the blocks stack to a unimodular basis, sort canonically.

The same pipeline serves the Hermitian module case.  A pairing is a
tuple of integer matrices F_k, all scaled by one lcm of denominators,
with f(u, v)_k = u*F_k*v^T: the single matrix s*G for a lattice, one
slice per order coordinate for a Hermitian module.  Reduction, bound
and norms always come from a rational norm Gram (the trace form for a
module); only the pairing whose vanishing defines orthogonality changes.
"""

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import (
    BoundTooSmallError,
    IncompleteDecompositionError,
    InvalidInputError,
    NotPositiveDefiniteError,
    RankTooLargeError,
)
from .linalg import (
    as_fraction_matrix,
    dot,
    enumerate_short_vectors,
    gram_value,
    hnf_basis,
    integer_scaled,
    is_symmetric,
    is_unimodular,
    lll_reduce,
    mat_mul,
    mat_vec,
    first_nonpositive_minor,
    transpose,
    vec_mat,
)

DECOMPOSE_MAX_RANK = 12


def resolve_max_rank(default, override=None):
    """Explicit argument wins, then LATDEC_MAX_RANK, then the default."""
    if override is not None:
        return int(override)
    env = os.environ.get("LATDEC_MAX_RANK")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InvalidInputError("LATDEC_MAX_RANK: not an integer: %r" % env)
    return default


@dataclass(frozen=True)
class ZLattice:
    """Free Z-lattice with a positive definite rational Gram matrix."""

    gram: tuple

    def __post_init__(self):
        G = as_fraction_matrix(self.gram)
        object.__setattr__(self, "gram", G)
        if not is_symmetric(G):
            raise InvalidInputError("gram: matrix is not symmetric")
        k = first_nonpositive_minor(G)
        if k is not None:
            raise NotPositiveDefiniteError(
                "gram: leading principal minor %d is not positive" % k,
                minor_index=k)

    @property
    def rank(self):
        return len(self.gram)

    def inner(self, u, v):
        return gram_value(self.gram, u, v)

    def norm(self, v):
        return gram_value(self.gram, v, v)


@dataclass(frozen=True)
class Block:
    """One indecomposable summand: HNF basis rows plus restricted Gram."""

    basis: tuple
    gram: tuple

    @property
    def rank(self):
        return len(self.basis)

    def sort_key(self):
        return (len(self.basis), tuple(x for row in self.basis for x in row))


@dataclass(frozen=True)
class OrthoDecomposition:
    blocks: tuple

    def bases(self):
        return frozenset(b.basis for b in self.blocks)


def restrict_gram(gram, basis_rows):
    M = tuple(tuple(Fraction(x) for x in row) for row in basis_rows)
    return mat_mul(mat_mul(M, as_fraction_matrix(gram)), transpose(M))


def _with_norms(v, cols):
    """(v, f(v, v), -f(v, v)) from the columns F_k v^T of v."""
    fvv = tuple([dot(v, c) for c in cols])
    return v, fvv, tuple(-c for c in fvv)


def _witness_split(cols, below):
    """A y in below (all shorter than x) such that y or -y splits off from x.

    cols are the columns F_k x^T, so f(y, x)_k = y . F_k x^T, and below
    yields _with_norms triples.  As f(+-y, x -+ y) = +-f(y, x) - f(y, y),
    the test is f(y, x) = +-f(y, y).
    """
    for y, plus, minus in below:
        fyx = tuple([dot(y, c) for c in cols])
        if fyx == plus or fyx == minus:
            return y
    return None


def is_primitive(L, x, short_vectors, bound=None):
    """Primitivity of x relative to the enumerated ball.

    short_vectors must come from enumerate_short_vectors with a bound no
    smaller than norm(x); since the bound itself is not recoverable from
    the list, it can be passed explicitly, else the largest norm present
    is used.  Raises BoundTooSmallError when norm(x) exceeds it.
    """
    s, forms = integer_scaled((L.gram,))
    norms = {v: dot(vec_mat(v, forms[0]), v) for v in short_vectors}
    nx = dot(vec_mat(x, forms[0]), x)
    limit = Fraction(bound) * s if bound is not None else max(norms.values(), default=0)
    if nx > limit:
        raise BoundTooSmallError("norm %s exceeds enumerated bound %s"
                                 % (Fraction(nx, s), Fraction(limit, s)))
    below = [_with_norms(v, [mat_vec(F, v) for F in forms])
             for v in short_vectors if norms[v] < nx]
    return _witness_split([mat_vec(F, x) for F in forms], below) is None


def _connected_components(items, related):
    parent = list(range(len(items)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, x in enumerate(items):
        for j in range(i + 1, len(items)):
            ra, rb = find(i), find(j)
            if ra != rb and related(x, items[j]):
                parent[ra] = rb
    groups = {}
    for i, v in enumerate(items):
        groups.setdefault(find(i), []).append(v)
    return list(groups.values())


def decompose_pipeline(gram, forms, max_rank=None):
    """Sorted HNF block bases, from a rational norm Gram and an integer pairing."""
    n = len(gram)
    limit = resolve_max_rank(DECOMPOSE_MAX_RANK, max_rank)
    if n > limit:
        raise RankTooLargeError(
            "rank %d exceeds decomposition guard %d (set LATDEC_MAX_RANK to override)"
            % (n, limit))
    gram = as_fraction_matrix(gram)
    reduced = lll_reduce(gram)
    bound = max(reduced[0][i][i] for i in range(n))
    shorts = enumerate_short_vectors(gram, bound, reduced)
    _, (Gs,) = integer_scaled((gram,))
    norms = [dot(vec_mat(v, Gs), v) for v in shorts]
    done = []  # _with_norms of the vectors before x
    cols = {}  # the primitives, with their columns
    level = 0  # done[:level] are the vectors of smaller norm than x
    for i, x in enumerate(shorts):
        if norms[i] != norms[level]:
            level = i
        cx = [mat_vec(F, x) for F in forms]
        if _witness_split(cx, islice(done, level)) is None:
            cols[x] = cx
        done.append(_with_norms(x, cx))

    def related(u, v):
        return any(dot(v, c) for c in cols[u])

    components = _connected_components(list(cols), related)
    spans = [hnf_basis(comp) for comp in components]
    spans.sort(key=lambda s: (len(s), tuple(x for row in s for x in row)))
    stacked = tuple(row for s in spans for row in s)
    if len(stacked) != n or not is_unimodular(stacked):
        raise IncompleteDecompositionError(
            "blocks do not stack to a unimodular basis; this is a bug")
    return tuple(spans)


def decompose(L, max_rank=None):
    """Unique orthogonal decomposition into indecomposable sublattices."""
    G = L.gram
    bases = decompose_pipeline(G, integer_scaled((G,))[1], max_rank)
    blocks = tuple(Block(basis=b, gram=restrict_gram(G, b)) for b in bases)
    return OrthoDecomposition(blocks)


def is_indecomposable(L, max_rank=None):
    return len(decompose(L, max_rank).blocks) == 1


def verify_decomposition(L, decomposition):
    """Read-only audit: orthogonality, completeness, per-block indecomposability."""
    G = L.gram
    blocks = decomposition.blocks
    for b in blocks:
        if hnf_basis(b.basis) != b.basis:
            return False
        if b.gram != restrict_gram(G, b.basis):
            return False
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            for r in blocks[i].basis:
                for s in blocks[j].basis:
                    if gram_value(G, r, s) != 0:
                        return False
    stacked = tuple(row for b in blocks for row in b.basis)
    if len(stacked) != L.rank or not is_unimodular(stacked):
        return False
    for b in blocks:
        try:
            sub = ZLattice(b.gram)
        except NotPositiveDefiniteError:
            return False
        if len(decompose(sub).blocks) != 1:
            return False
    return True
