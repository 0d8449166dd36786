"""Orthogonal block decomposition of positive definite Z-lattices.

A lattice is presented by its Gram matrix alone; vectors are integer
coordinate tuples.  decompose() splits the lattice into its unique
family of pairwise orthogonal indecomposable sublattices:

  1. LLL-reduce; let B be the largest diagonal entry of the reduced Gram.
  2. Enumerate S, the vectors of norm at most B (the reduced basis is in
     S, so S generates the lattice).
  3. Keep the primitive elements P of S: x is primitive when it admits no
     splitting x = y + z into nonzero orthogonal parts.  Norms add along
     such splittings, so a witness y always lives in +-S, which makes the
     test a finite search.  Every element of S is a sum of primitives of
     no larger norm, hence P still generates.
  4. Group P into connected components under "pairing is nonzero".
  5. Span each component over Z (HNF bases).  The spans are already
     pairwise orthogonal: primitives in different components pair to
     zero in both orders (the pairing is symmetric, or Hermitian with
     f(y, x) = f(x, y)*), and the pairing is Z-bilinear.
  6. Assert the blocks stack to a unimodular basis, sort canonically.

The same pipeline serves the Hermitian module case; only the pairing
whose vanishing defines orthogonality changes, which is why the workers
take a pair_is_zero predicate.
"""

import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BoundTooSmallError,
    IncompleteDecompositionError,
    InvalidInputError,
    NotPositiveDefiniteError,
    RankTooLargeError,
)
from .linalg import (
    as_fraction_matrix,
    enumerate_short_vectors,
    gram_value,
    hnf_basis,
    is_symmetric,
    is_unimodular,
    lll_reduce,
    mat_mul,
    first_nonpositive_minor,
    transpose,
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


def _neg(v):
    return tuple(-x for x in v)


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _witness_split(x, norm_x, short_vectors, norms, pair_is_zero):
    """A y with 0 < norm(y) < norm(x), x-y nonzero, pairing(y, x-y) = 0."""
    for y in short_vectors:
        ny = norms[y]
        if not ny < norm_x:
            continue
        for cand in (y, _neg(y)):
            z = _sub(x, cand)
            if not any(z):
                continue
            if pair_is_zero(cand, z):
                return cand
    return None


def is_primitive(L, x, short_vectors, bound=None):
    """Primitivity of x relative to the enumerated ball.

    short_vectors must come from enumerate_short_vectors with a bound no
    smaller than norm(x); since the bound itself is not recoverable from
    the list, it can be passed explicitly, else the largest norm present
    is used.  Raises BoundTooSmallError when norm(x) exceeds it.
    """
    norms = {v: L.norm(v) for v in short_vectors}
    nx = L.norm(x)
    limit = Fraction(bound) if bound is not None else max(norms.values(), default=Fraction(0))
    if nx > limit:
        raise BoundTooSmallError(
            "norm %s exceeds enumerated bound %s" % (nx, limit))
    G = L.gram

    def pair_is_zero(u, v):
        return gram_value(G, u, v) == 0

    return _witness_split(x, nx, short_vectors, norms, pair_is_zero) is None


def _connected_components(items, related):
    index = {v: i for i, v in enumerate(items)}
    parent = list(range(len(items)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, x in enumerate(items):
        for j in range(i + 1, len(items)):
            if related(x, items[j]):
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for i, v in enumerate(items):
        groups.setdefault(find(i), []).append(v)
    return list(groups.values())


def decompose_pipeline(gram, pair_is_zero, max_rank=None):
    """Shared worker; returns the sorted tuple of HNF block bases."""
    n = len(gram)
    limit = resolve_max_rank(DECOMPOSE_MAX_RANK, max_rank)
    if n > limit:
        raise RankTooLargeError(
            "rank %d exceeds decomposition guard %d (set LATDEC_MAX_RANK to override)"
            % (n, limit))
    gram = as_fraction_matrix(gram)
    reduced, _ = lll_reduce(gram)
    bound = max(reduced[i][i] for i in range(n))
    shorts = enumerate_short_vectors(gram, bound)
    norms = {v: gram_value(gram, v, v) for v in shorts}
    primitives = [
        x for x in shorts
        if _witness_split(x, norms[x], shorts, norms, pair_is_zero) is None
    ]

    def related(u, v):
        return not pair_is_zero(u, v)

    components = _connected_components(primitives, related)
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

    def pair_is_zero(u, v):
        return gram_value(G, u, v) == 0

    bases = decompose_pipeline(G, pair_is_zero, max_rank)
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
