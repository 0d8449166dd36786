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
  4. Group P into connected components under "f(u, v) is nonzero" and
     span each over Z (HNF bases).  The spans are already pairwise
     orthogonal: primitives in different components pair to zero and the
     pairing is Z-bilinear.
  5. Assert the blocks stack to a unimodular basis, sort canonically.

Steps 4 and 5 are merge_blocks.  split(gram, operators) serves every
finer splitting: orthogonal for a positive Gram and stable under
operators whose span is closed under the gram-adjoint (an order acting
on a Hermitian module, with the trace form; j, with psi(x, jy)).  Its
blocks join the Z-blocks whose rows have gram(A r, s) nonzero for an
operator A.  audit_blocks and is_finest audit a splitting of any pair.
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


@dataclass(frozen=True)
class OrthoDecomposition:
    blocks: tuple

    def bases(self):
        return frozenset(b.basis for b in self.blocks)


def restrict_gram(gram, basis_rows):
    """The Gram M*G*M^T of the integer rows M, formed on G scaled to integers."""
    s, (G,) = integer_scaled((gram,))
    return tuple(tuple(Fraction(x, s) for x in row)
                 for row in mat_mul(mat_mul(basis_rows, G), transpose(basis_rows)))


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


def is_primitive(L, x, short_vectors, bound=None):
    """Primitivity of x relative to the enumerated ball.

    short_vectors must come from enumerate_short_vectors with a bound no
    smaller than norm(x); since the bound itself is not recoverable from
    the list, it can be passed explicitly, else the largest norm present
    is used.  Raises BoundTooSmallError when norm(x) exceeds it.
    """
    s, (G,) = integer_scaled((L.gram,))
    norms = {v: dot(mat_vec(G, v), v) for v in short_vectors}
    nx = dot(mat_vec(G, x), x)
    limit = Fraction(bound) * s if bound is not None else max(norms.values(), default=0)
    if nx > limit:
        raise BoundTooSmallError("norm %s exceeds enumerated bound %s"
                                 % (Fraction(nx, s), Fraction(limit, s)))
    below = [(v, norms[v]) for v in short_vectors if norms[v] < nx]
    return _witness_split(mat_vec(G, x), below) is None


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


def merge_blocks(n, spans, coupled):
    """Sorted HNF bases of the unions of spans that coupled rows link.

    Two spans are joined when coupled(r, s) is nonzero for a row r of one
    and a row s of the other; the relation must be symmetric on spans.
    The joined spans must stack to a unimodular basis of Z^n.
    """
    def related(a, b):
        return any(coupled(r, s) for r in a for s in b)

    merged = [hnf_basis([r for span in group for r in span])
              for group in _connected_components(spans, related)]
    merged.sort(key=lambda s: (len(s), tuple(x for row in s for x in row)))
    stacked = tuple(row for s in merged for row in s)
    if len(stacked) != n or not is_unimodular(stacked):
        raise IncompleteDecompositionError(
            "blocks do not stack to a unimodular basis; this is a bug")
    return tuple(merged)


def decompose_pipeline(gram, max_rank=None):
    """Sorted HNF bases of the Z-blocks of a positive definite rational Gram."""
    n = len(gram)
    limit = resolve_max_rank(DECOMPOSE_MAX_RANK, max_rank)
    if n > limit:
        raise RankTooLargeError(
            "rank %d exceeds decomposition guard %d (set LATDEC_MAX_RANK to override)"
            % (n, limit))
    gram = as_fraction_matrix(gram)
    reduced = lll_reduce(gram)
    bound = max((reduced[0][i][i] for i in range(n)), default=0)
    shorts = enumerate_short_vectors(gram, bound, reduced)
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


def split(gram, operators=(), rows=None, max_rank=None):
    """Sorted HNF bases, in rows coordinates, of the finest gram-orthogonal
    operator-stable splitting of the saturated stable span of rows (Z^n
    when None).  The span of the operators (matrices acting on columns)
    must be closed under the gram-adjoint, which makes "gram(A r, s) is
    nonzero for an operator A" symmetric; r, s are in ambient coordinates.
    """
    sub = gram if rows is None else restrict_gram(gram, rows)
    spans = decompose_pipeline(sub, max_rank)
    if not operators:
        return spans
    _, (T, *ops) = integer_scaled((gram, *operators))
    ambient = [(r, r if rows is None else vec_mat(r, rows)) for span in spans for r in span]
    images = {r: [mat_vec(A, v) for A in ops] for r, v in ambient}
    duals = {r: mat_vec(T, v) for r, v in ambient}
    return merge_blocks(len(sub), spans,
                        lambda r, s: any(dot(a, duals[s]) for a in images[r]))


def decompose(L, max_rank=None):
    """Unique orthogonal decomposition into indecomposable sublattices."""
    G = L.gram
    bases = split(G, max_rank=max_rank)
    blocks = tuple(Block(basis=b, gram=restrict_gram(G, b)) for b in bases)
    return OrthoDecomposition(blocks)


def is_indecomposable(L, max_rank=None):
    return len(decompose(L, max_rank).blocks) == 1


def audit_blocks(gram, bases, operators=()):
    """Whether the bases are nonempty and HNF, stack to a unimodular basis
    and couple no rows r, s of different blocks: gram(A r, s) = 0 for A
    the identity or an operator.  With the stacking, that is orthogonality
    and stability under the operators; their span must be closed under
    the gram-adjoint, as for split, so one order of r and s suffices."""
    if any(not b or hnf_basis(b) != b for b in bases):
        return False
    stacked = tuple(row for b in bases for row in b)
    if len(stacked) != len(gram) or not is_unimodular(stacked):
        return False
    _, (T, *ops) = integer_scaled((gram, *operators))
    cols = []  # the columns T s of the rows of the blocks before b
    for b in bases:
        probes = [v for r in b for v in (r, *(mat_vec(A, r) for A in ops))]
        if any(dot(v, col) for v in probes for col in cols):
            return False
        cols.extend(mat_vec(T, r) for r in b)
    return True


def is_finest(gram, bases, operators=()):
    """Whether split leaves each basis whole: no block splits further."""
    return all(len(split(gram, operators, b)) == 1 for b in bases)


def verify_decomposition(L, decomposition):
    """Read-only audit: restricted Grams, audit_blocks, indecomposability."""
    G, blocks = L.gram, decomposition.blocks
    # maximality on each block's own Gram, once it is known to be the restriction
    return (all(b.gram == restrict_gram(G, b.basis) for b in blocks)
            and audit_blocks(G, [b.basis for b in blocks])
            and all(len(split(b.gram)) == 1 for b in blocks))
