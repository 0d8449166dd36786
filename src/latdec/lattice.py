"""Orthogonal block decomposition of positive definite Z-lattices.

A lattice is presented by its Gram matrix alone; vectors are integer
coordinate tuples.  decompose() splits the lattice into its unique
family of pairwise orthogonal indecomposable sublattices (Eichler):

  1. Scale the Gram to integers and LLL-reduce it once (lll_integral).
  2. Pop x from a stack that starts as the reduced basis.  x splits as
     y + (x - y) with f(y, x - y) = 0 exactly when u = 2y - x lies on
     its Thales sphere: u = x (mod 2), norm(u) = norm(x), u != +-x
     (sphere_point).  Push y and x - y, both shorter, or keep x.
  3. The kept vectors are indecomposable and generate the lattice, and
     each lies in one block, so their connected components under
     "f(u, v) is nonzero" span the blocks (merge_blocks).

Sphere-search nodes count against DECOMPOSE_MAX_NODES per decomposition.
split(gram, operators) serves every finer splitting: orthogonal for a
positive Gram and stable under operators whose span is closed under the
gram-adjoint (an order acting on a Hermitian module, with the trace
form; j, with psi(x, jy)).  Its blocks join the Z-blocks whose rows have
gram(A r, s) nonzero for an operator A.  audit_blocks and is_finest
audit a splitting of any pair.
"""

import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    IncompleteDecompositionError,
    InvalidInputError,
    NotPositiveDefiniteError,
    RankTooLargeError,
)
from .linalg import (
    as_fraction_matrix,
    dot,
    gram_value,
    hnf_basis,
    identity,
    integer_scaled,
    inverse,
    is_symmetric,
    is_unimodular,
    lll_integral,
    mat_mul,
    mat_vec,
    first_nonpositive_minor,
    sphere_point,
    to_int_matrix,
    transpose,
    vec_mat,
)

DECOMPOSE_MAX_RANK = 12
DECOMPOSE_MAX_NODES = 10 ** 6  # > 3000x the most any test or benchmark input takes


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


def restrict_gram(gram, basis_rows, scale=None):
    """The Gram M*G*M^T of the integer rows M, formed on G scaled to integers;
    with scale, gram is already G times scale, in ints."""
    s, (G,) = (scale, (gram,)) if scale else integer_scaled((gram,))
    return tuple(tuple(Fraction(x, s) for x in row)
                 for row in mat_mul(mat_mul(basis_rows, G), transpose(basis_rows)))


def is_primitive(L, x):
    """Whether x admits no splitting x = y + z into nonzero orthogonal parts:
    its Thales sphere, searched on the LLL-reduced basis, holds only +-x."""
    s, (A,) = integer_scaled((L.gram,))
    R, U, d, lam = lll_integral(A, s)
    a = vec_mat(x, to_int_matrix(inverse(U)))
    return sphere_point(d, lam, a, dot(a, mat_vec(R, a)), 0, DECOMPOSE_MAX_NODES)[0] is None


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
    """Sorted HNF bases of the Z-blocks of a positive definite Gram (rational,
    or scaled to ints)."""
    n = len(gram)
    limit = resolve_max_rank(DECOMPOSE_MAX_RANK, max_rank)
    if n > limit:
        raise RankTooLargeError(
            "rank %d exceeds decomposition guard %d (set LATDEC_MAX_RANK to override)"
            % (n, limit))
    integral = all(type(x) is int for row in gram for x in row)
    s, (A,) = (1, (gram,)) if integral else integer_scaled((gram,))
    R, U, d, lam = lll_integral(A, s)
    stack, kept, nodes = list(identity(n)), {}, 0  # kept: x U -> (x, R x^T)
    while stack:
        x = stack.pop()
        col = mat_vec(R, x)
        u, nodes = sphere_point(d, lam, x, dot(x, col), nodes, DECOMPOSE_MAX_NODES)
        if u is None:
            kept[vec_mat(x, U)] = (x, col)
        else:
            y = tuple((a + b) // 2 for a, b in zip(x, u))
            stack += (y, tuple(a - b for a, b in zip(x, y)))
    return merge_blocks(n, [(v,) for v in kept],
                        lambda r, t: dot(kept[t][0], kept[r][1]))


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
    s, (A,) = integer_scaled((L.gram,))
    return OrthoDecomposition(tuple(Block(basis=b, gram=restrict_gram(A, b, s))
                                    for b in decompose_pipeline(A, max_rank)))


def is_indecomposable(L, max_rank=None):
    return len(decompose(L, max_rank).blocks) == 1


def audit_blocks(gram, bases, operators=()):
    """Whether the bases are nonempty and HNF, stack to a unimodular basis
    and couple no rows r, s of different blocks: gram(A r, s) = 0 for A
    the identity or an operator.  With the stacking, that is orthogonality
    and stability under the operators; their span must be closed under
    the gram-adjoint, as for split, so one order of r and s suffices."""
    _, (T, *ops) = integer_scaled((gram, *operators))
    return _audit(T, ops, bases)


def _audit(T, ops, bases):
    """audit_blocks on the Gram and the operators scaled to integers."""
    if any(not b or hnf_basis(b) != b for b in bases):
        return False
    stacked = tuple(row for b in bases for row in b)
    if len(stacked) != len(T) or not is_unimodular(stacked):
        return False
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
    """Read-only audit: restricted Grams and audit_blocks, on L's Gram scaled
    to integers once, then indecomposability of each block's Gram."""
    s, (A,) = integer_scaled((L.gram,))
    blocks = decomposition.blocks
    return (all(b.gram == restrict_gram(A, b.basis, s) for b in blocks)
            and _audit(A, (), [b.basis for b in blocks])
            and all(len(decompose_pipeline(b.gram)) == 1 for b in blocks))
