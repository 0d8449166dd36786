"""Writing the unit of an involutive order as a sum of idempotents.

A positive involution turns the order into a Hermitian module over
itself (left multiplication, f(x, y) = x y*), and orthogonal block
decompositions of that module correspond exactly to families of
pairwise orthogonal Hermitian idempotents summing to 1: a block
recovers its idempotent as the block component of 1, and an idempotent
i spans the block R*i.  decompose_unity computes the finest family.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InternalError,
    InvalidIdempotentsError,
    NoSolutionError,
)
from .hermitian import decompose_hermitian, decompose_restriction, regular_module
from .linalg import hnf_basis, is_unimodular, row_span_contains, solve_rational, transpose


@dataclass(frozen=True)
class IdempotentDecomposition:
    """Lexicographically sorted coordinate vectors, one per idempotent."""

    idems: tuple


def _as_coords(order, v, label, error):
    if len(v) != order.dim:
        raise error("%s: expected %d coordinates" % (label, order.dim))
    coords = tuple(Fraction(x) for x in v)
    if any(x.denominator != 1 for x in coords):
        raise error("%s: coordinates are not integral" % label)
    return tuple(int(x) for x in coords)


def _check_hermitian_idempotent(order, v, label, error):
    coords = _as_coords(order, v, label, error)
    if not any(coords):
        raise error("%s: zero vector" % label)
    if order.mult(coords, coords) != tuple(map(Fraction, coords)):
        raise error("%s: not idempotent" % label)
    if order.star(coords) != tuple(map(Fraction, coords)):
        raise error("%s: not fixed by the involution" % label)
    return coords


def _check_family(order, idems, error):
    checked = tuple(
        _check_hermitian_idempotent(order, v, "idempotent %d" % k, error)
        for k, v in enumerate(idems)
    )
    for a in range(len(checked)):
        for b in range(len(checked)):
            if a != b and any(order.mult(checked[a], order.star(checked[b]))):
                raise error("idempotents %d and %d are not orthogonal" % (a, b))
    total = tuple(sum(v[k] for v in checked) for k in range(order.dim))
    if tuple(map(Fraction, total)) != tuple(order.one):
        raise error("idempotents do not sum to the unit")
    return checked


def _left_ideal_basis(order, v):
    gens = tuple(
        tuple(int(x) for x in order.mult(order.basis_element(j), v))
        for j in range(order.dim)
    )
    return hnf_basis(gens)


def decompose_unity(order, max_rank=None):
    """The unique finest orthogonal Hermitian idempotent splitting of 1."""
    return _unity(order, max_rank)[1]


def _unity(order, max_rank=None):
    """The regular module, decompose_unity(order) and the block R*i of
    each idempotent i, in the same order, from one split of the module."""
    module = regular_module(order)  # raises NotPositiveInvolutionError
    bases = [b.basis for b in decompose_hermitian(module, max_rank).blocks]
    try:
        found = idempotents_from_blocks(order, bases)
    except (NoSolutionError, InvalidIdempotentsError) as exc:
        raise InternalError(
            "recovering idempotents from computed blocks failed: %s" % exc)
    # i = i * i lies in R*i and in no other block
    return module, found, tuple(next(b for b in bases if row_span_contains(b, i))
                                for i in found.idems)


def idempotents_from_blocks(order, blocks):
    """The block components of 1 for a complete f-orthogonal block family."""
    rows = tuple(tuple(int(x) for x in r) for b in blocks for r in b)
    if len(rows) != order.dim or not is_unimodular(rows):
        raise NoSolutionError("blocks do not sum to the full order lattice")
    coeffs = solve_rational(transpose(rows), order.one)
    idems = []
    pos = 0
    for b in blocks:
        v = [Fraction(0)] * order.dim
        for r in b:
            c = coeffs[pos]
            pos += 1
            if c:
                for k in range(order.dim):
                    v[k] += c * r[k]
        idems.append(tuple(v))
    # integral Hermitian idempotency is a theorem for valid input, so any
    # failure below points back at the supplied blocks
    checked = _check_family(order, idems, InvalidIdempotentsError)
    return IdempotentDecomposition(tuple(sorted(checked)))


def blocks_from_idempotents(order, idems):
    """Left ideal spans R*i, in the order the idempotents are given."""
    checked = _check_family(order, idems, InvalidIdempotentsError)
    return tuple(_left_ideal_basis(order, v) for v in checked)


def is_indecomposable_idempotent(order, idem):
    """True iff the Hermitian idempotent admits no orthogonal splitting.

    Zero is not considered indecomposable.  Routed through the lattice
    correspondence: the span R*idem must come back as a single block.
    """
    coords = _as_coords(order, idem, "idempotent", InvalidIdempotentsError)
    if not any(coords):
        return False
    _check_hermitian_idempotent(order, coords, "idempotent", InvalidIdempotentsError)
    module = regular_module(order)
    span = _left_ideal_basis(order, coords)
    return len(decompose_restriction(module, span)) == 1
