"""Polarised complex structures on integral lattices and their splitting.

A rank-2g lattice Z^N carries a rational complex-structure operator j
(square minus identity) and an integral alternating polarisation psi
with psi(jx, jy) = psi(x, y) and psi(x, jy) positive definite.  A
j-stable, psi-orthogonal splitting is orthogonal for the positive form
phi(x, y) = psi(x, jy), and phi(jx, y) = psi(x, y), while the
phi-adjoint of j is -j.  So decompose_hodge is lattice.split(phi, (j,))
followed by the restricted structure on each block, and the audit is
lattice.audit_blocks on the same pair plus the check of those
structures.  The result is the unique family of j-stable, pairwise
psi-orthogonal indecomposable sublattices, for any polarisation.

The endomorphisms of the data form an involutive order: the saturated
integral commutant of j, with the adjoint involution a -> psi^-1 a^T psi.
endomorphism_order assembles it unchecked: its laws and positivity are
theorems, only the integrality of the adjoint depends on the input.

PolarisedComplexStructure validates its input in full.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import FiniteDimAlgebra, Involution, InvolutiveOrder, unchecked
from .errors import (
    InternalError,
    InvalidHodgeStructureError,
    InvalidInputError,
    LatdecError,
    NoSolutionError,
    NotPositiveDefiniteError,
)
from .lattice import audit_blocks, split
from .linalg import (
    as_fraction_matrix,
    first_nonpositive_minor,
    hnf_basis,
    identity,
    inverse,
    is_integral,
    is_symmetric,
    left_integer_kernel,
    mat_mul,
    mat_neg,
    mat_vec,
    solve_rational_columns,
    transpose,
)


@dataclass(frozen=True)
class PolarisedComplexStructure:
    """Operator j with j^2 = -1 and a compatible positive polarisation psi."""

    j: tuple
    psi: tuple

    def __post_init__(self):
        j = as_fraction_matrix(self.j)
        N = len(j)
        if N == 0 or any(len(row) != N for row in j):
            raise InvalidInputError("J: expected a nonempty square matrix")
        if N % 2:
            raise InvalidInputError("J: matrix dimension must be even")
        psi = as_fraction_matrix(self.psi)
        if len(psi) != N or any(len(row) != N for row in psi):
            raise InvalidInputError("psi: expected a %dx%d matrix" % (N, N))
        if not is_integral(psi):
            raise InvalidInputError("psi: entries must be integers")
        psi = tuple(tuple(int(x) for x in row) for row in psi)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "psi", psi)
        if mat_neg(transpose(psi)) != psi:
            raise InvalidInputError("psi: matrix is not alternating")
        if mat_mul(j, j) != mat_neg(identity(N)):
            raise InvalidInputError("J: square is not minus the identity")
        psi_f = as_fraction_matrix(psi)
        if mat_mul(mat_mul(transpose(j), psi_f), j) != psi_f:
            raise InvalidInputError("psi: form is not preserved by J")
        phi = mat_mul(psi_f, j)
        if not is_symmetric(phi):
            raise InvalidInputError("psi: pairing against J-images is not symmetric")
        k = first_nonpositive_minor(phi)
        if k is not None:
            raise NotPositiveDefiniteError(
                "psi: pairing x, y -> psi(x, Jy) has nonpositive leading "
                "principal minor %d" % k,
                minor_index=k)

    @property
    def rank(self):
        return len(self.j)

    @property
    def g(self):
        return len(self.j) // 2

    def positivity_form(self):
        return mat_mul(as_fraction_matrix(self.psi), self.j)


@dataclass(frozen=True)
class HodgeBlock:
    """An HNF sublattice basis with the restricted structure on it."""

    basis: tuple
    structure: PolarisedComplexStructure

    @property
    def rank(self):
        return len(self.basis)


@dataclass(frozen=True)
class HodgeDecomposition:
    blocks: tuple

    def bases(self):
        return frozenset(b.basis for b in self.blocks)


def _vec(M):
    return tuple(x for row in M for x in row)


def _unvec(v, N):
    return tuple(tuple(v[i * N + j] for j in range(N)) for i in range(N))


def _commutant_matrix_basis(j):
    """Saturated Z-basis of the integer matrices commuting with j."""
    N = len(j)
    eqs = []
    for i in range(N):
        for k in range(N):
            row = [Fraction(0)] * (N * N)
            for q in range(N):
                row[i * N + q] += j[q][k]
            for p in range(N):
                row[p * N + k] -= j[i][p]
            scale = math.lcm(*(x.denominator for x in row))
            eqs.append(tuple(int(x * scale) for x in row))
    kernel = left_integer_kernel(transpose(eqs))
    return tuple(_unvec(v, N) for v in hnf_basis(kernel))


def endomorphism_order(H):
    """Saturated integral commutant of j with the adjoint involution."""
    basis = _commutant_matrix_basis(H.j)
    d = len(basis)
    psi_f = as_fraction_matrix(H.psi)
    psi_inv = inverse(psi_f)
    # d^2 structure constants, the unit and d adjoints, one elimination
    targets = [mat_mul(B1, B2) for B1 in basis for B2 in basis]
    targets.append(identity(H.rank))
    targets += [mat_mul(mat_mul(psi_inv, transpose(as_fraction_matrix(B))), psi_f)
                for B in basis]
    try:
        coords = solve_rational_columns(
            transpose(tuple(_vec(B) for B in basis)), [_vec(M) for M in targets])
    except NoSolutionError:
        raise InternalError(
            "matrix expected inside the endomorphism algebra is not there")

    def integral_coords(x, error_message):
        if any(c.denominator != 1 for c in x):
            raise error_message()
        return tuple(int(c) for c in x)

    def bug():
        return InternalError(
            "non-integral coordinates against a saturated basis; this is a bug")

    structure = tuple(
        tuple(integral_coords(coords[ii * d + jj], bug) for jj in range(d))
        for ii in range(d)
    )
    one = integral_coords(coords[d * d], bug)
    algebra = unchecked(FiniteDimAlgebra, structure, one)

    def rosati_error():
        return InvalidHodgeStructureError(
            "psi: the adjoint involution does not preserve the "
            "endomorphism order")

    columns = [integral_coords(x, rosati_error) for x in coords[d * d + 1:]]
    S = tuple(tuple(columns[c][r] for c in range(d)) for r in range(d))
    return InvolutiveOrder(algebra, unchecked(Involution, algebra, S))


def _restrict_structure(H, rows):
    """Restricted (j, psi) on the saturated j-stable span of rows."""
    psi_r = mat_mul(mat_mul(rows, H.psi), transpose(rows))
    try:
        cols = solve_rational_columns(
            transpose(as_fraction_matrix(rows)), [mat_vec(H.j, r) for r in rows])
    except NoSolutionError:
        raise InternalError("block span is not j-stable; this is a bug")
    j_r = tuple(tuple(cols[c][r] for c in range(len(rows)))
                for r in range(len(rows)))
    return j_r, psi_r


def decompose_hodge(H, max_rank=None):
    """The unique splitting into indecomposable polarised sub-structures."""
    blocks = []
    for span in split(H.positivity_form(), (H.j,), max_rank=max_rank):
        j_r, psi_r = _restrict_structure(H, span)
        try:
            sub = PolarisedComplexStructure(j_r, psi_r)
        except LatdecError as exc:
            raise InternalError("restricted block structure is invalid: %s" % exc)
        blocks.append(HodgeBlock(basis=span, structure=sub))
    return HodgeDecomposition(tuple(blocks))


def verify_hodge_decomposition(H, decomposition):
    """Read-only audit of a claimed splitting, independent of its origin:
    audit_blocks on phi and j, then each block carries the restricted
    structure (valid on a j-stable block).  Maximality is not checked:
    that is lattice.is_finest on the same pair."""
    bases = [b.basis for b in decomposition.blocks]
    return audit_blocks(H.positivity_form(), bases, (H.j,)) and all(
        _restrict_structure(H, b.basis) == (b.structure.j, b.structure.psi)
        for b in decomposition.blocks)
