"""Finite-dimensional Q-algebras presented by structure constants.

Elements are coordinate tuples in the distinguished basis e_1..e_d.
An involution is stored as the matrix S of the map x -> x* acting on
coordinate columns (star(x) = S applied to x).  The predicates at the
bottom classify an algebra by properties of its multiplication traces;
they all reduce to exact rational linear algebra.

The FiniteDimAlgebra and Involution constructors check every law, in
integers; objects the package builds itself, whose laws are theorems
(change_basis, the Hodge endomorphism order), come from `unchecked`.
"""

import math
from fractions import Fraction

from .errors import InternalError, InvalidInputError
from .linalg import (
    as_fraction_matrix,
    det,
    first_nonpositive_minor,
    identity,
    integer_scaled,
    inverse,
    is_integral,
    is_positive_definite,
    is_unimodular,
    mat_mul,
    mat_vec,
    solve_rational,
    to_int_matrix,
    transpose,
    vec_mat,
)


def as_element(v):
    return tuple(Fraction(x) for x in v)


def unchecked(cls, *parts):
    """cls assembled from parts without the checks of its constructor."""
    obj = cls.__new__(cls)
    obj._assemble(*parts)
    return obj


def _product(c, x, y):
    """x * y under the structure constants c, in the scalars of c, x and y."""
    d = len(c)
    out = [0] * d
    for i in range(d):
        xi = x[i]
        if not xi:
            continue
        ci = c[i]
        for j in range(d):
            yj = y[j]
            if not yj:
                continue
            f = xi * yj
            row = ci[j]
            for k in range(d):
                if row[k]:
                    out[k] += f * row[k]
    return tuple(out)


class FiniteDimAlgebra:
    """Associative unital algebra over Q.

    structure[i][j][k] is the e_k coefficient of e_i * e_j; one holds the
    coordinates of the unit.  Associativity and the unit laws are checked
    at construction time, so every instance is a genuine algebra.
    """

    def __init__(self, structure, one):
        d = len(structure)
        if any(len(plane) != d or any(len(row) != d for row in plane) for plane in structure):
            raise InvalidInputError("structure_constants: expected a d x d x d array")
        if len(one) != d:
            raise InvalidInputError("one: expected %d coordinates" % d)
        self._assemble(structure, one)
        self._validate()

    def _assemble(self, structure, one):
        d = len(structure)
        self.dim = d
        self.structure = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in plane) for plane in structure
        )
        self.one = as_element(one)
        c = self.structure
        # traces of left/right multiplication by each basis element
        self._left_tr = tuple(sum(c[i][j][j] for j in range(d)) for i in range(d))
        self._right_tr = tuple(sum(c[j][i][j] for j in range(d)) for i in range(d))

    def _validate(self):
        d = self.dim
        for i in range(d):
            e = self.basis_element(i)
            if self.mult(self.one, e) != e or self.mult(e, self.one) != e:
                raise InvalidInputError("one: unit law fails at basis element %d" % i)
        # both sides are quadratic in c, so one common scale serves them
        _, c = integer_scaled(self.structure)
        basis = identity(d)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if _product(c, c[i][j], basis[k]) != _product(c, basis[i], c[j][k]):
                        raise InvalidInputError(
                            "structure_constants: associativity fails at (%d,%d,%d)"
                            % (i, j, k))

    def basis_element(self, i):
        return tuple(Fraction(int(i == j)) for j in range(self.dim))

    def mult(self, x, y):
        return tuple(map(Fraction, _product(self.structure, x, y)))

    def lmul_matrix(self, x):
        """Matrix of left multiplication by x on coordinate columns."""
        d = self.dim
        c = self.structure
        return tuple(
            tuple(sum(x[i] * c[i][j][k] for i in range(d)) for j in range(d))
            for k in range(d)
        )

    def left_trace(self, x):
        """Trace of left multiplication by x (Q-linear in x)."""
        return sum(x[i] * self._left_tr[i] for i in range(self.dim))

    def right_trace(self, x):
        return sum(x[i] * self._right_tr[i] for i in range(self.dim))


class Involution:
    """Anti-automorphism of order two, as a coordinate matrix."""

    def __init__(self, algebra, matrix):
        d = algebra.dim
        if len(matrix) != d or any(len(row) != d for row in matrix):
            raise InvalidInputError("involution: expected a %d x %d matrix" % (d, d))
        self._assemble(algebra, matrix)
        S = self.matrix
        if mat_mul(S, S) != as_fraction_matrix(identity(d)):
            raise InvalidInputError("involution: S^2 is not the identity")
        if self.apply(algebra.one) != algebra.one:
            raise InvalidInputError("involution: does not fix the unit")
        # S scaled by s and c by t: (e_i e_j)* carries s*t, e_j* e_i* s*s*t
        s, (S,) = integer_scaled((S,))
        _, c = integer_scaled(algebra.structure)
        stars = transpose(S)
        for i in range(d):
            for j in range(d):
                if (tuple(s * x for x in mat_vec(S, c[i][j]))
                        != _product(c, stars[j], stars[i])):
                    raise InvalidInputError(
                        "involution: (e_%d e_%d)* != e_%d* e_%d*" % (i, j, j, i))

    def _assemble(self, algebra, matrix):
        self.algebra = algebra
        self.matrix = as_fraction_matrix(matrix)

    def apply(self, x):
        return mat_vec(self.matrix, x)


class InvolutiveOrder:
    """Z-order with involution: the distinguished basis is a Z-basis.

    Structure constants, unit coordinates and the involution matrix must
    all be integral, so the order is closed under multiplication and *.
    """

    def __init__(self, algebra, involution):
        if involution.algebra is not algebra:
            raise InvalidInputError("involution: built for a different algebra")
        if not all(
            x.denominator == 1 for plane in algebra.structure for row in plane for x in row
        ):
            raise InvalidInputError("structure_constants: order requires integer entries")
        if any(x.denominator != 1 for x in algebra.one):
            raise InvalidInputError("one: order requires integer coordinates")
        if not is_integral(involution.matrix):
            raise InvalidInputError("involution: order requires integer entries")
        self.algebra = algebra
        self.involution = involution

    @property
    def dim(self):
        return self.algebra.dim

    def mult(self, x, y):
        return self.algebra.mult(x, y)

    def star(self, x):
        return self.involution.apply(x)

    def basis_element(self, i):
        return self.algebra.basis_element(i)

    @property
    def one(self):
        return self.algebra.one


def change_basis(order, W):
    """Re-express an order in a new Z-basis given by the unimodular rows W."""
    if not is_unimodular(W):
        raise InvalidInputError("basis change: matrix is not unimodular")
    A = order.algebra
    d = A.dim
    Winv = to_int_matrix(inverse(as_fraction_matrix(W)))
    rows = [tuple(Fraction(x) for x in row) for row in W]
    structure = tuple(
        tuple(vec_mat(A.mult(rows[i], rows[j]), Winv) for j in range(d))
        for i in range(d)
    )
    one = vec_mat(A.one, Winv)
    cols = []
    for i in range(d):
        s_old = order.star(rows[i])
        cols.append(vec_mat(s_old, Winv))
    S = transpose(tuple(cols))
    new_alg = unchecked(FiniteDimAlgebra, structure, one)
    return InvolutiveOrder(new_alg, unchecked(Involution, new_alg, S))


def trace_pairing(A):
    """Matrix of (x, y) -> left_trace(x y) on the basis."""
    d = A.dim
    return tuple(
        tuple(A.left_trace(A.structure[i][j]) for j in range(d)) for i in range(d)
    )


def star_trace_form(A, inv):
    """Matrix of (x, y) -> left_trace(x y*) on the basis."""
    d = A.dim
    stars = [inv.apply(A.basis_element(j)) for j in range(d)]
    return tuple(
        tuple(A.left_trace(A.mult(A.basis_element(i), stars[j])) for j in range(d))
        for i in range(d)
    )


def check_nd(A):
    """Nondegeneracy of the left-trace pairing."""
    return det(trace_pairing(A)) != 0


def check_ss(A):
    # over Q the trace pairing is nondegenerate exactly for semisimple
    # algebras, so this is the same determinant test
    return check_nd(A)


def check_l_eq_r(A):
    """Left and right multiplication traces agree as linear forms."""
    return A._left_tr == A._right_tr


def check_l_eq_lstar(A, inv):
    """left_trace(x*) = left_trace(x) as linear forms."""
    return all(
        A.left_trace(inv.apply(A.basis_element(i))) == A._left_tr[i]
        for i in range(A.dim)
    )


def check_positive_involution(A, inv):
    """True iff (x, y) -> left_trace(x y*) is symmetric positive definite.

    Asymmetry short-circuits to False before any minor is computed.
    """
    return is_positive_definite(star_trace_form(A, inv))


def positivity_witness(A, inv):
    """Integer vector x with left_trace(x x*) <= 0, or None when positive.

    Uses the symmetrised form: the quadratic values of T and of
    (T + T^t)/2 coincide, and if the symmetrised form were positive
    definite the original form would already be symmetric.
    """
    T = star_trace_form(A, inv)
    d = A.dim
    Ts = tuple(
        tuple((T[i][j] + T[j][i]) / 2 for j in range(d)) for i in range(d)
    )
    k = first_nonpositive_minor(Ts)
    if k is None:
        return None
    if k == 1:
        return A.basis_element(0)
    # k-th Gram-Schmidt vector of Ts has non-positive norm; clear denominators
    M = tuple(tuple(Ts[i][j] for j in range(k - 1)) for i in range(k - 1))
    rhs = tuple(Ts[k - 1][j] for j in range(k - 1))
    lam = solve_rational(transpose(M), rhs)
    coeffs = [-l for l in lam] + [Fraction(1)] + [Fraction(0)] * (d - k)
    scale = math.lcm(*(cf.denominator for cf in coeffs))
    witness = tuple(int(cf * scale) for cf in coeffs)
    value = sum(
        witness[i] * witness[j] * Ts[i][j] for i in range(d) for j in range(d)
    )
    if value > 0:
        raise InternalError(
            "positivity witness has value %s > 0; this is a bug" % value)
    return witness
