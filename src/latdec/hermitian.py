"""Lattices in Hermitian modules over an involutive order.

The module V is presented as Q^N in a fixed basis with L = Z^N.  The
algebra acts through one integer matrix per order basis element, stored
as ints, and the form is tabulated as F[a][b] = f(b_a, b_b), each value
a coordinate vector in the order basis.  An O-stable, f-orthogonal
splitting is orthogonal for the trace form t, and t(A_k r, s) is nonzero
for some action matrix A_k exactly when f(r, s) is nonzero; the action
spans an algebra closed under the t-adjoint (the involution).  So
decomposition is lattice.split(t, action), and auditing is
lattice.audit_blocks and lattice.is_finest on the same pair: t-orthogonal
O-stable blocks are f-orthogonal.

The public constructor validates a module in full; regular_module builds
the module from the order's integer structure constants and checks only
positivity, the other laws being theorems for a validated order.
decompose_hermitian trusts split, whose merge yields O-stable blocks;
stability of a computed split is checked only by the auditor.
"""

from fractions import Fraction

from .algebra import check_positive_involution, positivity_witness, unchecked
from .errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    NotPositiveInvolutionError,
)
from .lattice import (
    Block,
    OrthoDecomposition,
    ZLattice,
    audit_blocks,
    is_finest,
    restrict_gram,
    split,
)
from .linalg import (
    dot,
    first_nonpositive_minor,
    identity,
    is_integral,
    is_positive_definite,
    is_symmetric,
    mat_mul,
    rational_rank,
    to_int_matrix,
    transpose,
    vec_mat,
)


class HermitianModule:
    """Z^N with an algebra action and a compatible Hermitian form."""

    def __init__(self, order, action, form):
        d = order.dim
        if len(action) != d:
            raise InvalidInputError(
                "action: expected %d matrices, got %d" % (d, len(action)))
        acts = []
        for i, A in enumerate(action):
            if not is_integral(A):
                raise InvalidInputError(
                    "action[%d]: matrix does not preserve the lattice" % i)
            acts.append(to_int_matrix(A))
        action = tuple(acts)
        N = len(action[0]) if d else 0
        for i, A in enumerate(action):
            if len(A) != N or any(len(row) != N for row in A):
                raise InvalidInputError(
                    "action[%d]: expected a %dx%d matrix" % (i, N, N))
        try:
            form = tuple(
                tuple(tuple(Fraction(x) for x in entry) for entry in row)
                for row in form
            )
        except (TypeError, ValueError):
            raise InvalidInputError("form: entries must be rational vectors")
        if len(form) != N or any(len(row) != N for row in form) or any(
                len(entry) != d for row in form for entry in row):
            raise InvalidInputError(
                "form: expected an %dx%d table of length-%d vectors" % (N, N, d))
        self._assemble(order, action, form, _checked_trace_gram(order, action, form))

    def _assemble(self, order, action, form, trace_gram):
        self.order = order
        self.action = action
        self.rank = len(form)
        self.form = form
        self.trace_gram = trace_gram

    def form_value(self, x, y):
        """f(x, y) as a coordinate vector in the order basis."""
        d = self.order.dim
        acc = [Fraction(0)] * d
        for a, xa in enumerate(x):
            if not xa:
                continue
            row = self.form[a]
            for b, yb in enumerate(y):
                if not yb:
                    continue
                c = xa * yb
                entry = row[b]
                for k in range(d):
                    acc[k] += c * entry[k]
        return tuple(acc)


def _checked_trace_gram(R, action, form):
    """Check every module law; return the trace Gram left_trace(f(b_a, b_b))."""
    d, N = R.dim, len(form)
    if not check_positive_involution(R.algebra, R.involution):
        raise NotPositiveInvolutionError(
            "involution is not positive",
            witness=positivity_witness(R.algebra, R.involution))
    unit = _action_combination(action, R.one)
    if unit != identity(N):
        raise InvalidInputError("action: the unit does not act as the identity")
    for i in range(d):
        for j in range(i, d):
            prod = mat_mul(action[i], action[j])
            coords = R.mult(R.basis_element(i), R.basis_element(j))
            if prod != _action_combination(action, coords):
                raise InvalidInputError(
                    "action: matrices do not respect the multiplication "
                    "table (pair %d, %d)" % (i, j))
            if i != j:
                prod = mat_mul(action[j], action[i])
                coords = R.mult(R.basis_element(j), R.basis_element(i))
                if prod != _action_combination(action, coords):
                    raise InvalidInputError(
                        "action: matrices do not respect the multiplication "
                        "table (pair %d, %d)" % (j, i))
    flattened = tuple(tuple(x for row in A for x in row) for A in action)
    if rational_rank(flattened) != d:
        raise InvalidInputError("action: representation is not faithful")
    for a in range(N):
        for b in range(N):
            if form[b][a] != R.star(form[a][b]):
                raise InvalidInputError(
                    "form: not conjugate-symmetric at (%d, %d)" % (a, b))
    for i in range(d):
        A = action[i]
        e = R.basis_element(i)
        for a in range(N):
            for b in range(N):
                lhs = [Fraction(0)] * d
                for g in range(N):
                    c = A[g][a]
                    if c:
                        entry = form[g][b]
                        for k in range(d):
                            lhs[k] += c * entry[k]
                if tuple(lhs) != R.mult(e, form[a][b]):
                    raise InvalidInputError(
                        "form: not linear over the algebra at "
                        "(%d, %d, %d)" % (i, a, b))
    g = tuple(
        tuple(R.algebra.left_trace(form[a][b]) for b in range(N))
        for a in range(N)
    )
    if not is_symmetric(g):
        raise InvalidInputError("form: trace Gram is not symmetric")
    k = first_nonpositive_minor(g)
    if k is not None:
        raise NotPositiveDefiniteError(
            "form: trace Gram leading principal minor %d is not positive" % k,
            minor_index=k)
    return g


def _action_combination(action, coords):
    n = len(action[0])
    out = [[Fraction(0)] * n for _ in range(n)]
    for c, A in zip(coords, action):
        if c:
            for i in range(n):
                Ai = A[i]
                oi = out[i]
                for j in range(n):
                    oi[j] += c * Ai[j]
    return tuple(tuple(row) for row in out)


def regular_module(order):
    """The order acting on itself from the left, with f(x, y) = x y*.

    Built in integers from the structure planes c[a] (c[a][j][k] is the
    e_k coefficient of e_a e_j) and the involution matrix: the action of
    e_a is c[a] transposed, f(e_a, e_b) = e_b* c[a], and the trace Gram,
    star_trace_form, pairs f with the left traces sum_j c[a][j][j].  Only
    positivity is checked."""
    c = tuple(to_int_matrix(plane) for plane in order.algebra.structure)
    stars = transpose(to_int_matrix(order.involution.matrix))  # row b is e_b*
    trace = tuple(sum(row[j] for j, row in enumerate(plane)) for plane in c)
    action = tuple(transpose(plane) for plane in c)
    form = tuple(tuple(vec_mat(s, plane) for s in stars) for plane in c)
    gram = tuple(tuple(dot(f, trace) for f in row) for row in form)
    if not is_positive_definite(gram):
        raise NotPositiveInvolutionError(
            "involution is not positive",
            witness=positivity_witness(order.algebra, order.involution))
    return unchecked(HermitianModule, order, action, form, gram)


def trace_form(module):
    return ZLattice(module.trace_gram)


def decompose_restriction(module, block_rows, max_rank=None):
    """Decomposition inside the sublattice spanned by block_rows.

    Returns block bases in block_rows coordinates.  The span must be
    saturated and action-stable for the restriction to make sense; both
    hold for pipeline output and for the span of R*i with i a Hermitian
    idempotent.  The action stays on the ambient lattice (it may not be
    faithful on a sublattice).
    """
    return split(module.trace_gram, module.action, block_rows, max_rank)


def decompose_hermitian(module, max_rank=None):
    """Unique splitting into pairwise f-orthogonal indecomposable sublattices."""
    g = module.trace_gram
    bases = split(g, module.action, max_rank=max_rank)
    blocks = tuple(Block(basis=b, gram=restrict_gram(g, b)) for b in bases)
    return OrthoDecomposition(blocks)


def verify_hermitian_decomposition(module, decomposition):
    """Read-only audit: restricted trace Grams, then audit_blocks and
    is_finest on the trace Gram and the action."""
    g, bases = module.trace_gram, [b.basis for b in decomposition.blocks]
    return (all(b.gram == restrict_gram(g, b.basis) for b in decomposition.blocks)
            and audit_blocks(g, bases, module.action)
            and is_finest(g, bases, module.action))
