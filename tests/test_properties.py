"""Property tests: split output is audited, finest and basis-independent.

Each case is a planted lattice, Hermitian module or polarised structure
given as a positive Gram and the operators of lattice.split, moved by a
random unimodular change of basis U (rows x -> x U, so G' = U G U^T and
an operator A on columns becomes U^-T A U^T).
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from latdec.hermitian import regular_module
from latdec.lattice import audit_blocks, is_finest, split
from latdec.linalg import as_fraction_matrix, hnf_basis, inverse, mat_mul, transpose
from builders import cyclic_group_ring, gaussian_order, klein_four_ring, matrix_order, product_order, zxz
from oracles import random_unimodular

LATTICE_BLOCKS = (((1,),), ((2,),), ((3,),), ((2, 1), (1, 2)), ((2, 1), (1, 3)))
# (J, psi) of rank-2 polarised structures: Z[i], Z + 2iZ, and a conjugate of Z[i]
PLANES = (
    (((0, -1), (1, 0)), ((0, 1), (-1, 0))),
    (((0, Fraction(-1, 2)), (2, 0)), ((0, 1), (-1, 0))),
    (((1, -1), (2, -1)), ((0, 1), (-1, 0))),
)
ORDERS = (zxz, gaussian_order, lambda: matrix_order(2), klein_four_ring,
          lambda: cyclic_group_ring(3), lambda: product_order(gaussian_order(), zxz()))


def diag(parts):
    n = sum(len(p) for p in parts)
    out, off = [[0] * n for _ in range(n)], 0
    for p in parts:
        for i, row in enumerate(p):
            out[off + i][off:off + len(row)] = row
        off += len(p)
    return tuple(tuple(row) for row in out)


def coordinate_spans(parts):
    n, spans, off = sum(len(p) for p in parts), set(), 0
    for p in parts:
        spans.add(tuple(tuple(int(c == off + i) for c in range(n)) for i in range(len(p))))
        off += len(p)
    return spans


def lattice_case(grams):
    return diag(grams), (), coordinate_spans(grams)


def module_case(make):
    module = regular_module(make())
    return module.trace_gram, module.action, None


def hodge_case(planes):
    J, psi = diag([j for j, _ in planes]), diag([p for _, p in planes])
    return mat_mul(as_fraction_matrix(psi), J), (J,), coordinate_spans([j for j, _ in planes])


CASES = st.one_of(
    st.lists(st.sampled_from(LATTICE_BLOCKS), min_size=1, max_size=3).map(lattice_case),
    st.sampled_from(ORDERS).map(module_case),
    st.lists(st.sampled_from(PLANES), min_size=1, max_size=3).map(hodge_case),
)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(CASES, st.integers(0, 2 ** 32))
def test_split_is_audited_finest_and_equivariant(case, seed):
    gram, operators, planted = case
    U = as_fraction_matrix(random_unimodular(random.Random(seed), len(gram)))
    moved_gram = mat_mul(mat_mul(U, gram), transpose(U))
    moved_ops = tuple(mat_mul(mat_mul(transpose(inverse(U)), A), transpose(U))
                      for A in operators)
    bases = split(gram, operators)
    moved = split(moved_gram, moved_ops)
    assert audit_blocks(moved_gram, moved, moved_ops)
    assert is_finest(moved_gram, moved, moved_ops)
    assert {hnf_basis(tuple(tuple(int(x) for x in row) for row in mat_mul(b, U)))
            for b in moved} == set(bases)
    if planted is not None:
        assert set(bases) == planted
