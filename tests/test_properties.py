"""Property tests: split output is audited, finest and basis-independent,
and the public decomposers agree with the ball oracle and planted blocks.

Each case is a planted lattice, Hermitian module, polarised structure or
order, moved by a random unimodular change of basis U (rows x -> x U, so
G' = U G U^T and an operator A on columns becomes U^-T A U^T).  Where
the norms are narrow, each decomposer must give what it gives with
oracles.ball_pipeline as its engine; where they range up to 10^30, on
which the ball oracle does not finish, it must find the planted blocks.
"""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

import latdec.lattice
from latdec.algebra import change_basis
from latdec.hermitian import HermitianModule, decompose_hermitian, regular_module
from latdec.hodge import PolarisedComplexStructure, decompose_hodge
from latdec.idempotents import decompose_unity
from latdec.lattice import ZLattice, audit_blocks, decompose, is_finest, split, verify_decomposition
from latdec.linalg import as_fraction_matrix, hnf_basis, inverse, mat_mul, transpose, vec_mat
from builders import (
    cyclic_group_ring,
    gaussian_order,
    integers_order,
    klein_four_ring,
    matrix_order,
    product_order,
    real_quadratic_order,
    zxz,
)
from oracles import ball_pipeline, random_unimodular

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


SEEDS = st.integers(0, 2 ** 32)
NARROW = st.sampled_from((1, 2))
WIDE = st.sampled_from((1, 7, 10 ** 6, 10 ** 15, 10 ** 30)) | st.integers(1, 10 ** 30)
# orders with a small regular module, and their planted idempotents
SMALL_ORDERS = (
    (integers_order, ((1,),)),
    (gaussian_order, ((1, 0),)),
    (zxz, ((1, 0), (0, 1))),
)


def by_ball(decomposer, *args):
    """decomposer(*args) with the ball oracle as the engine of split."""
    with mock.patch.object(latdec.lattice, "decompose_pipeline", ball_pipeline):
        return decomposer(*args)


def congruent(M, U):
    return mat_mul(mat_mul(U, M), transpose(U))


def scaled(M, c):
    return tuple(tuple(c * x for x in row) for row in M)


def carried_back(bases, U):
    """Block bases in moved coordinates, as HNF spans in the planted ones."""
    return {hnf_basis(tuple(tuple(int(x) for x in row) for row in mat_mul(b, U)))
            for b in bases}


def moved_module(module, U):
    """The module in the basis of the rows of U."""
    Ut, Uinv = transpose(U), transpose(inverse(as_fraction_matrix(U)))
    form = [[tuple(sum(U[i][a] * U[j][b] * module.form[a][b][k]
                       for a in range(len(U)) for b in range(len(U)))
                   for k in range(module.order.dim))
             for j in range(len(U))] for i in range(len(U))]
    return HermitianModule(module.order, [mat_mul(mat_mul(Uinv, A), Ut) for A in module.action],
                           form)


def doubled_module(module, c):
    """The orthogonal sum of the module and of the module with its form times c."""
    N, zero = len(module.action[0]), (0,) * module.order.dim
    form = [[module.form[i % N][j % N] if i // N == j // N == 0
             else tuple(c * x for x in module.form[i % N][j % N]) if i // N == j // N
             else zero for j in range(2 * N)] for i in range(2 * N)]
    return HermitianModule(module.order, [diag((A, A)) for A in module.action], form)


def moved_structure(planes, scales, U):
    J, psi = diag([j for j, _ in planes]), diag([scaled(p, c) for (_, p), c in zip(planes, scales)])
    return PolarisedComplexStructure(mat_mul(mat_mul(transpose(inverse(as_fraction_matrix(U))), J),
                                             transpose(U)), congruent(psi, U))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.lists(st.tuples(st.sampled_from(LATTICE_BLOCKS), NARROW), min_size=1, max_size=3),
       SEEDS)
def test_decompose_matches_the_ball_oracle(parts, seed):
    grams = [scaled(g, c) for g, c in parts]
    U = random_unimodular(random.Random(seed), sum(map(len, grams)))
    L = ZLattice(congruent(diag(grams), U))
    D = decompose(L)
    assert D == by_ball(decompose, L)
    assert carried_back(D.bases(), U) == coordinate_spans(grams)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.lists(st.tuples(st.sampled_from(LATTICE_BLOCKS), WIDE), min_size=1, max_size=4),
       SEEDS)
def test_decompose_finds_planted_blocks_over_wide_norms(parts, seed):
    grams = [scaled(g, c) for g, c in parts]
    U = random_unimodular(random.Random(seed), sum(map(len, grams)))
    L = ZLattice(congruent(diag(grams), U))
    D = decompose(L)
    assert carried_back(D.bases(), U) == coordinate_spans(grams)
    assert verify_decomposition(L, D)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(st.sampled_from(ORDERS), SEEDS)
def test_decompose_hermitian_matches_the_ball_oracle(make, seed):
    module = regular_module(make())
    moved = moved_module(module, random_unimodular(random.Random(seed), len(module.action[0])))
    assert decompose_hermitian(moved) == by_ball(decompose_hermitian, moved)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(st.sampled_from(SMALL_ORDERS), WIDE, SEEDS)
def test_decompose_hermitian_finds_planted_blocks_over_wide_norms(order, c, seed):
    module = regular_module(order[0]())
    N = len(module.action[0])
    U = random_unimodular(random.Random(seed), 2 * N)
    moved = moved_module(doubled_module(module, c), U)
    planted = {tuple(tuple((0,) * shift + r + (0,) * (N - shift)) for r in b)
               for b in by_ball(decompose_hermitian, module).bases() for shift in (0, N)}
    assert carried_back(decompose_hermitian(moved).bases(), U) == planted


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.lists(st.tuples(st.sampled_from(PLANES), NARROW), min_size=1, max_size=3), SEEDS)
def test_decompose_hodge_matches_the_ball_oracle(parts, seed):
    U = random_unimodular(random.Random(seed), 2 * len(parts))
    H = moved_structure([p for p, _ in parts], [c for _, c in parts], U)
    D = decompose_hodge(H)
    assert D == by_ball(decompose_hodge, H)
    assert carried_back([b.basis for b in D.blocks], U) == coordinate_spans(
        [j for (j, _), _ in parts])


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.lists(st.tuples(st.sampled_from(PLANES), WIDE), min_size=1, max_size=3), SEEDS)
def test_decompose_hodge_finds_planted_blocks_over_wide_norms(parts, seed):
    U = random_unimodular(random.Random(seed), 2 * len(parts))
    H = moved_structure([p for p, _ in parts], [c for _, c in parts], U)
    assert carried_back([b.basis for b in decompose_hodge(H).blocks], U) == coordinate_spans(
        [j for (j, _), _ in parts])


@settings(derandomize=True, deadline=None, max_examples=15)
@given(st.sampled_from(ORDERS), SEEDS)
def test_decompose_unity_matches_the_ball_oracle(make, seed):
    order = make()
    moved = change_basis(order, random_unimodular(random.Random(seed), order.dim))
    assert decompose_unity(moved) == by_ball(decompose_unity, moved)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(st.sampled_from(SMALL_ORDERS), st.integers(2, 10 ** 30), SEEDS)
def test_decompose_unity_finds_planted_idempotents_over_wide_norms(small, D, seed):
    make, idems = small
    order = product_order(make(), real_quadratic_order(D))
    W = random_unimodular(random.Random(seed), order.dim)
    planted = {v + (0, 0) for v in idems} | {(0,) * len(idems[0]) + (1, 0)}
    assert {tuple(vec_mat(v, W)) for v in decompose_unity(change_basis(order, W)).idems} == planted
