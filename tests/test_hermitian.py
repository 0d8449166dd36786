"""Hermitian modules and their orthogonal decompositions."""

import random
from fractions import Fraction

import pytest

from latdec.errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    NotPositiveInvolutionError,
)
from latdec.hermitian import (
    HermitianModule,
    decompose_hermitian,
    decompose_restriction,
    regular_module,
    trace_form,
    verify_hermitian_decomposition,
)
from latdec.lattice import Block, OrthoDecomposition, ZLattice, decompose, restrict_gram
from latdec.linalg import (
    hnf_basis,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    rational_rank,
    to_int_matrix,
    transpose,
    vec_mat,
)

from latdec.algebra import change_basis, star_trace_form
from builders import (
    cyclic_group_ring,
    dual_numbers,
    gaussian_order,
    integers_order,
    klein_four_ring,
    matrix_order,
    product_order,
    sym3_ring,
    zxz,
)
from oracles import o_stable, oracle_blocks, random_spd_gram, random_unimodular


def q_module(G):
    """B = Q: the plain lattice with Gram G, one identity action matrix."""
    n = len(G)
    form = tuple(tuple((G[a][b],) for b in range(n)) for a in range(n))
    return HermitianModule(integers_order(), (identity(n),), form)


def product_module():
    """Z x Z acting diagonally on Z^2 with the componentwise form."""
    action = (((1, 0), (0, 0)), ((0, 0), (0, 1)))
    form = (
        ((1, 0), (0, 0)),
        ((0, 0), (0, 1)),
    )
    return HermitianModule(zxz(), action, form)


def split_module(G1, G2, W):
    """Z x Z on Z^(a+b), rebased by the unimodular W.

    e1 acts as the identity on the first a coordinates, with form G1
    there, and e2 on the last b, with form G2.  In the new basis, row p
    of W, coordinates transform by W^T, so A' = W^-T A W^T.
    """
    a, n = len(G1), len(G1) + len(G2)
    E1 = tuple(tuple(int(i == j < a) for j in range(n)) for i in range(n))
    E2 = tuple(tuple(int(i == j >= a) for j in range(n)) for i in range(n))

    def entry(i, j, k):
        if k == 0 and i < a and j < a:
            return G1[i][j]
        if k == 1 and i >= a and j >= a:
            return G2[i - a][j - a]
        return 0

    Wt = transpose(W)
    action = tuple(mat_mul(mat_mul(transpose(inverse(W)), E), Wt) for E in (E1, E2))
    form = tuple(tuple(tuple(
        sum(W[p][i] * W[q][j] * entry(i, j, k) for i in range(n) for j in range(n))
        for k in range(2)) for q in range(n)) for p in range(n))
    return HermitianModule(zxz(), action, form)


class TestConstruction:
    def test_rejects_wrong_action_count(self):
        with pytest.raises(InvalidInputError):
            HermitianModule(gaussian_order(), (identity(2),), (((1, 0),),))

    def test_rejects_nonintegral_action(self):
        R = integers_order()
        with pytest.raises(InvalidInputError):
            HermitianModule(R, (((Fraction(1, 2),),),), (((1,),),))

    def test_rejects_broken_representation(self):
        # i must act with square -identity; the identity matrix does not
        R = gaussian_order()
        action = (identity(2), identity(2))
        form = (((1, 0), (0, -1)), ((0, 1), (1, 0)))
        with pytest.raises(InvalidInputError):
            HermitianModule(R, action, form)

    def test_rejects_unfaithful_action(self):
        # second factor of Z x Z acting as zero
        R = zxz()
        with pytest.raises(InvalidInputError) as exc:
            HermitianModule(R, (((1,),), ((0,),)), ((((1, 0)),),))
        assert "faithful" in str(exc.value)

    def test_accepts_rational_form_values(self):
        M = q_module(((1, Fraction(1, 2)), (Fraction(1, 2), 1)))
        assert decompose_hermitian(M).bases() == {((1, 0), (0, 1))}

    def test_rejects_nonhermitian_form(self):
        R = gaussian_order()
        action = (identity(2), ((0, -1), (1, 0)))
        # f(1, i) and f(i, 1) must be conjugate; both set to i here
        form = (((1, 0), (0, 1)), ((0, 1), (1, 0)))
        with pytest.raises(InvalidInputError):
            HermitianModule(R, action, form)

    def test_rejects_indefinite_trace_gram(self):
        G = ((-1, 0), (0, 1))
        with pytest.raises(NotPositiveDefiniteError) as exc:
            q_module(G)
        assert exc.value.minor_index == 1

    def test_rejects_nonpositive_involution(self):
        with pytest.raises(NotPositiveInvolutionError) as exc:
            regular_module(zxz(swap=True))
        w = exc.value.witness
        assert w is not None
        R = zxz(swap=True)
        x = R.mult(w, R.star(w))
        assert R.algebra.left_trace(x) <= 0


def validated_regular_module(R):
    """The regular module through the public constructor: action by
    lmul_matrix, form x y*, every module law checked."""
    A, d = R.algebra, R.dim
    basis = [A.basis_element(i) for i in range(d)]
    action = tuple(A.lmul_matrix(e) for e in basis)
    form = tuple(tuple(R.mult(a, R.star(b)) for b in basis) for a in basis)
    return HermitianModule(R, action, form)


class TestRegularModuleMatchesValidated:
    def orders(self):
        rng = random.Random(31)
        for R in (integers_order(), gaussian_order(), zxz(), matrix_order(2),
                  matrix_order(3), cyclic_group_ring(5), klein_four_ring(), sym3_ring(),
                  product_order(matrix_order(2), gaussian_order())):
            yield R
            yield change_basis(R, random_unimodular(rng, R.dim))

    def test_same_module(self):
        for R in self.orders():
            M, V = regular_module(R), validated_regular_module(R)
            assert M.action == V.action
            assert all(type(x) is int
                       for X in (M, V) for A in X.action for row in A for x in row)
            assert all(type(x) is int for row in M.trace_gram for x in row)
            assert M.form == V.form
            assert M.trace_gram == V.trace_gram == star_trace_form(R.algebra, R.involution)
            assert M.rank == V.rank == R.dim

    def test_same_rejection_of_a_nonpositive_involution(self):
        rng = random.Random(37)
        for R in (zxz(swap=True), dual_numbers(),
                  change_basis(zxz(swap=True), random_unimodular(rng, 2))):
            with pytest.raises(NotPositiveInvolutionError) as fast:
                regular_module(R)
            with pytest.raises(NotPositiveInvolutionError) as full:
                validated_regular_module(R)
            assert str(fast.value) == str(full.value)
            assert fast.value.witness == full.value.witness


class TestTraceForm:
    def test_dot_product_over_q(self):
        M = q_module(((1, 0), (0, 1)))
        assert trace_form(M).gram == identity(2)

    def test_gaussian_regular_module(self):
        M = regular_module(gaussian_order())
        assert trace_form(M).gram == ((2, 0), (0, 2))

    def test_scaling_is_linear(self):
        M = regular_module(gaussian_order())
        scaled = HermitianModule(
            M.order,
            M.action,
            tuple(tuple(tuple(3 * x for x in e) for e in row) for row in M.form),
        )
        assert trace_form(scaled).gram == ((6, 0), (0, 6))


class TestDecompose:
    def test_rational_case_matches_lattice_pipeline(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randrange(1, 5)
            G = random_spd_gram(rng, n)
            M = q_module(G)
            assert decompose_hermitian(M) == decompose(ZLattice(G))

    def test_gaussian_lattice_is_one_block(self):
        M = regular_module(gaussian_order())
        D = decompose_hermitian(M)
        assert len(D.blocks) == 1
        assert D.blocks[0].basis == ((1, 0), (0, 1))
        # the trace form alone splits: the finer predicate is what binds it
        assert len(decompose(trace_form(M)).blocks) == 2

    def test_product_order_splits(self):
        D = decompose_hermitian(product_module())
        assert D.bases() == {((1, 0),), ((0, 1),)}

    def test_cross_blocks_orthogonal_in_the_algebra(self):
        M = product_module()
        D = decompose_hermitian(M)
        (b1,), (b2,) = D.blocks[0].basis, D.blocks[1].basis
        assert M.form_value(b1, b2) == (0, 0)

    def test_scaling_preserves_spans(self):
        M = regular_module(matrix_order(2))
        scaled = HermitianModule(
            M.order,
            M.action,
            tuple(tuple(tuple(2 * x for x in e) for e in row) for row in M.form),
        )
        assert decompose_hermitian(M).bases() == decompose_hermitian(scaled).bases()

    def test_blocks_are_stable_and_unrefinable(self):
        for M in (regular_module(gaussian_order()),
                  regular_module(matrix_order(2)),
                  product_module()):
            D = decompose_hermitian(M)
            for b in D.blocks:
                assert o_stable(M.action, b.basis)
                assert len(decompose_restriction(M, b.basis)) == 1


def claimed(module, bases):
    """A splitting with the given block bases and their trace-form Grams."""
    return OrthoDecomposition(tuple(
        Block(basis=b, gram=restrict_gram(module.trace_gram, b)) for b in bases))


class TestVerify:
    def test_accepts_the_decomposition(self):
        rng = random.Random(7)
        modules = [regular_module(gaussian_order()), regular_module(matrix_order(2)),
                   product_module()]
        modules += [split_module(((2, 1), (1, 2)), ((1,),), random_unimodular(rng, 3))
                    for _ in range(3)]
        for M in modules:
            assert verify_hermitian_decomposition(M, decompose_hermitian(M))

    def test_rejects_blocks_that_are_not_orthogonal(self):
        # over Z with form A2, {e1} and {e2} stack and are O-stable
        M = q_module(((2, -1), (-1, 2)))
        D = claimed(M, (((1, 0),), ((0, 1),)))
        assert all(o_stable(M.action, b.basis) for b in D.blocks)
        assert not verify_hermitian_decomposition(M, D)

    def test_rejects_a_decomposable_block(self):
        M = product_module()
        assert not verify_hermitian_decomposition(M, claimed(M, (((1, 0), (0, 1)),)))

    def test_rejects_an_unstable_or_incomplete_split(self):
        M = regular_module(gaussian_order())  # the trace form alone splits
        assert not verify_hermitian_decomposition(M, claimed(M, (((0, 1),), ((1, 0),))))
        assert not verify_hermitian_decomposition(M, claimed(M, (((1, 0),),)))


class TestRationalFormAgainstOracle:
    """The integer pairing kernel against form_value evaluated directly."""

    half = Fraction(1, 2)

    def modules(self):
        rng = random.Random(23)
        gauss = regular_module(gaussian_order())
        yield q_module(((1, self.half), (self.half, 1)))
        yield HermitianModule(gauss.order, gauss.action, tuple(
            tuple(tuple(Fraction(x, 3) for x in e) for e in row) for row in gauss.form))
        for G1, G2 in (
                (((self.half, Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 3))),
                 ((Fraction(1, 5),),)),
                (((Fraction(1, 3), 0), (0, Fraction(1, 5))),
                 ((1, self.half), (self.half, 1)))):
            for _ in range(3):
                n = len(G1) + len(G2)
                W = random_unimodular(rng, n, max_abs=2, steps=5)
                yield split_module(G1, G2, W)

    def test_decompose_hermitian(self):
        for M in self.modules():
            expected = oracle_blocks(M.trace_gram, M.form_value)
            assert decompose_hermitian(M).bases() == expected

    def test_decompose_restriction(self):
        rng = random.Random(31)
        for M in self.modules():
            # the whole lattice in a new basis, and the image of the first
            # basis element's action: the e1 part of a split module
            image = hnf_basis(to_int_matrix(transpose(M.action[0])))
            for rows in (random_unimodular(rng, M.rank, max_abs=2, steps=4), image):
                g = restrict_gram(M.trace_gram, rows)
                expected = oracle_blocks(g, lambda u, v, rows=rows: M.form_value(
                    vec_mat(u, rows), vec_mat(v, rows)))
                assert frozenset(decompose_restriction(M, rows)) == expected


class TestRegularModuleAgainstOracle:
    def test_each_builder_order_in_three_bases(self):
        # the merged trace-form blocks against the splitting read off the
        # algebra-valued form straight from the definition
        rng = random.Random(3)
        for R in (integers_order(), gaussian_order(), zxz(), matrix_order(2),
                  matrix_order(3), cyclic_group_ring(3), cyclic_group_ring(5),
                  klein_four_ring(), sym3_ring(),
                  product_order(matrix_order(2), gaussian_order()),
                  product_order(gaussian_order(), integers_order())):
            for S in (R,
                      change_basis(R, random_unimodular(rng, R.dim, max_abs=1, steps=6)),
                      change_basis(R, random_unimodular(rng, R.dim, max_abs=2, steps=4))):
                M = regular_module(S)
                assert decompose_hermitian(M).bases() == oracle_blocks(
                    M.trace_gram, M.form_value)


class TestOStability:
    def test_against_fraction_oracle(self):
        # blocks, the blocks of a restriction to the whole lattice in a
        # random basis or to a block, and the ideals O*v are stable;
        # prefixes of a random basis mostly not, nor an ideal with one
        # more row, which fails on that row
        rng = random.Random(41)
        verdicts = []
        for R in (gaussian_order(), zxz(), matrix_order(2), klein_four_ring(),
                  cyclic_group_ring(3), product_order(gaussian_order(), integers_order())):
            for R in (R, change_basis(R, random_unimodular(rng, R.dim))):
                M = regular_module(R)
                U = random_unimodular(rng, M.rank)
                blocks = [b.basis for b in decompose_hermitian(M).blocks]
                blocks += [tuple(vec_mat(r, rows) for r in sub)
                           for rows in [U] + blocks for sub in decompose_restriction(M, rows)]
                ideals = [hnf_basis(tuple(mat_vec(A, v) for A in M.action)) for v in U[:2]]
                assert all(o_stable(M.action, rows) for rows in blocks + ideals)
                others = [U[:k] for k in range(1, M.rank + 1)]
                others += [I + (w,) for I in ideals for w in U[-1:]
                           if rational_rank(I + (w,)) == len(I) + 1]
                verdicts += [o_stable(M.action, rows) for rows in others]
        assert verdicts.count(False) >= 20


class TestEdgePredicateEquivalence:
    def test_form_vanishing_matches_trace_vanishing(self):
        rng = random.Random(5)
        for M in (regular_module(gaussian_order()),
                  regular_module(matrix_order(2)),
                  product_module()):
            R = M.order
            n = M.rank
            for _ in range(60):
                x = tuple(rng.randrange(-2, 3) for _ in range(n))
                y = tuple(rng.randrange(-2, 3) for _ in range(n))
                direct = not any(M.form_value(x, y))
                via_traces = all(
                    R.algebra.left_trace(
                        M.form_value(mat_vec(M.action[i], x), y)) == 0
                    for i in range(R.dim)
                )
                assert direct == via_traces
