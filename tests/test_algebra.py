import random
from fractions import Fraction

import pytest

from latdec.algebra import (
    FiniteDimAlgebra,
    Involution,
    InvolutiveOrder,
    change_basis,
    check_l_eq_lstar,
    check_l_eq_r,
    check_nd,
    check_positive_involution,
    check_ss,
    positivity_witness,
    star_trace_form,
    trace_pairing,
)
from latdec.errors import InvalidInputError
from latdec.jsonio import parse_algebra
from latdec.linalg import as_fraction_matrix, identity, inverse, transpose, vec_mat

from builders import (
    cyclic_group_ring,
    dual_numbers,
    gaussian_order,
    integers_order,
    klein_four_ring,
    matrix_order,
    product_order,
    sym3_ring,
    upper_triangular_2x2,
    zxz,
)
from oracles import algebra_law_failure, involution_law_failure, random_unimodular


class TestConstruction:
    def test_rejects_broken_associativity(self):
        # unit laws hold but (a*a)*a = b*a = 0 while a*(a*a) = a*b = 1
        e = [1, 0, 0]
        z = [0, 0, 0]
        structure = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], e],
            [[0, 0, 1], z, z],
        ]
        with pytest.raises(InvalidInputError, match=r"associativity fails at \(1,1,1\)"):
            FiniteDimAlgebra(structure, [1, 0, 0])

    def test_rejects_broken_unit(self):
        with pytest.raises(InvalidInputError):
            FiniteDimAlgebra([[[1]]], [2])

    def test_rejects_non_involutive_matrix(self):
        alg = FiniteDimAlgebra([[[1]]], [1])
        with pytest.raises(InvalidInputError):
            Involution(alg, [[2]])

    def test_rejects_involution_moving_the_unit(self):
        alg = FiniteDimAlgebra([[[1]]], [1])
        with pytest.raises(InvalidInputError, match="does not fix the unit"):
            Involution(alg, [[-1]])

    def test_rejects_multiplicative_involution_of_noncommutative_algebra(self):
        # the identity is not an anti-automorphism of M_2: (E11 E12)* = E12
        # while E12* E11* = E12 E11 = 0
        alg = matrix_order(2).algebra
        with pytest.raises(InvalidInputError, match=r"\(e_0 e_1\)\* != e_1\* e_0\*"):
            Involution(alg, identity(4))

    def test_rejects_non_integral_order(self):
        structure = [[[Fraction(1, 2)]]]
        alg = FiniteDimAlgebra(structure, [2])
        with pytest.raises(InvalidInputError):
            InvolutiveOrder(alg, Involution(alg, [[1]]))


class TestTraces:
    def test_matrix_algebra_trace_is_n_times_matrix_trace(self):
        for n in (1, 2, 3):
            R = matrix_order(n)
            A = R.algebra
            for i in range(n):
                e_ii = A.basis_element(i * n + i)
                assert A.left_trace(e_ii) == n
                assert A.right_trace(e_ii) == n
            if n > 1:
                off = A.basis_element(1)  # E_12
                assert A.left_trace(off) == 0

    def test_upper_triangular_left_right_split(self):
        A = upper_triangular_2x2()
        # x = a11*E11 + a12*E12 + a22*E22
        rng = random.Random(3)
        for _ in range(10):
            a11, a12, a22 = (rng.randint(-5, 5) for _ in range(3))
            x = (a11, a12, a22)
            assert A.left_trace(x) == 2 * a11 + a22
            assert A.right_trace(x) == a11 + 2 * a22

    def test_group_ring_trace(self):
        R = cyclic_group_ring(5)
        A = R.algebra
        assert A.left_trace(A.one) == 5
        for g in range(1, 5):
            assert A.left_trace(A.basis_element(g)) == 0

    def test_lmul_matrix_consistency(self):
        A = sym3_ring().algebra
        rng = random.Random(9)
        x = tuple(rng.randint(-3, 3) for _ in range(6))
        L = A.lmul_matrix(x)
        tr = sum(L[k][k] for k in range(6))
        assert tr == A.left_trace(x)


class TestPredicates:
    def test_matrix_algebra_all_good(self):
        R = matrix_order(2)
        A = R.algebra
        assert check_nd(A)
        assert check_ss(A)
        assert check_l_eq_r(A)
        assert check_l_eq_lstar(A, R.involution)
        assert check_positive_involution(A, R.involution)

    def test_upper_triangular_fails_nd_and_l_eq_r(self):
        A = upper_triangular_2x2()
        assert trace_pairing(A) == ((2, 0, 0), (0, 0, 0), (0, 0, 1))
        assert not check_nd(A)
        assert not check_l_eq_r(A)

    def test_dual_numbers_l_eq_r_without_ss(self):
        # commutative, so traces match, yet the trace pairing degenerates
        R = dual_numbers()
        A = R.algebra
        assert check_l_eq_r(A)
        assert trace_pairing(A) == ((2, 0), (0, 0))
        assert not check_nd(A)
        assert not check_ss(A)
        assert not check_positive_involution(A, R.involution)

    def test_swap_involution_not_positive(self):
        R = zxz(swap=True)
        A = R.algebra
        assert check_l_eq_lstar(A, R.involution)
        assert not check_positive_involution(A, R.involution)
        w = positivity_witness(A, R.involution)
        assert w is not None
        value = A.left_trace(A.mult(w, R.star(w)))
        assert value <= 0

    def test_identity_involution_on_zxz_positive(self):
        R = zxz(swap=False)
        assert check_positive_involution(R.algebra, R.involution)
        assert positivity_witness(R.algebra, R.involution) is None

    def test_gaussian_conjugation_positive(self):
        R = gaussian_order()
        assert star_trace_form(R.algebra, R.involution) == ((2, 0), (0, 2))
        assert check_positive_involution(R.algebra, R.involution)

    def test_group_rings_positive(self):
        for R in (cyclic_group_ring(2), cyclic_group_ring(6), klein_four_ring(), sym3_ring()):
            assert check_positive_involution(R.algebra, R.involution)
            assert check_nd(R.algebra)


def rebased(R, W):
    """Structure constants, unit and involution matrix of R in the basis
    given by the rows of the invertible rational matrix W."""
    A, d = R.algebra, R.dim
    W = as_fraction_matrix(W)
    Winv = inverse(W)
    structure = tuple(
        tuple(vec_mat(A.mult(W[i], W[j]), Winv) for j in range(d)) for i in range(d))
    S = transpose(tuple(vec_mat(R.star(W[i]), Winv) for i in range(d)))
    return structure, vec_mat(A.one, Winv), S


def _failure(make, *args):
    try:
        make(*args)
    except InvalidInputError as exc:
        return str(exc)
    return None


def _as_json(structure, one, S):
    def q(x):
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else str(x)
    return {
        "dim": len(one),
        "structure_constants": [[[q(x) for x in row] for row in plane] for plane in structure],
        "one": [q(x) for x in one],
        "involution": [[q(x) for x in row] for row in S],
    }


def boundary_inputs(rng):
    """(structure, one, S) triples: builder orders in their own, a random
    unimodular and a random rational basis, then copies with one structure
    constant, the unit or one involution entry perturbed, and the identity
    and its negative as involutions."""
    orders = [matrix_order(1), matrix_order(2), gaussian_order(), dual_numbers(),
              zxz(False), zxz(True), integers_order(), cyclic_group_ring(3),
              cyclic_group_ring(4), klein_four_ring(), sym3_ring(),
              product_order(gaussian_order(), zxz(False))]
    for R in orders:
        d = R.dim
        U = random_unimodular(rng, d, max_abs=2, steps=6)
        rational = [list(map(Fraction, row)) for row in random_unimodular(rng, d)]
        rational[0] = [x / rng.choice((2, 3)) for x in rational[0]]
        for W in (identity(d), U, rational):
            structure, one, S = rebased(R, W)
            yield structure, one, S
            for _ in range(2):
                bent = [[list(row) for row in plane] for plane in structure]
                i, j, k = (rng.randrange(d) for _ in range(3))
                bent[i][j][k] += rng.choice((1, -1, Fraction(1, 2)))
                yield bent, one, S
            bent_one = list(one)
            bent_one[rng.randrange(d)] += rng.choice((1, -1))
            yield structure, bent_one, S
            bent_S = [list(row) for row in S]
            bent_S[rng.randrange(d)][rng.randrange(d)] += rng.choice((1, -1))
            yield structure, one, bent_S
            yield structure, one, identity(d)
            yield structure, one, tuple(tuple(-x for x in row) for row in identity(d))


class TestBoundaryChecksAgainstOracle:
    def test_same_verdict_and_first_message(self):
        kinds = ("unit law", "associativity", "S^2", "fix the unit", "* !=")
        seen = set()
        for structure, one, S in boundary_inputs(random.Random(23)):
            expected = algebra_law_failure(structure, one)
            assert _failure(FiniteDimAlgebra, structure, one) == expected
            if expected is None:
                expected = involution_law_failure(structure, one, S)
                alg = FiniteDimAlgebra(structure, one)
                assert _failure(Involution, alg, S) == expected
            assert _failure(parse_algebra, _as_json(structure, one, S)) == expected
            seen.add(expected and next(k for k in kinds if k in expected))
        # accepted inputs and every kind of rejection occur
        assert seen == {None, *kinds}


def curated_orders(rng):
    """Pool of involutive orders of dimension <= 6, plus basis changes."""
    base = [
        matrix_order(1),
        matrix_order(2),
        gaussian_order(),
        dual_numbers(),
        zxz(False),
        zxz(True),
        cyclic_group_ring(2),
        cyclic_group_ring(3),
        cyclic_group_ring(4),
        cyclic_group_ring(5),
        cyclic_group_ring(6),
        klein_four_ring(),
        sym3_ring(),
    ]
    pool = list(base)
    for a in base:
        for b in base:
            if a.dim + b.dim <= 6:
                pool.append(product_order(a, b))
    out = list(pool)
    for R in pool:
        for _ in range(2):
            W = random_unimodular(rng, R.dim, max_abs=2, steps=6)
            out.append(change_basis(R, W))
    return out


class TestImplicationChain:
    def test_chain_on_curated_family(self):
        rng = random.Random(41)
        family = curated_orders(rng)
        assert len(family) >= 200
        for R in family:
            A = R.algebra
            pd = check_positive_involution(A, R.involution)
            nd = check_nd(A)
            ss = check_ss(A)
            ler = check_l_eq_r(A)
            lstar = check_l_eq_lstar(A, R.involution)
            if pd:
                assert nd
            assert nd == ss
            if nd:
                assert ler
            assert lstar == ler
            if pd:
                assert positivity_witness(A, R.involution) is None
            else:
                w = positivity_witness(A, R.involution)
                if w is not None:
                    assert A.left_trace(A.mult(w, R.star(w))) <= 0

    def test_witness_exists_whenever_pd_fails_on_symmetric_forms(self):
        # when the star trace form is symmetric but not PD a witness must exist
        for R in (dual_numbers(), zxz(True)):
            w = positivity_witness(R.algebra, R.involution)
            assert w is not None


class TestChangeBasis:
    def test_round_trip(self):
        rng = random.Random(13)
        for R in (gaussian_order(), matrix_order(2), cyclic_group_ring(3)):
            d = R.dim
            W = random_unimodular(rng, d)
            R2 = change_basis(R, W)
            # trace forms are congruent, hence equal determinants up to squares;
            # predicates must be invariant outright
            assert check_nd(R2.algebra) == check_nd(R.algebra)
            assert check_positive_involution(R2.algebra, R2.involution) == \
                check_positive_involution(R.algebra, R.involution)

    def test_output_passes_the_public_checks(self):
        rng = random.Random(29)
        for R in (gaussian_order(), matrix_order(2), sym3_ring(), zxz(True),
                  product_order(cyclic_group_ring(3), gaussian_order())):
            R2 = change_basis(R, random_unimodular(rng, R.dim))
            alg = FiniteDimAlgebra(R2.algebra.structure, R2.algebra.one)
            Involution(alg, R2.involution.matrix)

    def test_left_trace_transforms_linearly(self):
        R = matrix_order(2)
        rng = random.Random(19)
        W = random_unimodular(rng, 4)
        R2 = change_basis(R, W)
        x_new = (1, -2, 0, 3)
        x_old = tuple(
            sum(x_new[i] * W[i][j] for i in range(4)) for j in range(4)
        )
        assert R2.algebra.left_trace(x_new) == R.algebra.left_trace(x_old)
