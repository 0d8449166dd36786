import math
import random
from fractions import Fraction

import pytest

from latdec.errors import InvalidInputError, NoSolutionError, NotPositiveDefiniteError
from latdec.linalg import (
    as_fraction_matrix,
    det,
    enumerate_short_vectors,
    first_nonpositive_minor,
    gram_value,
    hnf,
    identity,
    integer_scaled,
    inverse,
    is_positive_definite,
    is_unimodular,
    left_integer_kernel,
    lll_integral,
    lll_reduce,
    mat_mul,
    row_span_contains,
    rational_rank,
    solve_rational,
    solve_rational_columns,
    transpose,
    _integral_gso,
)

from oracles import (
    brute_short_vectors,
    brute_short_vectors_big,
    cramer_solve,
    fraction_short_vectors,
    gram_schmidt,
    is_lll_reduced,
    leading_minors,
    lll_full_recompute,
    leibniz_det,
    minor_rank,
    random_spd_gram,
    random_unimodular,
)

A2 = ((2, 1), (1, 2))


class TestHnf:
    def test_identity_fixed(self):
        H, U = hnf(identity(3))
        assert H == identity(3)
        assert U == identity(3)

    def test_hand_reduced_example(self):
        H, U = hnf(((2, 0), (0, 2), (1, 1)))
        assert H == ((1, 1), (0, 2))
        assert is_unimodular(U)
        stacked = H + ((0, 0),)
        assert mat_mul(U, ((2, 0), (0, 2), (1, 1))) == stacked

    def test_zero_rows_trimmed(self):
        H, U = hnf(((0, 0),))
        assert H == ()
        assert U == ((1,),)

    def test_rank_one_gcd(self):
        H, _ = hnf(((4, 6), (2, 3)))
        assert H == ((2, 3),)

    def test_idempotent_and_canonical(self):
        rng = random.Random(7)
        for _ in range(50):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            M = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m))
            H, U = hnf(M)
            assert is_unimodular(U)
            assert mat_mul(U, M) == H + tuple((0,) * n for _ in range(m - len(H)))
            assert hnf(H)[0] == H
            # same span under a random unimodular regeneration
            W = random_unimodular(rng, m)
            assert hnf(mat_mul(W, M))[0] == H

    def test_span_membership(self):
        H, _ = hnf(((2, 0), (0, 2), (1, 1)))
        assert row_span_contains(H, (1, 1))
        assert row_span_contains(H, (2, 0))
        assert row_span_contains(H, (0, 0))
        assert not row_span_contains(H, (1, 0))

    def test_left_kernel_saturated(self):
        M = ((2, 4), (1, 2), (3, 6))
        K = left_integer_kernel(M)
        assert len(K) == 2
        for row in K:
            assert all(sum(row[i] * M[i][j] for i in range(3)) == 0 for j in range(2))
        # (1, -2, 0) kills M and must lie in the kernel span
        assert row_span_contains(hnf(K)[0], (1, -2, 0))


class TestLll:
    def test_identity_fixed_point(self):
        G, U = lll_reduce(identity(3))
        assert G == as_fraction_matrix(identity(3))
        assert U == identity(3)

    def test_two_dim_example(self):
        G, U = lll_reduce(((4, 2), (2, 2)))
        assert det(G) == 4
        assert max(G[i][i] for i in range(2)) <= 4
        assert is_lll_reduced(G)
        assert is_unimodular(U)
        assert G == as_fraction_matrix(((2, 0), (0, 2)))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            lll_reduce(((1, 2), (2, 1)))

    def test_random_congruence_class(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 5)
            G0 = random_spd_gram(rng, n)
            W = random_unimodular(rng, n)
            G = mat_mul(mat_mul(W, G0), transpose(W))
            Gred, U = lll_reduce(G)
            assert is_unimodular(U)
            assert Gred == mat_mul(mat_mul(U, as_fraction_matrix(G)), transpose(U))
            assert det(Gred) == det(G)
            assert is_lll_reduced(Gred)
            # the integer core returns the Gram-Schmidt data of what it reduced
            R, V, d, lam = lll_integral(G)
            assert (R, V) == (Gred, U)
            B, mu = gram_schmidt(R)
            for k in range(n):
                assert d[k + 1] == d[k] * B[k]
                assert all(lam[k][j] == d[j + 1] * mu[k][j] for j in range(k))


class TestLllAgainstOracle:
    """The integral, incremental LLL against a full rational recompute."""

    def test_same_reduction_and_transform(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(1, 8)
            G = random_spd_gram(rng, n, spread=rng.choice((1, 2, 3)))
            W = random_unimodular(rng, n, max_abs=4, steps=20)
            G = mat_mul(mat_mul(W, G), transpose(W))
            if rng.random() < 0.5:
                # rows scaled by different denominators: D G D stays SPD
                dens = [rng.choice((1, 2, 3, 5, 6)) for _ in range(n)]
                G = tuple(tuple(Fraction(x, dens[i] * dens[j]) for j, x in enumerate(row))
                          for i, row in enumerate(G))
            Gred, U = lll_reduce(G)
            assert (Gred, U) == lll_full_recompute(G)
            assert all(isinstance(x, Fraction) for row in Gred for x in row)
            assert all(type(x) is int for row in U for x in row)

    def test_same_on_boundary_cases(self):
        # mu = +-1/2 exactly (q = floor(mu + 1/2) rounds 1/2 up), and the
        # Lovasz test at equality: 100 * d2 * d0 == 99 * d1^2 - 100 * lam^2
        # for ((10, lam), (lam, 99/10)), also after reducing lam = 5 to -5
        cases = [((2, 1), (1, 2)), ((2, -1), (-1, 2)), ((4, 2, 2), (2, 4, 2), (2, 2, 4))]
        cases += [((10, lam), (lam, Fraction(99, 10))) for lam in (0, 3, -4, 5)]
        rng = random.Random(43)
        for G in list(cases):
            W = random_unimodular(rng, len(G))
            cases.append(mat_mul(mat_mul(W, G), transpose(W)))
        for G in cases:
            assert lll_reduce(G) == lll_full_recompute(G)

    def test_not_positive_definite_reported_alike(self):
        cases = (
            ((1, 2), (2, 1)),
            ((0,),),
            ((1, 1), (1, 1)),
            ((1, 0, 0), (0, -1, 0), (0, 0, 1)),
            ((Fraction(1, 2), 1), (1, Fraction(1, 3))),
            ((4, 2, 2), (2, 2, 1), (2, 1, Fraction(1, 2))),
        )
        for G in cases:
            with pytest.raises(NotPositiveDefiniteError) as new:
                lll_reduce(G)
            with pytest.raises(NotPositiveDefiniteError) as old:
                lll_full_recompute(G)
            assert str(new.value) == str(old.value)


class TestEnumeration:
    def test_unit_lattice_bound_one(self):
        assert enumerate_short_vectors(identity(2), 1) == ((0, 1), (1, 0))

    def test_unit_lattice_bound_two(self):
        vs = enumerate_short_vectors(identity(2), 2)
        assert set(vs) == {(1, 0), (0, 1), (1, 1), (1, -1)}
        assert vs == ((0, 1), (1, 0), (1, -1), (1, 1))  # (norm, lex) order

    def test_a2_roots(self):
        vs = enumerate_short_vectors(A2, 2)
        assert vs == ((0, 1), (1, -1), (1, 0))
        assert all(gram_value(as_fraction_matrix(A2), v, v) == 2 for v in vs)

    def test_a2_below_minimum(self):
        assert enumerate_short_vectors(A2, 1) == ()

    def test_fractional_bound(self):
        assert enumerate_short_vectors(identity(2), Fraction(1, 2)) == ()

    def test_sign_convention(self):
        for v in enumerate_short_vectors(A2, 8):
            first = next(x for x in v if x)
            assert first > 0

    def test_against_exhaustive_oracle(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(1, 4)
            G = random_spd_gram(rng, n)
            bound = rng.randint(1, 3) * max(G[i][i] for i in range(n))
            assert list(enumerate_short_vectors(G, bound)) == brute_short_vectors(G, bound)

    def test_unimodular_invariance(self):
        rng = random.Random(31)
        Gf = as_fraction_matrix(A2)
        base = enumerate_short_vectors(A2, 6)
        base_norms = sorted(gram_value(Gf, v, v) for v in base)
        for _ in range(20):
            W = random_unimodular(rng, 2)
            G2 = mat_mul(mat_mul(W, A2), transpose(W))
            other = enumerate_short_vectors(G2, 6)
            G2f = as_fraction_matrix(G2)
            assert len(other) == len(base)
            assert sorted(gram_value(G2f, v, v) for v in other) == base_norms


def rational_congruent(rng, G):
    """D*G*D for a random diagonal D of unit fractions: mixed denominators."""
    q = [rng.choice((1, 1, 2, 3)) for _ in G]
    return tuple(tuple(Fraction(x, q[i] * q[j]) for j, x in enumerate(row))
                 for i, row in enumerate(G))


class TestEnumerationAgainstOracle:
    """The integral enumerator against the Fraction one and the box searches."""

    def cases(self, seed):
        """(G, attained, below) for ranks 1-8: a norm that some vector has,
        and a bound under it by half the norms' spacing 1/s."""
        rng = random.Random(seed)
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 3, 4, 5, 6, 7, 8):
            G = random_spd_gram(rng, n, spread=1 if n > 5 else 2)
            if rng.random() < 0.5:
                G = rational_congruent(rng, G)
            s, _ = integer_scaled((G,))
            R, _ = lll_full_recompute(G)
            attained = max(R[i][i] for i in range(n))  # the pipeline's bound
            yield G, attained, attained - Fraction(1, 2 * s)

    def test_same_tuples_as_fraction_enumerator(self):
        for G, *bounds in self.cases(41):
            for bound in bounds:
                expected = fraction_short_vectors(G, bound)
                assert enumerate_short_vectors(G, bound) == expected
                assert enumerate_short_vectors(G, bound, lll_reduce(G)) == expected
                # any basis may stand in for the reduction, the input's own too
                assert enumerate_short_vectors(G, bound, (G, identity(len(G)))) == expected

    def test_same_tuples_as_box_search(self):
        for G, *bounds in self.cases(43):
            for bound in bounds:
                got = enumerate_short_vectors(G, bound)
                if len(G) <= 5:
                    assert got == tuple(brute_short_vectors(G, bound))
                elif all(Fraction(x).denominator == 1 for row in G for x in row):
                    # integer norms: the floor of the bound admits the same ball
                    assert got == tuple(brute_short_vectors_big(G, math.floor(bound)))

    def test_bound_just_below_drops_the_shell(self):
        for G, attained, below in self.cases(47):
            Gf = as_fraction_matrix(G)
            upto = enumerate_short_vectors(G, attained)
            inside = tuple(v for v in upto if gram_value(Gf, v, v) < attained)
            assert len(inside) < len(upto)
            assert enumerate_short_vectors(G, below) == inside


class TestSolveRational:
    def test_identity(self):
        assert solve_rational(identity(3), (5, -1, 2)) == (5, -1, 2)

    def test_hand_example(self):
        assert solve_rational(((2, 1), (1, 1)), (3, 2)) == (1, 1)

    def test_inconsistent(self):
        with pytest.raises(NoSolutionError):
            solve_rational(((1, 1), (1, 1)), (0, 1))

    def test_underdetermined_free_vars_zero(self):
        assert solve_rational(((1, 1),), (1,)) == (1, 0)

    def test_random_square_systems(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 4)
            M = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
            x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
            b = tuple(sum(M[i][j] * x[j] for j in range(n)) for i in range(n))
            got = solve_rational(M, b)
            assert tuple(sum(M[i][j] * got[j] for j in range(n)) for i in range(n)) == b


class TestPositiveDefiniteness:
    def test_cholesky_agrees_with_minors(self):
        # the Gram-Schmidt route and the minor route must agree
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(1, 5)
            if rng.random() < 0.5:
                G = random_spd_gram(rng, n)
            else:
                G = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1):
                        G[i][j] = G[j][i] = rng.randint(-4, 4)
                G = tuple(tuple(row) for row in G)
            by_minors = first_nonpositive_minor(G) is None
            try:
                scale, (A,) = integer_scaled((G,))
                _integral_gso(A, scale)
                by_gso = True
            except NotPositiveDefiniteError:
                by_gso = False
            assert by_gso == by_minors
            assert is_positive_definite(G) == by_minors

    def test_inverse_roundtrip(self):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(1, 4)
            G = random_spd_gram(rng, n)
            Gf = as_fraction_matrix(G)
            assert mat_mul(Gf, inverse(Gf)) == as_fraction_matrix(identity(n))


def random_rational_matrix(rng, m, n, rank=None):
    """Random rational m x n matrix; with rank given, a product of that rank."""
    def q():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))

    if rank is None:
        return tuple(tuple(q() for _ in range(n)) for _ in range(m))
    L = [[q() for _ in range(rank)] for _ in range(m)]
    R = [[q() for _ in range(n)] for _ in range(rank)]
    return tuple(tuple(sum(L[i][k] * R[k][j] for k in range(rank)) for j in range(n))
                 for i in range(m))


class TestEliminationAgainstOracle:
    """The Bareiss routine against the permutation expansion and Cramer's rule."""

    def square_cases(self, seed):
        rng = random.Random(seed)
        for t in range(120):
            n = rng.randint(0, 5)
            kind = t % 3
            if kind == 0:
                M = random_rational_matrix(rng, n, n)
            elif kind == 1:
                A = random_rational_matrix(rng, n, n)
                M = tuple(tuple(A[i][j] + A[j][i] for j in range(n)) for i in range(n))
            else:
                M = random_rational_matrix(rng, n, n, rank=rng.randint(0, max(n - 1, 0)))
            yield M

    def test_det_and_first_nonpositive_minor(self):
        for M in self.square_cases(41):
            assert det(M) == leibniz_det(M)
            minors = leading_minors(M)
            expected = next((k for k, D in enumerate(minors, 1) if D <= 0), None)
            assert first_nonpositive_minor(M) == expected

    def test_minors_of_positive_definite_and_perturbed(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(1, 5)
            G = [list(row) for row in random_spd_gram(rng, n)]
            i = rng.randrange(n)
            G[i][i] -= rng.randint(0, 6)
            minors = leading_minors(G)
            expected = next((k for k, D in enumerate(minors, 1) if D <= 0), None)
            assert first_nonpositive_minor(G) == expected

    def test_rank_and_inverse(self):
        for M in self.square_cases(47):
            n = len(M)
            assert rational_rank(M) == minor_rank(M)
            D = leibniz_det(M)
            if D == 0:
                with pytest.raises(InvalidInputError):
                    inverse(M)
                continue
            # adjugate: (M^-1)_ij = (-1)^(i+j) det(M without row j, column i) / det M
            expected = tuple(
                tuple((-1) ** (i + j) * leibniz_det(
                    [[M[r][c] for c in range(n) if c != i] for r in range(n) if r != j]) / D
                      for j in range(n))
                for i in range(n))
            assert inverse(M) == expected

    def test_solve_against_cramer(self):
        rng = random.Random(59)
        for t in range(80):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rank = None if t % 2 else rng.randint(0, min(m, n))
            M = random_rational_matrix(rng, m, n, rank)
            assert rational_rank(M) == minor_rank(M)
            bs = []
            for k in range(3):
                if k < 2:  # consistent by construction
                    x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    bs.append(tuple(sum(M[i][j] * x[j] for j in range(n)) for i in range(m)))
                else:  # usually inconsistent when M is rank-deficient
                    bs.append(tuple(Fraction(rng.randint(-4, 4)) for _ in range(m)))
            expected = [cramer_solve(M, b) for b in bs]
            for b, want in zip(bs, expected):
                if want is None:
                    with pytest.raises(NoSolutionError):
                        solve_rational(M, b)
                else:
                    assert solve_rational(M, b) == want
            if None in expected:
                with pytest.raises(NoSolutionError):
                    solve_rational_columns(M, bs)
            else:
                assert solve_rational_columns(M, bs) == tuple(expected)
            assert solve_rational_columns(M, bs[:2]) == tuple(expected[:2])
