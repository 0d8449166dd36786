"""Isometry groups and the factorization of Aut over the blocks."""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from latdec.aut import (
    IsometryGroup,
    _perm_group_order,
    aut_group,
    group_closure,
    grouped_decomposition,
    is_isometric,
    isometry_witness,
    verify_aut_factorization,
)
from latdec.errors import RankTooLargeError
from latdec.lattice import ZLattice
from latdec.linalg import (
    as_fraction_matrix,
    enumerate_short_vectors,
    gram_value,
    is_unimodular,
    lll_reduce,
    mat_mul,
    transpose,
)

from oracles import closure_order, isometry_elements, perm_closure, random_unimodular

A2 = ((2, 1), (1, 2))
DET5 = ((2, 1), (1, 3))
A3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
D4 = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))


def e8():
    G = [[2 * (i == j) for j in range(8)] for i in range(8)]
    for a, b in ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)):
        G[a - 1][b - 1] = G[b - 1][a - 1] = -1
    return tuple(map(tuple, G))


def eye(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def diag_sum(grams):
    n = sum(len(g) for g in grams)
    out = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for g in grams:
        for i, row in enumerate(g):
            for j, x in enumerate(row):
                out[off + i][off + j] = Fraction(x)
        off += len(g)
    return tuple(tuple(row) for row in out)


def conjugate(G, U):
    return mat_mul(mat_mul(U, G), transpose(U))


class TestAutGroup:
    def test_rank_one(self):
        g = aut_group(ZLattice(((2,),)))
        assert g.order == 2
        assert g.generators == (((-1,),),)

    def test_signed_permutations(self):
        for n in (1, 2, 3, 4):
            g = aut_group(ZLattice(eye(n)))
            assert g.order == 2 ** n * math.factorial(n)

    def test_hexagonal(self):
        assert aut_group(ZLattice(A2)).order == 12
        # independent count: isometries correspond to ordered pairs of
        # norm-2 vectors with inner product 1
        roots = []
        for v in enumerate_short_vectors(A2, 2):
            roots.append(v)
            roots.append(tuple(-x for x in v))
        pairs = sum(
            1 for u in roots for w in roots if gram_value(A2, u, w) == 1
        )
        assert pairs == 12

    def test_mixed_block_diagonal(self):
        assert aut_group(ZLattice(diag_sum([A2, ((2,),)]))).order == 24

    def test_generators_are_isometries_and_generate(self):
        for G in (A2, diag_sum([A2, ((2,),)]), eye(3)):
            L = ZLattice(G)
            g = aut_group(L)
            Gf = as_fraction_matrix(G)
            for X in g.generators:
                assert is_unimodular(X)
                XF = as_fraction_matrix(X)
                assert mat_mul(mat_mul(XF, Gf), transpose(XF)) == Gf
            assert closure_order(g.generators) == g.order
            assert len(group_closure(g.generators)) == g.order

    def test_conjugation_invariance(self):
        rng = random.Random(31)
        G = diag_sum([A2, ((3,),)])
        U = random_unimodular(rng, 3)
        assert aut_group(ZLattice(conjugate(G, U))).order == aut_group(ZLattice(G)).order

    def test_rational_gram_same_group(self):
        # the candidate table is scaled to integers; the target Gram must be too
        rng = random.Random(37)
        for G in (A2, diag_sum([A2, ((2,),)]), diag_sum([DET5, ((1,),)])):
            for scale in (Fraction(1, 3), Fraction(5, 2)):
                Gs = conjugate(tuple(tuple(scale * x for x in row) for row in G),
                               random_unimodular(rng, len(G)))
                assert aut_group(ZLattice(Gs)).order == aut_group(ZLattice(G)).order
                assert isometry_witness(ZLattice(Gs), ZLattice(G)) is None
                W = isometry_witness(ZLattice(Gs), ZLattice(
                    tuple(tuple(scale * x for x in row) for row in G)))
                WF = as_fraction_matrix(W)
                assert mat_mul(mat_mul(WF, G), transpose(WF)) == tuple(
                    tuple(x / scale for x in row) for row in Gs)

    def test_against_full_enumeration_oracle(self):
        # the generators must generate exactly the group the oracle lists
        rng = random.Random(55)
        pool = (((1,),), ((2,),), ((3,),), A2, DET5, A3, D4)
        for k in range(14):
            blocks = []
            while sum(map(len, blocks)) < rng.randint(2, 5):
                g = rng.choice(pool)
                if sum(map(len, blocks)) + len(g) <= 5:
                    blocks.append(g)
            G = diag_sum(blocks)
            if k % 3 == 2:
                G = tuple(tuple(Fraction(2, 3) * x for x in row) for row in G)
            G = conjugate(G, random_unimodular(rng, len(G)))
            A = aut_group(ZLattice(G))
            elements = isometry_elements(G)
            assert A.order == len(elements)
            assert group_closure(A.generators) == elements
        # long blocks: the shell of a short level is a small part of the ball
        for blocks, order in (([((1,),)] * 3 + [((12,),)], 96),
                              ([A2, ((15,),)], 24),
                              ([((1,),), ((5,),), ((5,),)], 16)):
            G = diag_sum(blocks)
            G = conjugate(G, random_unimodular(rng, len(G)))
            A = aut_group(ZLattice(G))
            elements = isometry_elements(G)
            assert A.order == len(elements) == order
            assert group_closure(A.generators) == elements

    def test_exact_orders_beyond_closure(self):
        # both orders exceed the cap of an element-by-element closure
        rng = random.Random(8)
        G = e8()
        for L in (ZLattice(G), ZLattice(conjugate(G, random_unimodular(rng, 8)))):
            assert aut_group(L).order == 696_729_600
        assert aut_group(ZLattice(eye(8))).order == 2 ** 8 * math.factorial(8)

    def test_long_block_in_time_and_memory(self):
        # Z^6 + <12>: the ball up to norm 12 holds about 10^4 candidates, but
        # six levels search only the 12 vectors of norm 1
        G = conjugate(diag_sum([eye(6), ((12,),)]), random_unimodular(random.Random(3), 7))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            order = aut_group(ZLattice(G)).order
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert order == 2 ** 6 * math.factorial(6) * 2
        assert elapsed < 5.0
        assert peak < 64 * 2 ** 20

    def test_rank_guard(self, monkeypatch):
        with pytest.raises(RankTooLargeError):
            aut_group(ZLattice(eye(9)))
        monkeypatch.setenv("LATDEC_MAX_RANK", "2")
        with pytest.raises(RankTooLargeError):
            aut_group(ZLattice(eye(3)))
        assert aut_group(ZLattice(eye(3)), max_rank=3).order == 48


class TestIsometric:
    def test_congruent_by_construction(self):
        rng = random.Random(12)
        for _ in range(5):
            U = random_unimodular(rng, 2)
            L1 = ZLattice(conjugate(((1, 0), (0, 1)), U))
            L2 = ZLattice(((1, 0), (0, 1)))
            W = isometry_witness(L1, L2)
            assert W is not None
            WF = as_fraction_matrix(W)
            assert mat_mul(mat_mul(WF, L2.gram), transpose(WF)) == L1.gram

    def test_congruent_with_different_reductions(self):
        # the two sides reduce to different Grams, so comparing their norm
        # lists checks that each side's vectors are measured by its own Gram
        rng = random.Random(17)
        differ = 0
        for G in (A2, ((3, 1, 1), (1, 4, 2), (1, 2, 5)), diag_sum([A2, ((3,),)]),
                  ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 3), 1))):
            for _ in range(3):
                L1 = ZLattice(conjugate(G, random_unimodular(rng, len(G))))
                L2 = ZLattice(G)
                differ += lll_reduce(L1.gram)[0] != lll_reduce(L2.gram)[0]
                WF = as_fraction_matrix(isometry_witness(L1, L2))
                assert mat_mul(mat_mul(WF, L2.gram), transpose(WF)) == L1.gram
        assert differ
        # two scramblings of one lattice with a long block
        G = diag_sum([((1,),)] * 3 + [((12,),)])
        L1, L2 = (ZLattice(conjugate(G, random_unimodular(rng, 4))) for _ in range(2))
        WF = as_fraction_matrix(isometry_witness(L1, L2))
        assert mat_mul(mat_mul(WF, L2.gram), transpose(WF)) == L1.gram

    def test_rows_come_from_the_second_lattice(self):
        # the rows of W are vectors of the second lattice: on these pairs
        # the first lattice's short vectors do not contain them
        for G, U in ((((7, 4, 3, 0), (4, 7, 3, -2), (3, 3, 6, 1), (0, -2, 1, 6)),
                      ((-1, 1, 1, 0), (1, 0, -1, 0), (-1, 1, 0, 0), (0, -1, 0, 1))),
                     (((3, -2, 3, -2), (-2, 7, -5, -2), (3, -5, 8, 1), (-2, -2, 1, 11)),
                      ((0, 1, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0), (-1, 0, -1, 0)))):
            L1, L2 = ZLattice(conjugate(G, U)), ZLattice(G)
            WF = as_fraction_matrix(isometry_witness(L1, L2))
            assert mat_mul(mat_mul(WF, L2.gram), transpose(WF)) == L1.gram

    def test_different_determinants(self):
        assert is_isometric(ZLattice(((2,),)), ZLattice(((4,),))) is False

    def test_hexagonal_vs_rescaled_square(self):
        # same minimum, different determinant and root count
        assert is_isometric(ZLattice(A2), ZLattice(((2, 0), (0, 2)))) is False

    def test_equal_determinant_different_norms(self):
        assert is_isometric(
            ZLattice(((2, 0), (0, 2))), ZLattice(((1, 0), (0, 4)))) is False
        assert isometry_witness(
            ZLattice(((2, 0), (0, 6))), ZLattice(((3, 0), (0, 4)))) is None

    def test_rank_mismatch(self):
        assert is_isometric(ZLattice(((1,),)), ZLattice(eye(2))) is False


class TestGroupedDecomposition:
    def test_cubic(self):
        classes = grouped_decomposition(ZLattice(eye(3)))
        assert len(classes) == 1
        assert classes[0][1] == 3

    def test_mixed(self):
        classes = grouped_decomposition(ZLattice(diag_sum([A2, ((2,),), ((2,),)])))
        by_mult = {cls[1]: cls[0].gram for cls in classes}
        assert set(by_mult) == {1, 2}
        assert by_mult[2] == ((2,),)
        assert by_mult[1] == A2

    def test_single_class_of_one(self):
        classes = grouped_decomposition(ZLattice(A2))
        assert len(classes) == 1
        assert classes[0][1] == 1


class TestFactorization:
    def test_hypercubic(self):
        for n in (1, 2, 3, 4):
            L = ZLattice(eye(n))
            assert verify_aut_factorization(L, aut_group(L)) is True

    def test_mixed_blocks(self):
        L = ZLattice(diag_sum([A2, ((2,),)]))
        assert verify_aut_factorization(L, aut_group(L)) is True

    def test_single_block(self):
        assert verify_aut_factorization(ZLattice(A2), aut_group(ZLattice(A2))) is True

    def test_fuzzed_presentations(self):
        rng = random.Random(90210)
        pool = (((1,),), ((2,),), ((3,),), A2, DET5)
        for _ in range(5):
            grams = []
            counts = {}
            total = 0
            while total < 6:
                g = pool[rng.randrange(len(pool))]
                if total + len(g) > 6:
                    break
                if counts.get(g, 0) >= 3:
                    continue
                counts[g] = counts.get(g, 0) + 1
                grams.append(g)
                total += len(g)
            G = diag_sum(grams)
            U = random_unimodular(rng, total)
            L = ZLattice(conjugate(G, U))
            assert verify_aut_factorization(L, aut_group(L)) is True

    def test_rejects_a_proper_subgroup_of_the_right_order(self):
        # the claimed order is |Aut(Z^3)| and every generator permutes the
        # three blocks, but only through A_3: the claim generates 24 elements
        signs = [tuple(tuple(-1 if i == j == k else int(i == j) for j in range(3))
                       for i in range(3)) for k in range(3)]
        cycle = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
        claim = IsometryGroup(tuple(signs) + (cycle,), 48)
        assert len(group_closure(claim.generators)) == 24
        assert verify_aut_factorization(ZLattice(eye(3)), claim) is False

    def test_rejects_a_wrong_order(self):
        L = ZLattice(diag_sum([A2, ((2,),)]))
        A = aut_group(L)
        for order in (A.order // 2, 2 * A.order):
            assert verify_aut_factorization(L, IsometryGroup(A.generators, order)) is False

    def test_rejects_a_generator_that_is_not_an_isometry(self):
        L = ZLattice(A2)
        A = aut_group(L)
        for bad in (((1, 1), (0, 1)), ((Fraction(1, 2), 0), (0, 2)), ((1, 0, 0),)):
            claim = IsometryGroup(A.generators + (bad,), A.order)
            assert verify_aut_factorization(L, claim) is False

    def test_many_blocks_audit_quickly(self):
        # check (d) on S_10 is an order computation, not a list of 10! elements
        L = ZLattice(eye(10))
        A = aut_group(L, max_rank=10)
        start = time.perf_counter()
        assert verify_aut_factorization(L, A, max_rank=10) is True
        assert time.perf_counter() - start < 1.0


class TestPermGroupOrder:
    def test_against_closure_oracle(self):
        rng = random.Random(271)
        for _ in range(300):
            e = rng.randint(0, 6)
            gens = []
            for _ in range(rng.randint(0, 3)):
                p = list(range(e))
                if rng.random() < 0.5:
                    rng.shuffle(p)
                elif e >= 2:
                    a, b = rng.sample(range(e), 2)
                    p[a], p[b] = p[b], p[a]
                gens.append(tuple(p))
            assert _perm_group_order(gens, e) == len(perm_closure(gens, e))

    def test_symmetric_and_alternating_groups(self):
        for e in (3, 8, 12):
            shift = tuple(range(1, e)) + (0,)
            swap = (1, 0) + tuple(range(2, e))
            assert _perm_group_order([shift, swap], e) == math.factorial(e)
            three = (1, 2, 0) + tuple(range(3, e))
            shifted = tuple(range(1, e)) + (0,) if e % 2 else (0,) + tuple(range(2, e)) + (1,)
            assert _perm_group_order([three, shifted], e) == math.factorial(e) // 2
