"""Orthogonal decomposition of definite Z-lattices."""

import random
from fractions import Fraction

import pytest

from latdec import lattice, linalg
from latdec.errors import (
    IncompleteDecompositionError,
    InvalidInputError,
    NotPositiveDefiniteError,
    RankTooLargeError,
)
from latdec.lattice import (
    Block,
    OrthoDecomposition,
    ZLattice,
    audit_blocks,
    decompose,
    is_finest,
    is_indecomposable,
    is_primitive,
    merge_blocks,
    restrict_gram,
    split,
    verify_decomposition,
)
from latdec.linalg import (
    as_fraction_matrix,
    enumerate_short_vectors,
    sphere_point,
    gram_value,
    hnf_basis,
    inverse,
    mat_mul,
    transpose,
    vec_mat,
)

from oracles import (
    brute_short_vectors,
    lll_full_recompute,
    oracle_blocks,
    random_spd_gram,
    random_unimodular,
    splits_off,
)

I2 = ((1, 0), (0, 1))
I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
A2 = ((2, 1), (1, 2))

# Indecomposable test blocks: rank-1 grams trivially, A2 and the det-5
# form because neither has vectors of norm 1 (a rank-2 split would force
# a diag(1, d) presentation).
PLANT_POOL = (
    ((1,),),
    ((2,),),
    ((3,),),
    A2,
    ((2, 1), (1, 3)),
)


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


def to_int_rows(rows):
    out = []
    for r in rows:
        assert all(Fraction(x).denominator == 1 for x in r)
        out.append(tuple(int(x) for x in r))
    return tuple(out)


def transport_spans(spans, U):
    """Planted row spans, re-expressed in the conjugated basis."""
    U_inv = inverse(U)
    return frozenset(
        hnf_basis(to_int_rows(vec_mat(r, U_inv) for r in span))
        for span in spans
    )


class TestZLattice:
    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            ZLattice(((1, 2), (0, 1)))

    def test_rejects_indefinite_with_minor_index(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            ZLattice(((1, 2), (2, 1)))
        assert exc.value.minor_index == 2

    def test_rejects_nonpositive_first_entry(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            ZLattice(((0, 0), (0, 1)))
        assert exc.value.minor_index == 1

    def test_inner_and_norm(self):
        L = ZLattice(A2)
        assert L.rank == 2
        assert L.inner((1, 0), (0, 1)) == 1
        assert L.norm((1, 1)) == 6


class TestIsPrimitive:
    def test_unit_vector_in_z2(self):
        assert is_primitive(ZLattice(I2), (1, 0)) is True

    def test_diagonal_vector_in_z2_splits(self):
        assert is_primitive(ZLattice(I2), (1, 1)) is False

    def test_roots_of_a2(self):
        L = ZLattice(A2)
        for root in enumerate_short_vectors(L.gram, 2):
            assert L.norm(root) == 2
            assert is_primitive(L, root) is True

    def test_vector_longer_than_the_basis(self):
        # norm 6; no splitting exists because A2 has no vectors of norm 4
        assert is_primitive(ZLattice(A2), (1, 1)) is True

    def test_against_fraction_witness_search(self):
        # random integer and rational Grams; each ball vector checked
        # against a direct search for an orthogonal splitting
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 4)
            G = random_spd_gram(rng, n, spread=1)
            U = random_unimodular(rng, n, max_abs=2, steps=5)
            dens = [rng.choice((1, 1, 2, 3, 5)) for _ in range(n)]
            G = tuple(tuple(Fraction(x, dens[i] * dens[j]) for j, x in enumerate(row))
                      for i, row in enumerate(conjugate(G, U)))
            L = ZLattice(G)
            reduced = lll_full_recompute(G)[0]
            bound = max(reduced[i][i] for i in range(n))
            S = tuple(brute_short_vectors(G, bound))
            for x in S + tuple(tuple(-a for a in v) for v in S):
                expected = not splits_off(
                    x, S, L.norm, lambda u, v: (gram_value(L.gram, u, v),))
                assert is_primitive(L, x) is expected


THIRD = Fraction(1, 3)
# (Gram, planted block spans): diag(1/3, 1/5), A2 + <1/2> and A2/3 + <1/7> + <1>
RATIONAL_PLANTED = (
    (((THIRD, 0), (0, Fraction(1, 5))), (((1, 0),), ((0, 1),))),
    (diag_sum([A2, ((Fraction(1, 2),),)]), (((1, 0, 0), (0, 1, 0)), ((0, 0, 1),))),
    (diag_sum([((2 * THIRD, THIRD), (THIRD, 2 * THIRD)), ((Fraction(1, 7),),), ((1,),)]),
     (((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0),), ((0, 0, 0, 1),))),
)


class TestDecomposeRational:
    def test_planted_rational_grams(self):
        rng = random.Random(13)
        for G, spans in RATIONAL_PLANTED:
            assert decompose(ZLattice(G)).bases() == frozenset(spans)
            for _ in range(5):
                U = random_unimodular(rng, len(G))
                L = ZLattice(conjugate(G, U))
                D = decompose(L)
                assert D.bases() == transport_spans(spans, U)
                assert verify_decomposition(L, D)

    def test_against_oracle_pipeline(self):
        rng = random.Random(17)
        for _ in range(25):
            blocks, rank = [], rng.randint(1, 4)
            while sum(map(len, blocks)) < rank:
                blocks.append(PLANT_POOL[rng.randrange(len(PLANT_POOL))])
            G = diag_sum(blocks)
            m = len(G)
            dens = [rng.choice((1, 2, 3)) for _ in range(m)]
            G = tuple(tuple(x / (dens[i] * dens[j]) for j, x in enumerate(row))
                      for i, row in enumerate(G))
            G = conjugate(G, random_unimodular(rng, m, max_abs=2, steps=5))
            Gf = as_fraction_matrix(G)
            expected = oracle_blocks(G, lambda u, v: (gram_value(Gf, u, v),))
            assert decompose(ZLattice(G)).bases() == expected


class TestMergeBlocks:
    def test_joins_coupled_spans_and_sorts(self):
        spans = (((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),))

        def coupled(r, s):  # links e1 and e3 only
            return r[0] * s[2] + r[2] * s[0]

        assert merge_blocks(3, spans, coupled) == (
            ((0, 1, 0),), ((1, 0, 0), (0, 0, 1)))

    def test_uncoupled_spans_are_only_sorted(self):
        assert merge_blocks(2, (((1, 0),), ((0, 1),)), lambda r, s: 0) == (
            ((0, 1),), ((1, 0),))

    def test_joined_span_is_in_hnf(self):
        assert merge_blocks(2, (((1, 1),), ((0, -1),)), lambda r, s: 1) == (
            ((1, 0), (0, 1)),)

    def test_spans_must_stack_to_a_unimodular_basis(self):
        with pytest.raises(IncompleteDecompositionError):
            merge_blocks(2, (((2, 0),), ((0, 1),)), lambda r, s: 0)
        with pytest.raises(IncompleteDecompositionError):
            merge_blocks(2, (((1, 0),),), lambda r, s: 0)


class TestDecompose:
    def test_identity_rank3(self):
        D = decompose(ZLattice(I3))
        assert len(D.blocks) == 3
        assert D.bases() == {
            ((1, 0, 0),),
            ((0, 1, 0),),
            ((0, 0, 1),),
        }
        for b in D.blocks:
            assert b.gram == ((1,),)

    def test_a2_is_one_block(self):
        # all six roots pair nontrivially, so the component graph is complete
        roots = enumerate_short_vectors(A2, 2)
        assert all(
            gram_value(A2, u, v) != 0 for u in roots for v in roots
        )
        D = decompose(ZLattice(A2))
        assert len(D.blocks) == 1
        assert D.blocks[0].basis == ((1, 0), (0, 1))
        assert D.blocks[0].gram == A2

    def test_block_diagonal_split(self):
        G = diag_sum([A2, ((2,),)])
        D = decompose(ZLattice(G))
        assert D.bases() == {
            ((1, 0, 0), (0, 1, 0)),
            ((0, 0, 1),),
        }
        # sorted by rank first
        assert D.blocks[0].rank == 1
        assert D.blocks[0].gram == ((2,),)
        assert D.blocks[1].gram == A2

    def test_planted_conjugate_recovers_spans(self):
        rng = random.Random(7)
        G = diag_sum([A2, ((2,),)])
        U = random_unimodular(rng, 3)
        D = decompose(ZLattice(conjugate(G, U)))
        planted = [((1, 0, 0), (0, 1, 0)), ((0, 0, 1),)]
        assert D.bases() == transport_spans(planted, U)

    def test_planted_fuzz(self):
        rng = random.Random(20260817)
        for _ in range(30):
            k = rng.randrange(1, 4)
            grams, spans, off = [], [], 0
            while len(grams) < k:
                g = PLANT_POOL[rng.randrange(len(PLANT_POOL))]
                if off + len(g) > 6:
                    break
                grams.append(g)
                spans.append(tuple(
                    tuple(1 if c == off + i else 0 for c in range(6))
                    for i in range(len(g))
                ))
                off += len(g)
            n = off
            spans = [tuple(r[:n] for r in s) for s in spans]
            G = diag_sum(grams)
            U = random_unimodular(rng, n)
            L = ZLattice(conjugate(G, U))
            D = decompose(L)
            assert D.bases() == transport_spans(spans, U)
            assert verify_decomposition(L, D)

    def test_split_step_on_an_unreduced_basis(self, monkeypatch):
        # LLL leaves no reduced basis vector of these sums decomposable, so
        # the pipeline runs on the scrambled basis itself to split vectors
        def unreduced(A, scale=1):
            return (A, linalg.identity(len(A)), *linalg._integral_gso(A, scale))

        found = []

        def counted(*args):
            u, nodes = sphere_point(*args)
            found.append(u is not None)
            return u, nodes

        monkeypatch.setattr(lattice, "lll_integral", unreduced)
        monkeypatch.setattr(lattice, "sphere_point", counted)
        rng = random.Random(104)
        for _ in range(40):
            blocks = []
            while sum(map(len, blocks)) < rng.randint(2, 6):
                blocks.append(PLANT_POOL[rng.randrange(len(PLANT_POOL))])
            U = random_unimodular(rng, sum(map(len, blocks)), max_abs=2, steps=8)
            L = ZLattice(conjugate(diag_sum(blocks), U))
            spans, off = [], 0
            for g in blocks:
                spans.append(tuple(tuple(int(c == off + i) for c in range(len(L.gram)))
                                   for i in range(len(g))))
                off += len(g)
            assert decompose(L).bases() == transport_spans(spans, U)
        assert sum(found) >= 100

    def test_scaling_preserves_spans(self):
        rng = random.Random(3)
        G = diag_sum([A2, ((1,),), ((3,),)])
        U = random_unimodular(rng, 4)
        Gp = conjugate(G, U)
        scaled = tuple(tuple(3 * x for x in row) for row in Gp)
        assert decompose(ZLattice(Gp)).bases() == decompose(ZLattice(scaled)).bases()

    def test_deterministic(self):
        L = ZLattice(conjugate(diag_sum([A2, ((2,),)]), ((1, 1, 0), (0, 1, 1), (0, 0, 1))))
        assert decompose(L) == decompose(L)

    def test_rank_guard(self):
        G = tuple(
            tuple(1 if i == j else 0 for j in range(13)) for i in range(13)
        )
        with pytest.raises(RankTooLargeError):
            decompose(ZLattice(G))
        D = decompose(ZLattice(G), max_rank=13)
        assert len(D.blocks) == 13

    def test_work_guard(self, monkeypatch):
        # the guard counts sphere-search nodes over the whole decomposition
        L = ZLattice(conjugate(diag_sum([A2, ((1,),), ((10 ** 30,),)]),
                               ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))))
        assert len(decompose(L).blocks) == 3
        monkeypatch.setattr(lattice, "DECOMPOSE_MAX_NODES", 3)
        with pytest.raises(RankTooLargeError, match="sphere search: 4 nodes exceed"):
            decompose(L)
        with pytest.raises(RankTooLargeError, match="sphere search"):
            is_primitive(L, (1, 0, 0, 0))

    def test_rank_guard_env(self, monkeypatch):
        monkeypatch.setenv("LATDEC_MAX_RANK", "3")
        G = diag_sum([((1,),)] * 4)
        with pytest.raises(RankTooLargeError):
            decompose(ZLattice(G))
        assert len(decompose(ZLattice(G), max_rank=4).blocks) == 4
        monkeypatch.setenv("LATDEC_MAX_RANK", "three")
        with pytest.raises(InvalidInputError):
            decompose(ZLattice(G))


class TestIsIndecomposable:
    def test_rank_one(self):
        assert is_indecomposable(ZLattice(((2,),))) is True

    def test_a2(self):
        assert is_indecomposable(ZLattice(A2)) is True

    def test_square_lattice(self):
        assert is_indecomposable(ZLattice(I2)) is False


class TestVerifyDecomposition:
    def test_accepts_genuine_output(self):
        L = ZLattice(I2)
        assert verify_decomposition(L, decompose(L)) is True

    def test_rejects_decomposable_block(self):
        L = ZLattice(I2)
        whole = Block(basis=((1, 0), (0, 1)), gram=restrict_gram(I2, ((1, 0), (0, 1))))
        assert verify_decomposition(L, OrthoDecomposition((whole,))) is False

    def test_rejects_non_orthogonal_blocks(self):
        L = ZLattice(A2)
        blocks = tuple(
            Block(basis=(v,), gram=restrict_gram(A2, (v,)))
            for v in ((1, 0), (0, 1))
        )
        assert verify_decomposition(L, OrthoDecomposition(blocks)) is False

    def test_rejects_tampered_gram(self):
        L = ZLattice(I2)
        D = decompose(L)
        bad = Block(basis=D.blocks[0].basis, gram=((5,),))
        assert verify_decomposition(L, OrthoDecomposition((bad, D.blocks[1]))) is False

    def test_rejects_non_hnf_basis(self):
        L = ZLattice(I2)
        blocks = (
            Block(basis=((-1, 0),), gram=((1,),)),
            Block(basis=((0, 1),), gram=((1,),)),
        )
        assert verify_decomposition(L, OrthoDecomposition(blocks)) is False

    def test_rejects_incomplete_stack(self):
        L = ZLattice(I2)
        blocks = (
            Block(basis=((2, 0),), gram=((4,),)),
            Block(basis=((0, 1),), gram=((1,),)),
        )
        assert verify_decomposition(L, OrthoDecomposition(blocks)) is False

    def test_rejects_an_empty_block(self):
        L = ZLattice(I2)
        D = decompose(L)
        padded = OrthoDecomposition(D.blocks + (Block(basis=(), gram=()),))
        assert verify_decomposition(L, padded) is False


class TestRankZero:
    def test_no_blocks(self):
        L = ZLattice(())
        assert decompose(L).blocks == ()
        assert split(()) == ()
        assert verify_decomposition(L, decompose(L)) is True

    def test_audit_rejects_an_empty_block(self):
        assert audit_blocks((), ()) is True
        assert audit_blocks((), ((),)) is False
        assert audit_blocks(I2, (((1, 0),), (), ((0, 1),))) is False
        assert is_finest(I2, ((),)) is False


class TestSplitAndAudit:
    # x -> (x2, x1): an isometry of I2 and of A2, and its own adjoint
    SWAP = ((0, 1), (1, 0))

    def test_operators_join_z_blocks(self):
        assert split(I2) == (((0, 1),), ((1, 0),))
        assert split(I2, (self.SWAP,)) == (((1, 0), (0, 1)),)

    def test_rows_give_bases_in_their_coordinates(self):
        rows = ((1, 0, 0), (0, 0, 1))
        assert split(I3, rows=rows) == (((0, 1),), ((1, 0),))
        swap13 = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        assert split(I3, (swap13,), rows) == (((1, 0), (0, 1)),)

    def test_audit_checks_stability(self):
        apart = (((1, 0),), ((0, 1),))
        assert audit_blocks(I2, apart) is True
        assert audit_blocks(I2, apart, (self.SWAP,)) is False
        assert audit_blocks(I2, (((1, 0), (0, 1)),), (self.SWAP,)) is True

    def test_maximality(self):
        whole = (((1, 0), (0, 1)),)
        assert is_finest(I2, whole) is False
        assert is_finest(I2, whole, (self.SWAP,)) is True
        assert is_finest(A2, whole) is True
