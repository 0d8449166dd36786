"""Tests for polarised complex structures and their unique splitting."""

import random
from fractions import Fraction

import pytest

from latdec.algebra import FiniteDimAlgebra, Involution, check_positive_involution
from latdec.errors import (
    InvalidHodgeStructureError,
    InvalidInputError,
    NotPositiveDefiniteError,
    RankTooLargeError,
)
from latdec.hodge import (
    HodgeBlock,
    HodgeDecomposition,
    PolarisedComplexStructure,
    decompose_hodge,
    endomorphism_order,
    verify_hodge_decomposition,
)
from latdec.idempotents import blocks_from_idempotents, decompose_unity, idempotents_from_blocks
from latdec.lattice import audit_blocks, is_finest
from latdec.linalg import as_fraction_matrix, hnf_basis, identity, inverse, mat_mul, transpose, vec_mat
from builders import gaussian_order
from oracles import hodge_by_order, random_unimodular

J0 = ((0, -1), (1, 0))
PSI0 = ((0, 1), (-1, 0))
# Complex structure of the lattice Z + 2iZ: the operator is J0 conjugated by
# diag(1, 2), so its integral span is generated by 2*J2 with (2*J2)^2 = -4.
J2 = ((0, Fraction(-1, 2)), (2, 0))
# A conjugate of J0 with no special shape; its integral commutant is spanned
# by the identity and B = [[0,1],[-2,2]] with B^2 = -2 + 2B.
JGEN = ((1, -1), (2, -1))


def diag_join(A, B):
    n, m = len(A), len(B)
    top = tuple(tuple(A[i]) + (0,) * m for i in range(n))
    bottom = tuple((0,) * n + tuple(B[i]) for i in range(m))
    return top + bottom


def join(*parts):
    out = parts[0]
    for part in parts[1:]:
        out = diag_join(out, part)
    return out


def planes(g):
    """The coordinate planes e_(2p+1) e_(2p+2) of Z^2g."""
    return {tuple(tuple(int(c == 2 * p + i) for c in range(2 * g)) for i in range(2))
            for p in range(g)}


def elliptic():
    return PolarisedComplexStructure(J0, PSI0)


def scaled_cm():
    return PolarisedComplexStructure(J2, PSI0)


def product_structure():
    return PolarisedComplexStructure(diag_join(J0, J2), diag_join(PSI0, PSI0))


def square_structure():
    return PolarisedComplexStructure(diag_join(J0, J0), diag_join(PSI0, PSI0))


def transport(H, U):
    """Re-express H on the basis with change-of-coordinates matrix U."""
    Uf = as_fraction_matrix(U)
    Uinv = inverse(Uf)
    new_psi = mat_mul(mat_mul(Uf, as_fraction_matrix(H.psi)), transpose(Uf))
    new_j = mat_mul(mat_mul(transpose(Uinv), H.j), transpose(Uf))
    return PolarisedComplexStructure(new_j, new_psi)


def transported_bases(decomposition, U):
    Uinv = inverse(as_fraction_matrix(U))
    out = set()
    for block in decomposition.blocks:
        rows = tuple(tuple(int(x) for x in vec_mat(r, Uinv)) for r in block.basis)
        out.add(hnf_basis(rows))
    return out


class TestConstruction:
    def test_rejects_nonsquare_j(self):
        with pytest.raises(InvalidInputError, match="J:"):
            PolarisedComplexStructure(((0, -1),), PSI0)

    def test_rejects_odd_dimension(self):
        with pytest.raises(InvalidInputError, match="even"):
            PolarisedComplexStructure(((0,),), ((0,),))

    def test_rejects_wrong_psi_shape(self):
        with pytest.raises(InvalidInputError, match="psi"):
            PolarisedComplexStructure(J0, ((0, 1),))

    def test_rejects_fractional_psi(self):
        with pytest.raises(InvalidInputError, match="integers"):
            PolarisedComplexStructure(
                J0, ((0, Fraction(1, 2)), (Fraction(-1, 2), 0)))

    def test_rejects_non_alternating_psi(self):
        with pytest.raises(InvalidInputError, match="alternating"):
            PolarisedComplexStructure(J0, ((0, 1), (1, 0)))

    def test_rejects_j_with_wrong_square(self):
        with pytest.raises(InvalidInputError, match="square"):
            PolarisedComplexStructure(((1, 0), (0, 1)), PSI0)

    def test_rejects_pairing_not_preserved(self):
        # Swapping the two planes carries the weight-1 pairing to the
        # weight-2 one, so psi(Jx, Jy) = 2 psi(x, y) on the first plane.
        swap = ((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0))
        doubled = diag_join(PSI0, ((0, 2), (-2, 0)))
        with pytest.raises(InvalidInputError, match="preserved"):
            PolarisedComplexStructure(swap, doubled)

    def test_rejects_negative_pairing(self):
        # -J0 flips the sign of psi(x, Jy), so the first minor is -1.
        with pytest.raises(NotPositiveDefiniteError) as info:
            PolarisedComplexStructure(((0, 1), (-1, 0)), PSI0)
        assert info.value.minor_index == 1

    def test_normalizes_entries(self):
        H = PolarisedComplexStructure([[0, -1], [1, 0]], [[0, 1], [-1, 0]])
        assert H.psi == ((0, 1), (-1, 0))
        assert H.j == ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
        assert H.rank == 2
        assert H.g == 1

    def test_positivity_form_of_standard_curve(self):
        assert elliptic().positivity_form() == identity(2)


class TestEndomorphismOrder:
    def test_standard_curve_gives_gaussian_integers(self):
        O = endomorphism_order(elliptic())
        G = gaussian_order()
        assert O.dim == 2
        assert O.algebra.structure == G.algebra.structure
        assert O.algebra.one == G.algebra.one
        assert O.involution.matrix == G.involution.matrix

    def test_scaled_cm_curve_gives_index_two_suborder(self):
        # Integral matrices commuting with J2 are a + b*(2*J2), and the
        # generator squares to -4.
        O = endomorphism_order(scaled_cm())
        assert O.dim == 2
        assert O.algebra.structure[1][1] == (-4, 0)
        assert O.involution.matrix == ((1, 0), (0, -1))

    def test_generic_conjugate_gives_quadratic_order(self):
        O = endomorphism_order(PolarisedComplexStructure(JGEN, PSI0))
        assert O.dim == 2
        assert O.algebra.structure[1][1] == (-2, 2)
        assert O.involution.matrix == ((1, 2), (0, -1))

    def test_square_product_has_rank_eight(self):
        assert endomorphism_order(square_structure()).dim == 8

    def test_scaled_product_has_rank_eight(self):
        # The two factors are related by the 2-scaling map diag(1, 2), which
        # intertwines J0 with J2.  Maps across the factors therefore exist
        # (they form [[p, q], [-2q, 2p]] in either direction), and the
        # commutant has rank 2 + 2 + 2 + 2 = 8 rather than 4.
        assert endomorphism_order(product_structure()).dim == 8

    def test_order_passes_the_public_checks(self):
        # the order is assembled without checks; the public constructors
        # must accept it, and its involution must be positive
        rng = random.Random(43)
        for H in (elliptic(), scaled_cm(), PolarisedComplexStructure(JGEN, PSI0),
                  product_structure(), square_structure()):
            for H in (H, transport(H, random_unimodular(rng, H.rank))):
                R = endomorphism_order(H)
                alg = FiniteDimAlgebra(R.algebra.structure, R.algebra.one)
                Involution(alg, R.involution.matrix)
                assert check_positive_involution(R.algebra, R.involution)

    def test_adjoint_must_preserve_the_order(self):
        # With mismatched polarisation weights on two identical factors the
        # adjoint of the cross map E12 is E21 / 2, which is not integral.
        bad = PolarisedComplexStructure(
            diag_join(J0, J0), diag_join(PSI0, ((0, 2), (-2, 0))))
        with pytest.raises(InvalidHodgeStructureError, match="adjoint"):
            endomorphism_order(bad)


class TestDecompose:
    def test_single_curve_is_one_block(self):
        H = elliptic()
        D = decompose_hodge(H)
        assert len(D.blocks) == 1
        block = D.blocks[0]
        assert block.basis == ((1, 0), (0, 1))
        assert block.structure.j == H.j
        assert block.structure.psi == H.psi

    def test_product_splits_into_coordinate_planes(self):
        D = decompose_hodge(product_structure())
        assert D.bases() == {
            ((1, 0, 0, 0), (0, 1, 0, 0)),
            ((0, 0, 1, 0), (0, 0, 0, 1)),
        }
        by_basis = {b.basis: b.structure for b in D.blocks}
        first = by_basis[((1, 0, 0, 0), (0, 1, 0, 0))]
        second = by_basis[((0, 0, 1, 0), (0, 0, 0, 1))]
        assert first.j == as_fraction_matrix(J0)
        assert first.psi == PSI0
        assert second.j == as_fraction_matrix(J2)
        assert second.psi == PSI0

    def test_square_splits_into_two_blocks(self):
        D = decompose_hodge(square_structure())
        assert D.bases() == {
            ((1, 0, 0, 0), (0, 1, 0, 0)),
            ((0, 0, 1, 0), (0, 0, 0, 1)),
        }
        for block in D.blocks:
            assert block.structure.j == as_fraction_matrix(J0)
            assert block.structure.psi == PSI0

    def test_square_output_stable_under_plane_swap(self):
        H = square_structure()
        swap = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
        moved = transport(H, swap)
        assert moved.j == H.j and moved.psi == H.psi
        D = decompose_hodge(H)
        assert transported_bases(D, swap) == D.bases()

    def test_decompose_commutes_with_transport(self):
        rng = random.Random(60209)
        for make in (elliptic, scaled_cm, product_structure, square_structure):
            H = make()
            D = decompose_hodge(H)
            for _ in range(5):
                U = random_unimodular(rng, H.rank)
                moved = transport(H, U)
                assert decompose_hodge(moved).bases() == transported_bases(D, U)

    def test_deterministic(self):
        assert decompose_hodge(product_structure()) == decompose_hodge(product_structure())

    def test_rank_guard_applies_to_the_rank(self):
        with pytest.raises(RankTooLargeError,
                           match="rank 4 exceeds decomposition guard 3"):
            decompose_hodge(square_structure(), max_rank=3)

    def test_invalid_adjoint_propagates(self):
        bad = PolarisedComplexStructure(
            diag_join(J0, J0), diag_join(PSI0, ((0, 2), (-2, 0))))
        with pytest.raises(InvalidHodgeStructureError):
            endomorphism_order(bad)
        assert decompose_hodge(bad).bases() == {
            ((1, 0, 0, 0), (0, 1, 0, 0)),
            ((0, 0, 1, 0), (0, 0, 0, 1)),
        }


class TestAnyPolarisation:
    """Inputs the endomorphism order cannot split: the adjoint leaves a
    non-principal order, or the order outgrows the rank guard."""

    def test_planted_non_principal_planes(self):
        rng = random.Random(71)
        for second in (J0, J2):
            for k in (2, 3):
                weighted = tuple(tuple(k * x for x in row) for row in PSI0)
                H = PolarisedComplexStructure(diag_join(J0, second),
                                              diag_join(PSI0, weighted))
                with pytest.raises(InvalidHodgeStructureError, match="adjoint"):
                    endomorphism_order(H)
                D = decompose_hodge(H)
                assert D.bases() == planes(2)
                assert [b.structure.psi for b in D.blocks] == [weighted, PSI0]
                for _ in range(5):
                    U = random_unimodular(rng, 4)
                    moved = transport(H, U)
                    E = decompose_hodge(moved)
                    assert E.bases() == transported_bases(D, U)
                    assert verify_hodge_decomposition(moved, E)

    def test_cube_of_a_curve_at_the_default_guard(self):
        H = PolarisedComplexStructure(join(J0, J0, J0), join(PSI0, PSI0, PSI0))
        assert endomorphism_order(H).dim == 18
        D = decompose_hodge(H)
        assert D.bases() == planes(3)
        U = random_unimodular(random.Random(73), 6)
        moved = transport(H, U)
        E = decompose_hodge(moved)
        assert E.bases() == transported_bases(D, U)
        assert verify_hodge_decomposition(moved, E)

    def test_against_the_order_route(self):
        rng = random.Random(79)
        for factors in ((J0, J0), (J0, J2), (J0, JGEN), (J2, J2), (J2, JGEN),
                        (JGEN, JGEN), (J0, J0, J0), (JGEN, JGEN, J0), (J0, J2, JGEN)):
            H = PolarisedComplexStructure(join(*factors), join(*[PSI0] * len(factors)))
            moved = transport(H, random_unimodular(rng, H.rank))
            assert decompose_hodge(moved).bases() == hodge_by_order(moved)


class TestVerify:
    def test_computed_decompositions_verify(self):
        for make in (elliptic, scaled_cm, product_structure, square_structure):
            H = make()
            assert verify_hodge_decomposition(H, decompose_hodge(H))

    def test_whole_lattice_block_verifies(self):
        # The audit checks validity of the splitting, not maximality.
        for make in (elliptic, product_structure):
            H = make()
            whole = HodgeDecomposition(
                (HodgeBlock(basis=identity(H.rank), structure=H),))
            assert verify_hodge_decomposition(H, whole)

    def test_rejects_non_stable_planes(self):
        H = square_structure()
        filler = elliptic()
        D = HodgeDecomposition((
            HodgeBlock(basis=((1, 0, 0, 0), (0, 0, 1, 0)), structure=filler),
            HodgeBlock(basis=((0, 1, 0, 0), (0, 0, 0, 1)), structure=filler),
        ))
        assert not verify_hodge_decomposition(H, D)

    def test_rejects_swapped_structures(self):
        H = product_structure()
        D = decompose_hodge(H)
        a, b = D.blocks
        swapped = HodgeDecomposition((
            HodgeBlock(basis=a.basis, structure=b.structure),
            HodgeBlock(basis=b.basis, structure=a.structure),
        ))
        assert not verify_hodge_decomposition(H, swapped)

    def test_rejects_incomplete_family(self):
        H = product_structure()
        D = decompose_hodge(H)
        assert not verify_hodge_decomposition(H, HodgeDecomposition(D.blocks[:1]))

    def test_audit_rejects_a_phi_orthogonal_split_that_is_not_j_stable(self):
        # phi = psi J is the identity here, so the coordinate lines and the
        # planes e1 e3, e2 e4 are phi-orthogonal; j moves both off themselves
        H = square_structure()
        phi = H.positivity_form()
        for bases in ([((1, 0, 0, 0),), ((0, 1, 0, 0),), ((0, 0, 1, 0),), ((0, 0, 0, 1),)],
                      [((1, 0, 0, 0), (0, 0, 1, 0)), ((0, 1, 0, 0), (0, 0, 0, 1))]):
            assert audit_blocks(phi, bases)
            assert not audit_blocks(phi, bases, (H.j,))
        assert audit_blocks(phi, [b.basis for b in decompose_hodge(H).blocks], (H.j,))

    def test_maximality_is_a_separate_check(self):
        for make in (elliptic, product_structure, square_structure):
            H = make()
            phi = H.positivity_form()
            assert is_finest(phi, [b.basis for b in decompose_hodge(H).blocks], (H.j,))
            assert is_finest(phi, [identity(H.rank)], (H.j,)) == (make is elliptic)

    def test_rejects_non_hnf_basis(self):
        H = square_structure()
        D = decompose_hodge(H)
        tilted = HodgeDecomposition((
            HodgeBlock(basis=((1, 1, 0, 0), (0, 1, 0, 0)),
                       structure=D.blocks[0].structure),
            D.blocks[1],
        ))
        assert not verify_hodge_decomposition(H, tilted)


class TestCorrespondence:
    def test_idempotents_and_blocks_are_inverse(self):
        for make in (elliptic, scaled_cm, product_structure, square_structure):
            order = endomorphism_order(make())
            idems = decompose_unity(order)
            spans = blocks_from_idempotents(order, idems.idems)
            assert idempotents_from_blocks(order, spans) == idems

    def test_blocks_carry_valid_structures(self):
        for make in (elliptic, product_structure, square_structure):
            for block in decompose_hodge(make()).blocks:
                rebuilt = PolarisedComplexStructure(
                    block.structure.j, block.structure.psi)
                assert rebuilt == block.structure
