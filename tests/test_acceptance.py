"""Acceptance suite: one test per top-level acceptance criterion.

Each criterion is a single test that prints one `ACCEPTANCE n PASS` line
when every check in it has succeeded (a failure raises first, so the
line doubles as the pass/fail report).  Tolerances are exact throughout
— every comparison is on integers, Fractions, or frozen structures —
and the two timed criteria pin their wall-clock budgets explicitly.
"""

import random
import time
from fractions import Fraction

from latdec.algebra import (
    change_basis,
    check_l_eq_r,
    check_nd,
    check_positive_involution,
)
from latdec.aut import aut_group, verify_aut_factorization
from latdec.hermitian import decompose_hermitian, regular_module, trace_form
from latdec.hodge import PolarisedComplexStructure, decompose_hodge, endomorphism_order
from latdec.idempotents import (
    blocks_from_idempotents,
    decompose_unity,
    idempotents_from_blocks,
)
from latdec.lattice import ZLattice, decompose, is_indecomposable
from latdec.linalg import (
    as_fraction_matrix,
    enumerate_short_vectors,
    gram_value,
    hnf_basis,
    inverse,
    to_int_matrix,
    vec_mat,
)
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
from oracles import brute_short_vectors_big, random_unimodular

A2 = ((2, -1), (-1, 2))
PLANT_POOL = (((1,),), ((2,),), ((3,),), A2, ((2, 1), (1, 3)))

J0 = ((0, -1), (1, 0))
PSI0 = ((0, 1), (-1, 0))
J2 = ((0, Fraction(-1, 2)), (2, 0))


def diag_sum(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return tuple(tuple(row) for row in out)


def conjugate(G, U):
    n = len(G)
    Gf = as_fraction_matrix(G)
    rows = [tuple(Fraction(x) for x in row) for row in U]
    return tuple(
        tuple(sum(rows[i][p] * Gf[p][q] * rows[j][q] for p in range(n) for q in range(n))
              for j in range(n))
        for i in range(n)
    )


def plant(rng, max_rank):
    blocks = []
    total = 0
    while True:
        candidates = [b for b in PLANT_POOL if total + len(b) <= max_rank]
        if not candidates or (total and rng.random() < 0.3):
            break
        blocks.append(rng.choice(candidates))
        total += len(blocks[-1])
    U = random_unimodular(rng, total)
    return blocks, U


def planted_spans(blocks, U):
    """HNF bases of the planted coordinate blocks in the instance basis."""
    Uinv = to_int_matrix(inverse(as_fraction_matrix(U)))
    spans = set()
    off = 0
    for b in blocks:
        spans.add(hnf_basis(tuple(Uinv[off + i] for i in range(len(b)))))
        off += len(b)
    return spans


def map_spans(decomposition, M):
    """Block bases pushed through the integer matrix M, as HNF sets."""
    out = set()
    for block in decomposition.blocks:
        rows = tuple(tuple(int(x) for x in vec_mat(r, M)) for r in block.basis)
        out.add(hnf_basis(rows))
    return out


def test_criterion_1_planted_decomposition_recovery():
    rng = random.Random(1_2026)
    started = time.monotonic()
    recovered = 0
    for _ in range(200):
        blocks, U = plant(rng, max_rank=6)
        L = ZLattice(conjugate(diag_sum(blocks), U))
        found = {b.basis for b in decompose(L).blocks}
        assert found == planted_spans(blocks, U)
        recovered += 1
    elapsed = time.monotonic() - started
    assert recovered == 200
    assert elapsed < 120.0
    print("ACCEPTANCE 1 PASS: planted recovery 200/200 in %.1fs" % elapsed)


def test_criterion_2_uniqueness_under_representation():
    rng = random.Random(2_2026)
    agreed = 0
    for _ in range(100):
        blocks, U = plant(rng, max_rank=6)
        G = diag_sum(blocks)
        direct = {b.basis for b in decompose(ZLattice(G)).blocks}
        re_presented = decompose(ZLattice(conjugate(G, U)))
        assert map_spans(re_presented, U) == direct
        agreed += 1
    assert agreed == 100
    print("ACCEPTANCE 2 PASS: block sets identical under re-presentation 100/100")


def test_criterion_3_trace_predicate_suite():
    upper = upper_triangular_2x2()
    # one-sided traces of a11*E11 + a12*E12 + a22*E22, as exact linear forms
    assert tuple(upper.left_trace(upper.basis_element(i)) for i in range(3)) == (2, 0, 1)
    assert tuple(upper.right_trace(upper.basis_element(i)) for i in range(3)) == (1, 0, 2)
    assert not check_nd(upper)
    dual = dual_numbers()
    assert check_l_eq_r(dual.algebra)
    assert not check_nd(dual.algebra)

    rng = random.Random(3_2026)
    bases = [
        integers_order(), matrix_order(1), matrix_order(2),
        cyclic_group_ring(2), cyclic_group_ring(3), cyclic_group_ring(4),
        cyclic_group_ring(5), cyclic_group_ring(6),
        klein_four_ring(), sym3_ring(),
        zxz(), zxz(swap=True), gaussian_order(), dual_numbers(),
        product_order(zxz(), gaussian_order()),
        product_order(gaussian_order(), gaussian_order()),
        product_order(integers_order(), klein_four_ring()),
        product_order(zxz(), matrix_order(2)),
    ]
    checked = 0
    for order in bases:
        presentations = [order]
        for _ in range(12):
            W = random_unimodular(rng, order.dim)
            presentations.append(change_basis(order, W))
        for present in presentations:
            positive = check_positive_involution(present.algebra, present.involution)
            nd = check_nd(present.algebra)
            if positive:
                assert nd
            if nd:
                assert check_l_eq_r(present.algebra)
            checked += 1
    assert checked >= 200
    print("ACCEPTANCE 3 PASS: trace forms exact; implication chain held on "
          "%d algebras" % checked)


def test_criterion_4_idempotent_theorems():
    for n in (1, 2, 3):
        order = matrix_order(n)
        units = sorted(
            tuple(1 if k == j * (n + 1) else 0 for k in range(n * n))
            for j in range(n)
        )
        assert list(decompose_unity(order).idems) == units
    assert decompose_unity(cyclic_group_ring(3)).idems == ((1, 0, 0),)

    rng = random.Random(4_2026)
    fuzz_bases = [
        integers_order(), gaussian_order(), zxz(),
        matrix_order(2), matrix_order(3),
        cyclic_group_ring(2), cyclic_group_ring(4), klein_four_ring(),
        sym3_ring(), product_order(zxz(), gaussian_order()),
    ]
    round_trips = 0
    for order in fuzz_bases:
        for _ in range(5):
            present = change_basis(order, random_unimodular(rng, order.dim))
            found = decompose_unity(present)
            spans = blocks_from_idempotents(present, found.idems)
            assert idempotents_from_blocks(present, spans) == found
            round_trips += 1
        # permuting the order basis permutes nothing but coordinates
        perm = list(range(order.dim))
        rng.shuffle(perm)
        P = tuple(tuple(1 if j == perm[i] else 0 for j in range(order.dim))
                  for i in range(order.dim))
        Pinv = to_int_matrix(inverse(as_fraction_matrix(P)))
        shuffled = change_basis(order, P)
        expected = sorted(
            tuple(int(x) for x in vec_mat(v, Pinv))
            for v in decompose_unity(order).idems
        )
        assert list(decompose_unity(shuffled).idems) == expected
    assert round_trips == 50
    print("ACCEPTANCE 4 PASS: matrix units and group rings exact; "
          "round trip 50/50; permutation-invariant")


def test_criterion_5_hermitian_vs_trace_separation():
    module = regular_module(gaussian_order())
    hermitian_blocks = decompose_hermitian(module).blocks
    assert len(hermitian_blocks) == 1
    assert hermitian_blocks[0].basis == ((1, 0), (0, 1))
    assert hermitian_blocks[0].gram == ((2, 0), (0, 2))
    trace_blocks = decompose(trace_form(module)).blocks
    assert [b.basis for b in trace_blocks] == [((0, 1),), ((1, 0),)]
    assert all(b.gram == ((2,),) for b in trace_blocks)
    print("ACCEPTANCE 5 PASS: 1 Hermitian block vs 2 trace-form blocks")


def test_criterion_6_automorphism_factorization():
    for n in range(1, 5):
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        expected = 2 ** n
        for k in range(2, n + 1):
            expected *= k
        assert aut_group(ZLattice(eye)).order == expected
    assert aut_group(ZLattice(A2)).order == 12
    mixed = ZLattice(diag_sum([A2, ((2,),)]))
    assert aut_group(mixed).order == 24

    rng = random.Random(6_2026)
    instances = 0
    while instances < 20:
        counts = {}
        blocks = []
        total = 0
        while total < 6:
            g = rng.choice(PLANT_POOL)
            if counts.get(g, 0) >= 3 or total + len(g) > 6:
                break
            counts[g] = counts.get(g, 0) + 1
            blocks.append(g)
            total += len(g)
        if not blocks:
            continue
        U = random_unimodular(rng, total)
        L = ZLattice(conjugate(diag_sum(blocks), U))
        A = aut_group(L)
        assert verify_aut_factorization(L, A)
        spans = {b.basis for b in decompose(L).blocks}
        for W in A.generators:
            moved = {
                hnf_basis(tuple(tuple(int(x) for x in vec_mat(r, W)) for r in span))
                for span in spans
            }
            assert moved == spans
        instances += 1
    print("ACCEPTANCE 6 PASS: |Aut| values exact; factorization verified on "
          "20 fuzzed lattices; generators permute the block set")


def _hodge_transport(H, U):
    Uf = as_fraction_matrix(U)
    Uinv = inverse(Uf)
    from latdec.linalg import mat_mul, transpose
    new_psi = mat_mul(mat_mul(Uf, as_fraction_matrix(H.psi)), transpose(Uf))
    new_j = mat_mul(mat_mul(transpose(Uinv), H.j), transpose(Uf))
    return PolarisedComplexStructure(new_j, new_psi), to_int_matrix(Uinv)


def test_criterion_7_hodge_decomposition():
    def diag_join(A, B):
        n, m = len(A), len(B)
        return tuple(tuple(A[i]) + (0,) * m for i in range(n)) + tuple(
            (0,) * n + tuple(B[i]) for i in range(m))

    single = PolarisedComplexStructure(J0, PSI0)
    assert len(decompose_hodge(single).blocks) == 1

    product = PolarisedComplexStructure(diag_join(J0, J2), diag_join(PSI0, PSI0))
    D = decompose_hodge(product)
    assert D.bases() == {
        ((1, 0, 0, 0), (0, 1, 0, 0)),
        ((0, 0, 1, 0), (0, 0, 0, 1)),
    }

    square = PolarisedComplexStructure(diag_join(J0, J0), diag_join(PSI0, PSI0))
    DS = decompose_hodge(square)
    assert len(DS.blocks) == 2
    swap = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    swapped, swap_inv = _hodge_transport(square, swap)
    assert swapped.j == square.j and swapped.psi == square.psi
    assert map_spans(DS, swap_inv) == DS.bases()
    rng = random.Random(7_2026)
    for _ in range(3):
        U = random_unimodular(rng, 4)
        moved, Uinv = _hodge_transport(square, U)
        assert decompose_hodge(moved).bases() == map_spans(DS, Uinv)

    for H in (single, product, square):
        order = endomorphism_order(H)
        found = decompose_unity(order)
        spans = blocks_from_idempotents(order, found.idems)
        assert idempotents_from_blocks(order, spans) == found
    print("ACCEPTANCE 7 PASS: products split into coordinate planes; "
          "shuffle-stable; idempotent round trip holds")


def test_criterion_8_e8_sanity():
    started = time.monotonic()
    edges = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))
    G = [[0] * 8 for _ in range(8)]
    for i in range(8):
        G[i][i] = 2
    for a, b in edges:
        G[a - 1][b - 1] = G[b - 1][a - 1] = -1
    G = tuple(tuple(row) for row in G)
    assert is_indecomposable(ZLattice(G))
    found = enumerate_short_vectors(G, 2)
    minimal = [v for v in found if gram_value(as_fraction_matrix(G), v, v) == 2]
    assert len(minimal) == 120
    assert sorted(found) == sorted(brute_short_vectors_big(G, 2))
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print("ACCEPTANCE 8 PASS: E8 indecomposable with 120 minimal pairs "
          "in %.1fs" % elapsed)
