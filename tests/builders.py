"""Constructors for the small algebras and orders the tests revolve around."""

from latdec.algebra import FiniteDimAlgebra, Involution, InvolutiveOrder


def matrix_order(n):
    """M_n(Z) with the transpose involution.  Basis E_11, E_12, ..., E_nn."""
    d = n * n

    def idx(i, j):
        return i * n + j

    structure = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        structure[idx(i, j)][idx(k, l)][idx(i, l)] = 1
    one = [0] * d
    for i in range(n):
        one[idx(i, i)] = 1
    S = [[0] * d for _ in range(d)]
    for i in range(n):
        for j in range(n):
            S[idx(j, i)][idx(i, j)] = 1
    alg = FiniteDimAlgebra(structure, one)
    return InvolutiveOrder(alg, Involution(alg, S))


def group_ring(table, inverse_of):
    """Z[G] from a Cayley table, with the g -> g^-1 involution."""
    d = len(table)
    structure = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            structure[i][j][table[i][j]] = 1
    e = next(i for i in range(d) if all(table[i][j] == j for j in range(d)))
    one = [0] * d
    one[e] = 1
    S = [[0] * d for _ in range(d)]
    for g in range(d):
        S[inverse_of[g]][g] = 1
    alg = FiniteDimAlgebra(structure, one)
    return InvolutiveOrder(alg, Involution(alg, S))


def cyclic_group_ring(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    inv = [(-i) % n for i in range(n)]
    return group_ring(table, inv)


def klein_four_ring():
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return group_ring(table, list(range(4)))


def sym3_ring():
    # permutations of {0,1,2} in one-line notation
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(3))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    inv = []
    for p in perms:
        ip = [0, 0, 0]
        for x in range(3):
            ip[p[x]] = x
        inv.append(index[tuple(ip)])
    return group_ring(table, inv)


def upper_triangular_2x2():
    """Upper triangular 2x2 matrices; basis E11, E12, E22.  No involution."""
    structure = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    # E11*E11 = E11, E11*E12 = E12, E12*E22 = E12, E22*E22 = E22
    structure[0][0][0] = 1
    structure[0][1][1] = 1
    structure[1][2][1] = 1
    structure[2][2][2] = 1
    return FiniteDimAlgebra(structure, [1, 0, 1])


def dual_numbers():
    """Q[x]/(x^2), basis {1, x}, with the identity involution."""
    structure = [[[0, 0], [0, 0]] for _ in range(2)]
    structure[0][0] = [1, 0]
    structure[0][1] = [0, 1]
    structure[1][0] = [0, 1]
    structure[1][1] = [0, 0]
    alg = FiniteDimAlgebra(structure, [1, 0])
    return InvolutiveOrder(alg, Involution(alg, [[1, 0], [0, 1]]))


def gaussian_order():
    """Z[i] with complex conjugation."""
    structure = [
        [[1, 0], [0, 1]],
        [[0, 1], [-1, 0]],
    ]
    alg = FiniteDimAlgebra(structure, [1, 0])
    return InvolutiveOrder(alg, Involution(alg, [[1, 0], [0, -1]]))


def zxz(swap=False):
    """Z x Z componentwise, with identity or swap involution."""
    structure = [
        [[1, 0], [0, 0]],
        [[0, 0], [0, 1]],
    ]
    alg = FiniteDimAlgebra(structure, [1, 1])
    S = [[0, 1], [1, 0]] if swap else [[1, 0], [0, 1]]
    return InvolutiveOrder(alg, Involution(alg, S))


def integers_order():
    alg = FiniteDimAlgebra([[[1]]], [1])
    return InvolutiveOrder(alg, Involution(alg, [[1]]))


def product_order(a, b):
    """Direct product of two involutive orders, componentwise involution."""
    da, db = a.dim, b.dim
    d = da + db
    structure = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(da):
        for j in range(da):
            for k in range(da):
                structure[i][j][k] = int(a.algebra.structure[i][j][k])
    for i in range(db):
        for j in range(db):
            for k in range(db):
                structure[da + i][da + j][da + k] = int(b.algebra.structure[i][j][k])
    one = [int(x) for x in a.one] + [int(x) for x in b.one]
    S = [[0] * d for _ in range(d)]
    for i in range(da):
        for j in range(da):
            S[i][j] = int(a.involution.matrix[i][j])
    for i in range(db):
        for j in range(db):
            S[da + i][da + j] = int(b.involution.matrix[i][j])
    alg = FiniteDimAlgebra(structure, one)
    return InvolutiveOrder(alg, Involution(alg, S))


def real_quadratic_order(D):
    """Z[s] with s^2 = D > 0 and the identity involution; basis {1, s}.

    Its trace form is diag(2, 2D), so a large D spreads the norms apart.
    """
    alg = FiniteDimAlgebra([[[1, 0], [0, 1]], [[0, 1], [D, 0]]], [1, 0])
    return InvolutiveOrder(alg, Involution(alg, [[1, 0], [0, 1]]))
