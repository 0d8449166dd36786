"""Seeded inputs for the three workloads, each with its reference answer.

Every input is a known object under a random change of basis, so the
answer follows from the construction: planted block spans for
`decompose`, group orders from the block multiset for `aut`, matrix
units and group-ring units for `idempotents`, planted planes for
`hodge`.  Nothing here calls latdec or imports the test suite, so edits
to either cannot move the reference.

A pass is one fixed list of cases.  Pass k of a run is built from
(workload, seed, k), so passes of one run share their shape but no
input, and the same seed always yields the same inputs.
"""

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from exact import (
    block_diag,
    congruent,
    hnf,
    identity,
    mat_mul,
    random_unimodular,
    rational_str,
    transpose,
    vec_mat,
)

# Indecomposable blocks with the orders of their automorphism groups.
A2 = [[2, -1], [-1, 2]]
F5 = [[2, 1], [1, 3]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
E8_EDGES = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3))
E8 = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
for _i, _j in E8_EDGES:
    E8[_i][_j] = E8[_j][_i] = -1

BLOCKS = {
    "1": ([[1]], 2),
    "2": ([[2]], 2),
    "3": ([[3]], 2),
    "12": ([[12]], 2),
    "A2": (A2, 12),
    "F5": (F5, 4),
    "D4": (D4, 1152),
    "E8": (E8, 696729600),
}
PLANT_MENU = ("1", "2", "3", "A2", "F5")

J0 = ((0, -1), (1, 0))
J2 = ((0, Fraction(-1, 2)), (2, 0))
JGEN = ((1, -1), (2, -1))
PSI0 = ((0, 1), (-1, 0))

_RATIONAL = re.compile(r"-?\d+(/\d+)?\Z")


@dataclass
class Case:
    """One CLI call: command, input payload and the exact expected output."""

    label: str
    command: str
    verify: bool
    payload: dict
    expected: dict
    gram: list = None  # input Gram, for checking `aut` generators

    def argv(self, path):
        return [self.command, path] + (["--verify"] if self.verify else [])


def _exact(value):
    """Parsed CLI JSON with 'p/q' strings turned into Fractions."""
    if isinstance(value, list):
        return [_exact(x) for x in value]
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, str) and _RATIONAL.match(value):
        return Fraction(value)
    return value


def _is_isometry(W, G):
    n = len(G)
    if (not isinstance(W, list) or len(W) != n
            or any(not isinstance(r, list) or len(r) != n for r in W)
            or any(type(x) is not int for r in W for x in r)):
        return False
    # W G W^T = G with det G != 0 forces det W = +-1
    return congruent(W, G) == G


def check(case, text):
    """True iff the CLI output text is the reference answer for case."""
    try:
        out = _exact(json.loads(text))
    except ValueError:
        return False
    if case.command == "aut":
        if not isinstance(out, dict):
            return False
        gens = out.pop("generators", None)
        if not isinstance(gens, list) or (case.expected["order"] > 1 and not gens):
            return False
        if not all(_is_isometry(W, case.gram) for W in gens):
            return False
    return out == case.expected


def _sort_key(basis):
    return (len(basis), tuple(x for row in basis for x in row))


def _planted_lattice(rng, names, wide):
    """Scrambled block sum: (Gram, [(name, HNF span, block Gram)] sorted)."""
    names = list(names)
    rng.shuffle(names)
    G = block_diag([BLOCKS[name][0] for name in names])
    U, V = random_unimodular(rng, len(G), 2 + wide)
    Gs = congruent(U, G)
    blocks = []
    at = 0
    for name in names:
        r = len(BLOCKS[name][0])
        # old coordinates x become x V, so block e_i spans rows i of V
        span = hnf(V[at:at + r])
        blocks.append((name, span, congruent(span, Gs)))
        at += r
    blocks.sort(key=lambda b: _sort_key(b[1]))
    return Gs, blocks


def _recipes(count, lo, hi):
    """Fixed block lists, the same for every seed, ranks spread over [lo, hi].

    The seed varies only the change of basis, so the cost of a pass does
    not depend on which blocks a seed happens to draw.
    """
    rng = random.Random("recipes:%d:%d:%d" % (count, lo, hi))
    recipes = []
    for k in range(count):
        rank = lo + k % (hi - lo + 1)
        names = []
        while rank:
            name = rng.choice([b for b in PLANT_MENU if len(BLOCKS[b][0]) <= rank])
            names.append(name)
            rank -= len(BLOCKS[name][0])
        recipes.append(tuple(names))
    return tuple(recipes)


def _json_matrix(M):
    return [[rational_str(x) for x in row] for row in M]


def decompose_case(rng, wide, names, verify):
    G, blocks = _planted_lattice(rng, names, wide)
    expected = {"blocks": [{"basis": [list(r) for r in span], "gram": gram}
                           for _, span, gram in blocks]}
    return Case("decompose " + "+".join(names), "decompose", verify,
                {"gram": G}, expected)


def aut_case(rng, wide, names):
    G, blocks = _planted_lattice(rng, names, wide)
    order = 1
    classes = []  # [name, multiplicity, representative Gram], first seen first
    for name, _, gram in blocks:
        for cls in classes:
            if cls[0] == name:
                cls[1] += 1
                break
        else:
            classes.append([name, 1, gram])
    for name, e, _ in classes:
        order *= BLOCKS[name][1] ** e * math.factorial(e)
    expected = {"order": order, "factorization_ok": True,
                "classes": [{"e": e, "block_gram": gram} for _, e, gram in classes]}
    return Case("aut " + "+".join(names), "aut", False, {"gram": G}, expected, G)


# An involutive order is (structure constants, unit, involution matrix S
# acting on coordinate columns, Hermitian idempotents of the finest
# splitting of 1).


def matrix_order(n):
    """M_n(Z) with the transpose; 1 splits into the n diagonal matrix units."""
    d = n * n
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for l in range(n):
                c[i * n + j][j * n + l][i * n + l] = 1
    S = [[0] * d for _ in range(d)]
    for i in range(n):
        for j in range(n):
            S[j * n + i][i * n + j] = 1
    units = [[int(k == i * n + i) for k in range(d)] for i in range(n)]
    return c, [sum(u) for u in zip(*units)], S, units


def group_ring(table, inverse_of):
    """Z[G] with g -> g^-1; a group ring has no idempotents besides 0, 1."""
    d = len(table)
    c = [[[int(table[i][j] == k) for k in range(d)] for j in range(d)]
         for i in range(d)]
    e = next(i for i in range(d) if all(table[i][j] == j for j in range(d)))
    S = [[int(inverse_of[g] == r) for g in range(d)] for r in range(d)]
    one = [int(k == e) for k in range(d)]
    return c, one, S, [one]


def cyclic_ring(n):
    return group_ring([[(i + j) % n for j in range(n)] for i in range(n)],
                      [(-i) % n for i in range(n)])


def klein_ring():
    return group_ring([[i ^ j for j in range(4)] for i in range(4)], list(range(4)))


def sym3_ring():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    index = {p: k for k, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]
    inverse_of = [index[tuple(p.index(x) for x in range(3))] for p in perms]
    return group_ring(table, inverse_of)


def gaussian_order():
    return ([[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], [1, 0],
            [[1, 0], [0, -1]], [[1, 0]])


def integers_order():
    return [[[1]]], [1], [[1]], [[1]]


def product_order(*factors):
    """Direct product; the idempotents are those of the factors, added up."""
    d = sum(len(f[1]) for f in factors)
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    one, S, idems = [], [[0] * d for _ in range(d)], []
    at = 0
    for fc, fone, fS, fidems in factors:
        k = len(fone)
        for i in range(k):
            for j in range(k):
                S[at + i][at + j] = fS[i][j]
                for l in range(k):
                    c[at + i][at + j][at + l] = fc[i][j][l]
        one += fone
        idems += [[0] * at + v + [0] * (d - at - k) for v in fidems]
        at += k
    return c, one, S, idems


ORDERS = {
    "M2(Z)": lambda: matrix_order(2),
    "M3(Z)": lambda: matrix_order(3),
    "Z[S3]": sym3_ring,
    "Z[C5]": lambda: cyclic_ring(5),
    "Z[C6]": lambda: cyclic_ring(6),
    "Z[K4]": klein_ring,
    "M2(Z)xZ[i]": lambda: product_order(matrix_order(2), gaussian_order()),
    "Z[i]xZxZ": lambda: product_order(gaussian_order(), integers_order(),
                                      integers_order()),
}


def _mult(c, x, y):
    d = len(x)
    out = [0] * d
    for i in range(d):
        if x[i]:
            for j in range(d):
                if y[j]:
                    f = x[i] * y[j]
                    row = c[i][j]
                    for k in range(d):
                        out[k] += f * row[k]
    return out


def idempotents_case(rng, wide, name):
    c, one, S, idems = ORDERS[name]()
    d = len(one)
    W, Winv = random_unimodular(rng, d, 2 + wide)
    # new basis element i is row W[i]; coordinates x become x W^-1
    new_c = [[vec_mat(_mult(c, W[i], W[j]), Winv) for j in range(d)] for i in range(d)]
    new_S = mat_mul(mat_mul(transpose(Winv), S), transpose(W))
    new_idems = sorted(vec_mat(v, Winv) for v in idems)
    basis = identity(d)
    blocks = [hnf([_mult(new_c, e, v) for e in basis]) for v in new_idems]
    payload = {"dim": d, "structure_constants": new_c,
               "one": vec_mat(one, Winv), "involution": new_S}
    expected = {"idempotents": new_idems,
                "blocks": [[list(r) for r in b] for b in blocks]}
    return Case("idempotents " + name, "idempotents", False, payload, expected)


def hodge_case(rng, wide, planes):
    """Scrambled orthogonal sum of polarised planes (j, psi)."""
    j = block_diag(planes)
    psi = block_diag([PSI0] * len(planes))
    N = len(j)
    U, V = random_unimodular(rng, N, 2 + wide)
    new_j = mat_mul(mat_mul(transpose(V), j), transpose(U))
    new_psi = congruent(U, psi)
    blocks = []
    for k, plane in enumerate(planes):
        span = hnf(V[2 * k:2 * k + 2])
        # span rows in old coordinates are T times the plane's basis
        old = mat_mul([list(r) for r in span], U)
        T = [row[2 * k:2 * k + 2] for row in old]
        det = T[0][0] * T[1][1] - T[0][1] * T[1][0]
        Tinv = [[Fraction(T[1][1], det), Fraction(-T[0][1], det)],
                [Fraction(-T[1][0], det), Fraction(T[0][0], det)]]
        blocks.append({"basis": [list(r) for r in span],
                       "J": mat_mul(mat_mul(transpose(Tinv), plane), transpose(T)),
                       "psi": congruent(T, PSI0)})
    blocks.sort(key=lambda b: _sort_key(b["basis"]))
    payload = {"g": N // 2, "J": _json_matrix(new_j), "psi": new_psi}
    names = {J0: "J0", J2: "J2", JGEN: "JGEN"}
    return Case("hodge " + "+".join(names[p] for p in planes), "hodge", False,
                payload, {"blocks": blocks})


LATTICE_HEAVY = (("E8",), ("E8",), ("A2",) * 6, ("D4", "D4"), ("1",) * 6 + ("12",))
AUT_HEAVY = (("1",) * 5, ("D4",), ("A2", "A2", "1"))
# Calls per pass of each order.  One call on the dimension 9 order M3(Z)
# costs as much as some 30 on the dimension 4 ones, so M3(Z) is rare and
# two passes fit in a 40 s run on a 2-vCPU Xeon host.
STRUCTURE_ORDERS = (("M3(Z)", 1), ("Z[S3]", 4), ("Z[C6]", 4), ("M2(Z)xZ[i]", 4),
                    ("Z[C5]", 8), ("M2(Z)", 25), ("Z[K4]", 22), ("Z[i]xZxZ", 22))
HODGE_SET = ((J0,), (J0,), (J2,), (J2,), (JGEN,), (JGEN,),
             (J0, J0), (J0, JGEN), (JGEN, JGEN), (J2, J2))


def lattice_pass():
    makers = [lambda rng, wide, names=names: decompose_case(rng, wide, names, False)
              for names in LATTICE_HEAVY]
    return makers + [lambda rng, wide, names=names: decompose_case(rng, wide, names, True)
                     for names in _recipes(95, 3, 6)]


def aut_pass():
    return [lambda rng, wide, names=names: aut_case(rng, wide, names)
            for names in AUT_HEAVY + _recipes(97, 3, 4)]


def structures_pass():
    makers = [lambda rng, wide, name=name: idempotents_case(rng, wide, name)
              for name, count in STRUCTURE_ORDERS for _ in range(count)]
    return makers + [lambda rng, wide, planes=planes: hodge_case(rng, wide, planes)
                     for planes in HODGE_SET]


WORKLOADS = {
    "lattice": lattice_pass,
    "aut": aut_pass,
    "structures": structures_pass,
}


def build_pass(workload, seed, index, seen):
    """The cases of pass `index`, none with a payload already in `seen`.

    A draw that repeats an earlier input is drawn again with a wider
    change of basis, so no input occurs twice in one run, however many
    passes it makes, and a result cache cannot stand in for work.
    """
    rng = random.Random("%s:%d:%d" % (workload, seed, index))
    cases = []
    for make in WORKLOADS[workload]():
        for attempt in range(100):
            case = make(rng, attempt // 10)
            text = json.dumps(case.payload, sort_keys=True)
            if text not in seen:
                break
        else:
            raise ValueError("cannot draw a new input for " + case.label)
        seen.add(text)
        cases.append(case)
    rng.shuffle(cases)
    return cases
