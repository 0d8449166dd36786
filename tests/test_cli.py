"""End-to-end tests for the command-line interface and its exit codes."""

import json
import random
import subprocess
import sys
import time

import pytest

import latdec.cli
import latdec.lattice
from latdec.cli import main
from latdec.hermitian import regular_module
from latdec.hodge import HodgeBlock, HodgeDecomposition, PolarisedComplexStructure
from latdec.idempotents import IdempotentDecomposition
from latdec.lattice import Block, OrthoDecomposition, restrict_gram
from latdec.linalg import hnf_basis, inverse, mat_mul, to_int_matrix, transpose
from builders import gaussian_order, matrix_order, zxz
from oracles import random_unimodular

I3 = {"gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
A2 = {"gram": [[2, -1], [-1, 2]]}
# Z^6 + <12> under a unimodular change of basis
Z6_PLUS_12 = {"gram": [[12, -12, 0, 0, 12, 12, 0], [-12, 15, 0, 1, -13, -14, 0],
                       [0, 0, 1, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0, 0],
                       [12, -13, 0, 0, 13, 13, 0], [12, -14, 0, 0, 13, 15, 0],
                       [0, 0, 0, 0, 0, 0, 1]]}
# diag(1/2, 1/3) + A2
RATIONAL_A2 = {"gram": [["1/2", 0, 0, 0], [0, "1/3", 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]]}
ELLIPTIC = {"g": 1, "J": [["0", "-1"], ["1", "0"]], "psi": [[0, 1], [-1, 0]]}
PRODUCT_HODGE = {
    "g": 2,
    "J": [["0", "-1", "0", "0"],
          ["1", "0", "0", "0"],
          ["0", "0", "0", "-1/2"],
          ["0", "0", "2", "0"]],
    "psi": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
}
DUAL_NUMBERS = {
    "dim": 2,
    "structure_constants": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
    "one": [1, 0],
    "involution": [[1, 0], [0, 1]],
}


def order_payload(order):
    return {
        "dim": order.dim,
        "structure_constants": [
            [[str(x) for x in row] for row in plane]
            for plane in order.algebra.structure
        ],
        "one": [str(x) for x in order.algebra.one],
        "involution": [[str(x) for x in row] for row in order.involution.matrix],
    }


def module_payload(module):
    payload = order_payload(module.order)
    payload["action"] = [
        [[str(x) for x in row] for row in mat] for mat in module.action
    ]
    payload["form"] = [
        [[str(x) for x in vec] for vec in row] for row in module.form
    ]
    return payload


@pytest.fixture
def cli(tmp_path, capsys):
    def run(command, payload, *flags, raw=None):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload) if raw is None else raw)
        code = main([command, str(path), *flags])
        out, err = capsys.readouterr()
        return code, out, err
    return run


class TestDecomposeCommand:
    def test_unit_lattice_three_blocks(self, cli):
        code, out, err = cli("decompose", I3)
        assert code == 0
        assert json.loads(out) == {"blocks": [
            {"basis": [[0, 0, 1]], "gram": [["1"]]},
            {"basis": [[0, 1, 0]], "gram": [["1"]]},
            {"basis": [[1, 0, 0]], "gram": [["1"]]},
        ]}

    def test_hexagonal_lattice_single_block(self, cli):
        code, out, _ = cli("decompose", A2)
        assert code == 0
        assert json.loads(out) == {"blocks": [
            {"basis": [[1, 0], [0, 1]], "gram": [["2", "-1"], ["-1", "2"]]},
        ]}

    def test_rational_gram(self, cli):
        code, out, _ = cli("decompose", {"gram": [["1", "1/2"], ["1/2", "1"]]})
        assert code == 0
        assert json.loads(out)["blocks"][0]["gram"] == [["1", "1/2"], ["1/2", "1"]]

    def test_byte_identical_and_verify_neutral(self, cli):
        first = cli("decompose", A2)
        second = cli("decompose", A2)
        audited = cli("decompose", A2, "--verify")
        assert first == second == audited

    def test_pretty(self, cli):
        code, out, _ = cli("decompose", A2, "--pretty")
        assert code == 0
        assert "block 1: rank 2" in out
        assert "2 -1" in out

    def test_not_positive_definite_exits_2(self, cli):
        code, out, err = cli("decompose", {"gram": [[0, 0], [0, 1]]})
        assert code == 2
        assert out == ""
        assert "minor index: 1" in err

    def test_asymmetric_exits_1(self, cli):
        code, _, err = cli("decompose", {"gram": [[1, 2], [3, 1]]})
        assert code == 1
        assert "gram" in err

    def test_invalid_json_exits_1(self, cli):
        code, _, err = cli("decompose", {}, raw="{not json")
        assert code == 1
        assert "not valid JSON" in err

    def test_unexpected_field_exits_1(self, cli):
        code, _, err = cli("decompose", {"gram": [[1]], "extra": 1})
        assert code == 1
        assert "extra" in err

    def test_missing_field_exits_1(self, cli):
        code, _, err = cli("decompose", {})
        assert code == 1
        assert "gram: missing" in err

    def test_float_entry_exits_1(self, cli):
        code, _, err = cli("decompose", {"gram": [[1.5, 0], [0, 1]]})
        assert code == 1
        assert "gram[0][0]" in err

    def test_boolean_entry_exits_1(self, cli):
        code, _, err = cli("decompose", {"gram": [[True]]})
        assert code == 1
        assert "boolean" in err

    def test_nonsquare_exits_1(self, cli):
        code, _, err = cli("decompose", {"gram": [[1, 0]]})
        assert code == 1
        assert "square" in err

    def test_missing_file_exits_1(self, capsys):
        code = main(["decompose", "/nonexistent/nowhere.json"])
        _, err = capsys.readouterr()
        assert code == 1
        assert "cannot read" in err

    def test_unknown_command_exits_1(self, capsys):
        code = main(["frobnicate", "x.json"])
        _, err = capsys.readouterr()
        assert code == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        out, _ = capsys.readouterr()
        assert "decompose" in out


class TestGuards:
    def test_rank_guard_exits_3(self, cli):
        big = {"gram": [[1 if i == j else 0 for j in range(13)] for i in range(13)]}
        code, _, err = cli("decompose", big)
        assert code == 3
        assert "LATDEC_MAX_RANK" in err

    def test_env_override_lifts_guard(self, cli, monkeypatch):
        monkeypatch.setenv("LATDEC_MAX_RANK", "13")
        big = {"gram": [[1 if i == j else 0 for j in range(13)] for i in range(13)]}
        code, out, _ = cli("decompose", big)
        assert code == 0
        assert len(json.loads(out)["blocks"]) == 13

    def test_env_override_tightens_guard(self, cli, monkeypatch):
        monkeypatch.setenv("LATDEC_MAX_RANK", "2")
        code, _, _ = cli("aut", I3)
        assert code == 3

    def test_aut_default_guard(self, cli):
        big = {"gram": [[1 if i == j else 0 for j in range(9)] for i in range(9)]}
        code, _, _ = cli("aut", big)
        assert code == 3

    def test_work_guard_exits_3(self, cli, monkeypatch):
        monkeypatch.setattr(latdec.lattice, "DECOMPOSE_MAX_NODES", 3)
        code, out, err = cli("decompose", A2)
        assert (code, out) == (3, "")
        assert "sphere search: 4 nodes exceed the decomposition work guard 3" in err


def block_sum(grams):
    n = sum(len(g) for g in grams)
    out, off = [[0] * n for _ in range(n)], 0
    for g in grams:
        for i, row in enumerate(g):
            out[off + i][off:off + len(row)] = row
        off += len(g)
    return tuple(tuple(row) for row in out)


def e8():
    edges = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))
    G = [[2 * (i == j) for j in range(8)] for i in range(8)]
    for a, b in edges:
        G[a - 1][b - 1] = G[b - 1][a - 1] = -1
    return tuple(tuple(row) for row in G)


class TestWideNorms:
    """Block norms spread far apart, on which the former ball enumeration
    ran for more than 20 s: each input exits 0 with its planted blocks, in
    a random basis, under --verify."""

    @pytest.mark.parametrize("grams", [
        [((10 ** 30,),), ((1,),)],
        [((1,),)] * 7 + [((50,),)],
        [((2, -1), (-1, 2))] * 4 + [((97,),)],
        [e8(), ((1000,),)],
    ], ids=["diag(10^30, 1)", "Z^7 + <50>", "A2^4 + <97>", "E8 + <1000>"])
    def test_scrambled_planted_sums(self, cli, grams):
        n = sum(len(g) for g in grams)
        U = random_unimodular(random.Random(1), n, 3, 12 + 2 * n)
        V = to_int_matrix(inverse(U))
        planted, off = [], 0
        for g in grams:
            planted.append(hnf_basis(tuple(V[off + i] for i in range(len(g)))))
            off += len(g)
        gram = mat_mul(mat_mul(U, block_sum(grams)), transpose(U))
        started = time.perf_counter()
        code, out, _ = cli("decompose", {"gram": [list(row) for row in gram]}, "--verify")
        assert time.perf_counter() - started < 2
        assert code == 0
        assert sorted(tuple(map(tuple, b["basis"])) for b in json.loads(out)["blocks"]) \
            == sorted(planted)

    def test_indecomposable_long_plane(self, cli):
        started = time.perf_counter()
        code, out, _ = cli("decompose", {"gram": [[2, 1], [1, 10 ** 30]]}, "--verify")
        assert time.perf_counter() - started < 2
        assert code == 0
        assert json.loads(out)["blocks"] == [
            {"basis": [[1, 0], [0, 1]], "gram": [["2", "1"], ["1", str(10 ** 30)]]}]


class TestIdempotentsCommand:
    def test_matrix_ring(self, cli):
        code, out, _ = cli("idempotents", order_payload(matrix_order(2)))
        assert code == 0
        assert json.loads(out) == {
            "idempotents": [[0, 0, 0, 1], [1, 0, 0, 0]],
            "blocks": [
                [[0, 1, 0, 0], [0, 0, 0, 1]],
                [[1, 0, 0, 0], [0, 0, 1, 0]],
            ],
        }

    def test_gaussian_is_indecomposable(self, cli):
        code, out, _ = cli("idempotents", order_payload(gaussian_order()))
        assert code == 0
        assert json.loads(out)["idempotents"] == [[1, 0]]

    def test_swap_involution_exits_2_with_witness(self, cli):
        code, out, err = cli("idempotents", order_payload(zxz(swap=True)))
        assert code == 2
        assert out == ""
        assert "positive" in err
        assert "witness:" in err

    def test_fractional_order_exits_1(self, cli):
        half = {
            "dim": 2,
            "structure_constants": [[[1, 0], [0, 1]], [[0, 1], ["-1/2", 0]]],
            "one": [1, 0],
            "involution": [[1, 0], [0, 1]],
        }
        code, _, err = cli("idempotents", half)
        assert code == 1
        assert "integer" in err

    def test_bad_involution_exits_1(self, cli):
        payload = order_payload(gaussian_order())
        payload["involution"] = [["1", "1"], ["0", "1"]]
        code, _, err = cli("idempotents", payload)
        assert code == 1
        assert "involution" in err

    def test_verify_round_trip_neutral(self, cli):
        plain = cli("idempotents", order_payload(matrix_order(2)))
        audited = cli("idempotents", order_payload(matrix_order(2)), "--verify")
        assert plain == audited

    def test_pretty(self, cli):
        code, out, _ = cli("idempotents", order_payload(matrix_order(2)), "--pretty")
        assert code == 0
        assert "idempotent 1: 0 0 0 1" in out


class TestAlgebraCheckCommand:
    def test_gaussian_all_good(self, cli):
        code, out, _ = cli("algebra-check", order_payload(gaussian_order()))
        assert code == 0
        assert json.loads(out) == {
            "nd": True, "ss": True, "l_eq_r": True, "l_eq_lstar": True,
            "positive_star": True, "witness": None,
        }

    def test_dual_numbers_degenerate(self, cli):
        code, out, _ = cli("algebra-check", DUAL_NUMBERS)
        assert code == 0
        assert json.loads(out) == {
            "nd": False, "ss": False, "l_eq_r": True, "l_eq_lstar": True,
            "positive_star": False, "witness": [0, 1],
        }

    def test_swap_involution_reports_witness(self, cli):
        code, out, _ = cli("algebra-check", order_payload(zxz(swap=True)))
        assert code == 0
        report = json.loads(out)
        assert report["nd"] and report["l_eq_r"] and report["l_eq_lstar"]
        assert not report["positive_star"]
        assert report["witness"] == [1, 0]

    def test_accepts_rational_structure_constants(self, cli):
        halved = {
            "dim": 2,
            "structure_constants": [[[1, 0], [0, 1]], [[0, 1], ["-1/2", 0]]],
            "one": [1, 0],
            "involution": [[1, 0], [0, 1]],
        }
        code, out, _ = cli("algebra-check", halved)
        assert code == 0
        report = json.loads(out)
        assert report["nd"] and not report["positive_star"]
        assert report["witness"] == [0, 1]

    def test_pretty(self, cli):
        code, out, _ = cli("algebra-check", order_payload(zxz(swap=True)), "--pretty")
        assert code == 0
        assert "(pd*): no" in out
        assert "witness: 1 0" in out


class TestAutCommand:
    def test_hexagonal(self, cli):
        code, out, _ = cli("aut", A2)
        assert code == 0
        report = json.loads(out)
        assert report["order"] == 12
        assert report["factorization_ok"] is True
        assert report["classes"] == [
            {"e": 1, "block_gram": [["2", "-1"], ["-1", "2"]]},
        ]
        for W in report["generators"]:
            assert len(W) == 2 and all(len(row) == 2 for row in W)

    def test_mixed_lattice_classes(self, cli):
        gram = {"gram": [[2, -1, 0], [-1, 2, 0], [0, 0, 2]]}
        code, out, _ = cli("aut", gram)
        assert code == 0
        report = json.loads(out)
        assert report["order"] == 24
        assert report["classes"] == [
            {"e": 1, "block_gram": [["2"]]},
            {"e": 1, "block_gram": [["2", "-1"], ["-1", "2"]]},
        ]

    def test_pretty(self, cli):
        code, out, _ = cli("aut", A2, "--pretty")
        assert code == 0
        assert "order: 12" in out
        assert "factorization check: ok" in out

    def test_verify_neutral(self, cli):
        assert cli("aut", A2) == cli("aut", A2, "--verify")

    def test_long_block_verifies(self, cli):
        code, out, _ = cli("aut", Z6_PLUS_12, "--verify")
        assert code == 0
        report = json.loads(out)
        assert report["order"] == 92_160
        assert report["factorization_ok"] is True


# (input, order, generators, classes, --pretty stdout) of `aut`.  The
# generators depend on the search order, so a change to it shows here.
AUT_PINS = [
    (A2, 12, [
        [[1, 0],
         [-1, -1]],
        [[0, 1],
         [1, 0]],
        [[0, -1],
         [-1, 0]],
    ], [{"e": 1, "block_gram": [["2", "-1"], ["-1", "2"]]}],
     """\
order: 12
factorization check: ok
isometry classes: 1
class 1: multiplicity 1
  block gram:
     2 -1
    -1  2
generators: 3
generator 1:
     1  0
    -1 -1
generator 2:
    0 1
    1 0
generator 3:
     0 -1
    -1  0
"""),
    (Z6_PLUS_12, 92160, [
        [[-1, 0, 0, 0, 0, 0, 0],
         [2, 1, 0, 0, 0, 0, 0],
         [0, 0, 1, 0, 0, 0, 0],
         [0, 0, 0, 1, 0, 0, 0],
         [-2, 0, 0, 0, 1, 0, 0],
         [-2, 0, 0, 0, 0, 1, 0],
         [0, 0, 0, 0, 0, 0, 1]],
        [[1, 0, 0, 0, 0, 0, 0],
         [0, 1, 0, 0, 0, 0, 0],
         [0, 0, 1, 0, 0, 0, 0],
         [0, 0, 0, 1, 0, 0, 0],
         [0, 0, 0, 0, 1, 0, 0],
         [0, 0, 0, 0, 0, 1, 0],
         [0, 0, 0, 0, 0, 0, -1]],
        [[1, 0, 0, 0, 0, 0, 0],
         [0, 1, 0, 0, 0, 0, 0],
         [0, 0, 1, 0, 0, 0, 0],
         [0, 0, 0, 1, 0, 0, 0],
         [0, 0, 0, 0, 1, 0, 0],
         [0, -1, 0, 1, 0, 0, 1],
         [0, 1, 0, -1, 0, 1, 0]],
        [[1, 0, 0, 0, 0, 0, 0],
         [0, 0, 0, 1, -1, 0, 1],
         [0, 0, 1, 0, 0, 0, 0],
         [0, 0, 0, 1, 0, 0, 0],
         [0, 0, 0, 0, 1, 0, 0],
         [0, 1, 0, -1, 1, 1, -1],
         [0, 1, 0, -1, 1, 0, 0]],
        [[1, 0, 0, 0, 0, 0, 0],
         [-1, 1, 0, 0, 0, 1, -1],
         [0, 0, 1, 0, 0, 0, 0],
         [0, 0, 0, 1, 0, 0, 0],
         [1, 0, 0, 0, 0, 0, 1],
         [1, 0, 0, 0, 1, -1, 1],
         [-1, 0, 0, 0, 1, 0, 0]],
        [[1, 0, 0, 0, 0, 0, 0],
         [-1, 0, 0, 0, 1, -1, 1],
         [0, 0, 1, 0, 0, 0, 0],
         [0, 0, 0, 0, 0, 0, 1],
         [1, 1, 0, -1, 0, 1, 0],
         [0, 0, 0, 0, 0, 1, 0],
         [0, 0, 0, 1, 0, 0, 0]],
        [[1, 0, 0, 0, 0, 0, 0],
         [-2, 0, 0, 0, 0, 1, 0],
         [0, 0, 0, 0, 0, 0, 1],
         [0, 1, 0, -1, 0, 1, 0],
         [1, 1, 0, -1, 1, 0, 0],
         [2, 1, 0, 0, 0, 0, 0],
         [0, 0, 1, 0, 0, 0, 0]],
    ], [{"e": 6, "block_gram": [["1"]]}, {"e": 1, "block_gram": [["12"]]}],
     """\
order: 92160
factorization check: ok
isometry classes: 2
class 1: multiplicity 6
  block gram:
    1
class 2: multiplicity 1
  block gram:
    12
generators: 7
generator 1:
    -1 0 0 0 0 0 0
     2 1 0 0 0 0 0
     0 0 1 0 0 0 0
     0 0 0 1 0 0 0
    -2 0 0 0 1 0 0
    -2 0 0 0 0 1 0
     0 0 0 0 0 0 1
generator 2:
    1 0 0 0 0 0  0
    0 1 0 0 0 0  0
    0 0 1 0 0 0  0
    0 0 0 1 0 0  0
    0 0 0 0 1 0  0
    0 0 0 0 0 1  0
    0 0 0 0 0 0 -1
generator 3:
    1  0 0  0 0 0 0
    0  1 0  0 0 0 0
    0  0 1  0 0 0 0
    0  0 0  1 0 0 0
    0  0 0  0 1 0 0
    0 -1 0  1 0 0 1
    0  1 0 -1 0 1 0
generator 4:
    1 0 0  0  0 0  0
    0 0 0  1 -1 0  1
    0 0 1  0  0 0  0
    0 0 0  1  0 0  0
    0 0 0  0  1 0  0
    0 1 0 -1  1 1 -1
    0 1 0 -1  1 0  0
generator 5:
     1 0 0 0 0  0  0
    -1 1 0 0 0  1 -1
     0 0 1 0 0  0  0
     0 0 0 1 0  0  0
     1 0 0 0 0  0  1
     1 0 0 0 1 -1  1
    -1 0 0 0 1  0  0
generator 6:
     1 0 0  0 0  0 0
    -1 0 0  0 1 -1 1
     0 0 1  0 0  0 0
     0 0 0  0 0  0 1
     1 1 0 -1 0  1 0
     0 0 0  0 0  1 0
     0 0 0  1 0  0 0
generator 7:
     1 0 0  0 0 0 0
    -2 0 0  0 0 1 0
     0 0 0  0 0 0 1
     0 1 0 -1 0 1 0
     1 1 0 -1 1 0 0
     2 1 0  0 0 0 0
     0 0 1  0 0 0 0
"""),
    (RATIONAL_A2, 48, [
        [[1, 0, 0, 0],
         [0, 1, 0, 0],
         [0, 0, 1, 0],
         [0, 0, -1, -1]],
        [[1, 0, 0, 0],
         [0, 1, 0, 0],
         [0, 0, 0, 1],
         [0, 0, 1, 0]],
        [[1, 0, 0, 0],
         [0, 1, 0, 0],
         [0, 0, 0, -1],
         [0, 0, -1, 0]],
        [[-1, 0, 0, 0],
         [0, 1, 0, 0],
         [0, 0, 0, 1],
         [0, 0, 1, 0]],
        [[1, 0, 0, 0],
         [0, -1, 0, 0],
         [0, 0, 0, 1],
         [0, 0, 1, 0]],
    ], [{"e": 1, "block_gram": [["1/3"]]}, {"e": 1, "block_gram": [["1/2"]]},
        {"e": 1, "block_gram": [["2", "-1"], ["-1", "2"]]}],
     """\
order: 48
factorization check: ok
isometry classes: 3
class 1: multiplicity 1
  block gram:
    1/3
class 2: multiplicity 1
  block gram:
    1/2
class 3: multiplicity 1
  block gram:
     2 -1
    -1  2
generators: 5
generator 1:
    1 0  0  0
    0 1  0  0
    0 0  1  0
    0 0 -1 -1
generator 2:
    1 0 0 0
    0 1 0 0
    0 0 0 1
    0 0 1 0
generator 3:
    1 0  0  0
    0 1  0  0
    0 0  0 -1
    0 0 -1  0
generator 4:
    -1 0 0 0
     0 1 0 0
     0 0 0 1
     0 0 1 0
generator 5:
    1  0 0 0
    0 -1 0 0
    0  0 0 1
    0  0 1 0
"""),
]


class TestAutPinnedOutput:
    """The exact stdout of `aut`, JSON and --pretty, on three inputs."""

    @pytest.mark.parametrize("payload, order, generators, classes, pretty", AUT_PINS,
                             ids=["A2", "Z6+<12>", "diag(1/2,1/3)+A2"])
    def test_exact_stdout(self, cli, payload, order, generators, classes, pretty):
        expected = {"order": order, "generators": generators,
                    "factorization_ok": True, "classes": classes}
        assert cli("aut", payload) == (0, json.dumps(expected, indent=2) + "\n", "")
        assert cli("aut", payload, "--pretty") == (0, pretty, "")


class TestHermitianCommand:
    def test_gaussian_regular_module(self, cli):
        payload = module_payload(regular_module(gaussian_order()))
        code, out, _ = cli("hermitian", payload)
        assert code == 0
        assert json.loads(out) == {"blocks": [
            {"basis": [[1, 0], [0, 1]], "gram": [["2", "0"], ["0", "2"]]},
        ]}

    def test_split_product_module(self, cli):
        payload = module_payload(regular_module(zxz()))
        code, out, _ = cli("hermitian", payload)
        assert code == 0
        assert json.loads(out) == {"blocks": [
            {"basis": [[0, 1]], "gram": [["1"]]},
            {"basis": [[1, 0]], "gram": [["1"]]},
        ]}

    def test_swap_involution_exits_2(self, cli):
        # positivity of the star is checked before the form is touched, so
        # swapping the involution on the Z x Z payload is enough
        payload = module_payload(regular_module(zxz()))
        payload["involution"] = [["0", "1"], ["1", "0"]]
        code, _, err = cli("hermitian", payload)
        assert code == 2
        assert "positive" in err
        assert "witness:" in err

    def test_wrong_action_count_exits_1(self, cli):
        payload = module_payload(regular_module(gaussian_order()))
        payload["action"] = payload["action"][:1]
        code, _, err = cli("hermitian", payload)
        assert code == 1
        assert "action" in err

    def test_bad_form_vector_exits_1(self, cli):
        payload = module_payload(regular_module(gaussian_order()))
        payload["form"][0][0] = ["1"]
        code, _, err = cli("hermitian", payload)
        assert code == 1
        assert "form[0][0]" in err

    def test_verify_neutral(self, cli):
        payload = module_payload(regular_module(gaussian_order()))
        assert cli("hermitian", payload) == cli("hermitian", payload, "--verify")


class TestHodgeCommand:
    def test_single_curve(self, cli):
        code, out, _ = cli("hodge", ELLIPTIC)
        assert code == 0
        assert json.loads(out) == {"blocks": [
            {"basis": [[1, 0], [0, 1]],
             "J": [["0", "-1"], ["1", "0"]],
             "psi": [[0, 1], [-1, 0]]},
        ]}

    def test_product_splits_into_planes(self, cli):
        code, out, _ = cli("hodge", PRODUCT_HODGE)
        assert code == 0
        assert json.loads(out) == {"blocks": [
            {"basis": [[0, 0, 1, 0], [0, 0, 0, 1]],
             "J": [["0", "-1/2"], ["2", "0"]],
             "psi": [[0, 1], [-1, 0]]},
            {"basis": [[1, 0, 0, 0], [0, 1, 0, 0]],
             "J": [["0", "-1"], ["1", "0"]],
             "psi": [[0, 1], [-1, 0]]},
        ]}

    def test_g_mismatch_exits_1(self, cli):
        bad = dict(ELLIPTIC, g=2)
        code, _, err = cli("hodge", bad)
        assert code == 1
        assert "J" in err

    def test_fractional_psi_exits_1(self, cli):
        bad = dict(ELLIPTIC, psi=[["0", "1/2"], ["-1/2", "0"]])
        code, _, err = cli("hodge", bad)
        assert code == 1
        assert "integer" in err

    def test_wrong_orientation_exits_2(self, cli):
        bad = dict(ELLIPTIC, J=[["0", "1"], ["-1", "0"]])
        code, _, err = cli("hodge", bad)
        assert code == 2
        assert "minor index: 1" in err

    def test_non_integral_adjoint_splits_into_planes(self, cli):
        # the adjoint leaves the endomorphism order, yet the splitting
        # exists for any polarisation
        bad = {
            "g": 2,
            "J": [["0", "-1", "0", "0"],
                  ["1", "0", "0", "0"],
                  ["0", "0", "0", "-1"],
                  ["0", "0", "1", "0"]],
            "psi": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]],
        }
        code, out, _ = cli("hodge", bad)
        assert code == 0
        assert [b["basis"] for b in json.loads(out)["blocks"]] == [
            [[0, 0, 1, 0], [0, 0, 0, 1]], [[1, 0, 0, 0], [0, 1, 0, 0]]]

    def test_pretty(self, cli):
        code, out, _ = cli("hodge", PRODUCT_HODGE, "--pretty")
        assert code == 0
        assert "blocks: 2" in out
        assert "complex operator:" in out

    def test_verify_neutral(self, cli):
        assert cli("hodge", PRODUCT_HODGE) == cli("hodge", PRODUCT_HODGE, "--verify")


def claimed_blocks(gram, bases):
    return OrthoDecomposition(tuple(
        Block(basis=b, gram=restrict_gram(gram, b)) for b in bases))


WHOLE2 = ((1, 0), (0, 1))
LINES2 = (((1, 0),), ((0, 1),))
J0 = ((0, -1), (1, 0))
PSI0 = ((0, 1), (-1, 0))


class TestVerifyCatchesABadSplit:
    """--verify exits 4 when the decomposer returns a coarser or a coupled
    split; without it the bad split is printed."""

    def run(self, cli, monkeypatch, name, fake, command, payload):
        monkeypatch.setattr(latdec.cli, name, fake)
        assert cli(command, payload)[0] == 0
        code, out, err = cli(command, payload, "--verify")
        assert (code, out) == (4, "")
        assert "verification failed" in err

    @pytest.mark.parametrize("payload, bases", [(I3, (((1, 0, 0), (0, 1, 0), (0, 0, 1)),)),
                                                (A2, LINES2)])
    def test_decompose(self, cli, monkeypatch, payload, bases):
        def fake(L):
            return claimed_blocks(L.gram, bases)
        self.run(cli, monkeypatch, "decompose", fake, "decompose", payload)

    @pytest.mark.parametrize("order, bases", [(zxz(), (WHOLE2,)), (gaussian_order(), LINES2)])
    def test_hermitian(self, cli, monkeypatch, order, bases):
        def fake(module):
            return claimed_blocks(module.trace_gram, bases)
        self.run(cli, monkeypatch, "decompose_hermitian", fake, "hermitian",
                 module_payload(regular_module(order)))

    @pytest.mark.parametrize("order, idems, bases", [
        (zxz(), ((1, 1),), (WHOLE2,)),
        (gaussian_order(), ((0, 1), (1, 0)), LINES2),
    ])
    def test_idempotents(self, cli, monkeypatch, order, idems, bases):
        def fake(order):
            return regular_module(order), IdempotentDecomposition(idems), bases
        self.run(cli, monkeypatch, "_unity", fake, "idempotents", order_payload(order))

    @pytest.mark.parametrize("bases", [
        (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),),
        (((1, 0, 0, 0), (0, 0, 1, 0)), ((0, 1, 0, 0), (0, 0, 0, 1))),
    ])
    def test_hodge(self, cli, monkeypatch, bases):
        def fake(H):
            if len(bases) == 1:
                return HodgeDecomposition((HodgeBlock(basis=bases[0], structure=H),))
            plane = PolarisedComplexStructure(J0, PSI0)
            return HodgeDecomposition(tuple(HodgeBlock(basis=b, structure=plane)
                                            for b in bases))
        self.run(cli, monkeypatch, "decompose_hodge", fake, "hodge", PRODUCT_HODGE)


class TestModuleInvocation:
    def test_python_dash_m(self, tmp_path):
        path = tmp_path / "i3.json"
        path.write_text(json.dumps(I3))
        proc = subprocess.run(
            [sys.executable, "-m", "latdec.cli", "decompose", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert len(json.loads(proc.stdout)["blocks"]) == 3


class TestCallsInARow:
    def test_each_call_prints_what_it_prints_alone(self, tmp_path, capsys):
        # one parser serves every in-process call, so no flag of one call
        # may reach the next; each call alone is a fresh interpreter
        calls = [("aut", A2, "--pretty"), ("hodge", PRODUCT_HODGE),
                 ("decompose", I3, "--verify"), ("hodge", ELLIPTIC, "--pretty"),
                 ("aut", A2), ("algebra-check", DUAL_NUMBERS)]
        argvs = []
        for k, (command, payload, *flags) in enumerate(calls):
            path = tmp_path / ("input%d.json" % k)
            path.write_text(json.dumps(payload))
            argvs.append([command, str(path), *flags])
        in_a_row = []
        for argv in argvs:
            code = main(argv)
            in_a_row.append((code, capsys.readouterr().out))
        for argv, got in zip(argvs, in_a_row):
            alone = subprocess.run([sys.executable, "-m", "latdec.cli", *argv],
                                   capture_output=True, text=True)
            assert got == (alone.returncode, alone.stdout)
