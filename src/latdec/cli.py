"""Command-line front end.

One subcommand per computational area: `decompose`, `hermitian`,
`idempotents`, `aut`, `hodge`, `algebra-check`.  Each reads a JSON file,
writes a deterministic JSON report to standard output, and exits with

  0  success
  1  malformed input (the message names the violated field or invariant)
  2  violated mathematical precondition, with a witness when one exists
  3  desk-scale guard exceeded (see LATDEC_MAX_RANK)
  4  internal invariant failure (a bug in this package, not in the input)

`--pretty` renders aligned tables instead of JSON; `--verify` re-audits
the output with the matching verification routine before printing and
never changes what is printed.
"""

import argparse
import functools
import sys

from . import jsonio
from .algebra import (
    check_l_eq_lstar,
    check_l_eq_r,
    check_nd,
    check_positive_involution,
    check_ss,
    positivity_witness,
)
from .aut import _factorization, aut_group
from .errors import (
    InternalError,
    InvalidInputError,
    LatdecError,
    PreconditionError,
    RankTooLargeError,
)
from .hermitian import decompose_hermitian, verify_hermitian_decomposition
from .hodge import decompose_hodge, verify_hodge_decomposition
from .idempotents import _unity, blocks_from_idempotents
from .lattice import audit_blocks, decompose, is_finest, verify_decomposition


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InvalidInputError("input: cannot read %s (%s)" % (path, exc))
    return jsonio.load_payload(text)


def _matrix_lines(M, pad="    "):
    cells = [[str(x) for x in row] for row in M]
    widths = [max(len(row[c]) for row in cells) for c in range(len(cells[0]))]
    return [pad + " ".join(c.rjust(w) for c, w in zip(row, widths))
            for row in cells]


def _pretty_block_report(blocks):
    lines = ["blocks: %d" % len(blocks)]
    for k, (basis, gram) in enumerate(blocks, 1):
        lines.append("block %d: rank %d" % (k, len(basis)))
        lines.append("  basis:")
        lines.extend(_matrix_lines(basis))
        lines.append("  gram:")
        lines.extend(_matrix_lines(gram))
    return "\n".join(lines) + "\n"


def _cmd_blocks(args):
    """decompose and hermitian: blocks with their Grams, the trace Gram
    for a Hermitian module."""
    payload = _load(args.input)
    if args.command == "decompose":
        X = jsonio.parse_lattice(payload)
        D, verify, audit = decompose(X), verify_decomposition, "lattice decomposition"
    else:
        X = jsonio.parse_hermitian(payload)
        D, verify, audit = decompose_hermitian(X), verify_hermitian_decomposition, "Hermitian block"
    if args.verify and not verify(X, D):
        raise InternalError("verification failed: %s audit" % audit)
    if args.pretty:
        return _pretty_block_report([(b.basis, b.gram) for b in D.blocks])
    return jsonio.dumps({"blocks": [
        {"basis": jsonio.int_matrix_json(b.basis),
         "gram": jsonio.rational_matrix_json(b.gram)}
        for b in D.blocks]})


def _cmd_idempotents(args):
    order = jsonio.parse_order(_load(args.input))
    module, found, blocks = _unity(order)
    if args.verify and not (
            audit_blocks(module.trace_gram, blocks, module.action)
            and is_finest(module.trace_gram, blocks, module.action)
            and blocks_from_idempotents(order, found.idems) == blocks):
        raise InternalError("verification failed: idempotent block audit")
    if args.pretty:
        lines = ["idempotents: %d" % len(found.idems)]
        for k, (idem, basis) in enumerate(zip(found.idems, blocks), 1):
            lines.append("idempotent %d: %s" % (k, " ".join(str(x) for x in idem)))
            lines.append("  block basis:")
            lines.extend(_matrix_lines(basis))
        return "\n".join(lines) + "\n"
    return jsonio.dumps({
        "idempotents": [list(v) for v in found.idems],
        "blocks": [jsonio.int_matrix_json(b) for b in blocks],
    })


def _cmd_aut(args):
    L = jsonio.parse_lattice(_load(args.input))
    group = aut_group(L)
    classes, ok = _factorization(L, group)
    if args.verify and not ok:
        raise InternalError("verification failed: automorphism factorization audit")
    if args.pretty:
        lines = ["order: %d" % group.order,
                 "factorization check: %s" % ("ok" if ok else "FAILED"),
                 "isometry classes: %d" % len(classes)]
        for k, (block, mult) in enumerate(classes, 1):
            lines.append("class %d: multiplicity %d" % (k, mult))
            lines.append("  block gram:")
            lines.extend(_matrix_lines(block.gram))
        lines.append("generators: %d" % len(group.generators))
        for k, W in enumerate(group.generators, 1):
            lines.append("generator %d:" % k)
            lines.extend(_matrix_lines(W))
        return "\n".join(lines) + "\n"
    return jsonio.dumps({
        "order": group.order,
        "generators": [jsonio.int_matrix_json(W) for W in group.generators],
        "factorization_ok": ok,
        "classes": [{"e": mult,
                     "block_gram": jsonio.rational_matrix_json(block.gram)}
                    for block, mult in classes],
    })


def _cmd_hodge(args):
    H = jsonio.parse_hodge(_load(args.input))
    D = decompose_hodge(H)
    if args.verify and not (
            verify_hodge_decomposition(H, D)
            and is_finest(H.positivity_form(), [b.basis for b in D.blocks], (H.j,))):
        raise InternalError("verification failed: polarised structure audit")
    if args.pretty:
        lines = ["blocks: %d" % len(D.blocks)]
        for k, block in enumerate(D.blocks, 1):
            lines.append("block %d: rank %d" % (k, block.rank))
            lines.append("  basis:")
            lines.extend(_matrix_lines(block.basis))
            lines.append("  complex operator:")
            lines.extend(_matrix_lines(block.structure.j))
            lines.append("  polarisation:")
            lines.extend(_matrix_lines(block.structure.psi))
        return "\n".join(lines) + "\n"
    return jsonio.dumps({"blocks": [
        {"basis": jsonio.int_matrix_json(block.basis),
         "J": jsonio.rational_matrix_json(block.structure.j),
         "psi": jsonio.int_matrix_json(block.structure.psi)}
        for block in D.blocks]})


def _cmd_algebra_check(args):
    algebra, involution = jsonio.parse_algebra(_load(args.input))
    positive = check_positive_involution(algebra, involution)
    report = {
        "nd": check_nd(algebra),
        "ss": check_ss(algebra),
        "l_eq_r": check_l_eq_r(algebra),
        "l_eq_lstar": check_l_eq_lstar(algebra, involution),
        "positive_star": positive,
        "witness": None,
    }
    if not positive:
        witness = positivity_witness(algebra, involution)
        report["witness"] = None if witness is None else [int(x) for x in witness]
    if args.verify:
        # positivity forces nondegeneracy forces equal one-sided traces
        if (report["positive_star"] and not report["nd"]) or (
                report["nd"] and not report["l_eq_r"]):
            raise InternalError("verification failed: trace-condition implications")
    if args.pretty:
        def yesno(flag):
            return "yes" if flag else "no"
        lines = [
            "trace pairing nondegenerate (nd): " + yesno(report["nd"]),
            "semisimple (ss): " + yesno(report["ss"]),
            "left trace = right trace (l=r): " + yesno(report["l_eq_r"]),
            "trace fixed by star (l=l*): " + yesno(report["l_eq_lstar"]),
            "positive involution (pd*): " + yesno(report["positive_star"]),
        ]
        if report["witness"] is not None:
            lines.append("witness: " + " ".join(str(x) for x in report["witness"]))
        return "\n".join(lines) + "\n"
    return jsonio.dumps(report)


_COMMANDS = (
    ("decompose", _cmd_blocks, "split a positive definite Gram matrix into orthogonal blocks"),
    ("hermitian", _cmd_blocks, "split a Hermitian module over an involutive order"),
    ("idempotents", _cmd_idempotents, "split 1 into indecomposable Hermitian idempotents"),
    ("aut", _cmd_aut, "automorphism group of a lattice and its block factorization"),
    ("hodge", _cmd_hodge, "split a polarised complex structure into indecomposables"),
    ("algebra-check", _cmd_algebra_check, "report the trace conditions of an algebra with involution"),
)


@functools.cache
def _build_parser():
    """The parser, built on first use and then shared by every call."""
    parser = _Parser(prog="latdec",
                     description="exact orthogonal decomposition of lattices, "
                                 "modules, orders and polarised structures")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, handler, help_text in _COMMANDS:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("input", help="path to the JSON input file")
        sub.add_argument("--pretty", action="store_true",
                         help="render aligned tables instead of JSON")
        sub.add_argument("--verify", action="store_true",
                         help="re-audit the result before printing (read-only)")
        sub.set_defaults(handler=handler)
    return parser


def _report_error(exc):
    print("error: %s" % exc, file=sys.stderr)
    witness = getattr(exc, "witness", None)
    if witness is not None:
        print("witness: %s" % " ".join(str(x) for x in witness), file=sys.stderr)
    minor_index = getattr(exc, "minor_index", None)
    if minor_index is not None:
        print("minor index: %d" % minor_index, file=sys.stderr)


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except SystemExit as exc:
        return 0 if exc.code is None else exc.code
    try:
        text = args.handler(args)
    except InvalidInputError as exc:
        _report_error(exc)
        return 1
    except PreconditionError as exc:
        _report_error(exc)
        return 2
    except RankTooLargeError as exc:
        _report_error(exc)
        return 3
    except LatdecError as exc:
        _report_error(exc)
        return 4
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
