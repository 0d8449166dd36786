"""The benchmark's own checks, on a few small inputs of each workload.

    python3 perfbench/selfcheck.py

Exits 0 and prints "selfcheck: ok" when
  - every generated input gets its reference answer, and a deliberately
    wrong reference is counted as a failure;
  - two traced runs over the same inputs give identical counts;
  - every traced name exists, and each latdec module that imports it
    sees the wrapper, so a renamed import cannot silently drop a span;
  - the automorphism orders the references use match a brute-force count;
  - BENCHMARK.json lists exactly the metrics run.py reports.
"""

import ast
import copy
import io
import itertools
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr

import run
import workloads
from exact import congruent
from tracer import TARGETS, Tracer

sys.path.insert(0, run.SRC)
from latdec import cli  # noqa: E402


def fail(message):
    print("selfcheck: FAILED: " + message, file=sys.stderr)
    sys.exit(1)


def small_cases(workload):
    """A few cheap cases from pass 0 of the workload."""
    cases = workloads.build_pass(workload, run.DEFAULT_SEED, 0, set())
    if workload == "structures":
        keep = [c for c in cases if c.label in (
            "idempotents M2(Z)", "idempotents Z[K4]", "hodge J0", "hodge JGEN")]
    else:
        keep = [c for c in cases if len(c.payload["gram"]) <= 3]
    return keep[:6]


def corrupt(case):
    """A copy of case whose reference answer is wrong."""
    bad = copy.deepcopy(case)
    if case.command == "aut":
        bad.expected["order"] += 1
    elif case.command == "idempotents":
        bad.expected["idempotents"].reverse()
        bad.expected["idempotents"].append(bad.expected["idempotents"][0])
    else:
        bad.expected["blocks"][0]["basis"][0][-1] += 1
    return bad


def check_references(workdir):
    for workload in workloads.WORKLOADS:
        cases = small_cases(workload)
        if len(cases) < 3:
            fail("too few small cases in workload %s" % workload)
        runner = run.Runner(cli, workdir)
        runner.run_pass(0, cases)
        if runner.failed_calls:
            fail("%s: correct answers counted as failures: %s"
                 % (workload, sorted(runner.failed_calls)))
        with redirect_stderr(io.StringIO()):  # the expected failure report
            runner.run_pass(1, [corrupt(cases[0])] + cases[1:])
        if runner.failed_calls != {(1, 0)}:
            fail("%s: a wrong reference was not counted as the one failure"
                 % workload)


def traced_counts(cases, workdir):
    tracer = Tracer()
    with tracer:
        run.Runner(cli, workdir).run_pass(0, cases)
    return dict(tracer.calls), dict(tracer.tallies)


def check_trace_repeats(workdir):
    for workload in workloads.WORKLOADS:
        cases = small_cases(workload)
        first = traced_counts(cases, workdir)
        if first != traced_counts(cases, workdir):
            fail("%s: traced counts differ between two runs" % workload)
        if not first[0].get("cli.main"):
            fail("%s: cli.main was not traced" % workload)


def importers():
    """(module, name) -> latdec modules that import name from module."""
    found = {}
    pkg = os.path.join(run.SRC, "latdec")
    for filename in sorted(os.listdir(pkg)):
        if not filename.endswith(".py"):
            continue
        here = "latdec" if filename == "__init__.py" else "latdec." + filename[:-3]
        with open(os.path.join(pkg, filename), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    key = ("latdec." + node.module, alias.name)
                    found.setdefault(key, []).append((here, alias.asname or alias.name))
    return found


def check_trace_sites():
    tracer = Tracer()
    lookups = importers()
    with tracer:
        if tracer.missing:
            fail("trace targets not found: %s" % ", ".join(tracer.missing))
        for modname, attr, name, kind in TARGETS:
            if kind == "init":
                continue
            sites = [("latdec." + modname, attr)] + lookups.get(
                ("latdec." + modname, attr), [])
            for mod, local in sites:
                if not hasattr(getattr(sys.modules[mod], local), "__wrapped__"):
                    fail("%s.%s is looked up there but not traced" % (mod, local))


def brute_force_aut_order(G, box=3):
    n = len(G)
    rows = list(itertools.product(range(-box, box + 1), repeat=n))
    return sum(1 for W in itertools.product(rows, repeat=n)
               if congruent([list(r) for r in W], G) == G)


def check_aut_orders():
    for name in ("1", "2", "3", "A2", "F5"):
        gram, order = workloads.BLOCKS[name]
        if brute_force_aut_order(gram) != order:
            fail("|Aut(%s)| is not %d" % (name, order))


def check_benchmark_json():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != list(run.END_TO_END):
        fail("BENCHMARK.json end_to_end differs from run.END_TO_END")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    reported = run.per_layer_metrics(Tracer(), 0.0)
    if declared != [(name, unit) for name, (_, unit) in reported.items()]:
        fail("BENCHMARK.json per_layer differs from run.per_layer_metrics()")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def main():
    os.environ.pop("LATDEC_MAX_RANK", None)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        check_references(workdir)
        check_trace_repeats(workdir)
    check_trace_sites()
    check_aut_orders()
    check_benchmark_json()
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
