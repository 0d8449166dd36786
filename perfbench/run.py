"""latdec benchmark: seeded CLI workloads, timed end to end or traced by layer.

    python3 perfbench/run.py --workload {lattice,aut,structures}
                             [--seed N] [--seconds S] [--trace 0|1]

Runs `latdec.cli.main` in this interpreter on inputs generated from the
seed (see workloads.py), with the sources taken from `src/` beside this
directory.  Every answer is checked against a reference built from the
input's construction.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the line before it,
prefixed `context:`, records the machine, the seed and the digests of
the output, none of which is gated.

With `--trace 0` the run makes passes over fresh inputs until another
pass would overrun `--seconds`, and reports the end-to-end metrics.  Their
times are scaled to a reference host speed, measured by a short fixed
loop before every call (see host_adjusted); the raw times are in the
context line.
With `--trace 1` it makes a fixed amount of work instead, so every count
repeats exactly: one untraced pass, then one pass with per-layer spans
(tracer.py), and reports the per-layer metrics.

Seed 1 is the default for comparisons.  Seed 7919 is reserved: use it
only to confirm a claimed gain on inputs the change was not tuned on.
"""

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(ROOT, ".perfbench-digests.json")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import TALLIES, TARGETS, METHOD_COUNTERS, Tracer  # noqa: E402

DEFAULT_SEED = 1
CONFIRM_SEED = 7919
SETUP_IMPORTS = 11  # fresh interpreters timed per run; the median is reported
PROBE_LOOPS = 20000  # iterations of the host-speed probe, about 1.5 ms
REFERENCE_PROBE_S = 0.0015  # probe time that defines the reference host speed
PROBE_WINDOW = 16  # probes on each side of a call that set its speed
REPLAYED = 12  # calls of pass 0 re-run in a fresh interpreter per run
CHILD_TIMEOUT = 120

SPANS = tuple(dict.fromkeys(name for _, _, name, kind in TARGETS if kind != "count"))
COUNTERS = tuple(name for _, _, name, kind in TARGETS if kind == "count") + tuple(
    name for _, _, _, name in METHOD_COUNTERS)
INCLUSIVE = ("lattice.verify_decomposition", "aut.verify_aut_factorization",
             "hodge.verify_hodge_decomposition")
END_TO_END = (("total_s", "s"), ("p50_ms", "ms"), ("p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("success_frac", "fraction"))


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer_metrics(tr, overhead_s):
    """Name -> (value, unit) of every per-layer metric, in report order."""
    calls, tallies = tr.calls, tr.tallies
    out = {}
    for name in SPANS:
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".self_s"] = (tr.self_s[name], "s")
    for name in COUNTERS:
        out[name + ".calls"] = (calls[name], "count")
    for name in INCLUSIVE:
        out[name + ".total_s"] = (tr.total_s[name], "s")
    for name, (key, _) in TALLIES.items():
        out[name + "." + key] = (tallies[name + "." + key], "count")
    minor = "linalg.first_nonpositive_minor"
    out[minor + ".per_call"] = (1000 * _ratio(tr.total_s[minor], calls[minor]), "ms")
    out["lattice.vectors_per_rank"] = (_ratio(
        tallies["linalg.enumerate_short_vectors.vectors"],
        tallies["lattice.decompose_pipeline.rank_sum"]), "vectors/rank")
    out["linalg.lll_reduce.per_decompose"] = (_ratio(
        calls["linalg.lll_reduce"], calls["lattice.decompose_pipeline"]), "calls/pipeline")
    out["aut.closure_per_element"] = (_ratio(
        tallies["aut.group_closure.elements"], tallies["aut.aut_group.order_sum"]),
        "elements/order")
    out["tracing_overhead_s"] = (overhead_s, "s")
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def probe():
    """Seconds taken by a fixed pure-Python loop: the current host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def host_adjusted(times, probes):
    """Call times scaled to the reference host speed.

    probes[k] ran just before call k and probes[-1] after the last call.
    Each call is scaled by the median of the probes around it, so a host
    that runs everything 20% slower for a minute leaves the result alone
    while a slower program still shows.
    """
    out = []
    for k, t in enumerate(times):
        window = probes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 2]
        out.append(t * REFERENCE_PROBE_S / statistics.median(window))
    return out


def _src_files():
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(base, name)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _src_digest():
    h = hashlib.sha256()
    for path in _src_files():
        h.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def _src_lines():
    total = 0
    for path in _src_files():
        with open(path, "rb") as handle:
            total += handle.read().count(b"\n")
    return total


def _child():
    """Start child.py in a fresh interpreter; return (process, seconds to ready)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", os.path.join(HERE, "child.py"), SRC],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    ready = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if ready != "ready\n":
        proc.kill()
        proc.wait()
        raise RuntimeError("child interpreter failed to import latdec.cli")
    return proc, elapsed


def measure_setup():
    """Median time from a fresh interpreter to latdec.cli imported.

    Returns (seconds, seconds at the reference host speed).
    """
    times, probes = [], []
    for k in range(SETUP_IMPORTS + 1):
        probes.append(probe())
        proc, elapsed = _child()
        proc.communicate(timeout=CHILD_TIMEOUT)
        if k:  # the first start also writes bytecode caches; not timed
            times.append(elapsed)
    raw = statistics.median(times)
    return raw, raw * REFERENCE_PROBE_S / statistics.median(probes)


def replay(argvs):
    """(exit code, stdout sha256) of each call, made in a fresh interpreter."""
    proc, _ = _child()
    try:
        out, _ = proc.communicate(
            "".join(json.dumps(a) + "\n" for a in argvs), timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    return [tuple(json.loads(line)) for line in out.splitlines()]


class Runner:
    """Runs passes of CLI calls and keeps what the checks need."""

    def __init__(self, cli, workdir):
        self.cli = cli  # main is looked up per call, so the tracer sees it
        self.workdir = workdir
        self.failed_calls = set()  # (pass index, call index)
        self.attempted = 0
        self.inputs = {}  # pass index -> per-call digest of command and input
        self.digests = {}  # pass index -> per-call stdout sha256
        self.argvs = {}  # pass index -> per-call argv
        self.times = {}  # pass index -> per-call seconds
        self.probes = []  # every host-speed probe of the run

    def _fail(self, index, k, why):
        self.failed_calls.add((index, k))
        print("FAILED pass %d call %d: %s" % (index, k, why), file=sys.stderr)

    def run_pass(self, index, cases):
        """Time every call of one pass.

        Returns the per-call seconds, as measured and at the reference
        host speed.
        """
        argvs, inputs = [], []
        for k, case in enumerate(cases):
            path = os.path.join(self.workdir, "p%d-%03d.json" % (index, k))
            text = json.dumps(case.payload)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            argvs.append(case.argv(path))
            inputs.append(_sha(json.dumps(case.argv("")) + text))
        results, probes = [], []
        clock = time.perf_counter
        cli = self.cli
        for argv in argvs:
            probes.append(probe())
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                start = clock()
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a traceback is a failed call
                    code = "%s: %s" % (type(exc).__name__, exc)
                elapsed = clock() - start
            results.append((elapsed, code, out.getvalue(), err.getvalue()))
        probes.append(probe())
        self.probes += probes
        self.attempted += len(cases)
        self.argvs[index] = argvs
        self.times[index] = [r[0] for r in results]
        self.inputs[index] = inputs
        self.digests[index] = [_sha(r[2]) for r in results]
        for k, (case, (_, code, out, err)) in enumerate(zip(cases, results)):
            if code != 0 or not workloads.check(case, out):
                self._fail(index, k, "%s: exit %s, wrong answer or stderr %r"
                           % (case.label, code, err.strip()[:200]))
        return self.times[index], host_adjusted(self.times[index], probes)

    def check_replay(self, index):
        """Re-run a sample of one pass's faster half in a fresh interpreter."""
        argvs, times = self.argvs[index], self.times[index]
        faster = sorted(sorted(range(len(argvs)), key=times.__getitem__)[:len(argvs) // 2])
        picks = faster[::max(1, len(faster) // REPLAYED)]
        answers = replay([argvs[k] for k in picks])
        for i, k in enumerate(picks):
            # a replay that died early answers nothing for the rest
            if i >= len(answers) or answers[i] != (0, self.digests[index][k]):
                self._fail(index, k, "output bytes differ in a fresh interpreter")

    def check_store(self, sources):
        """Compare outputs with earlier runs on the same sources and inputs."""
        try:
            with open(DIGESTS, encoding="utf-8") as handle:
                store = json.load(handle)
        except (OSError, ValueError):
            store = {}
        for index in self.digests:
            for k, (key, digest) in enumerate(zip(self.inputs[index],
                                                  self.digests[index])):
                if store.setdefault(_sha(sources + key)[:32], digest[:32]) != digest[:32]:
                    self._fail(index, k, "output differs from an earlier run")
        tmp = DIGESTS + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(store, handle)
        os.replace(tmp, DIGESTS)

    def pass_digest(self, index):
        return _sha("".join(self.digests[index]))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "latdec", "cli.py")):
        print("perfbench: no latdec sources at %s" % SRC, file=sys.stderr)
        return 2
    # the guard override would change which inputs run
    os.environ.pop("LATDEC_MAX_RANK", None)

    context = {
        "workload": args.workload, "seed": args.seed, "confirm_seed": CONFIRM_SEED,
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "python": sys.version.split()[0], "src_lines": _src_lines(),
        "reference_probe_s": REFERENCE_PROBE_S,
    }
    context["setup_raw_s"], setup_s = measure_setup()
    sys.path.insert(0, SRC)
    from latdec import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print("perfbench: imported latdec from %s, not %s" % (cli.__file__, SRC),
              file=sys.stderr)
        return 2

    seen = set()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        runner = Runner(cli, workdir)
        if args.trace:
            first = workloads.build_pass(args.workload, args.seed, 0, seen)
            second = workloads.build_pass(args.workload, args.seed, 1, seen)
            untraced, untraced_adj = runner.run_pass(1, second)
            tracer = Tracer()
            with tracer:
                traced, traced_adj = runner.run_pass(0, first)
            if tracer.missing:
                print("perfbench: trace targets not found: %s"
                      % ", ".join(tracer.missing), file=sys.stderr)
            context["trace_missing"] = tracer.missing
            context["traced_pass_raw_s"] = sum(traced)
            context["untraced_pass_raw_s"] = sum(untraced)
            metrics = {name: _metric(value, unit) for name, (value, unit) in
                       per_layer_metrics(tracer, sum(traced_adj) - sum(untraced_adj)).items()}
        else:
            deadline = time.perf_counter() + args.seconds
            raw_passes, adj_passes, raw_calls, adj_calls = [], [], [], []
            index = 0
            while True:
                start = time.perf_counter()
                cases = workloads.build_pass(args.workload, args.seed, index, seen)
                raw, adj = runner.run_pass(index, cases)
                raw_passes.append(sum(raw))
                adj_passes.append(sum(adj))
                raw_calls += raw
                adj_calls += adj
                index += 1
                if 2 * time.perf_counter() - start > deadline:
                    break  # another pass like this one would overrun
            adj_ms = [1000 * t for t in adj_calls]
            raw_ms = [1000 * t for t in raw_calls]
            values = {
                "total_s": statistics.median(adj_passes),
                "p50_ms": statistics.median(adj_ms),
                "p90_ms": statistics.quantiles(adj_ms, n=10)[8],
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            context["pass_s"] = adj_passes
            context["pass_raw_s"] = raw_passes
            context["p50_raw_ms"] = statistics.median(raw_ms)
            context["p90_raw_ms"] = statistics.quantiles(raw_ms, n=10)[8]
            context["calls"] = len(adj_ms)
            context["calls_above_p90"] = sum(t > values["p90_ms"] for t in adj_ms)
        context["probe_median_s"] = statistics.median(runner.probes)
        runner.check_replay(0)
    runner.check_store(_src_digest())

    failed = len(runner.failed_calls)
    if not args.trace:
        values["success_frac"] = 1 - failed / runner.attempted
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    context["pass_digests"] = {i: runner.pass_digest(i) for i in sorted(runner.digests)}
    print("context: " + json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
