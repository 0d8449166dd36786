"""Per-layer spans and counters, patched in from outside the package.

Each traced name is a public function or class of one latdec module.  A
function is wrapped once and the wrapper is bound under every module
attribute that holds the original object, which covers each place that
looks the name up (`latdec.lattice.lll_reduce`, `latdec.aut.lll_reduce`,
`latdec.linalg.lll_reduce`, ...), aliases included.  A class gets its
`__init__` wrapped in place, so isinstance checks keep working.

A span's self time is its duration minus the time of the spans it
encloses.  Hot leaf functions get a call counter only: a timer around
every pairing would cost more than the pairing.
"""

import sys
import time
from collections import defaultdict

# (module, attribute, span name, kind); kind is "span", "count" or "init"
TARGETS = (
    ("linalg", "lll_reduce", "linalg.lll_reduce", "span"),
    ("linalg", "enumerate_short_vectors", "linalg.enumerate_short_vectors", "span"),
    ("linalg", "solve_rational", "linalg.solve_rational", "span"),
    ("linalg", "hnf_basis", "linalg.hnf_basis", "span"),
    ("linalg", "first_nonpositive_minor", "linalg.first_nonpositive_minor", "span"),
    ("linalg", "gram_value", "linalg.gram_value", "count"),
    ("lattice", "decompose_pipeline", "lattice.decompose_pipeline", "span"),
    ("lattice", "decompose", "lattice.decompose", "span"),
    ("lattice", "verify_decomposition", "lattice.verify_decomposition", "span"),
    ("aut", "aut_group", "aut.aut_group", "span"),
    ("aut", "group_closure", "aut.group_closure", "span"),
    ("aut", "verify_aut_factorization", "aut.verify_aut_factorization", "span"),
    ("algebra", "FiniteDimAlgebra", "algebra.FiniteDimAlgebra", "init"),
    ("algebra", "check_positive_involution", "algebra.check_positive_involution", "span"),
    ("hermitian", "HermitianModule", "hermitian.HermitianModule", "init"),
    ("hermitian", "regular_module", "hermitian.regular_module", "span"),
    ("hermitian", "decompose_hermitian", "hermitian.decompose_hermitian", "span"),
    ("idempotents", "decompose_unity", "idempotents.decompose_unity", "span"),
    ("hodge", "PolarisedComplexStructure", "hodge.PolarisedComplexStructure", "init"),
    ("hodge", "decompose_hodge", "hodge.decompose_hodge", "span"),
    ("hodge", "verify_hodge_decomposition", "hodge.verify_hodge_decomposition", "span"),
    ("jsonio", "load_payload", "jsonio.parse", "span"),
    ("jsonio", "parse_lattice", "jsonio.parse", "span"),
    ("jsonio", "parse_order", "jsonio.parse", "span"),
    ("jsonio", "parse_hermitian", "jsonio.parse", "span"),
    ("jsonio", "parse_hodge", "jsonio.parse", "span"),
    ("jsonio", "parse_algebra", "jsonio.parse", "span"),
    ("jsonio", "dumps", "jsonio.dumps", "span"),
    ("cli", "main", "cli.main", "span"),
)
# Methods that get a counter on their class: (module, class, method, name).
METHOD_COUNTERS = (
    ("hermitian", "HermitianModule", "form_value", "hermitian.form_value"),
)


# Extra counts taken from a traced call: span name -> (key, count(args, result)).
TALLIES = {
    "linalg.enumerate_short_vectors": ("vectors", lambda args, result: len(result)),
    "aut.group_closure": ("elements", lambda args, result: len(result)),
    "aut.aut_group": ("order_sum", lambda args, result: result.order),
    "lattice.decompose_pipeline": ("rank_sum", lambda args, result: len(args[0])),
}


class Tracer:
    """Aggregated spans: calls, self and outermost total time per name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.tallies = defaultdict(int)
        self._stack = []  # [name, start, time covered by child spans]
        self._depth = defaultdict(int)
        self._restore = []
        self.missing = []

    def span(self, name, fn):
        stack, depth = self._stack, self._depth
        tally = TALLIES.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            entry = [name, clock(), 0.0]
            stack.append(entry)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - entry[1]
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += elapsed - entry[2]
                if not depth[name]:
                    self.total_s[name] += elapsed
                if stack:
                    stack[-1][2] += elapsed
            if tally is not None:
                self.tallies[name + "." + tally[0]] += tally[1](args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target in the loaded latdec modules; returns self."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "latdec" or name.startswith("latdec.")}
        for modname, attr, name, kind in TARGETS:
            original = getattr(modules.get("latdec." + modname), attr, None)
            if original is None:
                self.missing.append("latdec.%s.%s" % (modname, attr))
                continue
            if kind == "init":
                self._set(original, "__init__", self.span(name, original.__init__))
                continue
            wrapper = (self.span if kind == "span" else self.counter)(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for modname, cls, method, name in METHOD_COUNTERS:
            owner = getattr(modules.get("latdec." + modname), cls, None)
            original = getattr(owner, method, None)
            if original is None:
                self.missing.append("latdec.%s.%s.%s" % (modname, cls, method))
                continue
            self._set(owner, method, self.counter(name, original))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            if value is None:
                delattr(owner, attr)  # it was inherited before install()
            else:
                setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
