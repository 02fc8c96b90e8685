"""Per-layer spans for quditgraph, installed from outside the program.

The tracer rebinds the public functions of each quditgraph module to timing
wrappers.  Modules import these names directly (``from .simulator import
run_gates``), so every module attribute that holds the function is rebound,
not only the defining one; methods are rebound on their class.  ``restore``
puts every original back.

A span is (name, start, end, parent index, op id).  Spans of one op are
folded into per-name totals when the op ends: self time is a span's duration
minus the durations of its direct children, so the self times of an op's
spans, the root span included, add up to the op's time.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "op"


def _count_kernel(counts, args, kwargs, result):
    counts["amps_touched"] += args[0].size


def _count_gate(counts, args, kwargs, result):
    counts["gates_applied"] += 1
    counts["h_gates"] += args[2].kind == "H"


def _count_rdm(counts, args, kwargs, result):
    counts["rdm_elems"] += result.size


def _count_spectrum(counts, args, kwargs, result):
    counts["spectrum_dim_max"] = max(counts["spectrum_dim_max"], len(result))


def _count_dump(counts, args, kwargs, result):
    # amplitude lines hold no '#'; each header line holds exactly one
    counts["dump_lines"] += result.count("\n") - result.count("#")


def _count_relations(counts, args, kwargs, result):
    counts["relations_cases"] += sum(r["checked"] for r in result["relations"].values())


def _count_classify(counts, args, kwargs, result):
    fld, n = args[0], args[1]
    counts["graphs_kept"] += sum(c["graphs"] for c in result["classes"])
    counts["labelings"] += sum(fld.d ** (k * (n - k)) for k in range(1, n // 2 + 1))


# (module, owner attribute or None, function name, span name, counter).  The
# counter is None, a function of (counts, args, kwargs, result), or, for the
# unspanned scalar field methods, the key of a plain call count.  Span names
# group into layer metrics in run.py.
TARGETS = [
    ("kernels", None, "cnot", "kernels.cnot", _count_kernel),
    ("kernels", None, "axis_perm", "kernels.axis_perm", _count_kernel),
    ("kernels", None, "swap", "kernels.swap", _count_kernel),
    ("simulator", None, "run_gates", "simulator.run_gates", None),
    ("simulator", None, "_apply_gate_raw", None, _count_gate),
    ("simulator", None, "init_state", "simulator.init_state", None),
    ("simulator", None, "reduced_density_raw", "simulator.rdm", _count_rdm),
    ("simulator", None, "spectrum", "simulator.spectrum", _count_spectrum),
    ("simulator", None, "signature_key", "simulator.signature", None),
    ("simulator", None, "signatures_match", "simulator.signature", None),
    ("simulator", None, "bipartite_spectra", "simulator.signature", None),
    ("simulator", None, "dump_state", "simulator.dump", _count_dump),
    ("simulator", None, "parse_state_dump", "simulator.parse", None),
    ("simulator", None, "gate_matrix", "simulator.operator", None),
    ("simulator", None, "sequence_matrix", "simulator.operator", None),
    ("simulator", None, "sequence_source_map", "simulator.operator", None),
    ("simulator", None, "gate_source_map", "simulator.operator", None),
    ("rewrite", None, "parse_circuit", "rewrite.parse", None),
    ("rewrite", "SymbolicState", "apply", "rewrite.symbolic_apply", None),
    ("rewrite", None, "mat_rref", "rewrite.rref", None),
    ("rewrite", "SymbolicState", "dense_amps", "rewrite.dense_amps", None),
    ("rewrite", None, "relations_suite", "rewrite.relations", _count_relations),
    ("rewrite", None, "canonicalize", "rewrite.canonical", None),
    ("rewrite", None, "graph_from_symbolic", "rewrite.canonical", None),
    ("rewrite", None, "states_equal_symbolic", "rewrite.canonical", None),
    ("gf", "Field", "__init__", "gf.field_build", None),
    *[("gf", "Field", name, None, "scalar_calls")
      for name in ("add", "neg", "sub", "mul", "inv", "div", "dot", "reverse")],
    ("classify", None, "classify", "classify.classify", _count_classify),
    ("entangle", None, "build_mes", "entangle.build", None),
    ("entangle", None, "compose_mes", "entangle.compose", None),
    ("entangle", None, "mes_verdict", "entangle.verdict", None),
    ("duality", None, "verify_dual_equivalence", "duality.verify", None),
    ("duality", None, "check_conjugation_identity", "duality.conjugation", None),
    ("duality", None, "conjugation_report", "duality.conjugation", None),
    ("cli", None, "main", "cli.main", None),
]


class Tracer:
    """Span recorder; use ``with Tracer() as t:`` to install and restore."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, op] of the current op
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.op_s = 0.0
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        import quditgraph  # noqa: F401 - loads every submodule
        modules = [m for n, m in sys.modules.items() if n == "quditgraph" or n.startswith("quditgraph.")]
        for mod_name, owner_name, fn_name, span, count in TARGETS:
            mod = sys.modules[f"quditgraph.{mod_name}"]
            if owner_name is not None:
                owner = getattr(mod, owner_name)
                self._rebind(owner, fn_name, self._wrap(vars(owner)[fn_name], span, count))
                continue
            original = getattr(mod, fn_name)
            wrapper = self._wrap(original, span, count)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, attr, wrapper)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span, count):
        counts = self.counts
        if isinstance(count, str):
            @functools.wraps(fn)
            def ticked(*args, **kwargs):
                counts[count] += 1
                return fn(*args, **kwargs)
            return ticked
        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(counts, args, kwargs, result)
                return result
            return counted

        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            rec = [span, 0.0, 0.0, stack[-1] if stack else -1, tracer._op]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result
        return traced

    # -- ops --------------------------------------------------------------------

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) under the root span of one op, then fold the op's spans."""
        self._op = op_id
        root = self._wrap(fn, ROOT, None)
        try:
            return root(*args)
        finally:
            self._fold()
            self._op = None

    def _fold(self) -> None:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, _), c in zip(spans, child):
            self.self_s[name] += (end - start) - c
            self.calls[name] += 1
        if spans and spans[0][0] == ROOT:
            self.op_s += spans[0][2] - spans[0][1]
        spans.clear()
