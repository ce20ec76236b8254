"""Spans and counters around the public functions of each contactsurg module.

``Tracer.install`` replaces every binding of a traced function, in every
module namespace that holds it (``invariants.linking_matrix``,
``families.tight_count``, ``cli.census``...), by a wrapper that records a
span: op id, layer metric, start, end and parent span. Spans stay in
memory; ``write`` dumps them when the run ends. Self time is a span's
duration minus the time its child spans cover; the time the wrapper
spends on its own counters is charged to nobody.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

MODULES = ("contactsurg", "contactsurg.exactla", "contactsurg.diagram",
           "contactsurg.invariants", "contactsurg.lens", "contactsurg.families",
           "contactsurg.cli")

# Layer metric -> functions it covers, as (defining module, attribute path).
LAYERS = {
    "diagram.parse": [("diagram", "diagram_from_json"), ("diagram", "load_diagram")],
    "diagram.validate": [("diagram", "validate")],
    "diagram.linking_matrix": [("diagram", "linking_matrix")],
    "diagram.extended_matrix": [("diagram", "extended_matrix")],
    "diagram.write": [("diagram", "diagram_to_json"), ("diagram", "save_diagram")],
    "exactla.det": [("exactla", "det")],
    "exactla.solve": [("exactla", "solve")],
    "exactla.signature": [("exactla", "signature")],
    "exactla.smith": [("exactla", "smith")],
    "exactla.cokernel": [("exactla", "cokernel_coordinates"),
                         ("exactla", "cokernel_from_decomposition")],
    "invariants.report": [("invariants", "report")],
    "invariants.d3": [("invariants", "d3"), ("invariants", "c_squared")],
    "invariants.knot": [("invariants", "tb_surgered"), ("invariants", "rot_surgered")],
    "families.census": [("families", "census")],
    "families.build": [("families", "exceptional_diagram"), ("families", "surgered_diagram"),
                       ("families", "standard_diagram"), ("diagram", "promote_knot")],
    "families.closed_forms": [("families", "exceptional_expectations"),
                              ("families", "distinctness_bounds"),
                              ("families", "TightStructureCensus.problems")],
    "lens.neg_contfrac": [("lens", "neg_contfrac")],
    "lens.eval": [("lens", "eval_neg_contfrac")],
    "lens.tight_count": [("lens", "tight_count")],
    "cli.main": [("cli", "main")],
}
KERNELS = ("exactla.det", "exactla.solve", "exactla.signature", "exactla.smith")
LADDER_SIZES = (10, 28, 44)
LADDER_FNS = ("exactla.det", "exactla.solve", "exactla.signature", "exactla.smith",
              "invariants.report")

# Metrics reported beside the per-function calls and self_ms, with units.
OTHER_UNITS = {
    "diagram.rejected": "count/op",
    "exactla.unique_matrix_frac": "frac",
    "exactla.dim_max": "rows",
    "exactla.result_bits_max": "bits",
    "invariants.refused": "count/op",
    "lens.terms_total": "terms/op",
    "cli.import_ms": "ms",
    "cli.interp_start_ms": "ms",
    "cli.hostile_traceback_frac": "frac",
    "trace.overhead_frac": "frac",
}


def metric_names() -> list[str]:
    """Every per-layer metric name the traced run reports, in order."""
    return [f"{layer}.{k}" for layer in LAYERS for k in ("calls", "self_ms")] + list(OTHER_UNITS)


def unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith(".self_ms"):
        return "ms/op"
    return OTHER_UNITS[name]


class Tracer:
    """Spans and counters of one traced phase; ``install`` / ``uninstall``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[list] = []  # [span index, child seconds]
        self.op = -1
        self.tag = None
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.tag_incl = defaultdict(float)   # (tag, metric) -> inclusive seconds
        self.tag_calls = defaultdict(int)
        self.rejected = self.refused = self.terms = 0
        self.dim_max = self.bits_max = 0
        self.kernel_calls = self.distinct_total = 0
        self._op_matrices: set = set()
        self._restore: list = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, tag=None):
        self.op += 1
        self.tag = tag
        self._op_matrices = set()

    def end_op(self):
        self.distinct_total += len(self._op_matrices)

    @property
    def ops(self) -> int:
        return self.op + 1

    # -- wrapping ----------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(name) for name in MODULES}
        by_fn = {}
        for metric, targets in LAYERS.items():
            for mod, path in targets:
                module = mods[f"contactsurg.{mod}"]
                owner, _, attr = path.rpartition(".")
                holder = getattr(module, owner) if owner else module
                fn = getattr(holder, attr)
                by_fn[fn] = self._wrap(metric, fn)
                if owner:  # a method: bound on its class only
                    self._patch(holder, attr, by_fn[fn])
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in by_fn:
                    self._patch(mod, attr, by_fn[value])

    def _patch(self, holder, attr, new):
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def uninstall(self):
        for holder, attr, old in reversed(self._restore):
            setattr(holder, attr, old)
        self._restore.clear()

    def _wrap(self, metric: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            out = exc = None
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (self.op, metric, t0, t1, parent)
                self.calls[metric] += 1
                self.self_s[metric] += (t1 - t0) - frame[1]
                if self.tag is not None:
                    self.tag_incl[self.tag, metric] += t1 - t0
                    self.tag_calls[self.tag, metric] += 1
                self._count(metric, args, out, exc)
                if stack:
                    stack[-1][1] += perf_counter() - t0
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, metric, args, out, exc):
        if exc is not None:
            if getattr(exc, "_bench_counted", False):
                return
            exc._bench_counted = True
            if metric.startswith(("diagram.parse", "diagram.validate")):
                self.rejected += 1
            elif metric.startswith("invariants."):
                self.refused += 1
            return
        if metric in KERNELS:
            m = args[0]
            self.kernel_calls += 1
            self._op_matrices.add(m)
            self.dim_max = max(self.dim_max, m.rows)
            if metric == "exactla.det":
                self.bits_max = max(self.bits_max, out.bit_length())
            elif metric == "exactla.solve":
                self.bits_max = max([self.bits_max] + [max(x.numerator.bit_length(),
                                                           x.denominator.bit_length())
                                                       for x in out])
        elif metric == "lens.neg_contfrac":
            self.terms += len(out.terms)
        elif metric == "invariants.report":
            self.refused += len(out.problems)
        elif metric == "diagram.validate":
            self.rejected += any(v.fatal for v in out)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        ops = max(self.ops, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer] / ops
            out[f"{layer}.self_ms"] = self.self_s[layer] * 1e3 / ops
        out["diagram.rejected"] = self.rejected / ops
        out["exactla.unique_matrix_frac"] = (self.distinct_total / self.kernel_calls
                                             if self.kernel_calls else 0.0)
        out["exactla.dim_max"] = self.dim_max
        out["exactla.result_bits_max"] = self.bits_max
        out["invariants.refused"] = self.refused / ops
        out["lens.terms_total"] = self.terms / ops
        return out

    def ladder(self) -> dict:
        """Inclusive ms per call of the kernels and report, by diagram size."""
        table = {}
        for size in LADDER_SIZES:
            row = {}
            for metric in LADDER_FNS:
                calls = self.tag_calls.get((size, metric), 0)
                if calls:
                    row[metric] = round(self.tag_incl[size, metric] * 1e3 / calls, 4)
            if row:
                table[str(size)] = row
        return table

    def write(self, path: str):
        """Spans as tab-separated op, name, start_ns, end_ns, parent id."""
        with open(path, "w") as fh:
            fh.write("op\tname\tstart_ns\tend_ns\tparent\n")
            for op, name, t0, t1, parent in self.spans:
                fh.write(f"{op}\t{name}\t{int(t0 * 1e9)}\t{int(t1 * 1e9)}\t{parent}\n")
