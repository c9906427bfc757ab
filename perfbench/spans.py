"""Span recording around specrad's layers, installed from outside the library.

`install(tracer)` replaces each layer function listed in LAYERS with a timing
wrapper at every place that binds it: module globals of every loaded
``specrad`` module (so ``specrad.cli.power_norms`` and
``specrad.algebra.power_norms`` are both covered), class attributes, the
``matrix.NORMS`` table and the ``selftest.CHECKS`` registry.  The returned
function restores the originals.

A span is (name, start, end, parent, op).  Kernels that are called tens of
thousands of times per op and call no other traced function are *leaves*:
their calls are summed per (op, parent span, name) into a count and a total
time instead of one record each, which keeps a slow Neumann op (30 000
products) at a few records.  Spans stay in memory and are written out by
`Tracer.dump` after the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

clock = time.perf_counter


def _gflop(args, result) -> float:
    # complex n x n matmul: n^3 complex multiply-adds of 8 real flops each
    n = args[1].shape[0]
    return 8e-9 * n * n * n


def _length(args, result) -> float:
    return len(result)


def _cells(args, result) -> float:
    return len(result.cells)


# (where, attribute, layer name, leaf, counter name, counter function)
LAYERS = [
    ("matrix", "MatrixAlgebra.mul", "matrix.mul", True, "matrix.mul.gflop_computed", _gflop),
    ("matrix", "MatrixAlgebra.add", "matrix.add", True, None, None),
    ("matrix", "MatrixAlgebra.scale", "matrix.scale", True, None, None),
    ("matrix", "inf_norm", "matrix.norm", True, None, None),
    ("matrix", "one_norm", "matrix.norm", True, None, None),
    ("matrix", "_gauss_inverse", "matrix.gauss_inverse", True, None, None),
    ("matrix", "direct_inverse", "matrix.direct_inverse", False, None, None),
    ("matrix", "spectrum_scan", "matrix.spectrum_scan", False, "matrix.spectrum_scan.cells", _cells),
    ("matrix", "eigen_oracle", "matrix.eigen_oracle", False, None, None),
    ("matrix", "read_matrix_csv", "matrix.io", False, None, None),
    ("matrix", "read_matrix_json", "matrix.io", False, None, None),
    ("matrix", "matrix_to_csv", "matrix.io", False, None, None),
    ("matrix", "matrix_to_json", "matrix.io", False, None, None),
    ("algebra", "power_norms", "algebra.power_norms", False, None, None),
    ("algebra", "spectral_radius_upper", "algebra.spectral_radius_upper", False, None, None),
    ("algebra", "neumann_inverse", "algebra.neumann_inverse", False, None, None),
    ("algebra", "resolvent", "algebra.resolvent", False, None, None),
    ("wiener", "multiply", "wiener.multiply", False, "wiener.coeffs_out", _length),
    ("wiener", "clean", "wiener.clean", True, None, None),
    ("wiener", "l1_norm", "wiener.l1_norm", True, None, None),
    ("wiener", "scale", "wiener.scale", False, None, None),
    ("wiener", "parse_inline", "wiener.parse_inline", False, None, None),
    ("wiener", "sup_norm", "wiener.sup_norm", False, None, None),
    ("reports", "build_report", "reports.build_report", False, "reports.rows", _length),
    ("reports", "RootReport.to_csv", "reports.to_csv", False, "reports.bytes_out", _length),
    ("reports", "RootReport.to_json", "reports.to_json", False, "reports.bytes_out", _length),
    ("fekete", "poly_sequence", "fekete.generate", True, None, None),
    ("fekete", "geometric_sequence", "fekete.generate", True, None, None),
    ("fekete", "subadd_sequence", "fekete.generate", True, None, None),
    ("fekete", "root_report", "fekete.root_report", False, None, None),
    ("fekete", "binomial_convolve", "fekete.binomial_convolve", False, None, None),
    ("fekete", "sequence_to_csv", "fekete.sequence_to_csv", False, None, None),
    ("fekete", "check_submultiplicative", "fekete.check_submultiplicative", True, None, None),
    ("shift", "harmonic_weights", "shift.harmonic_weights", True, None, None),
    ("shift", "shift_limit_experiment", "shift.shift_limit_experiment", False, None, None),
    ("shift", "op_norm_empirical", "shift.op_norm_empirical", False, None, None),
    ("shift", "apply_power", "shift.apply_power", True, None, None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (op, parent, name) -> [calls, seconds]
        self.counters = defaultdict(float)
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, fn, name: str, leaf: bool = False, counter: str | None = None, count=None):
        spans, stack, leaves, counters = self.spans, self.stack, self.leaves, self.counters
        tracer = self

        if leaf:
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    group = leaves[tracer.op, stack[-1] if stack else -1, name]
                    group[0] += 1
                    group[1] += clock() - start
                if counter:
                    counters[counter] += count(args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                index = len(spans)
                spans.append([name, clock(), 0.0, stack[-1] if stack else -1, tracer.op])
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][2] = clock()
                if counter:
                    counters[counter] += count(args, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer name: calls, busy seconds (inclusive) and self seconds
        (the span minus the time its child spans and leaf calls cover)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (_, parent, _), (_, seconds) in self.leaves.items():
            if parent >= 0:
                child[parent] += seconds
        out = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["busy"] += end - start
            entry["self"] += end - start - child[i]
        for (_, _, name), (calls, seconds) in self.leaves.items():
            entry = out[name]
            entry["calls"] += calls
            entry["busy"] += seconds
            entry["self"] += seconds
        return out

    def children_calls(self, parent_name: str, child_names: set[str]) -> int:
        """Calls of `child_names` made directly inside spans of `parent_name`."""
        spans = self.spans
        total = sum(
            1 for name, _, _, parent, _ in spans
            if name in child_names and parent >= 0 and spans[parent][0] == parent_name
        )
        for (_, parent, name), (calls, _) in self.leaves.items():
            if name in child_names and parent >= 0 and spans[parent][0] == parent_name:
                total += calls
        return total

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")
            for (op, parent, name), (calls, seconds) in self.leaves.items():
                out.write(json.dumps({"name": name, "parent": parent, "op": op,
                                      "calls": calls, "seconds": seconds}) + "\n")


def install(tracer: Tracer):
    """Wrap every layer at every binding site; returns a function that undoes it."""
    modules = {n: m for n, m in sys.modules.items() if n == "specrad" or n.startswith("specrad.")}
    undo = []

    def rebind(container, key, value):
        undo.append((container, key, container[key] if isinstance(container, dict) else getattr(container, key)))
        if isinstance(container, dict):
            container[key] = value
        else:
            setattr(container, key, value)

    for where, attr, name, leaf, counter, count in LAYERS:
        owner = modules["specrad." + where]
        if "." in attr:  # a method: replace it on the class
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            rebind(cls, method, tracer.wrap(cls.__dict__[method], name, leaf, counter, count))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(original, name, leaf, counter, count)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    rebind(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            rebind(value, k, wrapper)

    selftest = modules["specrad.selftest"]
    checks = [(n, tracer.wrap(fn, "selftest." + n)) for n, fn in selftest.CHECKS]
    rebind(selftest, "CHECKS", checks)

    def uninstall():
        for container, key, value in reversed(undo):
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)

    return uninstall
