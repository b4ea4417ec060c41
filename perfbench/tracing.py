"""Per-layer spans, taken by wrapping choiwit's public functions where they are imported.

The benchmark wraps functions, never classes: replacing a class such as
``DensityMatrix`` would break the ``isinstance`` checks inside the package.
Every module global that points at an original function is replaced, so calls
between choiwit modules (``choiwit.optimality.kron_vec``,
``choiwit.witness.herm_eig_min``, ...) are caught as well as calls from the
benchmark.  Spans stay in memory until ``save``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

#: The layers are choiwit's modules; ``errors`` does no work and is left out.
LAYERS = {
    "cli": ("main",),
    "maps": ("family_from_alpha", "on_family_check", "t_param", "phi_apply", "positivity_search"),
    "witness": ("witness_matrix", "separable_sample_check", "parse_state_text", "detect"),
    "optimality": ("certify", "product_vectors", "span_matrix"),
    "linalg": (
        "kron_vec",
        "conj_vec",
        "expectation",
        "partial_transpose_second",
        "rank_with_tol",
        "lu_det",
        "herm_eig_min",
    ),
}
FUNCTIONS = [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]

#: Functions whose raised exceptions are reported per operation.
ERROR_COUNTED = ("witness.parse_state_text", "optimality.certify")

#: Calls per certificate that reached the span test (any verdict but Boundary).
PER_CERTIFY = ("optimality.product_vectors", "linalg.kron_vec", "linalg.expectation")


class Tracer:
    """Records one span per call of a wrapped function; use as a context manager."""

    def __init__(self):
        self.start = array("q")
        self.end = array("q")
        self.fn = array("b")
        self.parent = array("q")
        self.op = array("q")
        self.errors = [0] * len(FUNCTIONS)
        self.verdicts = Counter()
        self.op_id = -1
        self._stack = []
        self._patches = []

    def _wrap(self, idx, original):
        start, end, fn, parent, op, stack, errors = (
            self.start, self.end, self.fn, self.parent, self.op, self._stack, self.errors
        )
        clock = time.perf_counter_ns
        is_certify = FUNCTIONS[idx] == "optimality.certify"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            fn.append(idx)
            op.append(self.op_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if is_certify:
                self.verdicts[result.verdict.value] += 1
            return result

        return wrapper

    def __enter__(self):
        for module in LAYERS:
            importlib.import_module(f"choiwit.{module}")
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "choiwit"]
        for idx, qualname in enumerate(FUNCTIONS):
            module, name = qualname.split(".")
            original = getattr(sys.modules[f"choiwit.{module}"], name)
            wrapper = self._wrap(idx, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()
        return False

    def summary(self, n_ops: int) -> tuple[dict, dict]:
        """Per-operation layer metrics, and the raw totals they were divided from."""
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        fn = np.frombuffer(self.fn, dtype=np.int8).astype(np.intp)
        # Self time: a span's duration minus the durations of its direct children.
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(fn, minlength=len(FUNCTIONS))
        self_ms = np.bincount(fn, weights=(dur - child) / 1e6, minlength=len(FUNCTIONS))

        metrics = {}
        for module, fns in LAYERS.items():
            idx = [FUNCTIONS.index(f"{module}.{f}") for f in fns]
            metrics[f"{module}.self_ms"] = float(self_ms[idx].sum()) / n_ops
        for idx, qualname in enumerate(FUNCTIONS):
            metrics[f"{qualname}.calls"] = int(calls[idx]) / n_ops
            metrics[f"{qualname}.self_ms"] = float(self_ms[idx]) / n_ops
        for qualname in ERROR_COUNTED:
            metrics[f"{qualname}.errors"] = self.errors[FUNCTIONS.index(qualname)] / n_ops
        certify = FUNCTIONS.index("optimality.certify")
        certificates = int(calls[certify]) - self.errors[certify] - self.verdicts["Boundary"]
        for qualname in PER_CERTIFY:
            calls_of = int(calls[FUNCTIONS.index(qualname)])
            metrics[f"{qualname}.per_certify"] = calls_of / certificates if certificates else 0.0
        metrics["optimality.certify.not_certified"] = self.verdicts["NotCertified"] / n_ops

        totals = {
            "operations": n_ops,
            "spans": len(dur),
            "calls": {q: int(c) for q, c in zip(FUNCTIONS, calls)},
            "errors": dict(zip(FUNCTIONS, self.errors)),
            "verdicts": dict(self.verdicts),
            "certificates_with_t": certificates,
        }
        return metrics, totals

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(FUNCTIONS),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            fn=np.frombuffer(self.fn, dtype=np.int8),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )
