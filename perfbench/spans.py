"""Span tracing of garma's public functions, installed from outside the package.

`install` wraps every function named in the ``__all__`` of each layer module
and rebinds the wrapper at every ``garma.*`` module attribute that holds the
original object, so a call through ``garma.dgarma`` and the copy that
``distribution`` imported from ``mvn`` are both timed.  Spans are kept in
memory as (name, start, end, parent, op) tuples and written out when the run
ends; `layer_metrics` turns them into per-layer calls and self times.
"""

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import Counter

LAYERS = ("arma", "conditioning", "mvn", "distribution", "spectral", "svgplots", "cli")


def _count_psi_terms(counts, result):
    counts["arma.psi_weights.terms"] += result.truncation_index


def _count_cholesky(counts, result):
    # Computed flops of an m x m factorisation, m^3/3, not a hardware count.
    dim = result.shape[0]
    counts["mvn.cholesky.dim_sum"] += dim
    counts["mvn.cholesky.flops"] += dim**3 / 3.0


def _count_cdf_method(counts, result):
    counts[f"mvn.mvn_cdf.method.{result.method}"] += 1


def _count_perm_bytes(counts, result):
    # Computed bytes of the permuted float64 matrix, 8 * n * sims.
    counts["spectral.perm_bytes"] += 8 * result.series_len * result.sims


# Work counters read from a traced function's result.
_HOOKS = {
    "arma.psi_weights": _count_psi_terms,
    "mvn.cholesky": _count_cholesky,
    "mvn.mvn_cdf": _count_cdf_method,
    "spectral.spectrum_test": _count_perm_bytes,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1  # id of the operation in progress, advanced by the caller
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        hook = _HOOKS.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(self.counts, result)
            return result

        return traced

    def dump(self, path, extra=None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **(extra or {})}, fh)


def public_functions():
    """Yield (layer.name, function) for every public function of every layer."""
    for layer in LAYERS:
        module = importlib.import_module(f"garma.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn):
                yield f"{layer}.{attr}", fn


def install(tracer):
    """Rebind every public function to its traced wrapper; returns the
    (module, attribute, original) bindings for `uninstall`."""
    wrapped = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in public_functions()}
    replaced = []
    for modname, module in list(sys.modules.items()):
        if modname != "garma" and not modname.startswith("garma."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                replaced.append((module, attr, value))
    return replaced


def uninstall(replaced):
    for module, attr, value in replaced:
        setattr(module, attr, value)


def self_times(spans):
    """Per-name call counts and self seconds.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap their parent, so the self times of all
    spans add up to the time covered by top-level spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s = Counter(), Counter()
    for i, (name, start, end, parent, op) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child[i]
    return calls, self_s


def layer_metrics(spans, counts, cycles, ops_per_cycle):
    """Per-layer metrics for one traced phase, normalised per workload cycle."""
    calls, self_s = self_times(spans)
    out = {}
    for name, _ in public_functions():
        out[f"{name}.calls"] = calls[name] / cycles
        out[f"{name}.self_s"] = self_s[name] / cycles
    out["arma.psi_weights.terms"] = counts["arma.psi_weights.terms"] / cycles
    out["arma.validate_stationary.calls_per_op"] = (
        calls["arma.validate_stationary"] / (cycles * ops_per_cycle)
    )
    out["mvn.cholesky.dim_sum"] = counts["mvn.cholesky.dim_sum"] / cycles
    chol_s = self_s["mvn.cholesky"]
    out["mvn.cholesky.gflops"] = counts["mvn.cholesky.flops"] / chol_s / 1e9 if chol_s else 0.0
    for method in ("closed_form_1d", "quadrature_2d", "qmc"):
        key = f"mvn.mvn_cdf.method.{method}"
        out[key] = counts[key] / cycles
    out["spectral.perm_bytes"] = counts["spectral.perm_bytes"] / cycles
    out["trace.self_sum_s"] = sum(self_s.values()) / cycles
    return out
