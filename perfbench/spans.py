"""Outside-in span recorder for the traced benchmark run, and the per-layer
metrics computed from its spans.

`SpanRecorder.install` finds the public callables of every `risbc` module by
introspection (module-level functions and the public methods of classes
defined in the module) and rebinds each one, wherever it is bound, to a
wrapper that records a span: name, start, end and the index of the
enclosing span.  The layer of a span is the short name of the module that
defines the callable (`cli`, `config`, `sweep`, `channel`, `linalg`, `se`,
`phases`, `bounds`).  Functions whose every parameter is annotated `float`
are scalar kernels called once per grid point (the `exp_integral_e1*`
evaluations and the per-point bound checks); they are counted, not timed, so
that wrapper cost does not swamp the `bounds` layer, and their time falls to
the self time of the span that called them.

Spans stay in memory and are written out once, at the end of the run.
"""

import functools
import inspect
import json
import math
import statistics
import sys
import time

LAYERS = ("cli", "config", "sweep", "channel", "linalg", "se", "phases", "bounds")

# Spans of these functions feed the per-function metrics; renaming one of
# them leaves the layer totals intact and reads as zero calls here.
SAMPLE_FNS = ("sample_realization",)
DECOMPOSE_FNS = ("decompose",)
EVAL_FNS = ("se_zf_exact", "se_dpc_exact", "se_asymptotic")
SELECT_FNS = ("select_phases",)
OPTIMIZE_FNS = ("optimize_mitigation_aware",)


def _is_scalar_kernel(fn):
    params = inspect.signature(fn).parameters.values()
    return len(params) > 0 and all(p.annotation is float for p in params)


class SpanRecorder:
    """Wraps `risbc` callables and keeps their spans in flat lists."""

    def __init__(self):
        self.names = []  # name id -> "layer.qualname"
        self.counted = []  # name id -> count-only call count, or None if timed
        self.spans = []  # [name id, start, end, parent span index]
        self._stack = [-1]

    def _timed(self, fn, name_id):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name_id, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def _counted(self, fn, name_id):
        counted = self.counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counted[name_id] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, layer):
        name_id = len(self.names)
        self.names.append(f"{layer}.{fn.__qualname__}")
        if _is_scalar_kernel(fn):
            self.counted.append(0)
            return self._counted(fn, name_id)
        self.counted.append(None)
        return self._timed(fn, name_id)

    def install(self):
        """Wrap every public callable of the imported `risbc.*` modules."""
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("risbc.") and mod is not None
        }
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in sorted(modules.items()):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, layer)
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            setattr(obj, meth_name, self._wrap(meth, layer))
        # rebind in every module that imported the function by name
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    def dump(self, path):
        flat = [x for span in self.spans for x in span]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counted": self.counted, "spans": flat}, fh)


# =========================================================================
# per-layer metrics
# =========================================================================


def _quantile(values, q):
    """Nearest-rank quantile; 0.0 for an empty list (the function never ran)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(trace, draws, evals_expected, traced_wall_s):
    """Per-layer metrics from one traced run's spans.

    Args:
        trace: the dict written by `SpanRecorder.dump`.
        draws: channel draws of the run (sweep points x reps, flagged too).
        evals_expected: draws x methods, the SE evaluations one per method.
        traced_wall_s: process start to the end of main in the traced run.
    """
    names = trace["names"]
    counted = trace["counted"]
    flat = trace["spans"]
    layer_of = [n.split(".", 1)[0] for n in names]
    func_of = [n.rsplit(".", 1)[1] for n in names]

    n_spans = len(flat) // 4
    child = [0.0] * n_spans
    durations = [0.0] * n_spans
    for i in range(n_spans):
        start, end, parent = flat[4 * i + 1], flat[4 * i + 2], flat[4 * i + 3]
        durations[i] = end - start
        if parent >= 0:
            child[parent] += end - start

    calls = {layer: 0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    by_func = {}
    for i in range(n_spans):
        name_id = flat[4 * i]
        layer = layer_of[name_id]
        calls[layer] = calls.get(layer, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + durations[i] - child[i]
        by_func.setdefault(func_of[name_id], []).append(durations[i])
    for name_id, count in enumerate(counted):
        if count:
            calls[layer_of[name_id]] = calls.get(layer_of[name_id], 0) + count

    def spans_of(funcs):
        return [d for f in funcs for d in by_func.get(f, [])]

    def per(count, base):
        return count / base if base else 0.0

    traced_total = sum(self_s.values())
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.self_frac"] = (per(self_s[layer], traced_total), "frac")

    sample = spans_of(SAMPLE_FNS)
    out["channel.sample_realization.p50_us"] = (1e6 * _quantile(sample, 0.50), "us")
    out["channel.sample_realization.p99_us"] = (1e6 * _quantile(sample, 0.99), "us")
    out["channel.sample_calls_per_draw"] = (per(len(sample), draws), "calls/draw")

    decomposes = spans_of(DECOMPOSE_FNS)
    out["se.decompose.p50_us"] = (1e6 * _quantile(decomposes, 0.50), "us")
    out["se.decompose.p99_us"] = (1e6 * _quantile(decomposes, 0.99), "us")
    out["se.decompose_calls_per_draw"] = (per(len(decomposes), draws), "calls/draw")

    evals = spans_of(EVAL_FNS)
    out["se.eval.p50_us"] = (1e6 * _quantile(evals, 0.50), "us")
    out["se.eval.p99_us"] = (1e6 * _quantile(evals, 0.99), "us")
    out["se.eval_calls_per_draw"] = (per(len(evals), evals_expected), "calls/draw")

    selects = spans_of(SELECT_FNS)
    optimizes = spans_of(OPTIMIZE_FNS)
    out["phases.select_phases.p50_us"] = (1e6 * _quantile(selects, 0.50), "us")
    out["phases.select_phases.p99_us"] = (1e6 * _quantile(selects, 0.99), "us")
    out["phases.optimize.p50_ms"] = (1e3 * _quantile(optimizes, 0.50), "ms")
    out["phases.optimize_calls_per_draw"] = (per(len(optimizes), draws), "calls/draw")

    out["config.emit_csv.s"] = (sum(by_func.get("emit_csv", [])), "s")
    out["config.write_manifest.s"] = (sum(by_func.get("write_manifest", [])), "s")
    out["config.figure5_bound_reports.s"] = (sum(by_func.get("figure5_bound_reports", [])), "s")
    out["trace.untraced_s"] = (traced_wall_s - traced_total, "s")
    return out


def median_metrics(runs):
    """Per-metric median over several `layer_metrics` results."""
    return {
        name: (statistics.median(run[name][0] for run in runs), unit)
        for name, (_, unit) in runs[0].items()
    }
