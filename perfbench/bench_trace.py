"""Spans around proxbound's layers, recorded from outside the package.

`install` wraps the public entry points of each layer (and the underscore
helpers where a layer has no public one). A span records its name, start,
end, parent span and run id into flat arrays kept in memory; `write_spans`
saves them when a traced run ends. Self time is a span's duration minus
the time its child spans cover; the run is single-threaded, so the
children of one span never overlap and their durations simply add up.
Counters (dual-ascent iterations, batch rows, backtracks, bytes written,
accepted rows) are read from the arguments and results at the same
boundaries.

A function is patched wherever the package looks its name up: in its own
module and in every proxbound module that imported it under the same name
(the CLI imports run_prox_gradient and run_prox_linear by name). A method
is patched on every class of its module that defines it, not only on the
base class. A name missing from the package is skipped, and the metrics
derived from it are left out of the report.
"""

import array
import functools
import inspect
import os
import sys
import time

import numpy as np

PACKAGE = "proxbound"


class Recorder:
    """Flat in-memory span store plus per-run counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.run = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters = {}
        self.run_id = 0
        self._stack = []

    def name_index(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def innermost(self):
        return self.name_id[self._stack[-1]] if self._stack else -1

    def add(self, key, value):
        run = self.counters.setdefault(self.run_id, {})
        run[key] = run.get(key, 0) + value

    def arrays(self):
        """Every span as numpy arrays: name_id, parent, run, start, end."""
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "run": np.frombuffer(self.run, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def write_spans(self, path):
        """Save every recorded span and the name table to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent, start, end):
    """Duration of each span minus the summed duration of its children.

    `parent` holds global span indices (-1 for a root) into the same arrays.
    """
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=dur.shape[0])
    return dur - covered[:dur.shape[0]]


def span_stats(recorder, run_id):
    """{span name: {calls, total_s, self_s}} for one run."""
    a = recorder.arrays()
    selfs = self_times(a["parent"], a["start"], a["end"])
    keep = a["run"] == run_id
    nid, start, end = a["name_id"][keep], a["start"][keep], a["end"][keep]
    selfs = selfs[keep]
    n = len(recorder.names)
    calls = np.bincount(nid, minlength=n)
    total = np.bincount(nid, weights=end - start, minlength=n)
    self_s = np.bincount(nid, weights=selfs, minlength=n)
    return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(self_s[i])}
            for i, name in enumerate(recorder.names)}


def wrap(recorder, name, fn, count=None):
    """fn inside a span called `name`; count(recorder, args, kwargs, result)
    records counters after a successful call. A call of the same name made
    directly inside the span (a super() chain) joins the outer span."""
    nid = recorder.name_index(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.innermost() == nid:
            return fn(*args, **kwargs)
        idx = recorder.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(idx)
        if count is not None:
            count(recorder, args, kwargs, result)
        return result

    return wrapper


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _counter(key, getter):
    """A count callback that adds getter(args, kwargs, result) to `key`,
    skipping the count when the signature no longer fits."""
    def count(recorder, args, kwargs, result):
        try:
            value = getter(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            return
        recorder.add(key, int(value))
    return count


def _counters(*counts):
    def count(recorder, args, kwargs, result):
        for c in counts:
            c(recorder, args, kwargs, result)
    return count


def _rows(index, name):
    return lambda a, k, r: np.shape(_arg(a, k, index, name))[0]


def _trace_rows(a, k, r):
    return len(r)


def _backtracks(a, k, r):
    return int(np.sum(r.column("backtracks")))


def _bytes_written(a, k, r):
    return sum(os.path.getsize(p) for p in r)


# (span name, module, attribute, count callback); span names are the metric
# prefixes <module>.<function> without leading underscores, since a metric
# name must start with a letter
FUNCTIONS = (
    ("kernels.dual_ascent", "_kernels", "dual_ascent",
     _counter("kernels.dual_ascent.iters", lambda a, k, r: r[3])),
    ("kernels.minnorm_boxqp", "_kernels", "minnorm_boxqp",
     _counter("kernels.minnorm_boxqp.iters", lambda a, k, r: r[1])),
    ("kernels.penalty_value", "_kernels", "penalty_value", None),
    ("kernels.penalty_prox", "_kernels", "penalty_prox", None),
    ("smooth.operator_norm_sq", "smooth", "operator_norm_sq", None),
    ("proxgrad.run_prox_gradient", "proxgrad", "run_prox_gradient",
     _counter("proxgrad.iterations", lambda a, k, r: r.iterations)),
    ("proxgrad.prox_point_batch", "proxgrad", "_prox_point_batch",
     _counter("proxgrad.prox_point_batch.rows", _rows(1, "X"))),
    ("proxlinear.solve_subproblem", "proxlinear", "solve_subproblem", None),
    ("proxlinear.run_prox_linear", "proxlinear", "run_prox_linear",
     _counters(_counter("proxlinear.iterations", lambda a, k, r: r.iterations),
               _counter("proxlinear.steps", _trace_rows),
               _counter("proxlinear.backtracks", _backtracks))),
    ("diagnostics.dist_to_stationarity", "diagnostics",
     "dist_to_stationarity", None),
    ("diagnostics.compute_reference", "diagnostics", "compute_reference", None),
    ("diagnostics.estimate_alpha", "diagnostics", "estimate_alpha", None),
    ("diagnostics.estimate_gamma", "diagnostics", "estimate_gamma", None),
    ("diagnostics.estimate_subdiff_bound", "diagnostics",
     "estimate_subdiff_bound", None),
    ("diagnostics.refine_rays", "diagnostics", "_refine_extremal_rays", None),
    ("diagnostics.prox_bound", "diagnostics", "_prox_bound_samples", None),
    ("diagnostics.verify_sandwich", "diagnostics", "verify_sandwich", None),
    ("diagnostics.fit_tail_rate", "diagnostics", "fit_tail_rate", None),
    ("diagnostics.accepted", "diagnostics", "_accepted",
     _counters(_counter("diagnostics.accepted.rows_in", _rows(3, "X")),
               _counter("diagnostics.accepted.rows_out",
                        lambda a, k, r: np.shape(r[0])[0]))),
    ("cli.parse_config", "cli", "parse_config", None),
    ("cli.run_experiment", "cli", "run_experiment", None),
    ("cli.emit_report", "cli", "emit_report",
     _counter("cli.emit_report.bytes", _bytes_written)),
)

# (span name, module, method, count callback): wrapped on every class of the
# module that defines the method itself
METHODS = (
    ("penalties.value", "penalties", "value", None),
    ("penalties.prox", "penalties", "prox", None),
    ("penalties.subgrad_bounds", "penalties", "subgrad_bounds", None),
    ("penalties.value_batch", "penalties", "value_batch",
     _counter("penalties.value_batch.rows", _rows(1, "X"))),
    ("penalties.prox_batch", "penalties", "prox_batch",
     _counter("penalties.prox_batch.rows", _rows(1, "X"))),
    ("smooth.eval_jac", "smooth", "eval_jac", None),
    ("smooth.grad", "smooth", "grad", None),
    ("smooth.grad_batch", "smooth", "grad_batch", None),
    ("smooth.value_batch", "smooth", "value_batch", None),
)


class Patches:
    """Installed wrappers, removable with `uninstall`."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.patched = set()
        self._undo = []

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def function(self, span, module, attr, count=None):
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        orig = getattr(mod, attr, None)
        if not callable(orig):
            return False
        wrapper = wrap(self.recorder, span, orig, count)
        for m in self._modules():
            if vars(m).get(attr) is orig:
                self._undo.append((m, attr, orig))
                setattr(m, attr, wrapper)
        self.patched.add(span)
        return True

    def method(self, span, module, attr, count=None):
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        if mod is None:
            return False
        found = False
        for cls in vars(mod).values():
            if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                continue
            orig = cls.__dict__.get(attr)
            if inspect.isfunction(orig):
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, wrap(self.recorder, span, orig, count))
                found = True
        if found:
            self.patched.add(span)
        return found

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def install(recorder):
    """Wrap every layer entry point of the imported package."""
    patches = Patches(recorder)
    for span, module, attr, count in FUNCTIONS:
        patches.function(span, module, attr, count)
    for span, module, attr, count in METHODS:
        patches.method(span, module, attr, count)
    return patches


# Per-layer metrics: (metric, unit, better). A metric named
# <span>.<calls|self_s|total_s> comes from the span table; any other from
# the counters or the ratios below.
LAYER_METRICS = (
    ("kernels.dual_ascent.calls", "count", "lower"),
    ("kernels.dual_ascent.self_s", "s", "lower"),
    ("kernels.dual_ascent.iters", "count", "lower"),
    ("kernels.minnorm_boxqp.calls", "count", "lower"),
    ("kernels.minnorm_boxqp.self_s", "s", "lower"),
    ("kernels.minnorm_boxqp.iters", "count", "lower"),
    ("kernels.penalty_value.calls", "count", "lower"),
    ("kernels.penalty_value.self_s", "s", "lower"),
    ("kernels.penalty_prox.calls", "count", "lower"),
    ("kernels.penalty_prox.self_s", "s", "lower"),
    ("penalties.value.calls", "count", "lower"),
    ("penalties.value.self_s", "s", "lower"),
    ("penalties.prox.calls", "count", "lower"),
    ("penalties.prox.self_s", "s", "lower"),
    ("penalties.subgrad_bounds.calls", "count", "lower"),
    ("penalties.subgrad_bounds.self_s", "s", "lower"),
    ("penalties.value_batch.calls", "count", "lower"),
    ("penalties.value_batch.rows", "count", "lower"),
    ("penalties.value_batch.self_s", "s", "lower"),
    ("penalties.prox_batch.calls", "count", "lower"),
    ("penalties.prox_batch.rows", "count", "lower"),
    ("penalties.prox_batch.self_s", "s", "lower"),
    ("smooth.operator_norm_sq.calls", "count", "lower"),
    ("smooth.operator_norm_sq.self_s", "s", "lower"),
    ("smooth.eval_jac.calls", "count", "lower"),
    ("smooth.eval_jac.self_s", "s", "lower"),
    ("smooth.grad.self_s", "s", "lower"),
    ("smooth.grad_batch.self_s", "s", "lower"),
    ("smooth.value_batch.self_s", "s", "lower"),
    ("proxgrad.run_prox_gradient.self_s", "s", "lower"),
    ("proxgrad.prox_point_batch.calls", "count", "lower"),
    ("proxgrad.prox_point_batch.rows", "count", "lower"),
    ("proxgrad.prox_point_batch.self_s", "s", "lower"),
    ("proxgrad.iterations", "count", "lower"),
    ("proxlinear.solve_subproblem.calls", "count", "lower"),
    ("proxlinear.solve_subproblem.self_s", "s", "lower"),
    ("proxlinear.run_prox_linear.self_s", "s", "lower"),
    ("proxlinear.iterations", "count", "lower"),
    ("proxlinear.backtracks", "count", "lower"),
    ("proxlinear.solves_per_step", "ratio", "lower"),
    ("diagnostics.dist_to_stationarity.calls", "count", "lower"),
    ("diagnostics.dist_to_stationarity.self_s", "s", "lower"),
    ("diagnostics.compute_reference.total_s", "s", "lower"),
    ("diagnostics.estimate_alpha.total_s", "s", "lower"),
    ("diagnostics.estimate_gamma.total_s", "s", "lower"),
    ("diagnostics.estimate_subdiff_bound.total_s", "s", "lower"),
    ("diagnostics.refine_rays.total_s", "s", "lower"),
    ("diagnostics.prox_bound.total_s", "s", "lower"),
    ("diagnostics.verify_sandwich.total_s", "s", "lower"),
    ("diagnostics.fit_tail_rate.total_s", "s", "lower"),
    ("diagnostics.accept_ratio", "ratio", "higher"),
    ("cli.parse_config.self_s", "s", "lower"),
    ("cli.emit_report.self_s", "s", "lower"),
    ("cli.run_experiment.self_s", "s", "lower"),
    ("cli.emit_report.bytes", "bytes", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
)

SPAN_STATS = ("calls", "self_s", "total_s")

# ratio metric -> (numerator counter, denominator counter, span it needs);
# a ratio with a zero base reads 0
RATIOS = {
    "proxlinear.solves_per_step": (
        ("proxlinear.steps", "proxlinear.backtracks"), "proxlinear.steps",
        "proxlinear.run_prox_linear"),
    "diagnostics.accept_ratio": (
        ("diagnostics.accepted.rows_out",), "diagnostics.accepted.rows_in",
        "diagnostics.accepted"),
}

# counter metric -> the span whose wrapper records it
COUNTER_SPANS = {
    "kernels.dual_ascent.iters": "kernels.dual_ascent",
    "kernels.minnorm_boxqp.iters": "kernels.minnorm_boxqp",
    "penalties.value_batch.rows": "penalties.value_batch",
    "penalties.prox_batch.rows": "penalties.prox_batch",
    "proxgrad.prox_point_batch.rows": "proxgrad.prox_point_batch",
    "proxgrad.iterations": "proxgrad.run_prox_gradient",
    "proxlinear.iterations": "proxlinear.run_prox_linear",
    "proxlinear.backtracks": "proxlinear.run_prox_linear",
    "cli.emit_report.bytes": "cli.emit_report",
}


def run_metrics(recorder, patched, run_id):
    """Per-layer metric values of one traced run, without bench.*; metrics
    of spans that could not be patched are absent."""
    stats = span_stats(recorder, run_id)
    counters = recorder.counters.get(run_id, {})
    out = {}
    for metric, _, _ in LAYER_METRICS:
        span, _, stat = metric.rpartition(".")
        if stat in SPAN_STATS and span in patched:
            out[metric] = stats[span][stat]
        elif metric in COUNTER_SPANS and COUNTER_SPANS[metric] in patched:
            out[metric] = counters.get(metric, 0)
        elif metric in RATIOS and RATIOS[metric][2] in patched:
            nums, den, _ = RATIOS[metric]
            base = counters.get(den, 0)
            out[metric] = (sum(counters.get(n, 0) for n in nums) / base
                           if base else 0.0)
    return out


def run_counts(recorder, run_id):
    """Every deterministic count of one run: span calls and counters."""
    counts = {f"{name}.calls": s["calls"]
              for name, s in span_stats(recorder, run_id).items()}
    counts.update(recorder.counters.get(run_id, {}))
    return counts
