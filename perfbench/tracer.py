"""Span tracer for the traced benchmark run, and the per-layer metrics
computed from its spans.

The tracer wraps every function named in the ``__all__`` of each loaded
``tempcl`` module.  It rebinds every reference to that function object held
by any loaded ``tempcl`` module, so calls inside a module
(``knn_report`` -> ``knn_classify``) and across modules (``train_epoch`` ->
``augment_batch``) are both seen, wherever a later change moves an import.
A name listed in ``__all__`` that no longer exists is skipped; its metrics
read 0 calls.

Spans are kept in memory as ``[name, start, end, parent, size]`` lists
(parent is an index into the span list, -1 at the top) and written when the
run ends.  ``size`` is the one work count a span carries (rows, bytes,
pairs, steps or queue rows; see ``SIZES``).  The tracer assumes one thread,
which holds while ``TEMPCL_THREADS`` is 1.
"""

import functools
import inspect
import os
import sys
import time

__all__ = ["Tracer", "self_times", "layer_metrics"]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# span name -> work count taken from the call's (args, kwargs, result)
SIZES = {
    "data.augment_batch": lambda a, k, r: _arg(a, k, 1, "X").shape[0],
    "encoder.forward": lambda a, k, r: _arg(a, k, 1, "X").shape[0],
    "encoder.backward": lambda a, k, r: _arg(a, k, 1, "X").shape[0],
    "encoder.save_checkpoint": lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path")),
    "encoder.queue_push": lambda a, k, r: _arg(a, k, 0, "source").queue.shape[0],
    "evaluation.knn_classify": lambda a, k, r: (_arg(a, k, 0, "train_emb").shape[0]
                                                * _arg(a, k, 2, "test_emb").shape[0]),
    "evaluation.linear_probe": lambda a, k, r: _arg(a, k, 4, "cfg").epochs,
    "analysis.aggregate_contribution_curves": lambda a, k, r: (
        _arg(a, k, 0, "S").shape[0] * (_arg(a, k, 0, "S").shape[0] - 1)),
}


def _tempcl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tempcl" or name.startswith("tempcl."))]


class Tracer:
    """Records a span for every call of a public ``tempcl`` function while
    installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        size_of = SIZES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size_of is not None:
                span[4] = size_of(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = _tempcl_modules()
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()


def _durations(spans):
    return [end - start for _, start, end, _, _ in spans]


def self_times(spans):
    """Each span's duration minus the time its direct children cover.
    Children of one span never overlap, because the tracer runs on one
    thread."""
    out = _durations(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _has_ancestor(spans, i, name):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


_CSV_RENDERERS = ("analysis.coverage_csv", "analysis.curves_csv", "analysis.pca_csv")


def layer_metrics(spans, wall_s, untraced_run_s, names):
    """The per-layer metrics ``names`` (in that order) of one traced run.

    ``wall_s`` is the traced run's wall time and ``untraced_run_s`` the
    median wall time of the untraced runs of the same workload and seed.
    A span nested inside a span of the same name adds to the count but not
    to the time, so recursion is not counted twice.
    """
    dur = _durations(spans)
    own = self_times(spans)
    time_of, calls, size, self_of = {}, {}, {}, {}
    for i, (name, _, _, _, work) in enumerate(spans):
        if name == "encoder.forward":
            name += ".train" if _has_ancestor(spans, i, "encoder.train_epoch") else ".eval"
        calls[name] = calls.get(name, 0) + 1
        size[name] = size.get(name, 0) + work
        self_of[name] = self_of.get(name, 0.0) + own[i]
        if not _has_ancestor(spans, i, spans[i][0]):
            time_of[name] = time_of.get(name, 0.0) + dur[i]
        layer = name.split(".", 1)[0]
        if spans[i][3] < 0 or not spans[spans[i][3]][0].startswith(layer + "."):
            time_of[layer] = time_of.get(layer, 0.0) + dur[i]

    snapshots = sum(1 for i, s in enumerate(spans)
                    if s[0] == "evaluation.knn_report"
                    and _has_ancestor(spans, i, "runner.run_experiment"))
    last_push = [s[4] for s in spans if s[0] == "encoder.queue_push"]
    covered = sum(t for i, t in enumerate(own) if spans[i][0] != "runner.run_experiment")
    derived = {
        "encoder.queue_fill": last_push[-1] if last_push else 0,
        "evaluation.knn.pairs": size.get("evaluation.knn_classify", 0),
        "evaluation.probe.steps": size.get("evaluation.linear_probe", 0),
        "analysis.curves.pairs": size.get("analysis.aggregate_contribution_curves", 0),
        "analysis.csv.s": sum(time_of.get(n, 0.0) for n in _CSV_RENDERERS),
        "runner.snapshot.count": snapshots,
        "trace.overhead_frac": wall_s / untraced_run_s - 1.0,
        "trace.covered_frac": covered / wall_s,
    }
    out = {}
    for metric in names:
        if metric in derived:
            out[metric] = derived[metric]
            continue
        name, stat = metric.rsplit(".", 1)
        if stat == "s":
            out[metric] = time_of.get(name, 0.0)
        elif stat == "self_s":
            out[metric] = self_of.get(name, 0.0)
        elif stat == "calls":
            out[metric] = calls.get(name, 0)
        else:
            out[metric] = size.get(name, 0)
    return out
