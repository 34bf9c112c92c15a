"""Outside-in layer tracing for the fus3d benchmark.

Nothing in ``src/`` knows about this module. :meth:`Tracer.install`
wraps the public functions of each fus3d module at every name they are
looked up under (``fus3d.nn`` imports ``conv2d`` and ``fus3d.network``
imports ``correlate_batch`` by name, so patching only the defining
module would miss those calls). Each wrapper records a span (name, start, end,
parent) and counts in memory while the tracer is active; the spans are
written out when the benchmark ends.

A layer's self time is its span durations minus the part of each span
that its child spans cover. Calls run in one thread, so the children of
a span never overlap and that part is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: Every per-layer metric the traced run prints, in order, with its unit.
PER_LAYER_METRICS = (
    ("tensor.backward_s", "s/op"),
    ("tensor.conv2d.fwd_s", "s/op"),
    ("tensor.conv2d.bwd_s", "s/op"),
    ("tensor.conv2d.calls", "count/op"),
    ("correlation.fwd_s", "s/op"),
    ("correlation.bwd_s", "s/op"),
    ("correlation.calls", "count/op"),
    ("network.forward_window_s", "s/op"),
    ("network.stage_s", "s/op"),
    ("network.attention_s", "s/op"),
    ("network.forward_window.calls", "count/op"),
    ("nn.lstm_s", "s/op"),
    ("nn.lstm.calls", "count/op"),
    ("nn.save_checkpoint_s", "s/op"),
    ("losses_s", "s/op"),
    ("losses.triplet.calls", "count/op"),
    ("optim.adam_step_s", "s/op"),
    ("training.window_motions_s", "s/op"),
    ("training.window_motions.calls", "count/op"),
    ("training.relpose_useful_ratio", "ratio"),
    ("training.validation_s", "s/op"),
    ("pose.accumulate_s", "s/op"),
    ("pose.extract_relatives_s", "s/op"),
    ("pose.transforms_built", "count/op"),
    ("pose.csv_write_s", "s/op"),
    ("pose.csv_read_s", "s/op"),
    ("metrics.evaluate_s", "s/op"),
    ("metrics.accumulated_errors_s", "s/op"),
    ("metrics.frame_error_series_s", "s/op"),
    ("simulate.make_phantom_s", "s/op"),
    ("simulate.make_trajectory_s", "s/op"),
    ("simulate.slice_phantom_s", "s/op"),
    ("simulate.write_scan_s", "s/op"),
    ("simulate.read_scan_s", "s/op"),
    ("compound.compound_s", "s/op"),
    ("compound.write_volume_s", "s/op"),
    ("trace.overhead_pct", "%"),
)

# (span name, module, attribute path, call-count metric or None). A span
# name ``x`` feeds metric ``x_s``; several targets may share one span.
SPAN_TARGETS = (
    ("tensor.backward", "fus3d.tensor", "backward", None),
    ("network.forward_window", "fus3d.network", "MotionNetwork.forward_window",
     "network.forward_window.calls"),
    ("network.stage", "fus3d.network", "ResidualStage.__call__", None),
    ("network.attention", "fus3d.network", "GlobalLocalAttention.__call__", None),
    ("nn.lstm", "fus3d.nn", "LSTMCell.__call__", "nn.lstm.calls"),
    ("nn.save_checkpoint", "fus3d.nn", "save_checkpoint", None),
    ("losses", "fus3d.losses", "mmae", None),
    ("losses", "fus3d.losses", "correlation_loss", None),
    ("losses", "fus3d.losses", "triplet_loss", "losses.triplet.calls"),
    ("losses", "fus3d.losses", "select_triplets", None),
    ("losses", "fus3d.losses", "total_loss", None),
    ("optim.adam_step", "fus3d.optim", "Adam.step", None),
    ("training.window_motions", "fus3d.training", "window_motions",
     "training.window_motions.calls"),
    ("training.validation", "fus3d.training", "validation_mmae", None),
    ("pose.accumulate", "fus3d.pose", "accumulate", None),
    ("pose.extract_relatives", "fus3d.pose", "extract_relatives", None),
    ("pose.csv_write", "fus3d.pose", "write_pose_csv", None),
    ("pose.csv_read", "fus3d.pose", "read_pose_csv", None),
    ("metrics.evaluate", "fus3d.metrics", "evaluate_trajectories", None),
    ("metrics.accumulated_errors", "fus3d.metrics", "accumulated_errors", None),
    ("metrics.frame_error_series", "fus3d.metrics", "frame_error_series", None),
    ("simulate.make_phantom", "fus3d.simulate", "make_phantom", None),
    ("simulate.make_trajectory", "fus3d.simulate", "make_trajectory", None),
    ("simulate.slice_phantom", "fus3d.simulate", "slice_phantom", None),
    ("simulate.write_scan", "fus3d.simulate", "write_scan", None),
    ("simulate.read_scan", "fus3d.simulate", "read_scan", None),
    ("compound.compound", "fus3d.compound", "compound", None),
    ("compound.write_volume", "fus3d.compound", "write_volume", None),
)

# Ops on the autodiff tape: the forward call is span ``x.fwd`` and the
# backward closure the op leaves on its output tensor is span ``x.bwd``.
TAPE_TARGETS = (
    ("tensor.conv2d", "fus3d.tensor", "conv2d", "tensor.conv2d.calls"),
    ("correlation", "fus3d.correlation", "correlate_batch", "correlation.calls"),
)

COUNT_METRICS = ("tensor.conv2d.calls", "correlation.calls",
                 "network.forward_window.calls", "nn.lstm.calls",
                 "losses.triplet.calls", "training.window_motions.calls",
                 "pose.transforms_built")


def self_times(spans) -> dict:
    """Self seconds per span name from (name, start, end, parent) rows.

    ``parent`` is the index of the enclosing span in ``spans`` or None.
    """
    child_time = defaultdict(float)
    for _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        totals[name] += (end - start) - child_time[index]
    return dict(totals)


def layer_metrics(setup: Record, ops: Record, n_ops: int) -> dict:
    """Per-layer values of one set-up plus one operation.

    ``setup`` holds one traced set-up and ``ops`` the ``n_ops`` (>= 1)
    traced operations, which all do the same work, so the values do not
    depend on how many operations fit in a run and the counts are whole
    numbers. The tracing overhead is left out: only the caller can
    measure it."""
    setup_self, op_self = self_times(setup.spans), self_times(ops.spans)
    out = {}
    for metric, _ in PER_LAYER_METRICS:
        if metric.endswith("_s"):
            span = metric[:-2]
            out[metric] = setup_self.get(span, 0.0) + op_self.get(span, 0.0) / n_ops
    for metric in COUNT_METRICS:
        out[metric] = setup.counts[metric] + ops.counts[metric] / n_ops
    computed = setup.counts["relpose.computed"] + ops.counts["relpose.computed"]
    useful = setup.counts["relpose.useful"] + ops.counts["relpose.useful"]
    out["training.relpose_useful_ratio"] = useful / computed if computed else 0.0
    return out


class Record:
    """Spans as [name, start, end, parent] rows, and counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()


class Tracer:
    """In-memory spans and counts; records only while :meth:`active`,
    into ``record``. Assign a fresh :class:`Record` to start a new
    phase."""

    def __init__(self):
        self.record = Record()
        self.missing: list = []
        self._stack: list = []
        self._enabled = False
        self._undo: list = []

    @contextmanager
    def active(self):
        self._enabled = True
        try:
            yield self
        finally:
            self._enabled = False

    # -- recording -------------------------------------------------------------
    def _timed(self, name: str, fn, args, kwargs):
        spans = self.record.spans
        parent = self._stack[-1] if self._stack else None
        index = len(spans)
        spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            spans[index][2] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, name: str, count: str | None, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._enabled:
                return fn(*args, **kwargs)
            if count:
                self.record.counts[count] += 1
            return self._timed(name, fn, args, kwargs)

        return wrapper

    def _tape_wrapper(self, name: str, count: str, fn):
        fwd, bwd = name + ".fwd", name + ".bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._enabled:
                return fn(*args, **kwargs)
            self.record.counts[count] += 1
            out = self._timed(fwd, fn, args, kwargs)
            vjp = out._vjp
            if vjp is not None:
                out._vjp = lambda g: self._timed(bwd, vjp, (g,), {})
            return out

        return wrapper

    def _window_motions_wrapper(self, name: str, count: str, fn):
        span = self._span_wrapper(name, count, fn)

        @functools.wraps(fn)
        def wrapper(scan, start, pairs):
            if self._enabled:
                # each call builds all n-1 relative poses of the scan and
                # keeps `pairs` of them
                self.record.counts["relpose.useful"] += pairs
                self.record.counts["relpose.computed"] += scan.n_frames - 1
            return span(scan, start, pairs)

        return wrapper

    def _count_wrapper(self, count: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._enabled:
                self.record.counts[count] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; a target the program no longer has is
        recorded in ``missing`` and its metrics read zero."""
        for name, module, path, count in SPAN_TARGETS:
            make = (self._window_motions_wrapper
                    if name == "training.window_motions" else self._span_wrapper)
            self._patch(module, path, functools.partial(make, name, count))
        for name, module, path, count in TAPE_TARGETS:
            self._patch(module, path,
                        functools.partial(self._tape_wrapper, name, count))
        self._patch("fus3d.pose", "TransformSE3.__post_init__",
                    functools.partial(self._count_wrapper,
                                      "pose.transforms_built"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, module_name: str, path: str, make_wrapper) -> None:
        owner = sys.modules.get(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{path}")
            return
        wrapper = make_wrapper(original)
        if owners:
            # a method: instances look it up on the class
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # a function: rebind it in every fus3d module that imported it
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("fus3d"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    # -- reporting -------------------------------------------------------------
    @staticmethod
    def dump(path, header: dict, phases: dict) -> None:
        """Write a header line, then one JSON line per span of each
        phase (a name mapped to its :class:`Record`)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for phase, record in phases.items():
                for name, start, end, parent in record.spans:
                    handle.write(json.dumps(
                        {"phase": phase, "name": name, "start": start,
                         "end": end, "parent": parent}
                    ) + "\n")
