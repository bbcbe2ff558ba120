"""Benchmark-side tracing of the cigl modules.

`Patch` swaps a function for a wrapper on every binding that holds it.
`cigl.train` and `cigl.runner` import names with `from .x import y`, so
replacing only the defining module's attribute would miss the calls the
training loop makes; `Patch` replaces the consuming modules' bindings
too and `restore()` puts every original back.

`Tracer` records one span (name, start, end, parent) per call of the
functions in `TRACED`, keeps the spans in memory, and adds counters
measured at the same boundaries. `layer_metrics` turns the spans and
counters into the per-layer metrics that `per_layer_spec` names.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

SUBMODULES = ("calibration", "checkpoint", "config", "data", "masks", "rng", "runner", "tensor",
              "train")

# (module, function, hot): hot functions also report per-call p50 and tail.
TRACED = (
    ("tensor", "backward", True),
    ("tensor", "forward", True),
    ("tensor", "sgd_step", True),
    ("masks", "sample_random_mask", True),
    ("masks", "update_deterministic_mask", True),
    ("masks", "wma_update", False),
    ("masks", "init_mask", False),
    ("train", "train", False),
    ("train", "evaluate", False),
    ("train", "predict_mc_dropout", False),
    ("calibration", "ece", False),
    ("calibration", "reliability_bins", False),
    ("calibration", "nll", False),
    ("calibration", "fit_temperature", False),
    ("data", "epoch_batches", True),  # BatchIterator method: one span per batch wait
    ("data", "load_idx", False),
    ("data", "synth_two_moons", False),
    ("runner", "build_datasets", False),
    ("checkpoint", "save_checkpoint", False),
    ("checkpoint", "load_checkpoint", False),
    ("runner", "run_experiment", False),
    ("runner", "correlate", False),
    ("runner", "run_correlate", False),
    ("runner", "run_export_reliability", False),
)

# (name, unit, better) for the counters measured at the wrapped boundaries.
COUNTERS = (
    ("tensor.backward.rows", "count", "lower"),
    ("tensor.forward.rows", "count", "lower"),
    ("tensor.backward.per_iter", "ratio", "lower"),
    ("masks.update.moved", "count", "lower"),
    ("masks.update.useful_ratio", "ratio", "higher"),
    ("masks.random.keep_rate", "ratio", "higher"),
    ("checkpoint.save_checkpoint.bytes", "bytes", "lower"),
    ("checkpoint.load_checkpoint.bytes", "bytes", "lower"),
    ("rng.substream.calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, fn, hot in TRACED:
        base = f"{module}.{fn}"
        out += [(f"{base}.calls", "count", "lower"), (f"{base}.s", "s", "lower"),
                (f"{base}.self_s", "s", "lower")]
        if hot:
            out += [(f"{base}.p50_ms", "ms", "lower"), (f"{base}.tail_ms", "ms", "lower")]
    return out + list(COUNTERS)


def cigl_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cigl" or name.startswith("cigl."))]


class Patch:
    """Replaces functions on every cigl binding; `restore()` undoes all of it."""

    def __init__(self):
        self._saved = []  # (owner, attribute, original), in replacement order

    def replace(self, module, attr, make_wrapper):
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in cigl_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def replace_method(self, cls, attr, make_wrapper):
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def restore(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(self.counts, args, kwargs, out)
            return out
        return wrapper

    def wrap_batches(self, name, method):
        """Generator method: one span per wait for the next batch, the
        final end-of-epoch wait included."""
        tracer = self

        @functools.wraps(method)
        def epoch_batches(*args, **kwargs):
            it = method(*args, **kwargs)
            while True:
                idx = tracer.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.end(idx)
                tracer.counts["batches"] += 1
                yield item
        return epoch_batches

    def install(self, mods) -> Patch:
        """Wrap every function in TRACED on the freshly imported modules `mods`
        (an object with one attribute per cigl submodule)."""
        patch = Patch()
        for module, fn, _ in TRACED:
            name = f"{module}.{fn}"
            if fn == "epoch_batches":
                patch.replace_method(mods.data.BatchIterator, fn,
                                     lambda f, n=name: self.wrap_batches(n, f))
            else:
                patch.replace(getattr(mods, module), fn,
                              lambda f, n=name, a=_AFTER.get(name): self.wrap(n, f, a))
        patch.replace(mods.rng, "substream", self._count_substream)
        return patch

    def _count_substream(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def substream(*args, **kwargs):
            counts["substream"] += 1
            return fn(*args, **kwargs)
        return substream


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(key, pos, name):
    def after(counts, args, kwargs, out):
        counts[key] += len(_arg(args, kwargs, pos, name))
    return after


def _after_update(counts, args, kwargs, new_mask):
    old = _arg(args, kwargs, 2, "mask")
    moved = sum(int(np.count_nonzero(a != b)) for a, b in zip(old.layers, new_mask.layers))
    counts["moved"] += moved
    counts["updates"] += 1
    counts["useful_updates"] += moved > 0


def _after_random(counts, args, kwargs, z):
    mask = _arg(args, kwargs, 0, "mask")
    counts["kept"] += sum(int(np.count_nonzero(a)) for a in z)
    counts["active"] += sum(int(np.count_nonzero(m)) for m in mask.layers)


def _file_bytes(key):
    def after(counts, args, kwargs, out):
        counts[key] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    return after


_AFTER = {
    "tensor.backward": _rows("backward_rows", 1, "x"),
    "tensor.forward": _rows("forward_rows", 1, "x"),
    "masks.update_deterministic_mask": _after_update,
    "masks.sample_random_mask": _after_random,
    "checkpoint.save_checkpoint": _file_bytes("save_bytes"),
    "checkpoint.load_checkpoint": _file_bytes("load_bytes"),
}


def _covered(intervals, start, end):
    """Length of the union of `intervals`, clipped to [start, end]."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans):
    """Per span: its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - _covered(children.get(i, ()), start, end)
            for i, (_, start, end, _) in enumerate(spans)]


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum, at percentile 100, below eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 100
    if n < 11:
        return ordered[-1], 100
    return ordered[n - 11], (100 * (n - 10)) // n


def layer_metrics(spans, counts):
    """Per-layer metrics (without the trace overhead) from spans and counters."""
    selfs = self_times(spans)
    total, own, durations = defaultdict(float), defaultdict(float), defaultdict(list)
    for (name, start, end, _), self_s in zip(spans, selfs):
        total[name] += end - start
        own[name] += self_s
        durations[name].append(end - start)
    hot = {f"{m}.{f}" for m, f, h in TRACED if h}
    out, tails = {}, {}
    for name in (f"{module}.{fn}" for module, fn, _ in TRACED):
        out[f"{name}.calls"] = len(durations[name])
        out[f"{name}.s"] = total[name]
        out[f"{name}.self_s"] = own[name]
        if name in hot:
            ms = [d * 1e3 for d in durations[name]]
            out[f"{name}.p50_ms"] = float(np.median(ms)) if ms else 0.0
            out[f"{name}.tail_ms"], tails[name] = tail(ms)
    batches = counts["batches"]
    out["tensor.backward.rows"] = counts["backward_rows"]
    out["tensor.forward.rows"] = counts["forward_rows"]
    out["tensor.backward.per_iter"] = out["tensor.backward.calls"] / batches if batches else 0.0
    out["masks.update.moved"] = counts["moved"]
    out["masks.update.useful_ratio"] = (counts["useful_updates"] / counts["updates"]
                                        if counts["updates"] else 0.0)
    out["masks.random.keep_rate"] = counts["kept"] / counts["active"] if counts["active"] else 0.0
    out["checkpoint.save_checkpoint.bytes"] = counts["save_bytes"]
    out["checkpoint.load_checkpoint.bytes"] = counts["load_bytes"]
    out["rng.substream.calls"] = counts["substream"]
    return out, tails
