"""Tracer checks: self time on a synthetic span tree, and that uninstalling
the wrappers restores every binding the traced run replaced."""

import importlib
import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracer as tracing

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _coverage_on_grid(intervals, start, end, step=0.25):
    """Brute-force length of the union of intervals inside [start, end]."""
    points = np.arange(start, end, step) + step / 2
    inside = [any(s <= p < e for s, e in intervals) for p in points]
    return step * sum(inside)


def test_self_time_plus_child_coverage_is_duration():
    # name, start, end, parent; siblings 1 and 2 overlap, 4 pokes out of its parent
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],
        ["c", 6.0, 7.0, 0],
        ["a.x", 1.5, 3.5, 1],
        ["c.y", 6.25, 6.5, 3],
    ]
    selfs = tracing.self_times(spans)
    for i, (_, start, end, _) in enumerate(spans):
        children = [(s, e) for _, s, e, p in spans if p == i]
        assert selfs[i] + _coverage_on_grid(children, start, end) == end - start
    assert selfs[0] == 5.0
    assert selfs[1] == 0.5


def test_nested_wrappers_partition_the_root_span():
    ticks = itertools.count()
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = tr.wrap("leaf", leaf)

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_middle = tr.wrap("middle", middle)
    root = tr.wrap("root", lambda: wrapped_middle() + wrapped_leaf())
    assert root() == 3
    names = [s[0] for s in tr.spans]
    assert names == ["root", "middle", "leaf", "leaf", "leaf"]
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 1, 0]
    selfs = tracing.self_times(tr.spans)
    root_span = tr.spans[0]
    assert sum(selfs) == root_span[2] - root_span[1]
    assert all(s > 0 for s in selfs)


def _bindings(mods):
    """Every (owner, attribute) -> object of the loaded cigl modules."""
    out = {}
    for mod in tracing.cigl_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
    out[("BatchIterator", "epoch_batches")] = mods.data.BatchIterator.__dict__["epoch_batches"]
    return out


def test_uninstall_restores_every_binding():
    mods = SimpleNamespace(**{m: importlib.import_module(f"cigl.{m}")
                              for m in tracing.SUBMODULES})
    before = _bindings(mods)
    original_backward = mods.tensor.backward
    tr = tracing.Tracer()
    patch = tr.install(mods)
    try:
        during = _bindings(mods)
        # consuming modules' bindings are wrapped, not only the defining module's
        assert mods.tensor.backward is not original_backward
        assert mods.train.backward is mods.tensor.backward
        assert mods.runner.train is mods.train.train is sys.modules["cigl"].train
        assert mods.train.substream is not before[("cigl.rng", "substream")]
        changed = {key for key in before if during[key] is not before[key]}
        assert len(changed) > len(tracing.TRACED)

        ds = mods.data.synth_two_moons(200, 0.25, mods.rng.substream(0, "t"))
        cfg = mods.train.TrainConfig(method="cigl", epochs=2, batch_size=50, seed=0,
                                     hidden=(8,), update_interval=2, wma_start_epoch=1)
        mods.train.train(cfg, ds, ds)
    finally:
        patch.restore()
    after = _bindings(mods)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    metrics, _ = tracing.layer_metrics(tr.spans, tr.counts)
    assert metrics["train.train.calls"] == 1
    assert metrics["tensor.backward.calls"] >= 8  # 4 batches x 2 epochs, plus update passes
    assert metrics["tensor.backward.per_iter"] >= 1.0
    assert metrics["masks.update_deterministic_mask.calls"] >= 1
    assert 0.0 < metrics["masks.random.keep_rate"] <= 1.0
    assert metrics["rng.substream.calls"] >= 2
    assert set(metrics) == {name for name, _, _ in tracing.per_layer_spec()
                            if not name.startswith("trace.")}
