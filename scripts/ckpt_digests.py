#!/usr/bin/env python3
"""One sha256 per training method on a short two-moons config, plus four
over the files the runner writes.

Trains every method in `cigl.config.METHODS` on the same data and prints a
digest over the output weights, topology masks, biases, the final test
probabilities and the per-epoch history. Two more lines cover the runner:
`cigl_run` hashes the five artifacts of a `run_experiment` with temperature
scaling, label smoothing and mixup on. `rigl_mcdp_eval` and `cigl_eval`
hash the `correlate` report and the `export-reliability` CSV of a
rigl_mcdp run (MC-dropout prediction) and of the `cigl_run` checkpoint
(a single softmax). `idx_run` hashes the five artifacts of a
`run_experiment` on a small seeded IDX pair that the script writes itself
(600 images of 8x8 with a constant pixel row), standardised and with
temperature scaling, so the IDX loader and `standardize` are pinned too.
A change that claims to keep the output bits must print the same lines
before and after:

    PYTHONPATH=src python3 scripts/ckpt_digests.py --seed 0

The `rigl_mcdp_eval` line changed once on purpose: export used to draw
its MC samples on its own stream, and now redraws the run's last-epoch
stream, so its CSV equals the run's calibration.csv (at seed 0 the line
went from da84ef72... to 72093c95...). The `cigl_eval` line changed once
on purpose too: export used to skip the temperature the run fitted, and
now refits it on the run's validation split, so its CSV equals the run's
calibration.csv (at seed 0 the line went from 5a70e6e6... to 0eb1acf3...).
The six sparse-method lines, `cigl_run` and `idx_run` changed
once on purpose: the loop used to re-mask the weights after every step and
keep the velocity of a pruned weight, and now zeroes the pruned weights and
velocities at each topology update, so some zeros off the topology carry
another sign; every value, mask, probability and history is the same (at
seed 0 the `cigl` line went from d44b4e10... to a0c5c114...).
Nine lines changed once on purpose again: a full 512-row prediction block
now runs only through the hidden units with a path to a logit
(then `cigl.train.reaching_units`), so its sums run over fewer terms, in
the order BLAS picks for the smaller shapes. The weights, masks, biases and
`model.ckpt` bytes are the same; the probabilities, histories and the
files made from them moved by float32 rounding. The `dense` line, whose
units all reach a logit, and `idx_run`, whose splits are shorter than one
block, did not move (at seed 0 the `cigl` line went from a0c5c114... to
c0dfb98d..., and `rigl_mcdp_eval` from 72093c95... to 624a7595...). Those
bits cannot be kept: pruning only the hidden layers and running the last one
at full width over a zero-filled scatter still changed 5 of 480 full blocks
(16 random 2-64-64-2 nets at sparsity 0.9, 30 draws each), since a narrower
hidden layer makes OpenBLAS sum in another order.
The six sparse-method lines, `cigl_run` and `idx_run` changed once on purpose
again: the loop now keeps its weights, velocities and random mask only at the
active positions and writes the output model as zeros plus one scatter, so
every weight off the topology is +0, and so is an active weight still at the
zero it was regrown with. No value changed: every nonzero weight, every bias, mask, update log,
probability and history, and every run file but `model.ckpt`, is the same.
The `dense`, `rigl_mcdp_eval` and `cigl_eval` lines did not move (at seed 0
the `cigl` line went from c0dfb98d... to 495a6f9b...).
Ten lines changed once on purpose again: prediction now runs only through
the hidden units that both depend on the input and reach a logit
(`cigl.train.live_units`). A unit that reaches a logit but has no path from
the input outputs a constant, which is folded into the next layer's bias, and
the shorter last block, so every test split of at most 512 rows, runs through
the same live net instead of the whole model. The weights, masks, biases and
`model.ckpt` bytes are the same; the probabilities, histories and the files
made from them moved by float32 rounding. Only the `dense` line, with no unit
to drop or fold, did not move (at seed 0 the `cigl` line went from
495a6f9b... to 5ab04800..., and `rigl_mcdp_eval` from 624a7595... to
dae4b0dd...).
The `cigl_run` and `idx_run` lines changed once on purpose again, at both
seeds: `model.ckpt` is now a version-2 file, one topology bitmap plus the
active weights and every bias, in place of every value of every tensor.
The same change builds a WMA output as zeros plus one scatter of the mean,
+0 off the topology where `mean * m` could hold -0; on these configs that
moved no weight's bytes. No other line moved (at seed 0 `cigl_run` went from
09b75061... to f17cb63e..., and `idx_run` from 6f502e7c... to abee7092...).
The lines that hash predictions changed once on purpose again: prediction
now runs feature-major, `W @ H` on `[width, columns]` activations over column
blocks of `x.T` (`cigl.train.ColumnForward`), where it ran `x @ w.T` over
512-row blocks, and its softmax sums the k classes in order. The weights,
masks, biases and `model.ckpt` bytes are the same at both seeds on both
kernels; the probabilities, histories and the files made from them moved by
float32 rounding wherever the kernel sums the transposed product in another
order. On SkylakeX only the `dense` line moved, at both seeds (at seed 0 from
96243fc3... to 8bc78d3f...); on Haswell every line moved, all of them hashing
some prediction (at seed 0 `cigl` went from 9ce20b6b... to 6723a4aa...).

The lines hold on one OpenBLAS kernel: a float32 GEMM kernel of another
vector width sums in another order, and every line changes (for example
under OPENBLAS_CORETYPE=Haswell on a machine whose default is SkylakeX).
So the script writes the kernel numpy's OpenBLAS chose to stderr, as
`openblas core: <name>`, or `unknown` when the library does not say, and
the tests keep one set of pinned lines per kernel name.
"""

import argparse
import ctypes
import hashlib
import json
import os
import struct
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from cigl import inject_label_noise, run_experiment, substream, synth_two_moons, train
from cigl.config import METHODS, parse_config_text
from cigl.runner import ARTIFACTS, run_correlate, run_export_reliability

RUN_CONFIG = """
train.epochs = 8
train.batch_size = 32
train.hidden = 32, 32
train.sparsity = 0.8
train.update_interval = 10
train.wma_start_epoch = 4
train.lr_milestones = 6
train.mc_samples = 5
data.n = 1200
"""


IDX_LINES = """run.id = idx
train.method = cigl
data.source = idx
data.idx_images = images.idx
data.idx_labels = labels.idx
data.standardize = true
calib.temperature = true
"""


def write_idx_pair(seed, n=600, side=8, n_classes=4):
    """images.idx and labels.idx in the working directory: each image is its
    class prototype plus u8 noise, with the first pixel row always 0."""
    rng = substream(seed, "digests.idx")
    protos = rng.integers(0, 256, (n_classes, side, side))
    labels = rng.integers(0, n_classes, n).astype(np.uint8)
    noisy = protos[labels] + rng.integers(-64, 65, (n, side, side))
    images = np.clip(noisy, 0, 255).astype(np.uint8)
    images[:, 0, :] = 0
    with open("images.idx", "wb") as f:
        f.write(struct.pack(">IIII", 0x803, n, side, side) + images.tobytes())
    with open("labels.idx", "wb") as f:
        f.write(struct.pack(">II", 0x801, n) + labels.tobytes())


def openblas_core() -> str:
    """The kernel name of the OpenBLAS bundled with numpy, as that library
    reports it for this CPU, or "unknown"."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def make_data(seed):
    tr = synth_two_moons(600, 0.25, substream(seed, "data.synth.train"))
    tr, _ = inject_label_noise(tr, 0.15, substream(seed, "data.noise.train"))
    te = synth_two_moons(1000, 0.25, substream(seed, "data.synth.test"))
    return tr, te


def digest(result) -> str:
    h = hashlib.sha256()
    for w, m, b in zip(result.model.weights, result.mask.layers, result.model.biases):
        h.update(np.ascontiguousarray(w).tobytes())
        h.update(np.packbits(m).tobytes())
        h.update(np.ascontiguousarray(b).tobytes())
    h.update(np.ascontiguousarray(result.final_probs).tobytes())
    h.update(json.dumps([asdict(r) for r in result.history]).encode())
    return h.hexdigest()


def run_config(seed, lines):
    return parse_config_text(RUN_CONFIG + f"train.seed = {seed}\n" + lines)


def run_digest(out_dir) -> str:
    h = hashlib.sha256()
    for name in ARTIFACTS:
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def eval_digest(cfg, out_dir) -> str:
    ckpt = out_dir / "model.ckpt"
    h = hashlib.sha256()
    h.update(json.dumps(run_correlate(cfg, ckpt)).encode())
    h.update(run_export_reliability(cfg, ckpt, out_dir / "reliability.csv").read_bytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    print(f"openblas core: {openblas_core()}", file=sys.stderr)
    tr, te = make_data(args.seed)
    for method in METHODS:
        cfg = replace(run_config(args.seed, "").train, method=method)
        print(f"{method:<12} {digest(train(cfg, tr, te))}")
    with tempfile.TemporaryDirectory() as tmp:
        cigl = run_config(args.seed, "run.id = cigl\ntrain.method = cigl\n"
                          "calib.temperature = true\ncalib.label_smoothing = 0.1\n"
                          "calib.mixup_alpha = 0.2\n")
        cigl_dir = run_experiment(cigl, out_root=tmp).out_dir
        print(f"{'cigl_run':<12} {run_digest(cigl_dir)}")
        mcdp = run_config(args.seed, "run.id = rigl_mcdp\ntrain.method = rigl_mcdp\n")
        mcdp_dir = run_experiment(mcdp, out_root=tmp).out_dir
        print(f"{'rigl_mcdp_eval':<12} {eval_digest(mcdp, mcdp_dir)}")
        print(f"{'cigl_eval':<12} {eval_digest(cigl, cigl_dir)}")
        # relative data paths, so config.resolved is the same in any directory
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            write_idx_pair(args.seed)
            idx_dir = run_experiment(run_config(args.seed, IDX_LINES), out_root=tmp).out_dir
            print(f"{'idx_run':<12} {run_digest(idx_dir)}")
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    main()
