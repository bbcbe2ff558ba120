#!/usr/bin/env python3
"""One sha256 per training method on a short two-moons config.

Trains every method in `cigl.train.METHODS` on the same data and prints a
digest over the output weights, topology masks, biases, the final test
probabilities and the per-epoch history. A change that claims to keep the
training bits must print the same lines before and after:

    PYTHONPATH=src python3 scripts/ckpt_digests.py --seed 0
"""

import argparse
import hashlib
import json

import numpy as np

from cigl import TrainConfig, inject_label_noise, substream, synth_two_moons, train
from cigl.train import METHODS


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
    h.update(json.dumps([r.to_dict() for r in result.history]).encode())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    tr, te = make_data(args.seed)
    for method in METHODS:
        cfg = TrainConfig(
            method=method,
            epochs=8,
            batch_size=32,
            seed=args.seed,
            hidden=(32, 32),
            sparsity=0.8,
            update_interval=10,
            update_end_fraction=0.75,
            keep_prob=0.9,
            wma_start_epoch=4,
            base_lr=0.1,
            lr_milestones=(6,),
            mc_samples=5,
        )
        print(f"{method:<12} {digest(train(cfg, tr, te))}")


if __name__ == "__main__":
    main()
