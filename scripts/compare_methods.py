#!/usr/bin/env python3
"""Seed-paired comparison of sparse training methods on noisy two-moons.

Trains each requested method on identical per-seed datasets and prints
mean test accuracy, mean ECE, and per-seed ECE wins against the rigl
baseline. `make_data` and `experiment_config` define the experiment;
scripts/correlation_probe.py imports them.

    python3 scripts/compare_methods.py --seeds 10 --methods cigl,rigl,cigl_no_rm
"""

import argparse
import time

import numpy as np

from cigl import TrainConfig, inject_label_noise, substream, synth_two_moons, train


def make_data(seed, n_train=2000, n_test=10000, noise_sd=0.25, label_noise=0.15):
    tr = synth_two_moons(n_train, noise_sd, substream(seed, "data.synth.train"))
    tr, _ = inject_label_noise(tr, label_noise, substream(seed, "data.noise.train"))
    te = synth_two_moons(n_test, noise_sd, substream(seed, "data.synth.test"))
    te, _ = inject_label_noise(te, label_noise, substream(seed, "data.noise.test"))
    return tr, te


def experiment_config(method, seed, epochs, sparsity):
    return TrainConfig(
        method=method,
        epochs=epochs,
        batch_size=48,
        seed=seed,
        hidden=(64, 64),
        sparsity=sparsity,
        update_interval=50,
        update_end_fraction=0.5,
        wma_start_epoch=epochs // 2,
        base_lr=0.15,
        lr_milestones=(),
        weight_decay=5e-4,
        keep_prob=0.99,
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--methods", default="cigl,rigl")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--epochs", type=int, default=100)
    ap.add_argument("--sparsity", type=float, default=0.9)
    ap.add_argument("--n-train", type=int, default=2000)
    ap.add_argument("--n-test", type=int, default=10000)
    ap.add_argument("--noise-sd", type=float, default=0.25)
    ap.add_argument("--label-noise", type=float, default=0.15)
    args = ap.parse_args()
    methods = args.methods.split(",")

    t0 = time.time()
    results = {m: [] for m in methods}
    for seed in range(args.seeds):
        tr, te = make_data(seed, args.n_train, args.n_test, args.noise_sd, args.label_noise)
        for method in methods:
            cfg = experiment_config(method, seed, args.epochs, args.sparsity)
            last = train(cfg, tr, te).history[-1]
            results[method].append((last.test_accuracy, last.test_ece))
        done = ", ".join(f"{m}: ece={results[m][-1][1]:.4f}" for m in methods)
        print(f"seed {seed}: {done}")

    print(f"\n{'method':<12} {'acc mean':>9} {'acc sd':>8} {'ece mean':>9} {'ece sd':>8} {'ece wins vs rigl':>17}")
    baseline = np.array(results.get("rigl", results[methods[0]]))
    for method in methods:
        arr = np.array(results[method])
        wins = int(np.sum(arr[:, 1] < baseline[:, 1])) if method != "rigl" else "-"
        print(f"{method:<12} {arr[:, 0].mean():>9.4f} {arr[:, 0].std():>8.4f} "
              f"{arr[:, 1].mean():>9.4f} {arr[:, 1].std():>8.4f} {wins!s:>17}")
    print(f"\ntotal time: {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
