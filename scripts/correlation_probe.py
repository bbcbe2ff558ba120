#!/usr/bin/env python3
"""How coupled are the trained weights to their random masks?

For each sparsity, trains the dual-mask method, then compares the test
accuracy of the bare masked weights against the mean accuracy over random
mask draws. The accuracy drop grows with sparsity: sparse weights depend
on the masks they were trained with, dense ones barely notice. The data
and training config are those of scripts/compare_methods.py.

    python3 scripts/correlation_probe.py --sparsities 0,0.5,0.8,0.9
"""

import argparse

import numpy as np

from cigl import substream, train
from cigl.runner import correlate
from compare_methods import experiment_config, make_data


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sparsities", default="0,0.5,0.8,0.9")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--epochs", type=int, default=100)
    ap.add_argument("--keep-prob", type=float, default=0.9)
    ap.add_argument("--draws", type=int, default=5)
    args = ap.parse_args()
    sparsities = [float(s) for s in args.sparsities.split(",")]

    print(f"{'sparsity':>8} {'base acc':>9} {'masked acc':>11} {'drop':>8}")
    for sparsity in sparsities:
        drops, bases, masked = [], [], []
        for seed in range(args.seeds):
            tr, te = make_data(seed)
            res = train(experiment_config("cigl", seed, args.epochs, sparsity), tr, te)
            rep = correlate(res.model, res.mask, te, args.keep_prob, args.draws,
                            substream(seed, "correlate.z"))
            bases.append(rep["base_accuracy"])
            masked.append(rep["mean_masked_accuracy"])
            drops.append(rep["accuracy_drop"])
        print(f"{sparsity:>8.2f} {np.mean(bases):>9.4f} {np.mean(masked):>11.4f} "
              f"{np.mean(drops):>+8.4f}")


if __name__ == "__main__":
    main()
