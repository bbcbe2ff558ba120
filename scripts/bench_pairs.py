#!/usr/bin/env python3
"""Alternating end-to-end benchmark pairs of two checkouts of this repository.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload mc_eval \\
        --pairs 10 --seconds 30 --seed 7

Each pair runs `bench/run.py --trace 0` once in each checkout, each in a fresh
process; the side that runs first alternates from pair to pair, so drift in
the machine's speed falls on both. Prints every pair's end-to-end metrics,
then per metric the parent's and the change's medians, the number of pairs
the change won (strictly better in the direction BENCHMARK.json gives; ties
count for neither side) and the distance between the parent's quartiles.
A gain is claimable only when the change wins nearly every pair and the gap
between the medians exceeds that spread. The last three lines say whether the
two sides' digests were equal in every pair, whether each seed's accuracy and
ECE were, and the largest per-seed |change - parent| of each over all pairs,
which shows how far a change that moves last bits moves them. The digests
hash bytes, the sign of a zero weight too, so they can move while the values
do not.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, args) -> tuple[dict, list]:
    """One untraced run in checkout: its end-to-end metrics, name -> value,
    and its outputs: the digests and each seed's accuracy and ECE."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0", "--size", args.size],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    *_, detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines())
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {result['failed']} of {result['attempted']} operations failed")
    outputs = [detail["detail"]["digests"],
               [(s["seed"], s["test_accuracy"], s["test_ece"]) for s in detail["detail"]["per_seed"]]]
    return {name: m["value"] for name, m in result["metrics"].items()}, outputs


def quartile_spread(values) -> float:
    """Upper minus lower quartile; 0 for a single value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarise(parent_runs, change_runs, better) -> list[str]:
    """One line per metric: medians, the change's wins, the parent's spread."""
    lines = [f"{'metric':<18} {'better':<7} {'parent':>12} {'change':>12} {'delta':>8} "
             f"{'wins':>6} {'parent_iqr':>11}"]
    for name, direction in better.items():
        a = [run[name] for run in parent_runs]
        b = [run[name] for run in change_runs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        delta = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
        lines.append(f"{name:<18} {direction:<7} {ma:>12.6g} {mb:>12.6g} {delta:>8} "
                     f"{wins:>3}/{len(a):<2} {quartile_spread(a):>11.4g}")
    return lines


def largest_gaps(pairs) -> tuple[float, float]:
    """The largest per-seed |change - parent| of test accuracy and of test ECE
    over pairs of per-seed (seed, accuracy, ECE) lists, parent's first."""
    gaps = [(abs(ca - pa), abs(ce - pe))
            for parent, change in pairs for (_, pa, pe), (_, ca, ce) in zip(parent, change)]
    return max((a for a, _ in gaps), default=0.0), max((e for _, e in gaps), default=0.0)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    same_digests = same_quality = True
    quality = []  # per pair, each side's per-seed (seed, accuracy, ECE)
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        outputs = {}
        for side in order:
            metrics, outputs[side] = run_bench(sides[side], args)
            runs[side].append(metrics)
        same_digests &= outputs["parent"][0] == outputs["change"][0]
        same_quality &= outputs["parent"][1] == outputs["change"][1]
        quality.append((outputs["parent"][1], outputs["change"][1]))
        line = " ".join(f"{name}={runs['parent'][-1][name]:.6g}/{runs['change'][-1][name]:.6g}"
                        for name in better)
        print(f"pair {i + 1} ({order[0]} first) parent/change: {line}", flush=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs")
    print("\n".join(summarise(runs["parent"], runs["change"], better)))
    print(f"same digests in every pair: {'yes' if same_digests else 'no'}")
    print(f"same per-seed accuracy and ECE in every pair: {'yes' if same_quality else 'no'}")
    acc_gap, ece_gap = largest_gaps(quality)
    print(f"largest per-seed |change - parent|: test_accuracy {acc_gap:.3g}, test_ece {ece_gap:.3g}")


if __name__ == "__main__":
    main()
