#!/usr/bin/env python3
"""Alternating end-to-end benchmark pairs of two checkouts of this repository.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload mc_eval \\
        --pairs 10 --seconds 30 --seed 7

`--workload` also takes a comma-separated list (`mnist_sparse,mc_eval`): the
workloads run one after another, each with its own pairs and summary block.

Both checkouts' `src` are byte-compiled first. Each pair runs `bench/run.py
--trace 0` once in each checkout, each in a fresh process; the side that runs
first alternates from pair to pair, so drift in the machine's speed falls on
both. Prints every pair's end-to-end metrics, then per metric the parent's
and the change's medians, the number of pairs the change won (strictly
better in the direction BENCHMARK.json gives; ties count for neither side),
the distance between the parent's quartiles and a verdict from the metric's
bound in BENCHMARK.json, the first of these that holds:

    gain        the change wins at least 9/10 of the pairs, and the gap between
                the medians exceeds the parent's quartile spread
    worse       the change's median is worse than the parent's by more than
                bound * |parent median|
    unresolved  the parent's quartile spread exceeds bound * |parent median|,
                and some change run does not beat every parent run
    same        otherwise

The last three lines say whether the
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


def compile_sources(checkout: Path) -> None:
    """Byte-compile checkout's src, so that no run of either side pays for
    compiling it: a side with a fresh __pycache__ read setup_s 35-40% lower
    than one without, on identical code."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True)


def run_bench(checkout: Path, workload: str, args) -> tuple[dict, list]:
    """One untraced run of workload in checkout: its end-to-end metrics,
    name -> value, and its outputs: the digests and each seed's accuracy and ECE."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(args.seed),
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


def wins(parent, change, better) -> int:
    """The pairs in which the change is strictly better in the direction better."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (y - x) > 0 for x, y in zip(parent, change))


def verdict(parent, change, better, bound) -> str:
    """gain, worse, unresolved or same (the module docstring gives the rules):
    one metric's runs of the change against the parent's, pair by pair."""
    sign = 1 if better == "higher" else -1
    gap = sign * (statistics.median(change) - statistics.median(parent))
    spread, scale = quartile_spread(parent), bound * abs(statistics.median(parent))
    if 10 * wins(parent, change, better) >= 9 * len(parent) and gap > spread:
        return "gain"
    if gap < -scale:
        return "worse"
    if spread > scale and not min(sign * y for y in change) > max(sign * x for x in parent):
        return "unresolved"
    return "same"


def summarise(parent_runs, change_runs, specs) -> list[str]:
    """One line per metric: medians, the change's wins, the parent's spread, the verdict."""
    lines = [f"{'metric':<18} {'better':<7} {'parent':>12} {'change':>12} {'delta':>8} "
             f"{'wins':>6} {'parent_iqr':>11} {'verdict':>10}"]
    for name, spec in specs.items():
        a = [run[name] for run in parent_runs]
        b = [run[name] for run in change_runs]
        ma, mb = statistics.median(a), statistics.median(b)
        delta = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
        lines.append(f"{name:<18} {spec['better']:<7} {ma:>12.6g} {mb:>12.6g} {delta:>8} "
                     f"{wins(a, b, spec['better']):>3}/{len(a):<2} {quartile_spread(a):>11.4g} "
                     f"{verdict(a, b, spec['better'], spec['bound']):>10}")
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
    ap.add_argument("--workload", required=True, help="a workload, or a comma-separated list")
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    if not all(args.workload.split(",")):
        ap.error("--workload: empty workload name")
    return args


def compare(args, workload: str, specs: dict) -> None:
    """args.pairs alternating pairs of workload: a line per pair, then the summary block."""
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    same_digests = same_quality = True
    quality = []  # per pair, each side's per-seed (seed, accuracy, ECE)
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        outputs = {}
        for side in order:
            metrics, outputs[side] = run_bench(sides[side], workload, args)
            runs[side].append(metrics)
        same_digests &= outputs["parent"][0] == outputs["change"][0]
        same_quality &= outputs["parent"][1] == outputs["change"][1]
        quality.append((outputs["parent"][1], outputs["change"][1]))
        line = " ".join(f"{name}={runs['parent'][-1][name]:.6g}/{runs['change'][-1][name]:.6g}"
                        for name in specs)
        print(f"pair {i + 1} ({order[0]} first) parent/change: {line}", flush=True)
    print(f"workload {workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs")
    print("\n".join(summarise(runs["parent"], runs["change"], specs)))
    print(f"same digests in every pair: {'yes' if same_digests else 'no'}")
    print(f"same per-seed accuracy and ECE in every pair: {'yes' if same_quality else 'no'}")
    acc_gap, ece_gap = largest_gaps(quality)
    print(f"largest per-seed |change - parent|: test_accuracy {acc_gap:.3g}, test_ece {ece_gap:.3g}")


def main(argv=None):
    args = parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    for checkout in (args.parent, args.change):
        compile_sources(checkout)
    for workload in args.workload.split(","):
        compare(args, workload, specs)


if __name__ == "__main__":
    main()
