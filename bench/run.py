#!/usr/bin/env python3
"""cigl benchmark: one workload in this process, end-to-end or traced.

    python3 bench/run.py --workload moons_seeds --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from the `src/` directory
next to this one. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics under `--trace 0` and the per-layer metrics under `--trace 1`.
The line before it holds the details: environment manifest, timing
percentiles, per-seed quality and output digests. See README.md.
"""

import os

# Pinned before numpy loads: one BLAS/OpenMP thread keeps timings steady on
# a shared machine and stays within any nproc.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("train_iters_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("test_accuracy", "ratio"),
    ("test_ece", "ratio"),
)


def import_cigl():
    """A fresh import of the package, so every round pays the import."""
    for name in [n for n in sys.modules if n == "cigl" or n.startswith("cigl.")]:
        del sys.modules[name]
    importlib.import_module("cigl")
    return SimpleNamespace(**{m: sys.modules[f"cigl.{m}"] for m in tracing.SUBMODULES})


class TrainProbe:
    """Times every train() call and counts its iterations; its first entry
    in a round ends that round's set-up."""

    def __init__(self):
        self.first_entry = None
        self.seconds = 0.0
        self.iterations = 0

    def make(self, fn):
        def train(config, train_data, test_data):
            start = time.perf_counter()
            if self.first_entry is None:
                self.first_entry = start
            try:
                return fn(config, train_data, test_data)
            finally:
                self.seconds += time.perf_counter() - start
                self.iterations += config.epochs * math.ceil(len(train_data) / config.batch_size)
        return train


def run_round(workload, k, tracer=None):
    """One job: fresh import, set-up, run, then the untimed output checks.
    With a tracer, the cigl functions are wrapped for the set-up and run."""
    start = time.perf_counter()
    mods = import_cigl()
    probe = TrainProbe()
    patch = tracing.Patch()
    patch.replace(mods.train, "train", probe.make)
    trace_patch = tracer.install(mods) if tracer is not None else None
    try:
        state = workload.setup(mods, k)
        out = workload.run(mods, state, k)
        end = time.perf_counter()
    finally:
        if trace_patch is not None:
            trace_patch.restore()
        patch.restore()
    workload.check(mods, out)
    for op in out.ops:
        op.value = None
    gc.collect()  # the next round starts without this round's garbage
    setup_end = probe.first_entry if probe.first_entry is not None else end
    return SimpleNamespace(k=k, traced=tracer is not None, out=out,
                           setup_s=setup_end - start, run_s=end - setup_end,
                           iters_per_s=probe.iterations / probe.seconds if probe.seconds else 0.0)


def summary(values):
    """Median, the highest percentile with ten samples beyond it, and the count."""
    value, pct = tracing.tail(values)
    return {"median": statistics.median(values), "tail": value if len(values) > 10 else None,
            "tail_pct": pct if len(values) > 10 else None, "n": len(values)}


def manifest(args, workload):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # older numpy has no dict form
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "n_seeds": workload.n_seeds[args.size],
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit():
    """HEAD of the checkout, read without starting git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, n_seeds, seconds, trace):
    """Rounds until one pass over the seeds is done and `seconds` have passed.
    Traced runs alternate an untraced and a traced round per seed; the
    returned tracer holds the spans of the first pass's traced rounds."""
    rounds = []
    first_pass = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    k = 0
    while k < n_seeds or time.perf_counter() < deadline:
        rounds.append(run_round(workload, k % n_seeds))
        if trace:
            tracer = first_pass if k < n_seeds else tracing.Tracer()
            rounds.append(run_round(workload, k % n_seeds, tracer))
        k += 1
    return rounds, first_pass


def account(rounds):
    """Attempted and failed operations; a repeated seed must reproduce its digests."""
    first_digests = {}
    attempted = failed = 0
    errors = []
    for r in rounds:
        for i, op in enumerate(r.out.ops):
            key = (r.k, i)
            if op.error is None and op.digest is not None:
                expected = first_digests.setdefault(key, op.digest)
                if op.digest != expected:
                    op.error = f"seed {op.seed}: output differs from the earlier round on this seed"
            attempted += 1
            if op.error is not None:
                failed += 1
                errors.append(f"{op.name} seed {op.seed}: {op.error}")
    return attempted, failed, errors, first_digests


def end_to_end(rounds, n_seeds, attempted, failed):
    first_pass = rounds[:n_seeds]
    acc = [r.out.accuracy for r in first_pass if r.out.accuracy is not None]
    ece = [r.out.ece for r in first_pass if r.out.ece is not None]
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "run_s": statistics.median(r.run_s for r in rounds),
        "train_iters_per_s": statistics.median(r.iters_per_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
        "test_accuracy": statistics.fmean(acc) if acc else 0.0,
        "test_ece": statistics.fmean(ece) if ece else 0.0,
    }


def per_layer(rounds, tracer):
    """Per-layer metrics from the first pass's spans, plus the tracing
    overhead over every (untraced, traced) pair of rounds."""
    metrics, tails = tracing.layer_metrics(tracer.spans, tracer.counts)
    untraced = [r.run_s for r in rounds if not r.traced]
    traced = [r.run_s for r in rounds if r.traced]
    overhead = statistics.median(t - u for u, t in zip(untraced, traced))
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / statistics.median(untraced)
    return metrics, tails


def write_spans(spans, name):
    path = OUT / "spans" / f"{name}.jsonl.gz"
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as f:
        for span in spans:
            f.write(json.dumps(span) + "\n")
    return path


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: a seconds-long run for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cigl" / "__init__.py").is_file():
        print(f"error: no cigl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the s=0 arm clamps every prune/regrow by design, as in the acceptance fixture
    logging.getLogger("cigl.masks").setLevel(logging.ERROR)

    OUT.mkdir(exist_ok=True)
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{run_name}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
        workload.prepare(import_cigl())
        n_seeds = workload.n_seeds[args.size]
        rounds, tracer = measure(workload, n_seeds, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, errors, digests = account(rounds)
    untraced = [r for r in rounds if not r.traced]
    detail = {
        "manifest": manifest(args, workload),
        "rounds": len(rounds),
        "failed_frac": failed / attempted,
        "errors": errors[:5],
        "timings": {"setup_s": summary([r.setup_s for r in untraced]),
                    "run_s": summary([r.run_s for r in untraced]),
                    "train_iters_per_s": summary([r.iters_per_s for r in untraced])},
        "run_s_by_round": [r.run_s for r in untraced],
        "per_seed": [{"seed": workload.train_seed(r.k), "test_accuracy": r.out.accuracy,
                      "test_ece": r.out.ece, "report": r.out.report} for r in untraced[:n_seeds]],
        "digests": {f"{workload.train_seed(k)}/{i}": d for (k, i), d in sorted(digests.items())},
    }
    if args.trace:
        values, tails = per_layer(rounds, tracer)
        units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
        detail["tail_pct"] = tails
        detail["spans_file"] = str(write_spans(tracer.spans, run_name).relative_to(ROOT))
    else:
        values = end_to_end(untraced, n_seeds, attempted, failed)
        units = dict(END_TO_END)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
