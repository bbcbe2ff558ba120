"""Command-line experiment runner.

Subcommands: run, sweep, correlate, export-reliability. Exit codes:
0 success, 1 runtime failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from dataclasses import replace

from .config import ConfigError, load_config
from .runner import run_correlate, run_experiment, run_export_reliability, run_sweep


def _checked(parse, need: str, ok=lambda _: True):
    """An argparse type: exit 2 naming the flag unless parse(raw) succeeds and ok holds."""
    def convert(raw: str):
        try:
            value = parse(raw)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"need {need}, got {raw!r}")
    return convert


def _add_common(p: argparse.ArgumentParser, out: bool, seed: bool) -> None:
    p.add_argument("--config", required=True, help="experiment config file")
    if out:
        p.add_argument("--out", default=None, help="output root (overrides run.out)")
        p.add_argument("--force", action="store_true", help="overwrite an existing run id")
    if seed:
        p.add_argument("--seed", type=int, default=None, help="override train.seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cigl", description=__doc__)
    # exact flag names only: a prefix such as --out would otherwise silently mean --out-file
    sub = parser.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("run", help="train one configured model and persist artifacts")
    _add_common(p, out=True, seed=True)

    p = sub.add_parser("sweep", help="train over a sparsity x seed grid, emit sweep.csv")
    _add_common(p, out=True, seed=False)
    p.add_argument("--sparsities", required=True, help="comma-separated sparsity values",
                   type=_checked(lambda raw: [float(s) for s in raw.split(",")], "numbers"))
    p.add_argument("--seeds", required=True, help="comma-separated seeds",
                   type=_checked(lambda raw: [int(s) for s in raw.split(",")], "integers"))

    p = sub.add_parser("correlate", help="accuracy drop of random-masked vs bare weights")
    _add_common(p, out=False, seed=True)
    p.add_argument("--ckpt", required=True, help="checkpoint to probe")
    p.add_argument("--keep-prob", default=0.9,
                   type=_checked(float, "a number in [0, 1]", lambda q: 0.0 <= q <= 1.0))
    p.add_argument("--draws", default=5, type=_checked(int, "an integer >= 1", lambda n: n >= 1))

    p = sub.add_parser("export-reliability", help="write the reliability-diagram CSV for a checkpoint")
    _add_common(p, out=False, seed=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out-file", required=True)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command != "sweep" and args.seed is not None:
            cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))
        if args.command == "run":
            out = run_experiment(cfg, out_root=args.out, force=args.force)
            print(f"run complete: accuracy={out.report.accuracy:.4f} "
                  f"ece={out.report.ece:.4f} -> {out.out_dir}")
        elif args.command == "sweep":
            path = run_sweep(cfg, args.sparsities, args.seeds, out_root=args.out, force=args.force)
            print(f"sweep complete: {path}")
        elif args.command == "correlate":
            report = run_correlate(cfg, args.ckpt, keep_prob=args.keep_prob, n_draws=args.draws)
            print(json.dumps(report, indent=2))
        elif args.command == "export-reliability":
            path = run_export_reliability(cfg, args.ckpt, args.out_file)
            print(f"reliability table written: {path}")
        return 0
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
