"""Experiment orchestration: dataset assembly, single runs with artifact
persistence, sparsity sweeps, the random-mask correlation probe, and
reliability-diagram export."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .calibration import (
    CalibrationReport,
    ReliabilityBins,
    correct_rows,
    fit_temperature,
    nll,
    reliability_bins,
    write_reliability_csv,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import ConfigError, ExperimentConfig, format_config, resolve_config
from .fileio import atomic_write_text
from .data import Dataset, load_csv, load_idx, inject_label_noise, split_dataset, standardize, synth_two_moons
from .masks import DeterministicMask
from .predict import Predictor, predict_mc_dropout
from .rng import substream
from .tensor import MlpModel, softmax_columns
from .train import TrainResult, evaluate, train

ARTIFACTS = ("model.ckpt", "metrics.jsonl", "calibration.csv", "report.json", "config.resolved")


def build_datasets(cfg: ExperimentConfig):
    """(fit, val, test): source -> [label noise] -> train/test split -> [standardization]
    -> [validation split if calib.temperature, else val None], on the seed's streams.
    Each stage's input is dropped once its output exists, so at most two float32
    copies of the features are alive at once (the peak, at the train/test split).
    An empty split is a ConfigError naming the key that emptied it."""
    seed = cfg.train.seed
    d = cfg.data
    if d.source == "two_moons":
        ds = synth_two_moons(d.n, d.noise_sd, substream(seed, "data.synth"))
    elif d.source == "csv":
        ds = load_csv(d.csv_path, d.label_column)
    else:
        ds = load_idx(d.idx_images, d.idx_labels)
    if d.label_noise > 0:
        ds, _ = inject_label_noise(ds, d.label_noise, substream(seed, "data.noise"))
    train_ds, test_ds = split_dataset(ds, d.split, substream(seed, "data.split"))
    if not (len(train_ds) and len(test_ds)):
        raise ConfigError(f"data.split: leaves an empty train or test split of {len(ds)} rows")
    del ds  # the unsplit rows are dead; freeing them lowers the peak memory
    if d.standardize:
        train_ds, test_ds = standardize(train_ds, test_ds)
    if not cfg.temperature:
        return train_ds, None, test_ds
    fit_ds, val_ds = split_dataset(train_ds, (0.9, 0.1), substream(seed, "data.valsplit"))
    if not len(val_ds):
        raise ConfigError(f"calib.temperature: a tenth of {len(train_ds)} training rows "
                          "leaves the validation split empty")
    return fit_ds, val_ds, test_ds


def _report(cfg: ExperimentConfig, model: MlpModel, val_ds: Dataset | None, test_ds: Dataset,
            probs: np.ndarray, bins: ReliabilityBins,
            logits: np.ndarray | None) -> CalibrationReport:
    """The run's test calibration: probs and their bins as given, or with a
    validation split, the softmax of the feature-major test logits [k, n]
    (the ones probs was taken of; a single-softmax method's, as the config
    requires) at the temperature fitted on it, taken down each column as
    Predictor.probs takes it, binned at calib.n_bins."""
    temp = None
    if val_ds is not None:
        val_logits = Predictor(model, val_ds.features).logits(model)
        temp = fit_temperature(np.ascontiguousarray(val_logits.T), val_ds.labels)
        probs = np.ascontiguousarray(softmax_columns(logits / temp).T)
        bins = reliability_bins(probs, test_ds.labels, cfg.train.n_bins)
    return CalibrationReport(nll=nll(probs, test_ds.labels), bins=bins, temperature=temp)


@dataclass
class RunOutputs:
    out_dir: Path
    report: CalibrationReport
    result: TrainResult


def run_experiment(cfg: ExperimentConfig, out_root=None, force: bool = False) -> RunOutputs:
    cfg = resolve_config(cfg)
    out_dir = Path(out_root if out_root is not None else cfg.out_dir) / cfg.run_id
    if not force and any((out_dir / name).exists() for name in ARTIFACTS):
        raise ConfigError(f"run.id: output {out_dir} already holds run artifacts (use --force)")
    fit_ds, val_ds, test_ds = build_datasets(cfg)
    result = train(cfg.train, fit_ds, test_ds)
    report = _report(cfg, result.model, val_ds, test_ds, result.final_probs, result.final_bins,
                     result.final_logits)

    # made only now, so a run that fails leaves no directory behind
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "model.ckpt", Checkpoint(
        cfg.train.method, cfg.train.seed, result.model, result.mask,
        result.history[-1].n_models_in_wma))
    atomic_write_text(out_dir / "metrics.jsonl",
                      "".join(json.dumps(asdict(r)) + "\n" for r in result.history))
    write_reliability_csv(report.bins, out_dir / "calibration.csv")
    atomic_write_text(out_dir / "report.json", json.dumps({
        "ece": report.ece,
        "nll": report.nll,
        "accuracy": report.accuracy,
        "temperature": report.temperature,
        "n_bins": cfg.train.n_bins,
        "method": cfg.train.method,
        "seed": cfg.train.seed,
        "sparsity": cfg.train.sparsity,
    }, indent=2) + "\n")
    atomic_write_text(out_dir / "config.resolved", format_config(cfg))
    return RunOutputs(out_dir, report, result)


def run_sweep(cfg: ExperimentConfig, sparsities, seeds, out_root=None, force: bool = False) -> Path:
    """|sparsities| x |seeds| runs; rows sorted by (sparsity, seed). Every cell is resolved,
    and cells that would share a run directory are rejected, before any training;
    sweep.csv is rewritten after each cell, so a failing cell keeps the rows before it."""
    cells = [resolve_config(replace(cfg, run_id=f"{cfg.run_id}_s{s:g}_seed{seed}",
                                    train=replace(cfg.train, sparsity=s, seed=seed)))
             for s in sorted(sparsities) for seed in sorted(seeds)]
    if not cells:
        raise ConfigError("sweep: need at least one sparsity and one seed")
    run_ids = [cell.run_id for cell in cells]
    for run_id in run_ids:
        if run_ids.count(run_id) > 1:
            raise ConfigError(f"sweep: two cells share run id {run_id!r} "
                              "(a repeated seed, or sparsities equal when printed with %g)")
    out_root = Path(out_root if out_root is not None else cfg.out_dir)
    path = out_root / "sweep.csv"
    lines = ["sparsity,test_accuracy,ece,nll,seed"]
    for cell in cells:
        report = run_experiment(cell, out_root=out_root / "sweep_runs", force=force).report
        lines.append(f"{cell.train.sparsity:g},{report.accuracy!r},{report.ece!r},"
                     f"{report.nll!r},{cell.train.seed}")
        atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def correlate(model: MlpModel, mask: DeterministicMask, data: Dataset, keep_prob: float,
              n_draws: int, rng: np.random.Generator) -> dict:
    """Accuracy of the bare masked weights vs the mean over random-mask draws.

    Each draw is a one-sample MC-dropout prediction on the shared stream
    rng. A larger drop indicates a stronger coupling between the random mask
    and the weights it was trained with.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    def n_correct(probs) -> int:
        return int(np.count_nonzero(correct_rows(probs, data.labels)))

    columns = Predictor(model, data.features)  # every prediction here reuses its buffers
    base = n_correct(columns.probs(model)[0]) / len(data)
    # integer correct-counts so the keep_prob=1 drop is exactly zero
    correct = 0
    for _ in range(n_draws):
        correct += n_correct(predict_mc_dropout(model, mask, keep_prob, 1, data.features, rng,
                                                columns))
    mean_masked = correct / (n_draws * len(data))
    return {
        "base_accuracy": base,
        "mean_masked_accuracy": mean_masked,
        "accuracy_drop": base - mean_masked,
        "keep_prob": keep_prob,
        "n_draws": n_draws,
    }


def _load_for_eval(cfg: ExperimentConfig, ckpt_path):
    """(resolved config, model, mask, val split, test split) of a checkpoint of cfg's run."""
    cfg = resolve_config(cfg)
    ckpt = load_checkpoint(ckpt_path)
    for key, ours, theirs in (("seed", cfg.train.seed, ckpt.seed),
                              ("method", cfg.train.method, ckpt.method)):
        if ours != theirs:
            raise ConfigError(f"train.{key}: {ours} differs from the checkpoint's {key} "
                              f"{theirs}, so its evaluation would not be the run's")
    _, val_ds, test_ds = build_datasets(cfg)
    sizes = [test_ds.n_features, *cfg.train.hidden, test_ds.n_classes]
    ours, theirs = list(zip(sizes[1:], sizes[:-1])), [w.shape for w in ckpt.model.weights]
    if ours != theirs:
        raise ConfigError(f"train.hidden: weight shapes {ours} differ from the checkpoint's "
                          f"{theirs}, so its evaluation would not be the run's")
    return cfg, ckpt.model, ckpt.mask, val_ds, test_ds


def run_correlate(cfg: ExperimentConfig, ckpt_path, keep_prob: float = 0.9,
                  n_draws: int = 5) -> dict:
    cfg, model, mask, _, test_ds = _load_for_eval(cfg, ckpt_path)
    rng = substream(cfg.train.seed, "correlate.z")
    return correlate(model, mask, test_ds, keep_prob, n_draws, rng)


def run_export_reliability(cfg: ExperimentConfig, ckpt_path, out_file) -> Path:
    """The checkpoint's test reliability table: under its run's config, the run's calibration.csv."""
    cfg, model, mask, val_ds, test_ds = _load_for_eval(cfg, ckpt_path)
    probs, bins, logits = evaluate(model, mask, cfg.train, test_ds, cfg.train.epochs)
    out_file = Path(out_file)
    out_file.parent.mkdir(parents=True, exist_ok=True)
    report = _report(cfg, model, val_ds, test_ds, probs, bins, logits)
    write_reliability_csv(report.bins, out_file)
    return out_file
