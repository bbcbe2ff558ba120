"""Experiment configuration: the methods, every training and data knob, and
their flat key-value file form.

Files hold one `section.key = value` pair per line; blank lines and lines
starting with '#' are ignored. Unknown keys are a hard error so typos
surface immediately. The resolved form (every key explicit) reloads to an
identical configuration, which is what makes reruns bit-reproducible.
Every invalid value raises ConfigError naming its file key, whether it
reaches `train()` directly or through a file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .masks import SPARSITY_MODES


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class Method:
    sparse: bool  # topology mask with prune/regrow; otherwise dense training
    random_mask: bool  # Bernoulli random mask redrawn every iteration
    wma: bool  # output is the weight & mask average of late snapshots
    mc_predict: bool  # predicts by Monte Carlo dropout over random-mask draws


# Insertion order is the checkpoint's on-disk method tag order: append only.
METHODS = {
    # dual-mask sparse training with weight & mask averaging
    "cigl": Method(sparse=True, random_mask=True, wma=True, mc_predict=False),
    # magnitude-prune / gradient-regrow baseline (single mask)
    "rigl": Method(sparse=True, random_mask=False, wma=False, mc_predict=False),
    # rigl plus per-iteration Bernoulli weight dropout
    "rigl_wdp": Method(sparse=True, random_mask=True, wma=False, mc_predict=False),
    # trained exactly like rigl_wdp; Monte Carlo dropout at prediction
    "rigl_mcdp": Method(sparse=True, random_mask=True, wma=False, mc_predict=True),
    # no sparsity constraint, plain SGD training
    "dense": Method(sparse=False, random_mask=False, wma=False, mc_predict=False),
    # ablation: no random mask (averages bare masked snapshots)
    "cigl_no_rm": Method(sparse=True, random_mask=False, wma=True, mc_predict=False),
    # ablation: no averaging (returns the final iterate)
    "cigl_no_wma": Method(sparse=True, random_mask=True, wma=False, mc_predict=False),
}


def _check_finite(obj, section: str) -> None:
    """ConfigError naming the first field of obj that holds a non-finite float."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if any(isinstance(x, float) and not math.isfinite(x)
               for x in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{_KEY_OF[section, f.name]}: must be finite")


@dataclass
class TrainConfig:
    method: str = "cigl"
    epochs: int = 100
    batch_size: int = 128
    seed: int = 0
    hidden: tuple[int, ...] = (64, 64)
    sparsity: float = 0.9
    sparsity_mode: str = "uniform"  # uniform | erk
    mask_exclude: tuple[int, ...] = ()
    update_interval: int = 50  # iterations between topology updates
    update_fraction: float = 0.3  # initial prune/regrow fraction
    update_end_fraction: float = 0.75  # topology frozen past this share of iterations
    keep_prob: float = 0.9  # random-mask keep probability
    wma_start_epoch: int | None = None  # default: floor(0.8 * epochs)
    wma_every: int = 1  # collect a snapshot every this many epochs
    base_lr: float = 0.1
    lr_milestones: tuple[int, ...] = (50, 75)
    lr_decay: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    mc_samples: int = 30
    label_smoothing: float = 0.0
    mixup_alpha: float = 0.0
    n_bins: int = 15  # reliability bins of the test accuracy and ECE

    def resolved_wma_start(self) -> int:
        if self.wma_start_epoch is not None:
            return self.wma_start_epoch
        return int(0.8 * self.epochs)

    def lr_at(self, epoch: int) -> float:
        """Piecewise-constant decay: base_lr * lr_decay**(#milestones <= epoch)."""
        return self.base_lr * self.lr_decay**sum(m <= epoch for m in self.lr_milestones)

    def validate(self) -> None:
        """ConfigError naming the file key of the first invalid field."""
        _check_finite(self, "train")
        n_layers = len(self.hidden)
        for attr, ok, reason in (
            ("method", self.method in METHODS, f"unknown method {self.method!r}"),
            ("epochs", self.epochs >= 1, "must be >= 1"),
            ("batch_size", self.batch_size >= 1, "must be >= 1"),
            ("hidden", n_layers and all(h >= 1 for h in self.hidden),
             "layer sizes must be positive"),
            ("sparsity", 0.0 <= self.sparsity < 1.0, "must be in [0, 1)"),
            ("sparsity_mode", self.sparsity_mode in SPARSITY_MODES,
             f"unknown mode {self.sparsity_mode!r}"),
            ("mask_exclude", all(0 <= i <= n_layers for i in self.mask_exclude),
             f"layer indices must be in [0, {n_layers}]"),
            ("update_interval", self.update_interval >= 1, "must be >= 1"),
            ("update_fraction", 0.0 <= self.update_fraction <= 1.0, "must be in [0, 1]"),
            ("update_end_fraction", 0.0 < self.update_end_fraction <= 1.0, "must be in (0, 1]"),
            ("keep_prob", 0.0 <= self.keep_prob <= 1.0, "must be in [0, 1]"),
            ("wma_start_epoch", 0 <= self.resolved_wma_start() < self.epochs,
             "must be in [0, epochs)"),
            ("wma_every", self.wma_every >= 1, "must be >= 1"),
            ("base_lr", self.base_lr > 0, "must be > 0"),
            ("lr_milestones", all(a < b for a, b in zip(self.lr_milestones, self.lr_milestones[1:])),
             "must be strictly increasing"),
            ("lr_decay", 0.0 < self.lr_decay < 1.0, "must be in (0, 1)"),
            ("momentum", 0.0 <= self.momentum < 1.0, "must be in [0, 1)"),
            ("weight_decay", self.weight_decay >= 0.0, "must be >= 0"),
            ("mc_samples", self.mc_samples >= 1, "must be >= 1"),
            ("label_smoothing", 0.0 <= self.label_smoothing < 1.0, "must be in [0, 1)"),
            ("mixup_alpha", self.mixup_alpha >= 0.0, "must be >= 0"),
            ("n_bins", self.n_bins >= 1, "must be >= 1"),
        ):
            if not ok:
                raise ConfigError(f"{_KEY_OF['train', attr]}: {reason}")


@dataclass
class DataConfig:
    source: str = "two_moons"  # two_moons | csv | idx
    n: int = 2000
    noise_sd: float = 0.25
    label_noise: float = 0.15
    split: tuple[float, ...] = (0.5, 0.5)
    csv_path: str | None = None
    label_column: str | None = None
    idx_images: str | None = None
    idx_labels: str | None = None
    standardize: bool = False


@dataclass
class ExperimentConfig:
    run_id: str = "run"
    out_dir: str = "runs"
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    temperature: bool = False  # fit a softmax temperature on a validation split


def _parse_bool(raw: str) -> bool:
    if raw in ("true", "True"):
        return True
    if raw in ("false", "False"):
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    return tuple(int(x) for x in raw.split(",")) if raw else ()


def _parse_float_list(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    return tuple(float(x) for x in raw.split(",")) if raw else ()


def _parse_opt_str(raw: str):
    return raw if raw else None


def _parse_opt_int(raw: str):
    return int(raw) if raw else None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


# key -> (section attribute, field name, parser)
_KEYS = {
    "run.id": ("", "run_id", str),
    "run.out": ("", "out_dir", str),
    "train.method": ("train", "method", str),
    "train.epochs": ("train", "epochs", int),
    "train.batch_size": ("train", "batch_size", int),
    "train.seed": ("train", "seed", int),
    "train.hidden": ("train", "hidden", _parse_int_list),
    "train.sparsity": ("train", "sparsity", float),
    "train.sparsity_mode": ("train", "sparsity_mode", str),
    "train.mask_exclude": ("train", "mask_exclude", _parse_int_list),
    "train.update_interval": ("train", "update_interval", int),
    "train.update_fraction": ("train", "update_fraction", float),
    "train.update_end_fraction": ("train", "update_end_fraction", float),
    "train.keep_prob": ("train", "keep_prob", float),
    "train.wma_start_epoch": ("train", "wma_start_epoch", _parse_opt_int),
    "train.wma_every": ("train", "wma_every", int),
    "train.base_lr": ("train", "base_lr", float),
    "train.lr_milestones": ("train", "lr_milestones", _parse_int_list),
    "train.lr_decay": ("train", "lr_decay", float),
    "train.momentum": ("train", "momentum", float),
    "train.weight_decay": ("train", "weight_decay", float),
    "train.mc_samples": ("train", "mc_samples", int),
    "data.source": ("data", "source", str),
    "data.n": ("data", "n", int),
    "data.noise_sd": ("data", "noise_sd", float),
    "data.label_noise": ("data", "label_noise", float),
    "data.split": ("data", "split", _parse_float_list),
    "data.csv_path": ("data", "csv_path", _parse_opt_str),
    "data.label_column": ("data", "label_column", _parse_opt_str),
    "data.idx_images": ("data", "idx_images", _parse_opt_str),
    "data.idx_labels": ("data", "idx_labels", _parse_opt_str),
    "data.standardize": ("data", "standardize", _parse_bool),
    # calib.* keys other than calib.temperature set TrainConfig fields
    "calib.n_bins": ("train", "n_bins", int),
    "calib.temperature": ("", "temperature", _parse_bool),
    "calib.mixup_alpha": ("train", "mixup_alpha", float),
    "calib.label_smoothing": ("train", "label_smoothing", float),
}


# (section attribute, field name) -> the file key that sets it
_KEY_OF = {(section, attr): key for key, (section, attr, _) in _KEYS.items()}


def parse_config_text(text: str, origin: str = "<config>") -> ExperimentConfig:
    cfg = ExperimentConfig()
    seen = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{line_no}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"{origin}:{line_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{origin}:{line_no}: duplicate key {key!r}")
        seen.add(key)
        section, attr, parser = _KEYS[key]
        try:
            value = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"{origin}:{line_no}: {key}: {exc}") from None
        target = cfg if not section else getattr(cfg, section)
        setattr(target, attr, value)
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as f:
        return parse_config_text(f.read(), origin=str(path))


def resolve_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Materialize all defaults and validate. The result round-trips through
    format_config/parse_config_text unchanged."""
    out = replace(cfg, train=replace(cfg.train, wma_start_epoch=cfg.train.resolved_wma_start()),
                  data=replace(cfg.data))
    out.train.validate()
    if out.temperature and METHODS[out.train.method].mc_predict:
        raise ConfigError(f"calib.temperature: {out.train.method} predicts by MC dropout, "
                          "which has no single logit set to scale")
    if not out.run_id:
        raise ConfigError("run.id: must be nonempty")
    d = out.data
    _check_finite(d, "data")
    if d.source not in ("two_moons", "csv", "idx"):
        raise ConfigError(f"data.source: unknown source {d.source!r}")
    if d.source == "two_moons":
        if d.n < 2:
            raise ConfigError("data.n: need at least 2 samples")
        if d.noise_sd < 0:
            raise ConfigError("data.noise_sd: must be >= 0")
    if d.source == "csv":
        if not d.csv_path:
            raise ConfigError("data.csv_path: required when data.source = csv")
        if not d.label_column:
            raise ConfigError("data.label_column: required when data.source = csv")
    if d.source == "idx":
        if not d.idx_images:
            raise ConfigError("data.idx_images: required when data.source = idx")
        if not d.idx_labels:
            raise ConfigError("data.idx_labels: required when data.source = idx")
    if not 0.0 <= d.label_noise <= 1.0:
        raise ConfigError("data.label_noise: must be in [0, 1]")
    if len(d.split) != 2 or abs(sum(d.split) - 1.0) > 1e-9 or any(f <= 0 for f in d.split):
        raise ConfigError("data.split: need two positive fractions summing to 1")
    return out


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical text form with every key explicit, in schema order."""
    lines = []
    for key, (section, attr, _parser) in _KEYS.items():
        target = cfg if not section else getattr(cfg, section)
        lines.append(f"{key} = {_fmt(getattr(target, attr))}")
    return "\n".join(lines) + "\n"
