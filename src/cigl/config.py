"""Experiment configuration: the methods, every training and data knob, and
their flat key-value file form.

Files hold one `section.key = value` pair per line; blank lines and lines
starting with '#' are ignored. Unknown keys are a hard error so typos
surface immediately. The keys derive from the dataclasses: `train.<field>`
for each TrainConfig field, `data.<field>` for each DataConfig field, plus
the six keys of _ALIASES (run.id, run.out and calib.*). A field's type hint
gives its parser and formatter, so a new knob is one typed field.
resolve_config writes each value as its declared type and parses it back, so
its result (every key explicit) reloads to an identical configuration, which
is what makes reruns bit-reproducible. Every invalid value raises ConfigError
naming its file key, whether it reaches `train()` directly or through a file.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field, fields
from typing import get_args, get_origin, get_type_hints

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


def _check(obj, section: str, rules) -> None:
    """ConfigError naming the file key of the first field of obj that holds a
    non-finite float, else of the first (field, holds, reason) rule that fails."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if any(isinstance(x, float) and not math.isfinite(x)
               for x in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{_KEY_OF[section, f.name]}: must be finite")
    for attr, holds, reason in rules:
        if not holds:
            raise ConfigError(f"{_KEY_OF[section, attr]}: {reason}")


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
    temperature: bool = False  # fit a softmax temperature on a validation split

    def resolved_wma_start(self) -> int:
        if self.wma_start_epoch is not None:
            return self.wma_start_epoch
        return int(0.8 * self.epochs)

    def lr_at(self, epoch: int) -> float:
        """Piecewise-constant decay: base_lr * lr_decay**(#milestones <= epoch)."""
        return self.base_lr * self.lr_decay**sum(m <= epoch for m in self.lr_milestones)

    def validate(self) -> None:
        """ConfigError naming the file key of the first invalid field."""
        n_layers, method = len(self.hidden), METHODS.get(self.method)
        _check(self, "train", (
            ("method", self.method in METHODS, f"unknown method {self.method!r}"),
            ("epochs", self.epochs >= 1, "must be >= 1"),
            ("batch_size", self.batch_size >= 1, "must be >= 1"),
            ("seed", 0 <= self.seed < 2**64, "must be in [0, 2**64)"),
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
            ("temperature", not (self.temperature and method and method.mc_predict),
             f"{self.method} predicts by MC dropout, which has no single logit set to scale"),
        ))


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

    def validate(self) -> None:
        """ConfigError naming the file key of the first invalid field."""
        moons, csv, idx = (self.source == s for s in ("two_moons", "csv", "idx"))
        _check(self, "data", (
            ("source", moons or csv or idx, f"unknown source {self.source!r}"),
            ("n", not moons or self.n >= 2, "need at least 2 samples"),
            ("noise_sd", not moons or self.noise_sd >= 0, "must be >= 0"),
            ("csv_path", not csv or self.csv_path, "required when data.source = csv"),
            ("label_column", not csv or self.label_column, "required when data.source = csv"),
            ("idx_images", not idx or self.idx_images, "required when data.source = idx"),
            ("idx_labels", not idx or self.idx_labels, "required when data.source = idx"),
            ("label_noise", 0.0 <= self.label_noise <= 1.0, "must be in [0, 1]"),
            ("split", len(self.split) == 2 and abs(sum(self.split) - 1.0) <= 1e-9
             and all(f > 0 for f in self.split), "need two positive fractions summing to 1"),
        ))


@dataclass
class ExperimentConfig:
    run_id: str = "run"
    out_dir: str = "runs"
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)


def _parse_bool(raw: str) -> bool:
    if raw not in ("true", "True", "false", "False"):
        raise ValueError(f"expected true/false, got {raw!r}")
    return raw in ("true", "True")


def _format_bool(value) -> str:
    if value not in (True, False):
        raise TypeError(f"expected true/false, got {value!r}")
    return "true" if value else "false"


def _format_str(value) -> str:
    """A path's text; None, a number, or what a line cannot hold is refused."""
    text = os.fspath(value)
    if text != text.strip() or len(text.splitlines()) > 1:
        raise ValueError(f"expected one line without surrounding whitespace, got {text!r}")
    return text


# scalar type -> (parse, format); format writes a value as that type
_SCALARS = {
    str: (str, _format_str),
    int: (int, lambda v: str(operator.index(v))),
    float: (float, lambda v: repr(float(v))),
    bool: (_parse_bool, _format_bool),
}


def _codec(hint):
    """(parse, format) of a field whose type hint is a scalar of _SCALARS, a
    tuple[scalar, ...] written comma-separated, or X | None written empty for None."""
    args = get_args(hint)
    if type(None) in args:
        parse, fmt = _codec(args[0])
        return (lambda raw: parse(raw) if raw else None), (lambda v: "" if v is None else fmt(v))
    if get_origin(hint) is tuple:
        parse, fmt = _SCALARS[args[0]]
        return ((lambda raw: tuple(parse(x) for x in raw.split(",")) if raw else ()),
                (lambda v: ", ".join(fmt(x) for x in v)))
    return _SCALARS[hint]


# the keys that are not <section>.<field>: key -> (section attribute, field name)
_ALIASES = {
    "run.id": ("", "run_id"),
    "run.out": ("", "out_dir"),
    "calib.n_bins": ("train", "n_bins"),
    "calib.temperature": ("train", "temperature"),
    "calib.mixup_alpha": ("train", "mixup_alpha"),
    "calib.label_smoothing": ("train", "label_smoothing"),
}


def _schema() -> dict:
    """key -> (section attribute, field name, parse, format), in file order: the run.*
    aliases, train.<field> and data.<field> for each field without an alias, then the
    calib.* aliases."""
    sections = {"": ExperimentConfig, "train": TrainConfig, "data": DataConfig}
    hints = {section: get_type_hints(cls) for section, cls in sections.items()}
    aliased = set(_ALIASES.values())
    derived = {f"{section}.{f.name}": (section, f.name) for section in ("train", "data")
               for f in fields(sections[section]) if (section, f.name) not in aliased}
    run = {key: target for key, target in _ALIASES.items() if key.startswith("run.")}
    order = {**run, **derived, **_ALIASES}  # a key keeps its first place: calib.* lands last
    return {key: (section, attr, *_codec(hints[section][attr]))
            for key, (section, attr) in order.items()}


_KEYS = _schema()
# (section attribute, field name) -> the file key that sets it
_KEY_OF = {(section, attr): key for key, (section, attr, *_) in _KEYS.items()}


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
        section, attr, parse, _ = _KEYS[key]
        try:
            value = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{origin}:{line_no}: {key}: {exc}") from None
        target = cfg if not section else getattr(cfg, section)
        setattr(target, attr, value)
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as f:
        return parse_config_text(f.read(), origin=str(path))


def resolve_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """The config a rerun from its file form would train: every value written as
    its declared type and parsed back, wma_start_epoch materialized, and validated.
    So format_config/parse_config_text round-trips the result unchanged. A value
    its type cannot hold is a ConfigError naming its key."""
    out = parse_config_text(format_config(cfg))
    out.train.wma_start_epoch = out.train.resolved_wma_start()
    out.train.validate()
    if not out.run_id:
        raise ConfigError("run.id: must be nonempty")
    out.data.validate()
    return out


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical text form with every key explicit, in schema order."""
    lines = []
    for key, (section, attr, _, fmt) in _KEYS.items():
        target = cfg if not section else getattr(cfg, section)
        try:
            lines.append(f"{key} = {fmt(getattr(target, attr))}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return "\n".join(lines) + "\n"
