"""Flat key-value experiment configuration.

Files hold one `section.key = value` pair per line; blank lines and lines
starting with '#' are ignored. Unknown keys are a hard error so typos
surface immediately. The resolved form (every key explicit) reloads to an
identical configuration, which is what makes reruns bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .train import METHODS, TrainConfig, TrainConfigError


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


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


# TrainConfig field -> the file key that sets it
_TRAIN_KEYS = {attr: key for key, (section, attr, _) in _KEYS.items() if section == "train"}


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
    validate_config(out)
    return out


def validate_config(cfg: ExperimentConfig) -> None:
    try:
        cfg.train.validate()
    except TrainConfigError as exc:
        raise ConfigError(f"{_TRAIN_KEYS[exc.field]}: {exc.reason}") from None
    if cfg.temperature and METHODS[cfg.train.method].mc_predict:
        raise ConfigError(f"calib.temperature: {cfg.train.method} predicts by MC dropout, "
                          "which has no single logit set to scale")
    if not cfg.run_id:
        raise ConfigError("run.id: must be nonempty")
    d = cfg.data
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


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical text form with every key explicit, in schema order."""
    lines = []
    for key, (section, attr, _parser) in _KEYS.items():
        target = cfg if not section else getattr(cfg, section)
        lines.append(f"{key} = {_fmt(getattr(target, attr))}")
    return "\n".join(lines) + "\n"
