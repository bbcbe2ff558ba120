"""Training loops for the dual-mask sparse trainer and its baselines.

Every method is a row of METHODS: which of the two masks it uses, whether
it averages weights and masks, and whether it predicts by MC dropout. All
methods share one loop so degenerate configurations coincide bit-exactly:
cigl with keep_prob=1 equals cigl_no_rm, cigl_no_wma with keep_prob=1
equals rigl, and rigl at sparsity 0 equals dense.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .calibration import ReliabilityBins, label_smoothing_targets, mixup_batch, reliability_bins
from .data import BatchIterator, Dataset
from .masks import (
    SPARSITY_MODES,
    DeterministicMask,
    WmaAccumulator,
    build_sparsity_plan,
    init_mask,
    mask_update_fraction,
    sample_random_mask,
    update_deterministic_mask,
    wma_update,
)
from .rng import substream
from .tensor import (
    MlpModel,
    NonFiniteError,
    SgdState,
    backward,
    forward,
    init_mlp,
    sgd_step,
    softmax_inplace,
)

log = logging.getLogger(__name__)

BLOCK_ROWS = 512  # rows per forward pass in prediction


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


class TrainConfigError(ValueError):
    """An invalid TrainConfig value; `field` names the field."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


class NonFiniteLossError(FloatingPointError):
    """Training diverged; carries a diagnostic snapshot."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


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
        if self.method not in METHODS:
            raise TrainConfigError("method", f"unknown method {self.method!r}")
        if self.epochs < 1:
            raise TrainConfigError("epochs", "must be >= 1")
        if self.batch_size < 1:
            raise TrainConfigError("batch_size", "must be >= 1")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise TrainConfigError("hidden", "layer sizes must be positive")
        if not 0.0 <= self.sparsity < 1.0:
            raise TrainConfigError("sparsity", "must be in [0, 1)")
        if self.sparsity_mode not in SPARSITY_MODES:
            raise TrainConfigError("sparsity_mode", f"unknown mode {self.sparsity_mode!r}")
        if any(not 0 <= i <= len(self.hidden) for i in self.mask_exclude):
            raise TrainConfigError("mask_exclude", f"layer indices must be in [0, {len(self.hidden)}]")
        if self.update_interval < 1:
            raise TrainConfigError("update_interval", "must be >= 1")
        if not 0.0 <= self.update_fraction <= 1.0:
            raise TrainConfigError("update_fraction", "must be in [0, 1]")
        if not 0.0 < self.update_end_fraction <= 1.0:
            raise TrainConfigError("update_end_fraction", "must be in (0, 1]")
        if not 0.0 <= self.keep_prob <= 1.0:
            raise TrainConfigError("keep_prob", "must be in [0, 1]")
        if self.resolved_wma_start() >= self.epochs:
            raise TrainConfigError("wma_start_epoch", "must be < epochs")
        if self.wma_every < 1:
            raise TrainConfigError("wma_every", "must be >= 1")
        if self.base_lr <= 0:
            raise TrainConfigError("base_lr", "must be > 0")
        if any(b <= a for a, b in zip(self.lr_milestones, self.lr_milestones[1:])):
            raise TrainConfigError("lr_milestones", "must be strictly increasing")
        if not 0.0 < self.lr_decay < 1.0:
            raise TrainConfigError("lr_decay", "must be in (0, 1)")
        if not 0.0 <= self.momentum < 1.0:
            raise TrainConfigError("momentum", "must be in [0, 1)")
        if self.weight_decay < 0.0:
            raise TrainConfigError("weight_decay", "must be >= 0")
        if self.mc_samples < 1:
            raise TrainConfigError("mc_samples", "must be >= 1")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise TrainConfigError("label_smoothing", "must be in [0, 1)")
        if self.mixup_alpha < 0.0:
            raise TrainConfigError("mixup_alpha", "must be >= 0")
        if self.n_bins < 1:
            raise TrainConfigError("n_bins", "must be >= 1")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    test_accuracy: float
    test_ece: float
    lr: float
    current_sparsity: float
    n_models_in_wma: int


@dataclass
class TrainResult:
    model: MlpModel  # the method's output weights (masked / averaged)
    mask: DeterministicMask
    history: list[EpochRecord]
    mask_update_log: list[tuple[int, tuple[int, ...]]]  # (iteration, nnz per layer)
    final_probs: np.ndarray  # test probabilities of the output model
    final_bins: ReliabilityBins  # their reliability bins, which history[-1] reads


def predict_logits(model: MlpModel, features: np.ndarray) -> np.ndarray:
    out = np.empty((len(features), model.weights[-1].shape[0]), dtype=np.float64)
    for start in range(0, len(features), BLOCK_ROWS):
        out[start : start + BLOCK_ROWS] = forward(model, features[start : start + BLOCK_ROWS])
    return out


def evaluate(model: MlpModel, mask: DeterministicMask, config: TrainConfig, data: Dataset,
             epoch: int) -> tuple[np.ndarray, ReliabilityBins]:
    """The method's probability rows for data and their config.n_bins
    reliability bins, which carry accuracy and ECE. The one place that
    chooses MC dropout, drawn on the stream of the epoch just trained, over
    a single softmax; export passes the last epoch, so it redraws the run's
    table."""
    if METHODS[config.method].mc_predict:
        probs = predict_mc_dropout(model, mask, config.keep_prob, config.mc_samples,
                                   data.features, substream(config.seed, f"mc.eval.{epoch}"))
    else:
        probs = softmax_inplace(predict_logits(model, data.features))
    return probs, reliability_bins(probs, data.labels, config.n_bins)


def predict_mc_dropout(model: MlpModel, mask: DeterministicMask, keep_prob: float,
                       n_samples: int, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Mean softmax over n_samples random-mask draws applied to the weights.

    Each draw runs the same blocked forward as evaluate's single softmax, so
    a single draw at keep_prob=1 reproduces it bit for bit. Each draw's
    softmax is computed in its logits buffer, and the first draw's buffer
    holds the sum.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    zs = (sample_random_mask(mask, keep_prob, rng) for _ in range(n_samples))
    draws = (softmax_inplace(predict_logits(masked_model(model, z), x)) for z in zs)
    total = next(draws)
    for probs in draws:
        total += probs
    total /= n_samples
    return total


def masked_model(model: MlpModel, z) -> MlpModel:
    """The weights seen under the effective mask z, a random mask (zero off
    the topology m) or m itself: w * z, which equals w * m * z bit for bit
    because a masked-out weight becomes a zero of its own sign either way."""
    return MlpModel([w * zz for w, zz in zip(model.weights, z)], model.biases)


def _apply_topology(model: MlpModel, mask: DeterministicMask) -> None:
    """w *= m: off the topology the weights become zeros of their own sign,
    so afterwards w equals w * m bit for bit."""
    for w, m in zip(model.weights, mask.layers):
        w *= m


def train(config: TrainConfig, train_data: Dataset, test_data: Dataset) -> TrainResult:
    """Run the configured method end to end. One epoch record per epoch;
    the test metrics track the model the method would output if stopped at
    that epoch."""
    config.validate()
    if train_data.n_classes != test_data.n_classes:
        raise ValueError("train/test class count mismatch")
    method = METHODS[config.method]
    seed = config.seed

    dims = [train_data.n_features, *config.hidden, train_data.n_classes]
    model = init_mlp(dims, substream(seed, "init.weights"))
    shapes = [w.shape for w in model.weights]
    sparsity = config.sparsity if method.sparse else 0.0
    layer_sparsities = build_sparsity_plan(shapes, sparsity, config.sparsity_mode,
                                           config.mask_exclude)
    mask = init_mask(shapes, layer_sparsities, substream(seed, "mask.init"))
    _apply_topology(model, mask)

    state = SgdState.for_model(model, config.momentum, config.weight_decay)
    batches = BatchIterator(train_data, config.batch_size, seed)
    total_iters = config.epochs * batches.batches_per_epoch()
    update_end = int(config.update_end_fraction * total_iters)
    wma_start = config.resolved_wma_start()

    z_rng = substream(seed, "mask.random") if method.random_mask else None
    mix_rng = substream(seed, "train.mixup") if config.mixup_alpha > 0 else None

    acc = WmaAccumulator()
    history: list[EpochRecord] = []
    update_log: list[tuple[int, tuple[int, ...]]] = []
    t = 0

    for epoch in range(1, config.epochs + 1):
        lr = config.lr_at(epoch - 1)
        loss_sum = 0.0
        for xb, yb in batches.epoch_batches(epoch - 1):
            t += 1
            targets = label_smoothing_targets(yb, config.label_smoothing, train_data.n_classes)
            if mix_rng is not None:
                perm = mix_rng.permutation(len(xb))
                xb, targets, _ = mixup_batch(xb, targets, xb[perm], targets[perm],
                                             config.mixup_alpha, mix_rng)

            if method.sparse and t % config.update_interval == 0 and t < update_end:
                # dense gradients (all positions) at the bare masked weights,
                # which the model holds already
                _, dense_gw, _ = backward(model, xb, targets)
                frac = mask_update_fraction(t, config.update_fraction, update_end)
                new_mask = update_deterministic_mask(model.weights, dense_gw, mask, frac)
                for v, new_m, old_m in zip(state.velocity_w, new_mask.layers, mask.layers):
                    v[new_m & ~old_m] = 0.0
                mask = new_mask
                _apply_topology(model, mask)
                update_log.append((t, mask.nnz()))

            # z is the effective mask: the random mask, zero off the topology,
            # or the topology itself, under which the weights are already w * m
            if method.random_mask:
                z = sample_random_mask(mask, config.keep_prob, z_rng)
                seen = masked_model(model, z)
            else:
                z, seen = mask.layers, model
            try:
                loss, gw, gb = backward(seen, xb, targets)
            except NonFiniteError as exc:
                raise NonFiniteLossError(
                    f"training diverged at epoch {epoch}, iteration {t}: {exc}",
                    {"epoch": epoch, "iteration": t, "lr": lr, "loss": float("nan")},
                ) from None
            if not np.isfinite(loss):
                raise NonFiniteLossError(
                    f"non-finite loss at epoch {epoch}, iteration {t}",
                    {"epoch": epoch, "iteration": t, "lr": lr, "loss": loss},
                )
            for g, zz in zip(gw, z):
                g *= zz
            sgd_step(model, gw, gb, state, lr)
            _apply_topology(model, mask)
            loss_sum += loss

        if method.wma and epoch > wma_start and (epoch - wma_start) % config.wma_every == 0:
            # wma_update copies every array it folds, so the live biases can go in
            wma_update(acc, masked_model(model, z).weights + model.biases)

        current = _output_model(model, mask, acc)
        probs, bins = evaluate(current, mask, config, test_data, epoch)
        history.append(
            EpochRecord(
                epoch=epoch,
                train_loss=loss_sum / batches.batches_per_epoch(),
                test_accuracy=bins.accuracy,
                test_ece=bins.ece,
                lr=lr,
                current_sparsity=mask.sparsity(),
                n_models_in_wma=acc.n_models,
            )
        )

    # the last epoch's output model holds fresh arrays, no training buffer
    return TrainResult(
        model=current,
        mask=mask,
        history=history,
        mask_update_log=update_log,
        final_probs=probs,
        final_bins=bins,
    )


def _output_model(model: MlpModel, mask: DeterministicMask, acc: WmaAccumulator) -> MlpModel:
    """The snapshot average once a snapshot is in (only WMA methods collect
    any), else the bare masked weights."""
    if acc.n_models > 0:
        n = len(model.weights)
        return MlpModel([a.astype(np.float32) * m for a, m in zip(acc.means[:n], mask.layers)],
                        [a.astype(np.float32) for a in acc.means[n:]])
    return MlpModel([w * m for w, m in zip(model.weights, mask.layers)],
                    [b.copy() for b in model.biases])
