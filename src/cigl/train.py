"""Training loops for the dual-mask sparse trainer and its baselines.

Every method is a row of config.METHODS: which of the two masks it uses,
whether it averages weights and masks, and whether it predicts by MC
dropout. All methods share one loop so degenerate configurations coincide
bit-exactly: cigl with keep_prob=1 equals cigl_no_rm, cigl_no_wma with
keep_prob=1 equals rigl, and rigl at sparsity 0 equals dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import ReliabilityBins, label_smoothing_targets, mixup_batch, reliability_bins
from .config import METHODS, TrainConfig
from .data import BatchIterator, Dataset
from .masks import (
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

BLOCK_ROWS = 512  # rows per forward pass in prediction


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
    """Float64 logits, a forward pass per BLOCK_ROWS rows (other sizes change the
    bits). A full block runs through reaching_units(model), reading each weight
    transposed into a contiguous copy and the bias rows and ReLU zeros as
    contiguous blocks, all made once per call. A shorter last block is plain
    forward(model, x): there small-matrix BLAS kernels give a pruned or copied
    operand other bits, and a test set of at most BLOCK_ROWS rows keeps the
    bits of one forward call."""
    n = len(features)
    out = np.empty((n, model.weights[-1].shape[0]), dtype=np.float64)
    n_full = n - n % BLOCK_ROWS
    if n_full:
        pruned = reaching_units(model)
        plan = [(np.ascontiguousarray(w.T), np.broadcast_to(b, (BLOCK_ROWS, b.size)).copy(),
                 np.zeros((BLOCK_ROWS, b.size), dtype=b.dtype))
                for w, b in zip(pruned.weights, pruned.biases)]
        for start in range(0, n_full, BLOCK_ROWS):
            out[start : start + BLOCK_ROWS] = forward(pruned, features[start : start + BLOCK_ROWS],
                                                      plan)
    if n_full < n:
        out[n_full:] = forward(model, features[n_full:])
    return out


def reaching_units(model: MlpModel) -> MlpModel:
    """model restricted to the hidden units with a path to a logit. Walking the
    layers backwards, a hidden unit stays if it has a nonzero weight into a unit
    that stays; every input and output unit stays. A dropped unit adds only
    exact zeros to the units that stay, so the logits keep their values, up to
    the float32 rounding of the shorter sums. Returns model itself when every
    unit stays, and also when a weight or bias is not finite, so that a NaN
    reaches the logits as in the unpruned forward (0 * nan is nan), where
    evaluate refuses it."""
    keeps, keep = [None] * model.n_layers, None  # per layer, its kept inputs; None: all
    for i in range(model.n_layers - 1, 0, -1):
        w = model.weights[i] if keep is None else model.weights[i][keep]
        keep = (w != 0).any(axis=0)
        keeps[i] = keep = None if keep.all() else keep
    if all(k is None for k in keeps) or not np.isfinite(model.flat).all():
        return model
    weights, biases = [], []
    for w, b, keep_in, keep_out in zip(model.weights, model.biases, keeps, keeps[1:] + [None]):
        if keep_out is not None:
            w, b = w[keep_out], b[keep_out]
        weights.append(w if keep_in is None else w[:, keep_in])
        biases.append(b)
    return MlpModel(weights, biases)


def evaluate(model: MlpModel, mask: DeterministicMask, config: TrainConfig, data: Dataset,
             epoch: int) -> tuple[np.ndarray, ReliabilityBins]:
    """The method's probability rows for data and their config.n_bins
    reliability bins, which carry accuracy and ECE. The one place that
    chooses MC dropout, drawn on the stream of the epoch just trained, over
    a single softmax; export passes the last epoch, so it redraws the run's
    table. A non-finite weight or bias raises NonFiniteError, even where it
    could not reach a logit, and so do non-finite rows (diverged weights)."""
    if not np.isfinite(model.flat).all():
        raise NonFiniteError("non-finite parameters")
    if METHODS[config.method].mc_predict:
        probs = predict_mc_dropout(model, mask, config.keep_prob, config.mc_samples,
                                   data.features, substream(config.seed, f"mc.eval.{epoch}"))
    else:
        probs = softmax_inplace(predict_logits(model, data.features))
    if not np.isfinite(probs).all():
        raise NonFiniteError("non-finite probabilities")
    return probs, reliability_bins(probs, data.labels, config.n_bins)


def predict_mc_dropout(model: MlpModel, mask: DeterministicMask, keep_prob: float,
                       n_samples: int, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Mean softmax over n_samples random-mask draws applied to the weights
    on the topology mask; weights off it count as +0.

    Each draw runs the same blocked forward as evaluate's single softmax, so
    a single draw at keep_prob=1 reproduces it bit for bit. Each draw's
    softmax is computed in its logits buffer, and the first draw's buffer
    holds the sum.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    w, z = model.flat[mask.positions], np.empty(mask.flat_active.size, dtype=bool)
    seen = model.over(np.zeros_like(model.flat))
    zs = (sample_random_mask(mask, keep_prob, rng, out=z) for _ in range(n_samples))  # refill z
    draws = (softmax_inplace(predict_logits(masked_model(w, z, mask, seen), x)) for _ in zs)
    total = next(draws)
    for probs in draws:
        total += probs
    total /= n_samples
    return total


def masked_model(w: np.ndarray, z: np.ndarray | None, mask: DeterministicMask,
                 out: MlpModel) -> MlpModel:
    """out, holding w * z: the compact parameters w (the active weights of mask in
    flat_active order, then every bias) scattered into out.flat, each active weight
    times its draw in the compact random mask z (None: all kept). out must hold +0
    off the topology m already. A weight z drops is a zero of its own sign, as in
    w * m * z."""
    n_active = mask.flat_active.size
    out.flat[mask.flat_active] = w[:n_active] if z is None else w[:n_active] * z
    out.flat[n_active - w.size :] = w[n_active:]  # the biases end both layouts
    return out


@dataclass
class TrainState:
    """Everything the loop carries between steps. The parameters w, their
    gradient g and velocity, and the random mask z are compact: laid out over
    mask.positions, the active weights in flat_active order, then every bias
    (z covers the active weights only). Only BLAS reads the model's layout:
    seen holds w * z there, +0 off the topology m, and backward writes grads
    there. The WMA mean is a flat buffer of that layout too."""

    w: np.ndarray
    g: np.ndarray  # the last step's gradient at w * z, masked by z
    seen: MlpModel
    grads: MlpModel
    mask: DeterministicMask
    sgd: SgdState
    wma: WmaAccumulator
    targets: np.ndarray  # the smoothed target row of each class
    z_rng: np.random.Generator | None  # under a random mask, as is z
    z: np.ndarray | None  # the last iteration's draw; without one, m is the effective mask
    mix_rng: np.random.Generator | None  # mixup draws, when mixup is on
    t: int = 0  # iterations run
    history: list[EpochRecord] = field(default_factory=list)
    update_log: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)

    @classmethod
    def start(cls, config: TrainConfig, data: Dataset) -> "TrainState":
        """He-initialised weights under a random topology of the method's sparsity."""
        method, seed, k = METHODS[config.method], config.seed, data.n_classes
        model = init_mlp([data.n_features, *config.hidden, k], substream(seed, "init.weights"))
        shapes = [w.shape for w in model.weights]
        plan = build_sparsity_plan(shapes, config.sparsity if method.sparse else 0.0,
                                   config.sparsity_mode, config.mask_exclude)
        mask = init_mask(shapes, plan, substream(seed, "mask.init"))
        w, n_active = model.flat[mask.positions], mask.flat_active.size
        random = method.random_mask
        return cls(w, np.empty_like(w), model.over(np.zeros_like(model.flat)),
                   model.over(np.empty_like(model.flat)), mask,
                   SgdState(np.zeros_like(w), n_active, config.momentum, config.weight_decay),
                   WmaAccumulator(), label_smoothing_targets(np.arange(k), config.label_smoothing, k),
                   substream(seed, "mask.random") if random else None,
                   np.empty(n_active, dtype=bool) if random else None,
                   substream(seed, "train.mixup") if config.mixup_alpha > 0 else None)

    def bare_model(self) -> MlpModel:
        """The weights w in a fresh packed model, +0 off the topology."""
        flat = np.zeros_like(self.seen.flat)
        flat[self.mask.positions] = self.w
        return self.seen.over(flat)


def train(config: TrainConfig, train_data: Dataset, test_data: Dataset) -> TrainResult:
    """Run the configured method end to end: per iteration, a topology
    update when one is due, then one SGD step; per epoch, the WMA fold and
    an evaluation. One epoch record per epoch; its test metrics track the
    model the method would output if stopped at that epoch. A WMA method
    outputs the mean of the snapshots w * m_t * z_t masked by the final m,
    so snapshots taken before the topology freezes can hold weights that
    the final mask drops."""
    config.validate()
    if train_data.n_classes != test_data.n_classes:
        raise ValueError("train/test class count mismatch")
    s = TrainState.start(config, train_data)
    batches = BatchIterator(train_data, config.batch_size, config.seed)
    n_batches = batches.batches_per_epoch()
    update_end = int(config.update_end_fraction * (config.epochs * n_batches))
    for epoch in range(1, config.epochs + 1):
        lr = config.lr_at(epoch - 1)
        loss_sum = 0.0
        try:
            for xb, yb in batches.epoch_batches(epoch - 1):
                loss_sum += _sgd_iteration(s, config, xb, yb, lr, update_end)
            result = _end_epoch(s, config, test_data, epoch, lr, loss_sum / n_batches)
        except NonFiniteError as exc:
            raise NonFiniteError(f"training diverged at epoch {epoch}, iteration {s.t}: {exc}") from None
    return result


def _topology_update(s: TrainState, config: TrainConfig, xb: np.ndarray, targets: np.ndarray,
                     update_end: int) -> None:
    """Prune/regrow by the dense gradients at the bare weights, then move w
    and v onto the new positions: a kept weight keeps its weight and velocity,
    a regrown one starts from +0 of both, and seen is +0 where one was pruned."""
    old = s.mask
    _, dense_gw, _ = backward(masked_model(s.w, None, old, s.seen), xb, targets, out=s.grads)
    fraction = mask_update_fraction(s.t, config.update_fraction, update_end)
    s.mask = update_deterministic_mask(s.seen.weights, dense_gw, old, fraction)
    was, stays = old.flat[s.mask.positions], s.mask.flat[old.positions]  # kept, in both orders
    for a in (s.w, s.sgd.velocity):
        a[was] = a[stays]
        a[~was] = 0
    s.seen.flat[old.positions[~stays]] = 0
    s.update_log.append((s.t, s.mask.nnz()))


def _sgd_iteration(s: TrainState, config: TrainConfig, xb: np.ndarray, yb: np.ndarray,
                   lr: float, update_end: int) -> float:
    """Iteration t: the targets (label smoothing, then mixup), a topology
    update every update_interval iterations before update_end, and an SGD
    step on w * z, z a random mask within m or m itself: the gradient at
    the active weights, masked by z, and at every bias."""
    s.t += 1
    targets = s.targets[yb]
    if s.mix_rng is not None:
        perm = s.mix_rng.permutation(len(xb))
        xb, targets, _ = mixup_batch(xb, targets, xb[perm], targets[perm], config.mixup_alpha,
                                     s.mix_rng)
    if METHODS[config.method].sparse and s.t % config.update_interval == 0 and s.t < update_end:
        _topology_update(s, config, xb, targets, update_end)
    if s.z is not None:
        sample_random_mask(s.mask, config.keep_prob, s.z_rng, out=s.z)
    loss, _, _ = backward(masked_model(s.w, s.z, s.mask, s.seen), xb, targets, out=s.grads)
    np.take(s.grads.flat, s.mask.positions, out=s.g, mode="wrap")  # mode "raise" buffers out
    if s.z is not None:
        s.g[: s.z.size] *= s.z
    sgd_step(s.w, s.g, s.sgd, lr)
    return loss


def _end_epoch(s: TrainState, config: TrainConfig, test_data: Dataset, epoch: int, lr: float,
               train_loss: float) -> TrainResult:
    """Fold a due WMA snapshot and evaluate and record the output model: the
    snapshot mean under the current mask once a snapshot is in, else the bare
    weights, in fresh arrays. Returns the result of a run stopped here."""
    wma_start = config.resolved_wma_start()
    if (METHODS[config.method].wma and epoch > wma_start
            and (epoch - wma_start) % config.wma_every == 0):
        wma_update(s.wma, [masked_model(s.w, s.z, s.mask, s.seen).flat])
    if s.wma.n_models:
        out = s.wma.means[0].astype(np.float32)
        out *= s.mask.flat
        model = s.seen.over(out)
    else:
        model = s.bare_model()
    probs, bins = evaluate(model, s.mask, config, test_data, epoch)
    s.history.append(EpochRecord(epoch, train_loss, bins.accuracy, bins.ece, lr,
                                 s.mask.sparsity(), s.wma.n_models))
    return TrainResult(model, s.mask, s.history, s.update_log, probs, bins)
