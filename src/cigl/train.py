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
    table. Non-finite rows (diverged weights) raise NonFiniteError."""
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
    """Mean softmax over n_samples random-mask draws applied to the weights.

    Each draw runs the same blocked forward as evaluate's single softmax, so
    a single draw at keep_prob=1 reproduces it bit for bit. Each draw's
    softmax is computed in its logits buffer, and the first draw's buffer
    holds the sum.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    z, seen = np.empty_like(mask.flat), model.over(np.empty_like(model.flat))
    zs = (sample_random_mask(mask, keep_prob, rng, out=z) for _ in range(n_samples))  # refill z
    draws = (softmax_inplace(predict_logits(masked_model(model, z, seen), x)) for _ in zs)
    total = next(draws)
    for probs in draws:
        total += probs
    total /= n_samples
    return total


def masked_model(model: MlpModel, z: np.ndarray, out: MlpModel) -> MlpModel:
    """out, holding w * z: the weights seen under the flat effective mask z, laid out
    as mask.flat (a random mask, zero off the topology m, or m's mask.flat). It equals
    w * m * z bit for bit: a masked-out weight becomes a zero of its own sign either way."""
    np.multiply(model.flat, z, out=out.flat)
    return out


@dataclass
class TrainState:
    """Everything the loop carries between steps. Off the topology m the
    weights and velocities are zero, as each topology update leaves them and
    each step keeps them, so w equals w * m bit for bit. grads, seen (w * z),
    the velocity, z, mask.flat and the WMA mean are flat buffers of w's layout."""

    model: MlpModel
    grads: MlpModel
    seen: MlpModel  # w * z under a random mask, as are z_rng and z; else the model itself
    mask: DeterministicMask
    sgd: SgdState
    wma: WmaAccumulator
    targets: np.ndarray  # the smoothed target row of each class
    z_rng: np.random.Generator | None
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
        model.flat *= mask.flat  # w * m, and the biases times true
        random = method.random_mask
        return cls(model, model.over(np.empty_like(model.flat)),
                   model.over(np.empty_like(model.flat)) if random else model, mask,
                   SgdState.for_model(model, config.momentum, config.weight_decay),
                   WmaAccumulator(), label_smoothing_targets(np.arange(k), config.label_smoothing, k),
                   substream(seed, "mask.random") if random else None,
                   np.empty_like(mask.flat) if random else None,
                   substream(seed, "train.mixup") if config.mixup_alpha > 0 else None)


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
    """Prune/regrow by the dense gradients at the bare masked weights, then
    zero the pruned weights and velocities; a regrown one was zero already."""
    _, dense_gw, _ = backward(s.model, xb, targets, out=s.grads)
    fraction = mask_update_fraction(s.t, config.update_fraction, update_end)
    s.mask = update_deterministic_mask(s.model.weights, dense_gw, s.mask, fraction)
    s.model.flat *= s.mask.flat
    s.sgd.velocity *= s.mask.flat
    s.update_log.append((s.t, s.mask.nnz()))


def _sgd_iteration(s: TrainState, config: TrainConfig, xb: np.ndarray, yb: np.ndarray,
                   lr: float, update_end: int) -> float:
    """Iteration t: the targets (label smoothing, then mixup), a topology
    update every update_interval iterations before update_end, and an SGD
    step on w * z, z a random mask within m or m itself (under which w is
    w * m already). Zero gradients off z keep w and v zero off m."""
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
        masked_model(s.model, s.z, s.seen)
    loss, _, _ = backward(s.seen, xb, targets, out=s.grads)
    s.grads.flat *= s.mask.flat if s.z is None else s.z
    sgd_step(s.model.flat, s.grads.flat, s.sgd, lr)
    return loss


def _end_epoch(s: TrainState, config: TrainConfig, test_data: Dataset, epoch: int, lr: float,
               train_loss: float) -> TrainResult:
    """Fold a due WMA snapshot and evaluate and record the output model: the
    snapshot mean under the current mask once a snapshot is in, else the bare
    masked weights, in fresh arrays. Returns the result of a run stopped here."""
    wma_start = config.resolved_wma_start()
    if (METHODS[config.method].wma and epoch > wma_start
            and (epoch - wma_start) % config.wma_every == 0):
        wma_update(s.wma, [masked_model(s.model, s.mask.flat if s.z is None else s.z, s.seen).flat])
    out = (s.wma.means[0] if s.wma.n_models else s.model.flat).astype(np.float32)
    out *= s.mask.flat
    model = s.model.over(out)
    probs, bins = evaluate(model, s.mask, config, test_data, epoch)
    s.history.append(EpochRecord(epoch, train_loss, bins.accuracy, bins.ece, lr,
                                 s.mask.sparsity(), s.wma.n_models))
    return TrainResult(model, s.mask, s.history, s.update_log, probs, bins)
