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


def predict_logits(model: MlpModel, features: np.ndarray, blocks=None) -> np.ndarray:
    """Float64 logits, a forward pass per BLOCK_ROWS rows (other sizes change the
    bits). A full block reads each weight transposed into a contiguous copy made
    once per call; a short one reads w.T, since small-matrix BLAS kernels give
    the two layouts different bits. blocks defaults to block_addends(...)."""
    out = np.empty((len(features), model.weights[-1].shape[0]), dtype=np.float64)
    rows, zeros = blocks or block_addends(model, len(features))
    for start in range(0, len(features), BLOCK_ROWS):
        x = features[start : start + BLOCK_ROWS]
        if start == 0 or len(x) < BLOCK_ROWS:  # the first block, and a shorter last one
            plan = [(np.ascontiguousarray(w.T) if len(x) == BLOCK_ROWS else w.T, r[: len(x)],
                     z[: len(x)]) for w, r, z in zip(model.weights, rows, zeros)]
        out[start : start + BLOCK_ROWS] = forward(model, x, plan)
    return out


def block_addends(model: MlpModel, n_rows: int) -> tuple[list, list]:
    """Per layer, the bias broadcast to the rows of a block of n_rows features
    and a zero block for the ReLU: built once, shared by MC dropout's draws."""
    rows = [np.broadcast_to(b, (min(BLOCK_ROWS, n_rows), b.size)).copy() for b in model.biases]
    return rows, [np.zeros_like(r) for r in rows]


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
    blocks = block_addends(model, len(x))
    zs = (sample_random_mask(mask, keep_prob, rng) for _ in range(n_samples))
    draws = (softmax_inplace(predict_logits(masked_model(model, z), x, blocks)) for z in zs)
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


@dataclass
class TrainState:
    """Everything the loop carries between steps. The packed model holds
    w * m between steps: w *= m leaves zeros of w's own sign off the topology,
    so w equals w * m bit for bit. grads, seen (w * z), the SGD velocity, the
    random mask z, mask.flat and the WMA mean are flat buffers of its layout."""

    model: MlpModel
    grads: MlpModel
    seen: MlpModel | None  # for random-mask methods, as are z_rng and z
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
        model = init_mlp([data.n_features, *config.hidden, k],
                         substream(seed, "init.weights")).packed()
        shapes = [w.shape for w in model.weights]
        plan = build_sparsity_plan(shapes, config.sparsity if method.sparse else 0.0,
                                   config.sparsity_mode, config.mask_exclude)
        mask = init_mask(shapes, plan, substream(seed, "mask.init"))
        model.flat *= mask.flat  # w * m, and the biases times true
        random = method.random_mask
        return cls(model, model.over(np.empty_like(model.flat)),
                   model.over(np.empty_like(model.flat)) if random else None, mask,
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
        for xb, yb in batches.epoch_batches(epoch - 1):
            loss_sum += _sgd_iteration(s, config, xb, yb, lr, epoch, update_end)
        result = _end_epoch(s, config, test_data, epoch, lr, loss_sum / n_batches)
    return result


def _topology_update(s: TrainState, config: TrainConfig, xb: np.ndarray, targets: np.ndarray,
                     update_end: int) -> None:
    """Prune/regrow by the dense gradients at the bare masked weights, which
    the model holds already; regrown weights start with zero velocity."""
    _, dense_gw, _ = backward(s.model, xb, targets, out=s.grads)
    fraction = mask_update_fraction(s.t, config.update_fraction, update_end)
    new_mask = update_deterministic_mask(s.model.weights, dense_gw, s.mask, fraction)
    s.sgd.velocity[new_mask.flat & ~s.mask.flat] = 0.0
    s.mask = new_mask
    s.model.flat *= s.mask.flat
    s.update_log.append((s.t, s.mask.nnz()))


def _sgd_iteration(s: TrainState, config: TrainConfig, xb: np.ndarray, yb: np.ndarray,
                   lr: float, epoch: int, update_end: int) -> float:
    """Iteration t: the targets (label smoothing, then mixup), a topology
    update every update_interval iterations before update_end, and an SGD
    step on the weights seen under the effective mask z: the random mask
    (zero off m), or m itself, under which the weights are already w * m."""
    s.t += 1
    targets = s.targets[yb]
    if s.mix_rng is not None:
        perm = s.mix_rng.permutation(len(xb))
        xb, targets, _ = mixup_batch(xb, targets, xb[perm], targets[perm], config.mixup_alpha,
                                     s.mix_rng)
    if METHODS[config.method].sparse and s.t % config.update_interval == 0 and s.t < update_end:
        _topology_update(s, config, xb, targets, update_end)
    if s.seen is not None:
        sample_random_mask(s.mask, config.keep_prob, s.z_rng, out=s.z)
        np.multiply(s.model.flat, s.z, out=s.seen.flat)
    try:
        loss, _, _ = backward(s.model if s.seen is None else s.seen, xb, targets, out=s.grads)
    except NonFiniteError as exc:
        raise NonFiniteError(f"training diverged at epoch {epoch}, iteration {s.t}: {exc}") from None
    s.grads.flat *= s.mask.flat if s.z is None else s.z
    sgd_step(s.model.flat, s.grads.flat, s.sgd, lr)
    s.model.flat *= s.mask.flat
    return loss


def _end_epoch(s: TrainState, config: TrainConfig, test_data: Dataset, epoch: int, lr: float,
               train_loss: float) -> TrainResult:
    """Fold a due WMA snapshot and evaluate and record the output model: the
    snapshot mean under the current mask once a snapshot is in, else the bare
    masked weights, in fresh arrays. Returns the result of a run stopped here."""
    wma_start = config.resolved_wma_start()
    if (METHODS[config.method].wma and epoch > wma_start
            and (epoch - wma_start) % config.wma_every == 0):
        wma_update(s.wma, [s.model.flat * (s.mask.flat if s.z is None else s.z)])
    out = (s.wma.means[0] if s.wma.n_models else s.model.flat).astype(np.float32)
    out *= s.mask.flat
    model = s.model.over(out)
    probs, bins = evaluate(model, s.mask, config, test_data, epoch)
    s.history.append(EpochRecord(epoch, train_loss, bins.accuracy, bins.ece, lr,
                                 s.mask.sparsity(), s.wma.n_models))
    return TrainResult(model, s.mask, s.history, s.update_log, probs, bins)
