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
    ShapeError,
    backward,
    init_mlp,
    sgd_step,
    softmax_columns,
    split_flat,
)

# Prediction runs feature-major, over column blocks of x.T holding at most this many
# activations of the widest live layer: the ~10-wide live nets of MC dropout take ten
# thousand rows in one block, a 64-wide net 2048 columns and a 300-wide one 436, so
# their activations stay in cache. Other block sizes can change the logits' last bits.
BLOCK_ACTS = 1 << 17


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
    final_logits: np.ndarray | None  # their float64 logits; None under MC dropout or before
    # the last epoch, since only temperature scaling reads them


class ColumnForward:
    """The feature-major forward over the rows of x, and the buffers that every
    forward through it reuses: two activation buffers and a ReLU floor of zeros,
    each large enough for a column block of any live net of model, and the
    float64 logits [k, n]. A prediction call makes one, and a training run one
    for its test split, so no MC draw and no evaluation before the last
    allocates them again (fresh buffers this size page-fault on every call)."""

    def __init__(self, model: MlpModel, x: np.ndarray):
        if x.ndim != 2 or x.shape[1] != model.weights[0].shape[1]:
            raise ShapeError(f"layer 0: input is {x.shape}, weight is {model.weights[0].shape}")
        width = max(w.shape[0] for w in model.weights)
        size = min(len(x) * width, max(BLOCK_ACTS, width))
        dtype = np.result_type(model.flat, x)
        self.xt = x.T  # a view: W @ x.T reads x where it is, with no copy
        self.acts = (np.empty(size, dtype), np.empty(size, dtype))
        self.floor = np.zeros(size, dtype)
        self.z = np.empty((model.weights[-1].shape[0], len(x)))

    def logits(self, live: MlpModel) -> np.ndarray:
        """The logits of live, a net with model's input and output widths: z,
        one column per row of x. Per column block, H <- relu(W @ H + b[:, None])
        layer by layer, the last layer without the ReLU."""
        n, last = self.xt.shape[1], live.n_layers - 1
        step = max(1, BLOCK_ACTS // max(w.shape[0] for w in live.weights))
        for start in range(0, n, step):
            h = self.xt[:, start : start + step]
            for i, (w, b) in enumerate(zip(live.weights, live.biases)):
                size = w.shape[0] * h.shape[1]
                a = np.matmul(w, h, out=self.acts[i % 2][:size].reshape(w.shape[0], h.shape[1]))
                a += b[:, None]
                if i != last:
                    np.maximum(a, self.floor[:size].reshape(a.shape), out=a)
                h = a
            self.z[:, start : start + step] = h
        return self.z


def _probability_rows(z: np.ndarray) -> np.ndarray:
    """The softmax of the feature-major float64 logits z [k, n], taken in z,
    as C-contiguous probability rows [n, k]."""
    return np.ascontiguousarray(softmax_columns(z).T)


def predict_logits(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Float64 logits [n, k], C-contiguous: the feature-major forward through
    live_units(model), transposed."""
    return np.ascontiguousarray(ColumnForward(model, features).logits(live_units(model)).T)


def predict_probs(model: MlpModel, features: np.ndarray,
                  columns: ColumnForward | None = None) -> np.ndarray:
    """One softmax of model over features: C-contiguous float64 rows [n, k],
    the softmax down each column of the feature-major logits, as every MC draw
    takes it. columns, a ColumnForward over features that fits model, lends
    its buffers (default: a new one)."""
    columns = columns or ColumnForward(model, features)
    return _probability_rows(columns.logits(live_units(model)))


def live_units(model: MlpModel) -> MlpModel:
    """model through only the hidden units that depend on the input and reach a
    logit. Walking the layers backwards, a hidden unit reaches a logit if it has
    a nonzero weight into a unit that does; walking forwards, it depends on the
    input if it has a nonzero weight from an input or from a unit that does. A
    unit that reaches a logit but not the input outputs the constant
    c = relu(b'), b' its folded bias, which folds into the next layer's bias as
    b + w[:, const] @ c, summed left to right in the model's dtype. Every other
    dropped unit adds only exact zeros to the kept ones. So the logits keep
    their values, up to the float32 rounding of the shorter sums and the fold.
    Returns model itself when every unit is live, and also when a weight or bias
    is not finite, so that a NaN reaches the logits as in the full forward
    (0 * nan is nan), where evaluate refuses it. Each weight is scanned for
    nonzeros once; the paths are boolean matrix-vector products of those scans,
    and the kept weights and biases are gathered once, into one packed buffer."""
    n = model.n_layers
    nonzero = [w != 0 for w in model.weights]
    reach, depend = [], []  # per hidden layer, its units with a path to a logit, from the input
    for nz in reversed(nonzero[1:]):
        reach.insert(0, reach[0] @ nz if reach else nz.any(axis=0))
    for nz in nonzero[:-1]:
        depend.append(nz @ depend[-1] if depend else nz.any(axis=1))
    live = [r & d for r, d in zip(reach, depend)]
    if all(keep.all() for keep in live) or not np.isfinite(model.flat).all():
        return model
    weights, biases, keep_in, const = [], [], slice(None), ()
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        if len(const):  # b + w[:, const] @ c, summed left to right in the model's dtype
            terms = np.concatenate([b[None], w.T[const] * c[:, None]])
            b = np.add.accumulate(terms, out=terms)[-1]
        keep_out = slice(None)
        if i < n - 1:
            keep_out, const = live[i], np.flatnonzero(reach[i] ^ live[i])
            c = np.maximum(b[const], 0)
        weights.append(w[keep_out][:, keep_in])
        biases.append(b[keep_out])
        keep_in = keep_out
    layers = weights + biases
    flat = np.concatenate([a.ravel() for a in layers])
    views = split_flat(flat, [a.shape for a in layers])
    return MlpModel(views[:n], views[n:], flat)


def evaluate(model: MlpModel, mask: DeterministicMask, config: TrainConfig, data: Dataset,
             epoch: int, columns: ColumnForward | None = None,
             ) -> tuple[np.ndarray, ReliabilityBins, np.ndarray | None]:
    """The method's probability rows for data, their config.n_bins
    reliability bins, which carry accuracy and ECE, and under a single
    softmax at the last epoch the float64 logits it was taken of, which
    temperature scaling rescales (None under MC dropout and before the last
    epoch). The one place that chooses MC dropout, drawn on the stream of
    the epoch just trained, over a single softmax; export passes the last
    epoch, so it redraws the run's table. Both run every row through the
    same feature-major forward, in the buffers of columns when given (a
    ColumnForward over data.features that fits model). A non-finite weight
    or bias raises NonFiniteError, even where it could not reach a logit,
    and so do non-finite rows (diverged weights)."""
    if not np.isfinite(model.flat).all():
        raise NonFiniteError("non-finite parameters")
    logits = None
    if METHODS[config.method].mc_predict:
        probs = predict_mc_dropout(model, mask, config.keep_prob, config.mc_samples,
                                   data.features, substream(config.seed, f"mc.eval.{epoch}"),
                                   columns)
    elif epoch == config.epochs:
        logits = predict_logits(model, data.features)
        probs = _probability_rows(logits.T.copy())
    else:
        probs = predict_probs(model, data.features, columns)
    if not np.isfinite(probs).all():
        raise NonFiniteError("non-finite probabilities")
    return probs, reliability_bins(probs, data.labels, config.n_bins), logits


def predict_mc_dropout(model: MlpModel, mask: DeterministicMask, keep_prob: float,
                       n_samples: int, x: np.ndarray, rng: np.random.Generator,
                       columns: ColumnForward | None = None) -> np.ndarray:
    """Mean softmax over n_samples random-mask draws applied to the weights
    on the topology mask; weights off it count as +0. C-contiguous float64
    rows [n, k].

    Made once per call: the compact weights, one compact z, one seen model,
    +0 off the topology, and the float64 running sum [k, n]; and the
    ColumnForward over x, unless columns lends one that fits model. Each draw
    fills z, scatters w * z into seen (masked_model) and runs live_units(seen)
    through the same forward and softmax as evaluate's single softmax, so a
    single draw at keep_prob=1 reproduces it bit for bit. The sum is
    transposed once, at the end.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    w, z = model.flat[mask.positions], np.empty(mask.flat_active.size, dtype=bool)
    seen = model.over(np.zeros_like(model.flat))
    columns = columns or ColumnForward(model, x)
    total = np.zeros_like(columns.z)
    for _ in range(n_samples):
        sample_random_mask(mask, keep_prob, rng, out=z)
        total += softmax_columns(columns.logits(live_units(masked_model(w, z, mask, seen))))
    total /= n_samples
    return np.ascontiguousarray(total.T)


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


def train(config: TrainConfig, train_data: Dataset, test_data: Dataset) -> TrainResult:
    """Run the configured method end to end: per iteration, a topology
    update when one is due, then one SGD step; per epoch, the WMA fold and
    an evaluation. One epoch record per epoch; its test metrics track the
    model the method would output if stopped at that epoch. A WMA method
    outputs the mean of the snapshots w * m_t * z_t on the final m, +0 off
    it, so snapshots taken before the topology freezes can hold weights that
    the final mask drops."""
    config.validate()
    if train_data.n_classes != test_data.n_classes:
        raise ValueError("train/test class count mismatch")
    s = TrainState.start(config, train_data)
    columns = ColumnForward(s.seen, test_data.features)  # every evaluation but the last reuses it
    batches = BatchIterator(train_data, config.batch_size, config.seed)
    n_batches = batches.batches_per_epoch()
    update_end = int(config.update_end_fraction * (config.epochs * n_batches))
    for epoch in range(1, config.epochs + 1):
        if epoch == config.epochs:
            columns = None  # freed first: the last evaluation predicts in buffers of its own
        lr = config.lr_at(epoch - 1)
        loss_sum = 0.0
        try:
            for xb, yb in batches.epoch_batches(epoch - 1):
                loss_sum += _sgd_iteration(s, config, xb, yb, lr, update_end)
            result = _end_epoch(s, config, test_data, epoch, lr, loss_sum / n_batches,
                                columns)
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
               train_loss: float, columns: ColumnForward | None = None) -> TrainResult:
    """Fold a due WMA snapshot and evaluate and record the output model: zeros
    plus one scatter of the snapshot mean at the current mask's positions, cast
    to float32, once a snapshot is in, else of the bare weights, so it is +0
    off the topology, in fresh arrays. Returns the result of a run stopped here."""
    wma_start = config.resolved_wma_start()
    if (METHODS[config.method].wma and epoch > wma_start
            and (epoch - wma_start) % config.wma_every == 0):
        wma_update(s.wma, [masked_model(s.w, s.z, s.mask, s.seen).flat])
    compact = s.wma.means[0][s.mask.positions].astype(np.float32) if s.wma.n_models else s.w
    model = masked_model(compact, None, s.mask, s.seen.over(np.zeros_like(s.seen.flat)))
    probs, bins, logits = evaluate(model, s.mask, config, test_data, epoch, columns)
    s.history.append(EpochRecord(epoch, train_loss, bins.accuracy, bins.ece, lr,
                                 s.mask.sparsity(), s.wma.n_models))
    return TrainResult(model, s.mask, s.history, s.update_log, probs, bins, logits)
