"""Sparse-topology machinery.

The persistent (deterministic) mask fixes which weights exist; it is
updated at intervals by pruning small-magnitude weights and regrowing
positions with large dense gradients, preserving the nonzero count
exactly. A second, per-iteration Bernoulli mask temporarily drops a small
fraction of the active weights. Late-training snapshots of the doubly
masked weights are folded into a running mean.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tensor import MlpModel, split_flat

log = logging.getLogger(__name__)


SPARSITY_MODES = ("uniform", "erk")


def erk_allocate(shapes, global_sparsity: float) -> list[float]:
    """Per-layer sparsities with density proportional to (n_in + n_out) / (n_in * n_out).

    Densities that would exceed 1 are clipped to 1 and their surplus
    nonzero budget is redistributed over the remaining layers.
    global_sparsity is in [0, 1): TrainConfig.validate checks train.sparsity.
    """
    numels = [int(np.prod(s)) for s in shapes]
    raw = [(s[0] + s[1]) / (s[0] * s[1]) for s in shapes]
    if len(shapes) == 1:
        return [global_sparsity]

    budget = (1.0 - global_sparsity) * sum(numels)
    clipped: set[int] = set()
    scale = 0.0
    while True:
        rest = [i for i in range(len(shapes)) if i not in clipped]
        rest_budget = budget - sum(numels[i] for i in clipped)
        if not rest:
            # every layer saturated at density 1; only valid if no budget remains
            if rest_budget > 1e-6:
                raise ValueError("infeasible sparsity budget: all layers clipped to dense")
            break
        if rest_budget <= 0:
            raise ValueError("infeasible sparsity budget after clipping dense layers")
        scale = rest_budget / sum(raw[i] * numels[i] for i in rest)
        over = [i for i in rest if scale * raw[i] > 1.0 + 1e-12]
        if not over:
            break
        clipped.update(over)

    densities = [1.0 if i in clipped else min(scale * raw[i], 1.0) for i in range(len(shapes))]
    return [1.0 - d for d in densities]


def build_sparsity_plan(shapes, global_sparsity, mode="uniform", exclude=()) -> tuple[float, ...]:
    """Per-layer sparsities allocating global_sparsity over the maskable
    layers; excluded layer indices stay dense."""
    exclude = set(exclude)
    maskable = [i for i in range(len(shapes)) if i not in exclude]
    per_layer = [0.0] * len(shapes)
    if mode == "uniform":
        for i in maskable:
            per_layer[i] = global_sparsity
    else:
        alloc = erk_allocate([shapes[i] for i in maskable], global_sparsity)
        for i, s in zip(maskable, alloc):
            per_layer[i] = s
    return tuple(per_layer)


@dataclass
class DeterministicMask:
    """Per-layer boolean topology masks plus their fixed nonzero targets,
    packed like a model: `layers` are copied into one fresh bool buffer,
    `.flat` (each layer raveled, then true over every bias), and become its
    views. Its `positions` lay out the training loop's compact state. A mask
    is not edited after its `positions` are read: a topology update edits
    only the fresh copy it returns."""

    layers: list[np.ndarray]
    target_nnz: tuple[int, ...]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shapes = [m.shape for m in self.layers]
        self.flat = np.concatenate([m.ravel() for m in self.layers]
                                   + [np.ones(s[0], dtype=bool) for s in shapes])
        self.layers = split_flat(self.flat, shapes)

    @cached_property
    def positions(self) -> np.ndarray:  # the indices in flat of the active weights, then every bias
        return np.flatnonzero(self.flat)

    @cached_property
    def flat_active(self) -> np.ndarray:  # the indices of the active weights in flat
        return self.positions[: sum(self.nnz())]

    @cached_property
    def dense(self) -> bool:  # every weight is active: positions is every index of flat
        return self.positions.size == self.flat.size

    def nnz(self) -> tuple[int, ...]:
        return tuple(int(np.count_nonzero(m)) for m in self.layers)

    def sparsity(self) -> float:
        return 1.0 - sum(self.nnz()) / sum(m.size for m in self.layers)


def init_mask(shapes, layer_sparsities, rng: np.random.Generator) -> DeterministicMask:
    """Random topology: per layer, round((1 - s_l) * numel) positions set,
    drawn uniformly without replacement. Nonzero counts round half to even."""
    layers, targets = [], []
    for li, (shape, s) in enumerate(zip(shapes, layer_sparsities)):
        numel = int(np.prod(shape))
        keep = int(round((1.0 - s) * numel))
        if keep <= 0:
            raise ValueError(f"layer {li}: sparsity {s} leaves no active weights")
        flat = np.zeros(numel, dtype=bool)
        flat[rng.choice(numel, size=keep, replace=False)] = True
        layers.append(flat.reshape(shape))
        targets.append(keep)
    return DeterministicMask(layers, tuple(targets))


def sample_random_mask(mask: DeterministicMask, keep_prob: float, rng: np.random.Generator,
                       out: np.ndarray | None = None):
    """Bernoulli(keep_prob) over the active weights of the topology mask,
    compact: one bool per active weight, in mask.flat_active order.

    One rng.random over all active weights draws what one per layer would.
    The draw fills out, or a fresh array. Returns (out,): the training loop
    reads out itself, but bench/tracer.py counts the realized keep rate over
    the returned arrays.
    """
    if not 0.0 <= keep_prob <= 1.0:
        raise ValueError("keep probability must be in [0, 1]")
    out = np.empty(mask.flat_active.size, dtype=bool) if out is None else out
    np.less(rng.random(mask.flat_active.size), keep_prob, out=out)
    return (out,)


def masked_model(w: np.ndarray, z: np.ndarray | None, mask: DeterministicMask,
                 out: MlpModel) -> MlpModel:
    """out, holding w * z: the compact parameters w (the active weights of mask in
    flat_active order, then every bias) scattered into out.flat, each active weight
    times its draw in the compact random mask z (None: all kept). out must hold +0
    off the topology m already. A weight z drops is a zero of its own sign, as in
    w * m * z. Under a dense mask w has out's layout, so the scatter is a
    contiguous pass, several times faster."""
    n_active = mask.flat_active.size
    if not mask.dense:
        out.flat[mask.flat_active] = w[:n_active] if z is None else w[:n_active] * z
    elif z is None:
        out.flat[:n_active] = w[:n_active]
    else:
        np.multiply(w[:n_active], z, out=out.flat[:n_active])
    out.flat[n_active - w.size :] = w[n_active:]  # the biases end both layouts
    return out


def mask_update_fraction(step: int, alpha: float, t_end: int) -> float:
    """Cosine-annealed prune/regrow fraction: alpha/2 * (1 + cos(pi * step / t_end))."""
    if not 0 <= step <= t_end:
        raise ValueError("step must be in [0, t_end]")
    return alpha / 2.0 * (1.0 + math.cos(math.pi * step / t_end))


def _smallest_k(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest values, ties to the lowest index: the same
    set as np.argsort(values, kind="stable")[:k], in no particular order.

    Selection finds the k-th value; every entry below it is taken, then the
    lowest-index entries equal to it until there are k. NaN sorts last, as
    in np.sort.
    """
    kth = np.partition(values, k - 1)[k - 1]
    if np.isnan(kth):
        nan = np.isnan(values)
        below, tied = np.flatnonzero(~nan), np.flatnonzero(nan)
    else:
        below, tied = np.flatnonzero(values < kth), np.flatnonzero(values == kth)
    return np.concatenate([below, tied[: k - below.size]])


def update_deterministic_mask(weights, dense_grads, mask: DeterministicMask,
                              fraction: float) -> DeterministicMask:
    """Prune-and-regrow update of the topology, preserving nonzero counts.

    Per layer, k = floor(fraction * nnz), fraction in [0, 1] as
    mask_update_fraction returns it: the k active positions with the
    smallest |weight| are deactivated and the k inactive positions with the
    largest |gradient| are activated. Ties resolve to the lowest flat
    row-major index, so each set is the first k of a stable sort. k is
    clamped when fewer than k inactive positions exist, with a warning
    unless the layer is fully dense (an excluded layer, or sparsity 0).
    Pruning looks at the persistent weights, not the per-iteration masked
    product. Each set is found by selection, not sorting, so an update is
    linear in the layer size.
    """
    segments = np.split(mask.flat_active, np.cumsum(mask.nnz())[:-1])  # one per layer
    offsets = np.cumsum([0, *(m.size for m in mask.layers)])
    new = DeterministicMask(mask.layers, mask.target_nnz)
    for li, (w, g, m, segment, offset) in enumerate(zip(weights, dense_grads, new.layers,
                                                         segments, offsets)):
        flat_m = m.reshape(-1)
        active, inactive = segment - offset, np.flatnonzero(~flat_m)
        k = int(fraction * active.size)
        if k > inactive.size:
            if inactive.size:  # a dense layer has nothing to regrow into: no warning
                log.warning("layer %d: prune/regrow count %d clamped to %d inactive positions",
                            li, k, inactive.size)
            k = inactive.size
        if k > 0:
            flat_m[active[_smallest_k(np.abs(w.ravel()[active]), k)]] = False
            flat_m[inactive[_smallest_k(-np.abs(g.ravel()[inactive]), k)]] = True
    return new


@dataclass
class WmaAccumulator:
    """Running elementwise mean of snapshot tensor sets (float64 accumulation)."""

    means: list[np.ndarray] | None = None
    n_models: int = 0


def wma_update(acc: WmaAccumulator, snapshot) -> WmaAccumulator:
    """Fold one snapshot (a list of arrays) into the running mean."""
    snap = [np.asarray(a, dtype=np.float64) for a in snapshot]
    if acc.means is None:
        acc.means = [a.copy() for a in snap]
        acc.n_models = 1
        return acc
    if len(snap) != len(acc.means):
        raise ValueError("snapshot tensor count changed between updates")
    n = acc.n_models
    for i, (mean, a) in enumerate(zip(acc.means, snap)):
        if mean.shape != a.shape:
            raise ValueError(f"snapshot tensor {i}: shape {a.shape} vs {mean.shape}")
        acc.means[i] = (mean * n + a) / (n + 1)
    acc.n_models = n + 1
    return acc
