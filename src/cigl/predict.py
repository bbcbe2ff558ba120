"""Prediction over a set of rows: the feature-major forward through a model's
live units, its single softmax, and the MC-dropout mean over random-mask draws.

A Predictor is made per set of rows and holds every buffer a forward over them
needs, so a training run's evaluations of its test split and an MC call's draws
all reuse one set. Every forward goes through Predictor.logits.
"""

from __future__ import annotations

import math

import numpy as np

from .masks import DeterministicMask, masked_model, sample_random_mask
from .tensor import MlpModel, ShapeError, softmax_columns, split_flat

# Prediction runs feature-major, over column blocks of x.T holding at most this many
# activations of the widest live layer: the ~10-wide live nets of MC dropout take ten
# thousand rows in one block, a 64-wide net 2048 columns and a 300-wide one 436, so
# their activations stay in cache. Other block sizes can change the logits' last bits.
BLOCK_ACTS = 1 << 17


class Predictor:
    """The rows of x, feature-major, and the buffers that every forward over
    them reuses: x.T (a C-contiguous copy when it holds at most BLOCK_ACTS
    values, else a view), two activation buffers and a ReLU floor of zeros,
    each large enough for a column block of any live net of model, and the
    float64 logits z [k, n]. A prediction call makes one, and a training run
    one for its test split, so no MC draw and no evaluation allocates them
    again (fresh buffers this size page-fault on every call)."""

    def __init__(self, model: MlpModel, x: np.ndarray):
        if x.ndim != 2 or x.shape[1] != model.weights[0].shape[1]:
            raise ShapeError(f"layer 0: input is {x.shape}, weight is {model.weights[0].shape}")
        width = max(w.shape[0] for w in model.weights)
        size = min(len(x) * width, max(BLOCK_ACTS, width))
        dtype = np.result_type(model.flat, x)
        # OpenBLAS multiplies by a narrow x.T view at half the speed of a contiguous copy (a
        # 10x2 weight by 9600 2-wide rows: 38 against 19 us on a Xeon, 1 BLAS thread), so x.T
        # is copied once when it fits one activation buffer. A larger x is read where it is:
        # at 784 wide the view is about as fast, and a copy would be as large as x.
        self.xt = np.ascontiguousarray(x.T) if x.size <= BLOCK_ACTS else x.T
        self.acts = (np.empty(size, dtype), np.empty(size, dtype))
        self.floor = np.zeros(size, dtype)
        self.z = np.empty((model.weights[-1].shape[0], len(x)))

    def logits(self, net: MlpModel, plan: LivePlan | None = None) -> np.ndarray:
        """The logits of net, a net with the layer sizes of the buffers'
        model, through the live units of plan (default: net's own LivePlan):
        z, one column per row of x. Per column block, H <- relu(W @ H +
        b[:, None]) layer by layer, the last layer without the ReLU."""
        live = (LivePlan(net) if plan is None else plan).apply(net)
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

    def probs(self, model: MlpModel, keep_logits: bool = False,
              ) -> tuple[np.ndarray, np.ndarray | None]:
        """One softmax of model over the rows: C-contiguous float64 rows
        [n, k], the softmax down each column of the logits, taken in z as every
        MC draw takes it; and with keep_logits the feature-major logits [k, n]
        it was taken of, copied out of z first (else None)."""
        z = self.logits(model)
        logits = z.copy() if keep_logits else None
        return np.ascontiguousarray(softmax_columns(z).T), logits


class LivePlan:
    """The hidden units of model that depend on the input and reach a logit,
    found once, and the gathers that run a net with model's layer sizes and
    zeros through them: model itself, or an MC draw w * z, which only adds
    zeros. Walking the layers backwards, a hidden unit reaches a logit if it
    has a nonzero weight into a unit that does; walking forwards, it depends
    on the input if it has a nonzero weight from an input or from a unit that
    does. Each weight is scanned for nonzeros once; the walks are boolean
    matrix-vector products of those scans. A unit that reaches a logit but
    not the input is constant: it outputs c = relu(b'), b' its folded bias,
    which folds into the next layer's bias as b + w[:, const] @ c, summed
    left to right in the model's dtype. Every other dropped unit adds only
    exact zeros to the kept ones. So the logits keep their values, up to the
    float32 rounding of the shorter sums and the fold. A kept unit that a
    draw cuts off still runs and adds exact zeros, or relu(b') when the draw
    leaves it no input, so a draw's logits keep their values too.

    When every unit is live, or a weight or bias of model is not finite (so
    that a NaN reaches the logits as in the full forward, 0 * nan being nan,
    where evaluate refuses it), the plan keeps the whole net. Otherwise it
    holds the flat indices of the kept weights and biases, and of the bias
    and constant-unit weights of each fold, and one buffer they are gathered
    into: the pruned net's packed layers, then each fold's terms."""

    def __init__(self, model: MlpModel):
        nonzero = [w != 0 for w in model.weights]
        reach, depend = [], []  # per hidden layer, its units with a path to a logit, from the input
        for nz in reversed(nonzero[1:]):
            reach.insert(0, reach[0] @ nz if reach else nz.any(axis=0))
        for nz in nonzero[:-1]:
            depend.append(nz @ depend[-1] if depend else nz.any(axis=1))
        live = [r & d for r, d in zip(reach, depend)]
        n, ins, dtype = model.n_layers, [w.shape[1] for w in model.weights], model.flat.dtype
        # per layer boundary, its kept and constant units: every input and output unit is kept
        self.kept = kept = [np.arange(ins[0]), *map(np.flatnonzero, live),
                            np.arange(model.biases[-1].size)]
        self.const = const = [np.empty(0, np.intp),
                              *(np.flatnonzero(r ^ k) for r, k in zip(reach, live)),
                              np.empty(0, np.intp)]
        self.net = None  # the pruned net, or None for the whole net
        if all(keep.all() for keep in live) or not np.isfinite(model.flat).all():
            return
        starts = np.cumsum([0, *(w.size for w in model.weights), *(b.size for b in model.biases)])
        w_at, b_at = starts[:n], starts[n:]  # each layer's first weight and bias in flat
        folding = [i for i in range(n) if len(const[i]) or len(const[i + 1])]
        rows = [np.concatenate([kept[i + 1], const[i + 1]]) for i in folding]  # kept, then const
        shapes = [(len(out), len(inp)) for inp, out in zip(kept, kept[1:])]
        shapes += [(len(out),) for out in kept[1:]]
        shapes += [(1 + len(const[i]), len(r)) for i, r in zip(folding, rows)]
        self.index = np.empty(sum(math.prod(shape) for shape in shapes), np.intp)
        at = split_flat(self.index, shapes)  # where each view of the buffer is gathered from
        for i, (inp, out) in enumerate(zip(kept, kept[1:])):
            np.add((w_at[i] + out * ins[i])[:, None], inp, out=at[i])
            np.add(b_at[i], out, out=at[n + i])
        for i, r, terms in zip(folding, rows, at[2 * n :]):  # a fold's terms: row 0 the bias,
            np.add(b_at[i], r, out=terms[0])  # row 1 + j the weights from constant unit j
            np.add(w_at[i] + r * ins[i], const[i][:, None], out=terms[1:])
        self.buffer = np.empty(self.index.size, dtype)
        views = split_flat(self.buffer, shapes)
        packed = sum(a.size for a in views[: 2 * n])
        self.net = MlpModel(views[:n], views[n : 2 * n], self.buffer[:packed])
        c = [np.empty(len(units), dtype) for units in const]  # each constant unit's output
        self.folds = [(views[n + i], terms, c[i], c[i + 1])
                      for i, terms in zip(folding, views[2 * n :])]

    def apply(self, net: MlpModel) -> MlpModel:
        """net through the plan's units: the plan's pruned net, refilled from
        net with one gather and the folds (net itself for a whole-net plan).
        net must hold +0 or -0 wherever the plan's model does."""
        if self.net is None:
            return net
        np.take(net.flat, self.index, out=self.buffer, mode="wrap")  # mode "raise" buffers out
        for bias, terms, c_in, c_out in self.folds:
            if c_in.size:  # b + w[:, const] @ c, summed left to right in the model's dtype
                terms[1:] *= c_in[:, None]
                np.add.accumulate(terms, axis=0, out=terms)
                bias[:] = terms[-1, : bias.size]
            np.maximum(terms[-1, bias.size :], 0, out=c_out)
        return self.net


def predict_mc_dropout(model: MlpModel, mask: DeterministicMask, keep_prob: float,
                       n_samples: int, x: np.ndarray, rng: np.random.Generator,
                       columns: Predictor | None = None) -> np.ndarray:
    """Mean softmax over n_samples random-mask draws applied to the weights
    on the topology mask; weights off it count as +0. C-contiguous float64
    rows [n, k].

    Made once per call: the compact weights, one compact z, one seen model,
    +0 off the topology, the LivePlan of model and the float64 running sum
    [k, n]; and the Predictor over x, unless columns lends one that fits
    model. Each draw fills z, scatters w * z into seen (masked_model), and
    runs seen through the plan and the same forward and softmax as the
    single softmax, so a single draw at keep_prob=1 reproduces it bit for
    bit. The sum is transposed once, at the end.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    w, z = model.flat[mask.positions], np.empty(mask.flat_active.size, dtype=bool)
    seen, plan = model.over(np.zeros_like(model.flat)), LivePlan(model)
    columns = columns or Predictor(model, x)
    total = np.zeros_like(columns.z)
    for _ in range(n_samples):
        sample_random_mask(mask, keep_prob, rng, out=z)
        total += softmax_columns(columns.logits(masked_model(w, z, mask, seen), plan))
    total /= n_samples
    return np.ascontiguousarray(total.T)
