"""Dense MLP with manual reverse-mode gradients, softmax cross-entropy,
and SGD with momentum.

Every model is packed: its weights and biases view one flat buffer (every
weight, then every bias), float32 in training. backward writes into such
views, and sgd_step runs one ufunc per operation over a flat parameter
vector. Loss and metric reductions accumulate in float64; forward/backward
are dtype-generic so gradient checks can run entirely in float64.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Raised when layer input/output dimensions do not chain."""


class NonFiniteError(ValueError):
    """Raised when the logits reaching the loss, or evaluated probabilities, hold NaN or infinity."""


@dataclass
class MlpModel:
    """Fully connected net: weights[l] is [out, in], biases[l] is [out].

    Hidden layers use ReLU, the output layer is linear (emits logits).
    The layer chain is checked once, here; forward and backward trust it.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(default=None, repr=False, compare=False)  # None: pack the arrays

    def __post_init__(self):
        n_w, n_b = len(self.weights), len(self.biases)
        if not n_w or n_w != n_b:
            raise ShapeError(f"layer {min(n_w, n_b)}: {n_w} weights vs {n_b} biases")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2:
                raise ShapeError(f"layer {i}: weight is {w.shape}, expected [out, in]")
            if i and w.shape[1] != d:
                raise ShapeError(f"layer {i}: weight is {w.shape}, expected input dim {d}")
            if b.shape != (w.shape[0],):
                raise ShapeError(f"layer {i}: bias is {b.shape}, expected ({w.shape[0]},)")
            d = w.shape[0]
        if self.flat is None:
            packed = self.over(np.concatenate([a.ravel() for a in self.weights + self.biases]))
            self.weights, self.biases, self.flat = packed.weights, packed.biases, packed.flat

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def over(self, flat: np.ndarray) -> "MlpModel":
        """These layer sizes over flat, kept as .flat: the weights, then the
        biases, view its consecutive segments."""
        views = split_flat(flat, [a.shape for a in self.weights + self.biases])
        return MlpModel(views[: self.n_layers], views[self.n_layers :], flat)


def split_flat(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive segments of flat, one of each shape, in order."""
    ends = itertools.accumulate(math.prod(s) for s in shapes)
    return [flat[end - math.prod(s) : end].reshape(s) for s, end in zip(shapes, ends)]


def init_mlp(dims, rng, dtype=np.float32) -> MlpModel:
    """He-initialised MLP with layer sizes dims = [d_in, h1, ..., d_out]."""
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
        weights.append(w.astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return MlpModel(weights, biases)


def _forward_trace(model: MlpModel, x: np.ndarray):
    """Logits plus the input seen by each layer (needed for backprop). The bias
    add and the ReLU write into the matmul's output. Only x's shape is checked."""
    if x.ndim != 2 or x.shape[1] != model.weights[0].shape[1]:
        raise ShapeError(f"layer 0: input is {x.shape}, weight is {model.weights[0].shape}")
    h, acts, last = x, [x], model.n_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w.T
        h += b
        if i != last:
            np.maximum(h, 0, out=h)
            acts.append(h)
    return h, acts


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Logits for a batch of inputs, row-major; prediction runs feature-major
    (train.ColumnForward)."""
    return _forward_trace(model, x)[0]


# numpy reduces a narrow last axis as a per-row loop, many times slower than
# one ufunc over a whole column, so rows narrower than this fold over their
# columns. It sums 8 or more elements pairwise, so a left-to-right fold keeps
# its bits only below that width.
FOLD_COLS = 8


def row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=1), bit for bit."""
    if a.shape[1] >= FOLD_COLS:
        return a.max(axis=1)
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(out, a[:, j], out=out)
    return out


def row_sum(a: np.ndarray, dtype=None) -> np.ndarray:
    """a.sum(axis=1, dtype=dtype), bit for bit.

    The fold starts from +0.0 as numpy's sum does, so a row of -0. sums to +0.
    """
    if a.shape[1] >= FOLD_COLS:
        return a.sum(axis=1, dtype=dtype)
    out = np.add(a[:, 0], 0.0, dtype=dtype)
    for j in range(1, a.shape[1]):
        out += a[:, j]
    return out


def row_argmax(a: np.ndarray) -> np.ndarray:
    """a.argmax(axis=1), bit for bit: ties and +-0 go to the lowest index,
    and the first NaN wins."""
    if a.shape[1] >= FOLD_COLS:
        return a.argmax(axis=1)
    idx = np.zeros(len(a), dtype=np.intp)
    top = a[:, 0]
    for j in range(1, a.shape[1]):
        col = a[:, j]
        idx[~(col <= top) & (top == top)] = j  # col > top, or col is the first NaN
        top = np.maximum(top, col)
    return idx


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax computed in float64."""
    return softmax_inplace(np.array(logits, dtype=np.float64))


def by_rows(op, a: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """op(a, v[:, None], out=out) by one ufunc call per column below FOLD_COLS:
    the broadcast's bits, faster on thousands of rows, slower on a few dozen."""
    if a.shape[1] >= FOLD_COLS:
        return op(a, v[:, None], out=out)
    for j in range(a.shape[1]):
        op(a[:, j], v, out=out[:, j])
    return out


def softmax_inplace(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the float64 array z, written over z and returned."""
    by_rows(np.subtract, z, row_max(z), z)
    np.exp(z, out=z)
    return by_rows(np.divide, z, row_sum(z), z)


def softmax_columns(z: np.ndarray) -> np.ndarray:
    """Softmax down each column of the float64 [k, n] array z, the logits of n
    rows feature-major, written over z and returned. The max and the sum fold
    the k rows in order; numpy's row sum is pairwise from 8 terms on, so for
    k >= 8 the bits can differ from softmax's."""
    top = z[0].copy()
    for row in z[1:]:
        np.maximum(top, row, out=top)
    z -= top
    np.exp(z, out=z)
    total = z[0].copy()
    for row in z[1:]:
        total += row
    z /= total
    return z


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy of logits against probability-row targets.

    Returns (loss, dlogits) with dlogits = (softmax(logits) - targets) / batch,
    cast back to the logits dtype. The loss reduces in float64. Targets are
    trusted; non-finite logits raise NonFiniteError, which detects divergence.
    """
    if not np.isfinite(logits).all():
        raise NonFiniteError("non-finite logits")
    z = np.asarray(logits, dtype=np.float64)
    zmax = row_max(z)
    ez = z - zmax[:, None]
    np.exp(ez, out=ez)
    denom = row_sum(ez)
    lse = np.log(denom) + zmax
    t64 = np.asarray(targets, dtype=np.float64)
    batch = z.shape[0]
    loss = float(np.add.reduce(lse - row_sum(t64 * z)) / batch)  # np.mean's sum and division
    ez /= denom[:, None]
    ez -= t64
    ez /= batch
    return loss, ez.astype(logits.dtype, copy=False)


def backward(model: MlpModel, x: np.ndarray, targets: np.ndarray, out: MlpModel | None = None):
    """Gradients of the mean cross-entropy for every weight and bias.

    Returns (loss, weight_grads, bias_grads), written into the arrays of out
    (a model of the same layer sizes) if given. The L2 term is not part of
    the loss here; the optimizer applies weight decay itself.
    """
    logits, acts = _forward_trace(model, x)
    loss, delta = softmax_cross_entropy(logits, targets)
    if out is None:
        out = model.over(np.empty_like(model.flat, dtype=delta.dtype))
    for i in reversed(range(model.n_layers)):
        np.matmul(delta.T, acts[i], out=out.weights[i])
        np.add.reduce(delta, axis=0, out=out.biases[i])
        if i > 0:
            delta = delta @ model.weights[i]
            delta *= acts[i] > 0  # the ReLU derivative (zero at exactly 0)
    return loss, out.weights, out.biases


@dataclass
class SgdState:
    """The momentum buffer of a flat parameter vector laid out as weights,
    then biases: a packed model's .flat, or the training loop's compact
    active weights and biases. Decay applies to the first n_weights, never
    to biases."""

    velocity: np.ndarray
    n_weights: int
    momentum: float
    weight_decay: float


def sgd_step(w: np.ndarray, g: np.ndarray, state: SgdState, lr: float) -> None:
    """v <- momentum*v + g + weight_decay*w ; w <- w - lr*v over flat
    parameter vectors, biases undecayed. Updated in place, in that operation
    order, so the float32 results equal the out-of-place expression's."""
    v, nw = state.velocity, state.n_weights
    v *= state.momentum
    v += g
    v[:nw] += state.weight_decay * w[:nw]
    w -= lr * v

