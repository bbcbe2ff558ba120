"""Dense MLP with manual reverse-mode gradients, softmax cross-entropy,
and SGD with momentum.

Parameters are stored as float32 during training; loss and metric
reductions accumulate in float64. forward/backward are dtype-generic so
gradient checks can run entirely in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when layer input/output dimensions do not chain."""


class NonFiniteError(ValueError):
    """Raised when the logits reaching the loss hold NaN or infinity."""


@dataclass
class MlpModel:
    """Fully connected net: weights[l] is [out, in], biases[l] is [out].

    Hidden layers use ReLU, the output layer is linear (emits logits).
    The layer chain is checked once, here; forward and backward trust it.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

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

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def init_mlp(dims, rng, dtype=np.float32) -> MlpModel:
    """He-initialised MLP with layer sizes dims = [d_in, h1, ..., d_out]."""
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
        weights.append(w.astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return MlpModel(weights, biases)


def _forward_trace(model: MlpModel, x: np.ndarray):
    """Logits plus the input seen by each layer (needed for backprop).

    The bias add and the ReLU write into the matmul's output, so the bias
    is added in the activation dtype. Only x's shape is checked: MlpModel
    checked the layers, and Dataset the features every input is made of.
    """
    if x.ndim != 2 or x.shape[1] != model.weights[0].shape[1]:
        raise ShapeError(f"layer 0: input is {x.shape}, weight is {model.weights[0].shape}")
    acts = [x]
    h = x
    last = model.n_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w.T
        h += b
        if i != last:
            np.maximum(h, 0, out=h)
            acts.append(h)
    return h, acts


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Logits for a batch of inputs."""
    logits, _ = _forward_trace(model, x)
    return logits


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


def softmax_inplace(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the float64 array z, written over z and returned."""
    z -= row_max(z)[:, None]
    np.exp(z, out=z)
    z /= row_sum(z)[:, None]
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
    ez = np.exp(z - zmax[:, None])
    denom = row_sum(ez)
    lse = np.log(denom) + zmax
    t64 = np.asarray(targets, dtype=np.float64)
    loss = float(np.mean(lse - row_sum(t64 * z)))
    batch = z.shape[0]
    dlogits = ((ez / denom[:, None] - t64) / batch).astype(logits.dtype, copy=False)
    return loss, dlogits


def backward(model: MlpModel, x: np.ndarray, targets: np.ndarray):
    """Gradients of the mean cross-entropy for every weight and bias.

    Returns (loss, weight_grads, bias_grads). The L2 term is not part of
    the loss here; the optimizer applies weight decay itself.
    """
    logits, acts = _forward_trace(model, x)
    loss, delta = softmax_cross_entropy(logits, targets)
    n = model.n_layers
    gw: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    gb: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    for i in reversed(range(n)):
        gw[i] = delta.T @ acts[i]
        gb[i] = delta.sum(axis=0)
        if i > 0:
            # acts[i] > 0 is the ReLU derivative (zero at exactly 0)
            delta = (delta @ model.weights[i]) * (acts[i] > 0)
    return loss, gw, gb


@dataclass
class SgdState:
    """Momentum buffers; decay applies to weights only, never biases."""

    velocity_w: list[np.ndarray]
    velocity_b: list[np.ndarray]
    momentum: float
    weight_decay: float

    @classmethod
    def for_model(cls, model: MlpModel, momentum: float, weight_decay: float) -> "SgdState":
        return cls(
            [np.zeros_like(w) for w in model.weights],
            [np.zeros_like(b) for b in model.biases],
            momentum,
            weight_decay,
        )


def sgd_step(model: MlpModel, grads_w, grads_b, state: SgdState, lr: float) -> None:
    """v <- momentum*v + g + weight_decay*w ; w <- w - lr*v.

    Weights and velocity buffers are updated in place, in that operation
    order, so the float32 results equal the out-of-place expression's.
    """
    for w, g, v in zip(model.weights, grads_w, state.velocity_w):
        v *= state.momentum
        v += g
        v += state.weight_decay * w
        w -= lr * v
    for b, g, v in zip(model.biases, grads_b, state.velocity_b):
        v *= state.momentum
        v += g
        b -= lr * v

