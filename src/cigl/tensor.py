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
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def init_mlp(dims, rng, dtype=np.float32) -> MlpModel:
    """He-initialised MLP with layer sizes dims = [d_in, h1, ..., d_out]."""
    if len(dims) < 2:
        raise ValueError("need at least an input and an output dimension")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
        weights.append(w.astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return MlpModel(weights, biases)


def _check_input(model: MlpModel, x: np.ndarray) -> None:
    if x.ndim != 2:
        raise ShapeError(f"input must be [batch, features], got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite values in input batch")
    d = x.shape[1]
    for i, w in enumerate(model.weights):
        if w.ndim != 2 or w.shape[1] != d:
            raise ShapeError(f"layer {i}: weight is {w.shape}, expected input dim {d}")
        if model.biases[i].shape != (w.shape[0],):
            raise ShapeError(f"layer {i}: bias is {model.biases[i].shape}, expected ({w.shape[0]},)")
        d = w.shape[0]


def _forward_trace(model: MlpModel, x: np.ndarray):
    """Logits plus the input seen by each layer (needed for backprop).

    The bias add and the ReLU write into the matmul's output, so the bias
    is added in the activation dtype.
    """
    _check_input(model, x)
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


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax computed in float64."""
    return softmax_inplace(np.array(logits, dtype=np.float64))


def softmax_inplace(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the float64 array z, written over z and returned."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean cross-entropy of logits against probability-row targets.

    Returns (loss, dlogits) with dlogits = (softmax(logits) - targets) / batch,
    cast back to the logits dtype. The loss reduces in float64.
    """
    if logits.shape != targets.shape:
        raise ShapeError(f"logits {logits.shape} vs targets {targets.shape}")
    if not np.isfinite(logits).all():
        raise NonFiniteError("non-finite logits")
    row_sums = np.sum(targets, axis=1, dtype=np.float64)
    if row_sums.size == 0:
        raise ValueError("empty batch")
    if not np.all(np.abs(row_sums - 1.0) <= 1e-6):  # NaN rows fail too
        raise ValueError("target rows must sum to 1 within 1e-6")

    z = np.asarray(logits, dtype=np.float64)
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    denom = ez.sum(axis=1, keepdims=True)
    lse = np.log(denom[:, 0]) + zmax[:, 0]
    t64 = np.asarray(targets, dtype=np.float64)
    loss = float(np.mean(lse - np.sum(t64 * z, axis=1)))
    batch = z.shape[0]
    dlogits = ((ez / denom - t64) / batch).astype(logits.dtype, copy=False)
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
    for i, (w, g, v) in enumerate(zip(model.weights, grads_w, state.velocity_w)):
        if g.shape != w.shape:
            raise ShapeError(f"layer {i}: grad {g.shape} vs weight {w.shape}")
        v *= state.momentum
        v += g
        v += state.weight_decay * w
        w -= lr * v
    for i, (b, g, v) in enumerate(zip(model.biases, grads_b, state.velocity_b)):
        if g.shape != b.shape:
            raise ShapeError(f"layer {i}: grad {g.shape} vs bias {b.shape}")
        v *= state.momentum
        v += g
        b -= lr * v

