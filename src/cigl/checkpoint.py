"""Self-describing binary checkpoints of a packed model and its topology.

Layout (all integers little-endian):

    magic    4 bytes  b"CIGL"
    version  u32      2
    method   u8       index into METHOD_TAGS
    seed     u64
    n_models u32      snapshot count of the averaged model (0 if unused)
    L        u32      layer count
    sizes    (L + 1) * u32, the input width, then each layer's output width
    bitmap   the topology bits over every weight of the packed layout (each
             weight matrix [out, in] row-major, layer by layer), LSB-first,
             padded to a byte boundary
    values   f32 of model.flat[mask.positions]: the active weights in flat
             order, then every bias

A stored model holds +0 at every weight off its topology, so the file keeps
only the values the topology selects; save_checkpoint refuses any other
model. Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .config import METHODS
from .fileio import atomic_write_bytes
from .masks import DeterministicMask
from .tensor import MlpModel, split_flat

MAGIC = b"CIGL"
VERSION = 2
METHOD_TAGS = tuple(METHODS)
HEADER = struct.Struct("<IBQII")  # version, method tag, seed, n_models, L


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file, or a model it cannot store."""


@dataclass
class Checkpoint:
    method: str
    seed: int
    model: MlpModel  # float32, +0 off the topology
    mask: DeterministicMask
    n_models: int

    @property
    def tensors(self) -> list[np.ndarray]:
        """The (weight, bias) arrays of each layer, in order."""
        return [a for layer in zip(self.model.weights, self.model.biases) for a in layer]

    @property
    def masks(self) -> list[np.ndarray]:
        """The tensors' masks: each weight's topology, all ones over each bias."""
        return [a for m in self.mask.layers for a in (m, np.ones(m.shape[0], dtype=bool))]


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    if ckpt.method not in METHOD_TAGS:
        raise CheckpointError(f"unknown method tag {ckpt.method!r}")
    model, mask = ckpt.model, ckpt.mask
    off = model.flat[~mask.flat]
    if off.any() or np.signbit(off).any():
        raise CheckpointError("model holds a weight off its topology that is not +0")
    sizes = [model.weights[0].shape[1], *(b.size for b in model.biases)]
    n_weights = sum(w.size for w in model.weights)
    atomic_write_bytes(path, b"".join([
        MAGIC,
        HEADER.pack(VERSION, METHOD_TAGS.index(ckpt.method), ckpt.seed, ckpt.n_models,
                    model.n_layers),
        struct.pack(f"<{len(sizes)}I", *sizes),
        np.packbits(mask.flat[:n_weights], bitorder="little").tobytes(),
        model.flat[mask.positions].astype("<f4").tobytes(),
    ]))


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at path; refuses a malformed file and a non-finite value
    (a diverged run's weights), naming the layer that holds it."""
    with open(path, "rb") as f:
        blob = f.read()
    view = memoryview(blob)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError(f"{path}: truncated at byte {pos} (need {n} more)")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    version, tag, seed, n_models, n_layers = HEADER.unpack(take(HEADER.size))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    if tag >= len(METHOD_TAGS):
        raise CheckpointError(f"{path}: unknown method tag {tag}")
    sizes = struct.unpack(f"<{n_layers + 1}I", take(4 * (n_layers + 1)))
    if not (n_layers and all(sizes)):
        raise CheckpointError(f"{path}: layer sizes {list(sizes)} hold no layer or a zero")
    shapes = list(zip(sizes[1:], sizes[:-1]))
    n_weights = sum(o * i for o, i in shapes)
    bits = np.unpackbits(np.frombuffer(take((n_weights + 7) // 8), dtype=np.uint8),
                         count=n_weights, bitorder="little").view(bool)
    layers = split_flat(bits, shapes)
    mask = DeterministicMask(layers, tuple(int(np.count_nonzero(m)) for m in layers))
    values = np.frombuffer(take(4 * mask.positions.size), dtype="<f4")
    if pos != len(view):
        raise CheckpointError(f"{path}: {len(view) - pos} trailing bytes")
    model = MlpModel([np.zeros(s, np.float32) for s in shapes],
                     [np.zeros(o, np.float32) for o in sizes[1:]])
    model.flat[mask.positions] = values
    if not np.isfinite(values).all():
        i = next(i for i, (w, b) in enumerate(zip(model.weights, model.biases))
                 if not (np.isfinite(w).all() and np.isfinite(b).all()))
        raise CheckpointError(f"checkpoint layer {i} holds a non-finite weight or bias")
    return Checkpoint(METHOD_TAGS[tag], seed, model, mask, n_models)
