"""Self-describing binary checkpoints.

Layout (all integers little-endian):

    magic    4 bytes  b"CIGL"
    version  u32      1
    method   u8       index into METHOD_TAGS
    seed     u64
    count    u32      number of parameter tensors
    per tensor:
        rank     u32
        dims     rank * u32
        payload  numel * f32, row-major
        bitmap   packed mask bits, LSB-first, bit i = flat index i,
                 padded to a byte boundary
    n_models u32      snapshot count of the averaged model (0 if unused)

A model is stored as (weight, bias) record pairs, one per layer: the
weight matrix as a rank-2 tensor with its topology bitmap, zero off it,
and the bias vector as a rank-1 tensor with an all-ones bitmap (biases are
never masked, so a bias bitmap that is not all ones is refused).
`checkpoint_of` and `model_from_checkpoint` are the only code that knows
this order. Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .config import METHODS
from .fileio import atomic_write_bytes
from .masks import DeterministicMask
from .tensor import MlpModel

MAGIC = b"CIGL"
VERSION = 1
METHOD_TAGS = tuple(METHODS)


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


@dataclass
class Checkpoint:
    method: str
    seed: int
    tensors: list[np.ndarray]  # float32, rank 1 or 2
    masks: list[np.ndarray]  # bool, same shapes
    n_models: int


def checkpoint_of(method: str, seed: int, model: MlpModel, mask: DeterministicMask,
                  n_models: int) -> Checkpoint:
    """The records of model under its topology mask, in the layout above."""
    tensors, masks = [], []
    for w, m, b in zip(model.weights, mask.layers, model.biases):
        tensors += [w, b]
        masks += [m, np.ones_like(b, dtype=bool)]
    return Checkpoint(method, seed, tensors, masks, n_models)


def model_from_checkpoint(ckpt: Checkpoint) -> tuple[MlpModel, DeterministicMask]:
    """Rebuild (model, topology mask) from the (weight, bias) record pairs; MlpModel
    refuses unchained layers, and this a weight off its bitmap or a cleared bias bit."""
    model = MlpModel(ckpt.tensors[0::2], ckpt.tensors[1::2])
    mask = DeterministicMask(ckpt.masks[0::2], tuple(int(m.sum()) for m in ckpt.masks[0::2]))
    for i, (w, m, bias_bits) in enumerate(zip(model.weights, mask.layers, ckpt.masks[1::2])):
        if np.any(w[~m]):
            raise CheckpointError(f"checkpoint layer {i} holds nonzero weights off its bitmap")
        if not bias_bits.all():
            raise CheckpointError(f"checkpoint layer {i} has a bias bitmap that is not all ones")
    return model, mask


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    if ckpt.method not in METHOD_TAGS:
        raise CheckpointError(f"unknown method tag {ckpt.method!r}")
    if len(ckpt.tensors) != len(ckpt.masks):
        raise CheckpointError("tensor/mask count mismatch")
    parts = [MAGIC, struct.pack("<IBQI", VERSION, METHOD_TAGS.index(ckpt.method),
                                ckpt.seed, len(ckpt.tensors))]
    for arr, mask in zip(ckpt.tensors, ckpt.masks):
        if arr.shape != mask.shape:
            raise CheckpointError("tensor/mask shape mismatch")
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        bits = np.packbits(mask.ravel().astype(np.uint8), bitorder="little")
        parts.append(bits.tobytes())
    parts.append(struct.pack("<I", ckpt.n_models))
    atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path) -> Checkpoint:
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
    version, tag, seed, count = struct.unpack("<IBQI", take(17))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    if tag >= len(METHOD_TAGS):
        raise CheckpointError(f"{path}: unknown method tag {tag}")

    tensors, masks = [], []
    for _ in range(count):
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        numel = int(np.prod(dims)) if rank else 1
        arr = np.frombuffer(take(4 * numel), dtype="<f4").reshape(dims).copy()
        packed = np.frombuffer(take((numel + 7) // 8), dtype=np.uint8)
        bits = np.unpackbits(packed, count=numel, bitorder="little").astype(bool)
        tensors.append(arr)
        masks.append(bits.reshape(dims))
    (n_models,) = struct.unpack("<I", take(4))
    if pos != len(view):
        raise CheckpointError(f"{path}: {len(view) - pos} trailing bytes")
    return Checkpoint(METHOD_TAGS[tag], seed, tensors, masks, n_models)
