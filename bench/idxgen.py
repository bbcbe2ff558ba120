"""MNIST-shaped synthetic data written as an IDX pair.

Each of the ten classes has a seeded 28x28 prototype: a blocky random
field of 2x2 cells, thresholded to roughly a third of the pixels and lightly blurred.
A sample is its class prototype at a random intensity, blended with a
second, randomly chosen prototype (weight below one half, so the label
stays the majority class), plus Gaussian pixel noise, quantised to u8.
The blend makes some samples genuinely ambiguous, so calibration has
something to measure.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SIDE = 28
N_CLASSES = 10
IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def prototypes(rng: np.random.Generator) -> np.ndarray:
    """[N_CLASSES, SIDE, SIDE] float prototypes in [0, 1]."""
    coarse = rng.random((N_CLASSES, SIDE // 2, SIDE // 2))
    blocky = np.kron(coarse, np.ones((2, 2))) > 0.65
    p = blocky.astype(np.float64)
    # 3x3 box blur with edge padding softens block edges
    padded = np.pad(p, ((0, 0), (1, 1), (1, 1)), mode="edge")
    blurred = sum(padded[:, i : i + SIDE, j : j + SIDE] for i in range(3) for j in range(3)) / 9.0
    return blurred


def synth_images(n: int, seed: int, noise_sd: float = 0.6, max_blend: float = 0.45,
                 chunk: int = 1024):
    """(images [n, SIDE, SIDE] u8, labels [n] u8), a pure function of the
    arguments. Built in chunks so the generator's own memory stays small
    next to the program's."""
    rng = np.random.default_rng(seed)
    protos = prototypes(rng).astype(np.float32)
    labels = rng.integers(0, N_CLASSES, size=n)
    images = np.empty((n, SIDE, SIDE), dtype=np.uint8)
    for start in range(0, n, chunk):
        y = labels[start : start + chunk]
        others = (y + rng.integers(1, N_CLASSES, size=len(y))) % N_CLASSES
        intensity = rng.uniform(0.6, 1.0, size=(len(y), 1, 1)).astype(np.float32)
        blend = rng.uniform(0.0, max_blend, size=(len(y), 1, 1)).astype(np.float32)
        x = intensity * ((1.0 - blend) * protos[y] + blend * protos[others])
        x += noise_sd * rng.standard_normal(x.shape, dtype=np.float32)
        images[start : start + chunk] = np.clip(np.rint(x * 255.0), 0, 255)
    return images, labels.astype(np.uint8)


def write_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Big-endian IDX headers (magic, dims) followed by raw u8 payloads."""
    n, rows, cols = images.shape
    Path(images_path).write_bytes(
        struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols) + np.ascontiguousarray(images).tobytes())
    Path(labels_path).write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, n) + labels.tobytes())
