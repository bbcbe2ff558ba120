"""Dataset loading (CSV, IDX), synthetic two-moons generation, label-noise
injection, deterministic splits, and mini-batch iteration."""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, replace

import numpy as np

from .rng import substream

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# elements per block wherever a whole-dataset pass would otherwise make an n x d temporary
BLOCK_ELEMS = 1 << 16


def block_rows(width: int) -> int:
    """Rows per block of a width-column array: BLOCK_ELEMS elements, at least one row."""
    return max(1, BLOCK_ELEMS // max(1, width))


def row_blocks(x: np.ndarray):
    """Slices of block_rows rows that cover the rows of the 2-D array x in order."""
    step = block_rows(x.shape[1])
    return (slice(start, start + step) for start in range(0, len(x), step))


class DataError(ValueError):
    """Malformed dataset file or inconsistent dataset arguments."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # [n, d] float32
    labels: np.ndarray  # [n] int64, values in [0, n_classes)
    n_classes: int

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise DataError("features must be [n, d] and labels [n]")
        if len(self.features) != len(self.labels):
            raise DataError("feature/label count mismatch")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise DataError("labels out of range for n_classes")
        x = self.features  # checked by row blocks: no n x d boolean temporary
        if not all(np.isfinite(x[rows]).all() for rows in row_blocks(x)):
            raise DataError("non-finite feature values")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def load_csv(path, label_column: str) -> Dataset:
    """Numeric CSV with a header row. Non-label columns become features in
    header order; labels are remapped to 0..K-1 by first appearance."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if label_column not in header:
            raise DataError(f"{path}: missing label column {label_column!r}")
        label_idx = header.index(label_column)
        feat_idx = [i for i in range(len(header)) if i != label_idx]

        feats, raw_labels = [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: row {row_no}: expected {len(header)} cells, got {len(row)}")
            try:
                values = [float(c) for c in row]
            except ValueError:
                bad = next(i for i, c in enumerate(row) if not _is_number(c))
                raise DataError(
                    f"{path}: row {row_no}, column {header[bad]!r}: non-numeric value {row[bad]!r}"
                ) from None
            feats.append([values[i] for i in feat_idx])
            raw_labels.append(values[label_idx])

    if not feats:
        raise DataError(f"{path}: empty dataset")
    remap: dict[float, int] = {}
    labels = []
    for v in raw_labels:
        if v not in remap:
            remap[v] = len(remap)
        labels.append(remap[v])
    return Dataset(
        np.asarray(feats, dtype=np.float32),
        np.asarray(labels, dtype=np.int64),
        n_classes=len(remap),
    )


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_idx(images_path, labels_path) -> Dataset:
    """MNIST-style IDX pair: u8 images (3 dims) and u8 labels (1 dim),
    big-endian headers. Pixels are scaled to [0, 1] and flattened."""
    img = _read_file(images_path)
    if len(img) < 16:
        raise DataError(f"{images_path}: truncated IDX header")
    magic, n, rows, cols = struct.unpack(">IIII", img[:16].tobytes())
    if magic != IDX_IMAGES_MAGIC:
        raise DataError(f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
    if len(img) != 16 + n * rows * cols:
        raise DataError(f"{images_path}: payload is {len(img) - 16} bytes, expected {n * rows * cols}")

    lab = _read_file(labels_path)
    if len(lab) < 8:
        raise DataError(f"{labels_path}: truncated IDX header")
    lmagic, ln = struct.unpack(">II", lab[:8].tobytes())
    if lmagic != IDX_LABELS_MAGIC:
        raise DataError(f"{labels_path}: bad magic 0x{lmagic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
    if ln != n:
        raise DataError(f"image/label count mismatch: {n} images vs {ln} labels")
    if len(lab) != 8 + ln:
        raise DataError(f"{labels_path}: payload is {len(lab) - 8} bytes, expected {ln}")

    feats = img[16:].reshape(n, rows * cols).astype(np.float32)
    del img  # the payload is converted; only the float32 copy lives on
    feats /= np.float32(255.0)
    labels = lab[8:].astype(np.int64)
    return Dataset(feats, labels, n_classes=int(labels.max()) + 1 if n else 0)


def _read_file(path) -> np.ndarray:
    """The whole file as a u8 array. numpy asks for transparent huge pages for
    a buffer of 4 MB or more and a bytes object does not: read as bytes, the
    mnist_sparse training buffers that later reused the freed payload's memory
    were seen on 4 KB pages."""
    return np.fromfile(path, dtype=np.uint8)


def synth_two_moons(n: int, noise_sd: float, rng: np.random.Generator) -> Dataset:
    """Two interleaved half-circles with isotropic Gaussian noise.

    Class 0 lies on the upper unit half-circle centred at the origin;
    class 1 on the lower half-circle shifted by (1, 0.5). Class counts are
    ceil(n/2) / floor(n/2).
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    if noise_sd < 0:
        raise ValueError("noise_sd must be >= 0")
    n0 = (n + 1) // 2
    n1 = n // 2
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1)
    pts = np.concatenate(
        [
            np.stack([np.cos(t0), np.sin(t0)], axis=1),
            np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1),
        ]
    )
    pts = pts + noise_sd * rng.standard_normal(pts.shape)
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return Dataset(pts.astype(np.float32), labels, n_classes=2)


def inject_label_noise(dataset: Dataset, rate: float, rng: np.random.Generator):
    """Flip each label independently with probability `rate` to a uniformly
    random other class. Returns (noisy dataset, flipped indices)."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("noise rate must be in [0, 1]")
    labels = dataset.labels.copy()
    flip = rng.random(len(labels)) < rate
    idx = np.flatnonzero(flip)
    if idx.size:
        if dataset.n_classes < 2:
            raise ValueError("cannot flip labels with fewer than 2 classes")
        offsets = rng.integers(1, dataset.n_classes, size=idx.size)
        labels[idx] = (labels[idx] + offsets) % dataset.n_classes
    return replace(dataset, labels=labels), idx


def split_dataset(dataset: Dataset, fractions, rng: np.random.Generator):
    """Disjoint covering partition by shuffled indices.

    Sizes are floor(f_i * n) with the remainder assigned to the first split.
    """
    fractions = list(fractions)
    if not fractions or any(f < 0 for f in fractions):
        raise ValueError("fractions must be nonnegative")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    n = len(dataset)
    sizes = [int(f * n) for f in fractions]
    sizes[0] += n - sum(sizes)
    perm = rng.permutation(n)
    parts = []
    start = 0
    for size in sizes:
        sel = perm[start : start + size]
        start += size
        parts.append(replace(dataset, features=dataset.features[sel], labels=dataset.labels[sel]))
    return parts


def column_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`x.mean(axis=0, dtype=np.float64)` and `x.std(axis=0, dtype=np.float64)`
    bit for bit, for row-major x (what every loader and split returns), with
    float64 temporaries of at most block_rows rows where numpy's std makes a
    full-size one. numpy sums the squared deviations down each column in row
    order; row 0 of the block buffer carries that running sum across blocks."""
    mean = x.mean(axis=0, dtype=np.float64)
    buf = np.zeros((block_rows(x.shape[1]) + 1, x.shape[1]))
    for rows in row_blocks(x):
        block = x[rows]
        dev = np.subtract(block, mean, out=buf[1 : len(block) + 1])
        np.square(dev, out=dev)
        buf[0] = buf[: len(dev) + 1].sum(axis=0)
    return mean, np.sqrt(buf[0] / len(x))


def standardize(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Per-feature zero-mean/unit-variance transform, statistics taken from
    the training split only. Constant features are left unscaled.

    Both outputs are new float32 arrays, filled by row blocks from float64
    temporaries of at most block_rows rows; the inputs are not modified. The
    bits equal `((x.astype(np.float64) - mean) / sd).astype(np.float32)`
    with `mean` and `sd` from column_stats."""
    mean, sd = column_stats(train.features)
    sd[sd == 0.0] = 1.0

    def apply(ds: Dataset) -> Dataset:
        feats = np.empty(ds.features.shape, dtype=np.float32)
        buf = np.empty((block_rows(feats.shape[1]), feats.shape[1]))
        for rows in row_blocks(ds.features):
            block = ds.features[rows]
            dev = np.subtract(block, mean, out=buf[: len(block)])
            dev /= sd
            feats[rows] = dev
        return replace(ds, features=feats)

    return apply(train), apply(test)


class BatchIterator:
    """Mini-batch iteration with a shuffle order that is a pure function of
    (seed, epoch); the last batch of an epoch may be short."""

    def __init__(self, dataset: Dataset, batch_size: int, seed: int):
        self.dataset = dataset
        self.batch_size = batch_size
        self.seed = seed

    def batches_per_epoch(self) -> int:
        n = len(self.dataset)
        return (n + self.batch_size - 1) // self.batch_size

    def epoch_order(self, epoch: int) -> np.ndarray:
        return substream(self.seed, f"data.shuffle.{epoch}").permutation(len(self.dataset))

    def epoch_batches(self, epoch: int):
        order = self.epoch_order(epoch)
        feats, labels = self.dataset.features, self.dataset.labels
        for start in range(0, len(order), self.batch_size):
            sel = order[start : start + self.batch_size]
            yield feats[sel], labels[sel]
