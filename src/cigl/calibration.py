"""Confidence-calibration metrics and baselines: top-label expected
calibration error, reliability diagrams, NLL, temperature scaling, label
smoothing, and mixup."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_write_text
from .tensor import row_argmax, row_max, row_sum

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12  # clamp for log() in NLL


@dataclass(frozen=True)
class BinStats:
    lower: float
    upper: float
    count: int
    mean_confidence: float | None
    mean_accuracy: float | None


@dataclass(frozen=True)
class ReliabilityBins:
    n_bins: int
    total: int
    bins: tuple[BinStats, ...]
    n_correct: int  # top-label predictions equal to the label

    @property
    def accuracy(self) -> float:  # bit for bit np.mean(probs.argmax(1) == labels)
        return self.n_correct / self.total

    @property
    def ece(self) -> float:  # sum of (count/n) * |accuracy - confidence|, in bin order
        total = 0.0
        for b in self.bins:
            if b.count:
                total += (b.count / self.total) * abs(b.mean_accuracy - b.mean_confidence)
        return total


@dataclass(frozen=True)
class CalibrationReport:
    nll: float
    bins: ReliabilityBins
    temperature: float | None = None

    @property
    def accuracy(self) -> float:
        return self.bins.accuracy

    @property
    def ece(self) -> float:
        return self.bins.ece


def _validate_probs(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs)
    if probs.ndim != 2 or probs.shape[0] == 0 or probs.shape[1] == 0:
        raise ValueError("probs must be a nonempty [n, K] array")
    sums = row_sum(probs, dtype=np.float64)
    if not np.all(np.abs(sums - 1.0) <= 1e-6):  # NaN rows fail too
        raise ValueError("probability rows must sum to 1 within 1e-6")
    return probs


def _validate_labels(labels, n: int, k: int) -> np.ndarray:
    """One integer class index in [0, k) for each of n rows."""
    labels = np.asarray(labels)
    if labels.shape != (n,) or labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be a 1-D integer array of length {n}, got "
                         f"{labels.dtype} {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must be class indices in [0, {k})")
    return labels


def correct_rows(probs, labels) -> np.ndarray:
    """Which validated rows' top class, ties to the lowest index, is the label."""
    probs = _validate_probs(probs)
    return row_argmax(probs) == _validate_labels(labels, *probs.shape)


def reliability_bins(probs, labels, n_bins: int = 15) -> ReliabilityBins:
    """Top-label reliability histogram.

    Bins partition (0, 1] into n_bins equal (lower, upper] intervals; a
    confidence of exactly 0 falls in the first bin. Prediction ties break
    to the lowest class index. Per-bin means accumulate in float64 and in
    sample order.
    """
    correct = correct_rows(probs, labels)
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    conf = row_max(np.asarray(probs)).astype(np.float64)

    uppers = np.array([(m + 1) / n_bins for m in range(n_bins)])
    # The bin is searchsorted(uppers, conf, "left") capped at the last, the m with
    # uppers[m - 1] < conf <= uppers[m]: ceil(conf * n_bins) - 1, stepped at most once.
    idx = np.clip(np.ceil(conf * n_bins).astype(np.intp) - 1, 0, n_bins - 1)
    idx -= conf <= np.append(-np.inf, uppers[:-1])[idx]
    idx += conf > np.append(uppers[:-1], np.inf)[idx]
    count = np.bincount(idx, minlength=n_bins).tolist()
    conf_sum = np.bincount(idx, weights=conf, minlength=n_bins)
    acc_sum = np.bincount(idx, weights=correct, minlength=n_bins)
    bins = tuple(BinStats(m / n_bins, (m + 1) / n_bins, c, float(conf_sum[m] / c) if c else None,
                          float(acc_sum[m] / c) if c else None) for m, c in enumerate(count))
    return ReliabilityBins(n_bins=n_bins, total=len(conf), bins=bins,
                           n_correct=int(np.count_nonzero(correct)))


def ece(probs, labels, n_bins: int = 15) -> float:
    return reliability_bins(probs, labels, n_bins).ece


def nll(probs, labels) -> float:
    """Mean negative log-likelihood; probabilities clamped below at 1e-12."""
    probs = _validate_probs(probs)
    labels = _validate_labels(labels, *probs.shape)
    picked = probs[np.arange(len(labels)), labels].astype(np.float64)
    return float(np.mean(-np.log(np.maximum(picked, PROB_FLOOR))))


def _nll_of_logits(logits: np.ndarray, labels: np.ndarray, temperature: float) -> float:
    z = logits / temperature
    zmax = row_max(z)
    lse = np.log(row_sum(np.exp(z - zmax[:, None]))) + zmax
    return float(np.mean(lse - z[np.arange(len(labels)), labels]))


def fit_temperature(logits, labels) -> float:
    """Scalar temperature minimising validation NLL of softmax(logits / T).

    Golden-section search over [0.05, 10] down to an interval of 1e-4.
    Falls back to T=1 when scaling does not improve the NLL, so the fitted
    temperature never increases it. Degenerate logits (all rows constant)
    return T=1 with a warning.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[0] == 0:
        raise ValueError("validation logits must be a nonempty [n, K] array")
    labels = _validate_labels(labels, *logits.shape)
    if np.all(logits == logits[:, :1]):
        log.warning("degenerate logits (all rows constant); temperature fixed at 1")
        return 1.0

    def f(t: float) -> float:
        return _nll_of_logits(logits, labels, t)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    tol = 1e-4
    a, b = 0.05, 10.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    t_best = c if fc < fd else d
    if f(t_best) > f(1.0):
        return 1.0
    return float(t_best)


def label_smoothing_targets(labels, epsilon: float, n_classes: int) -> np.ndarray:
    """Smoothed one-hot rows, eps in [0, 1): true class 1 - eps + eps/K, others eps/K."""
    labels = np.asarray(labels)
    out = np.full((len(labels), n_classes), epsilon / n_classes, dtype=np.float32)
    out[np.arange(len(labels)), labels] = 1.0 - epsilon + epsilon / n_classes
    return out


def mixup_batch(x1, y1, x2, y2, alpha: float, rng: np.random.Generator):
    """Convex combination of two batches with one Beta(alpha, alpha) draw,
    which rejects alpha <= 0. Targets must already be probability rows.
    Returns (x, y, lam).
    """
    if x1.shape != x2.shape or y1.shape != y2.shape:
        raise ValueError("mixup batches must have identical shapes")
    lam = float(rng.beta(alpha, alpha))
    x = (lam * x1 + (1.0 - lam) * x2).astype(x1.dtype, copy=False)
    y = (lam * y1 + (1.0 - lam) * y2).astype(y1.dtype, copy=False)
    return x, y, lam


def write_reliability_csv(rb: ReliabilityBins, path) -> None:
    """CSV rows (bin_lower, bin_upper, count, mean_confidence, mean_accuracy);
    empty bins leave the mean cells blank. Written atomically."""
    lines = ["bin_lower,bin_upper,count,mean_confidence,mean_accuracy"]
    for b in rb.bins:
        conf = "" if b.mean_confidence is None else repr(b.mean_confidence)
        acc = "" if b.mean_accuracy is None else repr(b.mean_accuracy)
        lines.append(f"{b.lower!r},{b.upper!r},{b.count},{conf},{acc}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_reliability_csv(path) -> list[BinStats]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    return [BinStats(float(lower), float(upper), int(count), float(conf) if conf else None,
                     float(acc) if acc else None) for lower, upper, count, conf, acc in rows]
