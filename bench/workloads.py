"""The three benchmark workloads: their inputs, configs, jobs and output checks.

A workload runs in rounds. Round k trains the k-th of `n_seeds` training
seeds derived from the workload seed, so every round is one complete job:
`setup` (dataset and config construction) followed by `run` (the
operations whose time is `run_s`). Rounds past the first pass over the
seeds repeat earlier seeds, and their outputs must repeat byte for byte.

The cigl modules are passed in as `mods` (one attribute per submodule)
because the harness re-imports the package every round to time its set-up.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import idxgen

N_BINS = 15


@dataclass
class Op:
    """One operation: a call to train, run_experiment, run_correlate or
    run_export_reliability, and what its output checks found."""

    name: str
    seed: int
    value: object = None
    error: str | None = None
    digest: str | None = None


@dataclass
class RoundOutput:
    ops: list = field(default_factory=list)
    accuracy: float | None = None
    ece: float | None = None
    report: dict = field(default_factory=dict)  # the run's own report, for the detail line


def call(out: RoundOutput, name: str, seed: int, fn, *args, **kwargs):
    try:
        value = fn(*args, **kwargs)
    except Exception:
        out.ops.append(Op(name, seed, error=traceback.format_exc(limit=4)))
        return None
    out.ops.append(Op(name, seed, value))
    return value


def check_train_result(result) -> str | None:
    """Sparsity conservation, valid probability rows, accuracy above chance."""
    if result.mask.nnz() != result.mask.target_nnz:
        return f"nnz {result.mask.nnz()} != target {result.mask.target_nnz}"
    probs = result.final_probs
    if not np.isfinite(probs).all():
        return "non-finite probabilities"
    worst = float(np.max(np.abs(probs.sum(axis=1, dtype=np.float64) - 1.0)))
    if worst > 1e-6:
        return f"probability rows off 1 by {worst:.3g}"
    acc = result.history[-1].test_accuracy
    if acc <= 1.0 / probs.shape[1] + 0.1:
        return f"test accuracy {acc:.4f} is not above chance"
    return None


def model_digest(result) -> str:
    h = hashlib.sha256()
    for w, m, b in zip(result.model.weights, result.mask.layers, result.model.biases):
        h.update(np.ascontiguousarray(w).tobytes())
        h.update(np.packbits(m).tobytes())
        h.update(np.ascontiguousarray(b).tobytes())
    return h.hexdigest()


def check_checkpoint(mods, path: Path, result):
    """(error or None, sha256 of the file): the file must reload through
    load_checkpoint with the trained tensors and masks, bit for bit."""
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    ckpt = mods.checkpoint.load_checkpoint(path)
    expected_t, expected_m = [], []
    for w, m, b in zip(result.model.weights, result.mask.layers, result.model.biases):
        expected_t += [w, b]
        expected_m += [m, np.ones_like(b, dtype=bool)]
    if len(ckpt.tensors) != len(expected_t):
        return f"checkpoint holds {len(ckpt.tensors)} tensors, expected {len(expected_t)}", digest
    for i, (a, b) in enumerate(zip(ckpt.tensors, expected_t)):
        if a.shape != b.shape or a.tobytes() != np.asarray(b, dtype="<f4").tobytes():
            return f"checkpoint tensor {i} differs from the trained model", digest
    for i, (a, b) in enumerate(zip(ckpt.masks, expected_m)):
        if not np.array_equal(a, b):
            return f"checkpoint mask {i} differs from the trained topology", digest
    return None, digest


class Workload:
    name: str
    n_seeds: dict  # training seeds per pass, by size ("full", or "tiny" for the smoke test)

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def train_seed(self, k: int) -> int:
        return self.seed * 1000 + k

    def prepare(self, mods) -> None:
        """The benchmark's own input generation; untimed."""

    def setup(self, mods, k: int):
        raise NotImplementedError

    def run(self, mods, state, k: int) -> RoundOutput:
        raise NotImplementedError

    def check(self, mods, out: RoundOutput) -> None:
        raise NotImplementedError


class MoonsSeeds(Workload):
    """The acceptance experiment's paired arms on one seed per round."""

    name = "moons_seeds"
    n_seeds = {"full": 24, "tiny": 2}
    SIZES = {"full": dict(epochs=20, n_train=2000, n_test=10000),
             "tiny": dict(epochs=6, n_train=1000, n_test=1000)}
    ARMS = (("cigl", 0.9), ("rigl", 0.9), ("cigl", 0.0))

    def setup(self, mods, k):
        seed = self.train_seed(k)
        size = self.SIZES[self.size]
        synth, noise, sub = mods.data.synth_two_moons, mods.data.inject_label_noise, mods.rng.substream
        tr = synth(size["n_train"], 0.25, sub(seed, "data.synth.train"))
        tr, _ = noise(tr, 0.15, sub(seed, "data.noise.train"))
        te = synth(size["n_test"], 0.25, sub(seed, "data.synth.test"))
        te, _ = noise(te, 0.15, sub(seed, "data.noise.test"))
        epochs = size["epochs"]
        configs = []
        for method, sparsity in self.ARMS:
            cfg = mods.train.TrainConfig(
                method=method, epochs=epochs, batch_size=48, seed=seed, hidden=(64, 64),
                sparsity=sparsity, update_interval=50, update_end_fraction=0.5,
                wma_start_epoch=epochs // 2, base_lr=0.15, lr_milestones=(),
                weight_decay=5e-4, keep_prob=0.99)
            cfg.validate()
            configs.append(cfg)
        return tr, te, configs

    def run(self, mods, state, k):
        tr, te, configs = state
        out = RoundOutput()
        for cfg in configs:
            call(out, "train", cfg.seed, mods.train.train, cfg, tr, te)
        return out

    def check(self, mods, out):
        for op in out.ops:
            if op.error is None:
                op.error = check_train_result(op.value)
                op.digest = model_digest(op.value)
        first = out.ops[0]  # the cigl arm at s=0.9
        if first.error is None:
            out.accuracy = first.value.history[-1].test_accuracy
            out.ece = first.value.history[-1].test_ece


class RunExperimentWorkload(Workload):
    """A config-text experiment through run_experiment."""

    def config_text(self, k: int) -> str:
        raise NotImplementedError

    def setup(self, mods, k):
        text = self.config_text(k)
        return mods.config.resolve_config(mods.config.parse_config_text(text, origin=self.name))

    def run_experiment(self, mods, cfg, out: RoundOutput):
        return call(out, "run_experiment", cfg.train.seed, mods.runner.run_experiment,
                    cfg, out_root=self.workdir / "runs", force=True)

    def check(self, mods, out):
        for op in out.ops:
            if op.error is None and op.name == "run_experiment":
                result = op.value.result
                op.error = check_train_result(result)
                if op.error is None:
                    op.error, op.digest = check_checkpoint(
                        mods, op.value.out_dir / "model.ckpt", result)
        first = out.ops[0]
        if first.error is None:
            last = first.value.result.history[-1]
            out.accuracy, out.ece = last.test_accuracy, last.test_ece
            report = first.value.report
            out.report = {"ece": report.ece, "nll": report.nll, "temperature": report.temperature}


class MnistSparse(RunExperimentWorkload):
    """784-300-100-10 at s=0.9 on MNIST-shaped IDX data."""

    name = "mnist_sparse"
    n_seeds = {"full": 16, "tiny": 1}
    SIZES = {"full": dict(n=9600, epochs=6), "tiny": dict(n=4800, epochs=4)}

    def prepare(self, mods):
        n = self.SIZES[self.size]["n"]
        images, labels = idxgen.synth_images(n, self.seed)
        self.images_path = self.workdir / "images.idx"
        self.labels_path = self.workdir / "labels.idx"
        idxgen.write_idx(images, labels, self.images_path, self.labels_path)
        back = mods.data.load_idx(self.images_path, self.labels_path)
        expected = images.reshape(n, -1).astype(np.float32) / np.float32(255.0)
        if not (np.array_equal(back.features, expected) and np.array_equal(back.labels, labels)
                and back.n_classes == idxgen.N_CLASSES):
            raise RuntimeError("load_idx does not read the generated IDX pair back unchanged")

    def config_text(self, k):
        size = self.SIZES[self.size]
        return f"""
run.id = mnist_sparse_{k}
train.method = cigl
train.epochs = {size['epochs']}
train.batch_size = 128
train.seed = {self.train_seed(k)}
train.hidden = 300, 100
train.sparsity = 0.9
train.update_interval = 10
train.keep_prob = 0.9
train.wma_start_epoch = {size['epochs'] // 2}
train.base_lr = 0.1
train.lr_milestones =
data.source = idx
data.idx_images = {self.images_path}
data.idx_labels = {self.labels_path}
data.label_noise = 0.0
data.split = 0.5, 0.5
data.standardize = true
calib.n_bins = {N_BINS}
calib.temperature = true
"""

    def run(self, mods, cfg, k):
        out = RoundOutput()
        self.run_experiment(mods, cfg, out)
        return out


class McEval(RunExperimentWorkload):
    """rigl_mcdp on two-moons with a large test split, then the post-hoc tools."""

    name = "mc_eval"
    n_seeds = {"full": 16, "tiny": 1}
    SIZES = {"full": dict(n=12000, epochs=10, milestones="5, 8"),
             "tiny": dict(n=5000, epochs=6, milestones="4, 5")}
    CORRELATE_KEEP_PROB = 0.9
    CORRELATE_DRAWS = 5

    def config_text(self, k):
        size = self.SIZES[self.size]
        return f"""
run.id = mc_eval_{k}
train.method = rigl_mcdp
train.epochs = {size['epochs']}
train.batch_size = 48
train.seed = {self.train_seed(k)}
train.hidden = 64, 64
train.sparsity = 0.9
train.update_interval = 50
train.update_end_fraction = 0.5
train.keep_prob = 0.9
train.base_lr = 0.15
train.lr_milestones = {size['milestones']}
train.weight_decay = 0.0005
train.mc_samples = 30
data.source = two_moons
data.n = {size['n']}
data.noise_sd = 0.25
data.label_noise = 0.15
data.split = 0.2, 0.8
calib.n_bins = {N_BINS}
"""

    def run(self, mods, cfg, k):
        out = RoundOutput()
        run = self.run_experiment(mods, cfg, out)
        ckpt = run.out_dir / "model.ckpt" if run is not None else self.workdir / "missing.ckpt"
        seed = cfg.train.seed
        call(out, "run_correlate", seed, mods.runner.run_correlate, cfg, ckpt,
             keep_prob=self.CORRELATE_KEEP_PROB, n_draws=self.CORRELATE_DRAWS)
        call(out, "run_export_reliability", seed, mods.runner.run_export_reliability, cfg, ckpt,
             self.workdir / f"reliability_{k}.csv")
        return out

    def check(self, mods, out):
        super().check(mods, out)
        n_test = None
        if out.ops[0].error is None:
            n_test = len(out.ops[0].value.result.final_probs)
        for op in out.ops[1:]:
            if op.error is not None:
                continue
            if op.name == "run_correlate":
                op.error = _check_correlation(op.value, self.CORRELATE_DRAWS)
                op.digest = hashlib.sha256(repr(sorted(op.value.items())).encode()).hexdigest()
            else:
                op.error, op.digest = _check_reliability_csv(mods, op.value, n_test)


def _check_correlation(result: dict, n_draws: int) -> str | None:
    for key in ("base_accuracy", "mean_masked_accuracy"):
        if not 0.0 <= result[key] <= 1.0:
            return f"{key} = {result[key]} outside [0, 1]"
    if not math.isclose(result["accuracy_drop"],
                        result["base_accuracy"] - result["mean_masked_accuracy"]):
        return "accuracy_drop is not base - mean_masked"
    if result["n_draws"] != n_draws:
        return f"n_draws {result['n_draws']} != {n_draws}"
    return None


def _check_reliability_csv(mods, path: Path, n_test):
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    bins = mods.calibration.read_reliability_csv(path)
    if len(bins) != N_BINS:
        return f"{len(bins)} reliability bins, expected {N_BINS}", digest
    total = sum(b.count for b in bins)
    if n_test is not None and total != n_test:
        return f"reliability bins count {total} points, test split has {n_test}", digest
    return None, digest


WORKLOADS = {w.name: w for w in (MoonsSeeds, MnistSparse, McEval)}
