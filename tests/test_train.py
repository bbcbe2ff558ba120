import copy
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cigl.calibration import nll, reliability_bins
from cigl.config import ConfigError
from cigl.data import BatchIterator, Dataset, inject_label_noise, split_dataset, synth_two_moons
from cigl.masks import (
    DeterministicMask,
    build_sparsity_plan,
    erk_allocate,
    init_mask,
    sample_random_mask,
)
from cigl.predict import BLOCK_ACTS, LivePlan, Predictor
from cigl.rng import substream
from cigl.tensor import MlpModel, NonFiniteError, forward, init_mlp, softmax
from cigl.train import (
    METHODS,
    _end_epoch,
    _sgd_iteration,
    _topology_update,
    TrainConfig,
    TrainState,
    evaluate,
    masked_model,
    predict_mc_dropout,
    train,
)

from _oracles import (
    draw_layers,
    live_unit_sets_by_loops,
    live_units_by_loops,
    mc_dropout_enumeration,
    reference_train,
)


def small_data(seed=0, n=400):
    ds = synth_two_moons(n, 0.25, substream(seed, "data.synth"))
    ds, _ = inject_label_noise(ds, 0.1, substream(seed, "data.noise"))
    return split_dataset(ds, [0.5, 0.5], substream(seed, "data.split"))


def small_config(method, **kw):
    base = dict(
        method=method,
        epochs=10,
        batch_size=32,
        seed=3,
        hidden=(16, 16),
        sparsity=0.8,
        update_interval=5,
        wma_start_epoch=6,
        base_lr=0.1,
        lr_milestones=(8,),
    )
    base.update(kw)
    return TrainConfig(**base)


def weights_bytes(model):
    return b"".join(a.tobytes() for a in model.weights + model.biases)


def predict_logits(model, x):
    """Float64 logits [n, k], C-contiguous: the feature-major logits of model
    through its live units, in a fresh Predictor over x, transposed."""
    return np.ascontiguousarray(Predictor(model, x).logits(model).T)


class TestDegeneracyLattice:
    def test_cigl_without_wma_at_full_keep_equals_rigl(self):
        tr, te = small_data()
        a = train(small_config("cigl_no_wma", keep_prob=1.0), tr, te)
        b = train(small_config("rigl"), tr, te)
        assert weights_bytes(a.model) == weights_bytes(b.model)

    def test_cigl_at_full_keep_equals_no_random_mask_ablation(self):
        tr, te = small_data()
        a = train(small_config("cigl", keep_prob=1.0), tr, te)
        b = train(small_config("cigl_no_rm"), tr, te)
        assert weights_bytes(a.model) == weights_bytes(b.model)

    def test_rigl_at_zero_sparsity_equals_dense(self):
        tr, te = small_data()
        a = train(small_config("rigl", sparsity=0.0), tr, te)
        b = train(small_config("dense"), tr, te)
        assert weights_bytes(a.model) == weights_bytes(b.model)

    def test_wdp_and_mcdp_share_trained_weights(self):
        tr, te = small_data()
        a = train(small_config("rigl_wdp"), tr, te)
        b = train(small_config("rigl_mcdp"), tr, te)
        assert weights_bytes(a.model) == weights_bytes(b.model)


class TestTrainLoop:
    def test_same_seed_is_bit_identical(self):
        tr, te = small_data()
        a = train(small_config("cigl"), tr, te)
        b = train(small_config("cigl"), tr, te)
        assert weights_bytes(a.model) == weights_bytes(b.model)
        assert a.history == b.history

    @pytest.mark.parametrize("method", ["cigl", "rigl"])  # a WMA mean, the bare masked weights
    def test_output_model_shares_no_memory_with_the_live_buffers(self, method):
        tr, te = small_data()
        cfg = small_config(method, epochs=2, wma_start_epoch=0)
        s = TrainState.start(cfg, tr)
        for xb, yb in BatchIterator(tr, cfg.batch_size, cfg.seed).epoch_batches(0):
            _sgd_iteration(s, cfg, xb, yb, 0.1, 100)
        res = _end_epoch(s, cfg, te, 1, 0.1, 0.0, Predictor(s.seen, te.features))
        assert res.history[-1].n_models_in_wma == (method == "cigl")
        live = [s.w, s.g, s.grads.flat, s.seen.flat, s.sgd.velocity, *(s.wma.means or [])]
        live += [s.z] if method == "cigl" else []
        out = res.model.weights + res.model.biases
        assert all(np.shares_memory(a, res.model.flat) for a in out)
        assert not any(np.shares_memory(a, b) for a in out + [res.model.flat] for b in live)

    @pytest.mark.parametrize("method", ["rigl", "rigl_mcdp"])
    def test_final_logits_are_the_output_models_feature_major_logits(self, method):
        tr, te = small_data()
        assert train(small_config(method), tr, te).final_logits is None  # not scaled
        if not METHODS[method].mc_predict:
            res = train(small_config(method, temperature=True), tr, te)
            assert res.final_logits.shape == (te.n_classes, len(te))
            z = Predictor(res.model, te.features).logits(res.model)
            assert res.final_logits.tobytes() == z.tobytes()

    def test_wma_snapshot_count(self):
        tr, te = small_data()
        res = train(small_config("cigl", epochs=10, wma_start_epoch=5), tr, te)
        assert res.history[-1].n_models_in_wma == 5

    def test_history_one_record_per_epoch(self):
        tr, te = small_data()
        res = train(small_config("rigl"), tr, te)
        assert [r.epoch for r in res.history] == list(range(1, 11))

    def test_sparsity_conserved_at_every_update(self):
        tr, te = small_data()
        res = train(small_config("cigl", sparsity=0.9), tr, te)
        assert len(res.mask_update_log) > 0
        for _, nnz in res.mask_update_log:
            assert nnz == res.mask.target_nnz
        targets = tuple(
            int(round(0.1 * w.size)) for w in res.model.weights
        )
        assert res.mask.target_nnz == targets

    def test_final_weights_supported_by_mask(self):
        tr, te = small_data()
        res = train(small_config("cigl"), tr, te)
        assert not res.model.flat[~res.mask.flat].view(np.uint32).any()  # +0 exactly

    @pytest.mark.parametrize("method", list(METHODS))
    def test_weights_and_velocities_stay_zero_off_the_topology(self, method):
        # w and v hold only the active positions; seen, which BLAS reads, is
        # +0 off m, and a regrown position enters its first step from +0
        # weight and velocity: after it, v is that step's gradient and w is -lr * v
        tr, _ = small_data()
        cfg = small_config(method, update_interval=2)
        s = TrainState.start(cfg, tr)
        batches = BatchIterator(tr, cfg.batch_size, cfg.seed)
        n_regrown = 0
        for epoch in range(2):
            for xb, yb in batches.epoch_batches(epoch):
                before = s.mask
                _sgd_iteration(s, cfg, xb, yb, 0.1, 100)
                assert not s.seen.flat[~s.mask.flat].view(np.uint32).any()
                assert s.w.size == s.sgd.velocity.size == s.mask.positions.size
                regrown = ~before.flat[s.mask.positions]
                n_regrown += int(regrown.sum())
                assert np.array_equal(s.sgd.velocity[regrown], s.g[regrown])
                assert np.array_equal(s.w[regrown], -(np.float32(0.1) * s.g[regrown]))
        assert len(s.update_log) == 7 * METHODS[method].sparse
        assert (n_regrown > 0) == METHODS[method].sparse

    @pytest.mark.parametrize("method", ["cigl", "rigl"])
    def test_a_kept_position_keeps_its_weight_and_velocity_through_a_topology_update(self,
                                                                                       method):
        tr, _ = small_data()
        cfg = small_config(method, update_interval=1000)
        s = TrainState.start(cfg, tr)
        batches = list(BatchIterator(tr, cfg.batch_size, cfg.seed).epoch_batches(0))
        for xb, yb in batches[:-1]:
            _sgd_iteration(s, cfg, xb, yb, 0.1, 100)
        old, w, v = s.mask, s.w.copy(), s.sgd.velocity.copy()
        xb, yb = batches[-1]
        s.t += 1
        _topology_update(s, cfg, xb, s.targets[yb], 100)
        kept_old, kept_new = s.mask.flat[old.positions], old.flat[s.mask.positions]
        assert 0 < int((~kept_new).sum()) < kept_new.size  # some regrown, most kept
        assert s.w[kept_new].tobytes() == w[kept_old].tobytes()
        assert s.sgd.velocity[kept_new].tobytes() == v[kept_old].tobytes()
        assert not (s.w[~kept_new].view(np.uint32).any() or
                    s.sgd.velocity[~kept_new].view(np.uint32).any())  # +0 exactly
        assert not s.seen.flat[~s.mask.flat].view(np.uint32).any()

    def test_single_effective_mask_keeps_the_bits(self):
        # The loop scatters the compact w * z into seen, and masks the gathered
        # gradient by the compact z alone. On the topology both equal the dense
        # products by w * m * z bit for bit, signed zeros included; off it,
        # seen holds +0.
        rng = np.random.default_rng(2)
        w = rng.normal(0, 1, (40, 30)).astype(np.float32)
        w[:, :4] = -0.0
        mask = init_mask([w.shape], build_sparsity_plan([w.shape], 0.7), substream(2, "mask.init"))
        m = mask.layers[0]
        (z,) = sample_random_mask(mask, 0.6, substream(2, "mask.random"))
        z_layer = draw_layers(mask, z)[0]
        raw = MlpModel([w.copy()], [np.zeros(40, np.float32)])
        for compact_z, dense_z in [(z, z_layer), (None, m)]:
            seen = masked_model(raw.flat[mask.positions], compact_z, mask,
                                raw.over(np.zeros_like(raw.flat)))
            want = np.where(m, w * m * dense_z, np.float32(0))
            assert seen.weights[0].tobytes() == want.tobytes()
        g = rng.normal(0, 1, w.shape).astype(np.float32)
        masked = g.ravel()[mask.flat_active]
        masked *= z
        assert masked.tobytes() == (g * m * z_layer).ravel()[mask.flat_active].tobytes()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kw, n, reason", [
        (dict(method="dense", base_lr=1e4), 400, "logits"),  # seen by a step's backward
        # by a topology update's backward, which comes first in every iteration here
        (dict(method="rigl", base_lr=1e6, update_interval=1), 800, "logits"),
        # by the evaluation after the one step of an epoch (64 training rows)
        (dict(method="dense", base_lr=1e30, batch_size=64, epochs=1, wma_start_epoch=0), 128,
         "probabilities"),
        (dict(method="dense", base_lr=1e38, batch_size=64, epochs=1, wma_start_epoch=0), 128,
         "probabilities"),
    ], ids=["step", "topology_update", "evaluation_1e30", "evaluation_1e38"])
    def test_divergence_aborts_with_diagnostics(self, kw, n, reason):
        tr, te = small_data(n=n)
        cfg = small_config(lr_milestones=(), **kw)
        with pytest.raises(NonFiniteError, match=r"^training diverged at epoch 1, iteration \d+: "
                                                 rf"non-finite {reason}$"):
            train(cfg, tr, te)

    def test_all_methods_run(self):
        tr, te = small_data(n=200)
        for method in METHODS:
            res = train(small_config(method, epochs=4, wma_start_epoch=2), tr, te)
            assert len(res.history) == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(method="nope").validate()
        with pytest.raises(ValueError):
            TrainConfig(epochs=10, wma_start_epoch=10).validate()
        with pytest.raises(ValueError):
            TrainConfig(keep_prob=1.5).validate()

    def test_mask_exclude_covers_every_layer_and_no_more(self):
        TrainConfig(hidden=(8, 8), mask_exclude=(0, 1, 2)).validate()
        for bad in [(3,), (-1,)]:
            with pytest.raises(ConfigError, match=r"^train\.mask_exclude: "):
                TrainConfig(hidden=(8, 8), mask_exclude=bad).validate()

    @pytest.mark.parametrize("knob, key", [
        (dict(mixup_alpha=float("nan")), "calib.mixup_alpha"),
        (dict(base_lr=float("inf")), "train.base_lr"),
        (dict(weight_decay=float("nan")), "train.weight_decay"),
        (dict(epochs=4, wma_start_epoch=-3), "train.wma_start_epoch"),
        (dict(seed=-1), "train.seed"),
        (dict(seed=2**64), "train.seed"),
        (dict(method="nope", temperature=True), "train.method"),
    ])
    def test_non_finite_or_negative_knob_names_its_file_key(self, knob, key):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            TrainConfig(**knob).validate()

    def test_train_refuses_temperature_with_mc_dropout(self):
        tr, te = small_data()
        with pytest.raises(ConfigError, match="^calib.temperature: rigl_mcdp predicts by MC "
                                              "dropout, which has no single logit set to scale$"):
            train(TrainConfig(method="rigl_mcdp", temperature=True), tr, te)


class TestKnobsThroughTrain:
    def test_erk_targets_match_the_allocation_and_are_conserved(self):
        tr, te = small_data()
        res = train(small_config("cigl", sparsity_mode="erk"), tr, te)
        sizes = [w.size for w in res.model.weights]
        alloc = erk_allocate([w.shape for w in res.model.weights], 0.8)
        want = tuple(int(round((1.0 - s) * n)) for s, n in zip(alloc, sizes))
        assert want != tuple(int(round(0.2 * n)) for n in sizes)  # not the uniform split
        assert res.mask.target_nnz == want
        assert len(res.mask_update_log) > 0
        for _, nnz in res.mask_update_log:
            assert nnz == want
        assert res.mask.nnz() == want

    def test_excluded_layer_stays_dense_through_updates(self, caplog):
        tr, te = small_data()
        with caplog.at_level("WARNING", logger="cigl.masks"):
            res = train(small_config("cigl", mask_exclude=(2,)), tr, te)
        assert "clamped" not in caplog.text  # a dense layer is skipped silently
        sizes = [w.size for w in res.model.weights]
        assert len(res.mask_update_log) > 0
        for _, nnz in res.mask_update_log:
            assert nnz == (int(round(0.2 * sizes[0])), int(round(0.2 * sizes[1])), sizes[2])
        assert res.mask.layers[2].all()

    def test_wma_every_other_epoch(self):
        tr, te = small_data()
        res = train(small_config("cigl", epochs=10, wma_start_epoch=5, wma_every=2), tr, te)
        assert [r.n_models_in_wma for r in res.history] == [0] * 6 + [1, 1, 2, 2]
        assert res.history[-1].n_models_in_wma == 2

    @pytest.mark.parametrize("knobs", [
        {"label_smoothing": 0.1},
        {"mixup_alpha": 0.2},
        {"label_smoothing": 0.1, "mixup_alpha": 0.2},
    ])
    def test_calibration_knobs_rerun_bit_identical_and_change_the_weights(self, knobs):
        tr, te = small_data()
        a = train(small_config("cigl", **knobs), tr, te)
        b = train(small_config("cigl", **knobs), tr, te)
        off = train(small_config("cigl"), tr, te)
        assert weights_bytes(a.model) == weights_bytes(b.model)
        assert a.history == b.history
        assert weights_bytes(a.model) != weights_bytes(off.model)


def full_mask(model):
    return DeterministicMask([np.ones(w.shape, bool) for w in model.weights],
                             tuple(w.size for w in model.weights))


def plain_evaluate(model, data):
    """evaluate's probabilities and bins under a method without MC prediction:
    one softmax."""
    return evaluate(model, full_mask(model), TrainConfig(method="rigl"), data, 1)[:2]


class TestEvaluate:
    def test_uniform_logits_tie_break_to_class_zero(self):
        tr, _ = small_data()
        model = MlpModel([np.zeros((2, 2), np.float32)], [np.zeros(2, np.float32)])
        _, bins = plain_evaluate(model, tr)
        assert bins.accuracy == pytest.approx(float(np.mean(tr.labels == 0)))

    def test_saturated_logits_give_perfect_accuracy_and_tiny_nll(self):
        from cigl.data import Dataset

        x = np.array([[1.0, 0.0], [-1.0, 0.0]] * 10, dtype=np.float32)
        y = np.array([0, 1] * 10)
        data = Dataset(x, y, 2)
        model = MlpModel([np.array([[30.0, 0.0], [-30.0, 0.0]], np.float32)],
                         [np.zeros(2, np.float32)])
        probs, bins = plain_evaluate(model, data)
        assert bins.accuracy == 1.0
        assert nll(probs, data.labels) < 1e-9

    def test_prob_rows_sum_to_one(self):
        tr, _ = small_data()
        rng = substream(0, "eval")
        model = MlpModel([rng.normal(0, 1, (2, 2)).astype(np.float32)],
                         [np.zeros(2, np.float32)])
        probs, _ = plain_evaluate(model, tr)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-6

    @pytest.mark.parametrize("method", list(METHODS))
    def test_method_chooses_mc_dropout_or_one_softmax(self, method):
        tr, _ = small_data()
        model = init_mlp([2, 16, 2], substream(1, "eval.init"))
        shapes = [w.shape for w in model.weights]
        mask = init_mask(shapes, build_sparsity_plan(shapes, 0.5), substream(1, "eval.mask"))
        model.flat *= mask.flat
        cfg = TrainConfig(method=method, seed=5, keep_prob=0.7, mc_samples=3, n_bins=7, epochs=6,
                          temperature=not METHODS[method].mc_predict)
        probs, bins, logits = evaluate(model, mask, cfg, tr, 4)
        last = evaluate(model, mask, cfg, tr, 6)
        assert logits is None  # only the last epoch keeps them
        if METHODS[method].mc_predict:
            want = predict_mc_dropout(model, mask, 0.7, 3, tr.features,
                                      substream(5, "mc.eval.4"))
            assert last[2] is None
        else:
            want, _ = plain_evaluate(model, tr)
            assert last[2].shape == (tr.n_classes, len(tr))
            assert last[2].tobytes() == Predictor(model, tr.features).logits(model).tobytes()
            assert last[0].tobytes() == probs.tobytes()
        np.testing.assert_array_equal(probs, want)
        assert bins == reliability_bins(want, tr.labels, 7)


class TestMcDropout:
    def _tiny_model(self):
        rng = substream(4, "mc")
        weights = [rng.normal(0, 1, (2, 2)).astype(np.float32),
                   rng.normal(0, 1, (2, 2)).astype(np.float32)]
        biases = [np.zeros(2, np.float32), np.zeros(2, np.float32)]
        masks = [np.array([[True, False], [True, True]]),
                 np.array([[True, True], [False, True]])]
        mask = DeterministicMask(masks, (3, 3))
        model = MlpModel([w * m for w, m in zip(weights, masks)], biases)
        return model, mask

    def _wide_model(self):
        """A 2-64-64-2 net at 90% sparsity with nonzero biases."""
        rng = substream(4, "mc.wide")
        model = init_mlp([2, 64, 64, 2], rng)
        shapes = [w.shape for w in model.weights]
        mask = init_mask(shapes, build_sparsity_plan(shapes, 0.9), substream(4, "mc.mask"))
        for w, b, m in zip(model.weights, model.biases, mask.layers):
            w *= m
            b[:] = rng.normal(0, 0.1, b.shape)
        return model, mask

    def test_single_sample_full_keep_equals_plain_evaluate(self):
        tr, _ = small_data(n=100)
        model, mask = self._tiny_model()
        probs = predict_mc_dropout(model, mask, 1.0, 1, tr.features, substream(0, "mc"))
        plain, _ = plain_evaluate(model, tr)
        np.testing.assert_array_equal(probs, plain)

    def test_single_sample_full_keep_equals_plain_evaluate_across_blocks(self):
        tr, _ = small_data(n=6000)
        assert len(tr) == 3000
        model, mask = self._wide_model()
        probs = predict_mc_dropout(model, mask, 1.0, 1, tr.features, substream(0, "mc"))
        plain, _ = plain_evaluate(model, tr)
        np.testing.assert_array_equal(probs, plain)

    def test_draw_stream_matches_reference_loop(self):
        from cigl.masks import sample_random_mask
        from cigl.tensor import softmax

        tr, _ = small_data(n=1000)
        model, mask = self._wide_model()
        probs = predict_mc_dropout(model, mask, 0.8, 7, tr.features, substream(2, "mc"))
        rng, unit_sets = substream(2, "mc"), live_unit_sets_by_loops(model)
        total = np.zeros_like(probs)
        for _ in range(7):  # every draw through the live units of the model
            z = draw_layers(mask, *sample_random_mask(mask, 0.8, rng))
            masked = MlpModel([w * m * zz for w, m, zz in zip(model.weights, mask.layers, z)],
                              model.biases)
            live = live_units_by_loops(masked, unit_sets)
            total += softmax(blocked_forward(masked, tr.features, live))
        np.testing.assert_array_equal(probs, total / 7)

    def test_rows_sum_to_one_tightly(self):
        tr, _ = small_data(n=100)
        model, mask = self._tiny_model()
        probs = predict_mc_dropout(model, mask, 0.8, 25, tr.features, substream(1, "mc"))
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9

    def test_matches_exhaustive_enumeration(self):
        from cigl.tensor import forward, softmax

        model, mask = self._tiny_model()
        x = substream(5, "mc.x").normal(0, 1, (6, 2)).astype(np.float32)

        def forward_fn(masked_weights, biases, xx):
            return softmax(forward(MlpModel(masked_weights, biases), xx))

        exact = mc_dropout_enumeration(model.weights, model.biases, mask.layers, 0.7, x, forward_fn)
        sampled = predict_mc_dropout(model, mask, 0.7, 10000, x, substream(6, "mc"))
        assert np.max(np.abs(sampled - exact)) < 0.01


def _signed_zero_net(dims, seed):
    """A net at 80% sparsity whose masked-out weights are zeros of both
    signs, with nonzero biases, its mask, and a feature row generator."""
    rng = substream(seed, "read.path")
    model = init_mlp(dims, rng)
    shapes = [w.shape for w in model.weights]
    mask = init_mask(shapes, build_sparsity_plan(shapes, 0.8), substream(seed, "read.mask"))
    for w, b, m in zip(model.weights, model.biases, mask.layers):
        w *= m
        b[:] = rng.normal(0, 0.1, b.shape)
    zeros = np.concatenate([w[w == 0] for w in model.weights])
    assert np.signbit(zeros).any() and (~np.signbit(zeros)).any()
    return model, mask, lambda n: rng.standard_normal((n, dims[0])).astype(np.float32)


def blocked_forward(model, x, live=None):
    """Plain per-layer forward of live (default: model), feature-major, in the
    column blocks and layout predict_logits uses, as float64 logits [n, k]:
    per block of BLOCK_ACTS // (the widest layer of live) columns of x.T (a
    C-contiguous copy when it holds at most BLOCK_ACTS values), h = w @ h +
    b[:, None] layer by layer, ReLU (against an array of zeros) on the hidden
    layers, in fresh arrays."""
    live = model if live is None else live
    step = max(1, BLOCK_ACTS // max(w.shape[0] for w in live.weights))
    xt = np.ascontiguousarray(x.T) if x.size <= BLOCK_ACTS else x.T
    blocks = []
    for start in range(0, len(x), step):
        h = xt[:, start : start + step]
        for i, (w, b) in enumerate(zip(live.weights, live.biases)):
            h = w @ h + b[:, None]
            if i != live.n_layers - 1:
                h = np.maximum(h, np.zeros_like(h))
        blocks.append(h)
    return np.ascontiguousarray(np.concatenate(blocks, axis=1).T, dtype=np.float64)


class TestReadPath:
    """The feature-major column blocks of predict_logits and predict_mc_dropout
    against plain per-layer products through the live units that the loop
    oracle finds, and the unshared per-draw formula, in bytes."""

    @pytest.mark.parametrize("dims", [[2, 64, 64, 2], [784, 300, 100, 10]], ids=["moons", "mnist"])
    def test_predict_logits_equals_plain_forward_per_block(self, dims):
        model, _, features = _signed_zero_net(dims, 11)
        live = live_units_by_loops(model)
        assert live.flat.size < model.flat.size  # some hidden unit is not live
        step = BLOCK_ACTS // max(w.shape[0] for w in live.weights)
        x = features(9600)
        assert step < 9600  # more than one block
        for n in (1, 37, step - 1, step, step + 1, 2 * step + 100, 9600):  # a 100-column last block
            got = predict_logits(model, x[:n])
            want = blocked_forward(model, x[:n], live)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("keep_prob", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize("n_samples", [1, 3])
    def test_mc_dropout_equals_the_mean_of_unshared_draws(self, keep_prob, n_samples):
        model, mask, features = _signed_zero_net([2, 64, 64, 2], 12)
        x = features(1100)
        rng = substream(13, "read.mc")
        ref = copy.deepcopy(rng)
        got = predict_mc_dropout(model, mask, keep_prob, n_samples, x, rng)
        draws, unit_sets = [], live_unit_sets_by_loops(model)
        # a per-layer w * z in fresh arrays for every draw, run through the model's live units
        for _ in range(n_samples):
            z = draw_layers(mask, *sample_random_mask(mask, keep_prob, ref))
            seen = MlpModel([w * zz for w, zz in zip(model.weights, z)], model.biases)
            live = live_units_by_loops(seen, unit_sets)
            draws.append(softmax(blocked_forward(seen, x, live)))
        want = draws[0]
        for probs in draws[1:]:
            want = want + probs
        assert got.tobytes() == (want / n_samples).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestSharedForward:
    """evaluate's single softmax, before and at the last epoch, and one MC draw
    at keep_prob=1 run the same feature-major forward and column softmax, in
    buffers made once per call, and once per training run for every
    evaluation of its test split."""

    @pytest.mark.parametrize("dims, sparsity, one_block", [([2, 64, 64, 2], 0.0, False),
                                                           ([2, 64, 64, 2], 0.9, True),
                                                           ([784, 300, 100, 10], 0.9, False)],
                             ids=["dense", "sparse", "mnist"])
    def test_one_full_keep_draw_equals_the_single_softmax(self, dims, sparsity, one_block):
        rng = substream(22, "shared.forward")
        model = init_mlp(dims, rng)
        shapes = [w.shape for w in model.weights]
        mask = init_mask(shapes, build_sparsity_plan(shapes, sparsity), substream(22, "shared.mask"))
        model.flat *= mask.flat
        for b in model.biases:
            b[:] = rng.normal(0, 0.1, b.shape)
        x = rng.standard_normal((3000, dims[0])).astype(np.float32)
        data = Dataset(x, rng.integers(0, dims[-1], 3000), dims[-1])
        live = LivePlan(model).apply(model)
        assert (3000 <= BLOCK_ACTS // max(w.shape[0] for w in live.weights)) == one_block
        draw = predict_mc_dropout(model, mask, 1.0, 1, x, substream(22, "shared.mc"))
        cfg = TrainConfig(method="rigl", epochs=3)
        for epoch in (1, 3):
            probs = evaluate(model, mask, cfg, data, epoch)[0]
            assert probs.tobytes() == draw.tobytes()
            for a in (probs, draw):
                assert a.dtype == np.float64 and a.shape == (3000, dims[-1])
                assert a.flags.c_contiguous

    @pytest.fixture
    def made(self, monkeypatch):
        """Every Predictor made, and every logits array its forward returned."""
        made = []

        class Recording(Predictor):
            def __init__(self, *args):
                super().__init__(*args)
                made.append((self, []))

            def logits(self, *args):
                out = super().logits(*args)
                next(m for m in made if m[0] is self)[1].append(out)
                return out

        for module in ("cigl.train", "cigl.predict"):
            monkeypatch.setattr(sys.modules[module], "Predictor", Recording)
        return made

    def test_a_30_draw_call_plans_once_and_runs_every_draw_in_buffers_made_once(self, made,
                                                                               monkeypatch):
        module = sys.modules["cigl.predict"]
        plans, applied = [], []

        class Recording(module.LivePlan):
            def __init__(self, model):
                super().__init__(model)
                plans.append(self)

            def apply(self, net):
                applied.append((net, super().apply(net)))
                return applied[-1][1]

        monkeypatch.setattr(module, "LivePlan", Recording)
        model, mask, features = _signed_zero_net([2, 64, 64, 2], 23)
        predict_mc_dropout(model, mask, 0.9, 30, features(3000), substream(23, "mc"))
        (plan,) = plans
        assert plan.net is not None and plan.net.flat.size < model.flat.size  # pruned
        assert len(applied) == 30 and len({id(net) for net, _ in applied}) == 1  # one seen model
        assert all(live is plan.net for _, live in applied)
        assert len(made) == 1
        (columns, outs), = made
        assert len(outs) == 30 and all(out is columns.z for out in outs)

    @pytest.mark.parametrize("method", ["rigl", "rigl_mcdp"])
    def test_a_training_run_makes_its_test_split_buffers_once(self, made, method):
        tr, te = small_data()
        cfg = small_config(method, epochs=4, wma_start_epoch=2,
                           temperature=not METHODS[method].mc_predict)
        res = train(cfg, tr, te)
        # the run's, used by every epoch, the last included
        assert len(made) == 1
        draws = cfg.mc_samples if METHODS[method].mc_predict else 1
        assert len(made[0][1]) == 4 * draws
        # the last epoch's rows and logits are those of a prediction in fresh buffers
        if METHODS[method].mc_predict:
            fresh = predict_mc_dropout(res.model, res.mask, cfg.keep_prob, cfg.mc_samples,
                                       te.features, substream(cfg.seed, "mc.eval.4"))
            assert res.final_logits is None
        else:
            fresh, logits = Predictor(res.model, te.features).probs(res.model, keep_logits=True)
            assert res.final_logits.shape == (te.n_classes, len(te))
            assert res.final_logits.tobytes() == logits.tobytes()
            assert res.final_logits.flags.c_contiguous
        assert res.final_probs.tobytes() == fresh.tobytes()


def float64_reference(model, x):
    """The logits of a float64 dense forward of model and x, and the bound on a
    float32 forward's error against them. First order: layer l's float32 sums of
    K_l terms (bias add and rounding to float32 included) err by at most
    (K_l + 1) eps / 2 of the same sums over absolute values, which the later
    layers and ReLU do not amplify; folding a constant unit only regroups them."""
    f64 = MlpModel([w.astype(np.float64) for w in model.weights],
                   [b.astype(np.float64) for b in model.biases])
    scale = forward(MlpModel([np.abs(w) for w in f64.weights], [np.abs(b) for b in f64.biases]),
                    np.abs(x).astype(np.float64))
    tol = sum(w.shape[1] + 2 for w in model.weights) * np.finfo(np.float32).eps * scale
    return forward(f64, x.astype(np.float64)), tol


class TestLiveUnits:
    """predict_logits runs only through the hidden units that depend on the input
    and reach a logit, with the constant ones folded into the next layer's bias:
    its logits against the loop oracle, the full forward, a float64 reference,
    and the refusals."""

    def test_a_draw_that_leaves_no_unit_reaching_a_logit_gives_the_output_bias(self):
        model, mask, features = _signed_zero_net([2, 64, 64, 2], 20)
        x = features(1100)
        bias_rows = np.broadcast_to(model.biases[-1], (len(x), 2)).astype(np.float64)
        cut = MlpModel(model.weights[:-1] + [np.zeros_like(model.weights[-1])], model.biases)
        assert [w.shape for w in LivePlan(cut).apply(cut).weights] == [(0, 2), (0, 0), (2, 0)]
        got = predict_logits(cut, x)
        assert got.tobytes() == bias_rows.tobytes() == blocked_forward(cut, x).tobytes()
        probs = predict_mc_dropout(model, mask, 0.0, 1, x, substream(0, "none"))  # drops all
        assert probs.tobytes() == softmax(bias_rows).tobytes()

    def test_a_draw_that_leaves_a_hidden_layer_constant_gives_the_folded_output_bias(self):
        model, mask, features = _signed_zero_net([2, 64, 64, 2], 20)
        x = features(1100)
        cut = MlpModel([np.zeros_like(model.weights[0]), *model.weights[1:]], model.biases)
        live, oracle = LivePlan(cut).apply(cut), live_units_by_loops(cut)
        assert [w.shape for w in live.weights] == [(0, 2), (0, 0), (2, 0)]
        folded = oracle.biases[-1]
        assert live.biases[-1].tobytes() == folded.tobytes() != model.biases[-1].tobytes()
        rows = np.broadcast_to(folded, (len(x), 2)).astype(np.float64)
        got = predict_logits(cut, x)
        assert got.tobytes() == rows.tobytes()
        want, tol = float64_reference(cut, x)
        assert np.all(np.abs(got - want) <= tol)
        probs = predict_mc_dropout(cut, mask, 1.0, 1, x, substream(0, "all"))  # keeps all
        assert probs.tobytes() == softmax(rows).tobytes()

    def test_a_reaching_first_layer_unit_with_no_input_weight_is_folded(self):
        model, _, features = _signed_zero_net([2, 64, 64, 2], 15)
        w0, w1, w2 = model.weights
        reaches = (w1[(w2 != 0).any(axis=0)] != 0).any(axis=0)
        has_input = (w0 != 0).any(axis=1)
        const = np.flatnonzero(reaches & ~has_input)
        assert const.size and (model.biases[0][const] > 0).any()  # a nonzero constant
        live, oracle = LivePlan(model).apply(model), live_units_by_loops(model)
        assert live.weights[0].tobytes() == w0[reaches & has_input].tobytes()
        assert live.flat.tobytes() == oracle.flat.tobytes()
        unfolded = model.biases[1][(w1[:, has_input] != 0).any(axis=1) & (w2 != 0).any(axis=0)]
        assert unfolded.shape == live.biases[1].shape and np.any(unfolded != live.biases[1])
        x = features(1100)
        want, tol = float64_reference(model, x)
        assert np.all(np.abs(predict_logits(model, x) - want) <= tol)

    def test_a_net_with_no_constant_unit_keeps_the_reaching_widths_and_bits(self):
        model, _, features = _signed_zero_net([784, 300, 100, 10], 11)
        assert all((w != 0).any(axis=1).all() for w in model.weights)  # every unit has an input
        reach = [np.arange(10)]  # the backward scan alone, with the biases as they are
        for w in reversed(model.weights[1:]):
            reach.insert(0, np.flatnonzero((w[reach[0]] != 0).any(axis=0)))
        kept = [np.arange(784), *reach]
        reaching = MlpModel([w[np.ix_(o, i)] for w, i, o in zip(model.weights, kept, kept[1:])],
                            [b[o] for b, o in zip(model.biases, kept[1:])])
        assert reaching.flat.size < model.flat.size
        assert LivePlan(model).apply(model).flat.tobytes() == reaching.flat.tobytes()
        x = features(1024)
        assert predict_logits(model, x).tobytes() == blocked_forward(model, x, reaching).tobytes()

    @pytest.mark.parametrize("dims, sparsity", [([784, 10], 0.8), ([2, 64, 64, 2], 0.0)],
                             ids=["one-layer", "dense"])
    def test_a_net_that_keeps_every_unit_gives_the_unpruned_bits(self, dims, sparsity):
        rng = substream(18, "keep.all")
        model = init_mlp(dims, rng)
        shapes = [w.shape for w in model.weights]
        model.flat *= init_mask(shapes, build_sparsity_plan(shapes, sparsity),
                                substream(18, "keep.mask")).flat
        for b in model.biases:
            b[:] = rng.normal(0, 0.1, b.shape)
        assert LivePlan(model).apply(model) is model
        x = rng.standard_normal((1100, dims[0])).astype(np.float32)
        for n in (37, 1100):
            assert predict_logits(model, x[:n]).tobytes() == blocked_forward(model, x[:n]).tobytes()

    def test_a_float64_model_folds_in_float64(self):
        model, _, features = _signed_zero_net([2, 64, 64, 2], 19)
        f64 = MlpModel([w.astype(np.float64) for w in model.weights],
                       [b.astype(np.float64) for b in model.biases])
        live, oracle = LivePlan(f64).apply(f64), live_units_by_loops(f64)
        assert live.flat.dtype == np.float64 and live.flat.size < f64.flat.size
        assert live.flat.tobytes() == oracle.flat.tobytes()
        in_f32 = LivePlan(model).apply(model).biases[1].astype(np.float64)
        assert in_f32.shape == live.biases[1].shape and np.any(in_f32 != live.biases[1])
        x = features(1100).astype(np.float64)
        assert predict_logits(f64, x).tobytes() == blocked_forward(f64, x, oracle).tobytes()

    @pytest.mark.parametrize("n, copied", [(5000, True), (BLOCK_ACTS // 2 + 1, False)],
                             ids=["copy", "in-place"])
    def test_every_block_reads_x_in_one_copy_or_in_place_and_writes_the_call_buffers(
            self, monkeypatch, n, copied):
        # x.T is copied C-contiguous once when it fits one activation buffer, read in place above
        model, mask, features = _signed_zero_net([2, 64, 64, 2], 17)
        x = features(n)
        assert (x.size <= BLOCK_ACTS) == copied
        columns = Predictor(model, x)
        assert columns.xt.shape == (2, n) and np.shares_memory(columns.xt, x) != copied
        assert columns.xt.flags.c_contiguous == copied
        assert all(a.flags.c_contiguous and a.size == BLOCK_ACTS  # 64 * 5000 is more
                   for a in (columns.floor, *columns.acts))
        products, real = [], np.matmul
        monkeypatch.setattr(np, "matmul", lambda w, h, out: products.append((w, h, out))
                            or real(w, h, out=out))
        plan = LivePlan(model)
        live = plan.apply(model)
        step = BLOCK_ACTS // max(w.shape[0] for w in live.weights)
        assert columns.logits(model, plan) is columns.z
        assert len(products) == 3 * -(-n // step) and live.weights[0].shape[0] < 64  # pruned
        for i, (w, h, out) in enumerate(products):
            layer = i % 3
            assert w is live.weights[layer] and out.flags.c_contiguous
            assert np.shares_memory(out, columns.acts[layer % 2])
            assert np.shares_memory(h, columns.xt) if layer == 0 else h is products[i - 1][2]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), widths=st.tuples(st.integers(4, 12), st.integers(4, 12)),
           keep_prob=st.floats(0.2, 1.0))
    def test_each_draw_through_the_call_plan_is_its_unpruned_forward_within_rounding(
            self, seed, widths, keep_prob):
        rng = substream(seed, "plan.draws")
        model = init_mlp([3, *widths, 2], rng)
        w0, w1, _ = model.weights
        for w in model.weights[:-1]:  # sparse hidden layers; every hidden unit feeds a logit
            w *= rng.random(w.shape) < 0.6
        # a constant chain: c1 has no input weight, c2 weights from c1 alone, and every other
        # hidden unit has an input
        c1, c2 = (rng.choice(h, 2, replace=False) for h in widths)
        fed = np.setdiff1d(np.arange(widths[0]), c1)
        w0[fed, fed % 3] = 1.0
        w1[:, fed[0]] = 1.0
        w0[c1] = 0
        w1[c2] = 0
        w1[np.ix_(c2, c1)] = rng.normal(0, 1, (2, 2))
        for b in model.biases:
            b[:] = rng.normal(0.2, 0.5, b.shape)
        mask = DeterministicMask([w != 0 for w in model.weights],
                                 tuple(int(np.count_nonzero(w)) for w in model.weights))
        plan = LivePlan(model)
        assert (plan.const[1] == np.sort(c1)).all() and (plan.const[2] == np.sort(c2)).all()
        x = rng.standard_normal((40, 3)).astype(np.float32)
        columns, seen = Predictor(model, x), model.over(np.zeros_like(model.flat))
        w, z = model.flat[mask.positions], np.empty(mask.flat_active.size, dtype=bool)
        into = np.isin(mask.flat_active, plan.kept[1][0] * 3 + np.arange(3))
        for draw in range(6):
            sample_random_mask(mask, keep_prob, substream(seed, f"plan.z.{draw}"), out=z)
            if draw == 0:  # a draw that cuts off a unit the plan keeps
                z[into] = False
            net = masked_model(w, z, mask, seen)
            got = columns.logits(net, plan).T
            want, tol = float64_reference(net, x)
            assert np.all(np.abs(got - want) <= tol)
            assert np.all(np.abs(got - forward(net, x)) <= 2 * tol)

    @pytest.mark.parametrize("dims", [[2, 64, 64, 2], [784, 300, 100, 10]], ids=["moons", "mnist"])
    def test_pruned_logits_stay_within_float32_rounding_of_a_float64_dense_forward(self, dims):
        model, _, features = _signed_zero_net(dims, 15)
        x = features(1100)
        want, tol = float64_reference(model, x)
        assert np.all(np.abs(predict_logits(model, x) - want) <= tol)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("method", ["rigl", "rigl_mcdp"])
    @pytest.mark.parametrize("where", ["into-a-dropped-unit", "bias-of-a-dropped-unit",
                                       "into-a-kept-unit"])
    def test_a_non_finite_parameter_still_makes_evaluate_raise(self, method, where):
        model, mask, features = _signed_zero_net([2, 64, 64, 2], 16)
        dropped = np.flatnonzero(~(model.weights[-1] != 0).any(axis=0))
        kept = np.flatnonzero((model.weights[-1] != 0).any(axis=0))
        if where == "into-a-dropped-unit":
            model.weights[-2][dropped[0], 0] = np.nan
        elif where == "bias-of-a-dropped-unit":
            model.biases[-2][dropped[0]] = np.inf
        else:
            model.weights[-2][kept[0], 0] = np.nan
        data = Dataset(features(600), np.zeros(600, dtype=np.int64), 2)
        with pytest.raises(NonFiniteError, match="^non-finite parameters$"):
            evaluate(model, mask, TrainConfig(method=method, mc_samples=3), data, 1)

    @pytest.mark.parametrize("method", ["rigl", "rigl_mcdp"])
    def test_a_non_finite_bias_that_gives_finite_rows_is_refused(self, method):
        # a -inf hidden bias silences its unit through the ReLU, so the rows
        # come out finite; the model is still broken, and evaluate says so
        model = init_mlp([2, 8, 2], substream(21, "inf.bias"))
        model.biases[0][3] = -np.inf
        tr, _ = small_data()
        assert np.isfinite(softmax(forward(model, tr.features))).all()
        with pytest.raises(NonFiniteError, match="^non-finite parameters$"):
            evaluate(model, full_mask(model), TrainConfig(method=method, mc_samples=3), tr, 1)


def test_a_direct_prediction_of_a_nan_model_is_refused():
    model, mask, features = _signed_zero_net([2, 64, 64, 2], 16)
    model.flat[mask.positions[0]] = np.nan  # an active weight
    x = features(100)
    with pytest.raises(NonFiniteError, match="^non-finite parameters$"):
        Predictor(model, x).probs(model)
    with pytest.raises(NonFiniteError, match="^non-finite parameters$"):
        predict_mc_dropout(model, mask, 0.9, 3, x, substream(0, "nan.mc"))


class TestOneMaskingPath:
    """Every product of the weights and an effective mask, w * z, goes
    through masks.masked_model: the step, the topology update's bare weights,
    the WMA snapshot, each epoch's output model and each MC draw."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, original = [], masked_model

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in ("cigl.train", "cigl.predict"):  # cigl.train is the function train
            monkeypatch.setattr(sys.modules[module], "masked_model", counting)
        return calls

    @pytest.mark.parametrize("method", ["cigl", "rigl"])
    def test_one_call_per_step_with_a_random_mask(self, calls, method):
        # and one per step without one (z is None), plus one per topology update
        tr, _ = small_data()
        cfg = small_config(method)
        s = TrainState.start(cfg, tr)
        batches = list(BatchIterator(tr, cfg.batch_size, cfg.seed).epoch_batches(0))
        for xb, yb in batches:
            _sgd_iteration(s, cfg, xb, yb, 0.1, 100)
        assert len(s.update_log) > 0
        assert len(calls) == len(batches) + len(s.update_log)
        assert all(w is s.w and out is s.seen for w, _, _, out in calls)
        assert sum(z is None for _, z, _, _ in calls) == (
            len(s.update_log) if method == "cigl" else len(calls))

    @pytest.mark.parametrize("method", ["cigl", "cigl_no_rm", "rigl"])
    def test_one_call_per_due_snapshot(self, calls, method):
        tr, te = small_data()
        cfg = small_config(method, wma_start_epoch=1, wma_every=2)
        s = TrainState.start(cfg, tr)
        columns = Predictor(s.seen, te.features)
        for epoch in range(1, 6):
            before = len(calls)
            _end_epoch(s, cfg, te, epoch, 0.1, 0.0, columns)
            due = METHODS[method].wma and epoch in (3, 5)
            new = calls[before:]  # the snapshot when one is due, then the output model
            assert len(new) == due + 1
            assert all(out is s.seen for *_, out in new[:due])
            _, z, _, out = new[-1]
            assert z is None and out is not s.seen
        assert s.wma.n_models == 2 * METHODS[method].wma

    @pytest.mark.parametrize("n_samples", [1, 4])
    def test_n_samples_calls_per_mc_prediction(self, calls, n_samples):
        model, mask, features = _signed_zero_net([2, 16, 2], 14)
        predict_mc_dropout(model, mask, 0.8, n_samples, features(50), substream(14, "mc"))
        assert len(calls) == n_samples
        assert len({id(out) for *_, out in calls}) == 1  # one seen buffer per call


def test_rigl_loss_halves_in_200_fullbatch_steps_on_separable_data():
    from cigl.data import Dataset

    rng = substream(2, "blobs")
    x = np.vstack([
        rng.normal(-2.0, 0.3, (100, 2)),
        rng.normal(2.0, 0.3, (100, 2)),
    ]).astype(np.float32)
    y = np.repeat([0, 1], 100)
    data = Dataset(x, y, 2)
    cfg = small_config("rigl", epochs=200, batch_size=200, lr_milestones=(), update_interval=20)
    res = train(cfg, data, data)
    assert res.history[-1].train_loss <= 0.5 * res.history[0].train_loss


def blob_data(seed, n, n_features, n_classes):
    """Gaussian blobs around random class centres, a fresh draw per stream."""
    rng = substream(seed, "blobs")
    labels = rng.integers(0, n_classes, n)
    centres = rng.normal(0.0, 2.0, (n_classes, n_features))
    x = centres[labels] + rng.normal(0.0, 1.0, (n, n_features))
    return Dataset(x.astype(np.float32), labels, n_classes)


@st.composite
def reference_cases(draw, method):
    """A small config over every TrainConfig knob with at least one topology
    update, and blob train/test sets (at most 64 test rows through layers at most 12
    wide: one column block)."""
    n_features, n_classes = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    n_train = draw(st.integers(24, 64))
    batch_size = draw(st.integers(4, n_train // 2))
    epochs = draw(st.integers(3, 6))
    total_iters = epochs * -(-n_train // batch_size)
    update_end_fraction = draw(st.floats(0.4, 1.0))
    update_end = int(update_end_fraction * total_iters)
    hidden = tuple(draw(st.lists(st.integers(3, 12), min_size=1, max_size=3)))
    config = TrainConfig(
        method=method,
        epochs=epochs,
        batch_size=batch_size,
        seed=draw(st.integers(0, 2**16)),
        hidden=hidden,
        sparsity=draw(st.floats(0.0, 0.9)),
        sparsity_mode=draw(st.sampled_from(["uniform", "erk"])),
        mask_exclude=tuple(sorted(draw(st.sets(st.integers(0, len(hidden)), max_size=2)))),
        update_interval=draw(st.integers(1, update_end - 1)),
        update_fraction=draw(st.floats(0.0, 1.0)),
        update_end_fraction=update_end_fraction,
        keep_prob=draw(st.one_of(st.just(1.0), st.floats(0.3, 1.0))),
        wma_start_epoch=draw(st.one_of(st.none(), st.integers(0, epochs - 1))),
        wma_every=draw(st.integers(1, 3)),
        base_lr=draw(st.floats(0.01, 0.3)),
        lr_milestones=tuple(sorted(draw(st.sets(st.integers(0, 6), max_size=2)))),
        lr_decay=draw(st.floats(0.05, 0.9)),
        momentum=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.95))),
        weight_decay=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.01))),
        mc_samples=draw(st.integers(1, 4)),
        label_smoothing=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3))),
        mixup_alpha=draw(st.one_of(st.just(0.0), st.floats(0.1, 1.0))),
        n_bins=draw(st.integers(1, 20)),
    )
    data_seed = draw(st.integers(0, 2**16))
    train_data = blob_data(data_seed, n_train, n_features, n_classes)
    test_data = blob_data(data_seed + 1, draw(st.integers(8, 64)), n_features, n_classes)
    return config, train_data, test_data


def assert_matches_reference(config, train_data, test_data):
    try:
        ref = reference_train(config, train_data, test_data)
    except NonFiniteError:
        with pytest.raises(NonFiniteError, match="^training diverged at epoch "):
            train(config, train_data, test_data)
        return None
    res = train(config, train_data, test_data)
    for got, want in [(res.model.weights, ref["weights"]), (res.model.biases, ref["biases"]),
                      (res.mask.layers, ref["mask"])]:
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert [(r.train_loss, r.test_accuracy, r.test_ece) for r in res.history] == ref["history"]
    return ref


class TestReferenceTrainer:
    @pytest.mark.parametrize("method", list(METHODS))
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_train_matches_the_reference_bit_for_bit(self, method, data):
        config, train_data, test_data = data.draw(reference_cases(method))
        shapes = [(o, i) for i, o in zip([train_data.n_features, *config.hidden],
                                         [*config.hidden, train_data.n_classes])]
        plan = build_sparsity_plan(shapes, config.sparsity, config.sparsity_mode,
                                   config.mask_exclude)
        assume(all(round((1.0 - s) * o * i) >= 1 for s, (o, i) in zip(plan, shapes)))
        assert_matches_reference(config, train_data, test_data)

    # snapshots from epoch 1 while the topology moves until the last iteration
    SPANNING = TrainConfig(method="cigl", epochs=5, batch_size=10, seed=4, hidden=(8, 8),
                           sparsity=0.7, update_interval=4, update_end_fraction=1.0,
                           wma_start_epoch=0, lr_milestones=())

    def test_averaging_across_topology_updates_drops_mass_off_the_final_mask(self):
        # the mean holds weights that the final mask drops
        tr, te = blob_data(1, 60, 2, 2), blob_data(2, 40, 2, 2)
        ref = assert_matches_reference(self.SPANNING, tr, te)
        dropped = [a[~m] for a, m in zip(ref["mean"], ref["mask"])]
        assert any(np.any(d != 0) for d in dropped)

    def test_a_wma_output_is_plus_zero_off_the_final_mask(self):
        # at this seed the mean is negative at some weights the final mask
        # drops, where mean * m would be -0
        tr, te, cfg = blob_data(1, 60, 2, 2), blob_data(2, 40, 2, 2), replace(self.SPANNING, seed=6)
        ref = reference_train(cfg, tr, te)
        assert any(np.any(a[~m] < 0) for a, m in zip(ref["mean"], ref["mask"]))
        res = train(cfg, tr, te)
        assert not res.model.flat[~res.mask.flat].view(np.uint32).any()

    def test_update_end_is_a_share_of_all_iterations(self):
        # 0.7 * (3 * 10) is 21.0, but (0.7 * 3) * 10 rounds below 21
        tr, te = blob_data(3, 100, 2, 2), blob_data(4, 40, 2, 2)
        cfg = TrainConfig(method="rigl", epochs=3, batch_size=10, hidden=(6,), sparsity=0.5,
                          update_interval=5, update_end_fraction=0.7, lr_milestones=())
        assert_matches_reference(cfg, tr, te)
        assert [t for t, _ in train(cfg, tr, te).mask_update_log] == [5, 10, 15, 20]
