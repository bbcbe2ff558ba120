import copy
import sys

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
from cigl.rng import substream
from cigl.tensor import MlpModel, NonFiniteError, forward, init_mlp, softmax
from cigl.train import (
    BLOCK_ROWS,
    METHODS,
    _end_epoch,
    _sgd_iteration,
    _topology_update,
    TrainConfig,
    TrainState,
    evaluate,
    masked_model,
    predict_logits,
    predict_mc_dropout,
    reaching_units,
    train,
)

from _oracles import draw_layers, mc_dropout_enumeration, reaching_units_by_loops, reference_train


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
        res = _end_epoch(s, cfg, te, 1, 0.1, 0.0)
        assert res.history[-1].n_models_in_wma == (method == "cigl")
        live = [s.w, s.g, s.grads.flat, s.seen.flat, s.sgd.velocity, *(s.wma.means or [])]
        live += [s.z] if method == "cigl" else []
        out = res.model.weights + res.model.biases
        assert all(np.shares_memory(a, res.model.flat) for a in out)
        assert not any(np.shares_memory(a, b) for a in out + [res.model.flat] for b in live)

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
        for w, m in zip(res.model.weights, res.mask.layers):
            assert not w[~m].any()

    @pytest.mark.parametrize("method", list(METHODS))
    def test_weights_and_velocities_stay_zero_off_the_topology(self, method):
        # w and v hold only the active positions; the bare model is +0 off m,
        # and a regrown position enters its first step from +0 weight and
        # velocity: after it, v is that step's gradient and w is -lr * v
        tr, _ = small_data()
        cfg = small_config(method, update_interval=2)
        s = TrainState.start(cfg, tr)
        batches = BatchIterator(tr, cfg.batch_size, cfg.seed)
        n_regrown = 0
        for epoch in range(2):
            for xb, yb in batches.epoch_batches(epoch):
                before = s.mask
                _sgd_iteration(s, cfg, xb, yb, 0.1, 100)
                model = s.bare_model()
                assert not np.signbit(model.flat[~s.mask.flat]).any()
                assert not model.flat[~s.mask.flat].any()
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
    ])
    def test_non_finite_or_negative_knob_names_its_file_key(self, knob, key):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            TrainConfig(**knob).validate()


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
    """evaluate under a method without MC prediction: one softmax."""
    return evaluate(model, full_mask(model), TrainConfig(method="rigl"), data, 1)


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
        cfg = TrainConfig(method=method, seed=5, keep_prob=0.7, mc_samples=3, n_bins=7)
        probs, bins = evaluate(model, mask, cfg, tr, 4)
        if METHODS[method].mc_predict:
            want = predict_mc_dropout(model, mask, 0.7, 3, tr.features,
                                      substream(5, "mc.eval.4"))
        else:
            want, _ = plain_evaluate(model, tr)
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
        from cigl.tensor import forward, softmax

        tr, _ = small_data(n=1000)
        assert len(tr) <= 512
        model, mask = self._wide_model()
        probs = predict_mc_dropout(model, mask, 0.8, 7, tr.features, substream(2, "mc"))
        rng = substream(2, "mc")
        total = np.zeros_like(probs)
        for _ in range(7):
            z = draw_layers(mask, *sample_random_mask(mask, 0.8, rng))
            masked = MlpModel([w * m * zz for w, m, zz in zip(model.weights, mask.layers, z)],
                              model.biases)
            total += softmax(forward(masked, tr.features))
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


def blocked_forward(model, x, pruned=None):
    """Plain forward calls per BLOCK_ROWS rows, in float64, in the layout
    predict_logits reads: a full block through pruned (default: model), each
    weight as a contiguous copy of w.T, and a shorter one through model itself."""
    pruned = model if pruned is None else pruned
    full = [(np.ascontiguousarray(w.T), b, 0) for w, b in zip(pruned.weights, pruned.biases)]
    blocks = [x[s : s + BLOCK_ROWS] for s in range(0, len(x), BLOCK_ROWS)]
    return np.concatenate([forward(pruned, xb, full) if len(xb) == BLOCK_ROWS else
                           forward(model, xb) for xb in blocks]).astype(np.float64)


class TestReadPath:
    """The prepared blocked forward of predict_logits and predict_mc_dropout
    against plain forward calls, a full block's through an explicitly pruned
    model, and the unshared per-draw formula, in bytes."""

    @pytest.mark.parametrize("dims", [[2, 64, 64, 2], [784, 300, 100, 10]], ids=["moons", "mnist"])
    def test_predict_logits_equals_plain_forward_per_block(self, dims):
        model, _, features = _signed_zero_net(dims, 11)
        pruned = reaching_units_by_loops(model)
        assert pruned.flat.size < model.flat.size  # some hidden unit reaches no logit
        x = features(9600)
        for n in (1, 37, 511, 512, 513, 612, 9600):  # 612: a 100-row last block
            got = predict_logits(model, x[:n])
            want = blocked_forward(model, x[:n], pruned)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("keep_prob", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize("n_samples", [1, 3])
    def test_mc_dropout_equals_the_mean_of_unshared_draws(self, keep_prob, n_samples):
        model, mask, features = _signed_zero_net([2, 64, 64, 2], 12)
        x = features(1100)
        rng = substream(13, "read.mc")
        ref = copy.deepcopy(rng)
        got = predict_mc_dropout(model, mask, keep_prob, n_samples, x, rng)
        draws = []
        for _ in range(n_samples):  # a per-layer w * z in fresh arrays for every draw
            z = draw_layers(mask, *sample_random_mask(mask, keep_prob, ref))
            seen = MlpModel([w * zz for w, zz in zip(model.weights, z)], model.biases)
            draws.append(softmax(predict_logits(seen, x)))
        want = draws[0]
        for probs in draws[1:]:
            want = want + probs
        assert got.tobytes() == (want / n_samples).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestReachingUnits:
    """predict_logits drops the hidden units that reach no logit: its logits
    against the unpruned forward, a float64 reference, and the refusals."""

    def test_a_draw_that_leaves_no_unit_reaching_a_logit_gives_the_output_bias(self):
        model, mask, features = _signed_zero_net([2, 64, 64, 2], 20)
        x = features(1100)
        bias_rows = np.broadcast_to(model.biases[-1], (len(x), 2)).astype(np.float64)
        cut = MlpModel(model.weights[:-1] + [np.zeros_like(model.weights[-1])], model.biases)
        assert [w.shape for w in reaching_units(cut).weights] == [(0, 2), (0, 0), (2, 0)]
        got = predict_logits(cut, x)
        assert got.tobytes() == bias_rows.tobytes() == blocked_forward(cut, x).tobytes()
        probs = predict_mc_dropout(model, mask, 0.0, 1, x, substream(0, "none"))  # drops all
        assert probs.tobytes() == softmax(bias_rows).tobytes()

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
        assert reaching_units(model) is model
        x = rng.standard_normal((1100, dims[0])).astype(np.float32)
        for n in (37, 1100):
            assert predict_logits(model, x[:n]).tobytes() == blocked_forward(model, x[:n]).tobytes()

    def test_a_float64_model_is_pruned_in_float64(self):
        model, _, features = _signed_zero_net([2, 64, 64, 2], 19)
        f64 = MlpModel([w.astype(np.float64) for w in model.weights],
                       [b.astype(np.float64) for b in model.biases])
        pruned = reaching_units(f64)
        assert pruned.flat.dtype == np.float64 and pruned.flat.size < f64.flat.size
        x = features(1100).astype(np.float64)
        want = blocked_forward(f64, x, reaching_units_by_loops(f64))
        assert predict_logits(f64, x).tobytes() == want.tobytes()

    def test_every_operand_of_a_full_block_is_c_contiguous(self, monkeypatch):
        module = sys.modules["cigl.train"]  # cigl.train is the function train
        calls, real = [], module.forward

        def recording(model, x, plan=None):
            calls.append((x, plan))
            return real(model, x, plan)

        monkeypatch.setattr(module, "forward", recording)
        model, mask, features = _signed_zero_net([2, 64, 64, 2], 17)
        predict_mc_dropout(model, mask, 0.9, 2, features(1100), substream(0, "layout"))
        full = [(x, plan) for x, plan in calls if len(x) == BLOCK_ROWS]
        assert len(full) == 4 and all(plan[1][0].size < 64 * 64 for _, plan in full)  # pruned
        for x, plan in full:
            for operand in [x, *(op for layer in plan for op in layer)]:
                assert isinstance(operand, np.ndarray) and operand.flags.c_contiguous

    @pytest.mark.parametrize("dims", [[2, 64, 64, 2], [784, 300, 100, 10]], ids=["moons", "mnist"])
    def test_pruned_logits_stay_within_float32_rounding_of_a_float64_dense_forward(self, dims):
        model, _, features = _signed_zero_net(dims, 15)
        x = features(1100)
        f64 = MlpModel([w.astype(np.float64) for w in model.weights],
                       [b.astype(np.float64) for b in model.biases])
        want = forward(f64, x.astype(np.float64))
        # first order: layer l's float32 sums of K_l terms (bias add and rounding to
        # float32 included) err by at most (K_l + 1) eps / 2 of the same sums over
        # absolute values, which the later layers and ReLU do not amplify
        scale = forward(MlpModel([np.abs(w) for w in f64.weights], [np.abs(b) for b in f64.biases]),
                        np.abs(x).astype(np.float64))
        tol = sum(w.shape[1] + 2 for w in model.weights) * np.finfo(np.float32).eps * scale
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
        assert np.isfinite(softmax(predict_logits(model, tr.features))).all()
        with pytest.raises(NonFiniteError, match="^non-finite parameters$"):
            evaluate(model, full_mask(model), TrainConfig(method=method, mc_samples=3), tr, 1)


class TestOneMaskingPath:
    """Every product of the weights and an effective mask, w * z, goes
    through train.masked_model: the step, the topology update's bare weights,
    the WMA snapshot and each MC draw."""

    @pytest.fixture
    def calls(self, monkeypatch):
        module = sys.modules["cigl.train"]  # cigl.train is the function train
        calls, original = [], module.masked_model

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, "masked_model", counting)
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
        for epoch in range(1, 6):
            before = len(calls)
            _end_epoch(s, cfg, te, epoch, 0.1, 0.0)
            due = METHODS[method].wma and epoch in (3, 5)
            assert len(calls) - before == due
        assert s.wma.n_models == 2 * METHODS[method].wma
        assert all(out is s.seen for *_, out in calls)

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
    update, and blob train/test sets (under 512 test rows, one forward block)."""
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

    def test_averaging_across_topology_updates_drops_mass_off_the_final_mask(self):
        # snapshots from epoch 1 while the topology moves until the last
        # iteration: the mean holds weights that the final mask drops
        tr, te = blob_data(1, 60, 2, 2), blob_data(2, 40, 2, 2)
        cfg = TrainConfig(method="cigl", epochs=5, batch_size=10, seed=4, hidden=(8, 8),
                          sparsity=0.7, update_interval=4, update_end_fraction=1.0,
                          wma_start_epoch=0, lr_milestones=())
        ref = assert_matches_reference(cfg, tr, te)
        dropped = [a[~m] for a, m in zip(ref["mean"], ref["mask"])]
        assert any(np.any(d != 0) for d in dropped)

    def test_update_end_is_a_share_of_all_iterations(self):
        # 0.7 * (3 * 10) is 21.0, but (0.7 * 3) * 10 rounds below 21
        tr, te = blob_data(3, 100, 2, 2), blob_data(4, 40, 2, 2)
        cfg = TrainConfig(method="rigl", epochs=3, batch_size=10, hidden=(6,), sparsity=0.5,
                          update_interval=5, update_end_fraction=0.7, lr_milestones=())
        assert_matches_reference(cfg, tr, te)
        assert [t for t, _ in train(cfg, tr, te).mask_update_log] == [5, 10, 15, 20]
