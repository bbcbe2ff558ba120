import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cigl.rng import substream
from cigl.tensor import (
    MlpModel,
    NonFiniteError,
    SgdState,
    ShapeError,
    backward,
    forward,
    init_mlp,
    sgd_step,
    softmax,
    softmax_cross_entropy,
    softmax_inplace,
)

from cigl.config import ConfigError
from cigl.train import TrainConfig

from _oracles import finite_difference_grads, max_relative_error


def _f32(*rows):
    return np.asarray(rows, dtype=np.float32)


def _one_hot(labels, k):
    out = np.zeros((len(labels), k), dtype=np.float32)
    out[np.arange(len(labels)), labels] = 1.0
    return out


class TestForward:
    def test_zero_model_emits_zero_logits(self):
        model = MlpModel([np.zeros((3, 5), np.float32)], [np.zeros(3, np.float32)])
        x = np.ones((4, 5), dtype=np.float32)
        assert np.all(forward(model, x) == 0.0)

    def test_single_linear_layer_is_identity_map(self):
        model = MlpModel([np.eye(2, dtype=np.float32)], [np.zeros(2, np.float32)])
        out = forward(model, _f32([1.0, -1.0]))
        np.testing.assert_array_equal(out, _f32([1.0, -1.0]))

    def test_hidden_relu_clamps_negative_preactivations(self):
        eye = np.eye(2, dtype=np.float32)
        model = MlpModel([eye.copy(), eye.copy()], [np.zeros(2, np.float32)] * 2)
        out = forward(model, _f32([1.0, -1.0]))
        np.testing.assert_array_equal(out, _f32([1.0, 0.0]))

    def test_output_shape_propagation(self):
        rng = substream(7, "t")
        model = init_mlp([5, 8, 8, 3], rng)
        assert forward(model, rng.standard_normal((4, 5)).astype(np.float32)).shape == (4, 3)

    def test_shape_mismatch_names_layer(self):
        model = MlpModel([np.zeros((3, 5), np.float32)], [np.zeros(3, np.float32)])
        with pytest.raises(ShapeError, match="layer 0"):
            forward(model, np.ones((2, 4), dtype=np.float32))

    @pytest.mark.parametrize("weights, biases, message", [
        ([(3, 5), (2, 4)], [3, 2], r"^layer 1: weight is \(2, 4\), expected input dim 3$"),
        ([(3, 5), (2, 3)], [3, 3], r"^layer 1: bias is \(3,\), expected \(2,\)$"),
        ([(3, 5)], [4], r"^layer 0: bias is \(4,\), expected \(3,\)$"),
        ([(3, 5), (2, 3)], [3], r"^layer 1: 2 weights vs 1 biases$"),
        ([(3, 5)], [3, 2], r"^layer 1: 1 weights vs 2 biases$"),
        ([(15,)], [3], r"^layer 0: weight is \(15,\), expected \[out, in\]$"),
        ([], [], r"^layer 0: 0 weights vs 0 biases$"),
    ], ids=["unchained-weights", "wrong-bias", "wrong-first-bias", "missing-bias",
            "extra-bias", "rank-1-weight", "no-layers"])
    def test_malformed_layers_are_refused_naming_the_layer(self, weights, biases, message):
        with pytest.raises(ShapeError, match=message):
            MlpModel([np.zeros(s, np.float32) for s in weights],
                     [np.zeros(n, np.float32) for n in biases])

    @pytest.mark.parametrize("shape", [(5,), (2, 5, 1)])
    def test_input_of_the_wrong_rank_names_layer_0(self, shape):
        model = MlpModel([np.zeros((3, 5), np.float32)], [np.zeros(3, np.float32)])
        with pytest.raises(ShapeError, match=r"^layer 0: input is .*, weight is \(3, 5\)$"):
            forward(model, np.ones(shape, dtype=np.float32))

    def test_matches_out_of_place_reference_bit_for_bit(self):
        rng = substream(8, "t")
        model = init_mlp([3, 16, 16, 4], rng)
        for b in model.biases:
            b[:] = rng.normal(0, 0.5, b.shape)
        x = rng.standard_normal((37, 3)).astype(np.float32)
        x_before = x.copy()
        h = x
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            h = h @ w.T + b
            if i != model.n_layers - 1:
                h = np.maximum(h, 0)
        np.testing.assert_array_equal(forward(model, x), h)
        np.testing.assert_array_equal(x, x_before)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_one_hot_gives_log_k(self):
        logits = np.zeros((6, 10), dtype=np.float32)
        targets = _one_hot(np.arange(6) % 10, 10)
        loss, _ = softmax_cross_entropy(logits, targets)
        assert loss == pytest.approx(math.log(10.0), rel=1e-12)

    def test_two_class_hand_value(self):
        loss, _ = softmax_cross_entropy(_f32([1.0, 0.0]), _f32([1.0, 0.0]))
        assert loss == pytest.approx(math.log(1.0 + math.exp(-1.0)), rel=1e-9)
        assert loss == pytest.approx(0.313262, abs=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_logits_raise_a_typed_value_error(self, bad):
        with pytest.raises(NonFiniteError, match="non-finite logits") as err:
            softmax_cross_entropy(_f32([bad, 0.0]), _f32([1.0, 0.0]))
        assert isinstance(err.value, ValueError)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_dlogits_rows_sum_to_zero(self, seed, batch, k):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 3, (batch, k)).astype(np.float32)
        targets = label_rows(rng, batch, k)
        _, dlogits = softmax_cross_entropy(logits, targets)
        assert np.max(np.abs(dlogits.sum(axis=1))) < 1e-6


def label_rows(rng, batch, k):
    raw = rng.random((batch, k)).astype(np.float64) + 1e-3
    return (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)


def _sample_margin_instance(seed, h=1e-3):
    """Random small model/batch whose hidden pre-activations stay away from
    the ReLU kink, so central differences are a valid oracle."""
    rng = substream(seed, "gradcheck")
    for _ in range(200):
        dims = [int(rng.integers(2, 6))]
        for _ in range(int(rng.integers(1, 3))):
            dims.append(int(rng.integers(2, 17)))
        dims.append(int(rng.integers(2, 5)))
        model = init_mlp(dims, rng, dtype=np.float64)
        x = rng.normal(0, 1, (int(rng.integers(2, 9)), dims[0]))
        labels = rng.integers(0, dims[-1], len(x))
        targets = np.zeros((len(x), dims[-1]))
        targets[np.arange(len(x)), labels] = 1.0
        margin = np.inf
        hcur = x
        for i in range(len(model.weights) - 1):
            z = hcur @ model.weights[i].T + model.biases[i]
            margin = min(margin, float(np.min(np.abs(z))))
            hcur = np.maximum(z, 0)
        if margin > 20 * h:
            return model, x, targets
    raise AssertionError("could not sample a kink-free instance")


def _data_loss(model, x, targets):
    return softmax_cross_entropy(forward(model, x), targets)[0]


class TestBackward:
    def test_zero_input_zeroes_first_layer_weight_grads(self):
        rng = substream(3, "t")
        model = init_mlp([4, 6, 3], rng, dtype=np.float64)
        x = np.zeros((5, 4))
        targets = np.tile(np.eye(3)[0], (5, 1))
        _, gw, gb = backward(model, x, targets)
        assert np.all(gw[0] == 0.0)
        assert np.any(gb[-1] != 0.0)

    def test_matches_finite_differences_on_small_model(self):
        model, x, targets = _sample_margin_instance(seed=12)
        _, gw, gb = backward(model, x, targets)
        fw, fb = finite_difference_grads(model, x, targets, _data_loss, h=1e-3)
        assert max_relative_error(gw + gb, fw + fb) < 1e-4

    def test_duplicated_sample_equals_deduplicated_batch(self):
        rng = substream(9, "t")
        model = init_mlp([3, 5, 2], rng, dtype=np.float64)
        x = rng.normal(0, 1, (1, 3))
        t = np.array([[1.0, 0.0]])
        _, gw1, gb1 = backward(model, x, t)
        _, gw2, gb2 = backward(model, np.vstack([x, x]), np.vstack([t, t]))
        for a, b in zip(gw1 + gb1, gw2 + gb2):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


class TestSgd:
    def _model(self, w0):
        return MlpModel([np.array([[w0]], dtype=np.float32)], [np.zeros(1, np.float32)])

    def test_vanilla_sgd_without_momentum(self):
        model = self._model(1.0)
        state = SgdState.for_model(model, momentum=0.0, weight_decay=0.0)
        sgd_step(model, [np.array([[0.5]], np.float32)], [np.zeros(1, np.float32)], state, lr=0.1)
        assert model.weights[0][0, 0] == pytest.approx(0.95, abs=1e-7)

    def test_zero_gradient_is_fixed_point(self):
        model = self._model(2.0)
        state = SgdState.for_model(model, momentum=0.0, weight_decay=0.0)
        sgd_step(model, [np.zeros((1, 1), np.float32)], [np.zeros(1, np.float32)], state, lr=0.1)
        assert model.weights[0][0, 0] == 2.0

    def test_two_momentum_steps_hand_iteration(self):
        model = self._model(0.0)
        state = SgdState.for_model(model, momentum=0.9, weight_decay=0.0)
        g = [np.ones((1, 1), np.float32)]
        zb = [np.zeros(1, np.float32)]
        sgd_step(model, g, zb, state, lr=1.0)
        assert model.weights[0][0, 0] == pytest.approx(-1.0)
        sgd_step(model, g, zb, state, lr=1.0)
        assert model.weights[0][0, 0] == pytest.approx(-2.9)

    def test_decay_applies_to_weights_not_biases(self):
        model = MlpModel([np.ones((1, 1), np.float32)], [np.ones(1, np.float32)])
        state = SgdState.for_model(model, momentum=0.0, weight_decay=0.5)
        sgd_step(model, [np.zeros((1, 1), np.float32)], [np.zeros(1, np.float32)], state, lr=1.0)
        assert model.weights[0][0, 0] == pytest.approx(0.5)
        assert model.biases[0][0] == 1.0


    def test_in_place_update_matches_out_of_place_formula(self):
        rng = np.random.default_rng(3)
        model = init_mlp([6, 5, 3], rng)
        state = SgdState.for_model(model, momentum=0.9, weight_decay=5e-4)
        ref_w, ref_b = [w.copy() for w in model.weights], [b.copy() for b in model.biases]
        ref_vw = [np.zeros_like(w) for w in ref_w]
        ref_vb = [np.zeros_like(b) for b in ref_b]
        ids = [id(v) for v in state.velocity_w + state.velocity_b]
        for step in range(6):
            gw = [rng.normal(0, 1, w.shape).astype(np.float32) for w in ref_w]
            gb = [rng.normal(0, 1, b.shape).astype(np.float32) for b in ref_b]
            if step == 3:  # regrowth zeroes the velocity of newly active positions
                for v in state.velocity_w + ref_vw:
                    v[0, :2] = 0.0
            sgd_step(model, gw, gb, state, lr=0.05)
            for i, (w, g) in enumerate(zip(ref_w, gw)):
                ref_vw[i] = 0.9 * ref_vw[i] + g + 5e-4 * w
                w -= 0.05 * ref_vw[i]
            for i, (b, g) in enumerate(zip(ref_b, gb)):
                ref_vb[i] = 0.9 * ref_vb[i] + g
                b -= 0.05 * ref_vb[i]
            for got, want in zip(model.weights + model.biases + state.velocity_w + state.velocity_b,
                                 ref_w + ref_b + ref_vw + ref_vb):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert [id(v) for v in state.velocity_w + state.velocity_b] == ids


class TestSoftmax:
    def test_in_place_matches_out_of_place_formula(self):
        z = np.random.default_rng(1).normal(0, 30, (50, 7))
        shifted = z - z.max(axis=1, keepdims=True)
        want = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        buf = z.copy()
        assert softmax_inplace(buf) is buf
        assert buf.tobytes() == want.tobytes()
        assert softmax(z).tobytes() == want.tobytes()

    def test_input_logits_untouched(self):
        logits = _f32([1.0, 2.0, 3.0])
        probs = softmax(logits)
        assert probs.dtype == np.float64 and np.array_equal(logits, _f32([1.0, 2.0, 3.0]))


class TestLrSchedule:
    config = TrainConfig(base_lr=0.1, lr_milestones=(100, 150), lr_decay=0.1)

    def test_before_first_milestone(self):
        assert self.config.lr_at(50) == pytest.approx(0.1)

    def test_after_one_milestone(self):
        assert self.config.lr_at(120) == pytest.approx(0.01)

    def test_after_all_milestones(self):
        assert self.config.lr_at(200) == pytest.approx(0.001)

    def test_milestone_epoch_counts_itself(self):
        assert self.config.lr_at(100) == pytest.approx(0.01)

    @given(
        st.floats(1e-4, 10.0),
        st.lists(st.integers(0, 500), unique=True, max_size=5),
        st.floats(0.05, 0.95),
        st.integers(0, 600),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_increasing_in_epoch(self, base, milestones, decay, epoch):
        config = TrainConfig(base_lr=base, lr_milestones=tuple(sorted(milestones)), lr_decay=decay)
        config.validate()
        assert config.lr_at(epoch + 1) <= config.lr_at(epoch) + 1e-18

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ConfigError, match=r"^train\.base_lr: "):
            TrainConfig(base_lr=0.0, lr_milestones=(), lr_decay=0.1).validate()
        with pytest.raises(ConfigError, match=r"^train\.lr_milestones: "):
            TrainConfig(base_lr=0.1, lr_milestones=(5, 5), lr_decay=0.1).validate()
        with pytest.raises(ConfigError, match=r"^train\.lr_decay: "):
            TrainConfig(base_lr=0.1, lr_milestones=(), lr_decay=1.5).validate()


def test_deterministic_init_and_steps():
    def run():
        rng = substream(11, "init.weights")
        model = init_mlp([4, 8, 2], rng)
        state = SgdState.for_model(model, 0.9, 1e-4)
        data_rng = substream(11, "data")
        x = data_rng.normal(0, 1, (16, 4)).astype(np.float32)
        targets = _one_hot(data_rng.integers(0, 2, 16), 2)
        for _ in range(30):
            _, gw, gb = backward(model, x, targets)
            sgd_step(model, gw, gb, state, lr=0.05)
        return model

    a, b = run(), run()
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        assert wa.tobytes() == wb.tobytes()


def test_loss_halves_on_separable_data():
    rng = substream(5, "smoke")
    x = np.vstack([
        rng.normal(-2.0, 0.3, (40, 2)),
        rng.normal(2.0, 0.3, (40, 2)),
    ]).astype(np.float32)
    targets = _one_hot(np.repeat([0, 1], 40), 2)
    model = init_mlp([2, 8, 2], substream(5, "init.weights"))
    state = SgdState.for_model(model, 0.9, 0.0)
    first, _, _ = backward(model, x, targets)
    for _ in range(200):
        _, gw, gb = backward(model, x, targets)
        sgd_step(model, gw, gb, state, lr=0.05)
    last, _, _ = backward(model, x, targets)
    assert last <= 0.5 * first
