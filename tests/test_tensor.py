import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cigl import calibration, tensor
from cigl.rng import substream
from cigl.tensor import (
    FOLD_COLS,
    MlpModel,
    NonFiniteError,
    SgdState,
    ShapeError,
    backward,
    forward,
    init_mlp,
    row_argmax,
    row_max,
    row_sum,
    sgd_step,
    softmax,
    softmax_columns,
    softmax_cross_entropy,
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

    def test_model_built_from_arrays_copies_them_into_one_buffer_in_layer_order(self):
        rng = substream(8, "t")
        arrays = [rng.normal(0, 1, s).astype(np.float32) for s in [(4, 3), (2, 4), (4,), (2,)]]
        model = MlpModel(arrays[:2], arrays[2:])
        assert model.flat.size == 12 + 8 + 4 + 2
        assert model.flat.tobytes() == b"".join(a.tobytes() for a in arrays)
        for a, b in zip(arrays, model.weights + model.biases):
            assert a.tobytes() == b.tobytes() and np.shares_memory(b, model.flat)
            assert not np.shares_memory(a, model.flat)
        model.flat[:12] = 7.0
        assert np.all(model.weights[0] == 7.0) and not np.any(model.weights[1] == 7.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_model_built_from_arrays_keeps_their_dtype_and_not_their_memory(self, dtype):
        w, b = np.full((2, 3), 1.5, dtype), np.full(2, -0.5, dtype)
        model = MlpModel([w], [b])
        assert model.flat.dtype == dtype
        assert all(a.dtype == dtype for a in model.weights + model.biases)
        w[:], b[:] = 9.0, 9.0
        assert np.all(model.weights[0] == 1.5) and np.all(model.biases[0] == -0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_model_is_packed(self, dtype):
        model = init_mlp([3, 4, 2], substream(8, "t"), dtype=dtype)
        assert model.flat.dtype == dtype
        assert all(np.shares_memory(a, model.flat) for a in model.weights + model.biases)
        _, gw, gb = backward(model, np.ones((5, 3), dtype), np.full((5, 2), 0.5, dtype))
        buffer = gw[0].base  # without out, backward allocates one buffer like model.flat
        assert buffer.shape == model.flat.shape and buffer.dtype == dtype
        assert all(np.shares_memory(a, buffer) for a in gw + gb)


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

    @pytest.mark.parametrize("dims", [[2, 64, 64, 2], [20, 48, 10], [784, 300, 100, 10]])
    def test_writing_into_packed_views_gives_the_allocating_bytes(self, dims):
        rng = substream(13, "t")
        model = init_mlp(dims, rng)
        x = rng.standard_normal((37, dims[0])).astype(np.float32)
        targets = label_rows(rng, 37, dims[-1])
        loss, gw, gb = backward(model, x, targets)
        grads = model.over(np.full_like(model.flat, np.nan))
        got_loss, got_w, got_b = backward(model, x, targets, out=grads)
        assert got_loss == loss
        assert got_w is grads.weights and got_b is grads.biases
        for want, got in zip(gw + gb, got_w + got_b):
            assert want.dtype == got.dtype and want.tobytes() == got.tobytes()
        assert grads.flat.tobytes() == _flat(gw + gb).tobytes()


def _flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def sgd_state(model, momentum, weight_decay):
    """Zero velocities over a packed model's flat buffer, its weights decayed."""
    return SgdState(np.zeros_like(model.flat), sum(w.size for w in model.weights), momentum,
                    weight_decay)


class TestSgd:
    """sgd_step works on the flat buffers of a packed model: here one weight,
    then one bias."""

    def _model(self, w0):
        return MlpModel([np.array([[w0]], dtype=np.float32)], [np.zeros(1, np.float32)])

    def test_vanilla_sgd_without_momentum(self):
        model = self._model(1.0)
        state = sgd_state(model, momentum=0.0, weight_decay=0.0)
        sgd_step(model.flat, _f32(0.5, 0.0), state, lr=0.1)
        assert model.weights[0][0, 0] == pytest.approx(0.95, abs=1e-7)

    def test_zero_gradient_is_fixed_point(self):
        model = self._model(2.0)
        state = sgd_state(model, momentum=0.0, weight_decay=0.0)
        sgd_step(model.flat, _f32(0.0, 0.0), state, lr=0.1)
        assert model.weights[0][0, 0] == 2.0

    def test_two_momentum_steps_hand_iteration(self):
        model = self._model(0.0)
        state = sgd_state(model, momentum=0.9, weight_decay=0.0)
        g = _f32(1.0, 0.0)
        sgd_step(model.flat, g, state, lr=1.0)
        assert model.weights[0][0, 0] == pytest.approx(-1.0)
        sgd_step(model.flat, g, state, lr=1.0)
        assert model.weights[0][0, 0] == pytest.approx(-2.9)

    def test_decay_applies_to_weights_not_biases(self):
        model = MlpModel([np.ones((1, 1), np.float32)], [np.ones(1, np.float32)])
        state = sgd_state(model, momentum=0.0, weight_decay=0.5)
        sgd_step(model.flat, _f32(0.0, 0.0), state, lr=1.0)
        assert model.weights[0][0, 0] == pytest.approx(0.5)
        assert model.biases[0][0] == 1.0

    def _assert_matches_per_layer_formula(self, model, grad_steps, regrow_at=None):
        """Run flat sgd_step on the packed model and the out-of-place per-layer
        expression on copies; weights, biases and velocities must match in bytes."""
        state = sgd_state(model, momentum=0.9, weight_decay=5e-4)
        velocity = model.over(state.velocity)
        ref_w, ref_b = [w.copy() for w in model.weights], [b.copy() for b in model.biases]
        ref_vw = [np.zeros_like(w) for w in ref_w]
        ref_vb = [np.zeros_like(b) for b in ref_b]
        buffer = state.velocity
        for step, (gw, gb) in enumerate(grad_steps):
            if step == regrow_at:  # regrowth zeroes the velocity of newly active positions
                for v in velocity.weights + ref_vw:
                    v[0, :2] = 0.0
            sgd_step(model.flat, _flat(gw + gb), state, lr=0.05)
            for i, (w, g) in enumerate(zip(ref_w, gw)):
                ref_vw[i] = 0.9 * ref_vw[i] + g + 5e-4 * w
                w -= 0.05 * ref_vw[i]
            for i, (b, g) in enumerate(zip(ref_b, gb)):
                ref_vb[i] = 0.9 * ref_vb[i] + g
                b -= 0.05 * ref_vb[i]
            for got, want in zip(model.weights + model.biases + velocity.weights + velocity.biases,
                                 ref_w + ref_b + ref_vw + ref_vb):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert state.velocity is buffer and velocity.flat is buffer

    def test_in_place_update_matches_out_of_place_formula(self):
        rng = np.random.default_rng(3)
        model = init_mlp([6, 5, 3], rng)
        shapes = [a.shape for a in model.weights + model.biases]
        steps = []
        for _ in range(6):
            g = [rng.normal(0, 1, shape).astype(np.float32) for shape in shapes]
            steps.append((g[:2], g[2:]))
        self._assert_matches_per_layer_formula(model, steps, regrow_at=3)

    def test_flat_step_keeps_signed_zeros_and_leaves_biases_undecayed(self):
        # Masked weights and gradients are zeros of either sign; a step with a
        # zero gradient and no velocity leaves the sign of a zero weight as it is.
        rng = np.random.default_rng(4)
        model = init_mlp([6, 5, 3], rng)
        model.weights[0][:, :2] = -0.0
        model.weights[1][1] = 0.0
        model.biases[0][:] = [-0.0, 0.0, 1.0, -1.0, -0.0]
        steps = []
        for _ in range(3):
            g = [rng.normal(0, 1, a.shape).astype(np.float32) for a in model.weights + model.biases]
            g[0][:, :2] = -0.0
            g[1][1] = 0.0
            g[2][:2] = [-0.0, 0.0]
            steps.append((g[:2], g[2:]))
        self._assert_matches_per_layer_formula(model, steps)
        assert np.signbit(model.weights[0][:, :2]).all() and not np.signbit(model.weights[1][1]).any()
        assert np.signbit(model.biases[0][:2]).tolist() == [True, False]


class TestSoftmax:
    @pytest.mark.parametrize("k", [7, 10])  # row_max and row_sum fold below FOLD_COLS
    def test_matches_the_broadcast_formula(self, k):
        z = np.random.default_rng(1).normal(0, 30, (50, k))
        shifted = z - z.max(axis=1, keepdims=True)
        want = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        assert softmax(z).tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 10])
    def test_columns_fold_the_rows_in_order(self, k):
        z = np.random.default_rng(k).normal(0, 30, (k, 300))
        top = functools.reduce(np.maximum, z)
        e = np.exp(z - top)
        want = e / functools.reduce(np.add, e)  # left to right, where a row sum is pairwise
        buf = z.copy()
        assert softmax_columns(buf) is buf and buf.tobytes() == want.tobytes()
        if k < FOLD_COLS:  # a row sum of fewer terms folds left to right too
            assert buf.tobytes() == np.ascontiguousarray(softmax(z.T).T).tobytes()

    def test_input_logits_untouched(self):
        logits = _f32([1.0, 2.0, 3.0])
        probs = softmax(logits)
        assert probs.dtype == np.float64 and np.array_equal(logits, _f32([1.0, 2.0, 3.0]))


def _tied_large_logits(k, rng):
    """Rows with ties, logits up to 1e4 in size, and exactly tied rows."""
    spread = rng.normal(0, 1, (300, k)) * 10.0 ** rng.integers(-2, 5, (300, k))
    ties = np.round(rng.normal(0, 2, (200, k)))
    return np.concatenate([spread, ties, np.full((3, k), 7.5), np.full((3, k), -1e4)])


def _broadcast_loss(logits, targets):
    """softmax_cross_entropy as plain broadcasts and axis reductions."""
    z = logits.astype(np.float64)
    zmax = z.max(axis=1)
    ez = np.exp(z - zmax[:, None])
    denom = ez.sum(axis=1)
    t64 = targets.astype(np.float64)
    loss = float(np.add.reduce(np.log(denom) + zmax - (t64 * z).sum(axis=1)) / len(z))
    return loss, ((ez / denom[:, None] - t64) / len(z)).astype(logits.dtype)


class TestColumnFold:
    """softmax's subtract and divide and the row reductions of softmax and the
    loss fold narrow rows column by column: the same bytes as the broadcast
    formulas, for widths on both sides of FOLD_COLS."""

    @pytest.mark.parametrize("k", [*range(1, 10), 12])
    def test_softmax_matches_the_broadcast_formula(self, k):
        rng = np.random.default_rng(k)
        z = _tied_large_logits(k, rng)
        holes = z[:100]
        holes[rng.random(holes.shape) < 0.3] = -np.inf
        z[-1] = -np.inf  # a row of -inf only: NaN, both ways
        with np.errstate(invalid="ignore"):
            shifted = z - z.max(axis=1)[:, None]
            want = np.exp(shifted) / np.exp(shifted).sum(axis=1)[:, None]
            assert softmax(z).tobytes() == want.tobytes()
        assert np.isinf(z[:100]).any() and np.isfinite(softmax(z[100:-1])).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [*range(1, 10), 12])
    def test_loss_matches_the_broadcast_formula(self, k, dtype):
        rng = np.random.default_rng(k)
        logits = _tied_large_logits(k, rng).astype(dtype)
        targets = label_rows(rng, len(logits), k)
        loss, dlogits = softmax_cross_entropy(logits, targets)
        want_loss, want_d = _broadcast_loss(logits, targets)
        assert loss.hex() == want_loss.hex()
        assert dlogits.dtype == dtype and dlogits.tobytes() == want_d.tobytes()


def _awkward_rows(k, dtype):
    """Rows whose reductions depend on order and on special values: magnitudes
    from 1e-8 to 1e8, +-inf, NaN, ties, +-0 mixes and an all -0 row."""
    rng = np.random.default_rng(k)
    spread = rng.normal(0, 1, (2000, k)) * 10.0 ** rng.integers(-8, 9, (2000, k))
    special = rng.choice([np.inf, -np.inf, np.nan, 0.0, -0.0, 1.5, -1.5], (500, k))
    ties = np.round(rng.normal(0, 1, (300, k)))
    zeros = rng.choice([0.0, -0.0], (100, k))
    return np.concatenate([spread, special, ties, zeros, np.full((1, k), -0.0)]).astype(dtype)


AXIS_REDUCTIONS = {
    "row_max": lambda a: a.max(axis=1),
    "row_sum": lambda a, dtype=None: a.sum(axis=1, dtype=dtype),
    "row_argmax": lambda a: a.argmax(axis=1),
}


class TestRowReductions:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_folds_match_the_axis_reductions_bit_for_bit(self, k, dtype):
        a = _awkward_rows(k, dtype)
        with np.errstate(invalid="ignore", over="ignore"):
            pairs = [
                (row_max(a), a.max(axis=1)),
                (row_sum(a), a.sum(axis=1)),
                (row_sum(a, dtype=np.float64), a.sum(axis=1, dtype=np.float64)),
                (row_argmax(a), a.argmax(axis=1)),
            ]
        for got, want in pairs:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [2, 10])
    def test_callers_equal_an_axis_reduction_reference_bit_for_bit(self, k, monkeypatch):
        rng = np.random.default_rng(k)
        logits = rng.normal(0, 3, (500, k)).astype(np.float32)
        labels = rng.integers(0, k, 500)
        targets = label_rows(rng, 500, k)

        def outputs():
            probs = softmax(logits)
            loss, dlogits = softmax_cross_entropy(logits, targets)
            return [probs.tobytes(), loss.hex(), dlogits.tobytes(),
                    repr(calibration.reliability_bins(probs, labels, 15)),
                    calibration.fit_temperature(logits, labels).hex()]

        folded = outputs()
        for module in (tensor, calibration):
            for name, reduce in AXIS_REDUCTIONS.items():
                monkeypatch.setattr(module, name, reduce)
        assert outputs() == folded


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
        state = sgd_state(model, 0.9, 1e-4)
        grads = model.over(np.empty_like(model.flat))
        data_rng = substream(11, "data")
        x = data_rng.normal(0, 1, (16, 4)).astype(np.float32)
        targets = _one_hot(data_rng.integers(0, 2, 16), 2)
        for _ in range(30):
            backward(model, x, targets, out=grads)
            sgd_step(model.flat, grads.flat, state, lr=0.05)
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
    state = sgd_state(model, 0.9, 0.0)
    first, _, _ = backward(model, x, targets)
    for _ in range(200):
        _, gw, gb = backward(model, x, targets)
        sgd_step(model.flat, _flat(gw + gb), state, lr=0.05)
    last, _, _ = backward(model, x, targets)
    assert last <= 0.5 * first
