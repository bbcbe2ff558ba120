import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cigl.masks import (
    DeterministicMask,
    WmaAccumulator,
    build_sparsity_plan,
    erk_allocate,
    init_mask,
    mask_update_fraction,
    sample_random_mask,
    update_deterministic_mask,
    wma_update,
)
from cigl.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from cigl.rng import substream
from cigl.runner import model_from_checkpoint
from cigl.tensor import MlpModel
from cigl.train import masked_model

from _oracles import draw_layers, prune_regrow_bruteforce


class TestInitMask:
    def test_five_percent_density_keeps_exactly_five_of_hundred(self):
        plan = build_sparsity_plan([(10, 10)], 0.95)
        mask = init_mask([(10, 10)], plan, substream(0, "mask.init"))
        assert mask.nnz() == (5,)

    def test_zero_sparsity_gives_all_ones(self):
        plan = build_sparsity_plan([(4, 6)], 0.0)
        mask = init_mask([(4, 6)], plan, substream(0, "mask.init"))
        assert np.all(mask.layers[0])

    def test_seed_reproducibility(self):
        plan = build_sparsity_plan([(16, 16), (8, 16)], 0.9)
        a = init_mask([(16, 16), (8, 16)], plan, substream(42, "mask.init"))
        b = init_mask([(16, 16), (8, 16)], plan, substream(42, "mask.init"))
        c = init_mask([(16, 16), (8, 16)], plan, substream(43, "mask.init"))
        assert all(np.array_equal(x, y) for x, y in zip(a.layers, b.layers))
        assert any(not np.array_equal(x, y) for x, y in zip(a.layers, c.layers))

    def test_empty_layer_is_an_error(self):
        with pytest.raises(ValueError, match="no active weights"):
            init_mask([(2, 2)], (0.999,), substream(0, "mask.init"))


class TestErkAllocate:
    def test_single_layer_collapses_to_global(self):
        assert erk_allocate([(10, 10)], 0.9) == [0.9]

    def test_two_layer_budget_and_ordering(self):
        sparsities = erk_allocate([(10, 10), (100, 100)], 0.9)
        densities = [1.0 - s for s in sparsities]
        nnz = [round(d * n) for d, n in zip(densities, [100, 10000])]
        assert sum(nnz) == round(0.1 * 10100) == 1010
        assert densities[0] > densities[1]
        # density ratio must follow the (n_in+n_out)/(n_in*n_out) weights
        assert densities[0] / densities[1] == pytest.approx((20 / 100) / (200 / 10000), rel=1e-9)

    def test_zero_sparsity_is_dense_everywhere(self):
        assert erk_allocate([(3, 4), (7, 2)], 0.0) == [0.0, 0.0]

    def test_clipping_redistributes_budget(self):
        # tiny first layer saturates at density 1; budget still matched
        sparsities = erk_allocate([(2, 2), (64, 64)], 0.5)
        densities = [1.0 - s for s in sparsities]
        assert densities[0] == 1.0
        total = sum(d * n for d, n in zip(densities, [4, 4096]))
        assert total == pytest.approx(0.5 * 4100, abs=1.0)


class TestRandomMask:
    def _mask(self, shape=(100, 100), sparsity=0.0, seed=0):
        plan = build_sparsity_plan([shape], sparsity)
        return init_mask([shape], plan, substream(seed, "mask.init"))

    def test_keep_prob_one_reproduces_topology(self):
        mask = self._mask(sparsity=0.9)
        (z,) = sample_random_mask(mask, 1.0, substream(0, "mask.random"))
        assert z.all() and np.array_equal(draw_layers(mask, z)[0], mask.layers[0])

    def test_keep_prob_zero_gives_empty_mask(self):
        mask = self._mask(sparsity=0.5)
        z = sample_random_mask(mask, 0.0, substream(0, "mask.random"))
        assert not z[0].any()

    def test_keep_fraction_concentrates(self):
        mask = self._mask()  # dense topology: 10,000 active entries
        z = sample_random_mask(mask, 0.9, substream(1, "mask.random"))
        frac = z[0].sum() / 10000.0
        assert 0.88 <= frac <= 0.92

    def test_inactive_positions_stay_zero(self):
        # the draw is compact: one bool per active weight, none for the others
        mask = self._mask(sparsity=0.7)
        (z,) = sample_random_mask(mask, 0.9, substream(2, "mask.random"))
        assert z.dtype == bool and z.shape == (mask.nnz()[0],) == mask.flat_active.shape
        assert not draw_layers(mask, z)[0][~mask.layers[0]].any()


def _reference_random_mask(mask, keep_prob, rng):
    """The boolean-scatter draw: one rng.random(n_active) per layer, in layer order."""
    out = []
    for m in mask.layers:
        z = np.zeros_like(m)
        z[m] = rng.random(int(np.count_nonzero(m))) < keep_prob
        out.append(z)
    return out


class TestRandomMaskStream:
    """sample_random_mask draws one bool per cached active index; laid out as
    the layers, its output and its generator stream must equal the
    boolean-scatter reference."""

    def _assert_stream_matches(self, mask, keep_prob, draws=3):
        got_rng, want_rng = substream(9, "mask.random"), substream(9, "mask.random")
        for _ in range(draws):  # repeated draws reuse the cached indices
            got = draw_layers(mask, *sample_random_mask(mask, keep_prob, got_rng))
            want = _reference_random_mask(mask, keep_prob, want_rng)
            for a, b in zip(got, want):
                assert a.dtype == bool and a.shape == b.shape
                assert np.array_equal(a, b)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.fixture
    def mask(self):
        shapes = [(30, 20), (12, 30), (3, 12)]
        plan = build_sparsity_plan(shapes, 0.8, exclude=(2,))  # last layer stays dense
        return init_mask(shapes, plan, substream(4, "mask.init"))

    @pytest.mark.parametrize("keep_prob", [0.0, 0.9, 1.0])
    def test_initial_mask_with_dense_excluded_layer(self, mask, keep_prob):
        assert np.all(mask.layers[2])
        self._assert_stream_matches(mask, keep_prob)

    @pytest.mark.parametrize("keep_prob", [0.0, 0.9, 1.0])
    def test_mask_from_topology_update(self, mask, keep_prob):
        rng = np.random.default_rng(0)
        w = [rng.normal(0, 1, m.shape).astype(np.float32) * m for m in mask.layers]
        g = [rng.normal(0, 1, m.shape).astype(np.float32) for m in mask.layers]
        new = update_deterministic_mask(w, g, mask, 0.3)
        assert any(not np.array_equal(a, b) for a, b in zip(new.layers, mask.layers))
        sample_random_mask(mask, keep_prob, substream(1, "warm"))  # fill the old mask's cache
        self._assert_stream_matches(new, keep_prob)

    def test_flat_layout_is_every_layer_then_true_over_the_biases(self, mask):
        n_weights = sum(m.size for m in mask.layers)
        assert mask.flat.tolist() == (np.concatenate([m.ravel() for m in mask.layers]).tolist()
                                      + [True] * sum(m.shape[0] for m in mask.layers))
        offsets = np.cumsum([0] + [m.size for m in mask.layers])
        want = np.concatenate([np.flatnonzero(m) + off for m, off in zip(mask.layers, offsets)])
        assert np.array_equal(mask.flat_active, want) and want.max() < n_weights
        biases = np.arange(n_weights, mask.flat.size)
        assert np.array_equal(mask.positions, np.concatenate([want, biases]))

    @pytest.mark.parametrize("keep_prob", [0.0, 0.9, 1.0])
    def test_reused_buffer_draws_what_a_fresh_one_does(self, mask, keep_prob):
        # a buffer last filled under an old topology, or left all true, is
        # overwritten whole: a topology update keeps the active count
        rng = np.random.default_rng(0)
        w = [rng.normal(0, 1, m.shape).astype(np.float32) * m for m in mask.layers]
        g = [rng.normal(0, 1, m.shape).astype(np.float32) for m in mask.layers]
        new = update_deterministic_mask(w, g, mask, 0.3)
        out = np.ones(mask.flat_active.size, dtype=bool)
        got_rng, want_rng = substream(9, "mask.random"), substream(9, "mask.random")
        for m in (mask, mask, new, new):
            (got,) = sample_random_mask(m, keep_prob, got_rng, out=out)
            (want,) = sample_random_mask(m, keep_prob, want_rng)
            assert got is out and np.array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
        with pytest.raises(ValueError):  # a buffer of another size is not silently refilled
            sample_random_mask(mask, keep_prob, got_rng, out=out[1:])

    @pytest.mark.parametrize("keep_prob", [0.0, 0.9, 1.0])
    def test_mask_rebuilt_from_checkpoint(self, mask, keep_prob, tmp_path):
        tensors, masks = [], []
        for m in mask.layers:
            tensors += [m.astype(np.float32), np.zeros(m.shape[0], np.float32)]
            masks += [m, np.ones(m.shape[0], dtype=bool)]
        save_checkpoint(tmp_path / "model.ckpt", Checkpoint("cigl", 4, tensors, masks, 0))
        _, rebuilt = model_from_checkpoint(load_checkpoint(tmp_path / "model.ckpt"))
        assert all(np.array_equal(a, b) for a, b in zip(rebuilt.layers, mask.layers))
        self._assert_stream_matches(rebuilt, keep_prob)


class TestPackedMask:
    """A mask owns one bool buffer, .flat, in a packed model's layout: its
    layers view that buffer and nothing its caller holds."""

    SHAPES = [(30, 20), (12, 30), (3, 12)]

    def _topology(self):
        plan = build_sparsity_plan(self.SHAPES, 0.8, exclude=(2,))
        return init_mask(self.SHAPES, plan, substream(4, "mask.init"))

    def _update_inputs(self, mask):
        rng = np.random.default_rng(0)
        w = [rng.normal(0, 1, m.shape).astype(np.float32) * m for m in mask.layers]
        return w, [rng.normal(0, 1, m.shape).astype(np.float32) for m in mask.layers]

    def _built_by(self, source):
        """A mask made by source, the arrays it was made from and the bool
        arrays among them that a caller could edit afterwards."""
        topology = self._topology()
        if source == "init_mask":
            return topology, [], []
        if source == "constructor":
            layers = [m.copy() for m in topology.layers]
            return DeterministicMask(layers, topology.target_nnz), layers, layers
        if source == "update":
            w, g = self._update_inputs(topology)
            new = update_deterministic_mask(w, g, topology, 0.3)
            return new, [*w, *g, topology.flat, topology.flat_active], topology.layers
        tensors, masks = [], []
        for m in topology.layers:
            tensors += [m.astype(np.float32), np.zeros(m.shape[0], np.float32)]
            masks += [m.copy(), np.ones(m.shape[0], dtype=bool)]
        _, rebuilt = model_from_checkpoint(Checkpoint("cigl", 4, tensors, masks, 0))
        return rebuilt, tensors + masks, masks

    @pytest.mark.parametrize("source", ["constructor", "init_mask", "update", "checkpoint"])
    def test_layers_view_one_fresh_buffer(self, source):
        mask, inputs, _ = self._built_by(source)
        assert mask.flat.dtype == bool
        assert all(np.shares_memory(m, mask.flat) for m in mask.layers)
        assert not any(np.shares_memory(a, b) for a in [mask.flat, *mask.layers] for b in inputs)

    @pytest.mark.parametrize("source", ["constructor", "update", "checkpoint"])
    def test_editing_the_source_arrays_changes_nothing(self, source):
        mask, _, sources = self._built_by(source)
        flat, nnz = mask.flat.copy(), mask.nnz()
        for a in sources:
            a[...] = ~a
        assert np.array_equal(mask.flat, flat) and mask.nnz() == nnz == mask.target_nnz

    def test_update_leaves_the_old_mask_bit_for_bit(self):
        old = self._topology()
        before = [a.copy() for a in [old.flat, *old.layers, old.flat_active]]
        w, g = self._update_inputs(old)
        new = update_deterministic_mask(w, g, old, 0.3)
        assert any(not np.array_equal(a, b) for a, b in zip(new.layers, old.layers))
        after = [old.flat, *old.layers, old.flat_active]
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(after, before))


class TestApplyMasks:
    """train.masked_model, the one w * m * z path: compact weights over
    mask.positions and a compact draw z, as sample_random_mask makes it,
    scattered into a model that is +0 off the topology."""

    @staticmethod
    def _seen(model, mask, z):
        out = model.over(np.zeros_like(model.flat))
        return masked_model(model.flat[mask.positions], z, mask, out)

    @classmethod
    def _masked(cls, w, m):
        model = MlpModel([w], [np.zeros(w.shape[0], np.float32)])
        return cls._seen(model, DeterministicMask([m], (int(m.sum()),)), None).weights[0]

    def test_identity_masks(self):
        w = np.arange(6, dtype=np.float32).reshape(2, 3)
        np.testing.assert_array_equal(self._masked(w, np.ones((2, 3), dtype=bool)), w)

    def test_annihilating_mask(self):
        w = np.ones((2, 3), dtype=np.float32)
        assert not self._masked(w, np.zeros((2, 3), dtype=bool)).any()

    def test_elementwise_product_by_hand(self):
        # z over the active positions 0, 2, 3, 4; the weight off m is +0
        w = np.array([[1.0, -2.0, 3.0, -4.0, -0.0]], dtype=np.float32)
        m = np.array([[1, 0, 1, 1, 1]], dtype=bool)
        z = np.array([1, 0, 1, 0], dtype=bool)
        model = MlpModel([w], [np.array([-0.5], np.float32)])
        seen = self._seen(model, DeterministicMask([m], (4,)), z)
        want = np.array([1.0, 0.0, 0.0, -4.0, -0.0, -0.5], dtype=np.float32)
        assert seen.flat.tobytes() == want.tobytes()

    def test_input_not_modified(self):
        model = MlpModel([np.ones((1, 3), dtype=np.float32)], [np.zeros(1, np.float32)])
        mask = DeterministicMask([np.ones((1, 3), dtype=bool)], (3,))
        w = model.flat[mask.positions]
        out = model.over(np.zeros_like(model.flat))
        assert masked_model(w, np.zeros(3, dtype=bool), mask, out) is out
        assert np.all(w[:3] == 1.0) and np.all(model.flat[:3] == 1.0) and not out.flat.any()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_under_reapplication(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(0, 1, (5, 4)).astype(np.float32)
        m = rng.random((5, 4)) < 0.6
        mask = DeterministicMask([m], (int(m.sum()),))
        (z,) = sample_random_mask(mask, 0.8, rng)
        model = MlpModel([w], [rng.normal(0, 1, 5).astype(np.float32)])
        once = self._seen(model, mask, z)
        twice = self._seen(once, mask, z)
        assert once.flat.tobytes() == twice.flat.tobytes()
        # in place, without a draw, over a model holding the bare weights: the bits stay
        bare = self._seen(model, mask, None)
        before = bare.flat.tobytes()
        assert masked_model(bare.flat[mask.positions], None, mask, bare).flat.tobytes() == before


class TestMaskUpdate:
    def test_zero_fraction_is_identity(self):
        mask = DeterministicMask([np.array([True, False, True])], (2,))
        w = [np.array([0.5, 0.0, 0.1], dtype=np.float32)]
        g = [np.array([1.0, 2.0, 3.0], dtype=np.float32)]
        new = update_deterministic_mask(w, g, mask, 0.0)
        assert np.array_equal(new.layers[0], mask.layers[0])

    def test_hand_worked_prune_and_regrow(self):
        # active |w| = [0.1, 0.5, 0.3] at 0..2, inactive |g| = [0.9, 0.05] at 3..4
        mask = DeterministicMask([np.array([True, True, True, False, False])], (3,))
        w = [np.array([0.1, 0.5, 0.3, 0.0, 0.0], dtype=np.float32)]
        g = [np.array([0.0, 0.0, 0.0, 0.9, 0.05], dtype=np.float32)]
        new = update_deterministic_mask(w, g, mask, 1.0 / 3.0)  # k = 1
        assert np.array_equal(new.layers[0], [False, True, True, True, False])

    def test_gradient_ties_activate_lowest_index(self):
        mask = DeterministicMask([np.array([True, True, False, False, False])], (2,))
        w = [np.array([0.4, 0.2, 0.0, 0.0, 0.0], dtype=np.float32)]
        g = [np.ones(5, dtype=np.float32)]
        new = update_deterministic_mask(w, g, mask, 0.5)  # k = 1
        assert np.array_equal(new.layers[0], [True, False, True, False, False])

    def test_clamps_when_no_inactive_positions(self, caplog):
        # a fully dense layer has nothing to regrow into: it stays as it is, silently
        mask = DeterministicMask([np.ones(4, dtype=bool)], (4,))
        w = [np.arange(4, dtype=np.float32)]
        g = [np.arange(4, dtype=np.float32)]
        with caplog.at_level("WARNING"):
            new = update_deterministic_mask(w, g, mask, 0.5)
        assert np.array_equal(new.layers[0], mask.layers[0])
        assert caplog.text == ""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(4, 65))
        # discrete magnitudes force plenty of ties
        w = rng.choice([0.0, 0.1, 0.2, 0.3], size) * rng.choice([-1.0, 1.0], size)
        g = rng.choice([0.0, 0.05, 0.5, 0.9], size) * rng.choice([-1.0, 1.0], size)
        m = rng.random(size) < rng.uniform(0.2, 0.9)
        if not m.any():
            m[0] = True
        frac = float(rng.uniform(0.0, 1.0))
        mask = DeterministicMask([m.copy()], (int(m.sum()),))
        new = update_deterministic_mask([w.astype(np.float32)], [g.astype(np.float32)], mask, frac)
        expected = prune_regrow_bruteforce(w, g, m, frac)
        assert np.array_equal(new.layers[0], expected)
        assert new.layers[0].sum() == m.sum()


def _stable_topk_update(w, g, m, fraction):
    """The stable full-sort rule: first k of a stable argsort of |w| over the
    active positions (pruned) and of -|g| over the inactive ones (grown)."""
    flat_m = m.ravel()
    active, inactive = np.flatnonzero(flat_m), np.flatnonzero(~flat_m)
    k = min(int(fraction * active.size), inactive.size)
    new = flat_m.copy()
    if k > 0:
        new[active[np.argsort(np.abs(w.ravel()[active]), kind="stable")[:k]]] = False
        new[inactive[np.argsort(-np.abs(g.ravel()[inactive]), kind="stable")[:k]]] = True
    return new.reshape(m.shape)


class TestMaskUpdateAtScale:
    """Selection-based top-k against the stable full sort on 12,000-entry
    layers whose values are so tied that the k-th value spans many entries."""

    SHAPE = (120, 100)

    def _layer(self, seed, density):
        rng = np.random.default_rng(seed)
        levels = np.array([0.0, 0.25, 0.5, 1.0], dtype=np.float32)
        sign = rng.choice(np.array([-1.0, 1.0], dtype=np.float32), self.SHAPE)
        w = rng.choice(levels, self.SHAPE) * sign  # holds +0.0 and -0.0
        g = rng.choice(levels, self.SHAPE) * sign[::-1]
        g[:, rng.choice(self.SHAPE[1], 25, replace=False)] = 0.0  # all-zero gradient columns
        g[:, :3] = -0.0
        m = rng.random(self.SHAPE) < density
        return w, g, m

    @pytest.mark.parametrize("density", [0.1, 0.7])  # at 0.7, fraction 1 is clamped
    @pytest.mark.parametrize("fraction", [0.0, 1e-3, 0.3, 1.0])
    def test_matches_stable_sort(self, density, fraction, caplog):
        for seed in range(3):
            w, g, m = self._layer(seed, density)
            assert np.signbit(w[w == 0]).any() and (~np.signbit(w[w == 0])).any()
            mask = DeterministicMask([m.copy()], (int(m.sum()),))
            with caplog.at_level("WARNING"):
                new = update_deterministic_mask([w], [g], mask, fraction)
            want = _stable_topk_update(w, g, m, fraction)
            assert np.array_equal(new.layers[0], want)
            assert new.layers[0].sum() == m.sum()
            if fraction == 1.0 and density == 0.7:
                assert "clamped" in caplog.text

    def test_nan_sorts_last(self):
        nan = np.nan
        w = np.array([nan, 0.5, nan, 0.1, 0.0, 0.0, 0.0, 0.0], dtype=np.float32)
        g = np.array([0.0, 0.0, 0.0, 0.0, nan, 0.0, nan, 0.2], dtype=np.float32)
        m = np.arange(8) < 4
        mask = DeterministicMask([m.copy()], (4,))
        new = update_deterministic_mask([w], [g], mask, 0.75)  # k = 3: the k-th value is NaN
        assert np.array_equal(new.layers[0], [False, False, True, False, True, True, False, True])
        assert np.array_equal(new.layers[0], _stable_topk_update(w, g, m, 0.75))


class TestMaskUpdateAcrossLayers:
    def test_each_layer_matches_its_own_stable_sort(self, caplog):
        """The per-layer active positions come from the segments of
        mask.flat_active: a sparse layer, a dense (excluded) one and a
        clamped one each update as on their own, by np.flatnonzero."""
        rng = np.random.default_rng(5)
        shapes, densities = [(30, 20), (8, 30), (12, 8)], [0.2, 1.0, 0.9]
        ws = [rng.choice([0.0, 0.5, 1.0], s).astype(np.float32) for s in shapes]
        gs = [rng.choice([0.0, 0.5, 1.0], s).astype(np.float32) for s in shapes]
        ms = [rng.random(s) < d for s, d in zip(shapes, densities)]
        mask = DeterministicMask([m.copy() for m in ms], tuple(int(m.sum()) for m in ms))
        with caplog.at_level("WARNING"):
            new = update_deterministic_mask(ws, gs, mask, 0.5)
        for got, w, g, m in zip(new.layers, ws, gs, ms):
            assert np.array_equal(got, _stable_topk_update(w, g, m, 0.5))
        assert ms[1].all() and not np.array_equal(new.layers[0], ms[0])
        assert [r.message for r in caplog.records] == [
            "layer 2: prune/regrow count 43 clamped to 9 inactive positions"]


class TestUpdateFraction:
    def test_start_is_alpha(self):
        assert mask_update_fraction(0, 0.3, 1000) == pytest.approx(0.3, abs=1e-15)

    def test_end_is_zero(self):
        assert mask_update_fraction(1000, 0.3, 1000) == pytest.approx(0.0, abs=1e-15)

    def test_midpoint_is_half_alpha(self):
        assert mask_update_fraction(500, 0.3, 1000) == pytest.approx(0.15, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mask_update_fraction(1001, 0.3, 1000)


class TestWmaAccumulator:
    def test_first_update_copies_snapshot(self):
        acc = wma_update(WmaAccumulator(), [np.array([1.0, 2.0], dtype=np.float32)])
        assert acc.n_models == 1
        np.testing.assert_array_equal(acc.means[0], [1.0, 2.0])

    def test_two_snapshots_average(self):
        acc = WmaAccumulator()
        wma_update(acc, [np.array([2.0])])
        wma_update(acc, [np.array([4.0])])
        assert acc.means[0][0] == pytest.approx(3.0, abs=1e-15)
        assert acc.n_models == 2

    def test_constant_snapshots_stay_fixed(self):
        acc = WmaAccumulator()
        snap = [np.full((3, 2), 0.7, dtype=np.float32)]
        for _ in range(17):
            wma_update(acc, snap)
        np.testing.assert_allclose(acc.means[0], np.float64(np.float32(0.7)), rtol=0, atol=1e-15)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 50))
    @settings(max_examples=25, deadline=None)
    def test_running_mean_matches_stored_sample_mean(self, seed, n):
        rng = np.random.default_rng(seed)
        snaps = [[rng.normal(0, 1, (4, 3)).astype(np.float32)] for _ in range(n)]
        acc = WmaAccumulator()
        for s in snaps:
            wma_update(acc, s)
        stored = np.mean(np.stack([s[0].astype(np.float64) for s in snaps]), axis=0)
        assert np.max(np.abs(acc.means[0] - stored)) < 1e-12

    def test_shape_change_rejected(self):
        acc = wma_update(WmaAccumulator(), [np.zeros(3)])
        with pytest.raises(ValueError):
            wma_update(acc, [np.zeros(4)])
