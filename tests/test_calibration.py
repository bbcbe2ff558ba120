import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cigl.calibration import (
    correct_rows,
    ece,
    fit_temperature,
    label_smoothing_targets,
    mixup_batch,
    nll,
    read_reliability_csv,
    reliability_bins,
    write_reliability_csv,
)

from _oracles import ece_bruteforce


def random_prob_instance(seed, n_max=1000, k_max=10):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(2, k_max + 1))
    raw = rng.random((n, k)) + 1e-6
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, k, n)
    return probs, labels


class TestEce:
    def test_confident_and_correct_is_zero(self):
        probs = np.tile([1.0, 0.0], (8, 1))
        assert ece(probs, np.zeros(8, dtype=int)) == 0.0

    def test_confident_and_wrong_is_one(self):
        probs = np.tile([1.0, 0.0], (8, 1))
        assert ece(probs, np.ones(8, dtype=int)) == 1.0

    def test_hand_binned_example(self):
        # confidences [.6,.7,.8,.9], correctness [1,0,1,0], 2 bins
        probs = np.array([[0.6, 0.4], [0.7, 0.3], [0.8, 0.2], [0.9, 0.1]])
        labels = np.array([0, 1, 0, 1])
        assert ece(probs, labels, n_bins=2) == pytest.approx(0.25, abs=1e-15)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ece(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ece(np.array([[0.2, 0.2]]), np.array([0]))

    @pytest.mark.parametrize("metric", [ece, nll, reliability_bins, correct_rows])
    def test_nan_rows_rejected(self, metric):
        probs = np.array([[np.nan, np.nan], [0.3, 0.7]])
        with pytest.raises(ValueError, match="sum to 1"):
            metric(probs, np.array([0, 1]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_in_unit_interval_and_permutation_invariant(self, seed):
        probs, labels = random_prob_instance(seed, n_max=300)
        value = ece(probs, labels)
        assert 0.0 <= value <= 1.0
        perm = np.random.default_rng(seed + 1).permutation(len(labels))
        assert ece(probs[perm], labels[perm]) == pytest.approx(value, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_bruteforce_oracle_bitwise(self, seed):
        probs, labels = random_prob_instance(seed, n_max=300)
        assert ece(probs, labels, 15) == ece_bruteforce(probs, labels, 15)


BAD_LABELS = {
    "one label for three rows": [0],
    "a label of K": [0, 1, 2],
    "a negative label": [0, 1, -1],
    "a column of labels": [[0], [1], [0]],
    "float labels": [0.0, 1.0, 0.0],
}


class TestLabelsAreOneClassIndexPerRow:
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])

    @pytest.mark.parametrize("labels", BAD_LABELS.values(), ids=BAD_LABELS.keys())
    @pytest.mark.parametrize("metric", [nll, correct_rows, reliability_bins, ece])
    def test_metrics_refuse(self, metric, labels):
        with pytest.raises(ValueError, match="labels must be"):
            metric(self.probs, np.array(labels))

    @pytest.mark.parametrize("labels", BAD_LABELS.values(), ids=BAD_LABELS.keys())
    def test_fit_temperature_refuses(self, labels):
        with pytest.raises(ValueError, match="labels must be"):
            fit_temperature(np.log(self.probs), np.array(labels))


class TestReliabilityBins:
    def test_single_sample_bin_index(self):
        probs = np.array([[0.93, 0.07]])
        rb = reliability_bins(probs, np.array([0]), n_bins=15)
        assert rb.bins[13].count == 1  # (13/15, 14/15]
        assert rb.bins[13].mean_confidence == pytest.approx(0.93, abs=1e-9)
        assert rb.bins[13].mean_accuracy == 1.0
        assert sum(b.count for b in rb.bins) == 1
        assert sum(1 for b in rb.bins if b.count == 0) == 14

    def test_boundary_confidence_falls_in_lower_bin(self):
        # conf exactly 0.2 belongs to (1/15..3/15] side: lower < c <= upper
        probs = np.array([[0.2, 0.2, 0.2, 0.2, 0.2]])
        rb = reliability_bins(probs, np.array([0]), n_bins=5)
        assert rb.bins[0].count == 1  # (0, 0.2]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_counts_partition_samples(self, seed):
        probs, labels = random_prob_instance(seed, n_max=200)
        rb = reliability_bins(probs, labels)
        assert sum(b.count for b in rb.bins) == len(labels)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_ece_reconstructs_exactly(self, seed):
        probs, labels = random_prob_instance(seed, n_max=200)
        rb = reliability_bins(probs, labels)
        assert rb.ece == ece(probs, labels)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_accuracy_is_the_argmax_mean_bit_for_bit(self, seed):
        probs, labels = random_prob_instance(seed, n_max=300)
        rng = np.random.default_rng(seed)
        # tied rows (uniform, and a tied top pair) predict the lowest tied class
        tied = rng.random(len(probs)) < 0.3
        k = probs.shape[1]
        probs[tied] = 1.0 / k
        probs[0] = [0.5, 0.5] + [0.0] * (k - 2)
        rb = reliability_bins(probs, labels)
        want = float(np.mean(probs.argmax(axis=1) == labels))
        assert rb.accuracy.hex() == want.hex()
        assert rb.n_correct == int(np.sum(probs.argmax(axis=1) == labels))

    def test_accuracy_ties_go_to_the_lowest_class(self):
        probs = np.array([[0.5, 0.5], [0.5, 0.5], [0.25, 0.75]])
        rb = reliability_bins(probs, np.array([0, 1, 1]))
        assert correct_rows(probs, np.array([0, 1, 1])).tolist() == [True, False, True]
        assert rb.n_correct == 2
        assert rb.accuracy == 2 / 3

    @pytest.mark.parametrize("n_bins", range(1, 41))
    def test_bin_index_equals_searchsorted_at_every_boundary(self, n_bins):
        # A valid row's top probability is at least 1/K: the uniform row is the
        # lowest confidence, and one-hot rows give exactly 1.
        k = 64
        edges = [j / n_bins for j in range(1, n_bins + 1)]
        conf = np.array(sorted({c for e in edges for c in (np.nextafter(e, 0.0), e,
                                                            np.nextafter(e, 2.0))
                                if 1.0 / k <= c <= 1.0} | {1.0 / k, 1.0}))
        probs = np.empty((len(conf), k))
        probs[:, 0] = conf
        probs[:, 1:] = ((1.0 - conf) / (k - 1))[:, None]
        rb = reliability_bins(probs, np.zeros(len(conf), dtype=int), n_bins)
        uppers = np.array([(m + 1) / n_bins for m in range(n_bins)])
        want = np.minimum(np.searchsorted(uppers, conf, side="left"), n_bins - 1)
        assert [b.count for b in rb.bins] == np.bincount(want, minlength=n_bins).tolist()
        for m, b in enumerate(rb.bins):
            in_bin = conf[want == m]
            assert b.mean_confidence == (float(in_bin.sum() / in_bin.size) if in_bin.size else None)

    def test_csv_roundtrip_preserves_ece(self, tmp_path):
        probs, labels = random_prob_instance(17, n_max=500)
        rb = reliability_bins(probs, labels)
        path = tmp_path / "rel.csv"
        write_reliability_csv(rb, path)
        rows = read_reliability_csv(path)
        total = len(labels)
        recomputed = 0.0
        for r in rows:
            if r.count:
                recomputed += (r.count / total) * abs(r.mean_accuracy - r.mean_confidence)
        assert recomputed == pytest.approx(ece(probs, labels), abs=1e-9)


class TestTemperature:
    def _calibrated_instance(self, seed, n=400, k=4):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 2, (n, k))
        # labels drawn from the softmax itself: T=1 is near-optimal
        z = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        labels = np.array([rng.choice(k, p=row) for row in p])
        return logits, labels

    def test_argmax_invariance_for_any_temperature(self):
        logits, _ = self._calibrated_instance(0)
        for t in [0.07, 0.5, 1.0, 3.3, 9.5]:
            scaled = logits / t
            np.testing.assert_array_equal(scaled.argmax(axis=1), logits.argmax(axis=1))

    def test_prescaled_logits_fit_close_to_scaled_temperature(self):
        logits, labels = self._calibrated_instance(1)
        t0 = fit_temperature(logits, labels)
        t1 = fit_temperature(3.0 * logits, labels)
        assert 2.5 * t0 <= t1 <= 3.5 * t0

    def test_matches_grid_search_oracle(self):
        from cigl.calibration import _nll_of_logits

        logits, labels = self._calibrated_instance(2)
        scaled = 2.2 * logits
        fitted = fit_temperature(scaled, labels)
        grid = np.linspace(0.05, 10.0, 10000)
        grid_nll = min(_nll_of_logits(scaled, labels, t) for t in grid)
        assert _nll_of_logits(scaled, labels, fitted) <= grid_nll + 2e-3

    def test_never_worse_than_unit_temperature(self):
        from cigl.calibration import _nll_of_logits

        for seed in range(5):
            logits, labels = self._calibrated_instance(seed)
            t = fit_temperature(logits, labels)
            assert _nll_of_logits(logits, labels, t) <= _nll_of_logits(logits, labels, 1.0) + 1e-12

    def test_degenerate_logits_return_unit_temperature(self, caplog):
        logits = np.ones((10, 3)) * 2.5
        with caplog.at_level("WARNING"):
            assert fit_temperature(logits, np.zeros(10, dtype=int)) == 1.0
        assert "degenerate" in caplog.text


class TestLabelSmoothing:
    def test_zero_epsilon_is_one_hot(self):
        t = label_smoothing_targets(np.array([1, 0]), 0.0, 3)
        np.testing.assert_array_equal(t, [[0, 1, 0], [1, 0, 0]])

    def test_formula_substitution(self):
        t = label_smoothing_targets(np.array([2]), 0.1, 10)
        assert t[0, 2] == pytest.approx(0.91, abs=1e-7)
        assert t[0, 0] == pytest.approx(0.01, abs=1e-9)

    @given(st.floats(0.0, 0.99), st.integers(2, 12))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, eps, k):
        t = label_smoothing_targets(np.array([0, k - 1]), eps, k)
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-6)


class _FixedBeta:
    def __init__(self, value):
        self.value = value

    def beta(self, a, b):
        return self.value


class TestMixup:
    def test_lambda_one_returns_first_batch(self):
        x1 = np.ones((3, 2), np.float32)
        x2 = np.zeros((3, 2), np.float32)
        y1 = np.tile([1.0, 0.0], (3, 1)).astype(np.float32)
        y2 = np.tile([0.0, 1.0], (3, 1)).astype(np.float32)
        x, y, lam = mixup_batch(x1, y1, x2, y2, 0.2, _FixedBeta(1.0))
        assert lam == 1.0
        np.testing.assert_array_equal(x, x1)
        np.testing.assert_array_equal(y, y1)

    def test_midpoint(self):
        x1 = np.zeros((2, 2), np.float32)
        x2 = np.full((2, 2), 2.0, np.float32)
        y = np.tile([0.5, 0.5], (2, 1)).astype(np.float32)
        x, _, lam = mixup_batch(x1, y, x2, y, 0.2, _FixedBeta(0.5))
        assert lam == 0.5
        np.testing.assert_array_equal(x, np.ones((2, 2)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_targets_stay_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        y1 = rng.random((4, 3)) + 1e-6
        y1 = (y1 / y1.sum(axis=1, keepdims=True)).astype(np.float32)
        y2 = np.roll(y1, 1, axis=0)
        x = rng.random((4, 2)).astype(np.float32)
        _, y, _ = mixup_batch(x, y1, x, y2, 0.2, np.random.default_rng(seed))
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-6)


class TestNll:
    def test_uniform_probs(self):
        probs = np.full((5, 10), 0.1)
        assert nll(probs, np.arange(5)) == pytest.approx(math.log(10.0), rel=1e-12)

    def test_perfect_predictions(self):
        probs = np.zeros((4, 3))
        probs[np.arange(4), [0, 1, 2, 0]] = 1.0
        assert nll(probs, np.array([0, 1, 2, 0])) == 0.0

    def test_zero_probability_clamped(self):
        probs = np.array([[1.0, 0.0]])
        value = nll(probs, np.array([1]))
        assert value == pytest.approx(-math.log(1e-12), rel=1e-12)
        assert value == pytest.approx(27.631021, abs=1e-5)
