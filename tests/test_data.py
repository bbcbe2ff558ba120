import csv
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cigl.config import parse_config_text
from cigl.data import (
    BatchIterator,
    DataError,
    Dataset,
    block_rows,
    column_stats,
    inject_label_noise,
    load_csv,
    load_idx,
    split_dataset,
    standardize,
    synth_two_moons,
)
from cigl.rng import substream
from cigl.runner import build_datasets


def save_csv(dataset, path):
    """Columns x0..x{d-1} plus 'label', floats via repr so a reload
    reproduces the float32 features exactly."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow([f"x{i}" for i in range(dataset.n_features)] + ["label"])
        for row, y in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(y)])


class TestLoadCsv:
    def test_labels_remap_by_first_appearance(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,2,5\n3,4,7\n5,6,5\n")
        ds = load_csv(p, "y")
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        assert ds.n_classes == 2

    def test_header_only_file_is_empty_dataset(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n")
        with pytest.raises(DataError, match="empty dataset"):
            load_csv(p, "y")

    def test_feature_shape_follows_columns(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,c,d,y\n1,2,3,4,0\n5,6,7,8,1\n")
        ds = load_csv(p, "y")
        assert ds.features.shape == (2, 4)

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="missing label column 'y'"):
            load_csv(p, "y")

    def test_ragged_row_reports_position(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,2,0\n1,2\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p, "y")

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,oops,0\n")
        with pytest.raises(DataError, match="row 2, column 'b'"):
            load_csv(p, "y")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "NaN"])
    def test_non_finite_label_reports_row_and_column(self, tmp_path, bad):
        p = tmp_path / "d.csv"
        p.write_text(f"a,y\n1,0\n2,{bad}\n3,1\n4,{bad}\n5,inf\n")
        with pytest.raises(DataError, match=f"row 3, column 'y': non-finite label '{bad}'"):
            load_csv(p, "y")

    def test_load_serialize_load_roundtrip_is_exact(self, tmp_path):
        rng = substream(3, "csv")
        src = tmp_path / "src.csv"
        rows = ["a,b,c,y"]
        for _ in range(20):
            vals = rng.normal(0, 10, 3)
            rows.append(",".join(repr(float(v)) for v in vals) + f",{rng.integers(3, 7)}")
        src.write_text("\n".join(rows) + "\n")
        ds = load_csv(src, "y")
        out = tmp_path / "round.csv"
        save_csv(ds, out)
        back = load_csv(out, "label")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)


def _write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                    truncate_images=0):
    n, rows, cols = images.shape
    img = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        img = img[:-truncate_images]
    lab = struct.pack(">II", label_magic, len(labels)) + labels.tobytes()
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    ip.write_bytes(img)
    lp.write_bytes(lab)
    return ip, lp


class TestLoadIdx:
    def _sample(self):
        rng = substream(1, "idx")
        images = rng.integers(0, 256, (6, 4, 5), dtype=np.uint8)
        labels = rng.integers(0, 3, 6, dtype=np.uint8)
        return images, labels

    def test_loads_and_scales(self, tmp_path):
        images, labels = self._sample()
        images[0, 0, 0] = 255
        ip, lp = _write_idx_pair(tmp_path, images, labels)
        ds = load_idx(ip, lp)
        assert ds.features.shape == (6, 20)
        assert ds.features[0, 0] == 1.0
        np.testing.assert_allclose(ds.features, images.reshape(6, 20) / 255.0, atol=1e-7)
        np.testing.assert_array_equal(ds.labels, labels)
        expected = images.reshape(6, -1).astype(np.float32) / np.float32(255.0)
        assert ds.features.dtype == np.float32
        assert ds.features.tobytes() == expected.tobytes()

    def test_wrong_image_magic(self, tmp_path):
        images, labels = self._sample()
        ip, lp = _write_idx_pair(tmp_path, images, labels, image_magic=0x804)
        with pytest.raises(DataError, match="bad magic"):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        images, labels = self._sample()
        ip, lp = _write_idx_pair(tmp_path, images, labels[:-1])
        with pytest.raises(DataError, match="count mismatch"):
            load_idx(ip, lp)

    def test_images_of_no_pixel_are_refused(self, tmp_path):
        ip, lp = _write_idx_pair(tmp_path, np.zeros((6, 4, 0), np.uint8), self._sample()[1])
        with pytest.raises(DataError, match="^no feature column"):
            load_idx(ip, lp)

    def test_truncated_payload(self, tmp_path):
        images, labels = self._sample()
        ip, lp = _write_idx_pair(tmp_path, images, labels, truncate_images=3)
        with pytest.raises(DataError, match="payload"):
            load_idx(ip, lp)


class TestTwoMoons:
    def test_noise_free_class0_on_unit_half_circle(self):
        ds = synth_two_moons(40, 0.0, substream(0, "data.synth"))
        pts = ds.features[ds.labels == 0]
        np.testing.assert_allclose((pts**2).sum(axis=1), 1.0, atol=1e-6)
        assert np.all(pts[:, 1] >= -1e-7)

    def test_class_balance(self):
        ds = synth_two_moons(100, 0.1, substream(0, "data.synth"))
        assert (ds.labels == 0).sum() == 50 and (ds.labels == 1).sum() == 50
        odd = synth_two_moons(101, 0.1, substream(0, "data.synth"))
        assert (odd.labels == 0).sum() == 51

    def test_seed_reproducibility(self):
        a = synth_two_moons(64, 0.3, substream(9, "data.synth"))
        b = synth_two_moons(64, 0.3, substream(9, "data.synth"))
        np.testing.assert_array_equal(a.features, b.features)


class TestLabelNoise:
    def test_zero_rate_keeps_labels(self):
        ds = synth_two_moons(50, 0.2, substream(0, "data.synth"))
        noisy, idx = inject_label_noise(ds, 0.0, substream(0, "data.noise"))
        np.testing.assert_array_equal(noisy.labels, ds.labels)
        assert idx.size == 0

    def test_rate_one_binary_flips_everything(self):
        ds = synth_two_moons(50, 0.2, substream(0, "data.synth"))
        noisy, idx = inject_label_noise(ds, 1.0, substream(0, "data.noise"))
        np.testing.assert_array_equal(noisy.labels, 1 - ds.labels)
        assert idx.size == 50

    def test_flip_fraction_in_binomial_interval(self):
        ds = synth_two_moons(10000, 0.2, substream(0, "data.synth"))
        _, idx = inject_label_noise(ds, 0.2, substream(1, "data.noise"))
        assert 0.17 <= idx.size / 10000 <= 0.23


class TestSplit:
    def test_exact_division(self):
        ds = synth_two_moons(100, 0.1, substream(0, "data.synth"))
        parts = split_dataset(ds, [0.8, 0.1, 0.1], substream(0, "data.split"))
        assert [len(p) for p in parts] == [80, 10, 10]

    def test_remainder_goes_to_first_split(self):
        ds = synth_two_moons(101, 0.1, substream(0, "data.synth"))
        parts = split_dataset(ds, [0.5, 0.5], substream(0, "data.split"))
        assert [len(p) for p in parts] == [51, 50]

    @given(st.integers(0, 2**32 - 1), st.integers(5, 200))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, seed, n):
        ds = synth_two_moons(n, 0.1, substream(seed, "data.synth"))
        parts = split_dataset(ds, [0.6, 0.4], substream(seed, "data.split"))
        rows = np.vstack([p.features for p in parts])
        assert rows.shape[0] == n
        whole = {tuple(r) for r in ds.features}
        assert {tuple(r) for r in rows} == whole

    def test_bad_fractions_rejected(self):
        ds = synth_two_moons(10, 0.1, substream(0, "data.synth"))
        with pytest.raises(ValueError):
            split_dataset(ds, [0.5, 0.6], substream(0, "data.split"))


class TestBatchIterator:
    def test_epoch_visits_every_index_once(self):
        ds = synth_two_moons(37, 0.1, substream(0, "data.synth"))
        it = BatchIterator(ds, batch_size=8, seed=0)
        seen = np.concatenate([x for x, _ in it.epoch_batches(0)])
        assert len(seen) == 37
        counts = {}
        for row in seen:
            counts[tuple(row)] = counts.get(tuple(row), 0) + 1
        assert all(c == 1 for c in counts.values())

    def test_order_is_pure_function_of_seed_and_epoch(self):
        ds = synth_two_moons(64, 0.1, substream(0, "data.synth"))
        a = BatchIterator(ds, 16, seed=5)
        b = BatchIterator(ds, 16, seed=5)
        np.testing.assert_array_equal(a.epoch_order(3), b.epoch_order(3))
        assert not np.array_equal(a.epoch_order(3), a.epoch_order(4))

    def test_last_batch_short(self):
        ds = synth_two_moons(10, 0.1, substream(0, "data.synth"))
        sizes = [len(x) for x, _ in BatchIterator(ds, 4, seed=0).epoch_batches(0)]
        assert sizes == [4, 4, 2]


def test_standardize_uses_train_statistics():
    rng = substream(0, "std")
    tr = Dataset(rng.normal(5, 3, (200, 2)).astype(np.float32), rng.integers(0, 2, 200), 2)
    te = Dataset(rng.normal(5, 3, (50, 2)).astype(np.float32), rng.integers(0, 2, 50), 2)
    tr2, te2 = standardize(tr, te)
    np.testing.assert_allclose(tr2.features.mean(axis=0), 0.0, atol=1e-5)
    np.testing.assert_allclose(tr2.features.std(axis=0), 1.0, atol=1e-5)
    # test split transformed with train stats, not its own
    assert abs(te2.features.mean()) > 1e-6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features(bad):
    features = np.zeros((3, 2), dtype=np.float32)
    features[1, 0] = bad
    with pytest.raises(DataError, match="non-finite feature values"):
        Dataset(features, np.zeros(3, dtype=np.int64), 2)


@pytest.mark.parametrize("blocks, extra", [(0, 0), (1, -1), (1, 0), (2, 2)])
def test_dataset_finds_a_non_finite_value_in_any_row_block(blocks, extra):
    features = np.zeros((2 * block_rows(2) + 3, 2), dtype=np.float32)
    features[blocks * block_rows(2) + extra, 1] = np.nan  # rows 0, B-1, B and the last
    with pytest.raises(DataError, match="non-finite feature values"):
        Dataset(features, np.zeros(len(features), dtype=np.int64), 2)


@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
def test_standardize_equals_the_float64_expression_byte_for_byte(blocks, extra):
    n = blocks * block_rows(4) + extra  # 1, B-1, B, B+1 and 2B+3 rows
    rng = substream(n, "std.bytes")

    def features():
        x = (rng.normal(5, 3, (n, 4)) * [1, 1, 1, 1e4]).astype(np.float32)
        x[:, 1] = 2.5  # constant: sd 0, left unscaled
        x[::2, 2] = -0.0
        x[1::2, 2] = 0.0
        return x

    tr_x, te_x = features(), features()
    tr_before, te_before = tr_x.copy(), te_x.copy()
    labels = np.zeros(n, dtype=np.int64)
    tr, te = standardize(Dataset(tr_x, labels, 1), Dataset(te_x, labels, 1))
    mean = tr_x.mean(axis=0, dtype=np.float64)
    sd = tr_x.std(axis=0, dtype=np.float64)
    # the statistics themselves, which a float32 output can hide an ulp of
    assert [a.tobytes() for a in column_stats(tr_x)] == [mean.tobytes(), sd.tobytes()]
    sd[sd == 0.0] = 1.0
    for out, x in ((tr, tr_x), (te, te_x)):
        expected = ((x.astype(np.float64) - mean) / sd).astype(np.float32)
        assert out.features.dtype == np.float32
        assert out.features.tobytes() == expected.tobytes()
    assert tr_x.tobytes() == tr_before.tobytes()
    assert te_x.tobytes() == te_before.tobytes()


def test_build_datasets_peak_memory_stays_near_two_feature_copies(tmp_path):
    # the unsplit features beside its two halves are 2x; the loader and the
    # standardisation must add no full-size temporaries on top of that
    rng = substream(2, "idx.memory")
    images = rng.integers(0, 256, (4800, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, 4800, dtype=np.uint8)
    ip, lp = _write_idx_pair(tmp_path, images, labels)
    cfg = parse_config_text(f"data.source = idx\ndata.idx_images = {ip}\ndata.idx_labels = {lp}\n"
                            "data.standardize = true\ncalib.temperature = true\n")
    tracemalloc.start()
    try:
        build_datasets(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * images.size * np.dtype(np.float32).itemsize
