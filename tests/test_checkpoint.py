import struct

import numpy as np
import pytest

from cigl.checkpoint import (
    Checkpoint,
    CheckpointError,
    METHOD_TAGS,
    load_checkpoint,
    save_checkpoint,
)
from cigl.masks import build_sparsity_plan, init_mask
from cigl.rng import substream
from cigl.tensor import init_mlp

HEADER_BYTES = 25  # magic, version, method tag, seed, n_models, layer count


def sparse_checkpoint(dims, sparsity, seed=0, method="cigl"):
    """A checkpoint of a random model on a random topology, +0 off it."""
    model = init_mlp(dims, substream(seed, "ckpt"))
    model.biases[0][:] = substream(seed, "ckpt.bias").normal(0, 1, dims[1])
    shapes = [w.shape for w in model.weights]
    mask = init_mask(shapes, build_sparsity_plan(shapes, sparsity), substream(seed, "ckpt.mask"))
    model.flat[~mask.flat] = 0
    return Checkpoint(method, seed=123456789, model=model, mask=mask, n_models=17)


def random_checkpoint(seed=0, method="cigl"):
    # odd sizes on purpose: bitmap padding must round-trip
    return sparse_checkpoint([3, 7, 5], 0.4, seed, method)


def field_ends(ckpt) -> dict:
    """The byte offset just past each field of ckpt's file."""
    n_weights = ckpt.mask.flat.size - sum(b.size for b in ckpt.model.biases)
    ends = {"magic": 4, "header": HEADER_BYTES}
    ends["sizes"] = ends["header"] + 4 * (ckpt.model.n_layers + 1)
    ends["bitmap"] = ends["sizes"] + -(-n_weights // 8)
    ends["values"] = ends["bitmap"] + 4 * ckpt.mask.positions.size
    return ends


def write_v1(path, ckpt):
    """ckpt in the version-1 layout: a (weight, bias) record pair per layer,
    each with its rank, dims, every value and a bitmap, then n_models."""
    parts = [b"CIGL", struct.pack("<IBQI", 1, METHOD_TAGS.index(ckpt.method), ckpt.seed,
                                  len(ckpt.tensors))]
    for arr, mask in zip(ckpt.tensors, ckpt.masks):
        parts += [struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape), arr.tobytes(),
                  np.packbits(mask.ravel(), bitorder="little").tobytes()]
    path.write_bytes(b"".join(parts + [struct.pack("<I", ckpt.n_models)]))


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        path = tmp_path / "m.ckpt"
        ckpt = random_checkpoint()
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.method == ckpt.method
        assert back.seed == ckpt.seed
        assert back.n_models == ckpt.n_models
        assert back.model.flat.dtype == np.float32
        assert back.model.flat.tobytes() == ckpt.model.flat.tobytes()
        assert np.array_equal(back.mask.flat, ckpt.mask.flat)
        assert back.mask.target_nnz == ckpt.mask.nnz()
        for a, b in zip(ckpt.tensors, back.tensors):
            assert a.tobytes() == b.tobytes() and a.shape == b.shape
        for a, b in zip(ckpt.masks, back.masks):
            assert np.array_equal(a, b)

    def test_tensors_and_masks_are_the_weight_and_bias_of_each_layer(self):
        ckpt = random_checkpoint()
        model, mask = ckpt.model, ckpt.mask
        assert [a.shape for a in ckpt.tensors] == [(7, 3), (7,), (5, 7), (5,)]
        assert all(a is b for a, b in zip(ckpt.tensors[0::2], model.weights))
        assert all(a is b for a, b in zip(ckpt.tensors[1::2], model.biases))
        assert all(a is b for a, b in zip(ckpt.masks[0::2], mask.layers))
        assert all(m.shape == b.shape and m.all() for m, b in zip(ckpt.masks[1::2], model.biases))

    def test_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, random_checkpoint())
        save_checkpoint(b, random_checkpoint())
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("method", METHOD_TAGS)
    def test_every_method_tag(self, tmp_path, method):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, random_checkpoint(method=method))
        assert load_checkpoint(path).method == method

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.ckpt"
        ckpt = random_checkpoint(method="rigl")
        save_checkpoint(path, ckpt)
        blob = path.read_bytes()
        ends = field_ends(ckpt)
        assert blob[:4] == b"CIGL"
        version, tag, seed, n_models, n_layers = struct.unpack("<IBQII", blob[4:HEADER_BYTES])
        assert (version, METHOD_TAGS[tag], seed, n_models, n_layers) == (2, "rigl", 123456789,
                                                                         17, 2)
        assert struct.unpack("<3I", blob[HEADER_BYTES : ends["sizes"]]) == (3, 7, 5)
        bits = np.unpackbits(np.frombuffer(blob[ends["sizes"] : ends["bitmap"]], np.uint8),
                             bitorder="little")
        assert np.array_equal(bits[:56], np.concatenate([m.ravel() for m in ckpt.mask.layers]))
        assert not bits[56:].any()  # padding
        values = np.frombuffer(blob[ends["bitmap"] :], "<f4")
        want = np.concatenate([w[m] for w, m in zip(ckpt.model.weights, ckpt.mask.layers)]
                              + ckpt.model.biases)
        assert values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dims, sparsity", [([3, 7, 5], 0.4), ([6, 1], 0.0),
                                                ([784, 300, 100, 10], 0.9)])
    def test_file_size_is_the_header_the_sizes_the_bitmap_and_the_active_values(
            self, tmp_path, dims, sparsity):
        ckpt = sparse_checkpoint(dims, sparsity)
        save_checkpoint(tmp_path / "m.ckpt", ckpt)
        n_weights = sum(w.size for w in ckpt.model.weights)
        n_biases = sum(b.size for b in ckpt.model.biases)
        size = (HEADER_BYTES + 4 * len(dims) + -(-n_weights // 8)
                + 4 * (sum(ckpt.mask.nnz()) + n_biases))
        assert (tmp_path / "m.ckpt").stat().st_size == size
        if dims == [784, 300, 100, 10]:
            assert size == 141_436

    def test_method_tags_are_pinned(self, tmp_path):
        # the tag byte is part of the file format; new methods may only append
        pinned = ("cigl", "rigl", "rigl_wdp", "rigl_mcdp", "dense", "cigl_no_rm", "cigl_no_wma")
        assert METHOD_TAGS[: len(pinned)] == pinned
        for tag, method in enumerate(pinned):
            path = tmp_path / f"{method}.ckpt"
            save_checkpoint(path, random_checkpoint(method=method))
            assert path.read_bytes()[8] == tag


def saved(tmp_path):
    """random_checkpoint's file: its path, a bytearray of it and its field ends."""
    path, ckpt = tmp_path / "m.ckpt", random_checkpoint()
    save_checkpoint(path, ckpt)
    return path, bytearray(path.read_bytes()), field_ends(ckpt)


def assert_refused(path, blob, match):
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path, blob, _ = saved(tmp_path)
        blob[:4] = b"NOPE"
        assert_refused(path, blob, "bad magic$")

    def test_bad_version(self, tmp_path):
        path, blob, _ = saved(tmp_path)
        blob[4] = 9
        assert_refused(path, blob, "unsupported version 9$")

    def test_a_version_1_file_is_refused_naming_its_version(self, tmp_path):
        write_v1(tmp_path / "m.ckpt", random_checkpoint())
        with pytest.raises(CheckpointError, match="unsupported version 1$"):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_unknown_method_tag(self, tmp_path):
        path, blob, _ = saved(tmp_path)
        blob[8] = len(METHOD_TAGS)
        assert_refused(path, blob, f"unknown method tag {len(METHOD_TAGS)}$")

    def test_zero_layers(self, tmp_path):
        path, blob, _ = saved(tmp_path)
        blob[HEADER_BYTES - 4 : HEADER_BYTES] = bytes(4)
        assert_refused(path, blob, r"layer sizes \[3\] hold no layer or a zero$")

    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_zero_layer_size(self, tmp_path, layer):
        path, blob, _ = saved(tmp_path)
        start = HEADER_BYTES + 4 * layer
        blob[start : start + 4] = bytes(4)
        assert_refused(path, blob, "hold no layer or a zero$")

    def test_truncated(self, tmp_path):
        # inside each field: one byte short of its end, and halfway through it
        path, blob, ends = saved(tmp_path)
        for start, end in zip([0, *ends.values()], ends.values()):
            for cut in (1, (end - start) // 2):
                assert_refused(path, blob[: end - cut], f"truncated at byte {start} ")

    def test_trailing_garbage(self, tmp_path):
        path, blob, _ = saved(tmp_path)
        assert_refused(path, blob + b"xx", "2 trailing bytes$")

    def test_unknown_method_rejected_on_save(self, tmp_path):
        ckpt = random_checkpoint()
        ckpt.method = "mystery"
        with pytest.raises(CheckpointError, match="method"):
            save_checkpoint(tmp_path / "m.ckpt", ckpt)

    @pytest.mark.parametrize("value", [1.0, -0.0, np.nan])
    @pytest.mark.parametrize("layer", [0, 1])
    def test_a_weight_off_the_topology_that_is_not_plus_zero_is_not_saved(self, tmp_path,
                                                                           value, layer):
        ckpt = random_checkpoint()
        w, m = ckpt.model.weights[layer], ckpt.mask.layers[layer]
        w[~m] = np.where(np.arange((~m).sum()) == 0, np.float32(value), np.float32(0))
        with pytest.raises(CheckpointError, match=r"off its topology that is not \+0$"):
            save_checkpoint(tmp_path / "m.ckpt", ckpt)
        assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("record", [1, 2, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_value_is_refused_naming_its_layer(tmp_path, record, value):
    ckpt = random_checkpoint()
    save_checkpoint(tmp_path / "m.ckpt", ckpt)
    load_checkpoint(tmp_path / "m.ckpt")
    tensor = ckpt.tensors[record]  # a view of the model
    tensor.flat[np.flatnonzero(ckpt.masks[record])[0]] = value
    save_checkpoint(tmp_path / "m.ckpt", ckpt)
    with pytest.raises(CheckpointError, match=rf"^checkpoint layer {record // 2} holds a "
                                              "non-finite weight or bias$"):
        load_checkpoint(tmp_path / "m.ckpt")


def test_atomic_write_leaves_no_partial_files(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, random_checkpoint())
    leftovers = [p for p in tmp_path.iterdir() if p.name != "m.ckpt"]
    assert leftovers == []
