import struct

import numpy as np
import pytest

from cigl.checkpoint import (
    Checkpoint,
    CheckpointError,
    METHOD_TAGS,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from cigl.rng import substream


def random_checkpoint(seed=0, method="cigl"):
    rng = substream(seed, "ckpt")
    # odd sizes on purpose: bitmap padding must round-trip
    shapes = [(7, 3), (7,), (5, 7), (5,)]
    tensors = [rng.normal(0, 1, s).astype(np.float32) for s in shapes]
    masks = [rng.random(s) < 0.6 for s in shapes]
    return Checkpoint(method, seed=123456789, tensors=tensors, masks=masks, n_models=17)


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        path = tmp_path / "m.ckpt"
        ckpt = random_checkpoint()
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.method == ckpt.method
        assert back.seed == ckpt.seed
        assert back.n_models == ckpt.n_models
        for a, b in zip(ckpt.tensors, back.tensors):
            assert a.tobytes() == b.tobytes() and a.shape == b.shape
        for a, b in zip(ckpt.masks, back.masks):
            assert np.array_equal(a, b)

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
        save_checkpoint(path, random_checkpoint(method="rigl"))
        blob = path.read_bytes()
        assert blob[:4] == b"CIGL"
        version, tag, seed, count = struct.unpack("<IBQI", blob[4:21])
        assert version == 1
        assert METHOD_TAGS[tag] == "rigl"
        assert seed == 123456789
        assert count == 4

    def test_method_tags_are_pinned(self, tmp_path):
        # the tag byte is part of the file format; new methods may only append
        pinned = ("cigl", "rigl", "rigl_wdp", "rigl_mcdp", "dense", "cigl_no_rm", "cigl_no_wma")
        assert METHOD_TAGS[: len(pinned)] == pinned
        for tag, method in enumerate(pinned):
            path = tmp_path / f"{method}.ckpt"
            save_checkpoint(path, random_checkpoint(method=method))
            assert path.read_bytes()[8] == tag


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, random_checkpoint())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, random_checkpoint())
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, random_checkpoint())
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, random_checkpoint())
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_unknown_method_rejected_on_save(self, tmp_path):
        ckpt = random_checkpoint()
        ckpt.method = "mystery"
        with pytest.raises(CheckpointError, match="method"):
            save_checkpoint(tmp_path / "m.ckpt", ckpt)


@pytest.mark.parametrize("record", [1, 2, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_value_is_refused_naming_its_layer(record, value):
    ckpt = random_checkpoint()
    ckpt.masks[1::2] = [np.ones_like(m) for m in ckpt.masks[1::2]]
    for w, m in zip(ckpt.tensors[0::2], ckpt.masks[0::2]):
        w[~m] = 0.0
    model_from_checkpoint(ckpt)
    ckpt.tensors[record][(0,) * ckpt.tensors[record].ndim] = value
    ckpt.masks[record][(0,) * ckpt.masks[record].ndim] = True
    with pytest.raises(CheckpointError, match=rf"^checkpoint layer {record // 2} holds a "
                                              "non-finite weight or bias$"):
        model_from_checkpoint(ckpt)


def test_atomic_write_leaves_no_partial_files(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, random_checkpoint())
    leftovers = [p for p in tmp_path.iterdir() if p.name != "m.ckpt"]
    assert leftovers == []
