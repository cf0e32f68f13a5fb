"""Binary checkpoint format: round trips and corruption handling."""

import json
import struct

import numpy as np
import pytest

from merge_surgeon.checkpoint import (
    MAGIC,
    CheckpointError,
    load_paramset,
    save_paramset,
)
from merge_surgeon.tensors import ParamSet

from conftest import bitwise_equal


def random_paramset(rng, max_tensors=5):
    entries = []
    for i in range(rng.integers(1, max_tensors + 1)):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
        entries.append((f"t{i}.weight", rng.standard_normal(shape)))
    return ParamSet(entries)


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    for i in range(20):
        original = random_paramset(rng)
        path = tmp_path / f"p{i}.msrg"
        save_paramset(original, path)
        assert bitwise_equal(original, load_paramset(path))


def test_empty_paramset_round_trip(tmp_path):
    path = tmp_path / "empty.msrg"
    save_paramset(ParamSet(), path)
    loaded = load_paramset(path)
    assert len(loaded) == 0


def test_bad_magic(tmp_path):
    path = tmp_path / "p.msrg"
    save_paramset(ParamSet([("x", [1.0])]), path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_paramset(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "p.msrg"
    save_paramset(ParamSet([("x", np.arange(8, dtype=np.float32))]), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(CheckpointError, match="payload truncated at tensor 'x'"):
        load_paramset(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "p.msrg"
    save_paramset(ParamSet([("x", [1.0])]), path)
    path.write_bytes(path.read_bytes()[:12])
    with pytest.raises(CheckpointError, match="missing header length"):
        load_paramset(path)


def test_non_finite_payload(tmp_path):
    path = tmp_path / "p.msrg"
    save_paramset(ParamSet([("x", [1.0, 2.0])]), path)
    raw = bytearray(path.read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="non-finite values in tensor 'x'"):
        load_paramset(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "p.msrg"
    save_paramset(ParamSet([("x", [1.0])]), path)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(CheckpointError, match="4 trailing payload bytes"):
        load_paramset(path)


def test_garbage_header(tmp_path):
    path = tmp_path / "p.msrg"
    header = b"this is not json"
    path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header)
    with pytest.raises(CheckpointError, match="unreadable header"):
        load_paramset(path)


def test_preserves_order_and_shapes(tmp_path):
    ps = ParamSet(
        [
            ("block2.weight", np.ones((3, 4), dtype=np.float32)),
            ("block1.weight", np.full((2, 2), -1.5, dtype=np.float32)),
            ("head.0.bias", np.zeros(5, dtype=np.float32)),
        ]
    )
    path = tmp_path / "ordered.msrg"
    save_paramset(ps, path)
    loaded = load_paramset(path)
    assert tuple(loaded) == ("block2.weight", "block1.weight", "head.0.bias")
    assert loaded["block2.weight"].shape == (3, 4)


@pytest.mark.parametrize("shape", [[2**32, 2**32], [2**62, 4, 3], [2**70]])
def test_huge_shape_is_truncation_not_overflow(tmp_path, shape):
    # Counted in int64, 2**32 * 2**32 wrapped to 0 and 2**62 * 4 * 3 to 8,
    # and 2**70 did not fit at all; the load must still end in a
    # CheckpointError, not numpy's reshape or conversion error.
    header = json.dumps({"tensors": [{"name": "x", "shape": shape, "offset": 0}]}).encode()
    path = tmp_path / "huge.msrg"
    path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header + b"\0" * 32)
    with pytest.raises(CheckpointError, match="payload truncated at tensor 'x'"):
        load_paramset(path)


def write_checkpoint(path, header, payload):
    raw = json.dumps(header).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(raw)) + raw + payload)


@pytest.mark.parametrize(
    "tensors, payload, field",
    [
        # Each payload is the one a lenient reader would accept with the
        # header, so only the field check can reject the file.
        (5, b"", "'tensors'"),
        ([5], b"", "'tensors'"),
        ([{"name": ["x"], "shape": [1], "offset": 0}], b"\0" * 4, "'name'"),
        ([{"name": "", "shape": [1], "offset": 0}], b"\0" * 4, "'name'"),
        ([{"name": "x", "shape": [1.5], "offset": 0}], b"\0" * 4, "'shape'"),
        ([{"name": "x", "shape": "12", "offset": 0}], b"\0" * 8, "'shape'"),
        ([{"name": "x", "shape": [True, 2], "offset": 0}], b"\0" * 8, "'shape'"),
        ([{"name": "x", "shape": [2], "offset": 0.0}], b"\0" * 8, "'offset'"),
        ([{"name": "x", "shape": [2]}], b"\0" * 8, "'offset'"),
    ],
    ids=["tensors-int", "tensors-of-int", "name-list", "name-empty", "shape-float",
         "shape-string", "shape-bool", "offset-float", "offset-missing"],
)
def test_malformed_descriptor_is_a_header_error_naming_the_field(
    tmp_path, tensors, payload, field
):
    path = tmp_path / "bad.msrg"
    write_checkpoint(path, {"tensors": tensors}, payload)
    with pytest.raises(CheckpointError, match=field):
        load_paramset(path)


def test_zero_d_tensor_round_trips(tmp_path):
    path = tmp_path / "scalar.msrg"
    original = ParamSet([("s", np.float32(2.5)), ("v", [1.0, -1.0])])
    save_paramset(original, path)
    raw = path.read_bytes()
    (size,) = struct.unpack("<Q", raw[8:16])
    assert json.loads(raw[16 : 16 + size])["tensors"][0]["shape"] == []
    loaded = load_paramset(path)
    assert loaded["s"].shape == ()
    assert bitwise_equal(original, loaded)
