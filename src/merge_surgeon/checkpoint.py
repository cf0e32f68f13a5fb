"""Bit-exact binary checkpoint format for parameter collections.

Layout::

    bytes 0..7    magic b"MSRG0001"
    bytes 8..15   little-endian uint64 header length H
    bytes 16..    UTF-8 JSON header: {"tensors": [{name, shape, offset}, ...]}
    bytes 16+H..  contiguous little-endian float32 payloads in header order

Offsets are relative to the start of the payload region and must be
contiguous; a round-trip through save/load is bitwise stable.  A name is
a non-empty string, a shape a list of JSON integers >= 1 (``[]`` for a
0-d tensor) and an offset an integer; anything else is a CheckpointError.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .tensors import MergeSurgeonError, ParamSet

MAGIC = b"MSRG0001"


class CheckpointError(MergeSurgeonError):
    """A checkpoint file that cannot be read; the message names the fault."""


def _is_int(value) -> bool:
    """True for a JSON integer; JSON ``true`` loads as a bool, which
    Python counts as an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def save_paramset(params: ParamSet, path) -> None:
    entries = []
    offset = 0
    payloads = []
    for name, value in params.items():
        data = np.ascontiguousarray(value, dtype="<f4")
        entries.append({"name": name, "shape": list(value.shape), "offset": offset})
        payloads.append(data.tobytes())
        offset += data.nbytes
    header = json.dumps({"tensors": entries}, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for blob in payloads:
            fh.write(blob)


def load_paramset(path) -> ParamSet:
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC):
        raise CheckpointError(f"{path}: file shorter than magic")
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:len(MAGIC)]!r}")
    if len(raw) < 16:
        raise CheckpointError(f"{path}: missing header length")
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header_end = 16 + header_len
    if len(raw) < header_end:
        raise CheckpointError(f"{path}: header truncated")
    try:
        header = json.loads(raw[16:header_end].decode("utf-8"))
        descriptors = header["tensors"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc})") from exc

    if not isinstance(descriptors, list) or not all(isinstance(d, dict) for d in descriptors):
        raise CheckpointError(f"{path}: 'tensors' must be a list of objects")

    payload = raw[header_end:]
    entries = []
    expected_offset = 0
    seen = set()
    for desc in descriptors:
        try:
            name, shape, offset = desc["name"], desc["shape"], desc["offset"]
        except KeyError as exc:
            raise CheckpointError(f"{path}: tensor descriptor without {exc}") from None
        if not isinstance(name, str) or not name:
            raise CheckpointError(
                f"{path}: tensor 'name' must be a non-empty string, got {name!r}"
            )
        if not isinstance(shape, list) or not all(map(_is_int, shape)):
            raise CheckpointError(f"{path}: tensor {name!r} 'shape' must be a list of integers")
        if not _is_int(offset):
            raise CheckpointError(f"{path}: tensor {name!r} 'offset' must be an integer")
        shape = tuple(shape)
        if name in seen:
            raise CheckpointError(f"{path}: duplicate tensor name {name!r}")
        seen.add(name)
        if any(d < 1 for d in shape):
            raise CheckpointError(f"{path}: non-positive dimension in shape {shape}")
        if offset != expected_offset:
            raise CheckpointError(
                f"{path}: non-contiguous payload (tensor {name!r} at {offset}, "
                f"expected {expected_offset})"
            )
        count = math.prod(shape)  # Python ints: a huge shape cannot wrap
        nbytes = count * 4
        if offset + nbytes > len(payload):
            raise CheckpointError(f"{path}: payload truncated at tensor {name!r}")
        data = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: non-finite values in tensor {name!r}")
        entries.append((name, data.reshape(shape)))
        expected_offset = offset + nbytes
    if expected_offset != len(payload):
        raise CheckpointError(
            f"{path}: {len(payload) - expected_offset} trailing payload bytes"
        )
    return ParamSet(entries)
