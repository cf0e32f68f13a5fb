"""Float32 tensor values, named parameter collections, and the name scheme.

Parameter names follow a fixed contract: backbone entries are
``block{l}.weight`` / ``block{l}.bias`` with 1-based layer index ``l``,
task heads are ``head.{task}.weight`` / ``head.{task}.bias``.  Only
``network.ModelSpec`` names, orders and checks the backbone entries.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping

import numpy as np

_BLOCK_RE = re.compile(r"^block\d+\.(weight|bias)$")


class MergeSurgeonError(ValueError):
    """Base class of every domain error: the CLI ends one in a one-line
    message."""


class TensorError(MergeSurgeonError):
    """Raised for non-finite values, bad shapes, or name violations."""


def as_tensor(values) -> np.ndarray:
    """Coerce ``values`` to a read-only, C-ordered float32 array.

    Rejects NaN/Inf and zero-length dimensions; every tensor in a
    parameter collection must hold at least one finite value.
    """
    arr = np.array(values, dtype=np.float32, order="C")
    if any(dim < 1 for dim in arr.shape):
        raise TensorError(f"tensor has a non-positive dimension: shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise TensorError("tensor contains non-finite values")
    arr.setflags(write=False)
    return arr


def block_name(layer: int, kind: str) -> str:
    return f"block{layer}.{kind}"


def head_name(task, kind: str) -> str:
    return f"head.{task}.{kind}"


def is_backbone_name(name: str) -> bool:
    return _BLOCK_RE.match(name) is not None


class ParamSet(Mapping):
    """Ordered, immutable mapping from parameter name to float32 array.

    Iteration order is insertion order.  Values are validated once at
    construction and shared read-only afterwards, so a ParamSet is safe
    to hand to concurrent readers.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, np.ndarray] | Iterable[tuple[str, np.ndarray]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        out: dict[str, np.ndarray] = {}
        for name, values in items:
            if not isinstance(name, str) or not name:
                raise TensorError(f"parameter name must be a non-empty string, got {name!r}")
            if name in out:
                raise TensorError(f"duplicate parameter name {name!r}")
            out[name] = as_tensor(values)
        self._entries = out

    def __getitem__(self, name: str) -> np.ndarray:
        return self._entries[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{v.shape}" for n, v in self._entries.items())
        return f"ParamSet({inner})"
