"""Run configuration: flat key = value files, defaults, and validation.

Precedence is flags over config-file values over defaults.  Unknown keys
are rejected so a typo cannot silently fall back to a default.  Every
value is parsed once, by its field type, when the config is built.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Literal, Union, get_args, get_origin, get_type_hints

from .bias import LossKind
from .surgery import ALL_LAYERS, SurgeryMode

THREADS_ENV = "MERGE_SURGEON_THREADS"
# merge_algo values and the merging rule each one selects.
MERGE_ALGOS = {
    "avg": "weight_average",
    "ta": "task_arithmetic",
    "ties": "ties_merging",
    "ada": "ada_merging",
}


class ConfigError(ValueError):
    """Malformed config text, unknown key, or out-of-range value."""


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment; blanks ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def load_config_file(path) -> dict[str, str]:
    """:func:`parse_config_text` of the UTF-8 file at ``path``."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.start} is not UTF-8") from None
    return parse_config_text(text, source=str(path))


@dataclass(frozen=True)
class SurgeryData:
    """Unlabeled inputs surgery trains on: the test pools (neither field
    set), the mixture of a fresh suite drawn from ``wild_seed``, or one
    ordered pass over ``stream_fraction`` of each test pool."""

    wild_seed: int | None = None
    stream_fraction: float | None = None

    @classmethod
    def parse(cls, text: str) -> "SurgeryData":
        kind, _, arg = text.partition(":")
        if text == "test":
            return cls()
        if kind == "wild" and arg:
            seed = int(arg)
            if seed < 0:
                raise ValueError("the wild seed must be >= 0")
            return cls(wild_seed=seed)
        if kind == "stream" and arg:
            fraction = float(arg)
            if not 0 < fraction <= 1:
                raise ValueError("the stream fraction must lie in (0, 1]")
            return cls(stream_fraction=fraction)
        raise ValueError("expected test, wild:<seed>, or stream:<fraction>")

    def __str__(self) -> str:
        if self.wild_seed is not None:
            return f"wild:{self.wild_seed}"
        if self.stream_fraction is not None:
            # repr keeps "stream:1.0" as written, so run digests stay stable.
            return f"stream:{self.stream_fraction!r}"
        return "test"


def _parse(kind, text: str):
    """The value of field type ``kind`` that ``text`` spells; ValueError
    (or a subclass) if there is none."""
    if get_origin(kind) is Union:  # a type, or one literal word
        kind, word = get_args(kind)
        if text in get_args(word):
            return text
    if get_origin(kind) is tuple:
        return tuple(get_args(kind)[0](item) for item in text.split(","))
    if kind in (int, float):
        return kind(text)
    return kind.parse(text)


def _text(value) -> str:
    """Config-file spelling of a parsed value, read back by :func:`_parse`."""
    if isinstance(value, tuple):
        return ",".join(_text(v) for v in value)
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, LossKind):
        return value.value
    if isinstance(value, SurgeryMode):
        return value.label()
    return str(value)


@dataclass(frozen=True)
class RunConfig:
    """Every knob of the gen -> train -> merge -> surgery -> eval pipeline.

    Fields may be given as config text; it is parsed by the field type.
    """

    seed: int = 42
    tasks: int = 4
    dim: int = 16
    classes: int = 5
    n_train: int = 8000
    n_test: int = 2000
    hidden_dims: tuple[int, ...] = (32, 32, 32, 32, 32, 16)
    train_lr: float = 1e-3
    train_batch: int = 16
    pretrain_iters: int = 2000
    finetune_iters: int = 1000
    merge_algo: str = "ta"
    merge_scale: float | Literal["grid"] = "grid"
    scale_grid: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    ties_keep: float = 0.5
    ada_iters: int = 200
    surgery_mode: SurgeryMode | Literal["none"] = ALL_LAYERS
    surgery_rank: int = 16
    surgery_iters: int = 6000
    surgery_psi: LossKind = LossKind.L1
    surgery_data: SurgeryData = SurgeryData()

    def __post_init__(self):
        for name, kind in get_type_hints(RunConfig).items():
            value = getattr(self, name)
            if isinstance(value, str) and kind is not str:
                try:
                    object.__setattr__(self, name, _parse(kind, value))
                except ValueError as exc:
                    raise ConfigError(f"{name} = {value}: {exc}") from None
                value = getattr(self, name)
            items = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in items):
                raise ConfigError(f"{name} = {_text(value)}: values must be finite")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.tasks < 1 or self.dim < 2 or self.classes < 2:
            raise ConfigError("need tasks >= 1, dim >= 2, classes >= 2")
        if self.n_train < 1 or self.n_test < 1:
            raise ConfigError("split sizes must be positive")
        if len(self.hidden_dims) < 2 or any(d < 1 for d in self.hidden_dims):
            raise ConfigError("hidden_dims needs at least two positive widths")
        if self.hidden_dims[-1] < 2:
            raise ConfigError(
                f"hidden_dims = {_text(self.hidden_dims)}: the final width must be >= 2 "
                "for the 2-D projections"
            )
        if self.train_lr <= 0 or self.train_batch < 1:
            raise ConfigError("training settings out of range")
        if self.pretrain_iters < 1 or self.finetune_iters < 1:
            raise ConfigError("iteration counts must be >= 1")
        if self.merge_algo not in MERGE_ALGOS:
            raise ConfigError(f"unknown algorithm {self.merge_algo!r}")
        if not self.scale_grid:
            raise ConfigError("scale_grid must not be empty")
        if not 0 < self.ties_keep <= 1:
            raise ConfigError("ties_keep must lie in (0, 1]")
        if self.ada_iters < 1 or self.surgery_rank < 1 or self.surgery_iters < 1:
            raise ConfigError("iteration counts and rank must be >= 1")
        if self.surgery_mode != "none":
            try:
                self.surgery_mode.layer_indices(len(self.hidden_dims))
            except ValueError as exc:
                raise ConfigError(f"surgery_mode = {_text(self.surgery_mode)}: {exc}") from None

    @classmethod
    def from_sources(cls, file_values=None, overrides=None) -> "RunConfig":
        """Layer defaults, then file values, then flag overrides."""
        names = {item.name for item in fields(cls)}
        merged: dict[str, object] = {}
        for source in (file_values or {}), (overrides or {}):
            for key, value in source.items():
                if value is None:
                    continue
                if key not in names:
                    raise ConfigError(f"unknown config key {key!r}")
                merged[key] = value
        return cls(**merged)

    def to_text(self) -> str:
        return "".join(
            f"{item.name} = {_text(getattr(self, item.name))}\n" for item in fields(self)
        )


def worker_count() -> int:
    """Worker cap from MERGE_SURGEON_THREADS; 0 or unset means auto."""
    raw = os.environ.get(THREADS_ENV, "0")
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ConfigError(f"{THREADS_ENV} must be >= 0")
    return value if value > 0 else (os.cpu_count() or 1)


def map_over_tasks(fn, count: int) -> list:
    """Apply ``fn(task_index)`` for 0..count-1, in parallel when the worker
    cap allows; results are always ordered by task index."""
    workers = min(worker_count(), count)
    if workers <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))
