"""Synthetic multi-task classification suites and their CSV export.

A suite holds T Gaussian-blob classification tasks and one pretraining
mixture.  Class means sit on the radius-3 sphere so an MLP can separate
them well without being linearly trivial; everything is a pure function
of the generation arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensors import MergeSurgeonError

# Stream tags so adding one split never shifts another split's draws.
_SPLIT_STREAMS = {"train": 0, "validation": 1, "test": 2}
_MEANS_STREAM = 3
_MIXTURE_STREAM = 4
# Rows formatted per write: a bounded string, and few enough that the
# float64 chunk stays small.
_CHUNK_ROWS = 256


class DataError(MergeSurgeonError):
    """Raised for malformed datasets or unreadable CSV input."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (N, d) with integer labels in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float32)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[0] < 1:
            raise DataError(f"features must be a non-empty 2-D matrix, got {features.shape}")
        if labels.shape != (features.shape[0],):
            raise DataError("labels must be one integer per row")
        if not np.isfinite(features).all():
            raise DataError("features contain non-finite values")
        if self.num_classes < 1:
            raise DataError("num_classes must be positive")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise DataError(f"labels must lie in [0, {self.num_classes})")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def inputs(self) -> np.ndarray:
        """Features transposed to (d, N), the layout the network consumes."""
        return self.features.T


@dataclass(frozen=True)
class TaskData:
    train: Dataset
    validation: Dataset
    test: Dataset


@dataclass(frozen=True)
class TaskSuite:
    """T task datasets plus a task-agnostic pretraining mixture.

    ``class_means[t]`` holds the (C, d) generating means of task t; they
    are generation metadata, useful as an oracle for sanity checks.
    """

    tasks: tuple[TaskData, ...]
    mixture: Dataset
    class_means: tuple[np.ndarray, ...]

    def test_inputs(self) -> list[np.ndarray]:
        return [task.test.features for task in self.tasks]


def _sample_split(rng: np.random.Generator, means: np.ndarray, n: int) -> Dataset:
    c, d = means.shape
    labels = rng.integers(0, c, size=n)
    features = means[labels] + rng.standard_normal((n, d))
    return Dataset(features.astype(np.float32), labels, num_classes=c)


def gen_task_suite(
    seed: int, num_tasks: int, dim: int, num_classes: int, n_train: int, n_test: int
) -> TaskSuite:
    """Generate a deterministic suite of Gaussian classification tasks.

    Per task, ``num_classes`` means are drawn uniformly on the radius-3
    sphere in R^dim and samples are unit-variance Gaussians around them.
    The validation split matches the test split in size.  The mixture is
    the equal-count union of fresh training-distribution draws from every
    task, relabeled by a shared ``num_classes``-quantile binning of the
    first feature coordinate, so it carries generic structure but no task
    labels.
    """
    if num_tasks < 1 or dim < 2 or num_classes < 2:
        raise DataError("need num_tasks >= 1, dim >= 2, num_classes >= 2")
    if n_train < 1 or n_test < 1:
        raise DataError("split sizes must be positive")

    all_means = []
    tasks = []
    for t in range(num_tasks):
        means_rng = np.random.default_rng([seed, t, _MEANS_STREAM])
        raw = means_rng.standard_normal((num_classes, dim))
        means = 3.0 * raw / np.linalg.norm(raw, axis=1, keepdims=True)
        all_means.append(means)
        splits = {}
        for split, size in (("train", n_train), ("validation", n_test), ("test", n_test)):
            rng = np.random.default_rng([seed, t, _SPLIT_STREAMS[split]])
            splits[split] = _sample_split(rng, means, size)
        tasks.append(TaskData(splits["train"], splits["validation"], splits["test"]))

    mix_parts = []
    for t in range(num_tasks):
        rng = np.random.default_rng([seed, t, _MIXTURE_STREAM])
        labels = rng.integers(0, num_classes, size=n_train)
        mix_parts.append(all_means[t][labels] + rng.standard_normal((n_train, dim)))
    mix_features = np.concatenate(mix_parts, axis=0)
    first = mix_features[:, 0]
    thresholds = np.quantile(first, [(i + 1) / num_classes for i in range(num_classes - 1)])
    mix_labels = np.digitize(first, thresholds)
    mixture = Dataset(mix_features.astype(np.float32), mix_labels, num_classes=num_classes)

    means_frozen = []
    for means in all_means:
        arr = means.astype(np.float64)
        arr.setflags(write=False)
        means_frozen.append(arr)

    return TaskSuite(tasks=tuple(tasks), mixture=mixture, class_means=tuple(means_frozen))


def write_csv(path, header, blocks, line_end: str = "\r\n") -> None:
    """Write ``header`` joined by commas (no name may hold a comma or a
    quote), then one line ``row_format % row`` per row of each
    ``(row_format, columns)`` block in turn.

    A block's columns are 1-D or 2-D arrays of one length, laid side by
    side (a 1-D array is one column).  Rows are formatted ``_CHUNK_ROWS``
    at a time, so the file is never held as one string.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + line_end)
        for row_format, columns in blocks:
            line = row_format + line_end
            for start in range(0, len(columns[0]), _CHUNK_ROWS):
                rows = np.column_stack([c[start:start + _CHUNK_ROWS] for c in columns])
                fh.write((line * len(rows)) % tuple(rows.ravel().tolist()))


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV; float text is exact to the float32 value."""
    # 9 significant digits round-trip any binary32 value exactly; ``%d``
    # prints the label, which the float64 row holds exactly.
    row_format = ",".join(["%.9g"] * dataset.dim + ["%d"])
    header = [f"f{i}" for i in range(dataset.dim)] + ["label"]
    write_csv(path, header, [(row_format, (dataset.features, dataset.labels))])
