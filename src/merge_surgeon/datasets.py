"""Synthetic multi-task classification suites and their CSV export.

A suite is the recipe of T Gaussian-blob classification tasks and one
pretraining mixture; each split and the mixture are drawn when a caller
asks for them.  Class means sit on the radius-3 sphere so an MLP can
separate them well without being linearly trivial; everything is a pure
function of the generation arguments.
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
# Samples per block of a pass over a sample set.  OpenBLAS picks its kernel
# by shape, so only some widths keep a whole-width trace's bits; this one
# did on every layer shape of the benchmark workloads.
_BLOCK_SAMPLES = 4096


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


def _sample_blocks(samples: int) -> list[slice]:
    """The blocks of at most ``_BLOCK_SAMPLES`` of ``samples`` samples, in order."""
    return [slice(start, min(start + _BLOCK_SAMPLES, samples))
            for start in range(0, samples, _BLOCK_SAMPLES)]


def _draw(rng, means: np.ndarray, n: int, first=None) -> tuple[np.ndarray, np.ndarray]:
    """``n`` labels from ``rng``, then float32 features ``means[labels]``
    plus unit normals drawn in :func:`_sample_blocks` of rows, and their
    float64 first column into ``first`` if given."""
    labels = rng.integers(0, means.shape[0], size=n)
    features = np.empty((n, means.shape[1]), np.float32)
    for rows in _sample_blocks(n):
        block = means[labels[rows]] + rng.standard_normal((rows.stop - rows.start, means.shape[1]))
        features[rows] = block
        if first is not None:
            first[rows] = block[:, 0]
    return features, labels


@dataclass(frozen=True)
class TaskSuite:
    """The recipe of T Gaussian classification tasks and a task-agnostic
    pretraining mixture: the generation arguments and the class means.

    Nothing is drawn until a caller asks: :meth:`split` draws one split of
    every task or of the tasks asked for, :meth:`mixture` the mixture,
    each from its own seeded stream, so every call gives the same bytes in
    any order and the caller holds only what it asked for.  ``class_means[t]`` holds the (C, d)
    generating means of task t, an oracle for sanity checks.
    """

    seed: int
    num_tasks: int
    dim: int
    num_classes: int
    n_train: int
    n_test: int
    class_means: tuple[np.ndarray, ...]

    def split(self, name: str, tasks=None) -> list[Dataset]:
        """Split ``name`` (train, validation or test) of each task of
        ``tasks`` (every task by default), in that order; validation and
        test hold ``n_test`` samples each."""
        if name not in _SPLIT_STREAMS:
            raise DataError(f"no split {name!r}; expected one of {', '.join(_SPLIT_STREAMS)}")
        size = self.n_train if name == "train" else self.n_test
        return [
            Dataset(*_draw(np.random.default_rng([self.seed, t, _SPLIT_STREAMS[name]]),
                           self.class_means[t], size), num_classes=self.num_classes)
            for t in (range(self.num_tasks) if tasks is None else tasks)
        ]

    def mixture(self) -> Dataset:
        """The equal-count union of fresh training-distribution draws from
        every task, relabeled by a shared ``num_classes``-quantile binning
        of each sample's first coordinate, taken in float64 before the
        features are rounded to float32."""
        n = self.n_train
        features = np.empty((self.num_tasks * n, self.dim), np.float32)
        first = np.empty(self.num_tasks * n)
        for t, means in enumerate(self.class_means):
            rows = slice(t * n, (t + 1) * n)
            rng = np.random.default_rng([self.seed, t, _MIXTURE_STREAM])
            features[rows] = _draw(rng, means, n, first[rows])[0]
        quantiles = [(i + 1) / self.num_classes for i in range(self.num_classes - 1)]
        labels = np.digitize(first, np.quantile(first, quantiles))
        return Dataset(features, labels, num_classes=self.num_classes)


def gen_task_suite(
    seed: int, num_tasks: int, dim: int, num_classes: int, n_train: int, n_test: int
) -> TaskSuite:
    """The recipe of a deterministic suite of Gaussian classification tasks.

    Per task, ``num_classes`` means are drawn uniformly on the radius-3
    sphere in R^dim; this draws only those.  Samples, drawn by
    :meth:`TaskSuite.split` and :meth:`TaskSuite.mixture`, are
    unit-variance Gaussians around them, drawn in blocks of rows, bitwise
    one whole draw, into float32.  The mixture carries generic structure
    but no task labels.
    """
    if num_tasks < 1 or dim < 2 or num_classes < 2:
        raise DataError("need num_tasks >= 1, dim >= 2, num_classes >= 2")
    if n_train < 1 or n_test < 1:
        raise DataError("split sizes must be positive")
    all_means = []
    for t in range(num_tasks):
        raw = np.random.default_rng([seed, t, _MEANS_STREAM]).standard_normal((num_classes, dim))
        means = 3.0 * raw / np.linalg.norm(raw, axis=1, keepdims=True)
        means.setflags(write=False)
        all_means.append(means)
    return TaskSuite(seed, num_tasks, dim, num_classes, n_train, n_test, tuple(all_means))


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
