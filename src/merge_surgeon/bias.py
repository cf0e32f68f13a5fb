"""Representation-bias metrics, layer-wise reports, and 2-D projections.

The bias between a merged-model trace and an expert trace is a
dimension- and sample-normalized distance, so values are comparable
across layers of different widths.  All three distance kinds report 0
for perfectly aligned representations.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .network import ModelSpec
from .tensors import MergeSurgeonError, ParamSet


class BiasError(MergeSurgeonError):
    """Shape mismatch or degenerate input in a bias computation."""


class LossKind(enum.Enum):
    """Distance used both as alignment training loss and bias metric."""

    L1 = "l1"
    MSE = "mse"
    NEG_COSINE = "cos"

    @classmethod
    def parse(cls, text: str) -> "LossKind":
        try:
            return cls(text)
        except ValueError:
            raise BiasError(f"unknown loss kind {text!r} (expected l1, mse, or cos)") from None


# The trace shapes of each rank: a pair, T tasks' pairs, or L layers' stacks of them.
_TRACE_SHAPES = {2: "(dim, samples)", 3: "(T, dim, samples)", 4: "(L, T, dim, samples)"}


def _check_pair(z_a: np.ndarray, z_b: np.ndarray, ndims=(2,)) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(z_a)
    b = np.asarray(z_b)
    if a.shape != b.shape:
        raise BiasError(f"trace shapes differ: {a.shape} vs {b.shape}")
    if a.ndim not in ndims or a.shape[-1] < 1:
        shapes = " or ".join(_TRACE_SHAPES[n] for n in ndims)
        raise BiasError(f"traces must be {shapes} with at least one sample, got {a.shape}")
    return a, b


def _cosine_parts(a: np.ndarray, b: np.ndarray):
    """Per-column cosine and norms over the dim axis (-2), kept as a
    length-1 axis so they broadcast against ``a``, plus the mask of
    columns that are all zero in either input.

    A column that is zero in both inputs has cosine 1 and one that is
    zero in only one has cosine 0; the masked norms read 1 there.
    """
    norm_a = np.linalg.norm(a, axis=-2, keepdims=True)
    norm_b = np.linalg.norm(b, axis=-2, keepdims=True)
    dead_a, dead_b = norm_a == 0, norm_b == 0
    norm_a = np.where(dead_a, 1.0, norm_a)
    norm_b = np.where(dead_b, 1.0, norm_b)
    cos = (a * b).sum(axis=-2, keepdims=True) / (norm_a * norm_b)
    cos = np.where(dead_a & dead_b, 1.0, cos)
    return cos, norm_a, norm_b, dead_a | dead_b


def representation_bias(z_mtl: np.ndarray, z_ind: np.ndarray, kind: LossKind) -> float:
    """Normalized distance between two (dim, samples) representation sets.

    L1 and MSE average over every entry; NEG_COSINE averages (1 - cosine)
    over samples so 0 means aligned for every kind.  L1 and MSE take the
    float64 difference of the inputs as given, with no float64 copy of
    either, so float32 traces cost one float64 array.
    """
    total, count = _distance_sum(*_check_pair(z_mtl, z_ind), kind)
    return total / count


def _distance_sum(a: np.ndarray, b: np.ndarray, kind: LossKind) -> tuple[float, int]:
    """The float64 sum of what :func:`representation_bias` averages, and its count."""
    if kind is LossKind.NEG_COSINE:
        cos = _cosine_parts(np.asarray(a, np.float64), np.asarray(b, np.float64))[0]
        return float((1.0 - cos).sum()), cos.size
    diff = np.subtract(a, b, dtype=np.float64)
    (np.abs if kind is LossKind.L1 else np.square)(diff, out=diff)
    return float(diff.sum()), diff.size


def alignment_loss_and_grad(
    z_hat: np.ndarray, z_ind: np.ndarray, kind: LossKind
) -> tuple[float, np.ndarray]:
    """Training objective for surgery plus its gradient w.r.t. ``z_hat``,
    computed in the inputs' dtype (float32 in surgery training).

    For L1 and MSE the value coincides with :func:`representation_bias`;
    for NEG_COSINE the raw mean negative cosine is optimized (same
    gradient as 1 - cosine, shifted value); a column that is all zero in
    either input takes zero gradient, as the ReLU does at 0.  Stacked
    ``(T, dim, samples)`` inputs return a (T,) array of losses, and
    ``(L, T, dim, samples)`` stacks of L layers of one width an (L, T)
    array; each slice's loss and gradient is bitwise the 2-D call's on
    that slice.
    """
    a, b = _check_pair(z_hat, z_ind, ndims=(2, 3, 4))
    axes = None if a.ndim == 2 else (-2, -1)
    count = a.shape[-2] * a.shape[-1]
    # Means as the sum and division that ndarray.mean performs, without
    # its per-call wrapper: this runs once per layer and surgery step.
    if kind is LossKind.L1:
        diff = a - b
        loss, grad = np.add.reduce(np.abs(diff), axis=axes) / count, np.sign(diff) / count
    elif kind is LossKind.MSE:
        diff = a - b
        loss, grad = np.add.reduce(np.square(diff), axis=axes) / count, 2.0 * diff / count
    else:
        cos, norm_a, norm_b, dead = _cosine_parts(a, b)
        samples = a.shape[-1]
        grad = -(b / (norm_a * norm_b) - a * (cos / np.square(norm_a))) / samples
        grad = np.where(dead, 0.0, grad)
        loss = -(np.add.reduce(cos, axis=axes) / samples)
    return (float(loss) if axes is None else loss), grad


@dataclass(frozen=True)
class BiasReport:
    """Per-layer, per-task bias values of the model ``model_id``; the
    metric that produced them is the caller's and is not stored."""

    values: np.ndarray  # (num_layers, num_tasks)
    model_id: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise BiasError("bias values must be a (layers, tasks) matrix")
        if not np.isfinite(values).all() or (values < 0).any():
            raise BiasError("bias values must be finite and non-negative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def num_layers(self) -> int:
        return self.values.shape[0]

    @property
    def num_tasks(self) -> int:
        return self.values.shape[1]

    def layer_means(self) -> np.ndarray:
        """Across-task mean per layer, the depth-profile curve."""
        return self.values.mean(axis=1)

    def to_csv_text(self) -> str:
        lines = ["task,layer,value"]
        for task in range(self.num_tasks):
            for layer in range(1, self.num_layers + 1):
                lines.append(f"{task},{layer},{self.values[layer - 1, task]:.9g}")
        return "\n".join(lines) + "\n"


def layerwise_bias_report(
    merged: Mapping[str, np.ndarray],
    experts: Sequence[ParamSet],
    spec: ModelSpec,
    inputs_per_task: Sequence[np.ndarray],
    psi: LossKind,
    stack=None,
    model_id: str = "merged",
    final_traces=None,
) -> BiasReport:
    """Bias of the merged model against each expert, per layer and task.

    ``inputs_per_task[t]`` is an (N_t, input_dim) feature matrix, checked
    by ``spec.pools`` as ``inputs`` and not copied.  With a surgery
    ``stack`` the merged trace is the corrected in-path one, showing
    post-surgery alignment.  A ``final_traces(task, merged_blocks,
    expert_blocks)`` hook receives each task's final-layer column blocks,
    so no caller traces again; they are dropped once it returns.

    Before any trace, ``spec.backbone`` checks and copies ``merged``
    and every expert once to float32, as ``merged`` and ``expert <t>``.
    Each task is walked in :func:`_walk_blocks`, its two traces in lockstep
    and scored one layer at a time, so the report holds one layer of one
    block of each; a layer's float64 distance sums are added across blocks
    and divided once.  An error of the expert trace is raised once the
    merged trace is done, so the merged model's overflow is named first.
    """
    # Imported here: surgery imports this module for LossKind and the
    # alignment loss, so a module-level import would be circular.
    from .surgery import _walk_blocks, trace_layers

    if len(experts) != spec.num_tasks:
        raise BiasError(f"got {len(experts)} experts for the spec's {spec.num_tasks} tasks")
    inputs_per_task = spec.pools(inputs_per_task, "inputs", None)
    merged32 = spec.backbone(merged, "merged", np.float32)
    experts32 = [spec.backbone(e, f"expert {t}", np.float32) for t, e in enumerate(experts)]
    values = np.zeros((spec.num_layers, len(experts)))
    for task, (expert32, features) in enumerate(zip(experts32, inputs_per_task)):
        x = features.T
        sums = np.zeros((spec.num_layers, 2))  # per layer: distance sum, count

        def walk(columns):
            merged_layers = trace_layers(merged32, spec, stack, x[:, columns], task)
            expert_layers = trace_layers(expert32, spec, None, x[:, columns], task)
            for layer, merged_z in enumerate(merged_layers):
                try:
                    expert_z = next(expert_layers)
                except MergeSurgeonError:
                    for _ in merged_layers:
                        pass
                    raise
                sums[layer] += _distance_sum(merged_z, expert_z, psi)
            return merged_z, expert_z

        if final_traces is None:
            for _ in _walk_blocks(walk, x.shape[1]):
                pass
        else:
            final_traces(task, *zip(*_walk_blocks(walk, x.shape[1])))
        values[:, task] = sums[:, 0] / sums[:, 1]
    return BiasReport(values=values, model_id=model_id)


def pca_project(reps) -> np.ndarray:
    """Project (dim, samples) representations, one matrix or a sequence of
    (dim, n_i) column blocks of one, onto their top-2 principal directions,
    the top eigenvectors of the Gram matrix of the data centered by rows.
    Each pass reads a float64 copy of one block at a time, so equal float32
    and float64 inputs project alike.  The sign of each direction makes its
    largest-magnitude loading positive, so output is deterministic.
    """
    blocks = [reps] if isinstance(reps, np.ndarray) else list(reps)
    heights = {np.shape(b)[0] if np.ndim(b) == 2 else 0 for b in blocks}
    if len(heights) != 1 or min(heights) < 2:
        raise BiasError("need a (dim >= 2, samples) matrix")
    samples = sum(np.shape(b)[1] for b in blocks)
    if samples < 2:
        raise BiasError("need at least two samples")
    copies = (np.array(b, dtype=np.float64, order="C") for b in blocks)
    mean = sum(data.sum(axis=1, keepdims=True) for data in copies) / samples

    def centered(block):
        return np.subtract(block, mean, dtype=np.float64, order="C")

    gram = sum(data @ data.T for data in map(centered, blocks))
    # eigh lists eigenvalues in ascending order: the top two come last.
    _, vectors = np.linalg.eigh(gram)
    components = vectors[:, :-3:-1].T
    for i in range(2):
        lead = np.argmax(np.abs(components[i]))
        if components[i, lead] < 0:
            components[i] = -components[i]
    return np.concatenate([components @ centered(block) for block in blocks], axis=1)
