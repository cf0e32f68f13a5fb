"""The four merging rules that combine expert backbones into one model.

All merges operate on backbone entries only; task heads are never merged
and are always used per task at evaluation time.  Arithmetic runs in
float64 and is cast to float32 at the end, which keeps the documented
identities exact (mean of identical models, zero-scale task arithmetic,
single-expert ties).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .evaluation import collect_heads, evaluate
from .network import (
    ModelSpec,
    TrainConfig,
    backbone_adjoint_grads,
    entropy_loss_and_adjoint,
    forward_layers,
    random_batches,
    stack_batches,
)
from .tensors import ParamSet, head_name, is_backbone_name, shape_compatible

ALGORITHMS = ("weight_average", "task_arithmetic", "ties_merging", "ada_merging")


class MergeError(ValueError):
    """Incompatible inputs or a diverging merge optimization."""


@dataclass(frozen=True)
class MergeRecipe:
    """Algorithm selector plus the knobs that algorithm needs.

    ``coefficients`` is an output field: ada_merging fills it with the
    optimized (layers, tasks) matrix.
    """

    algorithm: str
    scale: float | None = None
    keep_fraction: float | None = None
    coefficients: np.ndarray | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise MergeError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm in ("task_arithmetic", "ties_merging") and self.scale is None:
            raise MergeError(f"{self.algorithm} requires a scale")
        if self.algorithm == "ties_merging":
            if self.keep_fraction is None or not 0 < self.keep_fraction <= 1:
                raise MergeError("keep_fraction must lie in (0, 1]")

    def to_text(self) -> str:
        lines = [f"algorithm = {self.algorithm}"]
        if self.scale is not None:
            lines.append(f"scale = {self.scale:.9g}")
        if self.keep_fraction is not None:
            lines.append(f"keep_fraction = {self.keep_fraction:.9g}")
        if self.coefficients is not None:
            coeff = np.asarray(self.coefficients)
            for layer in range(coeff.shape[0]):
                for task in range(coeff.shape[1]):
                    lines.append(f"coeff.{layer + 1}.{task} = {coeff[layer, task]:.9g}")
        return "\n".join(lines) + "\n"


def _backbone_names(params: Mapping[str, np.ndarray]) -> tuple[str, ...]:
    names = tuple(n for n in params if is_backbone_name(n))
    if not names:
        raise MergeError("parameter set has no backbone entries")
    return names


def _check_experts(reference: Mapping[str, np.ndarray], experts: Sequence[Mapping]) -> None:
    if not experts:
        raise MergeError("need at least one expert")
    ref = ParamSet(reference).backbone() if not isinstance(reference, ParamSet) else reference.backbone()
    for i, expert in enumerate(experts):
        exp = ParamSet(expert).backbone() if not isinstance(expert, ParamSet) else expert.backbone()
        if not shape_compatible(ref, exp):
            raise MergeError(f"expert {i} backbone is not shape-compatible")


def _check_scale(scale: float) -> None:
    if not math.isfinite(scale):
        raise MergeError(f"scale {scale!r} is not finite")


def _merged_paramset(merged64: Mapping[str, np.ndarray], scale: float) -> ParamSet:
    """The float32 parameter set of a float64 merge at ``scale``; a merge
    whose weights overflow float32 is a :class:`MergeError` naming the
    scale, with no numpy warning on the way."""
    with np.errstate(over="ignore"):
        cast = {name: value.astype(np.float32) for name, value in merged64.items()}
    if not all(np.isfinite(value).all() for value in cast.values()):
        raise MergeError(f"scale {scale:.9g}: the merged weights overflow float32")
    return ParamSet(cast)


def weight_average(experts: Sequence[Mapping[str, np.ndarray]]) -> ParamSet:
    """Elementwise mean of the expert backbones."""
    if not experts:
        raise MergeError("need at least one expert")
    _check_experts(experts[0], experts)
    names = _backbone_names(experts[0])
    out = {}
    for name in names:
        stack = np.stack([np.asarray(e[name], dtype=np.float64) for e in experts])
        out[name] = stack.mean(axis=0)
    return ParamSet(out)


def task_arithmetic(
    pretrained: Mapping[str, np.ndarray],
    experts: Sequence[Mapping[str, np.ndarray]],
    scale: float,
) -> ParamSet:
    """pretrained + scale * sum of task vectors, on backbone entries."""
    _check_scale(scale)
    _check_experts(pretrained, experts)
    names = _backbone_names(pretrained)
    out = {}
    for name in names:
        base = np.asarray(pretrained[name], dtype=np.float64)
        total = np.zeros_like(base)
        for expert in experts:
            total += np.asarray(expert[name], dtype=np.float64) - base
        with np.errstate(over="ignore"):
            out[name] = base + scale * total
    return _merged_paramset(out, scale)


def grid_search_scale(
    pretrained: Mapping[str, np.ndarray],
    experts: Sequence[ParamSet],
    spec: ModelSpec,
    candidates: Sequence[float],
    val_sets,
    merge: Callable[..., ParamSet] = task_arithmetic,
) -> float:
    """Candidate scale maximizing mean per-task validation accuracy of
    ``merge(pretrained, experts, scale)`` with the experts' task heads;
    ties go to the smaller scale.  Every candidate must be finite.
    """
    if not candidates:
        raise MergeError("empty candidate list")
    for scale in candidates:
        _check_scale(scale)
    heads = collect_heads(experts)
    best_scale = None
    best_acc = -1.0
    for scale in candidates:
        merged = merge(pretrained, experts, scale)
        result = evaluate(merged, heads, spec, val_sets, model_id=f"scale[{scale}]")
        if result.average > best_acc or (
            result.average == best_acc and scale < best_scale
        ):
            best_acc = result.average
            best_scale = scale
    return float(best_scale)


def _flatten_backbone(params: Mapping[str, np.ndarray], names: Sequence[str]) -> np.ndarray:
    return np.concatenate([np.asarray(params[n], dtype=np.float64).ravel() for n in names])


def _trim_keep_top(vector: np.ndarray, keep_fraction: float) -> np.ndarray:
    """Zero all but the ceil(keep_fraction * n) largest-|value| entries.

    Threshold ties are broken by parameter order: among equal magnitudes
    the earlier entry survives.
    """
    n = vector.size
    k = math.ceil(keep_fraction * n)
    if k >= n:
        return vector.copy()
    order = np.argsort(-np.abs(vector), kind="stable")
    trimmed = np.zeros_like(vector)
    kept = order[:k]
    trimmed[kept] = vector[kept]
    return trimmed


def ties_merge(
    pretrained: Mapping[str, np.ndarray],
    experts: Sequence[Mapping[str, np.ndarray]],
    scale: float,
    keep_fraction: float,
) -> ParamSet:
    """Trim / elect-sign / disjoint-mean merge of task vectors.

    Trim keeps the top ``keep_fraction`` of each task vector by magnitude
    across the whole vector; per coordinate the elected sign is the sign
    of the trimmed sum (zero sum contributes nothing) and only trimmed
    values matching that sign are averaged.
    """
    if not 0 < keep_fraction <= 1:
        raise MergeError("keep_fraction must lie in (0, 1]")
    _check_scale(scale)
    _check_experts(pretrained, experts)
    names = _backbone_names(pretrained)
    base = _flatten_backbone(pretrained, names)
    trimmed = np.stack(
        [
            _trim_keep_top(_flatten_backbone(e, names) - base, keep_fraction)
            for e in experts
        ]
    )
    elected = np.sign(trimmed.sum(axis=0))
    matches = (np.sign(trimmed) == elected) & (elected != 0)
    counts = matches.sum(axis=0)
    sums = np.where(matches, trimmed, 0.0).sum(axis=0)
    with np.errstate(over="ignore"):
        merged_flat = base + scale * np.divide(
            sums, counts, out=np.zeros_like(sums), where=counts > 0
        )
    out = {}
    offset = 0
    for name in names:
        shape = pretrained[name].shape
        count = int(np.prod(shape))
        out[name] = merged_flat[offset : offset + count].reshape(shape)
        offset += count
    return _merged_paramset(out, scale)


@dataclass(frozen=True)
class AdaMergeResult:
    params: ParamSet
    coefficients: np.ndarray
    entropies: tuple[float, ...]


def task_vectors(
    pretrained: Mapping[str, np.ndarray], experts: Sequence[Mapping[str, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """The pretrained backbone as one flat float64 (P,) vector and the
    experts' task vectors (expert minus pretrained) as the rows of a
    (T, P) matrix, both laid out block by block, weight before bias: the
    fixed inputs of :func:`ada_loss_and_gradient`."""
    names = sorted(  # block1.weight, block1.bias, block2.weight, ...
        _backbone_names(pretrained), key=lambda n: (int(n[5 : n.index(".")]), n.endswith("bias"))
    )
    pre64 = _flatten_backbone(pretrained, names)
    taus = np.stack([_flatten_backbone(e, names) - pre64 for e in experts])
    return pre64, taus


@functools.lru_cache(maxsize=16)
def _flat_layout(spec: ModelSpec) -> tuple[tuple[str, tuple[int, ...], int, int], ...]:
    """``(name, shape, start, stop)`` of each backbone entry of ``spec`` in
    the flat layout of :func:`task_vectors`, computed once per spec."""
    layout = []
    offset = 0
    for name, shape in spec.backbone_shapes().items():
        layout.append((name, shape, offset, offset + math.prod(shape)))
        offset += math.prod(shape)
    return tuple(layout)


def _stacked_heads(experts: Sequence[Mapping[str, np.ndarray]]) -> list[tuple]:
    """The experts' task heads in float64, stacked per head width: a list
    of ``(tasks, weights, biases)`` with (G, classes, d) weights and
    (G, classes) biases, the fixed head input of
    :func:`ada_loss_and_gradient`."""
    groups: dict[tuple, list[int]] = {}
    for task, expert in enumerate(experts):
        groups.setdefault(np.shape(expert[head_name(task, "weight")]), []).append(task)

    def stacked(tasks, kind):
        return np.stack([np.asarray(experts[t][head_name(t, kind)], np.float64) for t in tasks])

    return [(tasks, stacked(tasks, "weight"), stacked(tasks, "bias")) for tasks in groups.values()]


def _merge_flat(pre64: np.ndarray, taus: np.ndarray, coefficients, layout) -> dict:
    """The backbone ``pre64 + sum_t coefficients[l-1, t] * taus[t]`` on each
    layer l's entries, accumulated in task order, as views by name."""
    if layout[-1][3] != pre64.shape[-1]:
        raise MergeError(f"flat backbone has {pre64.shape[-1]} entries, spec needs {layout[-1][3]}")
    # Row l of coefficients, repeated over each entry of layer l (weight, bias).
    per_entry = np.repeat(
        np.repeat(np.asarray(coefficients, dtype=np.float64), 2, axis=0),
        [stop - start for _, _, start, stop in layout],
        axis=0,
    )
    merged = pre64.copy()
    for task, tau in enumerate(taus):
        merged += per_entry[:, task] * tau
    return {name: merged[start:stop].reshape(shape) for name, shape, start, stop in layout}


def ada_loss_and_gradient(
    pre64, taus, experts, spec: ModelSpec, coefficients, batches, heads=None
):
    """AdaMerging objective and its gradient for one batch per task.

    ``pre64`` and ``taus`` come from :func:`task_vectors`; the model is
    ``pre64 + sum_t coefficients[l-1, t] * taus[t]`` per layer l.  The
    loss is the mean over tasks of the softmax entropy of that model's
    predictions, each task scored through its own expert head on its own
    (input_dim, batch) matrix ``batches[t]``.  ``batches`` is a list of
    such matrices or one stacked (T, input_dim, batch) array; the T tasks
    run as one stacked pass through the shared merged blocks (one pass per
    batch and head shape), and each task's share is bitwise that of its
    own 2-D pass.  ``heads`` is :func:`_stacked_heads` of ``experts``,
    which a caller that steps many times computes once.  Returns the loss
    and its (layers, tasks) gradient with respect to ``coefficients``.
    """
    num_tasks = len(experts)
    if len(batches) != num_tasks:
        raise MergeError(f"need one batch per expert, got {len(batches)} for {num_tasks}")
    layout = _flat_layout(spec)
    merged64 = _merge_flat(pre64, taus, coefficients, layout)
    entropies = np.empty(num_tasks)
    task_grads = np.empty_like(taus)
    for tasks, weights, biases in _stacked_heads(experts) if heads is None else heads:
        by_shape: dict[tuple, list[int]] = {}
        for i, task in enumerate(tasks):
            by_shape.setdefault(np.shape(batches[task]), []).append(i)
        for rows in by_shape.values():
            group = [tasks[i] for i in rows]
            head_w, head_b = (weights, biases) if len(rows) == len(tasks) else (
                weights[rows], biases[rows]
            )
            x = stack_batches([batches[t] for t in group])
            layers = forward_layers(merged64, spec, x)
            entropy, dlogits = entropy_loss_and_adjoint(head_w @ layers[-1] + head_b[..., None])
            adjoint = head_w.swapaxes(-1, -2) @ dlogits
            grads = backbone_adjoint_grads(merged64, spec, x, layers, adjoint)
            entropies[group] = entropy
            task_grads[group] = np.concatenate(
                [grads[name].reshape(len(group), -1) for name, *_ in layout], axis=1
            )
    loss = 0.0
    for entropy in entropies.tolist():  # plain float additions in task order
        loss += entropy
    # dLoss/dTheta, accumulated in task order.
    theta_grad = task_grads[0] / num_tasks
    for grad in task_grads[1:]:
        theta_grad += grad / num_tasks
    # Merged weights are linear in the coefficients, so the coefficient
    # gradient is <dLoss/dTheta_l, tau_l>: one sum per entry and task.
    products = theta_grad * taus
    coeff_grad = np.zeros_like(coefficients)
    for entry, (_, _, start, stop) in enumerate(layout):
        coeff_grad[entry // 2] += products[:, start:stop].sum(axis=1)
    return loss / num_tasks, coeff_grad


# A diverging run ends in the MergeError of the entropy check; numpy's
# overflow warnings on the way would only add lines before it.
@np.errstate(over="ignore", invalid="ignore")
def ada_merge(
    pretrained: Mapping[str, np.ndarray],
    experts: Sequence[ParamSet],
    spec: ModelSpec,
    inputs_per_task: Sequence[np.ndarray],
    cfg: TrainConfig,
    init_coefficient: float = 0.3,
) -> AdaMergeResult:
    """Optimize layer-level merging coefficients by entropy minimization.

    ``inputs_per_task[t]`` is an (N_t, input_dim) matrix of unlabeled
    inputs for task t.  Coefficients start at ``init_coefficient`` and are
    updated by Adam on the mean softmax entropy of the merged model's
    predictions through each task's head.  Batch draws are seeded per
    task position, so results are reproducible for a fixed expert order
    but change when the experts are permuted; the closed-form merges are
    invariant to that order.
    """
    _check_experts(pretrained, experts)
    if len(inputs_per_task) != len(experts):
        raise MergeError("need one unlabeled input pool per expert")
    pools = [np.asarray(p, dtype=np.float64) for p in inputs_per_task]
    if any(p.ndim != 2 or p.shape[0] < 1 for p in pools):
        raise MergeError("unlabeled pools must be non-empty (samples, dim) matrices")

    pre64, taus = task_vectors(pretrained, experts)
    coefficients = np.full((spec.num_layers, len(experts)), float(init_coefficient))

    heads = _stacked_heads(experts)
    adam = cfg.make_adam()
    entropies = []
    state = {"coefficients": coefficients}
    batch_lists = random_batches(pools, cfg.batch_size, cfg.iterations, [cfg.seed, 4])
    for iteration, batches in enumerate(batch_lists, start=1):
        loss, grad = ada_loss_and_gradient(
            pre64, taus, experts, spec, coefficients, batches, heads
        )
        if not np.isfinite(loss):
            raise MergeError(f"non-finite entropy at iteration {iteration}")
        entropies.append(loss)
        adam.step(state, {"coefficients": grad})

    merged = ParamSet(_merge_flat(pre64, taus, coefficients, _flat_layout(spec)))
    return AdaMergeResult(
        params=merged, coefficients=coefficients.copy(), entropies=tuple(entropies)
    )


def merge_with_recipe(
    recipe: MergeRecipe,
    pretrained: Mapping[str, np.ndarray],
    experts: Sequence[ParamSet],
    spec: ModelSpec | None = None,
    inputs_per_task=None,
    cfg: TrainConfig | None = None,
) -> tuple[ParamSet, MergeRecipe]:
    """Dispatch a recipe; returns the merged backbone and the recipe with
    any output fields (ada coefficients) filled in."""
    if recipe.algorithm == "weight_average":
        return weight_average(experts), recipe
    if recipe.algorithm == "task_arithmetic":
        return task_arithmetic(pretrained, experts, recipe.scale), recipe
    if recipe.algorithm == "ties_merging":
        return ties_merge(pretrained, experts, recipe.scale, recipe.keep_fraction), recipe
    if spec is None or inputs_per_task is None or cfg is None:
        raise MergeError("ada_merging needs spec, unlabeled inputs, and a train config")
    result = ada_merge(pretrained, experts, spec, inputs_per_task, cfg)
    filled = MergeRecipe(
        algorithm=recipe.algorithm,
        scale=recipe.scale,
        keep_fraction=recipe.keep_fraction,
        coefficients=result.coefficients,
    )
    return result.params, filled
