"""The four merging rules that combine expert backbones into one model.

All merges operate on backbone entries only; task heads are never merged
and are always used per task at evaluation time.  Arithmetic runs in
float64 and is cast to float32 at the end, which keeps the documented
identities exact (mean of identical models, zero-scale task arithmetic,
single-expert ties).
"""

from __future__ import annotations

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
    _check_experts(pretrained, experts)
    names = _backbone_names(pretrained)
    out = {}
    for name in names:
        base = np.asarray(pretrained[name], dtype=np.float64)
        total = np.zeros_like(base)
        for expert in experts:
            total += np.asarray(expert[name], dtype=np.float64) - base
        out[name] = base + scale * total
    return ParamSet(out)


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
    ties go to the smaller scale.
    """
    if not candidates:
        raise MergeError("empty candidate list")
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
    return ParamSet(out)


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


def _flat_layout(spec: ModelSpec) -> list[tuple[str, tuple[int, ...], int, int]]:
    """``(name, shape, start, stop)`` of each backbone entry of ``spec`` in
    the flat layout of :func:`task_vectors`."""
    layout = []
    offset = 0
    for name, shape in spec.backbone_shapes().items():
        layout.append((name, shape, offset, offset + math.prod(shape)))
        offset += math.prod(shape)
    return layout


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


def ada_loss_and_gradient(pre64, taus, experts, spec: ModelSpec, coefficients, batches):
    """AdaMerging objective and its gradient for one batch per task.

    ``pre64`` and ``taus`` come from :func:`task_vectors`; the model is
    ``pre64 + sum_t coefficients[l-1, t] * taus[t]`` per layer l.  The
    loss is the mean over tasks of the softmax entropy of that model's
    predictions, each task scored through its own expert head on its own
    (input_dim, batch) matrix ``batches[t]``.  ``batches`` is a list of
    such matrices or one stacked (T, input_dim, batch) array; the T tasks
    run as one stacked pass through the shared merged blocks (one pass per
    batch and head shape), and each task's share is bitwise that of its
    own 2-D pass.  Returns the loss and its (layers, tasks) gradient with
    respect to ``coefficients``.
    """
    num_tasks = len(experts)
    if len(batches) != num_tasks:
        raise MergeError(f"need one batch per expert, got {len(batches)} for {num_tasks}")
    layout = _flat_layout(spec)
    merged64 = _merge_flat(pre64, taus, coefficients, layout)
    heads = [
        [np.asarray(expert[head_name(task, kind)], dtype=np.float64) for kind in ("weight", "bias")]
        for task, expert in enumerate(experts)
    ]
    groups: dict[tuple, list[int]] = {}
    for task, x in enumerate(batches):
        groups.setdefault((np.shape(x), heads[task][0].shape), []).append(task)
    entropies = np.empty(num_tasks)
    task_grads = np.empty_like(taus)
    for group in groups.values():
        x = stack_batches([batches[t] for t in group])
        layers = forward_layers(merged64, spec, x)
        head_w = np.stack([heads[t][0] for t in group])
        head_b = np.stack([heads[t][1] for t in group])
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

    adam = cfg.make_adam()
    entropies = []
    state = {"coefficients": coefficients}
    batch_lists = random_batches(pools, cfg.batch_size, cfg.iterations, [cfg.seed, 4])
    for iteration, batches in enumerate(batch_lists, start=1):
        loss, grad = ada_loss_and_gradient(pre64, taus, experts, spec, coefficients, batches)
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
