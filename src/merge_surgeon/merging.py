"""The four merging rules that combine expert backbones into one model.

All merges operate on backbone entries only; task heads are never merged
and are always used per task at evaluation time.  Every rule takes the
run's :class:`ModelSpec` and works on one flat layout of its backbone,
block by block and weight before bias: ``spec.backbone`` checks and
copies the pretrained model and each expert into the float64 rows of one
matrix, the rule combines those rows, and one exit casts the result to
float32 and splits it by name.  So merged sets list their entries in
block order, and the single rounding at the end keeps the documented
identities exact (mean of identical models, zero-scale task arithmetic,
single-expert ties).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .config import MERGE_ALGOS
from .evaluation import collect_heads, evaluate
from .network import (
    Adam,
    ModelSpec,
    TrainConfig,
    backbone_adjoint_grads,
    entropy_loss_and_adjoint,
    forward_layers,
    random_batches,
)
from .tensors import MergeSurgeonError, ParamSet, head_name

# AdaMerging's starting coefficients: task arithmetic at scale 0.3.
_ADA_INIT = 0.3


class MergeError(MergeSurgeonError):
    """Incompatible inputs or a diverging merge optimization."""


@dataclass(frozen=True)
class MergeRecipe:
    """Merging rule, one of the values of ``config.MERGE_ALGOS``, plus the
    knobs that rule needs.

    ``coefficients`` is an output field: ada_merging fills it with the
    optimized (layers, tasks) matrix.
    """

    algorithm: str
    scale: float | None = None
    keep_fraction: float | None = None
    coefficients: np.ndarray | None = None

    def __post_init__(self):
        if self.algorithm not in MERGE_ALGOS.values():
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


@functools.lru_cache(maxsize=16)
def _flat_layout(spec: ModelSpec) -> tuple:
    """``(name, shape, start, stop)`` of each entry of ``spec``'s backbone
    in the one flat layout, the order of ``spec.backbone_shapes()``: block
    by block, weight before bias.  Computed once per spec."""
    layout, stop = [], 0
    for name, shape in spec.backbone_shapes().items():
        start, stop = stop, stop + math.prod(shape)
        layout.append((name, shape, start, stop))
    return tuple(layout)


def _flat_rows(
    spec: ModelSpec, pretrained: Mapping | None, experts: Sequence[Mapping]
) -> np.ndarray:
    """The float64 matrix whose rows are ``pretrained`` (left out when
    None) and then each expert, in the :func:`_flat_layout` of ``spec``,
    each filled from ``spec.backbone`` under the name ``pretrained`` or
    ``expert <t>``, which its rejection carries."""
    if not experts:
        raise MergeError("need at least one expert")
    models = [] if pretrained is None else [("pretrained", pretrained)]
    models += [(f"expert {t}", params) for t, params in enumerate(experts)]
    layout = _flat_layout(spec)
    rows = np.empty((len(models), layout[-1][3]))
    for row, (what, params) in enumerate(models):
        backbone = spec.backbone(params, what, np.float64)
        for name, _, start, stop in layout:
            rows[row, start:stop] = backbone[name].ravel()
    return rows


def _by_name(layout: tuple, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Views of the entries of the flat backbone ``flat``, by name."""
    return {name: flat[start:stop].reshape(shape) for name, shape, start, stop in layout}


def _float32_params(spec: ModelSpec, merged: np.ndarray, what: str) -> ParamSet:
    """The float32 parameter set of ``spec``'s flat float64 backbone
    ``merged``.  Weights that overflow float32 are a :class:`MergeError`
    naming ``what``, with no numpy warning on the way."""
    with np.errstate(over="ignore"):
        cast = merged.astype(np.float32)
    if not np.isfinite(cast).all():
        raise MergeError(f"{what}: the merged weights overflow float32")
    return ParamSet(_by_name(_flat_layout(spec), cast))


def _check_scale(scale: float) -> None:
    if not math.isfinite(scale):
        raise MergeError(f"scale {scale!r} is not finite")


def weight_average(experts: Sequence[Mapping[str, np.ndarray]], spec: ModelSpec) -> ParamSet:
    """Elementwise mean of the expert backbones."""
    rows = _flat_rows(spec, None, experts)
    return _float32_params(spec, rows.mean(axis=0), "weight average")


def task_arithmetic(
    pretrained: Mapping[str, np.ndarray],
    experts: Sequence[Mapping[str, np.ndarray]],
    spec: ModelSpec,
    scale: float,
) -> ParamSet:
    """pretrained + scale * sum of task vectors, on backbone entries."""
    _check_scale(scale)
    rows = _flat_rows(spec, pretrained, experts)
    base = rows[0]
    total = np.zeros_like(base)
    for tau in rows[1:] - base:  # summed in task order
        total += tau
    with np.errstate(over="ignore"):
        merged = base + scale * total
    return _float32_params(spec, merged, f"scale {scale:.9g}")


def grid_search_scale(
    pretrained: Mapping[str, np.ndarray],
    experts: Sequence[ParamSet],
    spec: ModelSpec,
    candidates: Sequence[float],
    val_sets,
    merge: Callable[..., ParamSet] = task_arithmetic,
) -> float:
    """Candidate scale maximizing mean per-task validation accuracy of
    ``merge(pretrained, experts, spec, scale)`` with the experts' task
    heads; ties go to the smaller scale.  Every candidate must be finite.
    """
    if not candidates:
        raise MergeError("empty candidate list")
    for scale in candidates:
        _check_scale(scale)
    heads = collect_heads(experts, spec)

    def accuracy(scale):
        return evaluate(merge(pretrained, experts, spec, scale), heads, spec, val_sets).average

    return float(max(candidates, key=lambda scale: (accuracy(scale), -scale)))


def _trim_keep_top(vector: np.ndarray, keep_fraction: float) -> None:
    """Zero, in place, all but the ceil(keep_fraction * n) largest-|value|
    entries of the flat backbone ``vector``.

    Threshold ties are broken by the flat layout: among equal magnitudes
    the entry that comes first in it (earlier block, weight before bias)
    survives.
    """
    k = math.ceil(keep_fraction * vector.size)
    vector[np.argsort(-np.abs(vector), kind="stable")[k:]] = 0.0


def ties_merge(
    pretrained: Mapping[str, np.ndarray],
    experts: Sequence[Mapping[str, np.ndarray]],
    spec: ModelSpec,
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
    rows = _flat_rows(spec, pretrained, experts)
    base = rows[0]
    trimmed = rows[1:] - base
    for tau in trimmed:
        _trim_keep_top(tau, keep_fraction)
    elected = np.sign(trimmed.sum(axis=0))
    matches = (np.sign(trimmed) == elected) & (elected != 0)
    counts = matches.sum(axis=0)
    sums = np.where(matches, trimmed, 0.0).sum(axis=0)
    with np.errstate(over="ignore"):
        merged = base + scale * np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return _float32_params(spec, merged, f"scale {scale:.9g}")


@dataclass(frozen=True)
class AdaMergeResult:
    params: ParamSet
    coefficients: np.ndarray
    entropies: tuple[float, ...]


def task_vectors(
    pretrained: Mapping[str, np.ndarray],
    experts: Sequence[Mapping[str, np.ndarray]],
    spec: ModelSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """The pretrained backbone as one flat float64 (P,) vector and the
    experts' task vectors (expert minus pretrained) as the rows of a
    (T, P) matrix, both in the flat layout of ``spec`` (block by block,
    weight before bias): the fixed inputs of :func:`ada_loss_and_gradient`."""
    rows = _flat_rows(spec, pretrained, experts)
    return rows[0], rows[1:] - rows[0]


def _stacked_heads(
    experts: Sequence[Mapping[str, np.ndarray]], spec: ModelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The experts' task heads (:func:`collect_heads`) in float64, stacked
    on the task axis: (T, classes, d) weights and (T, classes) biases, the
    fixed head input of :func:`ada_loss_and_gradient`."""
    heads = collect_heads(experts, spec)
    return tuple(
        np.stack([heads[head_name(t, kind)] for t in range(len(experts))]).astype(np.float64)
        for kind in ("weight", "bias")
    )


def _merge_flat(pre64: np.ndarray, taus: np.ndarray, coefficients, layout) -> np.ndarray:
    """The flat backbone ``pre64 + sum_t coefficients[l-1, t] * taus[t]``
    on each layer l's entries, accumulated in task order."""
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
    return merged


def ada_loss_and_gradient(
    pre64, taus, experts, spec: ModelSpec, coefficients, x, heads=None
):
    """AdaMerging objective and its gradient for one batch per task.

    ``pre64`` and ``taus`` come from :func:`task_vectors`; the model is
    ``pre64 + sum_t coefficients[l-1, t] * taus[t]`` per layer l.  The
    loss is the mean over tasks of the softmax entropy of that model's
    predictions, each task scored through its own expert head on its own
    batch ``x[t]`` of the (T, input_dim, batch) array ``x``, one slice of
    a :func:`random_batches` chunk in :func:`ada_merge`; any other shape
    is a :class:`MergeError`.  The T tasks run as one stacked pass
    through the shared merged blocks and their stacked heads, and each
    task's share is bitwise that of its own 2-D pass on its slice.
    ``heads`` is :func:`_stacked_heads` of ``experts``, which a caller
    that steps many times computes once.  Returns the loss and its
    (layers, tasks) gradient with respect to ``coefficients``.
    """
    num_tasks = len(experts)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[:2] != (num_tasks, spec.input_dim) or x.shape[2] < 1:
        raise MergeError(
            f"need a ({num_tasks}, {spec.input_dim}, batch) input of one non-empty batch "
            f"per expert, got shape {x.shape}"
        )
    layout = _flat_layout(spec)
    merged64 = _by_name(layout, _merge_flat(pre64, taus, coefficients, layout))
    weights, biases = _stacked_heads(experts, spec) if heads is None else heads
    layers = forward_layers(merged64, spec, x)
    entropies, dlogits = entropy_loss_and_adjoint(weights @ layers[-1] + biases[..., None])
    adjoint = weights.swapaxes(-1, -2) @ dlogits
    grads = backbone_adjoint_grads(merged64, spec, x, layers, adjoint)
    task_grads = np.concatenate([grads[name].reshape(num_tasks, -1) for name, *_ in layout], axis=1)
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
) -> AdaMergeResult:
    """Optimize layer-level merging coefficients by entropy minimization.

    ``inputs_per_task[t]`` is task t's (N_t, input_dim) pool of unlabeled
    inputs, which ``spec.pools`` checks as ``unlabeled pools``.  Each
    coefficient starts at :data:`_ADA_INIT`; Adam updates them on the mean
    softmax entropy of the merged model's predictions through each task's
    head.  Batch draws are seeded per task position, so results repeat
    for a fixed expert order but change when the experts are permuted;
    the closed-form merges are invariant to that order.
    """
    pre64, taus = task_vectors(pretrained, experts, spec)
    pools = spec.pools(inputs_per_task, "unlabeled pools", np.float64)

    coefficients = np.full((spec.num_layers, len(experts)), _ADA_INIT)

    heads = _stacked_heads(experts, spec)
    adam = Adam(cfg.learning_rate)
    entropies = []
    for chunk in random_batches(pools, cfg.batch_size, cfg.iterations, [cfg.seed, 4]):
        for x in chunk:
            loss, grad = ada_loss_and_gradient(pre64, taus, experts, spec, coefficients, x, heads)
            if not np.isfinite(loss):
                raise MergeError(f"non-finite entropy at iteration {len(entropies) + 1}")
            entropies.append(loss)
            adam.step(coefficients, grad)

    merged = _merge_flat(pre64, taus, coefficients, _flat_layout(spec))
    params = _float32_params(spec, merged, "ada_merging")
    return AdaMergeResult(params, coefficients.copy(), tuple(entropies))


def merge_with_recipe(
    recipe: MergeRecipe,
    pretrained: Mapping[str, np.ndarray],
    experts: Sequence[ParamSet],
    spec: ModelSpec,
    inputs_per_task=None,
    cfg: TrainConfig | None = None,
) -> tuple[ParamSet, MergeRecipe]:
    """Dispatch a recipe; returns the merged backbone and the recipe with
    any output fields (ada coefficients) filled in."""
    if recipe.algorithm == "weight_average":
        return weight_average(experts, spec), recipe
    if recipe.algorithm == "task_arithmetic":
        return task_arithmetic(pretrained, experts, spec, recipe.scale), recipe
    if recipe.algorithm == "ties_merging":
        return ties_merge(pretrained, experts, spec, recipe.scale, recipe.keep_fraction), recipe
    if inputs_per_task is None or cfg is None:
        raise MergeError("ada_merging needs unlabeled inputs and a train config")
    result = ada_merge(pretrained, experts, spec, inputs_per_task, cfg)
    return result.params, replace(recipe, coefficients=result.coefficients)
