"""Task-private adapter stacks that realign merged-model representations.

An adapter computes ``omega(Z) = up @ relu(down @ Z)`` and the corrected
representation is ``Z - omega(Z)``, applied in the forward path so the
next block consumes the corrected value.  Last-layer-only stacks mirror
the cheap variant; all-layer stacks correct every block; single-block
stacks exist for ablation.  Training is unsupervised: targets are the
expert model's representations on unlabeled inputs.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .bias import LossKind, alignment_loss_and_grad
from .network import (
    ModelSpec, TrainConfig, block_name, flat_rows, forward_layers, random_batches,
    stack_batches, to_float64,
)
from .tensors import ParamSet

_LAST_LAYER = "last_layer"
_ALL_LAYERS = "all_layers"
_SINGLE_BLOCK = "single_block"
# The names to_paramset writes: surgery.{task}.{layer}.{down|up}, indices
# in plain decimal, so each (task, layer) pair has exactly one spelling.
_ENTRY_RE = re.compile(r"surgery\.(0|[1-9][0-9]*)\.(0|[1-9][0-9]*)\.(down|up)")


class SurgeryError(ValueError):
    """Invalid stack layout, data regime, or diverging surgery training."""


@dataclass(frozen=True)
class AdapterParams:
    """Low-rank two-matrix module acting on one layer's representations."""

    down: np.ndarray  # (rank, width)
    up: np.ndarray    # (width, rank)

    def __post_init__(self):
        down = np.ascontiguousarray(self.down, dtype=np.float32)
        up = np.ascontiguousarray(self.up, dtype=np.float32)
        if down.ndim != 2 or up.ndim != 2 or down.shape[0] < 1:
            raise SurgeryError("adapter matrices must be 2-D with rank >= 1")
        if up.shape != (down.shape[1], down.shape[0]):
            raise SurgeryError(
                f"adapter shapes inconsistent: down {down.shape}, up {up.shape}"
            )
        down.setflags(write=False)
        up.setflags(write=False)
        object.__setattr__(self, "down", down)
        object.__setattr__(self, "up", up)

    @property
    def width(self) -> int:
        return self.down.shape[1]


def adapter_forward(adapter: AdapterParams, z: np.ndarray) -> np.ndarray:
    """up @ relu(down @ z) for a (width, batch) matrix."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != adapter.width:
        raise SurgeryError(f"input must be ({adapter.width}, batch), got {z.shape}")
    hidden = np.maximum(adapter.down.astype(np.float64) @ z, 0.0)
    return adapter.up.astype(np.float64) @ hidden


@dataclass(frozen=True)
class SurgeryMode:
    """Which layers of the backbone receive adapters."""

    kind: str
    block: int | None = None

    def __post_init__(self):
        if self.kind not in (_LAST_LAYER, _ALL_LAYERS, _SINGLE_BLOCK):
            raise SurgeryError(f"unknown surgery mode {self.kind!r}")
        if self.kind == _SINGLE_BLOCK:
            if self.block is None or self.block < 1:
                raise SurgeryError("single-block mode needs a 1-based block index")
        elif self.block is not None:
            raise SurgeryError(f"{self.kind} mode takes no block index")

    def layer_indices(self, num_layers: int) -> tuple[int, ...]:
        if self.kind == _ALL_LAYERS:
            return tuple(range(1, num_layers + 1))
        if self.kind == _LAST_LAYER:
            return (num_layers,)
        if self.block > num_layers:
            raise SurgeryError(f"block {self.block} exceeds {num_layers} layers")
        return (self.block,)

    def label(self) -> str:
        if self.kind == _LAST_LAYER:
            return "v1"
        if self.kind == _ALL_LAYERS:
            return "v2"
        return f"block:{self.block}"

    @classmethod
    def parse(cls, text: str) -> "SurgeryMode":
        if text == "v1":
            return LAST_LAYER
        if text == "v2":
            return ALL_LAYERS
        if text.startswith("block:"):
            try:
                return cls(_SINGLE_BLOCK, int(text.split(":", 1)[1]))
            except ValueError as exc:
                raise SurgeryError(f"bad block index in {text!r}") from exc
        raise SurgeryError(f"unknown surgery mode {text!r} (expected v1, v2, block:<l>)")


LAST_LAYER = SurgeryMode(_LAST_LAYER)
ALL_LAYERS = SurgeryMode(_ALL_LAYERS)


def single_block(block: int) -> SurgeryMode:
    return SurgeryMode(_SINGLE_BLOCK, block)


@dataclass(frozen=True)
class SurgeryStack:
    """Adapters keyed by (task, layer) plus the mode/loss they were built for.

    A task with no entries at all passes through uncorrected; a task with
    partial coverage of the mode's layers is an error at use time.
    """

    mode: SurgeryMode
    psi: LossKind
    adapters: Mapping[tuple[int, int], AdapterParams] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "adapters", dict(self.adapters))

    def validate(self, spec: ModelSpec, num_tasks: int) -> None:
        """Every task in ``range(num_tasks)`` carries the mode's full,
        correctly sized adapter set, and the stack holds no other task."""
        extra = sorted({t for t, _ in self.adapters if not 0 <= t < num_tasks})
        if extra:
            raise SurgeryError(f"stack holds tasks {extra} outside the run's {num_tasks} tasks")
        required = self.mode.layer_indices(spec.num_layers)
        for task in range(num_tasks):
            if tuple(sorted(self.adapters64(task, spec))) != required:
                raise SurgeryError(f"task {task} is missing adapters for {required}")

    def adapters64(self, task: int, spec: ModelSpec) -> dict[int, dict[str, np.ndarray]]:
        """Task ``task``'s adapters as float64 ``{"down", "up"}`` pairs keyed
        by layer, the form :func:`forward_layers` applies; empty for a task
        the stack does not cover."""
        present = {layer: a for (t, layer), a in self.adapters.items() if t == task}
        required = self.mode.layer_indices(spec.num_layers)
        if present and tuple(sorted(present)) != required:
            raise SurgeryError(
                f"task {task} covers layers {sorted(present)}, mode requires {list(required)}"
            )
        adapters = {}
        for layer, adapter in present.items():
            if adapter.width != spec.out_dim(layer):
                raise SurgeryError(
                    f"adapter ({task},{layer}) width {adapter.width} != layer "
                    f"width {spec.out_dim(layer)}"
                )
            adapters[layer] = {
                "down": adapter.down.astype(np.float64),
                "up": adapter.up.astype(np.float64),
            }
        return adapters

    def to_paramset(self) -> ParamSet:
        entries = []
        for task, layer in sorted(self.adapters):
            adapter = self.adapters[(task, layer)]
            entries.append((f"surgery.{task}.{layer}.down", adapter.down))
            entries.append((f"surgery.{task}.{layer}.up", adapter.up))
        return ParamSet(entries)

    @classmethod
    def from_paramset(
        cls,
        params: Mapping[str, np.ndarray],
        mode: SurgeryMode,
        num_layers: int,
        psi: LossKind = LossKind.L1,
    ) -> "SurgeryStack":
        """The stack stored in ``params``, built for ``mode`` on a
        ``num_layers``-block model; every task it holds must cover exactly
        the mode's layers."""
        halves: dict[tuple[int, int], dict[str, np.ndarray]] = {}
        for name, value in params.items():
            match = _ENTRY_RE.fullmatch(name)
            if match is None:
                raise SurgeryError(
                    f"unexpected stack entry {name!r} (expected surgery.<task>.<layer>.down|up)"
                )
            task, layer, half = match.groups()
            halves.setdefault((int(task), int(layer)), {})[half] = value
        adapters = {}
        for key, pair in halves.items():
            if set(pair) != {"down", "up"}:
                raise SurgeryError(f"incomplete adapter for (task, layer) {key}")
            adapters[key] = AdapterParams(down=pair["down"], up=pair["up"])
        required = mode.layer_indices(num_layers)
        for task in sorted({t for t, _ in adapters}):
            coverage = tuple(sorted(l for t, l in adapters if t == task))
            if coverage != required:
                raise SurgeryError(
                    f"task {task} covers layers {list(coverage)}, mode {mode.label()} "
                    f"requires {list(required)}"
                )
        return cls(mode=mode, psi=psi, adapters=adapters)


def init_stack(
    spec: ModelSpec,
    num_tasks: int,
    mode: SurgeryMode,
    rank: int,
    seed: int,
    psi: LossKind = LossKind.L1,
) -> SurgeryStack:
    """Fresh stack: small uniform down-projections, zero up-projections.

    With a zero up matrix every correction starts as the identity, so the
    corrected model begins exactly at the merged model.
    """
    if rank < 1:
        raise SurgeryError("rank must be >= 1")
    adapters = {}
    for task in range(num_tasks):
        for layer in mode.layer_indices(spec.num_layers):
            width = spec.out_dim(layer)
            rng = np.random.default_rng([seed, 5, task, layer])
            bound = 1.0 / math.sqrt(width)
            adapters[(task, layer)] = AdapterParams(
                down=rng.uniform(-bound, bound, size=(rank, width)),
                up=np.zeros((width, rank)),
            )
    return SurgeryStack(mode=mode, psi=psi, adapters=adapters)


def corrected_forward(
    merged: Mapping[str, np.ndarray],
    spec: ModelSpec,
    stack: SurgeryStack | None,
    x: np.ndarray,
    task: int,
) -> tuple[np.ndarray, ...]:
    """Per-layer float32 representations ``(Z_1 .. Z_L)``, each (d_l, batch),
    of the merged model with task ``task``'s corrections applied.

    With no stack, or no adapters for the task, this is the plain forward
    trace, so ``stack=None`` traces any backbone, an expert included; the
    head should consume the final entry.
    """
    spec.validate_backbone(merged)
    adapters = {} if stack is None else stack.adapters64(task, spec)
    return tuple(
        np.ascontiguousarray(z, dtype=np.float32)
        for z in forward_layers(to_float64(merged), spec, x, adapters)
    )


def _check_pools(inputs_per_task) -> list[np.ndarray]:
    pools = [np.asarray(p, dtype=np.float64) for p in inputs_per_task]
    if not pools or any(p.ndim != 2 or p.shape[0] < 1 for p in pools):
        raise SurgeryError("need non-empty (samples, dim) input pools per task")
    return pools


def sequential_batches(inputs_per_task, batch_size: int, fraction: float = 1.0):
    """Single ordered pass over the first ceil(fraction * N) samples per task.

    Yields, per iteration, one (input_dim, <= batch_size) matrix per task,
    or None for a task whose samples are used up.
    """
    if not 0 < fraction <= 1:
        raise SurgeryError("fraction must lie in (0, 1]")
    if batch_size < 1:
        raise SurgeryError("batch_size must be >= 1")
    pools = _check_pools(inputs_per_task)
    takes = [math.ceil(fraction * p.shape[0]) for p in pools]
    return (
        [
            pool[start : min(start + batch_size, take)].T if start < take else None
            for pool, take in zip(pools, takes)
        ]
        for start in range(0, max(takes), batch_size)
    )


@dataclass(frozen=True)
class SurgeryResult:
    stack: SurgeryStack
    losses: tuple[float, ...] = field(repr=False)


def surgery_gradients(
    merged64: Mapping[str, np.ndarray],
    spec: ModelSpec,
    task_adapters: Mapping[int, dict[str, np.ndarray]],
    x: np.ndarray,
    targets: list[np.ndarray],
    psi: LossKind,
    full_backprop: bool = False,
):
    """Per-layer alignment losses and adapter gradients for one batch.

    Block-coordinate mode differentiates each layer's loss with its
    incoming representation held fixed; full backprop differentiates the
    summed loss through downstream blocks and corrections too.  Returns
    ``(losses, grads)`` keyed by 1-based layer index, with grads mapping
    to ``{"down": ..., "up": ...}``.

    A stacked ``x`` of shape (T, input_dim, batch), with (T, ...)
    adapters and targets, handles T tasks at once: each layer's loss is
    then a (T,) array, and every task's losses and gradients are bitwise
    those of its own 2-D call.
    """
    records = []
    corrected = forward_layers(merged64, spec, x, task_adapters, records)
    losses: dict[int, float | np.ndarray] = {}
    adjoints: dict[int, np.ndarray] = {}
    for layer in sorted(task_adapters):
        losses[layer], adjoints[layer] = alignment_loss_and_grad(
            corrected[layer - 1], targets[layer - 1], psi
        )
    grads: dict[int, dict[str, np.ndarray]] = {}
    carry = None  # full backprop: dTotal/dZhat_l arriving from block l+1
    for layer in range(spec.num_layers, 0, -1):
        a_hat = adjoints.get(layer)
        if carry is not None:
            a_hat = carry if a_hat is None else a_hat + carry
            carry = None
        if a_hat is None:
            continue
        raw, hidden = records[layer - 1]
        d_raw = a_hat
        pair = task_adapters.get(layer)
        if pair is not None:
            d_omega = -a_hat
            up_t = pair["up"].swapaxes(-1, -2)
            d_hidden = (up_t @ d_omega) * (hidden > 0)
            grads[layer] = {
                "down": d_hidden @ raw.swapaxes(-1, -2),
                "up": d_omega @ hidden.swapaxes(-1, -2),
            }
            if full_backprop:
                d_raw = a_hat - pair["down"].swapaxes(-1, -2) @ ((up_t @ a_hat) * (hidden > 0))
        if full_backprop and layer > 1:
            d_pre = d_raw * (raw > 0) if layer < spec.num_layers else d_raw
            carry = merged64[block_name(layer, "weight")].T @ d_pre
    return losses, grads


def train_surgery(
    merged: Mapping[str, np.ndarray],
    experts: Sequence[Mapping[str, np.ndarray]],
    spec: ModelSpec,
    data,
    mode: SurgeryMode,
    psi: LossKind,
    cfg: TrainConfig,
    rank: int = 16,
    full_backprop: bool = False,
) -> SurgeryResult:
    """Fit one adapter stack against the experts' representations.

    ``data`` is an iterator of per-iteration batch lists, as
    :func:`sequential_batches` returns, or a sequence of per-task
    (samples, input_dim) feature matrices that will be sampled with the
    config's batch size, iteration count, and seed.  Labels are never
    read.  By default each adapter descends the gradient of its own
    layer's loss with the incoming representation held fixed
    (block-coordinate); ``full_backprop`` differentiates the summed loss
    through downstream blocks as well.  Neither the merged nor the expert
    parameters are modified.

    The tasks are independent problems of one shape, so each iteration
    runs them stacked on a leading task axis (one stack per batch width)
    and takes one Adam step per task with a batch; a task whose batch is
    None takes no step.  Every task ends bitwise where training it alone
    on its own batches would leave it.
    """
    if not isinstance(data, Iterator):
        data = random_batches(_check_pools(data), cfg.batch_size, cfg.iterations, [cfg.seed, 6])
    num_tasks = len(experts)
    if num_tasks < 1:
        raise SurgeryError("need at least one expert")
    spec.validate_backbone(merged)
    for expert in experts:
        spec.validate_backbone(expert)

    merged64 = to_float64(merged)
    experts64 = {
        name: np.stack([np.asarray(e[name], dtype=np.float64) for e in experts])
        for name in spec.backbone_shapes()
    }
    layers = mode.layer_indices(spec.num_layers)
    stack0 = init_stack(spec, num_tasks, mode, rank, cfg.seed, psi)
    # Row t holds every adapter of task t; the per-layer (T, ...) matrices
    # are views into it, so one Adam step on the row updates the task.
    shapes = {}
    for layer in layers:
        shapes[layer, "down"] = (rank, spec.out_dim(layer))
        shapes[layer, "up"] = (spec.out_dim(layer), rank)
    params, views = flat_rows(list(shapes.values()), num_tasks)
    adapters: dict[int, dict[str, np.ndarray]] = {layer: {} for layer in layers}
    for (layer, half), view in zip(shapes, views):
        view[...] = [getattr(stack0.adapters[(t, layer)], half) for t in range(num_tasks)]
        adapters[layer][half] = view
    rows = [{"adapters": row} for row in params]
    optimizers = [cfg.make_adam() for _ in range(num_tasks)]

    losses = []
    for iteration, batches in enumerate(data, start=1):
        if len(batches) != num_tasks:
            raise SurgeryError(f"data covers {len(batches)} tasks, experts {num_tasks}")
        groups: dict[tuple[int, ...], list[int]] = {}
        for task, x in enumerate(batches):
            if x is not None:
                if np.ndim(x) != 2:
                    raise SurgeryError(f"task {task} batch must be (input_dim, batch)")
                groups.setdefault(np.shape(x), []).append(task)
        task_losses: dict[int, list[float]] = {}
        task_grads: dict[int, np.ndarray] = {}
        for group in groups.values():
            if len(group) == num_tasks:
                group_experts, group_adapters = experts64, adapters
            else:  # copies of this group's rows
                group_experts = {n: w[group] for n, w in experts64.items()}
                group_adapters = {
                    l: {h: m[group] for h, m in pair.items()} for l, pair in adapters.items()
                }
            x = stack_batches([batches[t] for t in group])
            targets = forward_layers(group_experts, spec, x)
            layer_losses, grads = surgery_gradients(
                merged64, spec, group_adapters, x, targets, psi, full_backprop
            )
            flat = np.concatenate(
                [grads[l][h].reshape(len(group), -1) for l in layers for h in ("down", "up")],
                axis=1,
            )
            per_task = np.stack([layer_losses[l] for l in layers], axis=1).tolist()
            for i, task in enumerate(group):
                task_losses[task] = per_task[i]
                task_grads[task] = flat[i]
        total = 0.0
        for task in sorted(task_losses):
            for layer, loss in zip(layers, task_losses[task]):
                if not math.isfinite(loss):
                    raise SurgeryError(
                        f"non-finite loss at iteration {iteration}, "
                        f"task {task}, layer {layer}"
                    )
                total += loss
        for task, grad in task_grads.items():
            optimizers[task].step(rows[task], {"adapters": grad})
        losses.append(total)

    stack = SurgeryStack(mode=mode, psi=psi, adapters={
        (task, layer): AdapterParams(down=pair["down"][task], up=pair["up"][task])
        for task in range(num_tasks)
        for layer, pair in adapters.items()
    })
    return SurgeryResult(stack=stack, losses=tuple(losses))


def stream_train_surgery(
    merged: Mapping[str, np.ndarray],
    experts: Sequence[Mapping[str, np.ndarray]],
    spec: ModelSpec,
    inputs_per_task,
    fraction: float,
    mode: SurgeryMode,
    psi: LossKind,
    cfg: TrainConfig,
    rank: int = 16,
    full_backprop: bool = False,
) -> SurgeryResult:
    """Online variant: one ordered pass over the first ceil(fraction * N)
    samples of each task's pool, each sample visible exactly once."""
    batches = sequential_batches(inputs_per_task, cfg.batch_size, fraction)
    return train_surgery(
        merged, experts, spec, batches, mode, psi, cfg, rank=rank, full_backprop=full_backprop
    )
