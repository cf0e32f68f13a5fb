"""Task-private adapter stacks that realign merged-model representations.

An adapter computes ``omega(Z) = up @ relu(down @ Z)`` and the corrected
representation is ``Z - omega(Z)``, applied in the forward path so the
next block consumes the corrected value.  Last-layer-only stacks mirror
the cheap variant; all-layer stacks correct every block; single-block
stacks exist for ablation.  Training is unsupervised: targets are the
expert model's representations on unlabeled inputs.  A stack is one
``ParamSet`` of named float32 matrices plus its mode; the checkpoint
holds that ``ParamSet`` as it is.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .bias import LossKind, alignment_loss_and_grad
from .network import (
    ModelSpec, TrainConfig, flat_rows, forward_layers, random_batches, stack_batches,
)
from .tensors import MergeSurgeonError, ParamSet

_LAST_LAYER = "last_layer"
_ALL_LAYERS = "all_layers"
_SINGLE_BLOCK = "single_block"
# The names of a stack's entries: surgery.{task}.{layer}.{down|up}, indices
# in plain decimal, so each (task, layer) pair has exactly one spelling.
_ENTRY_RE = re.compile(r"surgery\.(0|[1-9][0-9]*)\.(0|[1-9][0-9]*)\.(down|up)")
# Columns per task in one chunk of iterations: train_surgery computes the
# expert targets of a chunk's batches in one stacked pass.  A constant
# budget bounds what a chunk holds: 16 batches of 16 for 4 tasks of a
# 32-wide model take about 1.5 MB.
_CHUNK_COLUMNS = 256


class SurgeryError(MergeSurgeonError):
    """Invalid stack layout, data regime, or diverging surgery training."""


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


def _entry(task: int, layer: int, half: str) -> str:
    return f"surgery.{task}.{layer}.{half}"


@dataclass(frozen=True)
class SurgeryStack:
    """Task-private adapters and the mode they were built for.

    ``params`` holds the float32 matrices ``surgery.{task}.{layer}.down``
    (rank, width) and ``surgery.{task}.{layer}.up`` (width, rank), the
    entries of a stack checkpoint; the constructor checks their names,
    pairs and shapes.  A task with no entries at all passes through
    uncorrected; a task whose layers are not the mode's is an error at use
    time, in :meth:`adapters64`.
    """

    mode: SurgeryMode
    params: ParamSet

    def __post_init__(self):
        params = ParamSet(self.params)
        halves: dict[tuple[int, int], dict[str, tuple]] = {}
        for name, value in params.items():
            match = _ENTRY_RE.fullmatch(name)
            if match is None:
                raise SurgeryError(
                    f"unexpected stack entry {name!r} (expected surgery.<task>.<layer>.down|up)"
                )
            task, layer, half = match.groups()
            halves.setdefault((int(task), int(layer)), {})[half] = value.shape
        for key, pair in halves.items():
            if set(pair) != {"down", "up"}:
                raise SurgeryError(f"incomplete adapter for (task, layer) {key}")
            if len(pair["down"]) != 2 or pair["up"] != pair["down"][::-1]:
                raise SurgeryError(
                    f"adapter {key} shapes inconsistent: down {pair['down']}, up {pair['up']}"
                )
        object.__setattr__(self, "params", params)

    def validate(self, spec: ModelSpec, num_tasks: int) -> None:
        """Every task in ``range(num_tasks)`` carries the mode's full,
        correctly sized adapter set, and the stack holds no other task."""
        extra = sorted({int(name.split(".")[1]) for name in self.params} - set(range(num_tasks)))
        if extra:
            raise SurgeryError(f"stack holds tasks {extra} outside the run's {num_tasks} tasks")
        required = self.mode.layer_indices(spec.num_layers)
        for task in range(num_tasks):
            if not self.adapters64(task, spec):
                raise SurgeryError(f"task {task} is missing adapters for {required}")

    def adapters64(self, task: int, spec: ModelSpec) -> dict[int, dict[str, np.ndarray]]:
        """Task ``task``'s adapters as float64 ``{"down", "up"}`` pairs keyed
        by layer, the form :func:`forward_layers` applies; empty for a task
        the stack does not cover.  A covered task must hold exactly the
        mode's layers, each as wide as its layer."""
        present = sorted(
            int(name.split(".")[2]) for name in self.params
            if name.startswith(f"surgery.{task}.") and name.endswith(".down")
        )
        required = self.mode.layer_indices(spec.num_layers)
        if present and tuple(present) != required:
            raise SurgeryError(
                f"task {task} covers layers {present}, mode {self.mode.label()} "
                f"requires {list(required)}"
            )
        adapters = {}
        for layer in present:
            down, up = (self.params[_entry(task, layer, half)] for half in ("down", "up"))
            if down.shape[1] != spec.out_dim(layer):
                raise SurgeryError(
                    f"adapter ({task},{layer}) width {down.shape[1]} != layer "
                    f"width {spec.out_dim(layer)}"
                )
            adapters[layer] = {"down": down.astype(np.float64), "up": up.astype(np.float64)}
        return adapters


def init_stack(
    spec: ModelSpec,
    num_tasks: int,
    mode: SurgeryMode,
    rank: int,
    seed: int,
) -> SurgeryStack:
    """Fresh stack: small uniform down-projections, zero up-projections,
    listed by task, layer, then down before up.

    With a zero up matrix every correction starts as the identity, so the
    corrected model begins exactly at the merged model.
    """
    if rank < 1:
        raise SurgeryError("rank must be >= 1")
    entries = []
    for task in range(num_tasks):
        for layer in mode.layer_indices(spec.num_layers):
            width = spec.out_dim(layer)
            rng = np.random.default_rng([seed, 5, task, layer])
            bound = 1.0 / math.sqrt(width)
            down = rng.uniform(-bound, bound, size=(rank, width))
            entries += [(_entry(task, layer, "down"), down),
                        (_entry(task, layer, "up"), np.zeros((width, rank)))]
    return SurgeryStack(mode, ParamSet(entries))


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
    head should consume the final entry.  Only the backbone entries of
    ``merged`` are copied to float64.
    """
    merged64 = spec.backbone64(merged)
    adapters = {} if stack is None else stack.adapters64(task, spec)
    traces = []
    with np.errstate(over="raise"):
        for layer, z in enumerate(forward_layers(merged64, spec, x, adapters), 1):
            try:
                traces.append(np.ascontiguousarray(z, dtype=np.float32))
            except FloatingPointError:
                raise SurgeryError(
                    f"task {task}: layer {layer} representations overflow float32"
                ) from None
    return tuple(traces)


def _check_pools(inputs_per_task) -> list[np.ndarray]:
    """Each task's pool as float64; a pool object listed for several
    tasks is converted once, and every task gets that one array."""
    inputs = list(inputs_per_task)  # alive throughout, so each id names one pool
    unique = {id(p): p for p in inputs}
    converted = {key: np.asarray(p, dtype=np.float64) for key, p in unique.items()}
    pools = [converted[id(p)] for p in inputs]
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
    targets: Sequence[np.ndarray],
    psi: LossKind,
    full_backprop: bool = False,
    first: int = 1,
    grads: dict[int, dict[str, np.ndarray]] | None = None,
):
    """Per-layer alignment losses and adapter gradients for one batch.

    Block-coordinate mode differentiates each layer's loss with its
    incoming representation held fixed; full backprop differentiates the
    summed loss through downstream blocks and corrections too.  Returns
    ``(losses, grads)`` keyed by 1-based layer index, with grads mapping
    to ``{"down": ..., "up": ...}``.

    ``x`` enters block ``first`` (the model input when ``first`` is 1), so
    a caller that holds the merged representation below the lowest adapter
    starts there; ``targets[l - 1]`` is the expert's ``Z_l``, read only
    for the adapted layers.  Given
    ``grads`` arrays, the gradients are written into them in place.

    A stacked ``x`` of shape (T, d, batch), with (T, ...) adapters and
    targets, handles T tasks at once: each layer's loss is then a (T,)
    array, and every task's losses and gradients are bitwise those of its
    own 2-D call.
    """
    if min(task_adapters, default=first) < first:
        raise SurgeryError(f"adapters below block {first} need the pass to start lower")
    records = []
    corrected = forward_layers(merged64, spec, x, task_adapters, records, first=first)
    losses: dict[int, float | np.ndarray] = {}
    adjoints: dict[int, np.ndarray] = {}
    for layer in sorted(task_adapters):
        losses[layer], adjoints[layer] = alignment_loss_and_grad(
            corrected[layer - first], targets[layer - 1], psi
        )
    grads = {} if grads is None else grads
    carry = None  # full backprop: dTotal/dZhat_l arriving from block l+1
    for layer in range(spec.num_layers, first - 1, -1):
        a_hat = adjoints.get(layer)
        if carry is not None:
            a_hat = carry if a_hat is None else a_hat + carry
            carry = None
        if a_hat is None:
            continue
        raw, hidden = records[layer - first]
        d_raw = a_hat
        pair = task_adapters.get(layer)
        if pair is not None:
            d_omega = -a_hat
            up_t = pair["up"].swapaxes(-1, -2)
            d_hidden = (up_t @ d_omega) * (hidden > 0)
            out = grads.setdefault(layer, {})
            out["down"] = np.matmul(d_hidden, raw.swapaxes(-1, -2), out=out.get("down"))
            out["up"] = np.matmul(d_omega, hidden.swapaxes(-1, -2), out=out.get("up"))
            if full_backprop and layer > first:
                d_raw = a_hat - pair["down"].swapaxes(-1, -2) @ ((up_t @ a_hat) * (hidden > 0))
        if full_backprop and layer > first:
            d_pre = d_raw * (raw > 0) if layer < spec.num_layers else d_raw
            carry = merged64[spec.block_names[layer - 1][0]].T @ d_pre
    return losses, grads


def _checked_row(batches, num_tasks: int) -> tuple[list, tuple]:
    """One iteration's batches as float64 matrices (None kept), and its
    key: per task None or the batch's shape and column-major flag."""
    if len(batches) != num_tasks:
        raise SurgeryError(f"data covers {len(batches)} tasks, experts {num_tasks}")
    row, key = [], []
    for task, x in enumerate(batches):
        if x is not None:
            x = np.asarray(x, dtype=np.float64)
            if x.ndim != 2:
                raise SurgeryError(f"task {task} batch must be (input_dim, batch)")
        row.append(x)
        key.append(None if x is None else (x.shape, x.flags.f_contiguous))
    return row, tuple(key)


def _chunks(data, num_tasks: int) -> Iterator[tuple[list[list], tuple]]:
    """Runs of consecutive iterations whose batches share one key, at most
    :data:`_CHUNK_COLUMNS` columns per task, read one run ahead of the
    caller.  An invalid iteration ends the run before it and raises when
    the caller asks for the next run."""
    chunk: list[list] = []
    key, limit = None, 0
    for batches in data:
        try:
            row, row_key = _checked_row(batches, num_tasks)
        except SurgeryError:
            if chunk:
                yield chunk, key
            raise
        if chunk and (row_key != key or len(chunk) == limit):
            yield chunk, key
            chunk = []
        if not chunk:
            width = max([k[0][1] for k in row_key if k is not None], default=1)
            key, limit = row_key, max(1, _CHUNK_COLUMNS // width)
        chunk.append(row)
    if chunk:
        yield chunk, key


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

    The tasks are independent problems of one shape.  Row t of one
    buffer holds every adapter of task t, and each iteration takes one
    per-row Adam step on it; a task whose batch is None takes no step.
    Each run of consecutive tasks whose batches share a shape runs as one
    pass stacked on a leading task axis, on its row slice of the buffers,
    so a chunk in which every task has a batch of one shape is one pass.
    The expert targets, and the merged blocks below the lowest adapter,
    do not depend on the adapters: they run once per chunk of up to
    :data:`_CHUNK_COLUMNS` columns per task, read ahead from ``data``.
    Every task ends bitwise where training it alone on its own batches
    would leave it.
    """
    if not isinstance(data, Iterator):
        data = random_batches(_check_pools(data), cfg.batch_size, cfg.iterations, [cfg.seed, 6])
    num_tasks = len(experts)
    if num_tasks < 1:
        raise SurgeryError("need at least one expert")
    merged64 = spec.backbone64(merged)
    experts64 = [spec.backbone64(expert) for expert in experts]
    experts64 = {name: np.stack([e[name] for e in experts64]) for name in merged64}
    layers = mode.layer_indices(spec.num_layers)
    first = layers[0]
    stack0 = init_stack(spec, num_tasks, mode, rank, cfg.seed)
    # Row t of params holds every adapter of task t, and row t of
    # grad_rows its gradients; the per-layer (T, ...) matrices are views.
    shapes = {}
    for layer in layers:
        shapes[layer, "down"] = (rank, spec.out_dim(layer))
        shapes[layer, "up"] = (spec.out_dim(layer), rank)
    params, views = flat_rows(list(shapes.values()), num_tasks)
    grad_rows, grad_views = flat_rows(list(shapes.values()), num_tasks)
    adapters: dict[int, dict[str, np.ndarray]] = {layer: {} for layer in layers}
    grads: dict[int, dict[str, np.ndarray]] = {layer: {} for layer in layers}
    for (layer, half), view, grad_view in zip(shapes, views, grad_views):
        view[...] = [stack0.params[_entry(t, layer, half)] for t in range(num_tasks)]
        adapters[layer][half] = view
        grads[layer][half] = grad_view
    optimizer = cfg.make_adam(rows=num_tasks)

    losses: list[float] = []

    def train_chunk(chunk: list[list], key: tuple) -> None:
        # A function, so the chunk's arrays are freed before the next
        # chunk's are computed.
        stepped = [task for task, task_key in enumerate(key) if task_key is not None]
        # Each run of consecutive stepped tasks whose batches share a shape
        # is one stacked pass on the row slices of the buffers: slices are
        # views, so its gradients land in place, and each slice of a
        # stacked call is bitwise its own.
        passes = []
        runs = itertools.groupby(range(num_tasks), lambda t: key[t] and key[t][0])
        for run in [list(run) for shape, run in runs if shape is not None]:
            pick = slice(run[0], run[-1] + 1)
            # (C, n, d, batch): each slice laid out as its batch is.
            x = stack_batches([row[t] for row in chunk for t in run])
            x = x.reshape(len(chunk), len(run), *x.shape[1:])
            targets = forward_layers({n: w[pick] for n, w in experts64.items()}, spec, x)
            targets = [z if layer in layers else None for layer, z in enumerate(targets, 1)]
            if first > 1:
                x = forward_layers(merged64, spec, x, last=first - 1)[-1]
            views = [{l: {h: m[pick] for h, m in pair.items()} for l, pair in arrays.items()}
                     for arrays in (adapters, grads)]
            passes.append((x, targets, *views))
        for i in range(len(chunk)):
            task_losses: list[list[float]] = []
            for x, targets, task_adapters, task_grads in passes:
                layer_losses, _ = surgery_gradients(
                    merged64, spec, task_adapters, x[i],
                    [None if z is None else z[i] for z in targets], psi, full_backprop, first,
                    task_grads,
                )
                task_losses += np.stack([layer_losses[l] for l in layers], axis=-1).tolist()
            total = 0.0
            for task, task_loss in zip(stepped, task_losses):
                for layer, loss in zip(layers, task_loss):
                    if not math.isfinite(loss):
                        raise SurgeryError(
                            f"non-finite loss at iteration {len(losses) + 1}, "
                            f"task {task}, layer {layer}"
                        )
                    total += loss
            if stepped:
                rows = None if len(stepped) == num_tasks else stepped
                optimizer.step({"adapters": params}, {"adapters": grad_rows}, rows)
            losses.append(total)

    for chunk, key in _chunks(data, num_tasks):
        train_chunk(chunk, key)

    stack = SurgeryStack(mode, ParamSet(
        (_entry(task, layer, half), adapters[layer][half][task])
        for task in range(num_tasks) for layer in layers for half in ("down", "up")
    ))
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
