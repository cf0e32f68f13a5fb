"""Task-private adapter stacks that realign merged-model representations.

An adapter computes ``omega(Z) = up @ relu(down @ Z)`` and the corrected
representation is ``Z - omega(Z)``, applied in the forward path so the
next block consumes the corrected value.  Last-layer-only stacks mirror
the cheap variant; all-layer stacks correct every block; single-block
stacks exist for ablation.  Training is unsupervised: targets are the
expert model's representations on unlabeled input pools, which
``ModelSpec.pools`` checks.  Training and every trace run in float32.
A stack is one ``ParamSet`` of named float32 matrices plus its mode and
the spec whose every task it corrects; the checkpoint holds that
``ParamSet`` as it is.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import platform
import re
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .bias import LossKind, alignment_loss_and_grad
from .datasets import _sample_blocks
from .network import (
    _CHUNK_COLUMNS, Adam, ModelSpec, TrainConfig, flat_rows, forward_layers, random_batches,
)
from .tensors import MergeSurgeonError, ParamSet

# The labels of the surgery modes, a block in plain decimal.
_MODE_RE = re.compile(r"v1|v2|block:[1-9][0-9]*")


class SurgeryError(MergeSurgeonError):
    """Invalid stack layout, data regime, or diverging surgery training."""


@dataclass(frozen=True)
class SurgeryMode:
    """Which layers of the backbone receive adapters, held as its label:
    ``v1`` the last, ``v2`` all, ``block:<l>`` block l alone, l in plain
    decimal from 1 as in stack entry names.  Other spellings are errors."""

    label: str

    def __post_init__(self):
        if _MODE_RE.fullmatch(self.label) is None:
            raise SurgeryError(f"unknown surgery mode {self.label!r} (expected v1, v2, "
                               "or block:<l> with l in plain decimal from 1)")

    @classmethod
    def parse(cls, text: str) -> "SurgeryMode":
        return cls(text)

    def layer_indices(self, num_layers: int) -> tuple[int, ...]:
        if self.label == "v2":
            return tuple(range(1, num_layers + 1))
        if self.label == "v1":
            return (num_layers,)
        block = int(self.label.removeprefix("block:"))
        if block > num_layers:
            raise SurgeryError(f"block {block} exceeds {num_layers} layers")
        return (block,)


ALL_LAYERS = SurgeryMode("v2")


def _entry(task: int, layer: int, half: str) -> str:
    return f"surgery.{task}.{layer}.{half}"


@dataclass(frozen=True)
class SurgeryStack:
    """Task-private adapters for every task of ``spec`` in the layers of ``mode``.

    ``params``, the entries of a stack checkpoint, holds the float32
    matrices ``surgery.{task}.{layer}.down`` (rank, width) and ``.up``
    (width, rank) for each task and layer, and nothing else.  The
    constructor is the one check of a stack, so no task of a stack runs
    uncorrected.
    """

    mode: SurgeryMode
    params: ParamSet
    spec: ModelSpec

    def __post_init__(self):
        params = ParamSet(self.params)
        layers = self.mode.layer_indices(self.spec.num_layers)
        tasks = range(self.spec.num_tasks)
        expected = {_entry(t, l, h) for t in tasks for l in layers for h in ("down", "up")}
        for name in params:
            if name not in expected:
                raise SurgeryError(
                    f"unexpected stack entry {name!r} (expected surgery.<task>.<layer>.down|up "
                    f"with task < {len(tasks)} and layer in {list(layers)})"
                )
        for task in tasks:
            for layer in layers:
                names = [_entry(task, layer, half) for half in ("down", "up")]
                for name in names:
                    if name not in params:
                        raise SurgeryError(f"task {task}, layer {layer}: missing entry {name!r}")
                down, up = (params[name].shape for name in names)
                width = self.spec.out_dim(layer)
                if len(down) != 2 or down[1] != width or up != down[::-1]:
                    raise SurgeryError(
                        f"task {task}, layer {layer}: down {down} and up {up}, expected "
                        f"(rank, {width}) and ({width}, rank)"
                    )
        object.__setattr__(self, "params", params)

    def adapters(self, task: int) -> dict[int, dict[str, np.ndarray]]:
        """Task ``task``'s stored float32 ``{"down", "up"}`` pairs, uncopied,
        keyed by layer, the form :func:`forward_layers` applies."""
        if task not in range(self.spec.num_tasks):
            raise SurgeryError(f"task {task} is outside the stack's {self.spec.num_tasks} tasks")
        return {
            layer: {half: self.params[_entry(task, layer, half)] for half in ("down", "up")}
            for layer in self.mode.layer_indices(self.spec.num_layers)
        }


def init_stack(spec: ModelSpec, mode: SurgeryMode, rank: int, seed: int) -> SurgeryStack:
    """Fresh stack for every task of ``spec``: small uniform
    down-projections, zero up-projections, listed by task, layer, then
    down before up.

    With a zero up matrix every correction starts as the identity, so the
    corrected model begins exactly at the merged model.
    """
    if rank < 1:
        raise SurgeryError("rank must be >= 1")
    entries = []
    for task in range(spec.num_tasks):
        for layer in mode.layer_indices(spec.num_layers):
            width = spec.out_dim(layer)
            rng = np.random.default_rng([seed, 5, task, layer])
            bound = 1.0 / math.sqrt(width)
            down = rng.uniform(-bound, bound, size=(rank, width))
            entries += [(_entry(task, layer, "down"), down),
                        (_entry(task, layer, "up"), np.zeros((width, rank)))]
    return SurgeryStack(mode, ParamSet(entries), spec)


def trace_layers(
    backbone: Mapping[str, np.ndarray],
    spec: ModelSpec,
    stack: SurgeryStack | None,
    x: np.ndarray,
    task: int,
) -> Iterator[np.ndarray]:
    """Yield the representations ``Z_1 .. Z_L``, each (d_l, batch), of
    the ``spec.backbone`` copy ``backbone`` (float32 at every entry point)
    with task ``task``'s corrections applied, one block at a time.

    Between yields the generator holds one layer, which the next block
    reads and the caller must not write, so a caller that keeps only what
    it needs of each layer holds one layer, not all of them.  A sample
    that enters a block finite and leaves it not is an overflow, a
    ``SurgeryError`` naming the task and layer before any later block
    runs.  With no stack this is the plain forward trace, so
    ``stack=None`` traces any backbone, an expert included; a stack made
    for another spec is a ``SurgeryError``.  Nothing of the backbone or
    the stack's adapters is copied.
    """
    if stack is not None and stack.spec != spec:
        raise SurgeryError(f"a stack made for {stack.spec} cannot correct {spec}")
    adapters = {} if stack is None else stack.adapters(task)
    z = x
    for layer in range(1, spec.num_layers + 1):
        # Checked by value, as numpy misses an overflow in an OpenBLAS thread.
        with np.errstate(over="ignore", invalid="ignore"):
            (out,) = forward_layers(backbone, spec, z, adapters, first=layer, last=layer)
        if not np.isfinite(out).all() and (
            np.isfinite(z).all(axis=-2) & ~np.isfinite(out).all(axis=-2)
        ).any():
            raise _overflow_error(task, layer)
        z = out
        # Outside the errstate block: a suspended generator would leave
        # the caller's code running under it.
        yield z


def _walk_blocks(walk, samples: int):
    """Yield ``walk(columns)`` for each of the :func:`_sample_blocks` of
    ``samples`` columns.  A block's error is raised by ``walk(slice(None))``,
    so the overflow named is the whole width's lowest, the merged model's first."""
    for columns in _sample_blocks(samples):
        try:
            yield walk(columns)
        except MergeSurgeonError:
            walk(slice(None))
            raise


def _overflow_error(task: int, layer: int) -> SurgeryError:
    return SurgeryError(f"task {task}: layer {layer} representations overflow float32")


def _check_overflow(x: np.ndarray, layers: Sequence[np.ndarray], first: int = 1) -> None:
    """Raise the overflow error of the lowest task, at its lowest layer,
    in which a sample enters a block finite and leaves it not.

    ``x`` is a stacked ``(..., T, d, batch)`` input of block ``first`` and
    ``layers`` the blocks' outputs from there on.  A forward pass keeps
    its samples (columns) apart, so a sample that is not finite where it
    enters, such as a NaN in the data, overflows nowhere."""
    if all(np.isfinite(z).all() for z in layers):
        return
    finite = np.isfinite(x).all(axis=-2)  # (..., T, batch): each sample
    hits = []
    for layer, z in enumerate(layers, first):
        now = np.isfinite(z).all(axis=-2)
        lost = finite & ~now
        tasks = lost.any(axis=-1).reshape(-1, lost.shape[-2]).any(axis=0)
        hits += [(int(task), layer) for task in np.flatnonzero(tasks)]
        finite = now
    if hits:
        raise _overflow_error(*min(hits))


def corrected_forward(
    merged: Mapping[str, np.ndarray],
    spec: ModelSpec,
    stack: SurgeryStack | None,
    x: np.ndarray,
    task: int,
) -> tuple[np.ndarray, ...]:
    """Every layer of :func:`trace_layers` at once, ``(Z_1 .. Z_L)``, of
    the model ``merged`` as it is stored: ``spec.backbone`` checks and
    copies it to float32 first, under the name ``merged``.  The head
    should consume the final entry.  A caller that reads the layers in
    order and drops them should iterate :func:`trace_layers` instead.
    """
    return tuple(trace_layers(spec.backbone(merged, "merged", np.float32), spec, stack, x, task))


def sequential_batches(inputs_per_task, spec: ModelSpec, batch_size: int, fraction: float = 1.0):
    """Single ordered pass over the first ceil(fraction * N) samples of
    each task's pool, all pools of one size N, checked by ``spec.pools``.

    Yields (C, T, input_dim, batch_size) chunks of whole batches, at most
    ``_CHUNK_COLUMNS`` columns per task, laid out as
    :func:`random_batches` lays them out: ``chunk[i, t]`` is task t's
    batch i of the chunk, column-major.  A shorter last batch is a
    (1, T, input_dim, rest) chunk of its own.
    """
    if not 0 < fraction <= 1:
        raise SurgeryError("fraction must lie in (0, 1]")
    if batch_size < 1:
        raise SurgeryError("batch_size must be >= 1")
    pools = spec.pools(inputs_per_task, "input pools", np.float32)
    sizes = [p.shape[0] for p in pools]
    if len(set(sizes)) > 1:
        raise SurgeryError(f"a stream needs pools of one size, got sizes {sizes}")
    take = math.ceil(fraction * sizes[0])
    whole = take - take % batch_size
    step = max(1, _CHUNK_COLUMNS // batch_size) * batch_size
    spans = [(start, min(start + step, whole), batch_size) for start in range(0, whole, step)]
    if whole < take:
        spans.append((whole, take, take - whole))
    return (
        np.stack([pool[start:stop].reshape(-1, width, pool.shape[1]) for pool in pools], axis=1)
        .swapaxes(-1, -2)
        for start, stop, width in spans
    )


# glibc's 32-byte x86-64 fenv_t (bits/fenv.h): 28 bytes of x87 state, then
# MXCSR, whose flush-to-zero (bit 15) and denormals-are-zero (bit 6) bits
# _flush_subnormals sets.
class _FenvT(ctypes.Structure):
    _fields_ = [("x87", ctypes.c_uint32 * 7), ("mxcsr", ctypes.c_uint32)]


_FTZ_DAZ = 1 << 15 | 1 << 6


@contextlib.contextmanager
def _flush_subnormals():
    """Set FTZ and DAZ in the calling thread's MXCSR and restore both on exit,
    errors included; off x86-64, or without libm's ``fegetenv``, do nothing."""
    try:
        if platform.machine() != "x86_64":
            raise OSError("MXCSR is an x86-64 register")
        libm = ctypes.CDLL("libm.so.6")
        get, put = libm.fegetenv, libm.fesetenv
    except (OSError, AttributeError):
        yield
        return
    env = _FenvT()
    get(ctypes.byref(env))
    prior = env.mxcsr & _FTZ_DAZ
    env.mxcsr |= _FTZ_DAZ
    put(ctypes.byref(env))
    try:
        yield
    finally:
        get(ctypes.byref(env))
        env.mxcsr = env.mxcsr & ~_FTZ_DAZ | prior
        put(ctypes.byref(env))


@dataclass(frozen=True)
class SurgeryResult:
    stack: SurgeryStack
    losses: tuple[float, ...] = field(repr=False)


def surgery_gradients(
    merged: Mapping[str, np.ndarray],
    spec: ModelSpec,
    task_adapters: Mapping[tuple[int, ...], dict[str, np.ndarray]],
    x: np.ndarray,
    targets: Sequence[np.ndarray],
    psi: LossKind,
    full_backprop: bool = False,
    first: int = 1,
    grads: dict | None = None,
):
    """Per-layer alignment losses and adapter gradients for one batch,
    computed in the dtype of the merged backbone ``merged`` (a
    ``spec.backbone`` copy) and of the adapters and targets, which
    share it.

    Block-coordinate mode differentiates each layer's loss with its
    incoming representation held fixed; full backprop differentiates the
    summed loss through downstream blocks and corrections too.

    ``task_adapters`` maps each group of adapted layers of one width, a
    tuple ``(l, ...)`` in layer order, to their ``{"down", "up"}``
    matrices stacked on a leading layer axis in that order; a single
    layer l is the group ``(l,)``.  Any other key is a ``SurgeryError``
    that names it.  A group runs its alignment loss as one call on the
    ``(L', ..., d, batch)`` stack of its corrected layers, and its
    adapter gradients as one stacked matmul apiece.  Full backprop then
    carries its adjoint down from block to block, one layer at a time.
    Returns ``(losses, grads)`` keyed as ``task_adapters``: each loss an
    ``(L', ...)`` array, and grads mapping to ``{"down": ..., "up": ...}``
    of the adapters' shapes.  Given ``grads`` arrays, the gradients are
    written into them in place.

    ``x`` enters block ``first`` (the model input when ``first`` is 1), so
    a caller that holds the merged representation below the lowest adapter
    starts there.  The target of a group is ``targets[l - 1]`` for its
    first layer l, the ``(L', ...)`` stack of its layers' expert ``Z``; no
    other entry is read.

    A stacked ``x`` of shape (T, d, batch), with (T, ...) adapters and
    targets after the layer axis, handles T tasks at once: each loss then
    gains a T axis, and every task's losses and gradients are bitwise
    those of its own 2-D call, layer by layer.
    """
    x = np.asarray(x, dtype=merged[spec.block_names[first - 1][0]].dtype)
    # Per group: its matrices, and one buffer apiece for its raw, hidden
    # and corrected layers, which the forward pass writes; the buffers
    # take x's leading axes, or the adapters' where x has fewer.
    groups = {}
    adapters, out, position = {}, {}, {}
    for key, pair in task_adapters.items():
        if not isinstance(key, tuple) or not key:
            raise SurgeryError(f"adapter key {key!r} is not a group of layers (l, ...)")
        down, up = pair["down"], pair["up"]
        lead = (len(key), *max(x.shape[:-2], down.shape[1:-2], key=len))
        rank, width = down.shape[-2:]
        shape = (*lead, width, *x.shape[-1:])
        raw, corrected = np.empty(shape, x.dtype), np.empty(shape, x.dtype)
        hidden = np.empty((*lead, rank, *x.shape[-1:]), x.dtype)
        for j, layer in enumerate(key):
            adapters[layer] = {"down": down[j], "up": up[j]}
            out[layer] = raw[j], hidden[j], corrected[j]
            position[layer] = key, j
        groups[key] = pair, (raw, hidden, corrected)
    if min(position, default=first) < first:
        raise SurgeryError(f"adapters below block {first} need the pass to start lower")
    layers = forward_layers(merged, spec, x, adapters, first=first, out=out)
    losses: dict = {}
    adjoints = {}
    for key, (_, buffers) in groups.items():
        losses[key], adjoints[key] = alignment_loss_and_grad(
            buffers[2], np.asarray(targets[key[0] - 1]), psi
        )
    if full_backprop:
        carry = None  # dTotal/dZhat_l arriving from block l+1
        for layer in range(spec.num_layers, first - 1, -1):
            key, j = position.get(layer, (None, 0))
            a_hat = None if key is None else adjoints[key][j]
            if carry is not None:
                a_hat = carry if a_hat is None else np.add(a_hat, carry, out=a_hat)
                carry = None
            if a_hat is None or layer == first:
                continue
            raw, hidden, _ = out.get(layer, (layers[layer - first], None, None))
            d_raw = a_hat
            if key is not None:
                pair = adapters[layer]
                up_t = pair["up"].swapaxes(-1, -2)
                d_raw = a_hat - pair["down"].swapaxes(-1, -2) @ ((up_t @ a_hat) * (hidden > 0))
            d_pre = d_raw * (raw > 0) if layer < spec.num_layers else d_raw
            carry = merged[spec.block_names[layer - 1][0]].T @ d_pre
    grads = {} if grads is None else grads
    for key, (pair, (raw, hidden, _)) in groups.items():
        d_omega = -adjoints[key]
        d_hidden = (pair["up"].swapaxes(-1, -2) @ d_omega) * (hidden > 0)
        given = grads.setdefault(key, {})
        for half, left, right in (("down", d_hidden, raw), ("up", d_omega, hidden)):
            given[half] = np.matmul(left, right.swapaxes(-1, -2), out=given.get(half))
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

    ``data`` is an iterator of (C, T, input_dim, batch) chunks of C
    iterations, ``chunk[i, t]`` iteration i's batch for task t, as
    :func:`sequential_batches` yields them, or a sequence of per-task
    (samples, input_dim) pools, checked by ``spec.pools`` as ``input pools``,
    which :func:`random_batches` samples with the config's batch size,
    iteration count, and seed.  Each chunk is checked where it enters,
    after the chunks before it have trained: one that is not 4-D, not
    ``(T, input_dim)`` in the middle, or empty along an axis is a
    ``SurgeryError`` naming its first iteration.  Labels are never
    read.  By default each adapter descends the gradient of its own
    layer's loss with the incoming representation held fixed
    (block-coordinate); ``full_backprop`` differentiates the summed loss
    through downstream blocks as well.  Neither the merged nor the expert
    parameters are modified.  ``experts`` holds one expert per task of
    ``spec``, and the stack corrects every one of them.

    Training runs in float32: ``spec.backbone`` checks each backbone
    and copies it once to float32, under the name ``merged`` or ``expert
    <t>``, the batches are float32, and so are the adapter buffers and
    Adam's moments.  The tasks are independent problems of one shape:
    every iteration gives every task a batch of one shape.  Row t of
    one buffer holds every adapter of task t, and each iteration runs one
    pass stacked on a leading task axis and takes one Adam step on the
    buffer.  The adapted layers are grouped by width, and each group's
    adapters are one region of the buffer, keyed by the group's layer
    tuple, so every iteration's :func:`surgery_gradients` call runs one
    loss call per group and, under the layer-wise objective, one gradient
    matmul apiece.  The expert targets, and the merged blocks below the
    lowest adapter, do not depend on the adapters: they run once per
    chunk of ``data``, and write each group's targets into one buffer.  Every task ends
    bitwise where training it alone on its own batches, layer by layer,
    would leave it, and each iteration's loss adds the task-major,
    layer-ordered losses as Python floats.  The chunk loop flushes
    subnormals to zero (MXCSR FTZ and DAZ): Adam's moments of entries with
    no gradient decay into them, where x86 is slow.

    A representation that overflows float32 ends training in the
    ``SurgeryError`` of :func:`trace_layers`, which names the task and
    layer, with no numpy warning: the targets and the merged blocks
    below the lowest adapter are checked once per chunk, and the
    corrected layers when a loss is not finite.  Any other non-finite
    loss names its iteration, task and layer.
    """
    if not isinstance(data, Iterator):
        pools = spec.pools(data, "input pools", np.float32)
        data = random_batches(pools, cfg.batch_size, cfg.iterations, [cfg.seed, 6])
    num_tasks = spec.num_tasks
    if len(experts) != num_tasks:
        raise SurgeryError(f"got {len(experts)} experts for the spec's {num_tasks} tasks")
    merged32 = spec.backbone(merged, "merged", np.float32)
    experts32 = [spec.backbone(e, f"expert {t}", np.float32) for t, e in enumerate(experts)]
    experts32 = {name: np.stack([e[name] for e in experts32]) for name in merged32}
    layers = mode.layer_indices(spec.num_layers)
    first = layers[0]
    stack0 = init_stack(spec, mode, rank, cfg.seed)
    # The adapted layers grouped by width, each group in layer order.
    by_width: dict[int, list[int]] = {}
    for layer in layers:
        by_width.setdefault(spec.out_dim(layer), []).append(layer)
    groups = [tuple(members) for members in by_width.values()]
    # Row t of params holds every adapter of task t, and row t of
    # grad_rows its gradients.  Each group's downs are one (T, L', rank,
    # d) view and its ups one (T, L', d, rank) view; surgery_gradients
    # takes them layer-major, and each layer's (T, ...) matrices are
    # views of them.
    shapes = []
    for members in groups:
        width = spec.out_dim(members[0])
        shapes += [(len(members), rank, width), (len(members), width, rank)]
    params, views = flat_rows(shapes, num_tasks, np.float32)
    grad_rows, grad_views = flat_rows(shapes, num_tasks, np.float32)
    grouped: dict[tuple[int, ...], dict[str, np.ndarray]] = {}
    grads: dict[tuple[int, ...], dict[str, np.ndarray]] = {}
    adapters: dict[int, dict[str, np.ndarray]] = {}
    for members, down, up, grad_down, grad_up in zip(
        groups, views[::2], views[1::2], grad_views[::2], grad_views[1::2]
    ):
        grouped[members] = {"down": down.swapaxes(0, 1), "up": up.swapaxes(0, 1)}
        grads[members] = {"down": grad_down.swapaxes(0, 1), "up": grad_up.swapaxes(0, 1)}
        for j, layer in enumerate(members):
            adapters[layer] = {"down": down[:, j], "up": up[:, j]}
            for half, view in adapters[layer].items():
                view[...] = [stack0.params[_entry(t, layer, half)] for t in range(num_tasks)]
    # Where each layer's losses sit: its group's row and its place in it.
    places = [(g, members.index(layer)) for layer in layers
              for g, members in enumerate(groups) if layer in members]
    optimizer = Adam(cfg.learning_rate)

    losses: list[float] = []

    def train_chunk(x: np.ndarray) -> None:
        # A function, so the (C, T, d, batch) chunk's arrays are freed
        # before the next chunk's are computed.  Each group's targets,
        # written by the pass into one (L', C, T, d, batch) buffer, sit at
        # its first layer; a contiguous layer of it keeps the pass as fast
        # as one it allocates.
        targets = [None] * spec.num_layers
        out = {}
        for members in groups:
            buffer = np.empty((len(members), *x.shape[:-2], spec.out_dim(members[0]),
                               x.shape[-1]), np.float32)
            targets[members[0] - 1] = buffer
            out.update((layer, (buffer[j], None, None)) for j, layer in enumerate(members))
        _check_overflow(x, forward_layers(experts32, spec, x, out=out))
        if first > 1:
            below = forward_layers(merged32, spec, x, last=first - 1)
            _check_overflow(x, below)
            x = below[-1]
        for i in range(len(x)):
            group_losses, _ = surgery_gradients(
                merged32, spec, grouped, x[i], [None if z is None else z[:, i] for z in targets],
                psi, full_backprop, first, grads,
            )
            rows = [group_losses[members].tolist() for members in groups]
            total = 0.0
            for task in range(num_tasks):
                for layer, (g, j) in zip(layers, places):
                    loss = rows[g][j][task]
                    if not math.isfinite(loss):
                        corrected = forward_layers(merged32, spec, x[i], adapters, first=first)
                        _check_overflow(x[i], corrected, first)
                        raise SurgeryError(
                            f"non-finite loss at iteration {len(losses) + 1}, "
                            f"task {task}, layer {layer}"
                        )
                    total += loss
            optimizer.step(params, grad_rows)
            losses.append(total)

    # An overflow ends in the SurgeryError of its check; numpy's warnings
    # on the way would only add lines before it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"), _flush_subnormals():
        for chunk in data:
            x = np.asarray(chunk, dtype=np.float32)
            if x.ndim != 4 or x.shape[1:3] != (num_tasks, spec.input_dim) or 0 in x.shape:
                raise SurgeryError(
                    f"iteration {len(losses) + 1}: a chunk must be (iterations, {num_tasks}, "
                    f"{spec.input_dim}, batch) with no empty axis, got {x.shape}"
                )
            train_chunk(x)

    stack = SurgeryStack(mode, ParamSet(
        (_entry(task, layer, half), adapters[layer][half][task])
        for task in range(num_tasks) for layer in layers for half in ("down", "up")
    ), spec)
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
    """Online variant: the one ordered pass of :func:`sequential_batches`,
    which checks the pools, each sample visible exactly once."""
    batches = sequential_batches(inputs_per_task, spec, cfg.batch_size, fraction)
    return train_surgery(
        merged, experts, spec, batches, mode, psi, cfg, rank=rank, full_backprop=full_backprop
    )
