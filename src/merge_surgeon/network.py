"""Fixed MLP model family: forward with layer traces, exact reverse-mode
gradients, Adam, and the pretrain / expert fine-tune loops.

Block l (1-based) maps d_{l-1} -> d_l through an affine layer followed by
ReLU, except the final block which stays affine.  Task heads are linear
maps d_L -> C_t and are never merged; they travel with expert parameter
sets.  All math runs in float64 internally (so finite-difference checks
are clean) while parameter sets and traces are stored as float32.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .tensors import MergeSurgeonError, ParamSet, block_name, head_name


class NetworkError(MergeSurgeonError):
    """Shape or configuration violation in the model family."""


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: input width, per-block widths, head widths."""

    input_dim: int
    layer_dims: tuple[int, ...]
    head_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))
        object.__setattr__(self, "head_dims", tuple(int(d) for d in self.head_dims))
        if self.input_dim < 1:
            raise NetworkError("input_dim must be positive")
        if len(self.layer_dims) < 2:
            raise NetworkError("need at least two blocks")
        if any(d < 1 for d in self.layer_dims) or any(d < 1 for d in self.head_dims):
            raise NetworkError("all dimensions must be positive")

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims)

    @property
    def feature_dim(self) -> int:
        return self.layer_dims[-1]

    @property
    def num_tasks(self) -> int:
        return len(self.head_dims)

    def in_dim(self, layer: int) -> int:
        return self.input_dim if layer == 1 else self.layer_dims[layer - 2]

    def out_dim(self, layer: int) -> int:
        return self.layer_dims[layer - 1]

    @functools.cached_property
    def block_names(self) -> tuple[tuple[str, str], ...]:
        """The ``(weight, bias)`` entry names of each block, in order,
        formatted once per spec."""
        return tuple(
            (block_name(layer, "weight"), block_name(layer, "bias"))
            for layer in range(1, self.num_layers + 1)
        )

    def backbone_shapes(self) -> dict[str, tuple[int, ...]]:
        shapes: dict[str, tuple[int, ...]] = {}
        for layer, (weight, bias) in enumerate(self.block_names, start=1):
            shapes[weight] = (self.out_dim(layer), self.in_dim(layer))
            shapes[bias] = (self.out_dim(layer),)
        return shapes

    def backbone64(self, params: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Float64 copies of the backbone entries of ``params``, which must
        hold each of this spec's backbone names with its shape; any other
        entry, such as a head, is left out."""
        copies = {}
        for name, shape in self.backbone_shapes().items():
            if name not in params:
                raise NetworkError(f"missing backbone parameter {name!r}")
            if tuple(params[name].shape) != shape:
                raise NetworkError(
                    f"{name!r} has shape {tuple(params[name].shape)}, expected {shape}"
                )
            copies[name] = np.array(params[name], dtype=np.float64)
        return copies

    def to_text(self) -> str:
        return (
            f"input_dim = {self.input_dim}\n"
            f"layer_dims = {','.join(str(d) for d in self.layer_dims)}\n"
            f"head_dims = {','.join(str(d) for d in self.head_dims)}\n"
        )


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and loop settings shared by every training procedure."""

    learning_rate: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    batch_size: int = 16
    iterations: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise NetworkError("learning_rate must be positive")
        b1, b2 = self.betas
        if not (0 < b1 < 1 and 0 < b2 < 1):
            raise NetworkError("betas must lie strictly between 0 and 1")
        if self.batch_size < 1 or self.iterations < 1:
            raise NetworkError("batch_size and iterations must be >= 1")

    def make_adam(self, rows: int | None = None) -> "Adam":
        return Adam(self.learning_rate, self.betas, rows=rows)


class Adam:
    """Adam with bias correction over a dict of float64 arrays, in place.

    By default every array is one model with one step count.  With
    ``rows=n`` every array holds n independent models, one per leading
    row, each with its own step count: one :meth:`step` updates them all,
    or only the rows it names, and each row ends bitwise where stepping
    it alone would leave it.  Moments and scratch are allocated on the
    first step, so a step allocates nothing after it.
    """

    def __init__(
        self,
        learning_rate: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        rows: int | None = None,
    ):
        self.learning_rate = learning_rate
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count: int | list[int] = 0 if rows is None else [0] * rows
        self._state: dict[str, tuple[np.ndarray, ...]] = {}

    def step(
        self,
        params: dict[str, np.ndarray],
        grads: Mapping[str, np.ndarray],
        rows: Sequence[int] | None = None,
    ) -> None:
        """One update of every array in ``grads``; with per-row counts,
        ``rows`` names the distinct rows that step (default: all).

        When every row steps from one count, each array updates whole;
        otherwise each stepping row updates on its own row views, with
        the corrections of its own count."""
        if isinstance(self.step_count, int):
            if rows is not None:
                raise NetworkError("stepping chosen rows needs an Adam built with rows")
            self.step_count += 1
            whole = self.step_count
        else:
            counts = self.step_count
            if rows is not None and (
                len(set(rows)) != len(rows) or not all(0 <= row < len(counts) for row in rows)
            ):
                raise NetworkError(f"rows {list(rows)} must be distinct rows of {len(counts)}")
            whole = counts[0] + 1 if rows is None and min(counts) == max(counts) else None
            rows = range(len(counts)) if rows is None else rows
            for row in rows:
                counts[row] += 1
        arrays = []
        for key, grad in grads.items():
            state = self._state.get(key)
            if state is None:
                param = params[key]
                state = self._state[key] = (
                    np.zeros_like(param), np.zeros_like(param),
                    np.empty_like(param), np.empty_like(param),
                )
            arrays.append((params[key], grad, *state))
        for row in [None] if whole else rows:
            t = whole or self.step_count[row]
            c1, c2 = 1 - self.beta1**t, 1 - self.beta2**t
            for per_key in arrays:
                self._update(*(per_key if row is None else [a[row] for a in per_key]), c1, c2)

    def _update(self, param, grad, m, v, s1, s2, c1, c2) -> None:
        """``param -= lr * m_hat / (sqrt(v_hat) + eps)`` through the
        scratch arrays ``s1``, ``s2``, with the operations and operand
        order of the textbook expression, so the result is bitwise its."""
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(grad, grad, out=s1)
        s1 *= 1 - self.beta2
        v += s1
        if c1 == 1.0:  # 1 - beta1**t rounded to 1: m / 1 is m
            np.multiply(m, self.learning_rate, out=s1)
        else:
            np.divide(m, c1, out=s1)
            s1 *= self.learning_rate
        np.divide(v, c2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2
        param -= s1


@dataclass(frozen=True)
class TrainResult:
    params: ParamSet
    losses: tuple[float, ...] = field(repr=False)


def forward_layers(
    backbone: Mapping[str, np.ndarray],
    spec: ModelSpec,
    x: np.ndarray,
    adapters: Mapping[int, Mapping[str, np.ndarray]] | None = None,
    records: list | None = None,
    first: int = 1,
    last: int | None = None,
) -> list[np.ndarray]:
    """Float64 forward pass returning [Z_1 .. Z_L], each (d_l, batch).

    ``adapters`` maps a 1-based layer to float64 ``{"down", "up"}``
    matrices; that layer's output Z is corrected in the path to
    ``Z - up @ relu(down @ Z)``, which the next block consumes.  A
    ``records`` list receives ``(Z, hidden)`` per layer: the uncorrected
    output and ``relu(down @ Z)``, or None where no adapter sits.
    ``first`` and ``last`` run blocks ``first..last`` only: ``x`` is then
    the input of block ``first`` (``Z_{first-1}``) and the result is
    ``[Z_first .. Z_last]``.

    A stacked input ``(T, d, batch)`` runs T independent passes at once,
    each bitwise equal to its own 2-D call: block parameters and adapters
    either have a matching leading T axis (one model per slice) or none
    (shared by every slice).  More leading axes, such as a
    ``(C, T, d, batch)`` chunk of C stacked batches, broadcast the same
    way.
    """
    z = np.asarray(x, dtype=np.float64)
    if z.ndim < 2 or z.shape[-2] != spec.in_dim(first):
        raise NetworkError(
            f"input must be ([T,] {spec.in_dim(first)}, batch), got {z.shape}"
        )
    adapters = adapters or {}
    num = spec.num_layers
    layers = []
    for layer in range(first, num + 1 if last is None else last + 1):
        w_name, b_name = spec.block_names[layer - 1]
        pre = backbone[w_name] @ z + backbone[b_name][..., None]
        z = raw = np.maximum(pre, 0.0) if layer < num else pre
        hidden = None
        pair = adapters.get(layer)
        if pair is not None:
            hidden = np.maximum(pair["down"] @ raw, 0.0)
            z = raw - pair["up"] @ hidden
        if records is not None:
            records.append((raw, hidden))
        layers.append(z)
    return layers


def head_logits(weight: np.ndarray, bias: np.ndarray, z_final: np.ndarray) -> np.ndarray:
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    z_final = np.asarray(z_final, dtype=np.float64)
    if weight.ndim != 2 or z_final.ndim != 2 or weight.shape[1] != z_final.shape[0]:
        raise NetworkError(
            f"head weight {weight.shape} incompatible with features {z_final.shape}"
        )
    return weight @ z_final + bias[:, None]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Column softmax of ([T,] classes, batch) logits."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-2, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-2, keepdims=True)


def _batch_mean(values: np.ndarray):
    """Mean over the batch axis: a float for one model, (T,) for a stack."""
    mean = values.mean(axis=-1)
    return float(mean) if mean.ndim == 0 else mean


def entropy_loss_and_adjoint(logits: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean softmax entropy and its gradient with respect to the logits.

    Stacked (T, classes, batch) logits give one entropy per slice."""
    p = softmax(logits)
    # 0 log 0 = 0; a NaN from overflowing logits stays NaN.
    logp = np.log(np.where(p == 0, 1.0, p))
    col_entropy = -(np.where(p == 0, 0.0, p * logp)).sum(axis=-2)
    batch = p.shape[-1]
    adjoint = -p * (logp + col_entropy[..., None, :]) / batch
    return _batch_mean(col_entropy), adjoint


def _cross_entropy_and_adjoint(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=np.int64)
    batch = logits.shape[-1]
    if labels.shape != logits.shape[:-2] + (batch,):
        raise NetworkError("labels must be one integer per batch column")
    columns = np.arange(batch)
    picks = (labels, columns) if labels.ndim == 1 else (
        np.arange(labels.shape[0])[:, None], labels, columns
    )
    # The softmax adjoint reuses the shifted exponentials of the loss:
    # the operations of softmax(logits), so the same bits.
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-2, keepdims=True)
    exp = np.exp(shifted)
    sums = exp.sum(axis=-2)
    loss = _batch_mean(np.log(sums) - shifted[picks])
    adjoint = exp / sums[..., None, :]
    adjoint[picks] -= 1.0
    return loss, adjoint / batch


def backbone_adjoint_grads(
    backbone: Mapping[str, np.ndarray],
    spec: ModelSpec,
    x: np.ndarray,
    layers: list[np.ndarray],
    adjoint: np.ndarray,
) -> dict[str, np.ndarray]:
    """Reverse pass from dLoss/dZ_L to gradients of every block parameter.

    ReLU subgradient at exactly zero is taken as zero.  For a stacked
    (T, input_dim, batch) ``x`` every gradient gains the leading T axis,
    whether the blocks are stacked or shared, as in :func:`forward_layers`.
    """
    x = np.asarray(x, dtype=np.float64)
    grads: dict[str, np.ndarray] = {}
    g = np.asarray(adjoint, dtype=np.float64)
    for layer in range(spec.num_layers, 0, -1):
        w_name, b_name = spec.block_names[layer - 1]
        z_prev = layers[layer - 2] if layer >= 2 else x
        grads[w_name] = g @ z_prev.swapaxes(-1, -2)
        grads[b_name] = g.sum(axis=-1)
        if layer > 1:
            g = (backbone[w_name].swapaxes(-1, -2) @ g) * (z_prev > 0)
    return grads


def classifier_loss_and_grads(
    params: Mapping[str, np.ndarray],
    spec: ModelSpec,
    head_tag,
    x: np.ndarray,
    labels: np.ndarray,
) -> tuple[float | np.ndarray, dict[str, np.ndarray]]:
    """Cross-entropy loss through one head plus float64 gradients for the
    backbone and that head.

    With a stacked (T, input_dim, batch) ``x``, (T, batch) ``labels`` and
    every parameter carrying a leading T axis, slice t is model t: the
    loss is a (T,) array and each slice's loss and gradients are bitwise
    those of its own 2-D call.
    """
    layers = forward_layers(params, spec, x)
    z_final = layers[-1]
    w_key = head_name(head_tag, "weight")
    b_key = head_name(head_tag, "bias")
    if w_key not in params or b_key not in params:
        raise NetworkError(f"missing head parameters for task {head_tag!r}")
    logits = params[w_key] @ z_final + params[b_key][..., None]
    loss, dlogits = _cross_entropy_and_adjoint(logits, labels)
    grads = {
        w_key: dlogits @ z_final.swapaxes(-1, -2),
        b_key: dlogits.sum(axis=-1),
    }
    adjoint = params[w_key].swapaxes(-1, -2) @ dlogits
    grads.update(backbone_adjoint_grads(params, spec, x, layers, adjoint))
    return loss, grads


def stack_batches(batches: Sequence[np.ndarray]) -> np.ndarray:
    """Stack (input_dim, batch) matrices to one float64 (T, input_dim, batch)
    input.  Transposed (column-major) batches, as :func:`random_batches`
    draws them, stay column-major in their slices, so every BLAS call on a
    slice sees the operands that the batch's own 2-D call would."""
    arrays = [np.asarray(b, dtype=np.float64) for b in batches]
    if all(a.ndim == 2 and a.flags.f_contiguous for a in arrays):
        return np.stack([a.T for a in arrays]).swapaxes(1, 2)
    return np.stack(arrays)


def random_batches(pools: Sequence[np.ndarray], batch_size: int, iterations: int, seed):
    """Seeded with-replacement batches of unlabeled inputs: per iteration,
    one (dim, batch_size) matrix drawn from each (samples, dim) pool."""
    rng = np.random.default_rng(seed)
    return (
        [pool[rng.integers(0, pool.shape[0], size=batch_size)].T for pool in pools]
        for _ in range(iterations)
    )


def init_backbone(spec: ModelSpec, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform(+-1/sqrt(fan_in)) weights, zero biases, as float64."""
    params: dict[str, np.ndarray] = {}
    for layer in range(1, spec.num_layers + 1):
        fan_in = spec.in_dim(layer)
        bound = 1.0 / np.sqrt(fan_in)
        params[block_name(layer, "weight")] = rng.uniform(
            -bound, bound, size=(spec.out_dim(layer), fan_in)
        )
        params[block_name(layer, "bias")] = np.zeros(spec.out_dim(layer))
    return params


def init_head(
    classes: int, feature_dim: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    bound = 1.0 / np.sqrt(feature_dim)
    return rng.uniform(-bound, bound, size=(classes, feature_dim)), np.zeros(classes)


def flat_rows(shapes: Sequence[tuple[int, ...]], rows: int) -> tuple[np.ndarray, list]:
    """A float64 (rows, P) buffer and, per shape, a (rows, *shape) view of
    its next columns.  Row t holds all parameters of model t, so one Adam
    step on the row updates every view's slice t."""
    sizes = [math.prod(shape) for shape in shapes]
    buffer = np.empty((rows, sum(sizes)))
    columns = np.split(buffer, np.cumsum(sizes)[:-1], axis=1)
    return buffer, [c.reshape(rows, *shape) for c, shape in zip(columns, shapes)]


# The key under which a training group's heads sit, stacked on the task axis.
_STACKED_HEAD = "stacked"


# A diverging run ends in the NetworkError of the loss check; numpy's
# overflow warnings on the way would only add lines before it.
@np.errstate(over="ignore", invalid="ignore")
def _train_classifiers(
    models: Sequence[dict[str, np.ndarray]],
    head_tags: Sequence,
    spec: ModelSpec,
    datasets: Sequence[Dataset],
    cfg: TrainConfig,
    batch_rngs: Sequence[np.random.Generator],
) -> tuple[list[dict[str, np.ndarray]], list[list[float]]]:
    """Train each float64 ``models[t]`` (backbone plus head ``head_tags[t]``)
    on ``datasets[t]`` with batches drawn from ``batch_rngs[t]``.

    The models are independent, so every iteration runs those whose heads
    have the same width as one stacked (T, input_dim, batch) pass, with
    each model on its row of that group's :func:`flat_rows` buffer, and
    takes one per-row :class:`Adam` step per buffer.  Every model ends
    bitwise where training it alone would leave it.  Returns the trained
    parameters, under each model's own names, and the loss curves.
    """
    features = [data.features.astype(np.float64) for data in datasets]
    groups: dict[int, list[int]] = {}
    for t, tag in enumerate(head_tags):
        groups.setdefault(models[t][head_name(tag, "weight")].shape[0], []).append(t)
    stacks, trained = [], {}
    for classes, group in groups.items():
        shapes = {
            **spec.backbone_shapes(),
            head_name(_STACKED_HEAD, "weight"): (classes, spec.feature_dim),
            head_name(_STACKED_HEAD, "bias"): (classes,),
        }
        buffer, views = flat_rows(list(shapes.values()), len(group))
        for i, t in enumerate(group):
            head = (head_name(head_tags[t], "weight"), head_name(head_tags[t], "bias"))
            names = [*spec.backbone_shapes(), *head]
            for name, view in zip(names, views):
                view[i] = models[t][name]
            trained[t] = {name: view[i] for name, view in zip(names, views)}
        stacks.append((group, dict(zip(shapes, views)), buffer, cfg.make_adam(rows=len(group))))

    losses: list[list[float]] = [[] for _ in models]
    for iteration in range(1, cfg.iterations + 1):
        step_losses: dict[int, float] = {}
        flats = []
        for group, params, _, _ in stacks:
            picks = [
                batch_rngs[t].integers(0, len(datasets[t]), size=cfg.batch_size) for t in group
            ]
            x = stack_batches([features[t][idx].T for t, idx in zip(group, picks)])
            labels = np.stack([datasets[t].labels[idx] for t, idx in zip(group, picks)])
            group_losses, grads = classifier_loss_and_grads(params, spec, _STACKED_HEAD, x, labels)
            flats.append(
                np.concatenate([grads[name].reshape(len(group), -1) for name in params], axis=1)
            )
            step_losses.update(zip(group, group_losses.tolist()))
        for t in range(len(models)):
            if not math.isfinite(step_losses[t]):
                what = "pretraining" if head_tags[t] == "pretrain" else f"task {head_tags[t]}"
                raise NetworkError(f"non-finite training loss at iteration {iteration} ({what})")
            losses[t].append(step_losses[t])
        for (_, _, buffer, optimizer), flat in zip(stacks, flats):
            optimizer.step({"params": buffer}, {"params": flat})
    return [trained[t] for t in range(len(models))], losses


def pretrain(spec: ModelSpec, mixture: Dataset, cfg: TrainConfig) -> TrainResult:
    """Train a fresh backbone on the task-agnostic mixture.

    The throwaway mixture head is dropped from the returned parameters;
    the result is the shared starting point for every expert.
    """
    if mixture.dim != spec.input_dim:
        raise NetworkError("mixture dimensionality does not match the model input")
    init_rng = np.random.default_rng([cfg.seed, 0])
    params64 = init_backbone(spec, init_rng)
    head_w, head_b = init_head(mixture.num_classes, spec.feature_dim, init_rng)
    params64[head_name("pretrain", "weight")] = head_w
    params64[head_name("pretrain", "bias")] = head_b
    (trained,), (losses,) = _train_classifiers(
        [params64], ["pretrain"], spec, [mixture], cfg, [np.random.default_rng([cfg.seed, 1])]
    )
    backbone = {name: trained[name] for name in spec.backbone_shapes()}
    return TrainResult(ParamSet(backbone), tuple(losses))


def train_experts(
    pretrained: Mapping[str, np.ndarray],
    train_sets: Sequence[Dataset],
    tasks: Sequence[int],
    spec: ModelSpec,
    cfg: TrainConfig,
) -> list[TrainResult]:
    """Fine-tune the pretrained backbone plus a fresh head on each task,
    jointly: ``train_sets[i]`` is the training data of task ``tasks[i]``.

    Expert ``tasks[i]`` carries the fine-tuned backbone and that task's
    head (``head.{task}.*``) and is bitwise the expert that
    :func:`train_expert` trains alone.
    """
    pretrained64 = spec.backbone64(pretrained)
    tasks = [int(task) for task in tasks]
    if not tasks or len(train_sets) != len(tasks) or len(set(tasks)) != len(tasks):
        raise NetworkError("need one training set per task, and each task once")
    for task, data in zip(tasks, train_sets):
        if not 0 <= task < spec.num_tasks:
            raise NetworkError(f"task index {task} out of range")
        if data.num_classes != spec.head_dims[task] or data.dim != spec.input_dim:
            raise NetworkError(
                f"task {task} data has {data.num_classes} classes of dimension {data.dim}, "
                f"spec expects {spec.head_dims[task]} of dimension {spec.input_dim}"
            )
    models = []
    for task in tasks:
        params64 = dict(pretrained64)
        head_w, head_b = init_head(
            spec.head_dims[task], spec.feature_dim, np.random.default_rng([cfg.seed, 2, task])
        )
        params64[head_name(task, "weight")] = head_w
        params64[head_name(task, "bias")] = head_b
        models.append(params64)
    batch_rngs = [np.random.default_rng([cfg.seed, 3, task]) for task in tasks]
    trained, losses = _train_classifiers(models, tasks, spec, train_sets, cfg, batch_rngs)
    return [TrainResult(ParamSet(params), tuple(curve)) for params, curve in zip(trained, losses)]


def train_expert(
    pretrained: Mapping[str, np.ndarray],
    train_data: Dataset,
    task: int,
    spec: ModelSpec,
    cfg: TrainConfig,
) -> TrainResult:
    """Fine-tune the pretrained backbone plus a fresh head on one task.

    The returned parameters carry the fine-tuned backbone and that task's
    head (``head.{task}.*``).
    """
    return train_experts(pretrained, [train_data], [task], spec, cfg)[0]
