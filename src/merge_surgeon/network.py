"""Fixed MLP model family: forward with layer traces, exact reverse-mode
gradients, Adam, and the pretrain / expert fine-tune loops.

Block l (1-based) maps d_{l-1} -> d_l through an affine layer followed by
ReLU, except the final block which stays affine.  Task heads are linear
maps d_L -> C and are never merged; they travel with expert parameter
sets.  Parameter sets and traces are stored as float32.  The kernels
(:func:`forward_layers`, :class:`Adam`) compute in the dtype of the arrays
they are given: pretraining, fine-tuning, the merges and AdaMerging run
in float64 (so finite-difference checks are clean), and surgery training
and every trace run in float32.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .tensors import MergeSurgeonError, ParamSet, block_name, head_name, is_backbone_name


class NetworkError(MergeSurgeonError):
    """Shape or configuration violation in the model family."""


def _whole(name: str, value) -> int:
    """``value`` as an int if ``int()`` keeps it whole, as for ``4.0`` or
    ``np.int64(4)``; ``4.7``, ``'4'``, ``None``, nan or inf are rejected."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise NetworkError(f"{name} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: input width, per-block widths, and the
    ``num_tasks`` task heads, each with ``num_classes`` rows, so every
    head has one shape.  It is the one check of what a run is fed: of a
    backbone (:meth:`backbone`) and of a set of input pools
    (:meth:`pools`)."""

    input_dim: int
    layer_dims: tuple[int, ...]
    num_classes: int
    num_tasks: int

    def __post_init__(self):
        try:
            dims = tuple(self.layer_dims)
        except TypeError:
            raise NetworkError(
                f"layer_dims must be a sequence of widths, got {self.layer_dims!r}"
            ) from None
        object.__setattr__(self, "layer_dims", tuple(
            _whole(f"layer_dims[{i}]", d) for i, d in enumerate(dims)
        ))
        for name in ("input_dim", "num_classes", "num_tasks"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        if self.input_dim < 1:
            raise NetworkError("input_dim must be positive")
        if len(self.layer_dims) < 2:
            raise NetworkError("need at least two blocks")
        if any(d < 1 for d in (*self.layer_dims, self.num_classes, self.num_tasks)):
            raise NetworkError("all dimensions must be positive")

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims)

    @property
    def feature_dim(self) -> int:
        return self.layer_dims[-1]

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

    def backbone(
        self, params: Mapping[str, np.ndarray], what: str, dtype
    ) -> dict[str, np.ndarray]:
        """Copies in ``dtype`` of the backbone entries of the model ``what``
        in block order, the one check, copy and naming of a backbone:
        ``params`` must hold each of this spec's backbone names with its
        shape and no other ``block<l>.weight|bias`` entry; any other entry
        is left out.  A rejection is a ``NetworkError`` that reads
        ``"<what>: <reason>"``, so it names the model it rejects."""
        shapes = self.backbone_shapes()
        for name in params:
            if name not in shapes and is_backbone_name(name):
                raise NetworkError(f"{what}: unexpected backbone parameter {name!r}")
        copies = {}
        for name, shape in shapes.items():
            if name not in params:
                raise NetworkError(f"{what}: missing backbone parameter {name!r}")
            if tuple(params[name].shape) != shape:
                raise NetworkError(
                    f"{what}: {name!r} has shape {tuple(params[name].shape)}, expected {shape}"
                )
            copies[name] = np.array(params[name], dtype=dtype)
        return copies

    # A value past dtype's range becomes inf, for the caller's checks to name.
    @np.errstate(over="ignore")
    def pools(self, inputs, what: str, dtype) -> list[np.ndarray]:
        """The one check of an input pool: one ``(samples >= 1, input_dim)``
        matrix of real numbers per task, each in ``dtype`` (``None`` keeps its
        own), a pool object listed for several tasks converted once, to one
        array.  A rejection is a ``NetworkError`` that reads ``"<what>: <reason>"``."""
        inputs = list(inputs)  # alive throughout, so each id names one pool
        if len(inputs) != self.num_tasks:
            raise NetworkError(f"{what}: got {len(inputs)} pools for the spec's "
                               f"{self.num_tasks} tasks")
        converted: dict[int, np.ndarray] = {}
        for t, p in enumerate(inputs):
            if id(p) in converted:
                continue
            try:
                pool = np.asarray(p, dtype=dtype)
            except (TypeError, ValueError):  # ragged, or text that is no number
                pool = None
            if pool is None or pool.dtype.kind not in "iuf":
                raise NetworkError(f"{what}: pool {t} is not an array of real numbers")
            converted[id(p)] = pool
        pools = [converted[id(p)] for p in inputs]
        for t, pool in enumerate(pools):
            if pool.shape[1:] != (self.input_dim,) or pool.shape[0] < 1:
                raise NetworkError(
                    f"{what}: pool {t} is {pool.shape}, expected (samples >= 1, {self.input_dim})"
                )
        return pools

    def to_text(self) -> str:
        # One head width per task: model_spec.cfg, which every manifest hashes, keeps this line.
        return (
            f"input_dim = {self.input_dim}\n"
            f"layer_dims = {','.join(str(d) for d in self.layer_dims)}\n"
            f"head_dims = {','.join([str(self.num_classes)] * self.num_tasks)}\n"
        )


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and loop settings shared by every training procedure."""

    learning_rate: float = 1e-3
    batch_size: int = 16
    iterations: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise NetworkError("learning_rate must be positive")
        if self.batch_size < 1 or self.iterations < 1:
            raise NetworkError("batch_size and iterations must be >= 1")


# Adam's epsilon, added to the corrected second moment's square root.
_ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction over one array, in place, in its dtype.

    Every step updates the whole array from one step count.  The update
    is elementwise, so an array that holds one independent model per
    leading row steps each row bitwise as its own optimizer would.
    Moments and scratch are allocated on the first step, in the array's
    dtype, so a step allocates nothing after it.
    """

    def __init__(self, learning_rate: float = 1e-3, betas=(0.9, 0.999)):
        self.learning_rate = learning_rate
        self.beta1, self.beta2 = betas
        self.step_count = 0
        self._state: tuple[np.ndarray, ...] = ()

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        """``param -= lr * m_hat / (sqrt(v_hat) + eps)`` by ``grad``,
        through scratch arrays, with the operations and operand order of
        the textbook expression, so the result is bitwise its."""
        self.step_count += 1
        t = self.step_count
        if not self._state:
            self._state = (
                np.zeros_like(param), np.zeros_like(param),
                np.empty_like(param), np.empty_like(param),
            )
        m, v, s1, s2 = self._state
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(grad, grad, out=s1)
        s1 *= 1 - self.beta2
        v += s1
        np.divide(m, 1 - self.beta1**t, out=s1)
        s1 *= self.learning_rate
        np.divide(v, 1 - self.beta2**t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += _ADAM_EPS
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
    out: Mapping[int, Sequence[np.ndarray]] | None = None,
) -> list[np.ndarray]:
    """Forward pass returning [Z_1 .. Z_L], each (d_l, batch), in the
    dtype of the backbone: ``x`` is cast to it, and adapters share it.

    ``adapters`` maps a 1-based layer to ``{"down", "up"}`` matrices;
    that layer's output Z is corrected in the path to
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
    way.  A block's weight and bias are stacked together or shared
    together.

    Each layer's output, and each adapter's hidden and corrected arrays,
    is allocated once and then rectified or corrected in place, with the
    operations of ``relu(W @ z + b)`` and ``Z - up @ relu(down @ Z)``, so
    every bit is theirs; ``x``, the backbone and the adapters are never
    written.  ``out`` maps a layer to the ``(Z, hidden, corrected)``
    arrays it writes instead of allocating them (the last two where an
    adapter sits), such as slices of a buffer that stacks several layers.
    """
    z = np.asarray(x, dtype=backbone[spec.block_names[first - 1][0]].dtype)
    if z.ndim < 2 or z.shape[-2] != spec.in_dim(first):
        raise NetworkError(
            f"input must be ([T,] {spec.in_dim(first)}, batch), got {z.shape}"
        )
    adapters = adapters or {}
    out = out or {}
    num = spec.num_layers
    layers = []
    for layer in range(first, num + 1 if last is None else last + 1):
        w_name, b_name = spec.block_names[layer - 1]
        raw_out, hidden_out, z_out = out.get(layer, (None, None, None))
        pre = np.matmul(backbone[w_name], z, out=raw_out)
        pre += backbone[b_name][..., None]
        if layer < num:
            np.maximum(pre, 0.0, out=pre)
        z = raw = pre
        hidden = None
        pair = adapters.get(layer)
        if pair is not None:
            hidden = np.matmul(pair["down"], raw, out=hidden_out)
            np.maximum(hidden, 0.0, out=hidden)
            z = np.matmul(pair["up"], hidden, out=z_out)
            np.subtract(raw, z, out=z)
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


# Columns per pool in one chunk of iterations, the form in which batches
# move: random_batches and surgery's sequential_batches yield at most this
# many per task, and train_surgery computes a chunk's expert targets in
# one stacked pass.  16 batches of 16 for 4 tasks of a 32-wide model take
# about 1.5 MB.
_CHUNK_COLUMNS = 256


def random_batches(pools: Sequence[np.ndarray], batch_size: int, iterations: int, seed):
    """Seeded with-replacement batches of unlabeled inputs, one per
    iteration from each (samples, dim) pool, as (C, T, dim, batch_size)
    chunks of up to ``_CHUNK_COLUMNS // batch_size`` iterations:
    ``chunk[i, t]`` is iteration i's batch from pool t, column-major.

    A chunk's indices are one ``(C, T, batch_size)`` draw, which the
    generator makes in C order, so each index has the bits of one draw per
    iteration and pool; each pool gathers the chunk's rows at once, and
    the chunk is those rows stacked once, viewed with the last two axes
    swapped."""
    rng = np.random.default_rng(seed)
    sizes = np.array([pool.shape[0] for pool in pools])
    per_chunk = max(1, _CHUNK_COLUMNS // batch_size)
    for start in range(0, iterations, per_chunk):
        count = min(per_chunk, iterations - start)
        picks = rng.integers(0, sizes[None, :, None], size=(count, len(pools), batch_size))
        rows = np.stack([pool[picks[:, t]] for t, pool in enumerate(pools)], axis=1)
        yield rows.swapaxes(-1, -2)


def init_backbone(spec: ModelSpec, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform(+-1/sqrt(fan_in)) weights, zero biases, as float64, drawn
    block by block in the order of ``spec.backbone_shapes()``."""
    params: dict[str, np.ndarray] = {}
    for name, shape in spec.backbone_shapes().items():
        if len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[1])
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def init_head(
    classes: int, feature_dim: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    bound = 1.0 / np.sqrt(feature_dim)
    return rng.uniform(-bound, bound, size=(classes, feature_dim)), np.zeros(classes)


def flat_rows(shapes: Sequence[tuple[int, ...]], rows: int, dtype) -> tuple[np.ndarray, list]:
    """A (rows, P) buffer of ``dtype`` (float64 for the classifiers,
    float32 for surgery adapters) and, per shape, a (rows, *shape) view of
    its next columns.  Row t holds all parameters of model t, so one Adam
    step on the row updates every view's slice t."""
    sizes = [math.prod(shape) for shape in shapes]
    buffer = np.empty((rows, sum(sizes)), dtype=dtype)
    columns = np.split(buffer, np.cumsum(sizes)[:-1], axis=1)
    return buffer, [c.reshape(rows, *shape) for c, shape in zip(columns, shapes)]


# The key under which the trained models' heads sit, stacked on the task axis.
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
    """Train each float64 ``models[t]`` (backbone plus head ``head_tags[t]``,
    every head of one width) on ``datasets[t]`` with batches drawn from
    ``batch_rngs[t]``.

    The models are independent, so every iteration runs them all as one
    stacked (T, input_dim, batch) pass, with model t on row t of one
    :func:`flat_rows` buffer, and takes one :class:`Adam` step on that
    buffer; each batch is gathered from the float32 features into float64.
    Every model ends bitwise where training it alone would leave it.
    Returns the trained parameters, under each model's own names, and the
    loss curves.
    """
    classes = models[0][head_name(head_tags[0], "weight")].shape[0]
    shapes = {
        **spec.backbone_shapes(),
        head_name(_STACKED_HEAD, "weight"): (classes, spec.feature_dim),
        head_name(_STACKED_HEAD, "bias"): (classes,),
    }
    buffer, views = flat_rows(list(shapes.values()), len(models), np.float64)
    trained = []
    for t, (model, tag) in enumerate(zip(models, head_tags)):
        names = [*spec.backbone_shapes(), head_name(tag, "weight"), head_name(tag, "bias")]
        for name, view in zip(names, views):
            view[t] = model[name]
        trained.append({name: view[t] for name, view in zip(names, views)})
    params = dict(zip(shapes, views))
    optimizer = Adam(cfg.learning_rate)

    losses: list[list[float]] = [[] for _ in models]
    for iteration in range(1, cfg.iterations + 1):
        picks = [
            rng.integers(0, len(data), size=cfg.batch_size)
            for rng, data in zip(batch_rngs, datasets)
        ]
        # (T, input_dim, batch), each batch column-major.
        x = np.stack([data.features[idx] for data, idx in zip(datasets, picks)],
                     dtype=np.float64).swapaxes(-1, -2)
        labels = np.stack([data.labels[idx] for data, idx in zip(datasets, picks)])
        step_losses, grads = classifier_loss_and_grads(params, spec, _STACKED_HEAD, x, labels)
        for t, loss in enumerate(step_losses.tolist()):
            if not math.isfinite(loss):
                what = "pretraining" if head_tags[t] == "pretrain" else f"task {head_tags[t]}"
                raise NetworkError(f"non-finite training loss at iteration {iteration} ({what})")
            losses[t].append(loss)
        flat = np.concatenate([grads[name].reshape(len(models), -1) for name in params], axis=1)
        optimizer.step(buffer, flat)
    return trained, losses


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
    pretrained64 = spec.backbone(pretrained, "pretrained", np.float64)
    tasks = [int(task) for task in tasks]
    if not tasks or len(train_sets) != len(tasks) or len(set(tasks)) != len(tasks):
        raise NetworkError("need one training set per task, and each task once")
    for task, data in zip(tasks, train_sets):
        if not 0 <= task < spec.num_tasks:
            raise NetworkError(f"task index {task} out of range")
        if data.num_classes != spec.num_classes or data.dim != spec.input_dim:
            raise NetworkError(
                f"task {task} data has {data.num_classes} classes of dimension {data.dim}, "
                f"spec expects {spec.num_classes} of dimension {spec.input_dim}"
            )
    models = []
    for task in tasks:
        params64 = dict(pretrained64)
        head_w, head_b = init_head(
            spec.num_classes, spec.feature_dim, np.random.default_rng([cfg.seed, 2, task])
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
