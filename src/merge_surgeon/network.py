"""Fixed MLP model family: forward with layer traces, exact reverse-mode
gradients, Adam, and the pretrain / expert fine-tune loops.

Block l (1-based) maps d_{l-1} -> d_l through an affine layer followed by
ReLU, except the final block which stays affine.  Task heads are linear
maps d_L -> C_t and are never merged; they travel with expert parameter
sets.  All math runs in float64 internally (so finite-difference checks
are clean) while parameter sets and traces are stored as float32.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .tensors import ParamSet, block_name, head_name


class NetworkError(ValueError):
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

    def backbone_shapes(self) -> dict[str, tuple[int, ...]]:
        shapes: dict[str, tuple[int, ...]] = {}
        for layer in range(1, self.num_layers + 1):
            shapes[block_name(layer, "weight")] = (self.out_dim(layer), self.in_dim(layer))
            shapes[block_name(layer, "bias")] = (self.out_dim(layer),)
        return shapes

    def validate_backbone(self, params: Mapping[str, np.ndarray]) -> None:
        for name, shape in self.backbone_shapes().items():
            if name not in params:
                raise NetworkError(f"missing backbone parameter {name!r}")
            if tuple(params[name].shape) != shape:
                raise NetworkError(
                    f"{name!r} has shape {tuple(params[name].shape)}, expected {shape}"
                )

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

    def make_adam(self) -> "Adam":
        return Adam(self.learning_rate, self.betas)


class Adam:
    """Adam with bias correction over a dict of float64 arrays, in place."""

    def __init__(self, learning_rate: float = 1e-3, betas=(0.9, 0.999), eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        for key, grad in grads.items():
            m = self._m.get(key)
            if m is None:
                m = self._m[key] = np.zeros_like(params[key])
                self._v[key] = np.zeros_like(params[key])
            v = self._v[key]
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * np.square(grad)
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            params[key] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass(frozen=True)
class TrainResult:
    params: ParamSet
    losses: tuple[float, ...] = field(repr=False)


def to_float64(params: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: np.array(value, dtype=np.float64) for name, value in params.items()}


def forward_layers(
    backbone: Mapping[str, np.ndarray],
    spec: ModelSpec,
    x: np.ndarray,
    adapters: Mapping[int, Mapping[str, np.ndarray]] | None = None,
    records: list | None = None,
) -> list[np.ndarray]:
    """Float64 forward pass returning [Z_1 .. Z_L], each (d_l, batch).

    ``adapters`` maps a 1-based layer to float64 ``{"down", "up"}``
    matrices; that layer's output Z is corrected in the path to
    ``Z - up @ relu(down @ Z)``, which the next block consumes.  A
    ``records`` list receives ``(Z, hidden)`` per layer: the uncorrected
    output and ``relu(down @ Z)``, or None where no adapter sits.

    A stacked input ``(T, input_dim, batch)`` runs T independent passes
    at once, each bitwise equal to its own 2-D call: block parameters and
    adapters either have a matching leading T axis (one model per slice)
    or none (shared by every slice).
    """
    z = np.asarray(x, dtype=np.float64)
    if z.ndim not in (2, 3) or z.shape[-2] != spec.input_dim:
        raise NetworkError(
            f"input must be ([T,] {spec.input_dim}, batch), got {z.shape}"
        )
    adapters = adapters or {}
    layers = []
    num = spec.num_layers
    for layer in range(1, num + 1):
        w = backbone[block_name(layer, "weight")]
        b = backbone[block_name(layer, "bias")]
        pre = w @ z + b[..., None]
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
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def entropy_loss_and_adjoint(logits: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax entropy and its gradient with respect to the logits."""
    p = softmax(logits)
    logp = np.log(np.where(p > 0, p, 1.0))
    col_entropy = -(np.where(p > 0, p * logp, 0.0)).sum(axis=0)
    batch = p.shape[1]
    adjoint = -p * (logp + col_entropy[None, :]) / batch
    return float(col_entropy.mean()), adjoint


def _cross_entropy_and_adjoint(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    labels = np.asarray(labels, dtype=np.int64)
    batch = logits.shape[1]
    if labels.shape != (batch,):
        raise NetworkError("labels must be one integer per batch column")
    shifted = logits - logits.max(axis=0, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=0))
    loss = float((logsumexp - shifted[labels, np.arange(batch)]).mean())
    adjoint = softmax(logits)
    adjoint[labels, np.arange(batch)] -= 1.0
    return loss, adjoint / batch


def backbone_adjoint_grads(
    backbone: Mapping[str, np.ndarray],
    spec: ModelSpec,
    x: np.ndarray,
    layers: list[np.ndarray],
    adjoint: np.ndarray,
) -> dict[str, np.ndarray]:
    """Reverse pass from dLoss/dZ_L to gradients of every block parameter.

    ReLU subgradient at exactly zero is taken as zero.
    """
    x = np.asarray(x, dtype=np.float64)
    grads: dict[str, np.ndarray] = {}
    g = np.asarray(adjoint, dtype=np.float64)
    for layer in range(spec.num_layers, 0, -1):
        z_prev = layers[layer - 2] if layer >= 2 else x
        grads[block_name(layer, "weight")] = g @ z_prev.T
        grads[block_name(layer, "bias")] = g.sum(axis=1)
        if layer > 1:
            w = backbone[block_name(layer, "weight")]
            g = (w.T @ g) * (z_prev > 0)
    return grads


def classifier_loss_and_grads(
    params: Mapping[str, np.ndarray],
    spec: ModelSpec,
    head_tag,
    x: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Cross-entropy loss through one head plus float64 gradients for the
    backbone and that head."""
    layers = forward_layers(params, spec, x)
    z_final = layers[-1]
    w_key = head_name(head_tag, "weight")
    b_key = head_name(head_tag, "bias")
    if w_key not in params or b_key not in params:
        raise NetworkError(f"missing head parameters for task {head_tag!r}")
    logits = params[w_key] @ z_final + params[b_key][:, None]
    loss, dlogits = _cross_entropy_and_adjoint(logits, labels)
    grads = {
        w_key: dlogits @ z_final.T,
        b_key: dlogits.sum(axis=1),
    }
    adjoint = params[w_key].T @ dlogits
    grads.update(backbone_adjoint_grads(params, spec, x, layers, adjoint))
    return loss, grads


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


def _run_classifier_training(
    params64: dict[str, np.ndarray],
    spec: ModelSpec,
    head_tag,
    data: Dataset,
    cfg: TrainConfig,
    batch_rng: np.random.Generator,
) -> list[float]:
    adam = cfg.make_adam()
    features = data.features.astype(np.float64)
    labels = data.labels
    losses = []
    for _ in range(cfg.iterations):
        idx = batch_rng.integers(0, len(data), size=cfg.batch_size)
        loss, grads = classifier_loss_and_grads(
            params64, spec, head_tag, features[idx].T, labels[idx]
        )
        if not np.isfinite(loss):
            raise NetworkError(f"non-finite training loss at iteration {len(losses) + 1}")
        losses.append(loss)
        adam.step(params64, grads)
    return losses


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
    losses = _run_classifier_training(
        params64, spec, "pretrain", mixture, cfg, np.random.default_rng([cfg.seed, 1])
    )
    backbone = {
        name: value
        for name, value in params64.items()
        if name in spec.backbone_shapes()
    }
    return TrainResult(ParamSet(backbone), tuple(losses))


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
    spec.validate_backbone(pretrained)
    if not 0 <= task < spec.num_tasks:
        raise NetworkError(f"task index {task} out of range")
    if train_data.num_classes != spec.head_dims[task]:
        raise NetworkError(
            f"task {task} data has {train_data.num_classes} classes, "
            f"spec expects {spec.head_dims[task]}"
        )
    params64 = {name: np.array(pretrained[name], dtype=np.float64) for name in spec.backbone_shapes()}
    head_rng = np.random.default_rng([cfg.seed, 2, task])
    head_w, head_b = init_head(spec.head_dims[task], spec.feature_dim, head_rng)
    params64[head_name(task, "weight")] = head_w
    params64[head_name(task, "bias")] = head_b
    losses = _run_classifier_training(
        params64, spec, task, train_data, cfg, np.random.default_rng([cfg.seed, 3, task])
    )
    return TrainResult(ParamSet(params64), tuple(losses))
