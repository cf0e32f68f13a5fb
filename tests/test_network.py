"""Forward traces, entropy, reverse-mode gradients, Adam, and training."""

import math
import tracemalloc

import numpy as np
import pytest

import merge_surgeon as ms
from merge_surgeon import network
from merge_surgeon.datasets import Dataset
from merge_surgeon.network import (
    _CHUNK_COLUMNS,
    Adam,
    ModelSpec,
    NetworkError,
    TrainConfig,
    _batch_mean,
    _cross_entropy_and_adjoint,
    backbone_adjoint_grads,
    classifier_loss_and_grads,
    entropy_loss_and_adjoint,
    forward_layers,
    head_logits,
    init_backbone,
    init_head,
    random_batches,
    softmax,
    train_expert,
    train_experts,
)
from merge_surgeon.surgery import corrected_forward
from merge_surgeon.tensors import ParamSet, block_name, head_name

from conftest import bitwise_equal


def small_instance(seed, spec=None, batch=6, margin=5e-3):
    """Random params and inputs with all pre-activations clear of the ReLU
    kink, so finite differences stay on one side of every corner."""
    spec = spec or ModelSpec(4, (5, 4, 3), 3, 1)
    for attempt in range(100):
        rng = np.random.default_rng([seed, attempt])
        params = init_backbone(spec, rng)
        head_w, head_b = init_head(spec.num_classes, spec.feature_dim, rng)
        params[head_name(0, "weight")] = head_w
        params[head_name(0, "bias")] = head_b
        x = rng.standard_normal((spec.input_dim, batch))
        labels = rng.integers(0, spec.num_classes, size=batch)
        layers = forward_layers(params, spec, x)
        pre_activations = []
        z = x
        for layer in range(1, spec.num_layers + 1):
            pre = params[block_name(layer, "weight")] @ z + params[block_name(layer, "bias")][:, None]
            pre_activations.append(pre)
            z = np.maximum(pre, 0.0) if layer < spec.num_layers else pre
        if min(np.abs(p).min() for p in pre_activations) > margin:
            return spec, params, x, labels
    raise AssertionError("could not find a kink-free instance")


def relative_error(analytic, numeric, floor=1e-6):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / scale).max())


class TestForward:
    def test_all_zero_params_give_zero_trace(self):
        spec = ModelSpec(3, (4, 2), 2, 1)
        params = {name: np.zeros(shape) for name, shape in spec.backbone_shapes().items()}
        trace = corrected_forward(params, spec, None, np.ones((3, 5)), 0)
        assert isinstance(trace, tuple) and len(trace) == 2
        for z in trace:
            assert z.dtype == np.float32 and np.all(z == 0)

    def test_identity_block_passes_non_negative_input(self):
        spec = ModelSpec(3, (3, 3), 2, 1)
        params = {name: np.zeros(shape) for name, shape in spec.backbone_shapes().items()}
        params["block1.weight"] = np.eye(3)
        x = np.abs(np.random.default_rng(0).standard_normal((3, 4)))
        trace = corrected_forward(params, spec, None, x, 0)
        np.testing.assert_allclose(trace[0], x, atol=1e-7)

    def test_against_hand_computed_chain(self):
        rng = np.random.default_rng(4)
        spec = ModelSpec(2, (2, 2), 2, 1)
        w1 = rng.standard_normal((2, 2))
        b1 = rng.standard_normal(2)
        w2 = rng.standard_normal((2, 2))
        b2 = rng.standard_normal(2)
        x = rng.standard_normal((2, 3))
        params = {"block1.weight": w1, "block1.bias": b1, "block2.weight": w2, "block2.bias": b2}
        trace = corrected_forward(params, spec, None, x, 0)
        z1 = np.maximum(w1 @ x + b1[:, None], 0.0)
        z2 = w2 @ z1 + b2[:, None]
        np.testing.assert_allclose(trace[0], z1, atol=1e-6)
        np.testing.assert_allclose(trace[1], z2, atol=1e-6)

    def test_pure(self):
        spec, params, x, _ = small_instance(10)
        a = corrected_forward(params, spec, None, x, 0)
        b = corrected_forward(params, spec, None, x, 0)
        for za, zb in zip(a, b):
            assert za.tobytes() == zb.tobytes()

    def test_shape_mismatch(self):
        spec = ModelSpec(3, (4, 2), 2, 1)
        params = {name: np.zeros(shape) for name, shape in spec.backbone_shapes().items()}
        with pytest.raises(NetworkError):
            corrected_forward(params, spec, None, np.zeros((5, 2)), 0)


class TestModelSpec:
    def test_requires_two_blocks(self):
        with pytest.raises(NetworkError):
            ModelSpec(4, (8,), 3, 1)

    def test_rejects_non_positive_dims(self):
        with pytest.raises(NetworkError):
            ModelSpec(0, (8, 4), 3, 1)
        with pytest.raises(NetworkError):
            ModelSpec(4, (8, 0), 3, 1)
        with pytest.raises(NetworkError):
            ModelSpec(4, (8, 4), 0, 1)
        with pytest.raises(NetworkError):
            ModelSpec(4, (8, 4), 3, 0)

    def test_dims_are_coerced_to_int(self):
        spec = ModelSpec(4.0, [5.0, np.int64(4)], 3.0, np.int64(2))
        dims = (spec.input_dim, *spec.layer_dims, spec.num_classes, spec.num_tasks)
        assert [type(d) for d in dims] == [int] * 5
        assert spec.to_text() == "input_dim = 4\nlayer_dims = 5,4\nhead_dims = 3,3\n"

    @pytest.mark.parametrize("args, message", [
        ((4.7, (5, 4), 3, 1), "input_dim must be a whole number, got 4.7"),
        ((4, (5.9, 4), 3, 1), r"layer_dims\[0\] must be a whole number, got 5.9"),
        ((4, (5, 4), 3.5, 1), "num_classes must be a whole number, got 3.5"),
        ((4, (5, 4), 3, 1.2), "num_tasks must be a whole number, got 1.2"),
        (("abc", (5, 4), 3, 1), "input_dim must be a whole number, got 'abc'"),
        ((4, (5, 4), 3, "2"), "num_tasks must be a whole number, got '2'"),
        ((4, (5, 4), None, 1), "num_classes must be a whole number, got None"),
        ((4, (5, float("nan")), 3, 1), r"layer_dims\[1\] must be a whole number, got nan"),
        ((4, (5, 4), 3, float("inf")), "num_tasks must be a whole number, got inf"),
    ])
    def test_a_dim_that_int_would_change_is_rejected(self, args, message):
        # int() alone would truncate 4.7 to 4 and end 'abc', None, nan and
        # inf in a raw ValueError, TypeError or OverflowError.
        with pytest.raises(NetworkError, match=f"^{message}$"):
            ModelSpec(*args)

    @pytest.mark.parametrize("layer_dims", [None, 5])
    def test_layer_dims_that_are_not_a_sequence_are_rejected(self, layer_dims):
        # Iterating them used to end in a raw TypeError.
        with pytest.raises(
            NetworkError, match=f"^layer_dims must be a sequence of widths, got {layer_dims}$"
        ):
            ModelSpec(4, layer_dims, 3, 1)

    def test_to_text_is_the_reference_model_spec_cfg(self):
        # Every run writes this as model_spec.cfg, which its manifest hashes:
        # one head width per task.
        assert ModelSpec(16, (32,) * 5 + (16,), 5, 4).to_text() == (
            "input_dim = 16\n"
            "layer_dims = 32,32,32,32,32,16\n"
            "head_dims = 5,5,5,5\n"
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backbone_checks_and_copies_the_backbone_only(self, dtype):
        spec = ModelSpec(3, (4, 2), 2, 1)
        rng = np.random.default_rng(0)
        params = {name: rng.standard_normal(shape).astype(np.float32)
                  for name, shape in spec.backbone_shapes().items()}
        copies = spec.backbone({**params, "head.0.weight": np.zeros((2, 2))}, "expert 0", dtype)
        assert list(copies) == list(spec.backbone_shapes())
        for name, value in params.items():
            assert copies[name].dtype == dtype
            assert copies[name].tobytes() == value.astype(dtype).tobytes()
            assert not np.shares_memory(copies[name], value)
        message = "^merged: missing backbone parameter 'block2.bias'$"
        with pytest.raises(NetworkError, match=message):
            spec.backbone({k: v for k, v in params.items() if k != "block2.bias"}, "merged",
                          dtype)
        bad = dict(params)
        bad["block1.weight"] = np.zeros((4, 4))
        message = r"^expert 1: 'block1.weight' has shape \(4, 4\), expected \(4, 3\)$"
        with pytest.raises(NetworkError, match=message):
            spec.backbone(bad, "expert 1", dtype)

    def test_backbone_names_its_dtype_at_every_call(self):
        spec = ModelSpec(3, (4, 2), 2, 1)
        with pytest.raises(TypeError, match="dtype"):
            spec.backbone({}, "merged")

    @pytest.mark.parametrize("stray", ["block7.weight", "block3.bias", "block0.weight"])
    def test_backbone_rejects_a_block_the_spec_does_not_have(self, stray):
        spec = ModelSpec(3, (4, 2), 2, 1)
        params = {name: np.zeros(shape, dtype=np.float32)
                  for name, shape in spec.backbone_shapes().items()}
        with pytest.raises(
            NetworkError, match=f"^pretrained: unexpected backbone parameter '{stray}'$"
        ):
            spec.backbone(
                {**params, stray: np.zeros((2, 2), dtype=np.float32)}, "pretrained", np.float64
            )

    def test_one_pool_listed_per_task_is_converted_once(self, monkeypatch):
        spec = ModelSpec(2, (4, 2), 2, 3)
        pool = np.arange(12, dtype=np.float64).reshape(6, 2)
        converted = []
        asarray = np.asarray

        def counting_asarray(a, *args, **kwargs):
            converted.append(a)
            return asarray(a, *args, **kwargs)

        monkeypatch.setattr(network.np, "asarray", counting_asarray)
        first, second, third = spec.pools([pool] * 3, "input pools", np.float32)
        monkeypatch.undo()
        assert len(converted) == 1
        assert first is second is third
        assert first.dtype == np.float32
        assert first.tobytes() == pool.astype(np.float32).tobytes()

    def test_distinct_pools_stay_distinct(self):
        spec = ModelSpec(3, (4, 2), 2, 3)
        pools = [np.full((2, 3), float(t), dtype=np.float32) for t in range(3)]
        checked = spec.pools(iter(pools), "input pools", np.float32)
        assert [p[0, 0] for p in checked] == [0.0, 1.0, 2.0]
        assert len({id(p) for p in checked}) == 3

    def test_pools_in_their_dtype_are_not_copied(self):
        spec = ModelSpec(3, (4, 2), 2, 2)
        pools = [np.ones((2, 3), dtype=np.float32), np.ones((5, 3))]
        assert all(got is pool for got, pool in zip(spec.pools(pools, "inputs", None), pools))
        checked = spec.pools(pools, "input pools", np.float32)
        assert checked[0] is pools[0]
        assert checked[1].dtype == np.float32

    def test_pools_name_every_parameter_at_every_call(self):
        spec = ModelSpec(3, (4, 2), 2, 1)
        with pytest.raises(TypeError, match="dtype"):
            spec.pools([np.ones((2, 3))], "inputs")


class TestEntropy:
    def test_uniform_logits(self):
        for classes in (2, 5, 9):
            logits = np.full((classes, 3), 1.7)
            entropy, _ = entropy_loss_and_adjoint(logits)
            assert entropy == pytest.approx(math.log(classes), abs=1e-12)

    def test_near_one_hot(self):
        logits = np.zeros((4, 2))
        logits[1, :] = 1e4
        assert entropy_loss_and_adjoint(logits)[0] < 1e-6

    def test_two_class_value(self):
        # p = (0.25, 0.75); independent evaluation of -sum p ln p.
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert expected == pytest.approx(0.562335, abs=5e-7)
        logits = np.array([[0.0], [math.log(3.0)]])
        assert entropy_loss_and_adjoint(logits)[0] == pytest.approx(expected, abs=1e-12)

    def test_head_logits_shape_check(self):
        with pytest.raises(NetworkError):
            head_logits(np.zeros((3, 4)), np.zeros(3), np.zeros((5, 2)))


class TestBackprop:
    def test_zero_input_batch(self):
        # Nonzero biases keep units active so the backward signal reaches
        # block 1; its weight grads still vanish because x multiplies them.
        spec, params, _, labels = small_instance(11)
        rng = np.random.default_rng(99)
        for name in list(params):
            if name.endswith(".bias"):
                params[name] = rng.uniform(0.1, 0.5, size=params[name].shape)
        x = np.zeros((spec.input_dim, len(labels)))
        _, grads = classifier_loss_and_grads(params, spec, 0, x, labels)
        assert np.all(grads["block1.weight"] == 0)
        assert np.any(grads["block1.bias"] != 0)

    def test_cross_entropy_gradients_match_finite_differences(self):
        for seed in range(3):
            spec, params, x, labels = small_instance(20 + seed)
            _, grads = classifier_loss_and_grads(params, spec, 0, x, labels)
            eps = 1e-3
            for name in params:
                numeric = np.zeros_like(params[name])
                flat = numeric.reshape(-1)
                for i in range(flat.size):
                    for sign in (1, -1):
                        bumped = {k: v.copy() for k, v in params.items()}
                        bumped[name].reshape(-1)[i] += sign * eps
                        loss, _ = classifier_loss_and_grads(bumped, spec, 0, x, labels)
                        flat[i] += sign * loss / (2 * eps)
                assert relative_error(grads[name], numeric) < 1e-3, name

    def test_affine_layer_mse_adjoint_matches_closed_form(self):
        # Identity first block on non-negative input makes the network a
        # single affine map, so dW = 2 (W X - Y) X^T / N.
        rng = np.random.default_rng(13)
        spec = ModelSpec(3, (3, 2), 2, 1)
        params = {
            "block1.weight": np.eye(3),
            "block1.bias": np.zeros(3),
            "block2.weight": rng.standard_normal((2, 3)),
            "block2.bias": np.zeros(2),
        }
        x = np.abs(rng.standard_normal((3, 8))) + 0.1
        y = rng.standard_normal((2, 8))
        out = params["block2.weight"] @ x
        adjoint = 2.0 * (out - y) / x.shape[1]
        layers = forward_layers(params, spec, x)
        grads = backbone_adjoint_grads(params, spec, x, layers, adjoint)
        closed_form = 2.0 * (out - y) @ x.T / x.shape[1]
        np.testing.assert_allclose(grads["block2.weight"], closed_form, atol=1e-5)


def _textbook_adam(param, grads, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
    """The allocating Adam update, one step per gradient, on a copy of
    ``param``: the expression the optimizer has always computed."""
    b1, b2 = betas
    param = param.copy()
    m = np.zeros_like(param)
    v = np.zeros_like(param)
    for t, grad in enumerate(grads, start=1):
        m *= b1
        m += (1 - b1) * grad
        v *= b2
        v += (1 - b2) * np.square(grad)
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return param


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        param = np.array([1.0, -2.0, 3.0])
        before = param.copy()
        adam = Adam()
        adam.step(param, np.zeros(3))
        np.testing.assert_array_equal(param, before)

    def test_descends_a_quadratic(self):
        param = np.array([5.0])
        adam = Adam(learning_rate=0.1)
        for _ in range(200):
            adam.step(param, 2 * param)
        assert abs(param[0]) < 0.5

    # With beta1 = 0.5, 1 - beta1**t rounds to 1.0 from step 54 on.
    @pytest.mark.parametrize("betas", [(0.8, 0.99), (0.5, 0.99)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_step_is_the_textbook_step(self, betas, dtype):
        # Surgery steps float32 adapters: the moments and every operation
        # follow the array's dtype.
        rng = np.random.default_rng(0)
        start = rng.standard_normal((3, 7)).astype(dtype)
        # Gradients over many magnitudes, zeros included.
        grads = [
            (rng.standard_normal((3, 7)) * 10.0 ** rng.integers(-12, 12)).astype(dtype)
            for _ in range(80)
        ]
        grads[5][1] = 0.0
        param = start.copy()
        adam = Adam(learning_rate=0.01, betas=betas)
        for grad in grads:
            adam.step(param, grad)
        want = _textbook_adam(start, grads, lr=0.01, betas=betas)
        assert param.dtype == want.dtype == dtype
        assert param.tobytes() == want.tobytes()

    def test_whole_buffer_step_equals_per_row_steps(self):
        # Every row steps on every step, as each trainer's buffer does:
        # each row ends bitwise where its own textbook Adam on its own
        # gradients leaves it.
        rng = np.random.default_rng(1)
        rows, size, steps = 4, 11, 25
        start = rng.standard_normal((rows, size))
        grads = [rng.standard_normal((rows, size)) for _ in range(steps)]
        buffer = start.copy()
        adam = Adam(learning_rate=0.05)
        for grad in grads:
            adam.step(buffer, grad)
        assert adam.step_count == steps
        for r in range(rows):
            want = _textbook_adam(start[r], [g[r] for g in grads], lr=0.05)
            assert buffer[r].tobytes() == want.tobytes(), r

    def test_stacked_rows_broadcast_over_trailing_axes(self):
        rng = np.random.default_rng(2)
        start = rng.standard_normal((3, 2, 4))
        buffer = start.copy()
        adam = Adam()
        grads = [rng.standard_normal((3, 2, 4)) for _ in range(6)]
        for grad in grads:
            adam.step(buffer, grad)
        for r in range(3):
            own = [g[r] for g in grads]
            assert buffer[r].tobytes() == _textbook_adam(start[r], own).tobytes()


def _former_cross_entropy_and_adjoint(logits, labels):
    """The loss and adjoint as computed before the softmax was shared:
    the loss's own exponentials, then softmax(logits) again."""
    labels = np.asarray(labels, dtype=np.int64)
    batch = logits.shape[-1]
    columns = np.arange(batch)
    picks = (labels, columns) if labels.ndim == 1 else (
        np.arange(labels.shape[0])[:, None], labels, columns
    )
    shifted = logits - logits.max(axis=-2, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-2))
    loss = _batch_mean(logsumexp - shifted[picks])
    adjoint = softmax(logits)
    adjoint[picks] -= 1.0
    return loss, adjoint / batch


class TestCrossEntropy:
    # Training runs under this errstate too; a -1e308 vs 1e308 column
    # overflows the shift to -inf.
    @np.errstate(over="ignore", invalid="ignore")
    @pytest.mark.parametrize(
        "columns",
        [
            [[0.1, -0.3, 2.0], [5.0, 5.0, 5.0]],
            [[1e300, -1e300, 0.0], [-1e308, 1e308, 1.0]],
            [[700.0, -700.0, 0.0], [-745.0, 0.0, 745.0]],
            [[1e-300, -1e-300, 5e-324], [0.0, -0.0, 0.0]],
            [[3.0, 3.0 + 1e-15, 3.0 - 1e-15], [-1e16, -1e16 + 2.0, 1e16]],
        ],
    )
    def test_shared_softmax_is_bitwise_the_former_formula(self, columns):
        rng = np.random.default_rng(3)
        logits = np.array(columns, dtype=np.float64).T  # (3 classes, 2 columns)
        labels = np.array([0, 2])
        got = _cross_entropy_and_adjoint(logits, labels)
        want = _former_cross_entropy_and_adjoint(logits, labels)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        stacked = np.stack([logits, rng.standard_normal((3, 2)) * 50.0])
        stacked_labels = np.array([[0, 2], [1, 1]])
        got = _cross_entropy_and_adjoint(stacked, stacked_labels)
        want = _former_cross_entropy_and_adjoint(stacked, stacked_labels)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_random_logits_bitwise(self):
        rng = np.random.default_rng(4)
        for scale in (1e-3, 1.0, 1e3, 1e150):
            logits = rng.standard_normal((4, 5, 9)) * scale
            labels = rng.integers(0, 5, size=(4, 9))
            got = _cross_entropy_and_adjoint(logits, labels)
            want = _former_cross_entropy_and_adjoint(logits, labels)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(NetworkError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(NetworkError):
            TrainConfig(iterations=0)


@pytest.fixture(scope="module")
def tiny_setup():
    suite = ms.gen_task_suite(3, 2, 5, 3, 120, 60)
    spec = ModelSpec(5, (8, 8, 6), 3, 2)
    cfg = TrainConfig(iterations=150, seed=3)
    return suite, spec, cfg


class TestTraining:

    def test_pretrain_deterministic(self, tiny_setup):
        suite, spec, cfg = tiny_setup
        a = ms.pretrain(spec, suite.mixture(), cfg)
        b = ms.pretrain(spec, suite.mixture(), cfg)
        assert bitwise_equal(a.params, b.params)
        assert a.losses == b.losses

    def test_expert_deterministic_and_carries_head(self, tiny_setup):
        suite, spec, cfg = tiny_setup
        pre = ms.pretrain(spec, suite.mixture(), cfg)
        a = ms.train_expert(pre.params, suite.split("train")[1], 1, spec, cfg)
        b = ms.train_expert(pre.params, suite.split("train")[1], 1, spec, cfg)
        assert bitwise_equal(a.params, b.params)
        assert head_name(1, "weight") in a.params
        assert head_name(1, "bias") in a.params

    def test_loss_strictly_decreases(self, tiny_setup):
        suite, spec, cfg = tiny_setup
        pre = ms.pretrain(spec, suite.mixture(), cfg)
        assert pre.losses[-1] < pre.losses[0]
        expert = ms.train_expert(pre.params, suite.split("train")[0], 0, spec, cfg)
        assert expert.losses[-1] < expert.losses[0]

    def test_classifier_loss_of_trained_expert(self, tiny_setup):
        suite, spec, cfg = tiny_setup
        pre = ms.pretrain(spec, suite.mixture(), cfg)
        expert = ms.train_expert(pre.params, suite.split("train")[0], 0, spec, cfg)
        data = suite.split("train")[0]
        params64 = {name: value.astype(np.float64) for name, value in expert.params.items()}
        loss, _ = classifier_loss_and_grads(params64, spec, 0, data.inputs(), data.labels)
        assert 0 < loss < expert.losses[0]


def test_pretraining_makes_no_float64_copy_of_its_mixture():
    # Batches are gathered from the float32 features: the traced peak of
    # a short pretraining stays below one float64 copy of the mixture.
    rng = np.random.default_rng(8)
    mixture = Dataset(rng.standard_normal((20_000, 16)), rng.integers(0, 5, 20_000), 5)
    spec = ModelSpec(16, (32, 32, 16), 5, 1)
    tracemalloc.start()
    try:
        ms.pretrain(spec, mixture, TrainConfig(iterations=5, seed=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mixture.features.size * 8


def _reference_training(params64, spec, head_tag, data, cfg, batch_rng):
    """The per-model loop training ran before models were stacked: 2-D
    calls and one Adam per parameter, updated in place."""
    adams = {name: Adam(cfg.learning_rate) for name in params64}
    features = data.features.astype(np.float64)
    losses = []
    for _ in range(cfg.iterations):
        idx = batch_rng.integers(0, len(data), size=cfg.batch_size)
        loss, grads = classifier_loss_and_grads(
            params64, spec, head_tag, features[idx].T, data.labels[idx]
        )
        losses.append(loss)
        for name, grad in grads.items():
            adams[name].step(params64[name], grad)
    return losses


def _reference_expert(pretrained, data, task, spec, cfg):
    params64 = {n: np.array(pretrained[n], dtype=np.float64) for n in spec.backbone_shapes()}
    head_w, head_b = init_head(
        spec.num_classes, spec.feature_dim, np.random.default_rng([cfg.seed, 2, task])
    )
    params64[head_name(task, "weight")] = head_w
    params64[head_name(task, "bias")] = head_b
    losses = _reference_training(
        params64, spec, task, data, cfg, np.random.default_rng([cfg.seed, 3, task])
    )
    return ParamSet(params64), tuple(losses)


def _task_data(seed, sizes, classes, dim=5, scale=1.0):
    rng = np.random.default_rng(seed)
    return [
        Dataset(scale * rng.standard_normal((n, dim)), rng.integers(0, c, size=n), c)
        for n, c in zip(sizes, classes)
    ]


def _per_iteration_batches(pools, batch_size, iterations, seed):
    """Batches drawn as one ``integers`` call per iteration and pool: the
    draws that random_batches makes a chunk at a time."""
    rng = np.random.default_rng(seed)
    for _ in range(iterations):
        yield [pool[rng.integers(0, pool.shape[0], size=batch_size)].T for pool in pools]


class TestRandomBatches:
    @pytest.mark.parametrize("sizes", [(2000, 1500, 37), (1, 5, 2**20)])
    @pytest.mark.parametrize("batch_size", [16, 7, 1])
    @pytest.mark.parametrize(
        ("chunks", "extra"), [(0, 1), (1, -1), (1, 0), (2, 5)],
        ids=["one", "per_chunk-1", "per_chunk", "2*per_chunk+5"],
    )
    def test_block_draws_are_the_per_iteration_draws(self, sizes, batch_size, chunks, extra):
        # Row i of a pool holds i, so a batch shows the indices it drew.
        per_chunk = _CHUNK_COLUMNS // batch_size
        iterations = chunks * per_chunk + extra
        pools = [np.repeat(np.arange(n, dtype=np.float32)[:, None], 2, axis=1) for n in sizes]
        got = list(random_batches(pools, batch_size, iterations, [9, 6]))
        want = list(_per_iteration_batches(pools, batch_size, iterations, [9, 6]))
        assert [len(chunk) for chunk in got[:-1]] == [per_chunk] * (len(got) - 1)
        assert sum(len(chunk) for chunk in got) == len(want) == iterations
        rows = [chunk[i] for chunk in got for i in range(len(chunk))]
        for row, want_row in zip(rows, want):
            assert row.shape == (len(sizes), 2, batch_size)
            for batch, want_batch in zip(row, want_row):
                assert batch.dtype == want_batch.dtype
                assert batch.flags.f_contiguous and want_batch.flags.f_contiguous
                assert batch.tobytes() == want_batch.tobytes()


class TestStackedTraining:
    """Joint training of stacked models equals training each one alone,
    bit for bit."""

    def test_classifier_loss_and_grads_slices_match_2d_calls(self):
        spec = ModelSpec(4, (5, 4, 3), 3, 1)
        models = [small_instance(70 + t, spec)[1] for t in range(3)]
        rng = np.random.default_rng(73)
        # Column-major slices, as training draws them.
        x = rng.standard_normal((3, 6, 4)).swapaxes(-1, -2)
        xs = list(x)
        labels = rng.integers(0, 3, size=(3, 6))
        stacked = {name: np.stack([m[name] for m in models]) for name in models[0]}
        losses, grads = classifier_loss_and_grads(stacked, spec, 0, x, labels)
        assert losses.shape == (3,)
        for t in range(3):
            loss, own = classifier_loss_and_grads(models[t], spec, 0, xs[t], labels[t])
            assert isinstance(loss, float)
            assert losses[t].tobytes() == np.float64(loss).tobytes()
            assert list(grads) == list(own)
            for name, grad in own.items():
                assert grads[name][t].tobytes() == grad.tobytes(), name

    def test_pretrain_matches_per_model_loop(self, tiny_setup):
        suite, spec, cfg = tiny_setup
        init_rng = np.random.default_rng([cfg.seed, 0])
        params64 = init_backbone(spec, init_rng)
        head_w, head_b = init_head(suite.num_classes, spec.feature_dim, init_rng)
        params64[head_name("pretrain", "weight")] = head_w
        params64[head_name("pretrain", "bias")] = head_b
        losses = _reference_training(
            params64, spec, "pretrain", suite.mixture(), cfg, np.random.default_rng([cfg.seed, 1])
        )
        result = ms.pretrain(spec, suite.mixture(), cfg)
        want = ParamSet((n, params64[n]) for n in spec.backbone_shapes())
        assert bitwise_equal(result.params, want)
        assert result.losses == tuple(losses)

    @pytest.mark.parametrize("tasks", [[1], [2, 0], [0, 1, 2]])
    def test_joint_experts_match_per_task_loop(self, tasks):
        # Pools of 40, 55 and 70 samples; every head has 3 classes, so the
        # tasks train in one stacked pass.
        spec = ModelSpec(5, (8, 8, 6), 3, 3)
        data = _task_data(80, (40, 55, 70), (3, 3, 3))
        pretrained = ParamSet(init_backbone(spec, np.random.default_rng(81)))
        cfg = TrainConfig(iterations=40, batch_size=7, seed=82)
        results = train_experts(pretrained, [data[t] for t in tasks], tasks, spec, cfg)
        assert len(results) == len(tasks)
        for task, result in zip(tasks, results):
            params, losses = _reference_expert(pretrained, data[task], task, spec, cfg)
            assert bitwise_equal(result.params, params), task
            assert result.losses == losses, task
            alone = ms.train_expert(pretrained, data[task], task, spec, cfg)
            assert bitwise_equal(alone.params, params), task

    def test_rejects_mismatched_inputs(self):
        spec = ModelSpec(5, (8, 6), 3, 2)
        data = _task_data(83, (20, 20), (3, 3))
        four_classes = _task_data(86, (20,), (4,))
        pretrained = ParamSet(init_backbone(spec, np.random.default_rng(84)))
        cfg = TrainConfig(iterations=2, seed=0)
        with pytest.raises(NetworkError, match="each task once"):
            train_experts(pretrained, [data[0], data[0]], [0, 0], spec, cfg)
        with pytest.raises(NetworkError, match="task 1 data has 4 classes"):
            train_experts(pretrained, [data[0], *four_classes], [0, 1], spec, cfg)
        with pytest.raises(NetworkError, match="dimension 4"):
            train_experts(pretrained, _task_data(85, (20,), (3,), dim=4), [0], spec, cfg)
        with pytest.raises(NetworkError, match="out of range"):
            train_experts(pretrained, data[:1], [2], spec, cfg)

    def test_divergence_names_the_task(self):
        # Positive weights near 1e34 keep every ReLU open, so eight blocks
        # scale an input by about 1e278: task 0 stays finite, while task
        # 1's inputs, 1e35 times larger, overflow its forward pass.
        spec = ModelSpec(4, (8,) * 8, 3, 2)
        rng = np.random.default_rng(86)
        pretrained = ParamSet(
            (name, 1e34 * rng.uniform(0.5, 1.0, size=shape))
            for name, shape in spec.backbone_shapes().items()
        )
        small, large = _task_data(87, (20, 20), (3, 3), dim=4)
        large = Dataset(1e35 * np.abs(large.features), large.labels, 3)
        small = Dataset(np.abs(small.features), small.labels, 3)
        cfg = TrainConfig(iterations=3, seed=0)
        assert np.isfinite(train_expert(pretrained, small, 0, spec, cfg).losses).all()
        with pytest.raises(NetworkError, match=r"at iteration 1 \(task 1\)"):
            train_experts(pretrained, [small, large], [0, 1], spec, cfg)

    def test_pretrain_divergence_is_named(self, tiny_setup):
        suite, spec, _ = tiny_setup
        cfg = TrainConfig(learning_rate=1e200, iterations=5, seed=3)
        with pytest.raises(NetworkError, match=r"at iteration \d+ \(pretraining\)"):
            ms.pretrain(spec, suite.mixture(), cfg)


def test_reference_experts_hit_90_percent(ref_spec, ref_experts, ref_heads, ref_test_sets):
    for task, expert in enumerate(ref_experts):
        result = ms.evaluate(expert, ref_heads, ref_spec, ref_test_sets, model_id=f"expert{task}")
        assert result.task_accuracies[task] >= 0.9
