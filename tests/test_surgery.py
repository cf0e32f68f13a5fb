"""Adapters, corrected forward passes, and surgery training."""

import warnings

import numpy as np
import pytest

import merge_surgeon as ms
from merge_surgeon.bias import LossKind, representation_bias
from merge_surgeon.network import (
    ModelSpec,
    NetworkError,
    forward_layers,
    init_backbone,
    random_batches,
)
from merge_surgeon import surgery
from merge_surgeon.surgery import (
    _CHUNK_COLUMNS,
    ALL_LAYERS,
    LAST_LAYER,
    SurgeryError,
    SurgeryMode,
    SurgeryStack,
    corrected_forward,
    init_stack,
    sequential_batches,
    single_block,
    stream_train_surgery,
    surgery_gradients,
    train_surgery,
)
from merge_surgeon.tensors import ParamSet, bitwise_equal


def tiny_spec():
    return ModelSpec(4, (5, 4), (3,))


def tiny_models(seed=0):
    spec = tiny_spec()
    rng = np.random.default_rng(seed)
    merged = ParamSet(init_backbone(spec, rng))
    entries = init_backbone(spec, np.random.default_rng(seed + 1))
    entries["head.0.weight"] = rng.standard_normal((3, 4))
    entries["head.0.bias"] = np.zeros(3)
    expert = ParamSet(entries)
    return spec, merged, expert


def make_stack(mode, adapters):
    """A stack of ``mode`` holding the ``(down, up)`` pair ``adapters[(task, layer)]``."""
    return SurgeryStack(mode, ParamSet(
        (f"surgery.{task}.{layer}.{half}", matrix)
        for (task, layer), pair in adapters.items() for half, matrix in zip(("down", "up"), pair)
    ))


def entry(stack, task, layer, half):
    return stack.params[f"surgery.{task}.{layer}.{half}"]


def _omega(pair, z):
    """up @ relu(down @ z) in float64 of the float32 ``(down, up)`` that a
    stack holds: the hand-written correction."""
    down, up = (np.asarray(m, dtype=np.float32).astype(np.float64) for m in pair)
    return up @ np.maximum(down @ z, 0.0)


class TestAdapterForward:
    """The in-path correction that forward_layers applies at an adapter."""

    def test_zero_down_gives_zero(self):
        spec = tiny_spec()
        backbone = init_backbone(spec, np.random.default_rng(0))
        pair = {"down": np.zeros((2, 5)), "up": np.ones((5, 2))}
        x = np.random.default_rng(0).standard_normal((4, 6))
        plain = forward_layers(backbone, spec, x)
        corrected = forward_layers(backbone, spec, x, {1: pair})
        for a, b in zip(plain, corrected):
            assert a.tobytes() == b.tobytes()

    def test_identity_pair_on_non_negative_input(self):
        # Block 1 ends in a ReLU, so its output is non-negative and an
        # identity pair subtracts all of it.
        spec = tiny_spec()
        backbone = init_backbone(spec, np.random.default_rng(1))
        pair = {"down": np.eye(5), "up": np.eye(5)}
        x = np.random.default_rng(1).standard_normal((4, 6))
        records = []
        z1 = forward_layers(backbone, spec, x, {1: pair}, records)[0]
        assert np.all(z1 == 0)
        assert records[0][1].tobytes() == records[0][0].tobytes()

    def test_matches_hand_computation(self):
        spec = tiny_spec()
        rng = np.random.default_rng(2)
        backbone = init_backbone(spec, rng)
        down, up = (rng.standard_normal(shape).astype(np.float32) for shape in ((2, 5), (5, 2)))
        x = rng.standard_normal((4, 3))
        raw = np.maximum(backbone["block1.weight"] @ x + backbone["block1.bias"][:, None], 0.0)
        expected = raw - _omega((down, up), raw)
        pair = {"down": down.astype(np.float64), "up": up.astype(np.float64)}
        got = forward_layers(backbone, spec, x, {1: pair})[0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_shape_validation(self):
        spec = tiny_spec()
        wrong_width = make_stack(single_block(1), {(0, 1): (np.zeros((2, 4)), np.zeros((4, 2)))})
        with pytest.raises(SurgeryError, match="width 4 != layer width 5"):
            wrong_width.adapters64(0, spec)
        backbone = init_backbone(spec, np.random.default_rng(3))
        with pytest.raises(NetworkError):
            forward_layers(backbone, spec, np.zeros((5, 3)))


class TestStackConstructor:
    """SurgeryStack(mode, params) checks every entry's name, pair and shape."""

    @pytest.mark.parametrize(
        "entries, message",
        [
            pytest.param(
                {"surgery.0.1.down": np.zeros((2, 4)), "surgery.0.1.up": np.zeros((3, 2))},
                r"^adapter \(0, 1\) shapes inconsistent: down \(2, 4\), up \(3, 2\)$",
                id="up_not_transposed_down",
            ),
            pytest.param(
                {"surgery.0.1.down": np.zeros(4), "surgery.0.1.up": np.zeros(4)},
                r"^adapter \(0, 1\) shapes inconsistent: down \(4,\), up \(4,\)$",
                id="one_dimensional_down",
            ),
            pytest.param(
                {"surgery.0.1.down": np.zeros((2, 4))},
                r"^incomplete adapter for \(task, layer\) \(0, 1\)$",
                id="unpaired_half",
            ),
            pytest.param(
                {"surgery.0.1.left": np.zeros((2, 4))},
                r"^unexpected stack entry 'surgery.0.1.left'",
                id="bad_name",
            ),
        ],
    )
    def test_malformed_entries_rejected(self, entries, message):
        with pytest.raises(SurgeryError, match=message):
            SurgeryStack(ALL_LAYERS, ParamSet(entries))


class TestSurgeryMode:
    def test_layer_indices(self):
        assert LAST_LAYER.layer_indices(4) == (4,)
        assert ALL_LAYERS.layer_indices(3) == (1, 2, 3)
        assert single_block(2).layer_indices(4) == (2,)

    def test_parse_labels(self):
        assert SurgeryMode.parse("v1") is LAST_LAYER
        assert SurgeryMode.parse("v2") is ALL_LAYERS
        assert SurgeryMode.parse("block:3") == single_block(3)
        with pytest.raises(SurgeryError):
            SurgeryMode.parse("v3")

    def test_block_out_of_range(self):
        with pytest.raises(SurgeryError):
            single_block(5).layer_indices(3)


class TestCorrectedForward:
    def test_empty_stack_equals_plain_forward_bitwise(self):
        spec, merged, _ = tiny_models()
        stack = SurgeryStack(ALL_LAYERS, ParamSet())
        x = np.random.default_rng(3).standard_normal((4, 7))
        plain = corrected_forward(merged, spec, None, x, task=0)
        corrected = corrected_forward(merged, spec, stack, x, task=0)
        for a, b in zip(plain, corrected):
            assert a.tobytes() == b.tobytes()

    def test_zero_up_matrices_equal_plain_forward(self):
        spec, merged, _ = tiny_models()
        stack = init_stack(spec, num_tasks=1, mode=ALL_LAYERS, rank=3, seed=5)
        x = np.random.default_rng(4).standard_normal((4, 7))
        plain = corrected_forward(merged, spec, None, x, task=0)
        corrected = corrected_forward(merged, spec, stack, x, task=0)
        for a, b in zip(plain, corrected):
            np.testing.assert_array_equal(a, b)

    def test_last_layer_mode_touches_only_final_layer(self):
        spec, merged, _ = tiny_models()
        rng = np.random.default_rng(5)
        adapters = {
            (0, spec.num_layers): (
                rng.standard_normal((3, spec.feature_dim)),
                rng.standard_normal((spec.feature_dim, 3)),
            )
        }
        stack = make_stack(LAST_LAYER, adapters)
        x = rng.standard_normal((4, 6))
        plain = corrected_forward(merged, spec, None, x, task=0)
        corrected = corrected_forward(merged, spec, stack, x, task=0)
        for layer in range(spec.num_layers - 1):
            assert plain[layer].tobytes() == corrected[layer].tobytes()
        assert plain[-1].tobytes() != corrected[-1].tobytes()

    def test_all_layers_matches_hand_composition(self):
        spec = ModelSpec(3, (3, 2), (2,))
        rng = np.random.default_rng(6)
        merged = ParamSet(init_backbone(spec, rng))
        adapters = {}
        for layer, width in ((1, 3), (2, 2)):
            adapters[(0, layer)] = (
                rng.standard_normal((2, width)), rng.standard_normal((width, 2))
            )
        stack = make_stack(ALL_LAYERS, adapters)
        x = rng.standard_normal((3, 4))
        trace = corrected_forward(merged, spec, stack, x, task=0)

        w1 = merged["block1.weight"].astype(np.float64)
        b1 = merged["block1.bias"].astype(np.float64)
        w2 = merged["block2.weight"].astype(np.float64)
        b2 = merged["block2.bias"].astype(np.float64)
        z1 = np.maximum(w1 @ x + b1[:, None], 0.0)
        z1_hat = z1 - _omega(adapters[(0, 1)], z1)
        z2 = w2 @ z1_hat + b2[:, None]
        z2_hat = z2 - _omega(adapters[(0, 2)], z2)
        np.testing.assert_allclose(trace[0], z1_hat, atol=1e-6)
        np.testing.assert_allclose(trace[1], z2_hat, atol=1e-6)

    def test_partial_coverage_rejected(self):
        spec, merged, _ = tiny_models()
        stack = make_stack(ALL_LAYERS, {(0, 1): (np.zeros((2, 5)), np.zeros((5, 2)))})
        message = r"^task 0 covers layers \[1\], mode v2 requires \[1, 2\]$"
        with pytest.raises(SurgeryError, match=message):
            corrected_forward(merged, spec, stack, np.zeros((4, 2)), task=0)

    def test_uncovered_task_passes_through(self):
        spec, merged, _ = tiny_models()
        stack = init_stack(spec, num_tasks=1, mode=LAST_LAYER, rank=2, seed=1)
        x = np.random.default_rng(7).standard_normal((4, 3))
        trace = corrected_forward(merged, spec, stack, x, task=5)
        plain = corrected_forward(merged, spec, None, x, task=0)
        assert trace[-1].tobytes() == plain[-1].tobytes()


    def test_representation_overflow_names_task_and_layer(self):
        # Weights that fit float32 but scale every block's output by 1e30:
        # layer 1 fits float32, layer 2 (about 1e60) does not.
        spec, merged, _ = tiny_models()
        big = ParamSet({name: value * np.float32(1e30) for name, value in merged.items()})
        x = np.ones((4, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                SurgeryError, match=r"^task 3: layer 2 representations overflow float32$"
            ):
                corrected_forward(big, spec, None, x, task=3)


class TestCheckPools:
    def test_one_pool_listed_per_task_is_converted_once(self, monkeypatch):
        pool = np.arange(12, dtype=np.float32).reshape(6, 2)
        converted = []
        asarray = np.asarray

        def counting_asarray(a, *args, **kwargs):
            converted.append(a)
            return asarray(a, *args, **kwargs)

        monkeypatch.setattr(surgery.np, "asarray", counting_asarray)
        first, second, third = surgery._check_pools([pool] * 3)
        monkeypatch.undo()
        assert len(converted) == 1
        assert first is second is third
        assert first.dtype == np.float64
        assert first.tobytes() == pool.astype(np.float64).tobytes()

    def test_distinct_pools_stay_distinct(self):
        pools = [np.full((2, 3), float(t), dtype=np.float32) for t in range(3)]
        checked = surgery._check_pools(iter(pools))
        assert [p[0, 0] for p in checked] == [0.0, 1.0, 2.0]
        assert len({id(p) for p in checked}) == 3


class TestStackPersistence:
    def test_round_trip_keeps_mode(self):
        spec = tiny_spec()
        for mode in (LAST_LAYER, ALL_LAYERS, single_block(1), single_block(2)):
            stack = init_stack(spec, num_tasks=2, mode=mode, rank=3, seed=8)
            loaded = SurgeryStack(mode, stack.params)
            assert loaded.mode == mode
            assert bitwise_equal(loaded.params, stack.params)
            loaded.validate(spec, num_tasks=2)

    def test_last_block_stack_keeps_block_mode(self):
        # block:<L> on an L-block model covers the same layers as v1; the
        # loader must keep the mode it is given instead of guessing v1.
        spec = tiny_spec()
        mode = single_block(spec.num_layers)
        params = init_stack(spec, num_tasks=2, mode=mode, rank=3, seed=8).params
        loaded = SurgeryStack(mode, params)
        loaded.validate(spec, num_tasks=2)
        assert loaded.mode.label() == f"block:{spec.num_layers}"

    def test_coverage_must_match_mode(self):
        spec = tiny_spec()
        params = init_stack(spec, num_tasks=2, mode=LAST_LAYER, rank=3, seed=8).params
        for mode in (ALL_LAYERS, single_block(1)):
            with pytest.raises(SurgeryError, match="task 0 covers layers"):
                SurgeryStack(mode, params).validate(spec, num_tasks=2)
        with pytest.raises(SurgeryError):
            SurgeryStack(single_block(3), params).validate(spec, num_tasks=2)

    def test_checkpoint_round_trip(self, tmp_path):
        from merge_surgeon.checkpoint import load_paramset, save_paramset

        spec = tiny_spec()
        stack = init_stack(spec, num_tasks=2, mode=ALL_LAYERS, rank=2, seed=9)
        path = tmp_path / "stack.msrg"
        save_paramset(stack.params, path)
        loaded = SurgeryStack(ALL_LAYERS, load_paramset(path))
        loaded.validate(spec, num_tasks=2)
        assert bitwise_equal(loaded.params, stack.params)

    def test_incomplete_adapter_rejected(self):
        with pytest.raises(SurgeryError):
            SurgeryStack(ALL_LAYERS, ParamSet([("surgery.0.1.down", np.zeros((2, 4)))]))

    def test_validate_rejects_extra_tasks(self):
        spec = tiny_spec()
        stack = init_stack(spec, num_tasks=3, mode=ALL_LAYERS, rank=2, seed=9)
        stack.validate(spec, num_tasks=3)
        with pytest.raises(SurgeryError, match=r"stack holds tasks \[2\] outside the run's 2"):
            stack.validate(spec, num_tasks=2)


def _layer_losses_f64(merged64, spec, task_adapters, x, targets, psi):
    """Per-layer alignment losses of the corrected float64 forward pass,
    the finite-difference target for the gradient checks."""
    from merge_surgeon.bias import alignment_loss_and_grad
    from merge_surgeon.network import forward_layers

    corrected = forward_layers(merged64, spec, x, task_adapters)
    return {
        layer: alignment_loss_and_grad(corrected[layer - 1], targets[layer - 1], psi)[0]
        for layer in task_adapters
    }


class TestTrainSurgery:
    def test_merged_equal_expert_is_fixed_point(self):
        spec, _, expert = tiny_models(seed=30)
        cfg = ms.TrainConfig(iterations=5, seed=30)
        inputs = [np.random.default_rng(31).standard_normal((20, 4))]
        result = train_surgery(expert, [expert], spec, inputs, ALL_LAYERS, LossKind.L1, cfg, rank=3)
        assert result.losses[0] == 0.0
        reference = init_stack(spec, 1, ALL_LAYERS, rank=3, seed=30)
        assert bitwise_equal(result.stack.params, reference.params)

    def test_loss_decreases(self):
        spec, merged, expert = tiny_models(seed=32)
        cfg = ms.TrainConfig(iterations=200, seed=32)
        inputs = [np.random.default_rng(33).standard_normal((60, 4))]
        result = train_surgery(merged, [expert], spec, inputs, ALL_LAYERS, LossKind.L1, cfg, rank=3)
        assert result.losses[-1] < result.losses[0]

    def test_deterministic(self):
        spec, merged, expert = tiny_models(seed=34)
        cfg = ms.TrainConfig(iterations=30, seed=34)
        inputs = [np.random.default_rng(35).standard_normal((25, 4))]
        a = train_surgery(merged, [expert], spec, inputs, LAST_LAYER, LossKind.L1, cfg, rank=2)
        b = train_surgery(merged, [expert], spec, inputs, LAST_LAYER, LossKind.L1, cfg, rank=2)
        assert a.losses == b.losses
        assert bitwise_equal(a.stack.params, b.stack.params)

    def test_does_not_mutate_inputs(self):
        spec, merged, expert = tiny_models(seed=36)
        merged_before = {n: v.tobytes() for n, v in merged.items()}
        expert_before = {n: v.tobytes() for n, v in expert.items()}
        cfg = ms.TrainConfig(iterations=10, seed=36)
        inputs = [np.random.default_rng(37).standard_normal((15, 4))]
        train_surgery(merged, [expert], spec, inputs, ALL_LAYERS, LossKind.L1, cfg, rank=2)
        assert {n: v.tobytes() for n, v in merged.items()} == merged_before
        assert {n: v.tobytes() for n, v in expert.items()} == expert_before

    @pytest.mark.parametrize("psi", [LossKind.L1, LossKind.MSE, LossKind.NEG_COSINE])
    @pytest.mark.parametrize("full_backprop", [False, True])
    def test_adapter_gradients_match_finite_differences(self, psi, full_backprop):
        # Block-coordinate mode differentiates each layer's own loss with the
        # incoming representation fixed; full backprop differentiates the
        # summed loss through downstream blocks.  Both must match central
        # differences of the corresponding objective, held in float64.
        from merge_surgeon.network import forward_layers
        from merge_surgeon.surgery import surgery_gradients

        spec, merged, expert = tiny_models(seed=38)
        rng = np.random.default_rng(39)
        x = rng.standard_normal((4, 6)) + 0.3
        init = init_stack(spec, 1, ALL_LAYERS, rank=2, seed=38)
        # Non-zero up matrices so gradients flow through both halves.
        task_adapters = {
            layer: {
                "down": entry(init, 0, layer, "down").astype(np.float64),
                "up": rng.uniform(-0.3, 0.3, size=entry(init, 0, layer, "up").shape),
            }
            for layer in ALL_LAYERS.layer_indices(spec.num_layers)
        }
        merged64 = spec.backbone64(merged)
        targets = forward_layers(spec.backbone64(expert), spec, x)
        _, analytic = surgery_gradients(
            merged64, spec, task_adapters, x, targets, psi, full_backprop
        )

        def objective(adapters, layer):
            losses = _layer_losses_f64(merged64, spec, adapters, x, targets, psi)
            return sum(losses.values()) if full_backprop else losses[layer]

        eps = 1e-6
        for layer, pair in task_adapters.items():
            for field in ("down", "up"):
                base = pair[field]
                numeric = np.zeros_like(base)
                for i in range(base.shape[0]):
                    for j in range(base.shape[1]):
                        bumped = {
                            l: {k: v.copy() for k, v in p.items()}
                            for l, p in task_adapters.items()
                        }
                        bumped[layer][field][i, j] += eps
                        f_plus = objective(bumped, layer)
                        bumped[layer][field][i, j] -= 2 * eps
                        f_minus = objective(bumped, layer)
                        numeric[i, j] = (f_plus - f_minus) / (2 * eps)
                got = analytic[layer][field]
                scale = np.maximum(np.maximum(np.abs(got), np.abs(numeric)), 1e-6)
                assert (np.abs(got - numeric) / scale).max() < 1e-3, (layer, field, psi)

    def test_full_backprop_variant_also_descends(self, capsys):
        # Block-coordinate is the default update rule; the full-backprop
        # flag descends the same objective through downstream blocks.
        # Print both trajectories so the divergence is visible in reports.
        spec, merged, expert = tiny_models(seed=46)
        cfg = ms.TrainConfig(iterations=150, seed=46)
        inputs = [np.random.default_rng(47).standard_normal((50, 4))]
        block = train_surgery(
            merged, [expert], spec, inputs, ALL_LAYERS, LossKind.L1, cfg, rank=3
        )
        full = train_surgery(
            merged, [expert], spec, inputs, ALL_LAYERS, LossKind.L1, cfg, rank=3,
            full_backprop=True,
        )
        print(
            f"surgery update-rule divergence: block-coordinate "
            f"{block.losses[0]:.4f}->{block.losses[-1]:.4f}, full-backprop "
            f"{full.losses[0]:.4f}->{full.losses[-1]:.4f}"
        )
        assert block.losses[-1] < block.losses[0]
        assert full.losses[-1] < full.losses[0]
        assert block.losses[0] == full.losses[0]

    def test_stream_fraction_one_equals_sequential_epoch(self):
        spec, merged, expert = tiny_models(seed=40)
        inputs = [np.random.default_rng(41).standard_normal((37, 4))]
        cfg = ms.TrainConfig(iterations=999, batch_size=8, seed=40)
        streamed = stream_train_surgery(
            merged, [expert], spec, inputs, 1.0, ALL_LAYERS, LossKind.L1, cfg, rank=2
        )
        epoch = train_surgery(
            merged, [expert], spec, sequential_batches(inputs, 8, 1.0),
            ALL_LAYERS, LossKind.L1, cfg, rank=2,
        )
        assert streamed.losses == epoch.losses
        assert bitwise_equal(streamed.stack.params, epoch.stack.params)

    def test_cosine_survives_dead_samples(self):
        # Zero biases send an all-zero input to all-zero columns in every
        # layer of both models; cos surgery trains through them.
        spec, merged, expert = tiny_models(seed=46)
        pool = np.random.default_rng(47).standard_normal((12, 4))
        pool[0] = 0.0
        cfg = ms.TrainConfig(batch_size=4, seed=46)
        result = stream_train_surgery(
            merged, [expert], spec, [pool], 1.0, ALL_LAYERS, LossKind.NEG_COSINE, cfg, rank=2
        )
        assert len(result.losses) == 3 and np.isfinite(result.losses).all()

    def test_stream_fraction_validation(self):
        spec, merged, expert = tiny_models(seed=42)
        cfg = ms.TrainConfig(iterations=5, seed=42)
        inputs = [np.zeros((10, 4))]
        for fraction in (0.0, -0.5, 1.5):
            with pytest.raises(SurgeryError):
                stream_train_surgery(
                    merged, [expert], spec, inputs, fraction, ALL_LAYERS, LossKind.L1, cfg
                )

    def test_training_loss_equals_bias_metric(self):
        # With L1/MSE the per-layer objective is numerically the bias value
        # of the corrected trace, so the bias module is the loss oracle.
        spec, merged, expert = tiny_models(seed=44)
        rng = np.random.default_rng(45)
        x = rng.standard_normal((4, 10))
        stack = init_stack(spec, 1, ALL_LAYERS, rank=2, seed=44)
        stack = SurgeryStack(ALL_LAYERS, {
            name: rng.uniform(-0.2, 0.2, size=value.shape) if name.endswith(".up") else value
            for name, value in stack.params.items()
        })
        for psi in (LossKind.L1, LossKind.MSE):
            corrected = corrected_forward(merged, spec, stack, x, 0)
            targets = corrected_forward(expert, spec, None, x, 0)
            from merge_surgeon.bias import alignment_loss_and_grad

            for layer in range(spec.num_layers):
                loss, _ = alignment_loss_and_grad(corrected[layer], targets[layer], psi)
                metric = representation_bias(corrected[layer], targets[layer], psi)
                assert loss == pytest.approx(metric, abs=1e-6)


def _three_task_models(seed=50):
    """A 3-block spec, a merged backbone, three experts and float64
    adapters with non-zero up matrices for every layer of every task.
    Positive biases keep ReLU columns from going all-zero, where the
    cosine loss is undefined."""
    spec = ModelSpec(4, (6, 5, 4), (3, 3, 3))
    rng = np.random.default_rng(seed + 9)

    def backbone(model_seed):
        params = init_backbone(spec, np.random.default_rng(model_seed))
        for layer in range(1, spec.num_layers + 1):
            params[f"block{layer}.bias"] = rng.uniform(0.2, 0.6, size=spec.out_dim(layer))
        return ParamSet(params)

    merged = backbone(seed)
    experts = [backbone(seed + 1 + t) for t in range(3)]
    adapters = [
        {
            layer: {
                "down": rng.uniform(-0.5, 0.5, size=(2, spec.out_dim(layer))),
                "up": rng.uniform(-0.3, 0.3, size=(spec.out_dim(layer), 2)),
            }
            for layer in ALL_LAYERS.layer_indices(spec.num_layers)
        }
        for _ in experts
    ]
    return spec, merged, experts, adapters


def _stacked_inputs(xs):
    """(T, dim, batch) whose slices keep the transposed layout the batch
    generators yield."""
    return np.stack([x.T for x in xs]).swapaxes(1, 2)


def _per_task_reference(merged, experts, spec, batches, mode, psi, cfg, rank, full_backprop):
    """Surgery training one task at a time: per task and iteration, 2-D
    target and gradient calls and one Adam per (task, layer)."""
    merged64 = spec.backbone64(merged)
    stack0 = init_stack(spec, len(experts), mode, rank, cfg.seed)
    adapters = [stack0.adapters64(task, spec) for task in range(len(experts))]
    optimizers = {(t, layer): cfg.make_adam() for t, a in enumerate(adapters) for layer in a}
    losses = []
    for row in batches:
        total = 0.0
        for task, x in enumerate(row):
            if x is None:
                continue
            targets = forward_layers(spec.backbone64(experts[task]), spec, x)
            layer_losses, grads = surgery_gradients(
                merged64, spec, adapters[task], x, targets, psi, full_backprop
            )
            for loss in layer_losses.values():
                total += loss
            for layer, grad in grads.items():
                optimizers[(task, layer)].step(adapters[task][layer], grad)
        losses.append(total)
    return losses, adapters


class TestStackedEngine:
    """Stacked (T, ...) calls equal T separate 2-D calls, bit for bit."""

    def _batches(self, spec, width=7, seed=51):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal((width, spec.input_dim)).T + 0.3 for _ in range(3)]

    def test_forward_layers_matches_per_task_calls(self):
        spec, merged, experts, adapters = _three_task_models()
        xs = self._batches(spec)
        x = _stacked_inputs(xs)
        merged64 = spec.backbone64(merged)
        experts64 = {n: np.stack([spec.backbone64(e)[n] for e in experts]) for n in merged64}
        stacked_adapters = {
            layer: {h: np.stack([a[layer][h] for a in adapters]) for h in ("down", "up")}
            for layer in adapters[0]
        }
        # Stacked block parameters, no adapters: the expert targets.
        targets = forward_layers(experts64, spec, x)
        # Shared block parameters with stacked adapters: the corrected merged model.
        records = []
        corrected = forward_layers(merged64, spec, x, stacked_adapters, records)
        for t in range(3):
            single = forward_layers(spec.backbone64(experts[t]), spec, xs[t])
            own_records = []
            own = forward_layers(merged64, spec, xs[t], adapters[t], own_records)
            for layer in range(spec.num_layers):
                assert targets[layer][t].tobytes() == single[layer].tobytes()
                assert corrected[layer][t].tobytes() == own[layer].tobytes()
                for got, want in zip(records[layer], own_records[layer]):
                    assert got[t].tobytes() == want.tobytes()

    def test_forward_layers_rejects_wrong_input_dim(self):
        spec, merged, _, _ = _three_task_models()
        with pytest.raises(NetworkError):
            forward_layers(spec.backbone64(merged), spec, np.zeros((3, spec.input_dim + 1, 2)))

    @pytest.mark.parametrize("psi", [LossKind.L1, LossKind.MSE, LossKind.NEG_COSINE])
    @pytest.mark.parametrize("full_backprop", [False, True])
    def test_surgery_gradients_match_per_task_calls(self, psi, full_backprop):
        spec, merged, experts, adapters = _three_task_models()
        # Last-layer-only adapters too, so full backprop crosses blocks
        # without corrections.
        for layers in ((1, 2, 3), (3,)):
            task_adapters = [{l: a[l] for l in layers} for a in adapters]
            xs = self._batches(spec)
            merged64 = spec.backbone64(merged)
            targets = [forward_layers(spec.backbone64(e), spec, x) for e, x in zip(experts, xs)]
            losses, grads = surgery_gradients(
                merged64,
                spec,
                {
                    l: {h: np.stack([a[l][h] for a in task_adapters]) for h in ("down", "up")}
                    for l in layers
                },
                _stacked_inputs(xs),
                [np.stack(layer_targets) for layer_targets in zip(*targets)],
                psi,
                full_backprop,
            )
            for t in range(3):
                own_losses, own_grads = surgery_gradients(
                    merged64, spec, task_adapters[t], xs[t], targets[t], psi, full_backprop
                )
                assert list(losses) == list(own_losses) == list(layers)
                for layer in layers:
                    assert isinstance(own_losses[layer], float)
                    assert losses[layer].shape == (3,)
                    assert losses[layer][t].tobytes() == np.float64(own_losses[layer]).tobytes()
                    for half in ("down", "up"):
                        got = grads[layer][half][t]
                        assert got.tobytes() == own_grads[layer][half].tobytes()

    @pytest.mark.parametrize("mode", [ALL_LAYERS, LAST_LAYER])
    def test_joint_training_equals_training_each_task_alone(self, mode):
        # A task trained alongside others ends bitwise where it would end if
        # the others had no data at all: tasks never mix in the stacked pass.
        spec, merged, experts, _ = _three_task_models(seed=52)
        cfg = ms.TrainConfig(iterations=25, batch_size=6, seed=52)
        pools = [np.random.default_rng(53 + t).standard_normal((30, 4)) for t in range(3)]
        batches = list(random_batches(pools, cfg.batch_size, cfg.iterations, [53]))
        joint = train_surgery(
            merged, experts, spec, iter(batches), mode, LossKind.MSE, cfg, rank=2
        )
        for t in range(3):
            alone = train_surgery(
                merged, experts, spec,
                iter([[b if i == t else None for i, b in enumerate(row)] for row in batches]),
                mode, LossKind.MSE, cfg, rank=2,
            )
            for layer in mode.layer_indices(spec.num_layers):
                for half in ("down", "up"):
                    got = entry(joint.stack, t, layer, half)
                    want = entry(alone.stack, t, layer, half)
                    assert got.tobytes() == want.tobytes(), (t, layer, half)
            other = (t + 1) % 3
            untouched = init_stack(spec, 3, mode, rank=2, seed=cfg.seed)
            for layer in mode.layer_indices(spec.num_layers):
                assert (
                    entry(alone.stack, other, layer, "up").tobytes()
                    == entry(untouched, other, layer, "up").tobytes()
                )

    @pytest.mark.parametrize("psi", [LossKind.L1, LossKind.MSE, LossKind.NEG_COSINE])
    @pytest.mark.parametrize("full_backprop", [False, True])
    def test_matches_per_task_reference_loop(self, psi, full_backprop):
        # Unequal stream pools, so later iterations split into width groups
        # and the shortest task runs out.
        spec, merged, experts, _ = _three_task_models(seed=56)
        cfg = ms.TrainConfig(batch_size=8, seed=56)
        pools = [
            np.random.default_rng(57 + t).standard_normal((n, 4)) + 0.3
            for t, n in enumerate((21, 30, 44))
        ]
        for mode in (ALL_LAYERS, single_block(2)):
            result = train_surgery(
                merged, experts, spec, sequential_batches(pools, cfg.batch_size), mode, psi, cfg,
                rank=2, full_backprop=full_backprop,
            )
            _assert_matches_reference(result, _per_task_reference(
                merged, experts, spec, sequential_batches(pools, cfg.batch_size), mode, psi, cfg,
                rank=2, full_backprop=full_backprop,
            ))

    def test_exhausted_stream_task_stops_stepping(self):
        # Pools of 20, 37 and 50 samples in batches of 8: task 0 runs out
        # after three iterations, the others keep training with shorter
        # final batches in their own width groups.
        spec, merged, experts, _ = _three_task_models(seed=54)
        cfg = ms.TrainConfig(batch_size=8, seed=54)
        pools = [
            np.random.default_rng(55 + t).standard_normal((n, 4)) for t, n in enumerate((20, 37, 50))
        ]
        joint = stream_train_surgery(
            merged, experts, spec, pools, 1.0, ALL_LAYERS, LossKind.L1, cfg, rank=2
        )
        assert len(joint.losses) == 7
        for t in range(3):
            own = [
                [row[0] if i == t else None for i in range(3)]
                for row in sequential_batches([pools[t]], cfg.batch_size)
            ]
            alone = train_surgery(
                merged, experts, spec, iter(own), ALL_LAYERS, LossKind.L1, cfg, rank=2
            )
            for layer in ALL_LAYERS.layer_indices(spec.num_layers):
                for half in ("down", "up"):
                    got = entry(joint.stack, t, layer, half)
                    want = entry(alone.stack, t, layer, half)
                    assert got.tobytes() == want.tobytes(), (t, layer, half)


    @pytest.mark.parametrize("mode", [ALL_LAYERS, LAST_LAYER])
    def test_stack_lists_entries_by_task_then_layer_then_down_before_up(self, mode):
        # The stack checkpoint stores the entries in this order, so its
        # bytes depend on it; init_stack lists them the same way.
        spec, merged, experts, _ = _three_task_models(seed=58)
        cfg = ms.TrainConfig(iterations=2, batch_size=4, seed=58)
        pools = [np.random.default_rng(59 + t).standard_normal((10, 4)) for t in range(3)]
        result = train_surgery(merged, experts, spec, pools, mode, LossKind.L1, cfg, rank=2)
        names = [
            f"surgery.{task}.{layer}.{half}"
            for task in range(3)
            for layer in mode.layer_indices(spec.num_layers)
            for half in ("down", "up")
        ]
        assert list(result.stack.params) == names
        assert list(init_stack(spec, 3, mode, rank=2, seed=58).params) == names


def _assert_matches_reference(result, reference):
    """``result`` holds the reference losses and, in float32, its
    adapters, entry by entry and in the order (task, layer, down, up)."""
    losses, adapters = reference
    assert result.losses == tuple(losses)
    want = ParamSet(
        (f"surgery.{task}.{layer}.{half}", pair[half])
        for task, task_adapters in enumerate(adapters)
        for layer, pair in task_adapters.items()
        for half in ("down", "up")
    )
    assert bitwise_equal(result.stack.params, want)


MODES = [pytest.param(m, id=m.label()) for m in (LAST_LAYER, ALL_LAYERS, single_block(2))]
PSIS = [LossKind.L1, LossKind.MSE, LossKind.NEG_COSINE]


class TestChunkedEngine:
    """train_surgery reads chunks of iterations ahead and computes their
    targets (and the merged blocks below the lowest adapter) in one pass;
    it still ends bitwise where the per-task reference loop ends."""

    BATCH = 8
    PER_CHUNK = _CHUNK_COLUMNS // BATCH

    def _pools(self, seed, sizes=(30, 30, 30)):
        return [
            np.random.default_rng([seed, t]).standard_normal((n, 4)) + 0.3
            for t, n in enumerate(sizes)
        ]

    @pytest.mark.parametrize("full_backprop", [False, True])
    @pytest.mark.parametrize("psi", PSIS)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("iterations", [1, PER_CHUNK + 1])
    def test_random_pools_match_per_task_reference(self, iterations, mode, psi, full_backprop):
        spec, merged, experts, _ = _three_task_models(seed=60)
        cfg = ms.TrainConfig(batch_size=self.BATCH, iterations=iterations, seed=60)
        pools = self._pools(61)
        result = train_surgery(
            merged, experts, spec, pools, mode, psi, cfg, rank=2, full_backprop=full_backprop
        )
        assert len(result.losses) == iterations
        batches = random_batches(pools, cfg.batch_size, cfg.iterations, [cfg.seed, 6])
        _assert_matches_reference(result, _per_task_reference(
            merged, experts, spec, batches, mode, psi, cfg, 2, full_backprop
        ))

    @pytest.mark.parametrize("mode", MODES)
    def test_row_major_and_mixed_layout_batches(self, mode):
        # Row-major batches throughout, except that every fifth iteration
        # gives task 1 a column-major one: each layout change ends a chunk.
        spec, merged, experts, _ = _three_task_models(seed=62)
        cfg = ms.TrainConfig(batch_size=self.BATCH, seed=62)
        rng = np.random.default_rng(63)
        rows = []
        for i in range(2 * self.PER_CHUNK + 3):
            row = [
                np.ascontiguousarray(rng.standard_normal((4, self.BATCH)) + 0.3) for _ in range(3)
            ]
            if i % 5 == 4:
                row[1] = np.asfortranarray(row[1])
            rows.append(row)
        assert not rows[0][0].flags.f_contiguous
        result = train_surgery(merged, experts, spec, iter(rows), mode, LossKind.MSE, cfg, rank=2)
        _assert_matches_reference(result, _per_task_reference(
            merged, experts, spec, rows, mode, LossKind.MSE, cfg, 2, False
        ))

    @pytest.mark.parametrize("full_backprop", [False, True])
    @pytest.mark.parametrize("mode", MODES)
    def test_unequal_streams_with_a_gap(self, mode, full_backprop):
        # Streams of 21, 300 and 440 samples: task 0 runs out early, task
        # 1 also skips iterations 5-9 and 40, and the last iterations run
        # in width groups of their own.
        spec, merged, experts, _ = _three_task_models(seed=64)
        cfg = ms.TrainConfig(batch_size=self.BATCH, seed=64)
        pools = self._pools(65, sizes=(21, 300, 440))
        rows = list(sequential_batches(pools, self.BATCH))
        for i in (*range(5, 10), 40):
            rows[i] = [b if t != 1 else None for t, b in enumerate(rows[i])]
        rows.insert(12, [None, None, None])
        assert len(rows) > self.PER_CHUNK + 1
        result = train_surgery(
            merged, experts, spec, iter(rows), mode, LossKind.L1, cfg, rank=2,
            full_backprop=full_backprop,
        )
        _assert_matches_reference(result, _per_task_reference(
            merged, experts, spec, rows, mode, LossKind.L1, cfg, 2, full_backprop
        ))

    @pytest.mark.parametrize("mode", MODES)
    def test_targets_run_once_per_chunk(self, mode, monkeypatch):
        # Every surgery_gradients call runs one forward; beyond those, one
        # target pass per chunk, plus one merged pass below the lowest
        # adapter when that is not block 1.
        spec, merged, experts, _ = _three_task_models(seed=66)
        iterations = 2 * self.PER_CHUNK + 1
        cfg = ms.TrainConfig(batch_size=self.BATCH, iterations=iterations, seed=66)
        calls = []
        forward = surgery.forward_layers

        def counting_forward(*args, **kwargs):
            calls.append(args[2])
            return forward(*args, **kwargs)

        monkeypatch.setattr(surgery, "forward_layers", counting_forward)
        train_surgery(merged, experts, spec, self._pools(67), mode, LossKind.L1, cfg, rank=2)
        chunks = 3
        passes = 2 if mode.layer_indices(spec.num_layers)[0] > 1 else 1
        assert len(calls) == iterations + chunks * passes
        assert calls[0].shape == (self.PER_CHUNK, 3, spec.input_dim, self.BATCH)
        # The pools' batches are column-major, and so is every chunk slice.
        chunk = calls[0]
        assert all(chunk[i, t].flags.f_contiguous for i in range(len(chunk)) for t in range(3))

    def test_each_run_of_one_batch_shape_is_one_stacked_pass(self, monkeypatch):
        # Tasks 0 and 1 take batches of 8 and task 2 batches of 5: the
        # chunk's targets run as one pass on rows 0:2 and one on row 2:3,
        # and each iteration runs one surgery pass per run.
        spec, merged, experts, _ = _three_task_models(seed=70)
        cfg = ms.TrainConfig(batch_size=self.BATCH, seed=70)
        rng = np.random.default_rng(71)
        rows = [[rng.standard_normal((4, n)) + 0.3 for n in (8, 8, 5)] for _ in range(5)]
        calls = []
        forward = surgery.forward_layers

        def counting_forward(*args, **kwargs):
            calls.append(args[2].shape)
            return forward(*args, **kwargs)

        monkeypatch.setattr(surgery, "forward_layers", counting_forward)
        result = train_surgery(
            merged, experts, spec, iter(rows), ALL_LAYERS, LossKind.L1, cfg, rank=2
        )
        monkeypatch.undo()
        assert calls == [(5, 2, 4, 8), (5, 1, 4, 5)] + [(2, 4, 8), (1, 4, 5)] * 5
        _assert_matches_reference(result, _per_task_reference(
            merged, experts, spec, rows, ALL_LAYERS, LossKind.L1, cfg, 2, False
        ))

    @pytest.mark.parametrize("iteration", [3, PER_CHUNK + 5])
    def test_divergence_names_its_first_iteration(self, iteration):
        # A NaN sample makes task 1's loss non-finite; an invalid batch two
        # iterations later, inside the same chunk, is never reached.
        spec, merged, experts, _ = _three_task_models(seed=68)
        cfg = ms.TrainConfig(batch_size=self.BATCH, seed=68)
        rows = [list(row) for row in random_batches(self._pools(69), self.BATCH, 60, [1])]
        rows[iteration - 1][1] = rows[iteration - 1][1].copy()
        rows[iteration - 1][1][2, 3] = np.nan
        rows[iteration + 1][0] = np.zeros((1, 4, self.BATCH))
        for mode in (ALL_LAYERS, LAST_LAYER):
            layer = mode.layer_indices(spec.num_layers)[0]
            with pytest.raises(
                SurgeryError,
                match=f"non-finite loss at iteration {iteration}, task 1, layer {layer}$",
            ):
                train_surgery(merged, experts, spec, iter(rows), mode, LossKind.MSE, cfg, rank=2)

    def test_invalid_batch_is_reported_when_reached(self):
        spec, merged, experts, _ = _three_task_models(seed=70)
        cfg = ms.TrainConfig(batch_size=self.BATCH, seed=70)
        rows = [list(row) for row in random_batches(self._pools(71), self.BATCH, 10, [1])]
        rows[6][2] = np.zeros((1, 4, self.BATCH))
        with pytest.raises(SurgeryError, match="task 2 batch must be"):
            train_surgery(merged, experts, spec, iter(rows), ALL_LAYERS, LossKind.L1, cfg, rank=2)
        rows[6] = rows[6][:2]
        with pytest.raises(SurgeryError, match="data covers 2 tasks, experts 3"):
            train_surgery(merged, experts, spec, iter(rows), ALL_LAYERS, LossKind.L1, cfg, rank=2)
