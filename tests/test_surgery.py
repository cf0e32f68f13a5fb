"""Adapters, corrected forward passes, and surgery training."""

import numpy as np
import pytest

import merge_surgeon as ms
from merge_surgeon.bias import LossKind, representation_bias
from merge_surgeon.network import ModelSpec, forward_with_trace, init_backbone
from merge_surgeon.surgery import (
    ALL_LAYERS,
    LAST_LAYER,
    AdapterParams,
    SurgeryError,
    SurgeryMode,
    SurgeryStack,
    adapter_forward,
    corrected_forward,
    init_stack,
    sequential_batches,
    single_block,
    stream_train_surgery,
    train_surgery,
)
from merge_surgeon.tensors import ParamSet


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


class TestAdapterForward:
    def test_zero_down_gives_zero(self):
        adapter = AdapterParams(down=np.zeros((2, 4)), up=np.ones((4, 2)))
        z = np.random.default_rng(0).standard_normal((4, 6))
        assert np.all(adapter_forward(adapter, z) == 0)

    def test_identity_pair_on_non_negative_input(self):
        adapter = AdapterParams(down=np.eye(4), up=np.eye(4))
        z = np.abs(np.random.default_rng(1).standard_normal((4, 6)))
        np.testing.assert_allclose(adapter_forward(adapter, z), z, atol=1e-7)

    def test_matches_hand_computation(self):
        rng = np.random.default_rng(2)
        down = rng.standard_normal((2, 3))
        up = rng.standard_normal((3, 2))
        z = rng.standard_normal((3, 2))
        adapter = AdapterParams(down=down, up=up)
        expected = up.astype(np.float32).astype(np.float64) @ np.maximum(
            down.astype(np.float32).astype(np.float64) @ z, 0.0
        )
        np.testing.assert_allclose(adapter_forward(adapter, z), expected, atol=1e-6)

    def test_shape_validation(self):
        adapter = AdapterParams(down=np.zeros((2, 4)), up=np.zeros((4, 2)))
        with pytest.raises(SurgeryError):
            adapter_forward(adapter, np.zeros((5, 3)))
        with pytest.raises(SurgeryError):
            AdapterParams(down=np.zeros((2, 4)), up=np.zeros((3, 2)))


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
        stack = SurgeryStack(mode=ALL_LAYERS, psi=LossKind.L1, adapters={})
        x = np.random.default_rng(3).standard_normal((4, 7))
        plain = forward_with_trace(merged, spec, x)
        corrected = corrected_forward(merged, spec, stack, x, task=0)
        for a, b in zip(plain, corrected):
            assert a.tobytes() == b.tobytes()

    def test_zero_up_matrices_equal_plain_forward(self):
        spec, merged, _ = tiny_models()
        stack = init_stack(spec, num_tasks=1, mode=ALL_LAYERS, rank=3, seed=5)
        x = np.random.default_rng(4).standard_normal((4, 7))
        plain = forward_with_trace(merged, spec, x)
        corrected = corrected_forward(merged, spec, stack, x, task=0)
        for a, b in zip(plain, corrected):
            np.testing.assert_array_equal(a, b)

    def test_last_layer_mode_touches_only_final_layer(self):
        spec, merged, _ = tiny_models()
        rng = np.random.default_rng(5)
        adapters = {
            (0, spec.num_layers): AdapterParams(
                down=rng.standard_normal((3, spec.feature_dim)),
                up=rng.standard_normal((spec.feature_dim, 3)),
            )
        }
        stack = SurgeryStack(mode=LAST_LAYER, psi=LossKind.L1, adapters=adapters)
        x = rng.standard_normal((4, 6))
        plain = forward_with_trace(merged, spec, x)
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
            adapters[(0, layer)] = AdapterParams(
                down=rng.standard_normal((2, width)), up=rng.standard_normal((width, 2))
            )
        stack = SurgeryStack(mode=ALL_LAYERS, psi=LossKind.L1, adapters=adapters)
        x = rng.standard_normal((3, 4))
        trace = corrected_forward(merged, spec, stack, x, task=0)

        w1 = merged["block1.weight"].astype(np.float64)
        b1 = merged["block1.bias"].astype(np.float64)
        w2 = merged["block2.weight"].astype(np.float64)
        b2 = merged["block2.bias"].astype(np.float64)
        z1 = np.maximum(w1 @ x + b1[:, None], 0.0)
        z1_hat = z1 - adapter_forward(adapters[(0, 1)], z1)
        z2 = w2 @ z1_hat + b2[:, None]
        z2_hat = z2 - adapter_forward(adapters[(0, 2)], z2)
        np.testing.assert_allclose(trace[0], z1_hat, atol=1e-6)
        np.testing.assert_allclose(trace[1], z2_hat, atol=1e-6)

    def test_partial_coverage_rejected(self):
        spec, merged, _ = tiny_models()
        adapters = {
            (0, 1): AdapterParams(down=np.zeros((2, 5)), up=np.zeros((5, 2)))
        }
        stack = SurgeryStack(mode=ALL_LAYERS, psi=LossKind.L1, adapters=adapters)
        with pytest.raises(SurgeryError):
            corrected_forward(merged, spec, stack, np.zeros((4, 2)), task=0)

    def test_uncovered_task_passes_through(self):
        spec, merged, _ = tiny_models()
        stack = init_stack(spec, num_tasks=1, mode=LAST_LAYER, rank=2, seed=1)
        x = np.random.default_rng(7).standard_normal((4, 3))
        trace = corrected_forward(merged, spec, stack, x, task=5)
        plain = forward_with_trace(merged, spec, x)
        assert trace[-1].tobytes() == plain[-1].tobytes()


class TestStackPersistence:
    def test_round_trip_and_mode_inference(self, tmp_path):
        spec = tiny_spec()
        for mode in (LAST_LAYER, ALL_LAYERS, single_block(1)):
            stack = init_stack(spec, num_tasks=2, mode=mode, rank=3, seed=8)
            params = stack.to_paramset()
            loaded = SurgeryStack.from_paramset(params, spec.num_layers, LossKind.L1)
            assert loaded.mode == stack.mode or (
                mode is LAST_LAYER and loaded.mode == LAST_LAYER
            )
            for key, adapter in stack.adapters.items():
                assert loaded.adapters[key].down.tobytes() == adapter.down.tobytes()
                assert loaded.adapters[key].up.tobytes() == adapter.up.tobytes()

    def test_checkpoint_round_trip(self, tmp_path):
        from merge_surgeon.checkpoint import load_paramset, save_paramset

        spec = tiny_spec()
        stack = init_stack(spec, num_tasks=2, mode=ALL_LAYERS, rank=2, seed=9)
        path = tmp_path / "stack.msrg"
        save_paramset(stack.to_paramset(), path)
        loaded = SurgeryStack.from_paramset(load_paramset(path), spec.num_layers)
        loaded.validate(spec, num_tasks=2)

    def test_incomplete_adapter_rejected(self):
        with pytest.raises(SurgeryError):
            SurgeryStack.from_paramset(
                ParamSet([("surgery.0.1.down", np.zeros((2, 4)))]), 2
            )


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
        for key, adapter in result.stack.adapters.items():
            assert adapter.down.tobytes() == reference.adapters[key].down.tobytes()
            assert adapter.up.tobytes() == reference.adapters[key].up.tobytes()

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
        for key in a.stack.adapters:
            assert a.stack.adapters[key].up.tobytes() == b.stack.adapters[key].up.tobytes()

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
        from merge_surgeon.network import forward_layers, to_float64
        from merge_surgeon.surgery import surgery_gradients

        spec, merged, expert = tiny_models(seed=38)
        rng = np.random.default_rng(39)
        x = rng.standard_normal((4, 6)) + 0.3
        init = init_stack(spec, 1, ALL_LAYERS, rank=2, seed=38)
        # Non-zero up matrices so gradients flow through both halves.
        task_adapters = {
            layer: {
                "down": init.adapters[(0, layer)].down.astype(np.float64),
                "up": rng.uniform(-0.3, 0.3, size=init.adapters[(0, layer)].up.shape),
            }
            for layer in ALL_LAYERS.layer_indices(spec.num_layers)
        }
        merged64 = to_float64(merged)
        targets = forward_layers(to_float64(expert), spec, x)
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
        for key in streamed.stack.adapters:
            assert (
                streamed.stack.adapters[key].up.tobytes()
                == epoch.stack.adapters[key].up.tobytes()
            )

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
        adapters = {
            key: AdapterParams(down=a.down, up=rng.uniform(-0.2, 0.2, size=a.up.shape))
            for key, a in stack.adapters.items()
        }
        for psi in (LossKind.L1, LossKind.MSE):
            stack = SurgeryStack(mode=ALL_LAYERS, psi=psi, adapters=adapters)
            corrected = corrected_forward(merged, spec, stack, x, 0)
            targets = forward_with_trace(expert, spec, x)
            from merge_surgeon.bias import alignment_loss_and_grad

            for layer in range(spec.num_layers):
                loss, _ = alignment_loss_and_grad(corrected[layer], targets[layer], psi)
                metric = representation_bias(corrected[layer], targets[layer], psi)
                assert loss == pytest.approx(metric, abs=1e-6)
