"""Adapters, corrected forward passes, and surgery training."""

import ctypes
import dataclasses
import platform
import re
import types
import warnings

import numpy as np
import pytest

import merge_surgeon as ms
from merge_surgeon.bias import LossKind, representation_bias
from merge_surgeon.network import (
    _CHUNK_COLUMNS,
    Adam,
    ModelSpec,
    NetworkError,
    forward_layers,
    init_backbone,
    random_batches,
)
from merge_surgeon import surgery
from merge_surgeon.surgery import (
    ALL_LAYERS,
    SurgeryError,
    SurgeryMode,
    SurgeryStack,
    corrected_forward,
    init_stack,
    sequential_batches,
    stream_train_surgery,
    surgery_gradients,
    trace_layers,
    train_surgery,
)
from merge_surgeon.tensors import ParamSet

from conftest import bitwise_equal
from test_bias import positive_models


def tiny_spec():
    return ModelSpec(4, (5, 4), 3, 1)


def tiny_models(seed=0):
    spec = tiny_spec()
    rng = np.random.default_rng(seed)
    merged = ParamSet(init_backbone(spec, rng))
    entries = init_backbone(spec, np.random.default_rng(seed + 1))
    entries["head.0.weight"] = rng.standard_normal((3, 4))
    entries["head.0.bias"] = np.zeros(3)
    expert = ParamSet(entries)
    return spec, merged, expert


def make_stack(mode, adapters, spec):
    """A stack of ``mode`` for ``spec`` holding the ``(down, up)`` pair
    ``adapters[(task, layer)]``."""
    return SurgeryStack(mode, ParamSet(
        (f"surgery.{task}.{layer}.{half}", matrix)
        for (task, layer), pair in adapters.items() for half, matrix in zip(("down", "up"), pair)
    ), spec)


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
        raw, hidden, corrected = (np.empty((5, 6)) for _ in range(3))
        z1 = forward_layers(backbone, spec, x, {1: pair}, out={1: (raw, hidden, corrected)})[0]
        assert np.all(z1 == 0)
        assert hidden.tobytes() == raw.tobytes()

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
        adapters = {(0, 1): (np.zeros((2, 4)), np.zeros((4, 2)))}
        message = (r"^task 0, layer 1: down \(2, 4\) and up \(4, 2\), "
                   r"expected \(rank, 5\) and \(5, rank\)$")
        with pytest.raises(SurgeryError, match=message):
            make_stack(SurgeryMode("block:1"), adapters, spec)
        backbone = init_backbone(spec, np.random.default_rng(3))
        with pytest.raises(NetworkError):
            forward_layers(backbone, spec, np.zeros((5, 3)))


class TestStackConstructor:
    """SurgeryStack(mode, params, spec) checks every entry against every
    task and layer of the spec, and nothing else checks a stack."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            pytest.param(
                {"surgery.0.1.up": np.zeros((3, 2))},
                r"^task 0, layer 1: down \(2, 5\) and up \(3, 2\), "
                r"expected \(rank, 5\) and \(5, rank\)$",
                id="up_not_transposed_down",
            ),
            pytest.param(
                {"surgery.0.1.down": np.zeros(5), "surgery.0.1.up": np.zeros(5)},
                r"^task 0, layer 1: down \(5,\) and up \(5,\), "
                r"expected \(rank, 5\) and \(5, rank\)$",
                id="one_dimensional_down",
            ),
            pytest.param(
                {"surgery.0.2.down": np.zeros((2, 5)), "surgery.0.2.up": np.zeros((5, 2))},
                r"^task 0, layer 2: down \(2, 5\) and up \(5, 2\), "
                r"expected \(rank, 4\) and \(4, rank\)$",
                id="wider_than_its_layer",
            ),
            pytest.param(
                {"surgery.0.1.up": None},
                r"^task 0, layer 1: missing entry 'surgery.0.1.up'$",
                id="unpaired_half",
            ),
            pytest.param(
                {"surgery.0.1.left": np.zeros((2, 5))},
                r"^unexpected stack entry 'surgery.0.1.left' \(expected "
                r"surgery.<task>.<layer>.down\|up with task < 1 and layer in \[1, 2\]\)$",
                id="bad_name",
            ),
            pytest.param(
                {"surgery.1.1.down": np.zeros((2, 5)), "surgery.1.1.up": np.zeros((5, 2))},
                r"^unexpected stack entry 'surgery.1.1.down'",
                id="task_the_spec_does_not_have",
            ),
            pytest.param(
                {"surgery.0.3.down": np.zeros((2, 4)), "surgery.0.3.up": np.zeros((4, 2))},
                r"^unexpected stack entry 'surgery.0.3.down'",
                id="layer_the_spec_does_not_have",
            ),
            pytest.param(
                {"surgery.00.1.down": np.zeros((2, 5))},
                r"^unexpected stack entry 'surgery.00.1.down'",
                id="index_not_in_plain_decimal",
            ),
        ],
    )
    def test_malformed_entries_rejected(self, changes, message):
        spec = tiny_spec()
        entries = dict(init_stack(spec, ALL_LAYERS, rank=2, seed=0).params)
        for name, value in changes.items():
            if value is None:
                del entries[name]
            else:
                entries[name] = value
        with pytest.raises(SurgeryError, match=message):
            SurgeryStack(ALL_LAYERS, ParamSet(entries), spec)

    def test_a_stack_covers_every_task_of_its_spec(self):
        spec = dataclasses.replace(tiny_spec(), num_tasks=3)
        stack = init_stack(spec, SurgeryMode("v1"), rank=2, seed=0)
        assert stack.spec == spec
        assert [list(stack.adapters(t)) for t in range(3)] == [[2]] * 3
        for task in (3, -1):
            message = rf"^task {task} is outside the stack's 3 tasks$"
            with pytest.raises(SurgeryError, match=message):
                stack.adapters(task)


class TestSurgeryMode:
    def test_layer_indices(self):
        assert SurgeryMode("v1").layer_indices(4) == (4,)
        assert ALL_LAYERS.layer_indices(3) == (1, 2, 3)
        assert SurgeryMode("block:2").layer_indices(4) == (2,)

    def test_parse_labels(self):
        assert SurgeryMode.parse("v1") == SurgeryMode("v1")
        assert SurgeryMode.parse("v2") == ALL_LAYERS
        assert SurgeryMode.parse("block:3") == SurgeryMode("block:3")
        with pytest.raises(SurgeryError):
            SurgeryMode.parse("v3")

    @pytest.mark.parametrize("text", [
        "block:03", "block:0_3", "block: 3", "block:\u0663", "block:+3", "block:0", "block:",
        "v2 ", "V2", "all_layers",
    ])
    def test_only_a_plain_label_parses(self, text):
        with pytest.raises(SurgeryError, match=r"expected v1, v2, or block:<l> with l in plain"):
            SurgeryMode.parse(text)

    def test_a_mode_is_its_label(self):
        assert [f.name for f in dataclasses.fields(SurgeryMode)] == ["label"]
        for label in ("v1", "v2", "block:1", "block:12"):
            assert SurgeryMode(label).label == label
        assert SurgeryMode("block:12") == SurgeryMode.parse("block:12")

    def test_block_out_of_range(self):
        with pytest.raises(SurgeryError):
            SurgeryMode("block:5").layer_indices(3)


class TestCorrectedForward:
    def test_zero_up_matrices_equal_plain_forward(self):
        spec, merged, _ = tiny_models()
        stack = init_stack(spec, mode=ALL_LAYERS, rank=3, seed=5)
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
        stack = make_stack(SurgeryMode("v1"), adapters, spec)
        x = rng.standard_normal((4, 6))
        plain = corrected_forward(merged, spec, None, x, task=0)
        corrected = corrected_forward(merged, spec, stack, x, task=0)
        for layer in range(spec.num_layers - 1):
            assert plain[layer].tobytes() == corrected[layer].tobytes()
        assert plain[-1].tobytes() != corrected[-1].tobytes()

    def test_all_layers_matches_hand_composition(self):
        spec = ModelSpec(3, (3, 2), 2, 1)
        rng = np.random.default_rng(6)
        merged = ParamSet(init_backbone(spec, rng))
        adapters = {}
        for layer, width in ((1, 3), (2, 2)):
            adapters[(0, layer)] = (
                rng.standard_normal((2, width)), rng.standard_normal((width, 2))
            )
        stack = make_stack(ALL_LAYERS, adapters, spec)
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
        # A stack that covers some of the mode's layers is never made.
        spec = tiny_spec()
        adapters = {(0, 1): (np.zeros((2, 5)), np.zeros((5, 2)))}
        message = r"^task 0, layer 2: missing entry 'surgery.0.2.down'$"
        with pytest.raises(SurgeryError, match=message):
            make_stack(ALL_LAYERS, adapters, spec)

    def test_a_task_outside_the_stack_is_rejected(self):
        # A task the stack holds no adapters for never traces uncorrected.
        spec, merged, _ = tiny_models()
        stack = init_stack(spec, mode=SurgeryMode("v1"), rank=2, seed=1)
        with pytest.raises(SurgeryError, match=r"^task 5 is outside the stack's 1 tasks$"):
            corrected_forward(merged, spec, stack, np.zeros((4, 3)), task=5)

    def test_a_one_task_runs_stack_does_not_trace_task_1(self):
        # train_surgery on one expert makes a stack for task 0 alone, so
        # task 1 has no corrections to trace with.
        spec, merged, expert = tiny_models(seed=8)
        cfg = ms.TrainConfig(iterations=3, seed=8)
        inputs = [np.random.default_rng(9).standard_normal((10, 4))]
        stack = train_surgery(merged, [expert], spec, inputs, ALL_LAYERS, LossKind.L1, cfg).stack
        x = np.ones((4, 3))
        with pytest.raises(SurgeryError, match=r"^task 1 is outside the stack's 1 tasks$"):
            corrected_forward(merged, spec, stack, x, task=1)
        with pytest.raises(SurgeryError, match=r"^task 1 is outside the stack's 1 tasks$"):
            next(trace_layers(spec.backbone(merged, "merged", np.float64), spec, stack, x, task=1))

    def test_a_stack_made_for_another_spec_is_rejected(self):
        spec, merged, _ = tiny_models()
        stack = init_stack(spec, mode=ALL_LAYERS, rank=2, seed=1)
        two_tasks = dataclasses.replace(spec, num_tasks=2)
        merged64 = two_tasks.backbone(merged, "merged", np.float64)
        message = re.escape(f"a stack made for {spec} cannot correct {two_tasks}") + "$"
        with pytest.raises(SurgeryError, match=message):
            next(trace_layers(merged64, two_tasks, stack, np.ones((4, 3)), task=0))
        assert len(list(trace_layers(merged64, spec, stack, np.ones((4, 3)), task=0))) == 2


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

    def test_deep_overflow_is_named_before_float64_overflows(self):
        # Twelve blocks of all-positive 1e30 weights: layer 2 overflows
        # float32, and layer 11 would overflow float64 in its matmul.
        spec = ModelSpec(4, (4,) * 12, 2, 1)
        big = ParamSet({name: np.full(shape, 1e30, dtype=np.float32)
                        for name, shape in spec.backbone_shapes().items()})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                SurgeryError, match=r"^task 0: layer 2 representations overflow float32$"
            ):
                corrected_forward(big, spec, None, np.ones((4, 3)), task=0)

    def test_a_suspended_trace_leaves_the_callers_errstate_alone(self):
        spec, merged, _ = tiny_models()
        before = np.geterr()
        merged64 = spec.backbone(merged, "merged", np.float64)
        layers = trace_layers(merged64, spec, None, np.ones((4, 3)), task=0)
        next(layers)
        assert np.geterr() == before
        assert len(list(layers)) == spec.num_layers - 1

    def test_an_overflow_in_any_column_of_a_wide_batch_is_named(self):
        # Checked by value: a matmul that OpenBLAS splits over threads
        # loses the overflow flag of every thread but the caller's.
        spec = ModelSpec(32, (32, 32), 2, 1)
        ones = ParamSet({name: np.ones(shape) for name, shape in spec.backbone_shapes().items()})
        x = np.random.default_rng(0).standard_normal((32, 20_000)).astype(np.float32)
        x[:, -1] = 1e38
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                SurgeryError, match=r"^task 0: layer 1 representations overflow float32$"
            ):
                corrected_forward(ones, spec, None, x, task=0)

    def test_float64_overflow_in_a_block_names_the_layer(self):
        spec, merged, _ = tiny_models()
        big = ParamSet({name: np.full(value.shape, 1e30, dtype=np.float32)
                        for name, value in merged.items()})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                SurgeryError, match=r"^task 1: layer 1 representations overflow float32$"
            ):
                corrected_forward(big, spec, None, np.full((4, 2), 1e300), task=1)


class TestStackPersistence:
    def test_round_trip_keeps_mode(self):
        spec = dataclasses.replace(tiny_spec(), num_tasks=2)
        for mode in map(SurgeryMode, ("v1", "v2", "block:1", "block:2")):
            stack = init_stack(spec, mode=mode, rank=3, seed=8)
            loaded = SurgeryStack(mode, stack.params, spec)
            assert loaded.mode == mode
            assert bitwise_equal(loaded.params, stack.params)

    def test_last_block_stack_keeps_block_mode(self):
        # block:<L> on an L-block model covers the same layers as v1; the
        # loader must keep the mode it is given instead of guessing v1.
        spec = dataclasses.replace(tiny_spec(), num_tasks=2)
        mode = SurgeryMode(f"block:{spec.num_layers}")
        params = init_stack(spec, mode=mode, rank=3, seed=8).params
        loaded = SurgeryStack(mode, params, spec)
        assert loaded.mode.label == f"block:{spec.num_layers}"

    def test_coverage_must_match_mode(self):
        spec = dataclasses.replace(tiny_spec(), num_tasks=2)
        params = init_stack(spec, mode=SurgeryMode("v1"), rank=3, seed=8).params
        message = r"^task 0, layer 1: missing entry 'surgery.0.1.down'$"
        with pytest.raises(SurgeryError, match=message):
            SurgeryStack(ALL_LAYERS, params, spec)
        with pytest.raises(SurgeryError, match=r"^unexpected stack entry 'surgery.0.2.down' "
                           r"\(expected surgery.<task>.<layer>.down\|up with task < 2 and "
                           r"layer in \[1\]\)$"):
            SurgeryStack(SurgeryMode("block:1"), params, spec)
        with pytest.raises(SurgeryError, match=r"^block 3 exceeds 2 layers$"):
            SurgeryStack(SurgeryMode("block:3"), params, spec)

    def test_checkpoint_round_trip(self, tmp_path):
        from merge_surgeon.checkpoint import load_paramset, save_paramset

        spec = dataclasses.replace(tiny_spec(), num_tasks=2)
        stack = init_stack(spec, mode=ALL_LAYERS, rank=2, seed=9)
        path = tmp_path / "stack.msrg"
        save_paramset(stack.params, path)
        loaded = SurgeryStack(ALL_LAYERS, load_paramset(path), spec)
        assert bitwise_equal(loaded.params, stack.params)

    def test_incomplete_adapter_rejected(self):
        params = ParamSet([("surgery.0.1.down", np.zeros((2, 5)))])
        message = r"^task 0, layer 1: missing entry 'surgery.0.1.up'$"
        with pytest.raises(SurgeryError, match=message):
            SurgeryStack(ALL_LAYERS, params, tiny_spec())

    def test_a_task_the_spec_does_not_have_is_rejected(self):
        spec = dataclasses.replace(tiny_spec(), num_tasks=3)
        params = init_stack(spec, mode=ALL_LAYERS, rank=2, seed=9).params
        SurgeryStack(ALL_LAYERS, params, spec)
        with pytest.raises(SurgeryError, match=r"^unexpected stack entry 'surgery.2.1.down' "
                           r"\(expected surgery.<task>.<layer>.down\|up with task < 2 "):
            SurgeryStack(ALL_LAYERS, params, dataclasses.replace(spec, num_tasks=2))


def _groups_of_one(task_adapters):
    """Per-layer ``{"down", "up"}`` pairs in the form surgery_gradients
    takes: each layer l the group ``(l,)``, its matrices gaining a layer
    axis of length 1."""
    return {(layer,): {half: m[None] for half, m in pair.items()}
            for layer, pair in task_adapters.items()}


def _layer_axis(targets):
    """Every layer's target with a layer axis of length 1, the target of
    its group of one."""
    return [z[None] for z in targets]


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
        reference = init_stack(spec, ALL_LAYERS, rank=3, seed=30)
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
        mode = SurgeryMode("v1")
        a = train_surgery(merged, [expert], spec, inputs, mode, LossKind.L1, cfg, rank=2)
        b = train_surgery(merged, [expert], spec, inputs, mode, LossKind.L1, cfg, rank=2)
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

    @pytest.mark.parametrize("num_experts", [0, 1, 3])
    def test_needs_one_expert_per_task_of_the_spec(self, num_experts):
        spec, merged, expert = tiny_models(seed=36)
        spec = dataclasses.replace(spec, num_tasks=2)
        cfg = ms.TrainConfig(iterations=2, seed=36)
        message = rf"^got {num_experts} experts for the spec's 2 tasks$"
        with pytest.raises(SurgeryError, match=message):
            train_surgery(merged, [expert] * num_experts, spec, iter([]), ALL_LAYERS,
                          LossKind.L1, cfg)

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
        init = init_stack(spec, ALL_LAYERS, rank=2, seed=38)
        # Non-zero up matrices so gradients flow through both halves.
        task_adapters = {
            layer: {
                "down": entry(init, 0, layer, "down").astype(np.float64),
                "up": rng.uniform(-0.3, 0.3, size=entry(init, 0, layer, "up").shape),
            }
            for layer in ALL_LAYERS.layer_indices(spec.num_layers)
        }
        merged64 = spec.backbone(merged, "merged", np.float64)
        targets = forward_layers(spec.backbone(expert, "expert", np.float64), spec, x)
        _, analytic = surgery_gradients(
            merged64, spec, _groups_of_one(task_adapters), x, _layer_axis(targets), psi,
            full_backprop,
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
                got = analytic[(layer,)][field][0]
                scale = np.maximum(np.maximum(np.abs(got), np.abs(numeric)), 1e-6)
                assert (np.abs(got - numeric) / scale).max() < 1e-3, (layer, field, psi)

    @pytest.mark.parametrize("psi", [LossKind.L1, LossKind.MSE, LossKind.NEG_COSINE])
    @pytest.mark.parametrize("full_backprop", [False, True])
    def test_float32_gradients_match_the_float64_ones(self, psi, full_backprop):
        # train_surgery runs the one gradient kernel in float32; on the
        # problem whose float64 gradients the finite-difference check
        # verifies, the float32 ones agree to float32 precision.
        spec, merged, expert = tiny_models(seed=38)
        rng = np.random.default_rng(39)
        x = rng.standard_normal((4, 6)) + 0.3
        init = init_stack(spec, ALL_LAYERS, rank=2, seed=38)
        task_adapters = {
            layer: {
                "down": entry(init, 0, layer, "down").astype(np.float64),
                "up": rng.uniform(-0.3, 0.3, size=entry(init, 0, layer, "up").shape),
            }
            for layer in ALL_LAYERS.layer_indices(spec.num_layers)
        }

        def run(dtype):
            targets = forward_layers(spec.backbone(expert, "expert", dtype), spec, x)
            adapters = {layer: {half: matrix.astype(dtype) for half, matrix in pair.items()}
                        for layer, pair in task_adapters.items()}
            return surgery_gradients(
                spec.backbone(merged, "merged", dtype), spec, _groups_of_one(adapters), x,
                _layer_axis(targets), psi, full_backprop,
            )

        losses32, grads32 = run(np.float32)
        losses64, grads64 = run(np.float64)
        for layer in task_adapters:
            key = (layer,)
            assert losses32[key][0] == pytest.approx(losses64[key][0], rel=1e-4)
            for half in ("down", "up"):
                assert grads32[key][half].dtype == np.float32
                np.testing.assert_allclose(grads32[key][half], grads64[key][half], rtol=1e-4)

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
            merged, [expert], spec, sequential_batches(inputs, spec, 8, 1.0),
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
        stack = init_stack(spec, ALL_LAYERS, rank=2, seed=44)
        stack = SurgeryStack(ALL_LAYERS, {
            name: rng.uniform(-0.2, 0.2, size=value.shape) if name.endswith(".up") else value
            for name, value in stack.params.items()
        }, spec)
        for psi in (LossKind.L1, LossKind.MSE):
            corrected = corrected_forward(merged, spec, stack, x, 0)
            targets = corrected_forward(expert, spec, None, x, 0)
            from merge_surgeon.bias import alignment_loss_and_grad

            for layer in range(spec.num_layers):
                loss, _ = alignment_loss_and_grad(corrected[layer], targets[layer], psi)
                metric = representation_bias(corrected[layer], targets[layer], psi)
                assert loss == pytest.approx(metric, abs=1e-6)


# Widths 5, 4, 5, 5, 3: under v2 the width-5 group holds layers 1, 3 and
# 4, which are not all adjacent, and layers 2 and 5 are groups of one.
GROUPED_DIMS = (5, 4, 5, 5, 3)
WIDTHS = [pytest.param(dims, id="widths-" + "-".join(map(str, dims)))
          for dims in ((6, 5, 4), GROUPED_DIMS)]


def _three_task_models(seed=50, layer_dims=(6, 5, 4)):
    """A three-task spec with blocks ``layer_dims`` wide, a merged
    backbone, three experts and float64 adapters with non-zero up
    matrices for every layer of every task.  Positive biases keep ReLU
    columns from going all-zero, where the cosine loss is undefined."""
    spec = ModelSpec(4, layer_dims, 3, 3)
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
    """Surgery training one task at a time on the (C, T, d, batch) chunks
    ``batches``, in float32 as train_surgery trains: per task and
    iteration, 2-D target and gradient calls on its slice, each layer l
    the group ``(l,)``, and one Adam per (task, layer, matrix)."""
    merged32 = spec.backbone(merged, "merged", np.float32)
    stack0 = init_stack(spec, mode, rank, cfg.seed)
    adapters = [
        _groups_of_one({layer: {half: a.astype(np.float32) for half, a in pair.items()}
                        for layer, pair in stack0.adapters(task).items()})
        for task in range(len(experts))
    ]
    optimizers = {
        (t, key, half): Adam(cfg.learning_rate)
        for t, a in enumerate(adapters) for key, pair in a.items() for half in pair
    }
    losses = []
    for row in (row for chunk in batches for row in chunk):
        total = 0.0
        for task, x in enumerate(row):
            x = np.asarray(x, dtype=np.float32)
            expert32 = spec.backbone(experts[task], "expert", np.float32)
            targets = _layer_axis(forward_layers(expert32, spec, x))
            layer_losses, grads = surgery_gradients(
                merged32, spec, adapters[task], x, targets, psi, full_backprop
            )
            for loss in layer_losses.values():
                total += float(loss[0])
            for key, pair in grads.items():
                for half, grad in pair.items():
                    optimizers[(task, key, half)].step(adapters[task][key][half], grad)
        losses.append(total)
    return losses, [{layer: {half: m[0] for half, m in pair.items()}
                     for (layer,), pair in a.items()} for a in adapters]


class TestStackedEngine:
    """Stacked (T, ...) calls equal T separate 2-D calls, bit for bit."""

    def _batches(self, spec, width=7, seed=51):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal((width, spec.input_dim)).T + 0.3 for _ in range(3)]

    def test_forward_layers_matches_per_task_calls(self):
        spec, merged, experts, adapters = _three_task_models()
        xs = self._batches(spec)
        x = _stacked_inputs(xs)
        merged64 = spec.backbone(merged, "merged", np.float64)
        experts64 = [spec.backbone(e, "expert", np.float64) for e in experts]
        experts64 = {n: np.stack([e[n] for e in experts64]) for n in merged64}
        stacked_adapters = {
            layer: {h: np.stack([a[layer][h] for a in adapters]) for h in ("down", "up")}
            for layer in adapters[0]
        }
        # Stacked block parameters, no adapters: the expert targets.
        targets = forward_layers(experts64, spec, x)
        # Shared block parameters with stacked adapters: the corrected
        # merged model, whose raw, hidden and corrected arrays the pass
        # writes into ``out``.
        def buffers(*lead):
            return {layer: tuple(np.empty((*lead, rows, x.shape[-1]))
                                 for rows in (spec.out_dim(layer), 2, spec.out_dim(layer)))
                    for layer in adapters[0]}

        out = buffers(3)
        corrected = forward_layers(merged64, spec, x, stacked_adapters, out=out)
        for t in range(3):
            single = forward_layers(spec.backbone(experts[t], "expert", np.float64), spec, xs[t])
            own_out = buffers()
            own = forward_layers(merged64, spec, xs[t], adapters[t], out=own_out)
            for layer in range(spec.num_layers):
                assert targets[layer][t].tobytes() == single[layer].tobytes()
                assert corrected[layer][t].tobytes() == own[layer].tobytes()
                for got, want in zip(out[layer + 1], own_out[layer + 1]):
                    assert got[t].tobytes() == want.tobytes()

    def test_forward_layers_rejects_wrong_input_dim(self):
        spec, merged, _, _ = _three_task_models()
        with pytest.raises(NetworkError):
            x = np.zeros((3, spec.input_dim + 1, 2))
            forward_layers(spec.backbone(merged, "merged", np.float64), spec, x)

    @pytest.mark.parametrize("psi", [LossKind.L1, LossKind.MSE, LossKind.NEG_COSINE])
    @pytest.mark.parametrize("full_backprop", [False, True])
    def test_surgery_gradients_match_per_task_calls(self, psi, full_backprop):
        spec, merged, experts, adapters = _three_task_models()
        # Last-layer-only adapters too, so full backprop crosses blocks
        # without corrections.
        for layers in ((1, 2, 3), (3,)):
            task_adapters = [{l: a[l] for l in layers} for a in adapters]
            xs = self._batches(spec)
            merged64 = spec.backbone(merged, "merged", np.float64)
            targets = [forward_layers(spec.backbone(e, "expert", np.float64), spec, x)
                       for e, x in zip(experts, xs)]
            losses, grads = surgery_gradients(
                merged64,
                spec,
                _groups_of_one({
                    l: {h: np.stack([a[l][h] for a in task_adapters]) for h in ("down", "up")}
                    for l in layers
                }),
                _stacked_inputs(xs),
                _layer_axis([np.stack(layer_targets) for layer_targets in zip(*targets)]),
                psi,
                full_backprop,
            )
            for t in range(3):
                own_losses, own_grads = surgery_gradients(
                    merged64, spec, _groups_of_one(task_adapters[t]), xs[t],
                    _layer_axis(targets[t]), psi, full_backprop,
                )
                assert list(losses) == list(own_losses) == [(l,) for l in layers]
                for key in losses:
                    assert losses[key].shape == (1, 3)
                    assert losses[key][0, t].tobytes() == own_losses[key][0].tobytes()
                    for half in ("down", "up"):
                        got = grads[key][half][0, t]
                        assert got.tobytes() == own_grads[key][half][0].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("psi", [LossKind.L1, LossKind.MSE, LossKind.NEG_COSINE])
    @pytest.mark.parametrize("full_backprop", [False, True])
    def test_group_calls_match_per_task_layer_calls(self, full_backprop, psi, dtype):
        spec, merged, experts, adapters = _three_task_models(seed=74, layer_dims=GROUPED_DIMS)
        rng = np.random.default_rng(75)
        xs = [(rng.standard_normal((7, spec.input_dim)) + 0.3).astype(dtype).T for _ in range(3)]
        merged_d = spec.backbone(merged, "merged", dtype)
        targets = [forward_layers(spec.backbone(e, "expert", dtype), spec, x)
                   for e, x in zip(experts, xs)]
        adapters = [{layer: {half: m.astype(dtype) for half, m in pair.items()}
                     for layer, pair in a.items()} for a in adapters]
        # The v2 groups; a group beside groups of one, out of layer order;
        # a group above an unadapted block, which full backprop crosses.
        for keys in ([(1, 3, 4), (2,), (5,)], [(3, 4), (5,), (1,)], [(1, 4)]):
            stacked, stacked_targets = {}, [None] * spec.num_layers
            for key in keys:
                stacked[key] = {half: np.stack([np.stack([a[layer][half] for a in adapters])
                                                for layer in key]) for half in ("down", "up")}
                stacked_targets[key[0] - 1] = np.stack(
                    [np.stack([z[layer - 1] for z in targets]) for layer in key]
                )
            losses, grads = surgery_gradients(
                merged_d, spec, stacked, _stacked_inputs(xs), stacked_targets, psi, full_backprop
            )
            assert list(losses) == list(grads) == keys
            layers = sorted(layer for key in keys for layer in key)
            for t in range(3):
                own_losses, own_grads = surgery_gradients(
                    merged_d, spec, _groups_of_one({layer: adapters[t][layer] for layer in layers}),
                    xs[t], _layer_axis(targets[t]), psi, full_backprop,
                )
                for key in keys:
                    for j, layer in enumerate(key):
                        want = own_losses[(layer,)][0]
                        assert losses[key][j, t].tobytes() == want.tobytes(), (keys, layer)
                        for half in ("down", "up"):
                            got = grads[key][half][j, t]
                            assert got.dtype == dtype
                            want = own_grads[(layer,)][half][0]
                            assert got.tobytes() == want.tobytes(), (keys, layer)

    @pytest.mark.parametrize("key", [3, (), "3"], ids=["layer", "empty", "text"])
    def test_a_key_that_is_not_a_group_is_rejected(self, key):
        spec, merged, experts, adapters = _three_task_models()
        x = self._batches(spec)[0]
        merged64 = spec.backbone(merged, "merged", np.float64)
        targets = _layer_axis(forward_layers(spec.backbone(experts[0], "expert", np.float64),
                                             spec, x))
        pair = {half: m[None] for half, m in adapters[0][3].items()}
        message = rf"^adapter key {re.escape(repr(key))} is not a group of layers \(l, \.\.\.\)$"
        with pytest.raises(SurgeryError, match=message):
            surgery_gradients(merged64, spec, {(3,): pair, key: pair}, x, targets, LossKind.L1)

    @pytest.mark.parametrize("mode", [ALL_LAYERS, SurgeryMode("v1")])
    def test_joint_training_equals_training_each_task_alone(self, mode):
        # Tasks never mix in the stacked pass: giving task u other batches
        # changes the loss curve and leaves every other task's adapters
        # bitwise where they were.
        spec, merged, experts, _ = _three_task_models(seed=52)
        cfg = ms.TrainConfig(iterations=25, batch_size=6, seed=52)
        pools = [np.random.default_rng(53 + t).standard_normal((30, 4)) for t in range(3)]
        (chunk,) = random_batches(pools, cfg.batch_size, cfg.iterations, [53])
        (other,) = random_batches(pools, cfg.batch_size, cfg.iterations, [54])
        joint = train_surgery(
            merged, experts, spec, iter([chunk]), mode, LossKind.MSE, cfg, rank=2
        )
        for u in range(3):
            changed_chunk = chunk.copy(order="K")
            changed_chunk[:, u] = other[:, u]
            changed = train_surgery(
                merged, experts, spec, iter([changed_chunk]), mode, LossKind.MSE, cfg, rank=2
            )
            assert changed.losses != joint.losses
            for t in set(range(3)) - {u}:
                for layer in mode.layer_indices(spec.num_layers):
                    for half in ("down", "up"):
                        got = entry(changed.stack, t, layer, half)
                        want = entry(joint.stack, t, layer, half)
                        assert got.tobytes() == want.tobytes(), (u, t, layer, half)

    @pytest.mark.parametrize("layer_dims", WIDTHS)
    @pytest.mark.parametrize("psi", [LossKind.L1, LossKind.MSE, LossKind.NEG_COSINE])
    @pytest.mark.parametrize("full_backprop", [False, True])
    def test_matches_per_task_reference_loop(self, psi, full_backprop, layer_dims):
        # Stream pools of 30 samples in batches of 8: the short last batch
        # of 6 starts a chunk of its own.
        spec, merged, experts, _ = _three_task_models(seed=56, layer_dims=layer_dims)
        cfg = ms.TrainConfig(batch_size=8, seed=56)
        pools = [np.random.default_rng(57 + t).standard_normal((30, 4)) + 0.3 for t in range(3)]
        for mode in map(SurgeryMode, ("v2", "v1", "block:2")):
            result = train_surgery(
                merged, experts, spec, sequential_batches(pools, spec, cfg.batch_size), mode, psi,
                cfg, rank=2, full_backprop=full_backprop,
            )
            assert len(result.losses) == 4
            _assert_matches_reference(result, _per_task_reference(
                merged, experts, spec, sequential_batches(pools, spec, cfg.batch_size), mode, psi,
                cfg, rank=2, full_backprop=full_backprop,
            ))

    @pytest.mark.parametrize("sizes", [(20, 37, 50), (30, 30, 29), (16, 8, 16)])
    def test_a_stream_needs_pools_of_one_size(self, sizes):
        # Pools of different sizes would run out at different iterations;
        # random draws from them are still batches of one size.
        spec, merged, experts, _ = _three_task_models(seed=54)
        cfg = ms.TrainConfig(batch_size=8, iterations=2, seed=54)
        pools = [np.random.default_rng(55).standard_normal((n, 4)) for n in sizes]
        message = re.escape(f"a stream needs pools of one size, got sizes {list(sizes)}") + "$"
        with pytest.raises(SurgeryError, match=message):
            sequential_batches(pools, spec, cfg.batch_size)
        with pytest.raises(SurgeryError, match=message):
            stream_train_surgery(
                merged, experts, spec, pools, 1.0, ALL_LAYERS, LossKind.L1, cfg, rank=2
            )
        sampled = train_surgery(merged, experts, spec, pools, ALL_LAYERS, LossKind.L1, cfg, rank=2)
        assert len(sampled.losses) == 2

    @pytest.mark.parametrize("mode", [ALL_LAYERS, SurgeryMode("v1")])
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
        assert list(init_stack(spec, mode, rank=2, seed=58).params) == names


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


MODES = [pytest.param(SurgeryMode(label), id=label) for label in ("v1", "v2", "block:2")]
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

    @pytest.mark.parametrize("layer_dims", WIDTHS)
    @pytest.mark.parametrize("full_backprop", [False, True])
    @pytest.mark.parametrize("psi", PSIS)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("iterations", [1, PER_CHUNK + 1])
    def test_random_pools_match_per_task_reference(
        self, iterations, mode, psi, full_backprop, layer_dims
    ):
        spec, merged, experts, _ = _three_task_models(seed=60, layer_dims=layer_dims)
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
    def test_row_major_chunks_match_per_task_reference(self, mode):
        # Chunks laid out row-major train as the reference trains on
        # their row-major slices; a chunk ends where its iterator says.
        spec, merged, experts, _ = _three_task_models(seed=62)
        cfg = ms.TrainConfig(batch_size=self.BATCH, seed=62)
        rng = np.random.default_rng(63)
        chunks = [rng.standard_normal((n, 3, 4, self.BATCH)) + 0.3 for n in (5, 1, 3)]
        assert not chunks[0][0, 0].flags.f_contiguous
        result = train_surgery(merged, experts, spec, iter(chunks), mode, LossKind.MSE, cfg,
                               rank=2)
        _assert_matches_reference(result, _per_task_reference(
            merged, experts, spec, chunks, mode, LossKind.MSE, cfg, 2, False
        ))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("stream", [False, True], ids=["random", "stream"])
    def test_targets_run_once_per_chunk(self, mode, stream, monkeypatch):
        # Every surgery_gradients call runs one forward on a (T, d, batch)
        # slice; beyond those, one target pass per (C, T, d, batch) chunk,
        # plus one merged pass below the lowest adapter when that is not
        # block 1.  A stream's short last batch is a chunk of its own, and
        # so one more target pass.
        spec, merged, experts, _ = _three_task_models(seed=66)
        iterations = 2 * self.PER_CHUNK + 1
        cfg = ms.TrainConfig(batch_size=self.BATCH, iterations=iterations, seed=66)
        calls = []
        forward = surgery.forward_layers

        def counting_forward(*args, **kwargs):
            calls.append(args[2])
            return forward(*args, **kwargs)

        monkeypatch.setattr(surgery, "forward_layers", counting_forward)
        if stream:
            pools = self._pools(67, sizes=[2 * _CHUNK_COLUMNS + 5] * 3)
            result = stream_train_surgery(
                merged, experts, spec, pools, 1.0, mode, LossKind.L1, cfg, rank=2
            )
        else:
            result = train_surgery(
                merged, experts, spec, self._pools(67), mode, LossKind.L1, cfg, rank=2
            )
        assert len(result.losses) == iterations
        passes = 2 if mode.layer_indices(spec.num_layers)[0] > 1 else 1
        assert len(calls) == iterations + 3 * passes
        chunk_calls = [x for x in calls if x.ndim == 4]
        last = 5 if stream else self.BATCH
        assert [x.shape for x in chunk_calls[::passes]] == [
            (self.PER_CHUNK, 3, spec.input_dim, self.BATCH),
            (self.PER_CHUNK, 3, spec.input_dim, self.BATCH),
            (1, 3, spec.input_dim, last),
        ]
        # The pools' batches are column-major, and so is every chunk slice.
        chunk = chunk_calls[0]
        assert all(chunk[i, t].flags.f_contiguous for i in range(len(chunk)) for t in range(3))

    @pytest.mark.parametrize("iteration", [3, PER_CHUNK + 5])
    def test_divergence_names_its_first_iteration(self, iteration):
        # A NaN sample makes task 1's loss non-finite; an invalid chunk
        # right after the NaN's chunk is never reached.
        spec, merged, experts, _ = _three_task_models(seed=68)
        cfg = ms.TrainConfig(batch_size=self.BATCH, seed=68)
        chunks = list(random_batches(self._pools(69), self.BATCH, 60, [1]))
        c, i = divmod(iteration - 1, self.PER_CHUNK)
        chunks[c][i, 1, 2, 3] = np.nan
        chunks.insert(c + 1, np.zeros((1, 3, 5, self.BATCH)))
        for mode in (ALL_LAYERS, SurgeryMode("v1")):
            layer = mode.layer_indices(spec.num_layers)[0]
            with pytest.raises(
                SurgeryError,
                match=f"non-finite loss at iteration {iteration}, task 1, layer {layer}$",
            ):
                train_surgery(merged, experts, spec, iter(chunks), mode, LossKind.MSE, cfg, rank=2)

    @pytest.mark.parametrize("iteration", [2, PER_CHUNK + 3])
    def test_a_non_finite_loss_inside_a_group_names_its_layer(self, iteration):
        # Block 3 of the merged model scales by 1e12, so one sample of task
        # 1 scaled by 1e12 stays finite through every block while its
        # squared error at layer 3, the middle layer of the width-5 group
        # (1, 3, 4), overflows float32; layers 1 and 2 stay finite.
        spec, merged, experts, _ = _three_task_models(seed=80, layer_dims=GROUPED_DIMS)
        merged = ParamSet({**merged, "block3.weight": merged["block3.weight"] * 1e12})
        cfg = ms.TrainConfig(batch_size=self.BATCH, seed=80)
        pools = [np.random.default_rng([81, t]).standard_normal((30, 4)) + 0.3 for t in range(3)]
        chunks = list(random_batches(pools, self.BATCH, 60, [1]))
        c, i = divmod(iteration - 1, self.PER_CHUNK)
        chunks[c][i, 1, :, 5] *= 1e12
        message = rf"^non-finite loss at iteration {iteration}, task 1, layer 3$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SurgeryError, match=message):
                train_surgery(merged, experts, spec, iter(chunks), ALL_LAYERS, LossKind.MSE, cfg,
                              rank=2)

    @pytest.mark.parametrize("good", [0, 2])
    @pytest.mark.parametrize(
        "shape",
        [(3, 4, 8), (1, 2, 3, 4, 8), (2, 2, 4, 8), (2, 4, 4, 8), (2, 3, 5, 8), (0, 3, 4, 8),
         (2, 3, 4, 0)],
        ids=["rank-3", "rank-5", "two-tasks", "four-tasks", "input-dim-5", "no-iterations",
             "no-columns"],
    )
    def test_a_bad_chunk_is_rejected_at_its_first_iteration(self, shape, good, monkeypatch):
        # Each chunk is checked where it enters, so the good chunks before
        # a bad one (7 and 3 iterations) train first.
        spec, merged, experts, _ = _three_task_models(seed=70)
        cfg = ms.TrainConfig(batch_size=self.BATCH, seed=70)
        steps = []
        gradients = surgery.surgery_gradients

        def counting_gradients(*args, **kwargs):
            steps.append(args[3].shape)
            return gradients(*args, **kwargs)

        monkeypatch.setattr(surgery, "surgery_gradients", counting_gradients)
        chunks = [c for n in (7, 3)[:good] for c in random_batches(self._pools(71), 8, n, [n])]
        done = sum(len(c) for c in chunks)
        message = re.escape(
            f"iteration {done + 1}: a chunk must be (iterations, 3, 4, batch) with no empty "
            f"axis, got {shape}"
        ) + "$"
        with pytest.raises(SurgeryError, match=message):
            train_surgery(merged, experts, spec, iter([*chunks, np.ones(shape)]), ALL_LAYERS,
                          LossKind.L1, cfg, rank=2)
        assert steps == [(3, 4, self.BATCH)] * done

    def test_pools_of_more_than_one_width_are_rejected(self):
        # Batches stacked from pools need the pools to share a width.
        spec, merged, experts, _ = _three_task_models(seed=72)
        cfg = ms.TrainConfig(batch_size=self.BATCH, iterations=2, seed=72)
        pools = self._pools(73, sizes=(20, 20, 20))
        pools[1] = np.hstack([pools[1], pools[1][:, :1]])
        message = re.escape("input pools: pool 1 is (20, 5), expected (samples >= 1, 4)") + "$"
        with pytest.raises(NetworkError, match=message):
            train_surgery(merged, experts, spec, pools, ALL_LAYERS, LossKind.L1, cfg, rank=2)
        with pytest.raises(NetworkError, match=message):
            stream_train_surgery(
                merged, experts, spec, pools, 1.0, ALL_LAYERS, LossKind.L1, cfg, rank=2
            )

    @pytest.mark.parametrize("stream", [False, True], ids=["random", "stream"])
    @pytest.mark.parametrize(
        ("change", "message"),
        [(lambda pools: pools[:2], "input pools: got 2 pools for the spec's 3 tasks"),
         (lambda pools: [np.hstack([p, p[:, :1]]) for p in pools],
          "input pools: pool 0 is (20, 5), expected (samples >= 1, 4)")],
        ids=["two-pools", "width-5"],
    )
    def test_pools_that_do_not_match_the_spec_are_named(self, change, message, stream):
        # Rejected before any batch is drawn, not as a bad chunk.
        spec, merged, experts, _ = _three_task_models(seed=75)
        cfg = ms.TrainConfig(batch_size=self.BATCH, iterations=2, seed=75)
        pools = change(self._pools(76, sizes=(20, 20, 20)))
        with pytest.raises(NetworkError, match=re.escape(message) + "$"):
            if stream:
                stream_train_surgery(
                    merged, experts, spec, pools, 1.0, ALL_LAYERS, LossKind.L1, cfg, rank=2
                )
            else:
                train_surgery(merged, experts, spec, pools, ALL_LAYERS, LossKind.L1, cfg, rank=2)

    @pytest.mark.parametrize(
        ("samples", "shapes"), [(30, [(3, 8), (1, 6)]), (32, [(4, 8)]), (8, [(1, 8)]),
                                (5, [(1, 5)]), (2 * _CHUNK_COLUMNS, [(PER_CHUNK, 8)] * 2)],
    )
    def test_a_stream_yields_chunks_of_whole_batches(self, samples, shapes):
        # Whole batches fill chunks of at most PER_CHUNK; a short last
        # batch is a chunk of its own.  chunk[i, t] is task t's batch i,
        # column-major, with the pool's bits.
        pools = self._pools(74, sizes=(samples,) * 3)
        chunks = list(sequential_batches(pools, ModelSpec(4, (5, 4), 3, 3), self.BATCH))
        assert [c.shape for c in chunks] == [(n, 3, 4, width) for n, width in shapes]
        rows = [chunk[i] for chunk in chunks for i in range(len(chunk))]
        starts = range(0, samples, self.BATCH)
        for row, start in zip(rows, starts, strict=True):
            for t, batch in enumerate(row):
                want = pools[t][start : start + self.BATCH].T.astype(np.float32)
                assert batch.dtype == np.float32
                assert batch.flags.f_contiguous
                assert batch.tobytes() == want.tobytes()


class TestFloat32Overflow:
    """Surgery trains in float32, so representations that float64 holds
    can overflow it; that ends training in one error naming the task and
    layer, as a trace does, with no numpy warning."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("psi", [LossKind.L1, LossKind.MSE])
    @pytest.mark.parametrize(
        "merged_scale, expert_scale, layer",
        [(1e20, 1e20, 2), (1e20, 1.0, 2), (1.0, 1e30, 1)],
    )
    def test_overflow_names_task_and_layer(self, mode, psi, merged_scale, expert_scale, layer):
        # Inputs of 1e10 take a 1e20 model past float32 at layer 2 and a
        # 1e30 one at layer 1; float64 holds both, and a float64 engine
        # trained on to losses near 1e72.
        spec, (merged, expert) = positive_models(3, scales=(merged_scale, expert_scale))
        cfg = ms.TrainConfig(batch_size=2, iterations=3, seed=0)
        pools = [np.full((4, 4), 1e10)]
        message = rf"^task 0: layer {layer} representations overflow float32$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SurgeryError, match=message):
                train_surgery(merged, [expert], spec, pools, mode, psi, cfg, rank=2)
            with pytest.raises(SurgeryError, match=message):
                stream_train_surgery(merged, [expert], spec, pools, 1.0, mode, psi, cfg, rank=2)

    @pytest.mark.parametrize("stream", [False, True])
    def test_inputs_beyond_float32_end_in_one_error(self, stream):
        # A float64 pool is cast to float32 once; a sample beyond its
        # range is not finite on input, so its loss, not an overflow, is
        # named.
        spec, merged, expert = tiny_models(seed=72)
        pool = np.random.default_rng(73).standard_normal((4, 4))
        pool[1, 2] = 1e39
        cfg = ms.TrainConfig(batch_size=4, iterations=2, seed=72)
        message = r"^non-finite loss at iteration 1, task 0, layer 1$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SurgeryError, match=message):
                if stream:
                    stream_train_surgery(merged, [expert], spec, [pool], 1.0, ALL_LAYERS,
                                         LossKind.L1, cfg, rank=2)
                else:
                    train_surgery(merged, [expert], spec, [pool], ALL_LAYERS, LossKind.L1, cfg,
                                  rank=2)

    def test_the_overflowing_task_is_named(self):
        spec, (small, big) = positive_models(3, scales=(1.0, 1e30))
        spec = dataclasses.replace(spec, num_tasks=3)
        cfg = ms.TrainConfig(batch_size=2, iterations=3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                SurgeryError, match=r"^task 1: layer 1 representations overflow float32$"
            ):
                train_surgery(small, [small, big, big], spec, [np.full((4, 4), 1e10)] * 3,
                              ALL_LAYERS, LossKind.L1, cfg, rank=2)


# Loaded once, so a test that replaces ctypes.CDLL still reads MXCSR.
_LIBM = ctypes.CDLL("libm.so.6") if platform.machine() == "x86_64" else None


def _mxcsr(value=None) -> int:
    """The calling thread's MXCSR, read through glibc's fegetenv, after
    setting it to ``value`` through fesetenv if one is given."""
    libm = _LIBM
    env = surgery._FenvT()
    assert libm.fegetenv(ctypes.byref(env)) == 0
    if value is not None:
        env.mxcsr = value
        assert libm.fesetenv(ctypes.byref(env)) == 0
        assert libm.fegetenv(ctypes.byref(env)) == 0
    return env.mxcsr


@pytest.mark.skipif(platform.machine() != "x86_64", reason="MXCSR is an x86-64 register")
class TestFlushSubnormals:
    """``train_surgery`` runs its chunk loop with MXCSR's FTZ (bit 15) and
    DAZ (bit 6) set, and restores both bits as they were."""

    FTZ, DAZ = 1 << 15, 1 << 6
    BITS = FTZ | DAZ

    @pytest.fixture(autouse=True)
    def keep_mxcsr(self):
        before = _mxcsr()
        yield
        _mxcsr(before)

    @staticmethod
    def train(data=None):
        spec, merged, expert = tiny_models(3)
        pools = [np.random.default_rng(4).standard_normal((40, 4)).astype(np.float32)]
        cfg = ms.TrainConfig(iterations=40, batch_size=4, seed=5)
        if data is not None:
            data = data(random_batches(pools, cfg.batch_size, cfg.iterations, [cfg.seed, 6]))
        return train_surgery(
            merged, [expert], spec, pools if data is None else data, ALL_LAYERS, LossKind.L1,
            cfg, rank=2,
        )

    def watched(self, seen):
        def chunks(batches):
            for chunk in batches:
                seen.append(_mxcsr() & self.BITS)
                yield chunk
        return chunks

    @pytest.mark.parametrize("prior", [0, FTZ, DAZ, FTZ | DAZ])
    def test_training_flushes_and_restores_both_bits(self, prior):
        _mxcsr(_mxcsr() & ~self.BITS | prior)
        seen = []
        result = self.train(self.watched(seen))
        assert set(seen) == {self.BITS}
        assert _mxcsr() & self.BITS == prior
        assert result.stack.params.keys() and len(result.losses) == 40

    def test_an_error_mid_training_restores_both_bits(self):
        _mxcsr(_mxcsr() & ~self.BITS)
        seen = []

        def then_a_bad_chunk(batches):
            yield from self.watched(seen)(batches)
            yield np.zeros((1, 1, 5, 4), np.float32)

        with pytest.raises(SurgeryError, match=r"^iteration 41: a chunk must be "):
            self.train(then_a_bad_chunk)
        assert set(seen) == {self.BITS}
        assert _mxcsr() & self.BITS == 0

    def test_a_subnormal_product_after_training_is_not_zero(self):
        _mxcsr(_mxcsr() & ~self.BITS)
        self.train()
        tiny = np.array([1e-300]) * np.array([1e-10])
        assert 0 < tiny[0] < np.finfo(np.float64).tiny
        assert np.float32(1e-30) * np.float32(1e-10) > 0

    @pytest.mark.parametrize("missing", ["libm", "fegetenv", "x86-64"])
    def test_without_the_scope_training_is_bitwise_unchanged(self, monkeypatch, missing):
        flushed = self.train()
        if missing == "libm":
            def cdll(name):
                raise OSError(f"{name}: cannot open shared object file")
            monkeypatch.setattr(surgery.ctypes, "CDLL", cdll)
        elif missing == "fegetenv":
            monkeypatch.setattr(surgery.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        else:
            monkeypatch.setattr(surgery.platform, "machine", lambda: "aarch64")
        _mxcsr(_mxcsr() & ~self.BITS)
        seen = []
        plain = self.train(self.watched(seen))
        monkeypatch.undo()
        assert set(seen) == {0}
        assert bitwise_equal(plain.stack.params, flushed.stack.params)
        assert plain.losses == flushed.losses

