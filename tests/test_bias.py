"""Bias metric, layer-wise reports, and PCA projection."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from merge_surgeon.bias import (
    BiasError,
    BiasReport,
    LossKind,
    alignment_loss_and_grad,
    layerwise_bias_report,
    pca_project,
    representation_bias,
)
from merge_surgeon import datasets
from merge_surgeon.datasets import Dataset
from merge_surgeon.evaluation import evaluate
from merge_surgeon.network import (
    ModelSpec, TrainConfig, forward_layers, init_backbone, init_head,
)
from merge_surgeon.surgery import (
    ALL_LAYERS, SurgeryError, SurgeryMode, SurgeryStack, corrected_forward, init_stack,
    train_surgery,
)
from merge_surgeon.tensors import ParamSet


def _former_bias(a, b, kind):
    """The bias as it was computed on float64 copies of both traces."""
    a64, b64 = np.asarray(a, np.float64), np.asarray(b, np.float64)
    if kind is LossKind.L1:
        return float(np.abs(a64 - b64).mean())
    if kind is LossKind.MSE:
        return float(np.square(a64 - b64).mean())
    return representation_bias(a64, b64, kind)


def positive_models(blocks, width=4, scales=(1e30,)):
    """A ``blocks``-deep, ``width``-wide spec with one head, and one
    backbone per scale whose every entry is that float32 scale: block l's
    output grows like scale**l, so a scale of 1e30 fits float32 at layer
    1 and overflows it at layer 2, long before float64 overflows."""
    spec = ModelSpec(width, (width,) * blocks, 2, 1)
    models = [
        ParamSet({name: np.full(shape, scale, dtype=np.float32)
                  for name, shape in spec.backbone_shapes().items()})
        for scale in scales
    ]
    return spec, models


class TestRepresentationBias:
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_identical_traces_give_zero(self, kind):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((6, 9)) + 0.5
        assert representation_bias(z, z.copy(), kind) == pytest.approx(0.0, abs=1e-12)

    def test_constant_shift_l1(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4, 5))
        for shift in (0.25, -1.5):
            assert representation_bias(z + shift, z, LossKind.L1) == pytest.approx(
                abs(shift), abs=1e-9
            )

    def test_mse_hand_value(self):
        z_ind = np.zeros((2, 1))
        z_mtl = np.array([[1.0], [-1.0]])
        assert representation_bias(z_mtl, z_ind, LossKind.MSE) == 1.0

    def test_symmetry_l1_mse(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((5, 7))
        for kind in (LossKind.L1, LossKind.MSE):
            assert representation_bias(a, b, kind) == representation_bias(b, a, kind)

    def test_zero_iff_equal_l1_mse(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.standard_normal((4, 6))
            b = a.copy()
            if rng.random() < 0.5:
                b[rng.integers(4), rng.integers(6)] += 1e-3
            for kind in (LossKind.L1, LossKind.MSE):
                assert (representation_bias(a, b, kind) == 0) == np.array_equal(a, b)

    def test_cosine_zero_for_positive_colinear(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((5, 8))
        scaled = z * rng.uniform(0.5, 3.0, size=(1, 8))
        assert representation_bias(scaled, z, LossKind.NEG_COSINE) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_zero_column_is_masked(self):
        # A column that is zero in one trace has cosine 0 (bias 1); one
        # that is zero in both has cosine 1 (bias 0).
        z = np.ones((3, 2))
        dead = z.copy()
        dead[:, 1] = 0.0
        assert representation_bias(dead, z, LossKind.NEG_COSINE) == pytest.approx(0.5)
        assert representation_bias(z, dead, LossKind.NEG_COSINE) == pytest.approx(0.5)
        assert representation_bias(dead, dead, LossKind.NEG_COSINE) == pytest.approx(0.0)

    def test_shape_mismatch(self):
        with pytest.raises(BiasError):
            representation_bias(np.zeros((2, 2)), np.zeros((2, 3)), LossKind.L1)

    @pytest.mark.parametrize("kind", [LossKind.L1, LossKind.MSE])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_float64_formula_and_keeps_inputs(self, kind, dtype):
        rng = np.random.default_rng(11)
        a = (rng.standard_normal((7, 33)) * 3).astype(dtype)
        b = (rng.standard_normal((7, 33)) * 3).astype(dtype)
        before = a.tobytes(), b.tobytes()
        assert representation_bias(a, b, kind) == _former_bias(a, b, kind)
        assert (a.tobytes(), b.tobytes()) == before

    def test_parse(self):
        assert LossKind.parse("l1") is LossKind.L1
        assert LossKind.parse("cos") is LossKind.NEG_COSINE
        with pytest.raises(BiasError):
            LossKind.parse("huber")


def _former_alignment_loss(a, b, kind):
    """The loss as ndarray.mean computed it before the step summed and
    divided directly."""
    from merge_surgeon.bias import _cosine_parts

    axes = None if a.ndim == 2 else (-2, -1)
    if kind is LossKind.L1:
        loss = np.abs(a - b).mean(axis=axes)
    elif kind is LossKind.MSE:
        loss = np.square(a - b).mean(axis=axes)
    else:
        loss = -_cosine_parts(a, b)[0].mean(axis=axes)
    return float(loss) if axes is None else loss


class TestAlignmentLoss:
    @pytest.mark.parametrize("kind", list(LossKind))
    @pytest.mark.parametrize(
        "shape", [(6, 11), (3, 32, 16), (1, 1), (2, 5, 1), (5, 4, 32, 16), (1, 2, 3, 1)]
    )
    def test_loss_is_bitwise_the_mean(self, kind, shape):
        rng = np.random.default_rng(12)
        for scale in (1e-300, 1e-3, 1.0, 1e150):
            a = rng.standard_normal(shape) * scale
            b = rng.standard_normal(shape) * scale
            got, _ = alignment_loss_and_grad(a, b, kind)
            want = _former_alignment_loss(a, b, kind)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), scale

    @pytest.mark.parametrize("kind", list(LossKind))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_layer_stack_is_bitwise_its_slices(self, kind, dtype):
        # (L, T, dim, samples): L layers of one width, T tasks each.
        rng = np.random.default_rng(13)
        a = (rng.standard_normal((5, 4, 32, 16)) + 0.2).astype(dtype)
        b = (rng.standard_normal((5, 4, 32, 16)) + 0.2).astype(dtype)
        a[1, 2, :, 3] = 0.0  # a dead column, masked for the cosine
        losses, grads = alignment_loss_and_grad(a, b, kind)
        assert losses.shape == (5, 4) and losses.dtype == grads.dtype == dtype
        for layer in range(5):
            for task in range(4):
                loss, grad = alignment_loss_and_grad(a[layer, task], b[layer, task], kind)
                assert losses[layer, task].tobytes() == np.array(loss, dtype).tobytes()
                assert grads[layer, task].tobytes() == grad.tobytes()

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((3,), "(dim, samples) or (T, dim, samples) or (L, T, dim, samples)"),
            ((2, 2, 3, 4, 5), "(dim, samples) or (T, dim, samples) or (L, T, dim, samples)"),
            ((2, 3, 0), "(dim, samples) or (T, dim, samples) or (L, T, dim, samples)"),
        ],
    )
    def test_a_trace_of_another_rank_is_rejected(self, shape, message):
        z = np.zeros(shape)
        full = f"traces must be {message} with at least one sample, got {shape}"
        with pytest.raises(BiasError, match=re.escape(full) + "$"):
            alignment_loss_and_grad(z, z, LossKind.L1)

    def test_the_bias_takes_one_pair(self):
        z = np.zeros((3, 4, 5))
        message = "traces must be (dim, samples) with at least one sample, got (3, 4, 5)"
        with pytest.raises(BiasError, match=re.escape(message) + "$"):
            representation_bias(z, z, LossKind.L1)

    def test_value_equals_bias_for_l1_and_mse(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 11))
        b = rng.standard_normal((6, 11))
        for kind in (LossKind.L1, LossKind.MSE):
            loss, _ = alignment_loss_and_grad(a, b, kind)
            assert loss == pytest.approx(representation_bias(a, b, kind), abs=1e-12)

    def test_cosine_value_is_shifted_bias(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 11)) + 0.1
        b = rng.standard_normal((6, 11)) + 0.1
        loss, _ = alignment_loss_and_grad(a, b, LossKind.NEG_COSINE)
        assert loss + 1.0 == pytest.approx(
            representation_bias(a, b, LossKind.NEG_COSINE), abs=1e-9
        )

    @pytest.mark.parametrize("kind", [LossKind.MSE, LossKind.NEG_COSINE])
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 5)) + 0.2
        b = rng.standard_normal((4, 5)) + 0.2
        _, grad = alignment_loss_and_grad(a, b, kind)
        eps = 1e-6
        numeric = np.zeros_like(a)
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                up, down = a.copy(), a.copy()
                up[i, j] += eps
                down[i, j] -= eps
                numeric[i, j] = (
                    alignment_loss_and_grad(up, b, kind)[0]
                    - alignment_loss_and_grad(down, b, kind)[0]
                ) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, atol=1e-7)

    def test_cosine_zero_columns_take_zero_gradient(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 6)) + 0.2
        b = rng.standard_normal((4, 6)) + 0.2
        a[:, 1] = 0.0  # dead in the trained trace only
        b[:, 3] = 0.0  # dead in the target only
        a[:, 4] = b[:, 4] = 0.0  # dead in both
        loss, grad = alignment_loss_and_grad(a, b, LossKind.NEG_COSINE)
        live = [0, 2, 5]
        live_loss, live_grad = alignment_loss_and_grad(a[:, live], b[:, live], LossKind.NEG_COSINE)
        # Dead columns add cosine 0, 0 and 1 to a mean over all 6 columns.
        assert loss == pytest.approx((3 * live_loss - 1.0) / 6, abs=1e-12)
        np.testing.assert_array_equal(grad[:, [1, 3, 4]], 0.0)
        np.testing.assert_allclose(grad[:, live], live_grad * 3 / 6, rtol=1e-12)

    def test_cosine_stacked_dead_column_matches_per_slice(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((2, 4, 5))
        b = rng.standard_normal((2, 4, 5))
        a[0, :, 2] = 0.0
        b[1, :, 0] = a[1, :, 0] = 0.0
        loss, grad = alignment_loss_and_grad(a, b, LossKind.NEG_COSINE)
        for t in range(2):
            loss_t, grad_t = alignment_loss_and_grad(a[t], b[t], LossKind.NEG_COSINE)
            assert loss[t] == loss_t
            assert grad[t].tobytes() == grad_t.tobytes()


class TestLayerwiseReport:
    def test_merged_equal_expert_gives_zero_column(self):
        rng = np.random.default_rng(8)
        spec = ModelSpec(4, (5, 3), 2, 2)
        expert0 = ParamSet(init_backbone(spec, rng))
        expert1 = ParamSet(init_backbone(spec, np.random.default_rng(9)))
        inputs = [rng.standard_normal((12, 4)) for _ in range(2)]
        report = layerwise_bias_report(expert0, [expert0, expert1], spec, inputs, LossKind.L1)
        assert report.values.shape == (2, 2)
        np.testing.assert_allclose(report.values[:, 0], 0.0, atol=1e-12)
        assert (report.values[:, 1] > 0).all()

    def test_dimensions_always_layers_by_tasks(self, ref_spec, ref_merged, ref_experts, ref_suite):
        report = layerwise_bias_report(
            ref_merged, ref_experts, ref_spec, ref_suite.test_inputs(), LossKind.L1
        )
        assert report.values.shape == (ref_spec.num_layers, len(ref_experts))
        csv_text = report.to_csv_text()
        assert csv_text.startswith("task,layer,value\n")
        assert len(csv_text.strip().splitlines()) == 1 + 6 * 4

    @pytest.mark.parametrize("psi", list(LossKind))
    @pytest.mark.parametrize("mode", [None, "v1", "v2", "block:2"])
    def test_streamed_report_equals_the_all_layer_reference(self, mode, psi):
        spec = ModelSpec(4, (6, 5, 3), 2, 2)
        rng = np.random.default_rng(12)
        merged = ParamSet(init_backbone(spec, rng))
        experts = [ParamSet(init_backbone(spec, np.random.default_rng(13 + t))) for t in range(2)]
        inputs = [rng.standard_normal((9, 4)), rng.standard_normal((11, 4))]
        stack = None
        if mode is not None:
            zero_up = init_stack(spec, SurgeryMode.parse(mode), rank=2, seed=3)
            stack = SurgeryStack(zero_up.mode, ParamSet(
                (name, value if name.endswith(".down") else rng.standard_normal(value.shape))
                for name, value in zero_up.params.items()
            ), spec)
        finals = []
        report = layerwise_bias_report(
            merged, experts, spec, inputs, psi, stack,
            final_traces=lambda task, *blocks: finals.append((task, *blocks)),
        )

        def all_layers(params, adapters, x):
            return forward_layers(spec.backbone(params, "model", np.float32), spec, x, adapters)

        expected = np.zeros((spec.num_layers, 2))
        for task, features in enumerate(inputs):
            x = features.T
            adapters = {} if stack is None else stack.adapters(task)
            merged_trace = all_layers(merged, adapters, x)
            expert_trace = all_layers(experts[task], {}, x)
            for layer in range(spec.num_layers):
                expected[layer, task] = _former_bias(merged_trace[layer], expert_trace[layer], psi)
            # 9 and 11 samples: one block per model.
            assert finals[task][0] == task
            assert [[z.tobytes() for z in blocks] for blocks in finals[task][1:]] == [
                [merged_trace[-1].tobytes()], [expert_trace[-1].tobytes()]
            ]
        assert report.values.tobytes() == expected.tobytes()
        assert len(finals) == 2

    def test_a_one_task_stack_cannot_correct_two_tasks(self):
        # train_surgery on one expert makes a stack for task 0 alone, so
        # the report has no corrections to score task 1 with.
        spec = ModelSpec(4, (6, 5, 3), 2, 1)
        rng = np.random.default_rng(14)
        merged = ParamSet(init_backbone(spec, rng))
        experts = [ParamSet(init_backbone(spec, np.random.default_rng(15 + t))) for t in range(2)]
        inputs = [rng.standard_normal((9, 4)), rng.standard_normal((9, 4))]
        cfg = TrainConfig(iterations=3, seed=14)
        stack = train_surgery(
            merged, experts[:1], spec, inputs[:1], ALL_LAYERS, LossKind.L1, cfg
        ).stack
        # Two experts on the one-task spec are rejected before any trace.
        with pytest.raises(BiasError, match=r"^got 2 experts for the spec's 1 tasks$"):
            layerwise_bias_report(merged, experts, spec, inputs, LossKind.L1, stack)
        two_tasks = dataclasses.replace(spec, num_tasks=2)
        with pytest.raises(SurgeryError, match=r"^a stack made for ModelSpec\(.*num_tasks=1\) "
                           r"cannot correct ModelSpec\(.*num_tasks=2\)$"):
            layerwise_bias_report(merged, experts, two_tasks, inputs, LossKind.L1, stack)

    @pytest.mark.parametrize("count", [0, 3])
    def test_an_expert_count_other_than_the_specs_is_rejected(self, count):
        # Three experts on a one-task spec used to give a (2, 3) report.
        spec = ModelSpec(4, (5, 4), 3, 1)
        merged = ParamSet(init_backbone(spec, np.random.default_rng(9)))
        experts = [ParamSet(init_backbone(spec, np.random.default_rng(t))) for t in range(count)]
        inputs = [np.ones((6, 4))] * count
        with pytest.raises(BiasError, match=rf"^got {count} experts for the spec's 1 tasks$"):
            layerwise_bias_report(merged, experts, spec, inputs, LossKind.L1)

    def test_deep_overflow_names_the_layer(self):
        spec, (big,) = positive_models(12)
        expert = ParamSet(init_backbone(spec, np.random.default_rng(0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                SurgeryError, match=r"^task 0: layer 2 representations overflow float32$"
            ):
                layerwise_bias_report(big, [expert], spec, [np.ones((3, 4))], LossKind.L1)

    @pytest.mark.parametrize(
        "merged_scale, expert_scale, layer",
        [(1e20, 1e30, 2), (1e20, 1.0, 2), (1.0, 1e30, 1)],
    )
    def test_the_merged_models_overflow_is_named_first(
        self, merged_scale, expert_scale, layer
    ):
        # Inputs of 1e10 take a 1e30 expert past float32 at layer 1 and a
        # 1e20 merged model at layer 2; the merged trace used to run to
        # its end before the expert's began, so its layer is the one named.
        spec, (merged, expert) = positive_models(3, scales=(merged_scale, expert_scale))
        with pytest.raises(
            SurgeryError, match=rf"^task 0: layer {layer} representations overflow float32$"
        ):
            layerwise_bias_report(merged, [expert], spec, [np.full((3, 4), 1e10)], LossKind.L1)

    def test_an_overflow_an_adapter_would_bring_back_ends_every_trace(self):
        # Inputs of 1e9 take block 1's 1e30 weights to 4e39, past float32;
        # in float64 the block:1 adapter took 0.999 of that back, and
        # block 2's 1e-30 weights ended near 1e7.  Traces run in float32,
        # so block 1 overflows in all three entry points.
        spec = ModelSpec(4, (4, 4), 2, 1)
        merged = ParamSet({
            "block1.weight": np.full((4, 4), 1e30), "block1.bias": np.zeros(4),
            "block2.weight": np.full((4, 4), 1e-30), "block2.bias": np.zeros(4),
        })
        stack = SurgeryStack(SurgeryMode.parse("block:1"), ParamSet({
            "surgery.0.1.down": np.eye(4), "surgery.0.1.up": 0.999 * np.eye(4),
        }), spec)
        features = np.full((3, 4), 1e9)
        float64 = forward_layers(
            spec.backbone(merged, "merged", np.float64), spec, features.T, stack.adapters(0)
        )
        assert all(np.isfinite(z).all() for z in float64)
        expert = ParamSet(init_backbone(spec, np.random.default_rng(0)))
        heads = ParamSet([("head.0.weight", np.ones((2, 4))), ("head.0.bias", np.zeros(2))])
        test_set = Dataset(features, np.zeros(3, dtype=np.int64), num_classes=2)
        message = r"^task 0: layer 1 representations overflow float32$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SurgeryError, match=message):
                evaluate(merged, heads, spec, [test_set], stack)
            with pytest.raises(SurgeryError, match=message):
                layerwise_bias_report(merged, [expert], spec, [features], LossKind.L1, stack)
            with pytest.raises(SurgeryError, match=message):
                corrected_forward(merged, spec, stack, features.T, task=0)

    def test_report_validation(self):
        with pytest.raises(BiasError):
            BiasReport(values=np.array([[-1.0]]), model_id="m")

    def test_reference_fixture_depth_profile_golden(
        self, ref_spec, ref_merged, ref_experts, ref_suite
    ):
        # Across-task layer means pinned on the first verified run; the
        # profile grows with depth on this fixture, which the report
        # surfaces (reported, not asserted as a law).
        report = layerwise_bias_report(
            ref_merged, ref_experts, ref_spec, ref_suite.test_inputs(), LossKind.L1
        )
        golden = [0.2025, 0.4666, 0.9409, 1.8122, 2.4166, 5.3378]
        np.testing.assert_allclose(report.layer_means(), golden, rtol=2e-3)
        assert (np.diff(report.layer_means()) > 0).all()


class TestSampleBlocks:
    """Traces walk a sample set in blocks of ``datasets._BLOCK_SAMPLES``
    columns; with blocks of 2 a small set spans several of them."""

    @pytest.fixture()
    def blocks_of(self, monkeypatch):
        return lambda samples: monkeypatch.setattr(datasets, "_BLOCK_SAMPLES", samples)

    @staticmethod
    def eval_set(values):
        """One labelled sample per value, every feature equal to it."""
        features = np.repeat(np.asarray(values, dtype=np.float64)[:, None], 4, axis=1)
        return Dataset(features, np.zeros(len(values), dtype=np.int64), num_classes=2)

    def test_an_overflow_is_named_at_its_lowest_layer_in_any_block(self, blocks_of):
        # Samples of 1e5 overflow the 1e10 model at layer 4, samples of
        # 1e15 at layer 3; in blocks of 2 the first block alone names 4.
        spec, (big,) = positive_models(4, scales=(1e10,))
        expert = ParamSet(init_backbone(spec, np.random.default_rng(0)))
        heads = ParamSet([("head.0.weight", np.ones((2, 4))), ("head.0.bias", np.zeros(2))])
        data = self.eval_set([1e5, 1e5, 1e15, 1e15])
        blocks_of(2)
        first_block = r"^task 0: layer 4 representations overflow float32$"
        whole = r"^task 0: layer 3 representations overflow float32$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SurgeryError, match=first_block):
                layerwise_bias_report(big, [expert], spec, [data.features[:2]], LossKind.L1)
            with pytest.raises(SurgeryError, match=first_block):
                evaluate(big, heads, spec, [self.eval_set([1e5, 1e5])])
            with pytest.raises(SurgeryError, match=whole):
                layerwise_bias_report(big, [expert], spec, [data.features], LossKind.L1)
            with pytest.raises(SurgeryError, match=whole):
                evaluate(big, heads, spec, [data])

    def test_the_merged_models_overflow_in_a_later_block_is_named_first(self, blocks_of):
        # Samples of 1 take the 1e19 expert past float32 at layer 2 and
        # leave the 1e5 merged model finite; samples of 1e25 overflow the
        # merged model at layer 3.  The whole-width trace names the merged
        # model's layer 3, though the first block alone names layer 2.
        spec, (merged, expert) = positive_models(3, scales=(1e5, 1e19))
        features = np.repeat(np.array([[1.0], [1.0], [1e25], [1e25]]), 4, axis=1)
        blocks_of(2)
        with pytest.raises(
            SurgeryError, match=r"^task 0: layer 2 representations overflow float32$"
        ):
            layerwise_bias_report(merged, [expert], spec, [features[:2]], LossKind.L1)
        with pytest.raises(
            SurgeryError, match=r"^task 0: layer 3 representations overflow float32$"
        ):
            layerwise_bias_report(merged, [expert], spec, [features], LossKind.L1)

    @staticmethod
    def models(spec, seed):
        rng = np.random.default_rng(seed)
        merged = ParamSet(init_backbone(spec, rng))
        experts, heads = [], {}
        for t in range(spec.num_tasks):
            expert_rng = np.random.default_rng([seed, t + 1])
            experts.append(ParamSet(init_backbone(spec, expert_rng)))
            heads[f"head.{t}.weight"], heads[f"head.{t}.bias"] = init_head(
                spec.num_classes, spec.feature_dim, expert_rng
            )
        return merged, experts, ParamSet(heads), rng

    def test_blocked_evaluate_equals_one_block(self, blocks_of):
        spec = ModelSpec(8, (16, 16, 8), 3, 2)
        merged, _, heads, rng = self.models(spec, 20)
        stack = SurgeryStack(ALL_LAYERS, ParamSet(
            (name, rng.standard_normal(value.shape) * 0.3)
            for name, value in init_stack(spec, ALL_LAYERS, rank=2, seed=4).params.items()
        ), spec)
        tests = [Dataset(rng.standard_normal((n, 8)), rng.integers(0, 3, n), 3)
                 for n in (1000, 777)]
        one_block = [evaluate(merged, heads, spec, tests, s) for s in (None, stack)]
        blocks_of(96)
        assert [evaluate(merged, heads, spec, tests, s) for s in (None, stack)] == one_block
        assert len({a for r in one_block for a in r.task_accuracies}) > 1

    @pytest.mark.parametrize("psi", list(LossKind))
    def test_blocked_report_matches_one_block(self, blocks_of, psi):
        spec = ModelSpec(4, (6, 5, 3), 2, 2)
        merged, experts, _, rng = self.models(spec, 21)
        # No block of one sample: numpy computes a one-column product
        # through gemv, whose bits differ from gemm's in the last place.
        inputs = [rng.standard_normal((23, 4)), rng.standard_normal((32, 4))]

        def report():
            finals = []
            values = layerwise_bias_report(
                merged, experts, spec, inputs, psi,
                final_traces=lambda task, *blocks: finals.append((task, *blocks)),
            ).values
            return values, finals

        one_values, one_finals = report()
        blocks_of(5)
        values, finals = report()
        np.testing.assert_allclose(values, one_values, rtol=1e-12, atol=0)
        assert [task for task, *_ in finals] == [0, 1]
        for (_, merged_blocks, expert_blocks), (_, (merged_z,), (expert_z,)) in zip(
            finals, one_finals
        ):
            assert [z.shape[1] for z in merged_blocks] == [5] * (merged_z.shape[1] // 5) + [
                merged_z.shape[1] % 5
            ]
            np.testing.assert_array_equal(np.concatenate(merged_blocks, axis=1), merged_z)
            np.testing.assert_array_equal(np.concatenate(expert_blocks, axis=1), expert_z)


class TestPcaProject:
    def test_two_dim_input_preserves_pairwise_distances(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((2, 30))
        projected = pca_project(data)
        orig = np.linalg.norm(data[:, :, None] - data[:, None, :], axis=0)
        proj = np.linalg.norm(projected[:, :, None] - projected[:, None, :], axis=0)
        np.testing.assert_allclose(proj, orig, atol=1e-5)

    def test_rank_one_second_component_collapses(self):
        rng = np.random.default_rng(11)
        direction = rng.standard_normal((5, 1))
        data = direction @ rng.standard_normal((1, 20))
        projected = pca_project(data)
        assert projected[1].var() < 1e-8

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((5, 3))
        projected = pca_project(data)
        centered = data - data.mean(axis=1, keepdims=True)
        cov = centered @ centered.T / (centered.shape[1] - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        top2 = eigvecs[:, order[:2]].T
        expected = top2 @ centered
        for i in range(2):
            direct = np.allclose(projected[i], expected[i], atol=1e-6)
            flipped = np.allclose(projected[i], -expected[i], atol=1e-6)
            assert direct or flipped

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((4, 25))
        a = pca_project(data)
        b = pca_project(data.copy())
        np.testing.assert_array_equal(a, b)

    def test_input_validation(self):
        with pytest.raises(BiasError):
            pca_project(np.zeros((1, 10)))
        with pytest.raises(BiasError):
            pca_project(np.zeros((3, 1)))

    def test_matches_the_thin_svd_projection(self):
        # Singular values 40, 20, then at most 2: well-separated top two
        # directions, which the Gram matrix and the thin SVD agree on.
        rng = np.random.default_rng(16)
        left, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        right, _ = np.linalg.qr(rng.standard_normal((600, 8)))
        data = left @ np.diag([40.0, 20.0, 2.0, 1.5, 1.0, 0.5, 0.2, 0.1]) @ right.T
        data += rng.standard_normal((8, 1))
        centered = data - data.mean(axis=1, keepdims=True)
        u, _, _ = np.linalg.svd(centered, full_matrices=False)
        components = u[:, :2].T
        for row in components:
            row *= np.sign(row[np.argmax(np.abs(row))])
        np.testing.assert_allclose(pca_project(data), components @ centered, rtol=0, atol=1e-8)

    def test_blocks_project_as_one_matrix(self):
        data = np.random.default_rng(18).standard_normal((6, 1000)) * 3.0 + 1.0
        blocks = [data[:, :300], data[:, 300:301], data[:, 301:]]
        np.testing.assert_allclose(pca_project(blocks), pca_project(data), rtol=0, atol=1e-12)
        assert pca_project([data]).tobytes() == pca_project(data).tobytes()

    def test_the_input_blocks_are_not_written(self):
        rng = np.random.default_rng(19)
        blocks = [rng.standard_normal((4, 9)), rng.standard_normal((4, 7)).astype(np.float32)]
        before = [b.copy() for b in blocks]
        pca_project(blocks)
        pca_project(blocks[0])
        for block, kept in zip(blocks, before):
            assert block.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("blocks", [[], [np.zeros((3, 4)), np.zeros((2, 4))],
                                        [np.zeros((3, 1)), np.zeros(3)]])
    def test_blocks_must_be_matrices_of_one_height(self, blocks):
        with pytest.raises(BiasError, match=r"^need a \(dim >= 2, samples\) matrix$"):
            pca_project(blocks)

    def test_float32_and_float64_inputs_project_alike(self):
        data = np.random.default_rng(17).standard_normal((16, 600)).astype(np.float32)
        expected = pca_project(data).tobytes()
        assert pca_project(data.astype(np.float64)).tobytes() == expected
        assert pca_project(np.asfortranarray(data, dtype=np.float64)).tobytes() == expected


class TestTraceMemory:
    """A trace holds one float32 block's output at a time: the traced
    numpy peak of a bias report and of ``evaluate`` on 4 tasks of 20,000
    samples is about two float64 layers of one task, where float64
    traces took about 4 and 2.5 of them, and holding every layer of a
    trace (and a float32 copy of each) took 15 and 9."""

    TASKS, SAMPLES, WIDTH = 4, 20_000, 32
    LAYER_BYTES = SAMPLES * WIDTH * 8  # one float64 layer of one task

    @pytest.fixture(scope="class")
    def setup(self):
        spec = ModelSpec(self.WIDTH, (self.WIDTH,) * 6, 5, self.TASKS)
        rng = np.random.default_rng(14)
        merged = ParamSet(init_backbone(spec, rng))
        experts = [ParamSet(init_backbone(spec, np.random.default_rng(15 + t)))
                   for t in range(self.TASKS)]
        features = [rng.standard_normal((self.SAMPLES, self.WIDTH)) for _ in experts]
        heads = ParamSet(
            (f"head.{t}.{kind}", rng.standard_normal(shape))
            for t in range(self.TASKS)
            for kind, shape in (("weight", (5, self.WIDTH)), ("bias", (5,)))
        )
        return spec, merged, experts, features, heads

    def peak_layers(self, fn) -> float:
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / self.LAYER_BYTES

    @pytest.mark.parametrize("psi", [LossKind.L1, LossKind.MSE])
    def test_bias_report_peak(self, setup, psi):
        spec, merged, experts, features, _ = setup
        peak = self.peak_layers(
            lambda: layerwise_bias_report(merged, experts, spec, features, psi)
        )
        assert peak < 3

    def test_evaluate_peak(self, setup, monkeypatch):
        # One worker: the pool's threads would each hold a trace.
        monkeypatch.setenv("MERGE_SURGEON_THREADS", "1")
        spec, merged, _, features, heads = setup
        labels = np.zeros(self.SAMPLES, dtype=np.int64)
        test_sets = [Dataset(f.astype(np.float32), labels, 5) for f in features]
        assert self.peak_layers(lambda: evaluate(merged, heads, spec, test_sets)) < 2.2

    @pytest.mark.parametrize("psi", [LossKind.L1, LossKind.MSE])
    def test_bias_step_peak(self, psi):
        # The pipeline's bias step: each task's report, accuracy and
        # projection from its final-layer blocks, which are then dropped.
        # The workloads' 16-wide final layer; both models' finals of one
        # task are half a layer.
        spec = ModelSpec(self.WIDTH, (self.WIDTH,) * 5 + (16,), 5, self.TASKS)
        rng = np.random.default_rng(20)
        merged = ParamSet(init_backbone(spec, rng))
        experts = [ParamSet(init_backbone(spec, np.random.default_rng(21 + t)))
                   for t in range(self.TASKS)]
        features = [rng.standard_normal((self.SAMPLES, self.WIDTH)) for _ in experts]

        def project(task, merged_blocks, expert_blocks):
            assert pca_project([*merged_blocks, *expert_blocks]).shape == (2, 2 * self.SAMPLES)

        peak = self.peak_layers(lambda: layerwise_bias_report(
            merged, experts, spec, features, psi, final_traces=project
        ))
        assert peak < 1
