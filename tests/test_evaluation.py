"""Accuracy evaluation and report emission."""

import re
import warnings

import numpy as np
import pytest

from merge_surgeon.datasets import Dataset
from merge_surgeon.evaluation import (
    EvalError,
    EvalResult,
    accuracy,
    collect_heads,
    emit_report,
    evaluate,
    results_table,
)
from merge_surgeon.bias import BiasReport
from merge_surgeon.network import ModelSpec, init_backbone
from merge_surgeon.surgery import SurgeryError
from merge_surgeon.tensors import ParamSet


def perfect_setup():
    """Two-block 'network' whose final features are the inputs themselves,
    plus a head that reads the label off the leading coordinates."""
    spec = ModelSpec(3, (3, 3), 3, 1)
    params = {name: np.zeros(shape) for name, shape in spec.backbone_shapes().items()}
    params["block1.weight"] = np.eye(3)
    params["block2.weight"] = np.eye(3)
    backbone = ParamSet(params)
    heads = ParamSet([
        ("head.0.weight", np.eye(3)),
        ("head.0.bias", np.zeros(3)),
    ])
    features = np.array([[5.0, 1.0, 1.0], [0.0, 4.0, 1.0], [0.5, 1.0, 6.0]], dtype=np.float32)
    data = Dataset(features, np.array([0, 1, 2]), num_classes=3)
    return backbone, heads, spec, [data]


class TestEvaluate:
    def test_perfect_head_scores_one(self):
        backbone, heads, spec, tests = perfect_setup()
        result = evaluate(backbone, heads, spec, tests, model_id="toy")
        assert result.task_accuracies == (1.0,)
        assert result.average == 1.0

    def test_all_zero_head_predicts_class_zero(self):
        # argmax ties break to the lowest class index, so a zero head
        # scores exactly the class-0 frequency.
        backbone, _, spec, tests = perfect_setup()
        heads = ParamSet([
            ("head.0.weight", np.zeros((3, 3))),
            ("head.0.bias", np.zeros(3)),
        ])
        result = evaluate(backbone, heads, spec, tests, model_id="zero")
        class0_frequency = float((tests[0].labels == 0).mean())
        assert result.task_accuracies[0] == class0_frequency

    def test_missing_head(self):
        backbone, _, spec, tests = perfect_setup()
        with pytest.raises(EvalError, match="missing head"):
            evaluate(backbone, ParamSet(), spec, tests)

    def test_deterministic(self):
        backbone, heads, spec, tests = perfect_setup()
        a = evaluate(backbone, heads, spec, tests)
        b = evaluate(backbone, heads, spec, tests)
        assert a.task_accuracies == b.task_accuracies

    def test_collect_heads_requires_every_expert_head(self):
        rng = np.random.default_rng(0)
        spec = ModelSpec(3, (3, 3), 2, 2)
        incomplete = ParamSet(init_backbone(spec, rng))
        with pytest.raises(EvalError, match="^expert 0 is missing 'head.0.weight'$"):
            collect_heads([incomplete, incomplete], spec)

    def test_collect_heads_checks_heads_against_the_spec(self):
        spec = ModelSpec(3, (3, 4), 3, 2)

        def expert(task, weight, bias):
            return {f"head.{task}.weight": np.zeros(weight), f"head.{task}.bias": np.zeros(bias)}

        good = [expert(0, (3, 4), (3,)), expert(1, (3, 4), (3,))]
        assert list(collect_heads(good, spec)) == [
            "head.0.weight", "head.0.bias", "head.1.weight", "head.1.bias"
        ]
        with pytest.raises(EvalError, match=r"^got 1 experts for the spec's 2 tasks$"):
            collect_heads(good[:1], spec)
        # One row too many (a fourth class), one feature too many, a bias
        # one short, and a flat weight: each names what the spec expects.
        for weight, bias in [((4, 4), (4,)), ((3, 5), (3,)), ((3, 4), (2,)), ((12,), (3,))]:
            message = f"expert 1 head: weight {weight} and bias {bias}, expected (3, 4) and (3,)"
            with pytest.raises(EvalError, match=f"^{re.escape(message)}$"):
                collect_heads([good[0], expert(1, weight, bias)], spec)
        # Every head has the spec's one class count, task 0's too.
        message = "expert 0 head: weight (2, 4) and bias (2,), expected (3, 4) and (3,)"
        with pytest.raises(EvalError, match=f"^{re.escape(message)}$"):
            collect_heads([expert(0, (2, 4), (2,)), good[1]], spec)

    def test_deep_overflow_names_the_layer(self):
        # Twelve blocks of all-positive 1e30 weights: layer 2 overflows
        # float32, and layer 11 would overflow float64 in its matmul.
        spec = ModelSpec(4, (4,) * 12, 2, 1)
        big = ParamSet({name: np.full(shape, 1e30, dtype=np.float32)
                        for name, shape in spec.backbone_shapes().items()})
        heads = ParamSet([("head.0.weight", np.ones((2, 4))), ("head.0.bias", np.zeros(2))])
        test_set = Dataset(np.ones((3, 4)), np.zeros(3, dtype=np.int64), num_classes=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                SurgeryError, match=r"^task 0: layer 2 representations overflow float32$"
            ):
                evaluate(big, heads, spec, [test_set])

    @pytest.mark.parametrize("count", [0, 1, 2, 4])
    def test_one_test_set_per_task_of_the_spec(self, count, monkeypatch):
        # Fewer sets once scored a row of fewer tasks, and a scale grid
        # picked its scale from them; more ended in a missing head.  Both
        # are rejected before any trace, by evaluate and the grid alike.
        from merge_surgeon import evaluation
        from merge_surgeon.merging import grid_search_scale

        rng = np.random.default_rng(2)
        spec = ModelSpec(3, (4, 3), 2, 3)
        pretrained = ParamSet(init_backbone(spec, rng))
        experts = [
            ParamSet({**init_backbone(spec, rng), f"head.{t}.weight": rng.standard_normal((2, 3)),
                      f"head.{t}.bias": np.zeros(2)})
            for t in range(3)
        ]
        heads = collect_heads(experts, spec)
        sets = [
            Dataset(rng.standard_normal((10, 3)).astype(np.float32),
                    rng.integers(0, 2, 10), num_classes=2)
            for _ in range(count)
        ]

        def no_trace(*args, **kwargs):
            raise AssertionError("traced before the count was checked")

        monkeypatch.setattr(evaluation, "trace_layers", no_trace)
        message = rf"^got {count} test sets for the spec's 3 tasks$"
        with pytest.raises(EvalError, match=message):
            evaluate(pretrained, heads, spec, sets)
        with pytest.raises(EvalError, match=message):
            grid_search_scale(pretrained, experts, spec, [0.5, 1.0], sets)

    def test_worker_pool_matches_sequential(self, monkeypatch):
        rng = np.random.default_rng(1)
        spec = ModelSpec(3, (4, 3), 2, 2)
        backbone = ParamSet(init_backbone(spec, rng))
        heads = ParamSet([
            ("head.0.weight", rng.standard_normal((2, 3))),
            ("head.0.bias", np.zeros(2)),
            ("head.1.weight", rng.standard_normal((2, 3))),
            ("head.1.bias", np.zeros(2)),
        ])
        tests = [
            Dataset(rng.standard_normal((40, 3)).astype(np.float32),
                    rng.integers(0, 2, 40), num_classes=2)
            for _ in range(2)
        ]
        monkeypatch.setenv("MERGE_SURGEON_THREADS", "1")
        sequential = evaluate(backbone, heads, spec, tests)
        monkeypatch.setenv("MERGE_SURGEON_THREADS", "2")
        pooled = evaluate(backbone, heads, spec, tests)
        assert sequential.task_accuracies == pooled.task_accuracies


class TestAccuracy:
    """``accuracy`` scores exactly one sample per label, in blocks."""

    HEADS = ParamSet([("head.0.weight", np.eye(3)), ("head.0.bias", np.zeros(3))])
    FINALS = np.eye(3, 5, dtype=np.float32)  # (d_L, n): samples 0, 1, 2 argmax to 0, 1, 2
    LABELS = np.array([0, 1, 2, 0, 0])

    def test_blocks_score_as_one_block(self):
        blocks = [self.FINALS[:, :2], self.FINALS[:, 2:]]
        assert accuracy(self.HEADS, 0, blocks, self.LABELS) == 1.0
        assert accuracy(self.HEADS, 0, blocks, [1, 1, 2, 0, 0]) == 0.8

    @pytest.mark.parametrize("blocks, counts", [
        ([FINALS[:, :3]], "3 samples scored against 5 labels"),
        ([], "0 samples scored against 5 labels"),
        ([FINALS, FINALS[:, :1]], "6 samples scored against 5 labels"),
    ])
    def test_a_sample_count_other_than_the_label_count_is_named(self, blocks, counts):
        with pytest.raises(EvalError, match=f"^task 0: {counts}$"):
            accuracy(self.HEADS, 0, blocks, self.LABELS)

    def test_no_samples_and_no_labels_is_an_error(self):
        with pytest.raises(EvalError, match="^task 0: 0 samples scored against 0 labels$"):
            accuracy(self.HEADS, 0, [], self.LABELS[:0])


class TestEvalResult:
    def test_average_and_label(self):
        result = EvalResult("m", [0.5, 0.7], stack_id="v2")
        assert result.average == pytest.approx(0.6)
        assert result.label == "m+v2"


class TestReports:
    def test_single_result_table(self):
        result = EvalResult("merged", [0.25, 0.75])
        text = results_table([result])
        lines = text.strip().splitlines()
        assert lines[0] == "method,task0,task1,avg"
        assert lines[1] == "merged,0.250000,0.750000,0.500000"

    def test_emit_report_is_byte_stable(self, tmp_path):
        results = [
            EvalResult("individual", [0.9, 0.95]),
            EvalResult("merged", [0.5, 0.6], stack_id="v2"),
        ]
        reports = [BiasReport(values=np.array([[0.1, 0.2], [0.3, 0.4]]), model_id="merged")]
        first = emit_report(results, reports, tmp_path / "a")
        second = emit_report(results, reports, tmp_path / "b")
        assert [p.name for p in first] == [p.name for p in second]
        for pa, pb in zip(first, second):
            assert pa.read_bytes() == pb.read_bytes()

    def test_mismatched_task_counts_rejected(self):
        with pytest.raises(EvalError):
            results_table([
                EvalResult("a", [0.5]),
                EvalResult("b", [0.5, 0.6]),
            ])
