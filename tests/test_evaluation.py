"""Accuracy evaluation and report emission."""

import re

import numpy as np
import pytest

from merge_surgeon.datasets import Dataset
from merge_surgeon.evaluation import (
    EvalError,
    EvalResult,
    collect_heads,
    emit_report,
    evaluate,
    results_table,
)
from merge_surgeon.bias import BiasReport
from merge_surgeon.network import ModelSpec, init_backbone
from merge_surgeon.tensors import ParamSet


def perfect_setup():
    """Two-block 'network' whose final features are the inputs themselves,
    plus a head that reads the label off the leading coordinates."""
    spec = ModelSpec(3, (3, 3), (3,))
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
        spec = ModelSpec(3, (3, 3), (2, 2))
        incomplete = ParamSet(init_backbone(spec, rng))
        with pytest.raises(EvalError, match="^expert 0 is missing 'head.0.weight'$"):
            collect_heads([incomplete, incomplete], spec)

    def test_collect_heads_checks_heads_against_the_spec(self):
        spec = ModelSpec(3, (3, 4), (2, 3))

        def expert(task, weight, bias):
            return {f"head.{task}.weight": np.zeros(weight), f"head.{task}.bias": np.zeros(bias)}

        good = [expert(0, (2, 4), (2,)), expert(1, (3, 4), (3,))]
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

    def test_worker_pool_matches_sequential(self, monkeypatch):
        rng = np.random.default_rng(1)
        spec = ModelSpec(3, (4, 3), (2, 2))
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
