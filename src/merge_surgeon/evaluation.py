"""Accuracy of merged and expert models, and result-table emission.

:func:`accuracy` scores a task's head on final-layer representations the
caller already holds, such as the traces of a bias report;
:func:`evaluate` traces each test set itself, on the worker pool, one
block of samples and one layer at a time, and keeps only the final layer.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bias import BiasReport
from .config import map_over_tasks
from .network import ModelSpec, head_logits
from .surgery import _walk_blocks, trace_layers
from .tensors import MergeSurgeonError, ParamSet, head_name


class EvalError(MergeSurgeonError):
    """Missing heads or malformed evaluation inputs."""


@dataclass(frozen=True)
class EvalResult:
    """Per-task accuracies; their arithmetic mean is :attr:`average`."""

    model_id: str
    task_accuracies: tuple[float, ...]
    stack_id: str | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "task_accuracies", tuple(float(a) for a in self.task_accuracies)
        )
        if not self.task_accuracies:
            raise EvalError("need at least one task accuracy")
        if any(not 0 <= a <= 1 for a in self.task_accuracies):
            raise EvalError("accuracies must lie in [0, 1]")

    @property
    def average(self) -> float:
        return sum(self.task_accuracies) / len(self.task_accuracies)

    @property
    def label(self) -> str:
        return self.model_id if self.stack_id is None else f"{self.model_id}+{self.stack_id}"


def collect_heads(experts: Sequence[Mapping[str, np.ndarray]], spec: ModelSpec) -> ParamSet:
    """One ParamSet holding head.{t}.* from each of the spec's experts, t
    in expert order; every head is a (num_classes, feature_dim) weight and
    a (num_classes,) bias."""
    if len(experts) != spec.num_tasks:
        raise EvalError(f"got {len(experts)} experts for the spec's {spec.num_tasks} tasks")
    want = (spec.num_classes, spec.feature_dim)
    entries = []
    for task, expert in enumerate(experts):
        for kind in ("weight", "bias"):
            name = head_name(task, kind)
            if name not in expert:
                raise EvalError(f"expert {task} is missing {name!r}")
            entries.append((name, expert[name]))
        weight, bias = (np.shape(value) for _, value in entries[-2:])
        if (weight, bias) != (want, want[:1]):
            raise EvalError(f"expert {task} head: weight {weight} and bias {bias}, "
                            f"expected {want} and {want[:1]}")
    return ParamSet(entries)


def accuracy(heads: Mapping[str, np.ndarray], task: int, final_blocks, labels) -> float:
    """Argmax accuracy of task ``task``'s head on an iterable of (d_L, n_i)
    column blocks, in sample order, of the final-layer representations of
    samples labelled ``labels``: each block's count of correct argmaxes is
    added as it arrives.  Ties in the argmax go to the lowest class index.
    Blocks that do not hold exactly one sample per label, or no sample at
    all, are an ``EvalError`` that names both counts.
    """
    weight, bias = heads[head_name(task, "weight")], heads[head_name(task, "bias")]
    correct = start = 0
    for block in final_blocks:
        stop = start + block.shape[1]
        if stop <= len(labels):  # past the labels, only the samples are counted
            predicted = np.argmax(head_logits(weight, bias, block), axis=0)
            correct += int(np.count_nonzero(predicted == labels[start:stop]))
        start = stop
    if start != len(labels) or start == 0:
        raise EvalError(f"task {task}: {start} samples scored against {len(labels)} labels")
    return correct / start


def evaluate(
    backbone: Mapping[str, np.ndarray],
    heads: Mapping[str, np.ndarray],
    spec: ModelSpec,
    test_sets,
    stack=None,
    model_id: str = "model",
    stack_id: str | None = None,
) -> EvalResult:
    """:func:`accuracy` of every task on its own test set, traced through
    the backbone with the task's corrections from ``stack`` if given.

    ``spec.backbone`` checks and copies the backbone once to float32,
    under the name ``model_id``, and every task's trace reads that copy.
    Each test set is traced in :func:`_walk_blocks`, one layer at a time,
    so a trace holds one layer of one block, and an overflow in any layer
    raises the ``SurgeryError`` naming it.  ``test_sets`` holds one test
    set per task of ``spec``; any other count is an ``EvalError`` raised
    before any trace."""
    if len(test_sets) != spec.num_tasks:
        raise EvalError(f"got {len(test_sets)} test sets for the spec's {spec.num_tasks} tasks")
    for task in range(len(test_sets)):
        if head_name(task, "weight") not in heads or head_name(task, "bias") not in heads:
            raise EvalError(f"missing head for task {task}")
    backbone32 = spec.backbone(backbone, model_id, np.float32)

    def score(task):
        x = test_sets[task].inputs()

        def final(columns):
            for z_final in trace_layers(backbone32, spec, stack, x[:, columns], task):
                pass  # each layer is dropped as the next one arrives
            return z_final

        return accuracy(heads, task, _walk_blocks(final, x.shape[1]), test_sets[task].labels)

    accuracies = map_over_tasks(score, len(test_sets))
    return EvalResult(model_id, accuracies, stack_id=stack_id)


def results_table(results: Sequence[EvalResult]) -> str:
    """CSV comparison table: one row per method, columns per task plus avg."""
    if not results:
        raise EvalError("need at least one result")
    tasks = len(results[0].task_accuracies)
    if any(len(r.task_accuracies) != tasks for r in results):
        raise EvalError("all results must cover the same tasks")
    lines = ["method," + ",".join(f"task{t}" for t in range(tasks)) + ",avg"]
    for result in results:
        cells = ",".join(f"{a:.6f}" for a in result.task_accuracies)
        lines.append(f"{result.label},{cells},{result.average:.6f}")
    return "\n".join(lines) + "\n"


def emit_report(
    results: Sequence[EvalResult],
    bias_reports: Sequence[BiasReport] = (),
    out_dir="report",
) -> list[Path]:
    """Write the results table and one bias CSV per report; byte-stable for
    identical inputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    table_path = out / "results.csv"
    table_path.write_text(results_table(results), encoding="utf-8")
    written.append(table_path)
    for report in bias_reports:
        safe = report.model_id.replace("/", "_").replace(" ", "_").replace(":", "_")
        path = out / f"bias_{safe}.csv"
        path.write_text(report.to_csv_text(), encoding="utf-8")
        written.append(path)
    return written
