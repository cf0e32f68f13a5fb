"""Accuracy of merged and expert models, and result-table emission.

:func:`accuracy` scores a task's head on final-layer representations the
caller already holds, such as the traces of a bias report;
:func:`evaluate` traces each test set itself, on the worker pool.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bias import BiasReport
from .config import map_over_tasks
from .network import ModelSpec, head_logits
from .surgery import corrected_forward
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
    in expert order; head t is a (head_dims[t], feature_dim) weight and a
    (head_dims[t],) bias."""
    if len(experts) != spec.num_tasks:
        raise EvalError(f"got {len(experts)} experts for the spec's {spec.num_tasks} tasks")
    entries = []
    for task, expert in enumerate(experts):
        for kind in ("weight", "bias"):
            name = head_name(task, kind)
            if name not in expert:
                raise EvalError(f"expert {task} is missing {name!r}")
            entries.append((name, expert[name]))
        weight, bias = (np.shape(value) for _, value in entries[-2:])
        want = (spec.head_dims[task], spec.feature_dim)
        if (weight, bias) != (want, want[:1]):
            raise EvalError(f"expert {task} head: weight {weight} and bias {bias}, "
                            f"expected {want} and {want[:1]}")
    return ParamSet(entries)


def accuracy(heads: Mapping[str, np.ndarray], task: int, z_final: np.ndarray, labels) -> float:
    """Argmax accuracy of task ``task``'s head on the final-layer
    representations ``z_final`` (d_L, N) of samples labelled ``labels``.

    Ties in the argmax go to the lowest class index.
    """
    logits = head_logits(
        heads[head_name(task, "weight")], heads[head_name(task, "bias")], z_final
    )
    return float((np.argmax(logits, axis=0) == labels).mean())


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
    the backbone with the task's corrections from ``stack`` if given."""
    if len(test_sets) < 1:
        raise EvalError("need at least one test set")
    for task in range(len(test_sets)):
        if head_name(task, "weight") not in heads or head_name(task, "bias") not in heads:
            raise EvalError(f"missing head for task {task}")

    def score(task):
        data = test_sets[task]
        z_final = corrected_forward(backbone, spec, stack, data.inputs(), task)[-1]
        return accuracy(heads, task, z_final, data.labels)

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
