"""Accuracy evaluation of merged/expert models and result-table emission."""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bias import BiasReport
from .config import map_over_tasks
from .network import ModelSpec, head_logits
from .surgery import corrected_forward
from .tensors import ParamSet, head_name


class EvalError(ValueError):
    """Missing heads or malformed evaluation inputs."""


@dataclass(frozen=True)
class EvalResult:
    """Per-task accuracies plus their arithmetic mean."""

    model_id: str
    task_accuracies: tuple[float, ...]
    average: float
    stack_id: str | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "task_accuracies", tuple(float(a) for a in self.task_accuracies)
        )
        if not self.task_accuracies:
            raise EvalError("need at least one task accuracy")
        if any(not 0 <= a <= 1 for a in self.task_accuracies):
            raise EvalError("accuracies must lie in [0, 1]")
        mean = sum(self.task_accuracies) / len(self.task_accuracies)
        if abs(mean - self.average) > 1e-12:
            raise EvalError("average must equal the mean of the per-task values")

    @classmethod
    def from_accuracies(cls, model_id, accuracies, stack_id=None) -> "EvalResult":
        accuracies = tuple(float(a) for a in accuracies)
        return cls(
            model_id=model_id,
            task_accuracies=accuracies,
            average=sum(accuracies) / len(accuracies),
            stack_id=stack_id,
        )

    @property
    def label(self) -> str:
        return self.model_id if self.stack_id is None else f"{self.model_id}+{self.stack_id}"


def collect_heads(experts: Sequence[Mapping[str, np.ndarray]]) -> ParamSet:
    """One ParamSet holding head.{t}.* from each expert, t in expert order."""
    entries = []
    for task, expert in enumerate(experts):
        for kind in ("weight", "bias"):
            name = head_name(task, kind)
            if name not in expert:
                raise EvalError(f"expert {task} is missing {name!r}")
            entries.append((name, expert[name]))
    return ParamSet(entries)


def task_accuracy(
    backbone: Mapping[str, np.ndarray],
    heads: Mapping[str, np.ndarray],
    spec: ModelSpec,
    data,
    task: int,
    stack=None,
) -> float:
    """Argmax accuracy on ``data`` through task ``task``'s head.

    Ties in the argmax go to the lowest class index.  When ``stack`` is
    given, the forward pass applies the task's in-path corrections.
    """
    x = data.inputs()
    z_final = corrected_forward(backbone, spec, stack, x, task)[-1]
    logits = head_logits(
        heads[head_name(task, "weight")], heads[head_name(task, "bias")], z_final
    )
    predictions = np.argmax(logits, axis=0)
    return float((predictions == data.labels).mean())


def evaluate(
    backbone: Mapping[str, np.ndarray],
    heads: Mapping[str, np.ndarray],
    spec: ModelSpec,
    test_sets,
    stack=None,
    model_id: str = "model",
    stack_id: str | None = None,
) -> EvalResult:
    """:func:`task_accuracy` of every task on its own test set."""
    if len(test_sets) < 1:
        raise EvalError("need at least one test set")
    for task in range(len(test_sets)):
        if head_name(task, "weight") not in heads or head_name(task, "bias") not in heads:
            raise EvalError(f"missing head for task {task}")
    accuracies = map_over_tasks(
        lambda task: task_accuracy(backbone, heads, spec, test_sets[task], task, stack),
        len(test_sets),
    )
    return EvalResult.from_accuracies(model_id, accuracies, stack_id=stack_id)


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
