"""Span tracer for the merge_surgeon pipeline, installed from outside the package.

``instrument`` wraps every public function of every ``merge_surgeon``
module, the public methods of the classes those modules define, and the
callbacks of the CLI commands.  Each wrapper replaces every
``merge_surgeon.*`` module attribute bound to the wrapped object, so
``from .network import forward_layers`` call sites and lazy
``from .surgery import corrected_forward`` imports are traced as well.
A span records its name, start, end, parent span and thread; every
thread keeps its own parent stack, and a span opened on a worker thread
with an empty stack takes the innermost open span of the main thread as
its parent.  Spans stay in memory until ``Tracer.save``.

``layer_metrics`` turns a saved span file into the per-layer metrics.
A metric whose function no longer exists is reported as absent rather
than failing the run.

Run as a script, this file executes one traced ``pipeline`` command:

    PYTHONPATH=src python benchmarks/tracer.py --config run.cfg \\
        --run-dir run --spans spans.npz
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import math
import os
import pkgutil
import threading
import time
from array import array
from collections.abc import Sequence
from pathlib import Path

import numpy as np

PACKAGE = "merge_surgeon"
TASK_SPAN = "config.map_over_tasks.task"


def _pool_size(data):
    if isinstance(data, (list, tuple)):
        return sum(len(pool) for pool in data)
    return math.nan  # a batch source; its pool is counted by the caller


# Per-span counts, keyed by span name: (parameter names, fn(*arguments)),
# evaluated after the call returns.
COUNTERS = {
    "datasets.save_csv": (("dataset",), len),
    "checkpoint.save_paramset": (("path",), os.path.getsize),
    "network.forward_layers": (("x",), lambda x: x.shape[1]),
    "surgery.surgery_gradients": (("x",), lambda x: x.shape[1]),
    "surgery.train_surgery": (("data",), _pool_size),
    "surgery.stream_train_surgery": (
        ("inputs_per_task", "fraction"),
        lambda pools, fraction: sum(math.ceil(fraction * len(pool)) for pool in pools),
    ),
}


def _counter(name: str, fn):
    """The count function of span ``name`` applied to a call's (args,
    kwargs), or None.  Parameters are found by name, so a count survives a
    change of argument order; if one is gone, the count is NaN (absent)."""
    if name not in COUNTERS:
        return None
    params, count = COUNTERS[name]
    names = list(inspect.signature(fn).parameters)
    if not all(p in names for p in params):
        return lambda args, kwargs: math.nan
    positions = [(names.index(p), p) for p in params]

    def counter(args, kwargs):
        try:
            return float(count(*[args[i] if i < len(args) else kwargs[p]
                                 for i, p in positions]))
        except (KeyError, TypeError, AttributeError, IndexError, OSError):
            return math.nan

    return counter


class _ThreadSpans:
    """Closed spans of one thread plus its stack of open span ids."""

    def __init__(self, index: int):
        self.index = index
        self.stack: list[int] = []
        self.sid = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")

    def add(self, sid, name, parent, start, end, value):
        self.sid.append(sid)
        self.name.append(name)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.value.append(value)


class Tracer:
    """In-memory span recorder; the constructing thread is the main thread."""

    def __init__(self):
        self.names: list[str] = []
        self.instrumented: set[str] = set()
        self._name_ids: dict[str, int] = {}
        self._span_ids = itertools.count()
        self._thread_ids = itertools.count()
        self._threads: list[_ThreadSpans] = []
        self._local = threading.local()
        self._main = self._thread_spans()

    def _thread_spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = _ThreadSpans(next(self._thread_ids))
            self._threads.append(spans)
            self._local.spans = spans
            return spans

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        name_id = self._name_id(name)
        counter = _counter(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer._thread_spans()
            stack = spans.stack
            if stack:
                parent = stack[-1]
            else:
                main_stack = tracer._main.stack
                parent = main_stack[-1] if main_stack and spans is not tracer._main else -1
            sid = next(tracer._span_ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                spans.add(sid, name_id, parent, start, end, math.nan)
                raise
            end = time.perf_counter()
            stack.pop()
            value = 0.0 if counter is None else counter(args, kwargs)
            spans.add(sid, name_id, parent, start, end, value)
            return result

        return traced

    def wrap_task_argument(self, fn):
        """Wrap ``fn`` so each task function it is given runs in a
        ``TASK_SPAN`` span on whichever thread executes it."""
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def with_task_spans(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments["fn"] = tracer.wrap(TASK_SPAN, bound.arguments["fn"])
            return fn(*bound.args, **bound.kwargs)

        return with_task_spans

    def save(self, path) -> None:
        arrays = {}
        for field in ("sid", "name", "parent", "start", "end", "value"):
            arrays[field] = np.concatenate(
                [np.frombuffer(getattr(t, field), dtype=getattr(t, field).typecode)
                 for t in self._threads]
            )
        arrays["thread"] = np.concatenate(
            [np.full(len(t.sid), t.index, dtype=np.int32) for t in self._threads]
        )
        order = np.argsort(arrays["sid"], kind="stable")
        arrays = {key: value[order] for key, value in arrays.items()}
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            instrumented=np.array(sorted(self.instrumented), dtype=str),
            **arrays,
        )


def _package_modules():
    package = importlib.import_module(PACKAGE)
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return modules


def instrument(tracer: Tracer) -> None:
    """Wrap the package's public functions, methods and CLI callbacks."""
    modules = _package_modules()
    wrapped: dict[int, object] = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and id(obj) not in wrapped:
                name = f"{short}.{obj.__name__}"
                if name == "config.map_over_tasks":
                    wrapped[id(obj)] = tracer.wrap(name, tracer.wrap_task_argument(obj))
                else:
                    wrapped[id(obj)] = tracer.wrap(name, obj)
                tracer.instrumented.add(name)
            elif inspect.isclass(obj):
                for method_name, method in list(vars(obj).items()):
                    if method_name.startswith("_") or not inspect.isfunction(method):
                        continue
                    name = f"{short}.{obj.__name__}.{method_name}"
                    setattr(obj, method_name, tracer.wrap(name, method))
                    tracer.instrumented.add(name)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])
    cli = importlib.import_module(f"{PACKAGE}.cli")
    for command in cli.main.commands.values():
        name = f"cli.{command.name}"
        command.callback = tracer.wrap(name, command.callback)
        tracer.instrumented.add(name)


class Spans:
    """A saved span file with per-name aggregates."""

    def __init__(self, path):
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            self.instrumented = {str(n) for n in data["instrumented"]}
            for field in ("sid", "name", "parent", "thread", "start", "end", "value"):
                setattr(self, field, data[field])
        if not np.array_equal(self.sid, np.arange(len(self.sid))):
            raise ValueError(f"{path}: span ids are not contiguous")
        self.duration = self.end - self.start
        self._ids = {name: i for i, name in enumerate(self.names)}

    def mask(self, name: str) -> np.ndarray:
        name_id = self._ids.get(name)
        if name_id is None:
            return np.zeros(len(self.sid), dtype=bool)
        return self.name == name_id

    def enclosing(self, markers: Sequence[str]) -> np.ndarray:
        """Per span, the id of the innermost marker-named span around it
        (itself included), or -1."""
        marker_ids = {self._ids[m] for m in markers if m in self._ids}
        result = np.full(len(self.sid), -1, dtype=np.int64)
        names = self.name.tolist()
        parents = self.parent.tolist()
        for sid in range(len(names)):  # parents open, so get ids, before children
            if names[sid] in marker_ids:
                result[sid] = sid
            elif parents[sid] >= 0:
                result[sid] = result[parents[sid]]
        return result

    def children(self, name: str) -> np.ndarray:
        """Spans opened directly inside a ``name`` span, on its thread."""
        own = self.mask(name)
        child = np.zeros(len(self.sid), dtype=bool)
        has_parent = self.parent >= 0
        parents = self.parent[has_parent]
        child[has_parent] = own[parents] & (self.thread[has_parent] == self.thread[parents])
        return child

    def self_time(self, name: str) -> float:
        """Time of ``name`` spans not covered by their same-thread children."""
        return float(self.duration[self.mask(name)].sum()
                     - self.duration[self.children(name)].sum())


def layer_metrics(spans: Spans) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics of one traced pipeline: ``{name: (value, unit)}``
    plus the names of metrics whose traced functions no longer exist."""
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def put(metric, needs, unit, compute):
        if all(name in spans.instrumented for name in needs):
            value = float(compute())
            if math.isfinite(value):
                metrics[metric] = (value, unit)
                return
        metrics[metric] = (0.0, unit)
        absent.append(metric)

    def select(name, where):
        return spans.mask(name) if where is None else spans.mask(name) & where

    def total(name, where=None):
        return spans.duration[select(name, where)].sum()

    def calls(name, where=None):
        return select(name, where).sum()

    def count(name, where=None):
        return spans.value[select(name, where)].sum()

    def us_med(name):
        durations = spans.duration[spans.mask(name)]
        return np.median(durations) * 1e6 if len(durations) else 0.0

    def span_stats(name, stats):
        for stat in stats:
            compute = {
                "calls": lambda: calls(name),
                "s": lambda: total(name),
                "us_med": lambda: us_med(name),
                "self_s": lambda: spans.self_time(name),
            }[stat]
            unit = {"calls": "count", "s": "s", "us_med": "us", "self_s": "s"}[stat]
            put(f"{name}.{stat}", [name], unit, compute)

    span_stats("datasets.gen_task_suite", ["s"])
    span_stats("datasets.save_csv", ["s"])
    put("datasets.save_csv.rows", ["datasets.save_csv"], "count",
        lambda: count("datasets.save_csv"))

    span_stats("network.pretrain", ["s"])
    span_stats("network.train_expert", ["s"])
    span_stats("network.classifier_loss_and_grads", ["calls", "s"])
    span_stats("network.forward_layers", ["calls", "s", "us_med"])
    span_stats("network.Adam.step", ["calls", "us_med"])
    stage_markers = {
        "network": ["network.pretrain", "network.train_expert"],
        "merging": ["merging.ada_merge"],
        "surgery": ["surgery.train_surgery"],
    }
    all_markers = [m for markers in stage_markers.values() for m in markers]
    stage = spans.enclosing(all_markers)
    stage_name = np.where(stage >= 0, spans.name[np.maximum(stage, 0)], -1)
    for module, markers in stage_markers.items():
        inside = np.isin(stage_name, [spans.names.index(m) for m in markers if m in spans.names])
        put(f"{module}.adam_s", ["network.Adam.step", *markers], "s",
            lambda inside=inside: total("network.Adam.step", inside))

    grid = spans.enclosing(["merging.grid_search_scale"]) >= 0
    ada = spans.enclosing(["merging.ada_merge"]) >= 0
    span_stats("merging.grid_search_scale", ["s"])
    put("merging.grid_search_scale.evaluate_calls",
        ["merging.grid_search_scale", "evaluation.evaluate"], "count",
        lambda: calls("evaluation.evaluate", grid))
    span_stats("merging.ada_merge", ["s"])
    put("merging.ada_merge.steps", ["merging.ada_merge", "network.Adam.step"], "count",
        lambda: calls("network.Adam.step", ada))
    span_stats("merging.merge_with_recipe", ["s"])

    span_stats("bias.layerwise_bias_report", ["calls", "s"])
    span_stats("bias.pca_project", ["calls", "s"])
    span_stats("bias.alignment_loss_and_grad", ["calls", "s", "us_med"])

    span_stats("surgery.train_surgery", ["s", "self_s"])
    span_stats("surgery.surgery_gradients", ["calls", "s", "us_med"])
    under_train = spans.children("surgery.train_surgery")
    target_needs = ["surgery.train_surgery", "network.forward_layers"]
    put("surgery.target_forward.calls", target_needs, "count",
        lambda: calls("network.forward_layers", under_train))
    put("surgery.target_forward.s", target_needs, "s",
        lambda: total("network.forward_layers", under_train))
    put("surgery.target_forward.samples", target_needs, "count",
        lambda: count("network.forward_layers", under_train))

    def recompute_ratio():
        pools = np.concatenate([
            spans.value[spans.mask("surgery.train_surgery")],
            spans.value[spans.mask("surgery.stream_train_surgery")],
        ])
        pool = np.nansum(pools)
        return count("network.forward_layers", under_train) / pool if pool else math.nan

    put("surgery.target_recompute_ratio",
        [*target_needs, "surgery.stream_train_surgery"], "ratio", recompute_ratio)
    put("surgery.samples_per_s", ["surgery.train_surgery", "surgery.surgery_gradients"], "1/s",
        lambda: count("surgery.surgery_gradients") / total("surgery.train_surgery")
        if total("surgery.train_surgery") else math.nan)
    span_stats("surgery.corrected_forward", ["calls", "s"])

    span_stats("evaluation.evaluate", ["calls", "s"])
    put("evaluation.pool_wait_s", ["config.map_over_tasks"], "s",
        lambda: total("config.map_over_tasks"))
    put("evaluation.worker_busy_s", ["config.map_over_tasks"], "s",
        lambda: total(TASK_SPAN, spans.thread != 0))
    span_stats("evaluation.emit_report", ["s"])

    span_stats("checkpoint.save_paramset", ["calls", "s"])
    put("checkpoint.save_paramset.bytes", ["checkpoint.save_paramset"], "B",
        lambda: count("checkpoint.save_paramset"))

    span_stats("cli.pipeline", ["s"])
    put("cli.self_s", ["cli.pipeline"], "s", lambda: spans.self_time("cli.pipeline"))
    return metrics, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--spans", required=True, help="Output .npz span file.")
    args = parser.parse_args(argv)
    tracer = Tracer()
    instrument(tracer)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    try:
        cli.main(
            ["pipeline", "--config", args.config, "--run-dir", args.run_dir],
            standalone_mode=False,
        )
    finally:
        tracer.save(Path(args.spans))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
