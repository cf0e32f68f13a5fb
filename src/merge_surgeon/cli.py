"""Command-line surface: gen, pretrain, finetune, merge, bias, surgery,
eval, report, and the end-to-end pipeline.

Every command works inside a run directory holding the standard artifact
names (suite CSVs, checkpoints, reports).  Dataset CSVs are exports for
external tooling; commands regenerate the suite deterministically from
the configured seed so labels stay coherent across splits.  Setup makes
only the suite's recipe: each step draws the split or mixture it reads
when it reads it, and keeps none of it afterwards.  The manifest
written by ``pipeline`` lists the resolved configuration and a digest of
every artifact, which is enough to re-execute the run bit-identically.
A flag that sets a config value is parsed by ``RunConfig``, as a config line is.

A model's bias report and accuracy rows come from one trace of each test
set: ``_bias_step`` scores the rows, and projects, each task's final-layer
traces before the next task is traced.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import multiprocessing
import os
import signal
import threading
from pathlib import Path

import click

from .bias import layerwise_bias_report, pca_project
from .checkpoint import load_paramset, save_paramset
from .config import MERGE_ALGOS, ConfigError, RunConfig, load_config_file, worker_count
from .datasets import TaskSuite, gen_task_suite, save_csv, write_csv
from .evaluation import EvalResult, accuracy, collect_heads, emit_report, evaluate, results_table
from .merging import MergeRecipe, grid_search_scale, merge_with_recipe
from .network import ModelSpec, TrainConfig, TrainResult, pretrain as run_pretrain, train_experts
from .surgery import (
    SurgeryError,
    SurgeryMode,
    SurgeryResult,
    SurgeryStack,
    stream_train_surgery,
    train_surgery,
)
from .tensors import MergeSurgeonError, ParamSet

# The row name of a model merged by each rule: merged_<word>, MERGE_ALGOS inverted.
_MERGED_IDS = {rule: f"merged_{word}" for word, rule in MERGE_ALGOS.items()}


def _wrap_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (MergeSurgeonError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


def _setup(config_path, run_dir, **overrides):
    """Resolved config, run directory, the suite's recipe and model spec."""
    file_values = load_config_file(config_path) if config_path else {}
    cfg = RunConfig.from_sources(file_values, overrides)
    suite = gen_task_suite(cfg.seed, cfg.tasks, cfg.dim, cfg.classes, cfg.n_train, cfg.n_test)
    spec = ModelSpec(cfg.dim, cfg.hidden_dims, cfg.classes, cfg.tasks)
    return cfg, Path(run_dir), suite, spec


def _train_config(cfg: RunConfig, iterations: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=cfg.train_lr,
        batch_size=cfg.train_batch,
        iterations=iterations,
        seed=cfg.seed,
    )


def _checkpoint(run_dir: Path, name: str) -> Path:
    return run_dir / "checkpoints" / f"{name}.msrg"


def _save(params: ParamSet, run_dir: Path, name: str) -> None:
    path = _checkpoint(run_dir, name)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_paramset(params, path)


def _load_experts(run_dir: Path, cfg: RunConfig) -> list[ParamSet]:
    return [load_paramset(_checkpoint(run_dir, f"expert_{t}")) for t in range(cfg.tasks)]


def _load_merged(run_dir: Path, cfg: RunConfig) -> tuple[ParamSet, list[ParamSet], str]:
    """The merged backbone, the experts whose heads it is scored with, and
    its row name, from the rule that the run's ``merge_recipe.txt`` records."""
    merged, experts = load_paramset(_checkpoint(run_dir, "merged")), _load_experts(run_dir, cfg)
    recipe = run_dir / "merge_recipe.txt"
    model_id = _MERGED_IDS.get(load_config_file(recipe).get("algorithm"))
    if model_id is None:
        raise ConfigError(f"{recipe} records no algorithm = {'|'.join(_MERGED_IDS)}")
    return merged, experts, model_id


def _load_stack(path: Path, run_dir: Path, cfg: RunConfig, spec: ModelSpec) -> SurgeryStack:
    """The stack at ``path`` for every task of ``spec``, read in the mode
    that the run's ``surgery_info.txt`` records, or the configured one if
    the run has trained no stack."""
    info = run_dir / "surgery_info.txt"
    if info.exists():
        recorded = load_config_file(info)
        if "mode" not in recorded:
            raise SurgeryError(f"{info} records no mode")
        try:
            mode = SurgeryMode.parse(recorded["mode"])
        except SurgeryError as err:
            raise SurgeryError(f"{info}: {err}") from None
    elif cfg.surgery_mode != "none":
        mode = cfg.surgery_mode
    else:
        raise SurgeryError("surgery mode 'none' cannot read a stack")
    return SurgeryStack(mode, load_paramset(path), spec)


def _suffix(stack: SurgeryStack | None) -> str:
    """Name suffix of the artifacts that show the surgery-corrected model."""
    return "_surgery" if stack is not None else ""


# Steps: each takes its inputs in memory and writes its stage's artifacts.
# A subcommand loads the inputs and runs one step; ``pipeline`` chains
# them all without reloading anything.


def _gen_step(cfg: RunConfig, run_dir: Path, suite: TaskSuite) -> None:
    """Write ``config.cfg`` and the suite's CSVs, drawing and writing one
    split of every task at a time, then the mixture."""
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.cfg").write_text(cfg.to_text(), encoding="utf-8")
    for split in ("train", "validation", "test"):
        for t, data in enumerate(suite.split(split)):
            save_csv(data, run_dir / "suite" / f"task{t}_{split}.csv")
    save_csv(suite.mixture(), run_dir / "suite" / "mixture.csv")


def _pretrain_step(cfg, run_dir, suite, spec) -> TrainResult:
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "model_spec.cfg").write_text(spec.to_text(), encoding="utf-8")
    result = run_pretrain(spec, suite.mixture(), _train_config(cfg, cfg.pretrain_iters))
    _save(result.params, run_dir, "pretrained")
    return result


def _finetune_step(cfg, run_dir, suite, spec, pretrained, tasks) -> list[TrainResult]:
    """Fine-tune the experts of ``tasks`` jointly, on the train splits of
    those tasks alone, then save them in task order; a run that fails
    saves none."""
    results = train_experts(
        pretrained, suite.split("train", tasks), tasks, spec,
        _train_config(cfg, cfg.finetune_iters),
    )
    for task, result in zip(tasks, results):
        _save(result.params, run_dir, f"expert_{task}")
    return results


def _merge_step(cfg, run_dir, suite, spec, pretrained, experts) -> tuple[ParamSet, MergeRecipe]:
    algorithm = MERGE_ALGOS[cfg.merge_algo]
    keep = cfg.ties_keep if algorithm == "ties_merging" else None
    scale = None
    if algorithm in ("task_arithmetic", "ties_merging"):
        scale = cfg.merge_scale
        if scale == "grid":
            scale = grid_search_scale(
                pretrained,
                experts,
                spec,
                cfg.scale_grid,
                suite.split("validation"),
                lambda pre, ex, sp, s: merge_with_recipe(
                    MergeRecipe(algorithm, s, keep), pre, ex, sp
                )[0],
            )
    merged, recipe = merge_with_recipe(
        MergeRecipe(algorithm=algorithm, scale=scale, keep_fraction=keep),
        pretrained,
        experts,
        spec=spec,
        inputs_per_task=(
            [data.features for data in suite.split("test")]
            if algorithm == "ada_merging" else None
        ),
        cfg=_train_config(cfg, iterations=cfg.ada_iters),
    )
    _save(merged, run_dir, "merged")
    (run_dir / "merge_recipe.txt").write_text(recipe.to_text(), encoding="utf-8")
    return merged, recipe


def _bias_step(cfg, run_dir, suite, spec, merged, experts, model_id, stack=None, tests=None):
    """Bias report of the merged (or corrected) model, and the accuracy rows
    ``individual`` and ``model_id[+mode]`` scored on its final-layer traces,
    task by task.  Given a ``run_dir``, each task's shared-basis 2-D
    projections of the two final layers are written there before the next
    task is traced.  ``model_id`` names the rule that made ``merged``.  The
    test split ``tests``, drawn here unless given, serves both the traces
    and the labels."""
    heads = collect_heads(experts, spec)
    tests = suite.split("test") if tests is None else tests
    scores = ([], [])  # the experts' accuracies, then the merged model's

    def finals(task, merged_blocks, expert_blocks):
        for side, blocks in zip(scores, (expert_blocks, merged_blocks)):
            side.append(accuracy(heads, task, blocks, tests[task].labels))
        if run_dir is not None:
            coords = pca_project([*merged_blocks, *expert_blocks])
            n = sum(block.shape[1] for block in merged_blocks)
            write_csv(
                run_dir / f"projection{_suffix(stack)}_{task}.csv",
                ["source", "x", "y"],
                [("merged,%.9g,%.9g", (coords[:, :n].T,)),
                 ("expert,%.9g,%.9g", (coords[:, n:].T,))],
                line_end="\n",
            )

    report = layerwise_bias_report(
        merged, experts, spec, [data.features for data in tests], cfg.surgery_psi, stack=stack,
        model_id="merged" + _suffix(stack), final_traces=finals,
    )
    stack_id = None if stack is None else stack.mode.label
    return report, [EvalResult("individual", scores[0]), EvalResult(model_id, scores[1], stack_id)]


def _surgery_step(cfg, run_dir, suite, spec, merged, experts) -> SurgeryResult:
    """Train the configured stack on the test inputs, or on the mixture of
    the ``wild:<seed>`` suite, which is the only part of that suite drawn."""
    data = cfg.surgery_data
    if data.wild_seed is None:
        inputs = [test.features for test in suite.split("test")]
    else:
        wild = gen_task_suite(
            data.wild_seed, cfg.tasks, cfg.dim, cfg.classes, cfg.n_train, cfg.n_test
        )
        inputs = [wild.mixture().features] * cfg.tasks
    settings = (cfg.surgery_mode, cfg.surgery_psi, _train_config(cfg, cfg.surgery_iters))
    if data.stream_fraction is None:
        result = train_surgery(
            merged, experts, spec, inputs, *settings, rank=cfg.surgery_rank
        )
    else:
        result = stream_train_surgery(
            merged, experts, spec, inputs, data.stream_fraction, *settings,
            rank=cfg.surgery_rank,
        )
    _save(result.stack.params, run_dir, "surgery")
    info = (
        f"mode = {result.stack.mode.label}\n"
        f"psi = {cfg.surgery_psi.value}\n"
        f"rank = {cfg.surgery_rank}\n"
        f"data = {data}\n"
    )
    (run_dir / "surgery_info.txt").write_text(info, encoding="utf-8")
    return result


def _beside(stage, *args):
    """Start ``stage(*args)`` in a forked child that dies with the caller;
    the returned ``wait()`` gives the stage's result or raises its error.
    With a worker cap of 1 or no ``fork``, ``wait()`` runs the stage inline
    instead, so both modes fail at the same point."""
    if worker_count() == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return functools.partial(stage, *args)

    def side(send):
        # Ctrl-C aborts the caller, which still waits for this stage.  The
        # caller's sentinel closes when it dies: exit then, even mid-write.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        parent = multiprocessing.parent_process()
        threading.Thread(target=lambda: (parent.join(), os._exit(1)), daemon=True).start()
        try:
            send.send((stage(*args), None))
        except Exception as exc:
            send.send((None, exc))

    receive, send = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.get_context("fork").Process(target=side, args=(send,))
    # Blocked across the fork, SIGINT cannot kill the child before side() ignores it.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        child.start()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    send.close()

    def wait():
        try:
            result, error = receive.recv()
        except EOFError:
            result, error = None, ChildProcessError(f"{stage.__name__} died without an answer")
        child.join()
        if error is not None:
            raise error
        return result

    return wait


def _write_manifest(run_dir: Path, cfg: RunConfig) -> Path:
    lines = ["# merge-surgeon run manifest"]
    for line in cfg.to_text().splitlines():
        lines.append(f"config.{line}")
    for path in sorted(run_dir.rglob("*")):
        if not path.is_file() or path.name == "manifest.txt":
            continue
        with path.open("rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        lines.append(f"file.{path.relative_to(run_dir).as_posix()} = {digest}")
    manifest = run_dir / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


# glibc's mallopt parameter for the number of malloc arenas (malloc.h).
_M_ARENA_MAX = -8


def _one_malloc_arena():
    """Cap glibc's malloc arenas at one, so the eval pool's threads
    allocate from the main heap instead of each keeping an arena of its
    own, which held tens of MB after the scale grid.  Where ``libc.so.6``
    or its ``mallopt`` is missing, nothing changes."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


@click.group()
def main():
    """Merge expert models, measure representation bias, repair it."""
    # Before any command starts a thread or forks; the library leaves the
    # allocator alone.
    _one_malloc_arena()


_config_option = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), default=None,
    help="Flat key = value config file; flags override it.",
)
_run_dir_option = click.option(
    "--run-dir", type=click.Path(file_okay=False), default="run", show_default=True
)


def _command(name: str):
    """Register a subcommand that takes --config and --run-dir and ends a
    domain error with a one-line message."""

    def register(fn):
        return main.command(name=name)(_config_option(_run_dir_option(_wrap_errors(fn))))

    return register


@_command("gen")
@click.option("--seed", default=None)
@click.option("--tasks", default=None)
@click.option("--dim", default=None)
@click.option("--classes", default=None)
@click.option("--n-train", default=None)
@click.option("--n-test", default=None)
def gen(config, run_dir, seed, tasks, dim, classes, n_train, n_test):
    """Generate the task suite and export it as CSV files."""
    cfg, run_dir, suite, _ = _setup(
        config, run_dir, seed=seed, tasks=tasks, dim=dim, classes=classes,
        n_train=n_train, n_test=n_test,
    )
    _gen_step(cfg, run_dir, suite)
    click.echo(f"wrote suite ({cfg.tasks} tasks) under {run_dir / 'suite'}")


@_command("pretrain")
def pretrain_cmd(config, run_dir):
    """Train the shared backbone on the task-agnostic mixture."""
    cfg, run_dir, suite, spec = _setup(config, run_dir)
    result = _pretrain_step(cfg, run_dir, suite, spec)
    click.echo(
        f"pretrained backbone saved (loss {result.losses[0]:.4f} -> {result.losses[-1]:.4f})"
    )


@_command("finetune")
@click.option("--task", type=int, required=True, help="0-based task index.")
def finetune(config, run_dir, task):
    """Fine-tune one expert from the pretrained backbone."""
    cfg, run_dir, suite, spec = _setup(config, run_dir)
    if not 0 <= task < cfg.tasks:
        raise ConfigError(f"--task {task} is out of range for {cfg.tasks} tasks")
    pretrained = load_paramset(_checkpoint(run_dir, "pretrained"))
    (result,) = _finetune_step(cfg, run_dir, suite, spec, pretrained, [task])
    click.echo(
        f"expert {task} saved (loss {result.losses[0]:.4f} -> {result.losses[-1]:.4f})"
    )


@_command("merge")
@click.option("--algo", default=None, help="avg, ta, ties, or ada.")
@click.option("--lambda", "scale", default=None, help="Merging scale, or 'grid'.")
@click.option("--keep", default=None, help="Ties keep fraction in (0, 1].")
@click.option("--seed", default=None)
def merge(config, run_dir, algo, scale, keep, seed):
    """Merge the expert checkpoints into one backbone."""
    cfg, run_dir, suite, spec = _setup(
        config, run_dir, merge_algo=algo, merge_scale=scale, ties_keep=keep, seed=seed
    )
    pretrained = load_paramset(_checkpoint(run_dir, "pretrained"))
    experts = _load_experts(run_dir, cfg)
    _, recipe = _merge_step(cfg, run_dir, suite, spec, pretrained, experts)
    click.echo(f"merged with {recipe.algorithm}" + (
        f" (scale {recipe.scale:g})" if recipe.scale is not None else ""
    ))


@_command("bias")
@click.option("--psi", default=None, help="l1, mse, or cos.")
@click.option(
    "--surgery", "stack_path", type=click.Path(exists=True, dir_okay=False), default=None,
    help="Stack checkpoint; when given, the merged trace is the corrected one.",
)
@click.option("--tag", default=None, help="Suffix for the report file name.")
def bias_cmd(config, run_dir, psi, stack_path, tag):
    """Per-layer, per-task representation bias report plus 2-D projections."""
    cfg, run_dir, suite, spec = _setup(config, run_dir, surgery_psi=psi)
    merged, experts, model_id = _load_merged(run_dir, cfg)
    stack = None if stack_path is None else _load_stack(Path(stack_path), run_dir, cfg, spec)
    report, _ = _bias_step(cfg, run_dir, suite, spec, merged, experts, model_id, stack)
    name = "bias_report.csv" if tag is None else f"bias_report_{tag}.csv"
    (run_dir / name).write_text(report.to_csv_text(), encoding="utf-8")
    click.echo(
        "bias report written; layer-mean profile "
        + " ".join(f"{v:.4f}" for v in report.layer_means())
    )


@_command("surgery")
@click.option("--mode", default=None, help="v1, v2, or block:<l>.")
@click.option("--psi", default=None, help="l1, mse, or cos.")
@click.option("--rank", default=None)
@click.option("--iters", default=None)
@click.option("--data", default=None, help="test, wild:<seed>, or stream:<fraction>.")
def surgery_cmd(config, run_dir, mode, psi, rank, iters, data):
    """Train a task-private adapter stack against the expert representations."""
    cfg, run_dir, suite, spec = _setup(
        config, run_dir, surgery_mode=mode, surgery_psi=psi, surgery_rank=rank,
        surgery_iters=iters, surgery_data=data,
    )
    if cfg.surgery_mode == "none":
        raise SurgeryError("surgery mode 'none' trains nothing")
    merged, experts = load_paramset(_checkpoint(run_dir, "merged")), _load_experts(run_dir, cfg)
    result = _surgery_step(cfg, run_dir, suite, spec, merged, experts)
    click.echo(
        f"surgery stack saved (loss {result.losses[0]:.4f} -> {result.losses[-1]:.4f})"
    )


@_command("eval")
@click.option(
    "--surgery", "stack_path", type=click.Path(exists=True, dir_okay=False), default=None
)
def eval_cmd(config, run_dir, stack_path):
    """Accuracy of the experts, the merged model, and optionally the
    surgery-corrected merged model."""
    cfg, run_dir, suite, spec = _setup(config, run_dir)
    merged, experts, model_id = _load_merged(run_dir, cfg)
    stack = None if stack_path is None else _load_stack(Path(stack_path), run_dir, cfg, spec)
    tests = suite.split("test")
    _, rows = _bias_step(cfg, None, suite, spec, merged, experts, model_id, tests=tests)
    if stack is not None:
        rows.append(evaluate(
            merged, collect_heads(experts, spec), spec, tests, stack, model_id, stack.mode.label
        ))
    (run_dir / "eval_results.csv").write_text(results_table(rows), encoding="utf-8")
    for row in rows:
        click.echo(f"{row.label}: avg {row.average:.4f}")


@_command("report")
def report_cmd(config, run_dir):
    """Assemble the comparison table and bias CSVs into the run directory."""
    cfg, run_dir, suite, spec = _setup(config, run_dir)
    merged, experts, model_id = _load_merged(run_dir, cfg)
    tests = suite.split("test")
    report, rows = _bias_step(cfg, None, suite, spec, merged, experts, model_id, tests=tests)
    reports = [report]
    if _checkpoint(run_dir, "surgery").exists():
        stack = _load_stack(_checkpoint(run_dir, "surgery"), run_dir, cfg, spec)
        corrected, (_, row) = _bias_step(
            cfg, None, suite, spec, merged, experts, model_id, stack, tests
        )
        reports.append(corrected)
        rows.append(row)
    emit_report(rows, reports, run_dir)
    for row in rows:
        click.echo(f"{row.label}: avg {row.average:.4f}")


@_command("pipeline")
def pipeline_cmd(config, run_dir):
    """Full run: gen, pretrain, finetune x T, merge, bias, surgery, eval,
    report, and a manifest of every artifact.  The suite export runs beside
    the training stages, and the merged model's bias step and rows beside
    surgery (see ``_beside``); both are waited for even if a stage fails."""
    cfg, run_dir, suite, spec = _setup(config, run_dir)
    exported = _beside(_gen_step, cfg, run_dir, suite)
    click.echo("suite generated")
    try:
        pretrained = _pretrain_step(cfg, run_dir, suite, spec).params
        click.echo("backbone pretrained")
        results = _finetune_step(cfg, run_dir, suite, spec, pretrained, range(cfg.tasks))
        experts = [result.params for result in results]
        click.echo(f"{cfg.tasks} experts fine-tuned")

        merged, recipe = _merge_step(cfg, run_dir, suite, spec, pretrained, experts)
        click.echo(f"merged with {recipe.algorithm}")
    finally:
        exported()

    inputs = (cfg, run_dir, suite, spec, merged, experts, _MERGED_IDS[recipe.algorithm])
    assessed = _beside(_bias_step, *inputs)
    stack = None
    try:
        if cfg.surgery_mode != "none":
            stack = _surgery_step(cfg, run_dir, suite, spec, merged, experts).stack
    finally:
        report, rows = assessed()
    reports = [report]
    if stack is not None:
        corrected, (_, row) = _bias_step(*inputs, stack)
        reports.append(corrected)
        rows.append(row)
        click.echo("surgery trained")

    emit_report(rows, reports, run_dir)
    for row in rows:
        click.echo(f"{row.label}: avg {row.average:.4f}")
    manifest = _write_manifest(run_dir, cfg)
    click.echo(f"manifest written to {manifest}")


if __name__ == "__main__":
    main()
