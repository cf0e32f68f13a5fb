"""Benchmark of the ``merge-surgeon pipeline`` command.

Runs ``python -m merge_surgeon.cli pipeline`` from this checkout's
``src`` as a child process, closed loop: one pipeline at a time, the next
one spawned after the previous one exits, until ``--seconds`` have passed.
Every run's outputs are checked, its run directory is deleted, and the
medians of the metrics are printed with their units.  With
``--trace 1`` each round is one untraced and one traced pipeline, and the
per-layer metrics come from the traced one's spans (see ``tracer.py``).

    python3 benchmarks/run.py --workload reference --seed 42 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when one failed and 2 when the checkout has
no ``src/merge_surgeon`` to benchmark.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
RESULTS = BENCH_DIR / "results"

# One BLAS thread per process.  MERGE_SURGEON_THREADS stays unset, so the
# eval pool runs its default of cpu_count threads.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
THREADS_ENV = "MERGE_SURGEON_THREADS"
# setup_s is the median of at least this many setups per invocation; setup
# probes make up for pipelines that did not fit in --seconds.
SETUPS_PER_RUN = 3


@dataclass(frozen=True)
class Workload:
    overrides: str  # config lines laid over RunConfig() defaults; {wild} = seed + 1
    # On every seed, surgery must bring the merged model to within this
    # much of the experts' accuracy; None where it is not expected to.
    surgery_gap: float | None = None


WORKLOADS = {
    "reference": Workload(
        overrides="",
        surgery_gap=0.1,
    ),
    "stream_large": Workload(
        overrides="n_test = 24000\nsurgery_data = stream:1.0\nsurgery_psi = mse\n",
        surgery_gap=0.1,
    ),
    "ada_wild": Workload(
        overrides=(
            "pretrain_iters = 4000\nfinetune_iters = 3000\nmerge_algo = ada\n"
            "ada_iters = 4000\nsurgery_mode = v1\nsurgery_data = wild:{wild}\n"
            "surgery_iters = 3000\n"
        ),
    ),
}

# Accuracies (individual, merged, merged+surgery) on the golden seed; a
# run on that seed must reproduce them to within half an accuracy point.
GOLDEN_SEED = 42
GOLDEN_TOLERANCE = 0.005
GOLDENS = {
    "reference": (0.9190, 0.4389, 0.9011),
    "stream_large": (0.9184, 0.4249, 0.8818),
    "ada_wild": (0.9280, 0.2483, 0.2624),
}

# (stage metric in seconds, artifact whose mtime ends the stage); each
# stage starts where the previous one ended, the first at the child's spawn.
STAGES = (
    ("setup_s", "model_spec.cfg"),
    ("train_s", "checkpoints/expert_{last}.msrg"),
    ("merge_s", "checkpoints/merged.msrg"),
    ("surgery_s", "checkpoints/surgery.msrg"),
    ("report_s", "manifest.txt"),
)
ACCURACIES = ("acc_individual", "acc_merged", "acc_surgery")
# The result line of --trace 0.  The stages after setup go in the result
# line of --trace 1 instead, taken from its untraced pipelines: on a host
# whose speed drifts, sub-second stages spread 20-40% across runs, more
# than any bound allows.  Across seeds the merged accuracy spans 0.26 to
# 0.44 and ada_wild's surgery accuracy sits near chance, so both are
# checked rather than bounded; the error rate is 0 when all is well.
E2E_UNITS = {
    "pipeline_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "acc_individual": "fraction",
}
STAGE_UNITS = {name: "s" for name, _ in STAGES[1:]}
REPORTED_UNITS = {**E2E_UNITS, **STAGE_UNITS, "acc_merged": "fraction",
                  "acc_surgery": "fraction", "error_rate": "fraction"}


@dataclass
class Run:
    """One pipeline child: its metrics, manifest and the first failed check."""

    metrics: dict[str, float] = field(default_factory=dict)
    manifest: bytes = b""
    error: str | None = None


def config_text(workload: str, seed: int) -> str:
    overrides = WORKLOADS[workload].overrides.format(wild=seed + 1)
    return f"seed = {seed}\n{overrides}"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PIN)
    env.pop(THREADS_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pin": THREAD_PIN,
        THREADS_ENV: "unset",
    }


def spawn(argv: list[str], run_dir: Path) -> tuple[int, float, int, float]:
    """Run one child to exit; returns (exit code, seconds, spawn time in
    ns since the epoch, peak RSS in MB of that child alone)."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    with open(run_dir.with_suffix(".stderr"), "wb") as stderr:
        spawn_ns = time.time_ns()
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=stderr
        )
        try:
            # wait4 gives this child's own maximum RSS; RUSAGE_CHILDREN
            # would carry the largest child so far into every later run.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, spawn_ns, usage.ru_maxrss / 1024.0


def read_accuracies(run_dir: Path) -> dict[str, float]:
    with open(run_dir / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    labels = [row["method"] for row in rows]
    if len(rows) != 3 or labels[0] != "individual" or not labels[1].startswith("merged_") \
            or not labels[2].startswith(labels[1] + "+"):
        raise ValueError(f"results.csv rows are {labels}, expected individual, merged, "
                         "merged+surgery")
    values = {name: float(row["avg"]) for name, row in zip(ACCURACIES, rows)}
    if not all(0.0 <= v <= 1.0 for v in values.values()):
        raise ValueError(f"accuracies out of [0, 1]: {values}")
    return values


def check_run(workload: str, seed: int, tasks: int, code: int, elapsed: float,
              spawn_ns: int, rss_mb: float, run_dir: Path) -> Run:
    run = Run(metrics={"pipeline_s": elapsed})
    if code != 0:
        tail = run_dir.with_suffix(".stderr").read_text(errors="replace")[-2000:]
        run.error = f"pipeline exited {code}: {tail}"
        return run
    try:
        previous = spawn_ns
        for name, artifact in STAGES:
            mtime = (run_dir / artifact.format(last=tasks - 1)).stat().st_mtime_ns
            run.metrics[name] = max(mtime - previous, 0) / 1e9
            previous = max(mtime, previous)
        run.metrics["peak_rss_mb"] = rss_mb
        run.metrics.update(read_accuracies(run_dir))
        run.manifest = (run_dir / "manifest.txt").read_bytes()
    except (OSError, ValueError, KeyError) as exc:
        run.error = f"output check failed: {exc}"
        return run
    gap = WORKLOADS[workload].surgery_gap
    if gap is not None and run.metrics["acc_individual"] - run.metrics["acc_surgery"] > gap:
        run.error = (f"surgery reached {run.metrics['acc_surgery']:.4f}, more than {gap} "
                     f"below the experts' {run.metrics['acc_individual']:.4f}")
    if seed == GOLDEN_SEED and workload in GOLDENS:
        for name, golden in zip(ACCURACIES, GOLDENS[workload]):
            if abs(run.metrics[name] - golden) > GOLDEN_TOLERANCE:
                run.error = f"{name} = {run.metrics[name]:.4f}, golden {golden:.4f}"
    return run


def pipeline_argv(cfg: Path, run_dir: Path, spans: Path | None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "merge_surgeon.cli", "pipeline",
                "--config", str(cfg), "--run-dir", str(run_dir)]
    return [sys.executable, str(BENCH_DIR / "tracer.py"), "--config", str(cfg),
            "--run-dir", str(run_dir), "--spans", str(spans)]


def run_once(workload: str, seed: int, tasks: int, cfg: Path, spans: Path | None) -> Run:
    run_dir = cfg.parent / ("traced" if spans else "run")
    code, elapsed, spawn_ns, rss_mb = spawn(pipeline_argv(cfg, run_dir, spans), run_dir)
    try:
        return check_run(workload, seed, tasks, code, elapsed, spawn_ns, rss_mb, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.with_suffix(".stderr").unlink(missing_ok=True)


def setup_probe(cfg: Path) -> Run:
    """Spawn a pipeline, time its setup stage, and kill it once that stage
    has written ``model_spec.cfg``."""
    run_dir = cfg.parent / "setup"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    marker = run_dir / "model_spec.cfg"
    run = Run()
    try:
        with open(run_dir.with_suffix(".stderr"), "wb") as stderr:
            spawn_ns = time.time_ns()
            proc = subprocess.Popen(pipeline_argv(cfg, run_dir, None), cwd=ROOT,
                                    env=child_env(), stdout=subprocess.DEVNULL, stderr=stderr)
            try:
                while proc.poll() is None and not (marker.exists() and marker.stat().st_size):
                    time.sleep(0.005)
            finally:
                proc.kill()
                proc.wait()
        if marker.exists() and marker.stat().st_size:
            run.metrics["setup_s"] = (marker.stat().st_mtime_ns - spawn_ns) / 1e9
        else:
            tail = run_dir.with_suffix(".stderr").read_text(errors="replace")[-2000:]
            run.error = f"pipeline exited {proc.returncode} before its setup finished: {tail}"
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.with_suffix(".stderr").unlink(missing_ok=True)
    return run


def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: int) -> int:
    """Closed-loop runs of one workload; prints the metrics and the result
    line, writes the run record, and returns the exit code."""
    from merge_surgeon.config import RunConfig, load_config_file

    import tracer

    # Run directories of one invocation, apart from any other in the checkout.
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cfg = work / "run.cfg"
    cfg.write_text(config_text(workload, seed), encoding="utf-8")
    tasks = RunConfig.from_sources(load_config_file(cfg)).tasks

    runs: list[Run] = []
    traced: list[Run] = []
    layer_samples: dict[str, list[float]] = {}
    layer_units: dict[str, str] = {}
    absent: set[str] = set()
    try:
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds:
            runs.append(run_once(workload, seed, tasks, cfg, None))
            if trace:
                spans_path = RESULTS / f"spans-{workload}-seed{seed}.npz"
                traced.append(run_once(workload, seed, tasks, cfg, spans_path))
                if traced[-1].error is None:
                    metrics, missing = tracer.layer_metrics(tracer.Spans(spans_path))
                    absent.update(missing)
                    for name, (value, unit) in metrics.items():
                        layer_samples.setdefault(name, []).append(value)
                        layer_units[name] = unit
        probes = [setup_probe(cfg) for _ in range(SETUPS_PER_RUN - len(runs))]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everything = runs + traced + probes
    first_manifest = next((r.manifest for r in runs + traced if r.error is None), b"")
    for run in runs + traced:
        if run.error is None and run.manifest != first_manifest:
            run.error = "manifest.txt differs from the first run of this set"
    ok = [r for r in runs if r.error is None]
    failed = sum(r.error is not None for r in everything)
    reported = {name: median([r.metrics[name] for r in ok]) for name in REPORTED_UNITS
                if name != "error_rate"}
    reported["setup_s"] = median([r.metrics["setup_s"] for r in ok + probes
                                  if r.error is None])
    reported["error_rate"] = failed / len(everything)

    if trace:
        layer = {name: (median(v), layer_units[name]) for name, v in layer_samples.items()}
        traced_ok = [r.metrics["pipeline_s"] for r in traced if r.error is None]
        layer["trace.overhead_s"] = (
            median(traced_ok) - median([r.metrics["pipeline_s"] for r in ok]) if traced_ok and ok else 0.0,
            "s",
        )
        layer.update({name: (reported[name], unit) for name, unit in STAGE_UNITS.items()})
        result_metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        result_metrics = {name: {"value": reported[name], "unit": unit}
                          for name, unit in E2E_UNITS.items()}

    for name, unit in REPORTED_UNITS.items():
        print(f"{workload:13s} {name:16s} {reported[name]:12.6g} {unit}")
    for name in sorted(absent):
        print(f"{workload:13s} {name} absent: a traced function or parameter is gone")
    for run in everything:
        if run.error is not None:
            print(f"{workload:13s} FAILED: {run.error}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": result_metrics,
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reasons = {w["name"]: w["why"] for w in spec["workloads"]}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": config_text(workload, seed),
        "why": reasons.get(workload),
        "environment": environment(),
        "runs": [{"kind": kind, "metrics": r.metrics,
                  "error": r.error}
                 for kind, group in (("pipeline", runs), ("traced", traced), ("setup", probes))
                 for r in group],
        "reported": {name: {"value": reported[name], "unit": unit}
                     for name, unit in REPORTED_UNITS.items()},
        "absent": sorted(absent),
        "result": result,
    }
    out = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "merge_surgeon" / "cli.py").is_file():
        print(f"no merge_surgeon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    codes = [measure(w, args.seed, args.seconds, args.trace) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    raise SystemExit(main())
