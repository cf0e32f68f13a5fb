"""Self-test of the benchmark harness on a tiny config; takes a few seconds.

    python3 benchmarks/selftest.py

It runs the harness end to end, untraced and traced, on a config small
enough to finish in seconds, and checks that the result line names every
metric of BENCHMARK.json with its unit, that the stage metrics add up to
``pipeline_s`` apart from process exit, and that the traced run reports
every per-layer metric with none absent.  It is a script, not a test
module, so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY = run.Workload(
    overrides=(
        "n_train = 300\nn_test = 100\npretrain_iters = 40\nfinetune_iters = 40\n"
        "scale_grid = 0.0,0.5,1.0\nsurgery_iters = 40\n"
    ),
)
# Process exit and interpreter teardown after manifest.txt is written.
EXIT_ALLOWANCE_S = 0.5


def harness(trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "tiny", "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    if code != 0 or not result["correct"] or result["failed"]:
        raise SystemExit(f"trace {trace}: harness reported a failure: {lines[-1]}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"trace {trace}: result keys are {sorted(result)}")
    return result


def check_units(result: dict, declared: list[dict], trace: int) -> None:
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        raise SystemExit(f"trace {trace}: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            raise SystemExit(f"trace {trace}: {name} is not a number")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.WORKLOADS["tiny"] = TINY

    plain = harness(trace=0)
    check_units(plain, spec["end_to_end"], trace=0)
    record = json.loads((run.RESULTS / "tiny-seed7-trace0.json").read_text(encoding="utf-8"))
    for sample in record["runs"]:
        if sample["kind"] != "pipeline":
            continue
        metrics = sample["metrics"]
        stages = sum(metrics[name] for name, _ in run.STAGES)
        gap = metrics["pipeline_s"] - stages
        if not 0 <= gap <= EXIT_ALLOWANCE_S:
            raise SystemExit(f"stages sum to {stages:.3f} s, pipeline_s is "
                             f"{metrics['pipeline_s']:.3f} s")
        print(f"stages sum to {stages:.3f} s of pipeline_s {metrics['pipeline_s']:.3f} s")

    traced = harness(trace=1)
    check_units(traced, spec["per_layer"], trace=1)
    record = json.loads((run.RESULTS / "tiny-seed7-trace1.json").read_text(encoding="utf-8"))
    if record["absent"]:
        raise SystemExit(f"absent per-layer metrics: {record['absent']}")
    for name in ("network.forward_layers.calls", "surgery.target_forward.calls",
                 "evaluation.worker_busy_s", "cli.pipeline.s"):
        if not traced["metrics"][name]["value"] > 0:
            raise SystemExit(f"{name} is {traced['metrics'][name]['value']}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
