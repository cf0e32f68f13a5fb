"""The names the benchmark tracer reads from the package still exist.

``benchmarks/tracer.py`` wraps public functions by name and reports a
per-layer metric as absent when its function is gone, so a rename in
``src/`` would otherwise pass every test and only show up as an absent
metric in a benchmark run.  The check runs in a subprocess because
``instrument`` patches the imported package; ``-B`` keeps it from
writing bytecode into ``benchmarks/``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHECK = """
import importlib, inspect, sys, tempfile
from pathlib import Path

import tracer

t = tracer.Tracer()
tracer.instrument(t)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "spans.npz"
    t.save(path)
    _, absent = tracer.layer_metrics(tracer.Spans(path))
print("absent", sorted(absent))
for name, (params, _) in sorted(tracer.COUNTERS.items()):
    module, _, attr = name.partition(".")
    fn = getattr(importlib.import_module(f"{tracer.PACKAGE}.{module}"), attr, None)
    missing = None if fn is None else [
        p for p in params if p not in inspect.signature(fn).parameters
    ]
    print("counter", name, "missing" if fn is None else f"lacks {missing}" if missing else "ok")
"""


def test_tracer_finds_every_metric_function():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmarks"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHECK], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # With no spans only the two ratios divide by zero; every other metric
    # is absent only if a function it reads is gone.
    assert lines[0] == "absent ['surgery.samples_per_s', 'surgery.target_recompute_ratio']"
    counters = lines[1:]
    assert counters and all(line.endswith(" ok") for line in counters), counters
