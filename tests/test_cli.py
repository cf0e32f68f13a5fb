"""Command-line surface: subcommand contracts on a small configuration."""

import functools
import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from merge_surgeon import cli, evaluation, surgery
from merge_surgeon.bias import pca_project
from merge_surgeon.checkpoint import MAGIC, load_paramset, save_paramset
from merge_surgeon.cli import main
from merge_surgeon.config import RunConfig, parse_config_text
from merge_surgeon.datasets import gen_task_suite
from merge_surgeon.evaluation import EvalResult, collect_heads, evaluate
from merge_surgeon.merging import ties_merge
from merge_surgeon.network import ModelSpec
from merge_surgeon.surgery import ALL_LAYERS, init_stack
from merge_surgeon.tensors import ParamSet

TINY_CFG = """\
seed = 7
tasks = 2
dim = 4
classes = 3
n_train = 60
n_test = 50
hidden_dims = 8,8,6
pretrain_iters = 60
finetune_iters = 60
ada_iters = 10
merge_algo = ta
merge_scale = 0.3
surgery_mode = v2
surgery_iters = 40
surgery_rank = 4
"""


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """Config path and run directory of one finished TINY_CFG pipeline;
    tests copy the directory before writing into it."""
    root = tmp_path_factory.mktemp("pipeline")
    config = root / "tiny.cfg"
    config.write_text(TINY_CFG)
    run_dir = root / "run"
    result = invoke(CliRunner(), ["pipeline", "--config", str(config), "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    return config, run_dir


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


class TestHelp:
    @pytest.mark.parametrize(
        "command",
        ["gen", "pretrain", "finetune", "merge", "bias", "surgery", "eval", "report", "pipeline"],
    )
    def test_every_subcommand_has_help(self, runner, command):
        result = invoke(runner, [command, "--help"])
        assert result.exit_code == 0
        assert "Usage" in result.output


class TestErrors:
    def test_unknown_algorithm_is_one_line_error(self, runner, tmp_path):
        result = runner.invoke(main, ["merge", "--algo", "bogus", "--run-dir", str(tmp_path)])
        assert result.exit_code != 0
        assert "unknown algorithm" in result.output
        error_lines = [l for l in result.output.strip().splitlines() if l]
        assert len(error_lines) == 1

    def test_unknown_subcommand(self, runner):
        result = runner.invoke(main, ["frobnicate"])
        assert result.exit_code != 0

    def test_finetune_task_out_of_range(self, runner, pipeline_run):
        config, run_dir = pipeline_run
        result = invoke(
            runner,
            ["finetune", "--config", str(config), "--run-dir", str(run_dir), "--task", "9"],
        )
        assert result.exit_code != 0
        assert "--task 9 is out of range for 2 tasks" in result.output

    @pytest.mark.parametrize("command", ["eval", "report"])
    def test_stack_missing_a_task_is_rejected(self, runner, pipeline_run, tmp_path, command):
        config, piped = pipeline_run
        run_dir = tmp_path / "run"
        shutil.copytree(piped, run_dir)
        stack_file = run_dir / "checkpoints" / "surgery.msrg"
        one_task = init_stack(ModelSpec(4, (8, 8, 6), (3,)), 1, ALL_LAYERS, rank=4, seed=0)
        save_paramset(one_task.params, stack_file)
        args = [command, "--config", str(config), "--run-dir", str(run_dir)]
        if command == "eval":
            args += ["--surgery", str(stack_file)]
        result = invoke(runner, args)
        assert result.exit_code != 0
        assert result.output.strip().splitlines() == [
            "Error: task 1 is missing adapters for (1, 2, 3)"
        ]

    def test_malformed_stack_entry_is_one_line_error(self, runner, pipeline_run, tmp_path):
        config, run_dir = pipeline_run
        bad = tmp_path / "bad.msrg"
        save_paramset(ParamSet([("surgery.x.1.down", np.zeros((4, 8)))]), bad)
        result = invoke(
            runner, ["eval", "--config", str(config), "--run-dir", str(run_dir), "--surgery", str(bad)]
        )
        assert result.exit_code != 0
        assert result.output.strip().splitlines() == [
            "Error: unexpected stack entry 'surgery.x.1.down' "
            "(expected surgery.<task>.<layer>.down|up)"
        ]

    def test_stack_with_an_extra_task_is_rejected(self, runner, pipeline_run, tmp_path):
        config, piped = pipeline_run
        run_dir = tmp_path / "run"
        shutil.copytree(piped, run_dir)
        stack_file = run_dir / "checkpoints" / "surgery.msrg"
        three_tasks = init_stack(ModelSpec(4, (8, 8, 6), (3,)), 3, ALL_LAYERS, rank=4, seed=0)
        save_paramset(three_tasks.params, stack_file)
        result = invoke(runner, ["report", "--config", str(config), "--run-dir", str(run_dir)])
        assert result.exit_code != 0
        assert result.output.strip().splitlines() == [
            "Error: stack holds tasks [2] outside the run's 2 tasks"
        ]

    def test_diverging_joint_fine_tune_saves_no_expert(self, runner, tmp_path):
        # One pretraining step at learning rate 1e35 leaves weights near
        # 1e35, which overflow the experts' first forward through twelve
        # blocks; the pretraining loss itself, at the initial weights, is
        # finite.
        config = tmp_path / "diverge.cfg"
        config.write_text(
            TINY_CFG.replace("hidden_dims = 8,8,6", "hidden_dims = " + ",".join(["8"] * 12))
            .replace("pretrain_iters = 60", "pretrain_iters = 1")
            + "train_lr = 1e35\n"
        )
        run_dir = tmp_path / "run"
        with warnings.catch_warnings():  # no numpy overflow warning either
            warnings.simplefilter("error")
            result = runner.invoke(
                main, ["pipeline", "--config", str(config), "--run-dir", str(run_dir)]
            )
        assert result.exit_code == 1
        errors = [line for line in result.output.splitlines() if line.startswith("Error")]
        assert errors == ["Error: non-finite training loss at iteration 1 (task 0)"]
        assert "Traceback" not in result.output
        assert [p.name for p in (run_dir / "checkpoints").iterdir()] == ["pretrained.msrg"]

    def test_diverging_ada_merge_is_one_line_error(self, runner, pipeline_run, tmp_path):
        config, piped = pipeline_run
        run_dir = tmp_path / "run"
        shutil.copytree(piped, run_dir)
        merged = (run_dir / "checkpoints" / "merged.msrg").read_bytes()
        diverging = tmp_path / "diverge.cfg"
        diverging.write_text(TINY_CFG + "train_lr = 1e200\n")
        with warnings.catch_warnings():  # no numpy overflow warning either
            warnings.simplefilter("error")
            result = runner.invoke(
                main, ["merge", "--config", str(diverging), "--run-dir", str(run_dir),
                       "--algo", "ada"],
            )
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            "Error: non-finite entropy at iteration 2"
        ]
        assert (run_dir / "checkpoints" / "merged.msrg").read_bytes() == merged

    def test_negative_seed_is_one_line_error(self, runner, tmp_path):
        result = runner.invoke(main, ["gen", "--seed", "-1", "--run-dir", str(tmp_path)])
        assert result.exit_code != 0
        assert result.output.strip().splitlines() == ["Error: seed must be >= 0, got -1"]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("hidden_dims", "8,1"),
            ("merge_scale", "nan"),
            ("scale_grid", "0.1,nan"),
            ("scale_grid", "inf"),
            ("train_lr", "nan"),
        ],
    )
    def test_bad_config_fails_before_any_artifact(self, runner, tmp_path, key, value):
        values = parse_config_text(TINY_CFG)
        values[key] = value
        if key == "scale_grid":
            values["merge_scale"] = "grid"
        config = tmp_path / "bad.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        run_dir = tmp_path / "run"
        result = runner.invoke(
            main, ["pipeline", "--config", str(config), "--run-dir", str(run_dir)]
        )
        assert result.exit_code == 1
        (line,) = result.output.strip().splitlines()
        assert line.startswith(f"Error: {key} = {value}: ")
        assert not run_dir.exists()

    @pytest.mark.parametrize("algo", ["ta", "ties"])
    @pytest.mark.parametrize("grid", [False, True])
    def test_overflowing_merge_scale_is_one_error_line(self, runner, tmp_path, algo, grid):
        # 1e40 is a finite scale, but the merged weights overflow float32.
        values = parse_config_text(TINY_CFG)
        values["merge_algo"] = algo
        if grid:
            values["merge_scale"], values["scale_grid"] = "grid", "0.3,1e40"
        else:
            values["merge_scale"] = "1e40"
        config = tmp_path / "big.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(
                main, ["pipeline", "--config", str(config), "--run-dir", str(tmp_path / "run")]
            )
        assert result.exit_code == 1
        lines = result.output.strip().splitlines()
        assert lines[-1] == "Error: scale 1e+40: the merged weights overflow float32"
        assert not any("Warning" in line for line in lines)

    @pytest.mark.parametrize("scale", ["1e20", "1e36"])
    def test_overflowing_representations_are_one_error_line(self, runner, tmp_path, scale):
        # The merged weights fit float32, but the traces they produce do not.
        values = parse_config_text(TINY_CFG)
        values["merge_scale"] = scale
        config = tmp_path / "big.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(
                main, ["pipeline", "--config", str(config), "--run-dir", str(tmp_path / "run")]
            )
        assert result.exit_code == 1
        errors = [line for line in result.output.splitlines() if line.startswith("Error")]
        assert errors == ["Error: task 0: layer 2 representations overflow float32"]
        assert "Warning" not in result.output

    def test_non_utf8_config_is_one_line_error(self, runner, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"seed = 7\ntasks = \xff\n")
        result = runner.invoke(main, ["gen", "--config", str(bad), "--run-dir", str(tmp_path)])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [f"Error: {bad}: byte 17 is not UTF-8"]

    def test_non_utf8_surgery_info_is_one_line_error(self, runner, pipeline_run, tmp_path):
        config, piped = pipeline_run
        run_dir = tmp_path / "run"
        shutil.copytree(piped, run_dir)
        info = run_dir / "surgery_info.txt"
        info.write_bytes(b"mode = v2\xff\n")
        stack_file = run_dir / "checkpoints" / "surgery.msrg"
        result = runner.invoke(
            main,
            ["eval", "--config", str(config), "--run-dir", str(run_dir),
             "--surgery", str(stack_file)],
        )
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [f"Error: {info}: byte 9 is not UTF-8"]

    def test_malformed_checkpoint_header_is_one_line_error(self, runner, pipeline_run, tmp_path):
        config, run_dir = pipeline_run
        bad = tmp_path / "bad.msrg"
        header = json.dumps({"tensors": 5}).encode()
        bad.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header)
        result = runner.invoke(
            main, ["eval", "--config", str(config), "--run-dir", str(run_dir), "--surgery", str(bad)]
        )
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            f"Error: {bad}: 'tensors' must be a list of objects"
        ]

    def test_surgery_info_directory_is_one_line_error(self, runner, pipeline_run, tmp_path):
        config, piped = pipeline_run
        run_dir = tmp_path / "run"
        shutil.copytree(piped, run_dir)
        info = run_dir / "surgery_info.txt"
        info.unlink()
        info.mkdir()
        stack_file = run_dir / "checkpoints" / "surgery.msrg"
        result = runner.invoke(
            main,
            ["eval", "--config", str(config), "--run-dir", str(run_dir),
             "--surgery", str(stack_file)],
        )
        assert result.exit_code == 1
        (line,) = result.output.strip().splitlines()
        assert line.startswith("Error: ") and str(info) in line

    @pytest.mark.parametrize(
        "command, flag, key",
        [
            ("gen", "--seed", "seed"),
            ("gen", "--tasks", "tasks"),
            ("gen", "--dim", "dim"),
            ("gen", "--classes", "classes"),
            ("gen", "--n-train", "n_train"),
            ("gen", "--n-test", "n_test"),
            ("merge", "--keep", "ties_keep"),
            ("merge", "--seed", "seed"),
            ("surgery", "--rank", "surgery_rank"),
            ("surgery", "--iters", "surgery_iters"),
        ],
    )
    def test_bad_flag_value_is_the_config_file_error(
        self, runner, tiny_config, tmp_path, command, flag, key
    ):
        values = parse_config_text(TINY_CFG)
        values[key] = "abc"
        bad = tmp_path / "bad.cfg"
        bad.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        run_dir = str(tmp_path / "run")
        from_file = runner.invoke(main, [command, "--config", str(bad), "--run-dir", run_dir])
        from_flag = runner.invoke(
            main, [command, "--config", str(tiny_config), "--run-dir", run_dir, flag, "abc"]
        )
        for result in (from_file, from_flag):
            assert result.exit_code == 1
            (line,) = result.output.strip().splitlines()
            assert line.startswith(f"Error: {key} = abc: ")
        assert from_flag.output == from_file.output

    def test_bad_config_value(self, runner, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("classes = one\n")
        result = runner.invoke(main, ["gen", "--config", str(bad), "--run-dir", str(tmp_path)])
        assert result.exit_code != 0
        assert "classes" in result.output

    @pytest.mark.parametrize(
        "command", [["eval"], ["merge", "--algo", "ta", "--lambda", "grid"]], ids=["eval", "merge"]
    )
    @pytest.mark.parametrize("bias", [np.zeros(4), np.zeros((3, 1))], ids=["one_off", "column"])
    def test_head_bias_that_does_not_fit_is_one_line_error(
        self, runner, pipeline_run, tmp_path, command, bias
    ):
        config, run_dir = damaged_run(
            pipeline_run, tmp_path, "expert_0", "head.0.bias", lambda _: [("head.0.bias", bias)]
        )
        result = runner.invoke(main, [*command, "--config", str(config), "--run-dir", run_dir])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            f"Error: expert 0 head: weight (3, 6) and bias {bias.shape}, expected (3, 6) and (3,)"
        ]

    def test_head_with_a_class_the_run_does_not_have_is_one_line_error(
        self, runner, pipeline_run, tmp_path
    ):
        # A fourth row whose bias of 100 wins every argmax: eval would
        # predict class 3, which no label holds, and score task 0 near 0.
        config, piped = pipeline_run
        run_dir = tmp_path / "run"
        shutil.copytree(piped, run_dir, ignore=shutil.ignore_patterns("*.csv"))
        path = cli._checkpoint(run_dir, "expert_0")
        fourth = {"head.0.weight": 10 * np.ones((1, 6)), "head.0.bias": [100.0]}
        save_paramset(ParamSet(
            (name, np.concatenate([value, fourth[name]]) if name in fourth else value)
            for name, value in load_paramset(path).items()
        ), path)
        result = runner.invoke(main, ["eval", "--config", str(config), "--run-dir", str(run_dir)])
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            "Error: expert 0 head: weight (4, 6) and bias (4,), expected (3, 6) and (3,)"
        ]

    def test_ada_merge_of_an_expert_without_its_head_is_one_line_error(
        self, runner, pipeline_run, tmp_path
    ):
        config, run_dir = damaged_run(
            pipeline_run, tmp_path, "expert_0", "head.0.weight", lambda _: []
        )
        result = runner.invoke(
            main, ["merge", "--algo", "ada", "--config", str(config), "--run-dir", run_dir]
        )
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            "Error: expert 0 is missing 'head.0.weight'"
        ]

    def test_ada_merge_of_a_head_of_another_width_is_one_line_error(
        self, runner, pipeline_run, tmp_path
    ):
        config, run_dir = damaged_run(
            pipeline_run, tmp_path, "expert_0", "head.0.weight",
            lambda _: [("head.0.weight", np.zeros((3, 7)))],
        )
        result = runner.invoke(
            main, ["merge", "--algo", "ada", "--config", str(config), "--run-dir", run_dir]
        )
        assert result.exit_code == 1
        assert result.output.strip().splitlines() == [
            "Error: expert 0 head: weight (3, 7) and bias (3,), expected (3, 6) and (3,)"
        ]


def damaged_run(pipeline_run, tmp_path, checkpoint, entry, damage):
    """The config and a copy of the finished run in which ``checkpoint``
    holds the entries ``damage(value)`` in place of ``entry``.  The copy
    leaves out the CSV files, which no command reads."""
    config, piped = pipeline_run
    run_dir = tmp_path / "run"
    shutil.copytree(piped, run_dir, ignore=shutil.ignore_patterns("*.csv"))
    path = cli._checkpoint(run_dir, checkpoint)
    entries = []
    for name, value in load_paramset(path).items():
        entries += damage(value) if name == entry else [(name, value)]
    save_paramset(ParamSet(entries), path)
    return config, str(run_dir)


# The commands that read each checkpoint of a TINY_CFG run; a trailing
# --surgery takes the damaged stack file.
_MERGES = [
    ["merge", "--algo", "avg"],
    ["merge", "--algo", "ta", "--lambda", "grid"],
    ["merge", "--algo", "ties", "--lambda", "grid"],
    ["merge", "--algo", "ada"],
]
_READERS = {
    "pretrained": [*_MERGES, ["finetune", "--task", "0"]],
    "expert_0": [*_MERGES, ["bias"], ["eval"], ["report"], ["surgery"]],
    "merged": [["bias"], ["eval"], ["report"], ["surgery"]],
    "surgery": [["bias", "--surgery"], ["eval", "--surgery"], ["report"]],
}
# The damaged entries: a backbone weight and bias, an expert's head, and
# a stack's lowest and highest adapters.
_ENTRIES = {
    "pretrained": ["block1.weight", "block3.bias"],
    "expert_0": ["block2.weight", "head.0.weight", "head.0.bias"],
    "merged": ["block1.weight", "block3.bias"],
    "surgery": ["surgery.0.1.down", "surgery.1.3.up"],
}
_DAMAGES = {
    "drop": lambda name, value: [],
    "rename": lambda name, value: [(name + "x", value)],
    "transpose": lambda name, value: [(name, value.T)],
    "grow_first_axis": lambda name, value: [
        (name, np.ones((value.shape[0] + 1, *value.shape[1:])))
    ],
    "shrink_last_axis": lambda name, value: [
        (name, np.ones((*value.shape[:-1], value.shape[-1] - 1)))
    ],
    "trailing_axis": lambda name, value: [(name, value[..., None])],
    "extra": lambda name, value: [(name, value), ("extra", value)],
}


class TestDamagedCheckpoints:
    @pytest.mark.parametrize("checkpoint, entry, kind, command", [
        pytest.param(checkpoint, entry, kind, command, id="-".join([entry, kind, *command]))
        for checkpoint, entries in _ENTRIES.items()
        for entry in entries
        for kind in _DAMAGES
        if not (kind == "transpose" and entry.endswith("bias"))
        for command in _READERS[checkpoint]
    ])
    def test_every_reader_succeeds_or_fails_in_one_line(
        self, runner, pipeline_run, tmp_path, checkpoint, entry, kind, command
    ):
        config, run_dir = damaged_run(
            pipeline_run, tmp_path, checkpoint, entry, functools.partial(_DAMAGES[kind], entry)
        )
        if command[-1] == "--surgery":
            command = [*command, str(cli._checkpoint(Path(run_dir), checkpoint))]
        result = runner.invoke(main, [*command, "--config", str(config), "--run-dir", run_dir])
        assert not isinstance(result.exception, Exception), result.exc_info
        if result.exit_code != 0:
            assert result.exit_code == 1
            (line,) = result.output.strip().splitlines()
            assert line.startswith("Error: ")


class TestGen:
    def test_writes_suite_csvs(self, runner, tiny_config, tmp_path):
        run_dir = tmp_path / "run"
        result = invoke(
            runner, ["gen", "--config", str(tiny_config), "--run-dir", str(run_dir)]
        )
        assert result.exit_code == 0
        assert (run_dir / "suite" / "task0_train.csv").exists()
        assert (run_dir / "suite" / "task1_test.csv").exists()
        assert (run_dir / "suite" / "mixture.csv").exists()
        assert (run_dir / "config.cfg").exists()

    def test_flags_override_config(self, runner, tiny_config, tmp_path):
        run_dir = tmp_path / "run"
        result = invoke(
            runner,
            ["gen", "--config", str(tiny_config), "--run-dir", str(run_dir), "--tasks", "3"],
        )
        assert result.exit_code == 0
        assert (run_dir / "suite" / "task2_train.csv").exists()


# SHA-256 of every suite CSV that ``gen`` writes for GOLDEN_CFG, recorded
# from the per-row csv.writer export.  The 300-row splits cross a 256-row
# boundary and the 257-row ones end one row past it.
GOLDEN_CFG = """\
seed = 3
tasks = 2
dim = 5
classes = 3
n_train = 300
n_test = 257
"""
GOLDEN_SUITE_SHA256 = {
    "mixture.csv": "cc98305d096ccbbdb39481c2f1fc9262fe9784d80f5ee0dafce287e1826cb784",
    "task0_test.csv": "a3861f6c861939b454cb0d1ff7d3c0da44b48d3b1b4f779af696fb5606b85661",
    "task0_train.csv": "43c8ddde118a08b5437c886645d04e0a6597a26d4d994f16974fcf4ce8b7d268",
    "task0_validation.csv": "0d931a4279cab32aa2055f16f0cca694094aa5cd34408f03009503cfc819bc91",
    "task1_test.csv": "ac9126877032eb52dd02419c04bda41298363a85ff4cc9fb4d765e382b052e85",
    "task1_train.csv": "e09d687b19d6e898040652506858691ca42b14f0bba2fb382c2842e50a74d3ca",
    "task1_validation.csv": "47e168a18c62020c01d5b6a653684a77a6bcbe9947837cc877b0a30f832ac2c5",
}


class TestGenGolden:
    def test_suite_csv_digests(self, runner, tmp_path):
        config = tmp_path / "golden.cfg"
        config.write_text(GOLDEN_CFG)
        run_dir = tmp_path / "run"
        result = invoke(runner, ["gen", "--config", str(config), "--run-dir", str(run_dir)])
        assert result.exit_code == 0, result.output
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (run_dir / "suite").iterdir()
        }
        assert digests == GOLDEN_SUITE_SHA256


def loop_projection_text(merged_final, expert_final):
    """The per-point f-string projection export that the bias step
    replaced: the reference its bytes must match."""
    coords = pca_project(np.concatenate([merged_final, expert_final], axis=1))
    n = merged_final.shape[1]
    lines = ["source,x,y"]
    for i in range(coords.shape[1]):
        source = "merged" if i < n else "expert"
        lines.append(f"{source},{coords[0, i]:.9g},{coords[1, i]:.9g}")
    return "\n".join(lines) + "\n"


class TestBiasStep:
    @pytest.fixture()
    def bias_inputs(self, pipeline_run):
        """The finished run's config, model spec, merged model, experts and
        stack, with a 300-sample test set per task so that a projection
        file crosses the writer's chunk size."""
        config, run_dir = pipeline_run
        cfg, _, _, spec = cli._setup(config, run_dir)
        suite = gen_task_suite(cfg.seed, cfg.tasks, cfg.dim, cfg.classes, cfg.n_train, 300)
        merged, experts = cli._load_merged(run_dir, cfg)
        stack = cli._load_stack(cli._checkpoint(run_dir, "surgery"), run_dir, cfg, spec)
        return cfg, suite, spec, merged, experts, stack

    @pytest.mark.parametrize("with_stack", [False, True])
    def test_traces_each_test_set_once(self, bias_inputs, tmp_path, monkeypatch, with_stack):
        cfg, suite, spec, merged, experts, stack = bias_inputs
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return traced(*args, **kwargs)

        traced = surgery.corrected_forward
        monkeypatch.setattr(surgery, "corrected_forward", counted)
        # Also counted if the CLI imports the trace call under its own name.
        monkeypatch.setattr(cli, "corrected_forward", counted, raising=False)
        cli._bias_step(cfg, tmp_path, suite, spec, merged, experts, stack if with_stack else None)
        assert cfg.tasks == 2
        assert len(calls) == 2 * cfg.tasks

    @pytest.mark.parametrize("with_stack", [False, True])
    def test_rows_equal_the_library_evaluation(self, bias_inputs, tmp_path, with_stack):
        cfg, suite, spec, merged, experts, stack = bias_inputs
        stack = stack if with_stack else None
        _, rows = cli._bias_step(cfg, tmp_path, suite, spec, merged, experts, stack)
        heads = collect_heads(experts, spec)
        tests = [task.test for task in suite.tasks]
        individual = [
            evaluate(expert, heads, spec, tests).task_accuracies[t]
            for t, expert in enumerate(experts)
        ]
        merged_row = evaluate(
            merged, heads, spec, tests, stack, model_id="merged_ta",
            stack_id=None if stack is None else "v2",
        )
        assert rows == [EvalResult("individual", individual), merged_row]
        assert len(set(individual + list(merged_row.task_accuracies))) > 1

    @pytest.mark.parametrize("with_stack", [False, True])
    def test_projection_matches_the_point_loop(self, bias_inputs, tmp_path, with_stack):
        cfg, suite, spec, merged, experts, stack = bias_inputs
        stack = stack if with_stack else None
        cli._bias_step(cfg, tmp_path, suite, spec, merged, experts, stack)
        suffix = "_surgery" if with_stack else ""
        for task in range(cfg.tasks):
            x = suite.tasks[task].test.inputs()
            expected = loop_projection_text(
                surgery.corrected_forward(merged, spec, stack, x, task)[-1],
                surgery.corrected_forward(experts[task], spec, None, x, task)[-1],
            )
            written = (tmp_path / f"projection{suffix}_{task}.csv").read_bytes()
            assert written == expected.encode("utf-8")
            assert written.count(b"\n") == 1 + 2 * 300


class TestStepwiseFlow:
    def test_gen_to_report(self, runner, tiny_config, tmp_path):
        run_dir = tmp_path / "run"
        base = ["--config", str(tiny_config), "--run-dir", str(run_dir)]
        assert invoke(runner, ["gen", *base]).exit_code == 0
        assert invoke(runner, ["pretrain", *base]).exit_code == 0
        assert invoke(runner, ["finetune", *base, "--task", "0"]).exit_code == 0
        assert invoke(runner, ["finetune", *base, "--task", "1"]).exit_code == 0
        assert invoke(runner, ["merge", *base]).exit_code == 0
        assert (run_dir / "checkpoints" / "merged.msrg").exists()
        assert (run_dir / "merge_recipe.txt").exists()

        assert invoke(runner, ["bias", *base, "--psi", "l1"]).exit_code == 0
        assert (run_dir / "bias_report.csv").exists()
        assert (run_dir / "projection_0.csv").exists()

        assert invoke(runner, ["surgery", *base, "--mode", "v1", "--iters", "30"]).exit_code == 0
        stack_file = run_dir / "checkpoints" / "surgery.msrg"
        assert stack_file.exists()

        corrected = invoke(
            runner, ["bias", *base, "--surgery", str(stack_file), "--tag", "surgery"]
        )
        assert corrected.exit_code == 0
        assert (run_dir / "bias_report_surgery.csv").exists()
        assert (run_dir / "projection_surgery_0.csv").exists()

        assert (
            invoke(runner, ["eval", *base, "--surgery", str(stack_file)]).exit_code == 0
        )
        assert (run_dir / "eval_results.csv").exists()

        assert invoke(runner, ["report", *base]).exit_code == 0
        assert (run_dir / "results.csv").exists()
        assert (run_dir / "bias_merged.csv").exists()

    def test_subcommands_match_pipeline(self, runner, pipeline_run, tmp_path):
        config, piped = pipeline_run
        run_dir = tmp_path / "steps"
        base = ["--config", str(config), "--run-dir", str(run_dir)]
        for args in (
            ["gen"], ["pretrain"], ["finetune", "--task", "0"], ["finetune", "--task", "1"],
            ["merge"], ["surgery"], ["report"],
        ):
            result = invoke(runner, [*args, *base])
            assert result.exit_code == 0, (args, result.output)
        checkpoints = sorted(p.name for p in (piped / "checkpoints").iterdir())
        assert checkpoints == sorted(p.name for p in (run_dir / "checkpoints").iterdir())
        for name in [
            *(f"checkpoints/{c}" for c in checkpoints),
            "merge_recipe.txt",
            "surgery_info.txt",
            "results.csv",
            "bias_merged.csv",
            "bias_merged_surgery.csv",
        ]:
            assert (run_dir / name).read_bytes() == (piped / name).read_bytes(), name

    def test_last_block_stack_reports_its_mode(self, runner, pipeline_run, tmp_path):
        # block:3 on the 3-block model covers the same layers as v1.
        config, piped = pipeline_run
        run_dir = tmp_path / "run"
        shutil.copytree(piped, run_dir)
        base = ["--config", str(config), "--run-dir", str(run_dir)]
        result = invoke(runner, ["surgery", *base, "--mode", "block:3", "--iters", "10"])
        assert result.exit_code == 0, result.output
        assert "mode = block:3\n" in (run_dir / "surgery_info.txt").read_text()
        result = invoke(runner, ["report", *base])
        assert result.exit_code == 0, result.output
        methods = [line.split(",")[0] for line in (run_dir / "results.csv").read_text().splitlines()]
        assert methods == ["method", "individual", "merged_ta", "merged_ta+block:3"]

    def test_eval_with_a_stack_traces_each_model_once(
        self, runner, pipeline_run, tmp_path, monkeypatch
    ):
        # The experts, the merged model and the corrected merged model,
        # each on every test set.
        config, piped = pipeline_run
        run_dir = tmp_path / "run"
        shutil.copytree(piped, run_dir)
        calls = []

        def counted(*args, **kwargs):
            calls.append((args[2] is None, args[-1]))
            return traced(*args, **kwargs)

        traced = surgery.corrected_forward
        monkeypatch.setattr(surgery, "corrected_forward", counted)
        monkeypatch.setattr(evaluation, "corrected_forward", counted)
        stack_file = str(cli._checkpoint(run_dir, "surgery"))
        args = ["eval", "--config", str(config), "--run-dir", str(run_dir), "--surgery", stack_file]
        result = invoke(runner, args)
        assert result.exit_code == 0, result.output
        assert sorted(calls) == [(False, 0), (False, 1)] + [(True, 0)] * 2 + [(True, 1)] * 2
        assert (run_dir / "eval_results.csv").read_bytes() == (piped / "results.csv").read_bytes()

    def test_surgery_info_records_the_configured_psi(self, runner, pipeline_run, tmp_path):
        config, piped = pipeline_run
        run_dir = tmp_path / "run"
        shutil.copytree(piped, run_dir)
        base = ["--config", str(config), "--run-dir", str(run_dir)]
        result = invoke(runner, ["surgery", *base, "--psi", "mse", "--iters", "10"])
        assert result.exit_code == 0, result.output
        assert "psi = mse\n" in (run_dir / "surgery_info.txt").read_text()

    def test_ties_grid_searches_ties(self, runner, pipeline_run, tmp_path):
        config, piped = pipeline_run
        run_dir = tmp_path / "run"
        shutil.copytree(piped, run_dir)
        base = ["--config", str(config), "--run-dir", str(run_dir)]
        result = invoke(runner, ["merge", *base, "--algo", "ties", "--lambda", "grid"])
        assert result.exit_code == 0, result.output
        recipe = parse_config_text((run_dir / "merge_recipe.txt").read_text())

        cfg = RunConfig.from_sources(parse_config_text(TINY_CFG))
        suite = gen_task_suite(cfg.seed, cfg.tasks, cfg.dim, cfg.classes, cfg.n_train, cfg.n_test)
        spec = ModelSpec(cfg.dim, cfg.hidden_dims, (cfg.classes,) * cfg.tasks)
        pretrained = load_paramset(run_dir / "checkpoints" / "pretrained.msrg")
        experts = [load_paramset(run_dir / "checkpoints" / f"expert_{t}.msrg") for t in (0, 1)]
        heads = collect_heads(experts, spec)
        val_sets = [task.validation for task in suite.tasks]
        accuracy = {
            scale: evaluate(
                ties_merge(pretrained, experts, scale, cfg.ties_keep), heads, spec, val_sets
            ).average
            for scale in cfg.scale_grid
        }
        best = max(cfg.scale_grid, key=lambda scale: (accuracy[scale], -scale))
        assert float(recipe["scale"]) == best

    def test_merge_requires_checkpoints(self, runner, tiny_config, tmp_path):
        result = runner.invoke(
            main, ["merge", "--config", str(tiny_config), "--run-dir", str(tmp_path / "none")]
        )
        assert result.exit_code != 0


class TestPipeline:
    def test_pipeline_writes_manifest_and_is_deterministic(
        self, runner, tiny_config, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("MERGE_SURGEON_THREADS", "1")
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        for run_dir in (run_a, run_b):
            result = invoke(
                runner, ["pipeline", "--config", str(tiny_config), "--run-dir", str(run_dir)]
            )
            assert result.exit_code == 0
        manifest_a = (run_a / "manifest.txt").read_bytes()
        manifest_b = (run_b / "manifest.txt").read_bytes()
        assert manifest_a == manifest_b
        assert b"config.seed = 7" in manifest_a
        assert b"file.checkpoints/merged.msrg" in manifest_a

    def test_traces_each_model_and_test_set_twice(
        self, runner, tiny_config, tmp_path, monkeypatch
    ):
        # Once in the bias step before surgery and once after it; the
        # accuracy rows are scored on those traces.  merge_scale = 0.3
        # runs no scale grid, and one worker keeps every stage in process.
        monkeypatch.setenv("MERGE_SURGEON_THREADS", "1")
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[-1])
            return traced(*args, **kwargs)

        traced = surgery.corrected_forward
        monkeypatch.setattr(surgery, "corrected_forward", counted)
        monkeypatch.setattr(evaluation, "corrected_forward", counted)
        result = invoke(
            runner, ["pipeline", "--config", str(tiny_config), "--run-dir", str(tmp_path / "run")]
        )
        assert result.exit_code == 0, result.output
        assert "merge_scale = 0.3\n" in TINY_CFG and "tasks = 2\n" in TINY_CFG
        assert sorted(calls) == [0] * 4 + [1] * 4

    @staticmethod
    def run_both_modes(runner, config, tmp_path, monkeypatch, prepare=lambda run_dir: None):
        """Exit code, stdout (run directory masked) and run directory of
        ``pipeline`` with the side child (2 workers) and inline (1)."""
        runs = {}
        for threads in ("2", "1"):
            monkeypatch.setenv("MERGE_SURGEON_THREADS", threads)
            run_dir = tmp_path / f"threads{threads}"
            prepare(run_dir)
            result = runner.invoke(
                main, ["pipeline", "--config", str(config), "--run-dir", str(run_dir)]
            )
            runs[threads] = (
                result.exit_code, result.output.replace(str(run_dir), "RUN"), run_dir
            )
            assert multiprocessing.active_children() == []
        return runs["2"], runs["1"]

    def test_side_child_matches_inline_run(self, runner, tiny_config, tmp_path, monkeypatch):
        forked, inline = self.run_both_modes(runner, tiny_config, tmp_path, monkeypatch)
        assert forked[0] == inline[0] == 0
        assert forked[1] == inline[1]
        files = {}
        for _, _, run_dir in (forked, inline):
            files[run_dir] = {
                path.relative_to(run_dir): path.read_bytes()
                for path in sorted(run_dir.rglob("*")) if path.is_file()
            }
        assert files[forked[2]] == files[inline[2]]
        assert len(files[forked[2]]) > 20

    def test_side_stage_failure_matches_inline(
        self, runner, tiny_config, tmp_path, monkeypatch
    ):
        def block_projection(run_dir):
            (run_dir / "projection_0.csv").mkdir(parents=True)

        forked, inline = self.run_both_modes(
            runner, tiny_config, tmp_path, monkeypatch, block_projection
        )
        assert forked[0] == inline[0] == 1
        assert forked[1] == inline[1]
        (error,) = [line for line in forked[1].splitlines() if line.startswith("Error")]
        assert error == forked[1].splitlines()[-1] and "RUN/projection_0.csv" in error
        assert not (forked[2] / "manifest.txt").exists()

    @pytest.mark.parametrize(
        "blocked, side_output",
        [("checkpoints/pretrained.msrg", "suite/mixture.csv"),
         ("checkpoints/surgery.msrg", "projection_1.csv")],
    )
    def test_later_stage_failure_waits_for_the_side_stage(
        self, runner, tiny_config, tmp_path, monkeypatch, blocked, side_output
    ):
        forked, inline = self.run_both_modes(
            runner, tiny_config, tmp_path, monkeypatch,
            lambda run_dir: (run_dir / blocked).mkdir(parents=True),
        )
        assert forked[0] == inline[0] == 1
        assert forked[1] == inline[1]
        error = forked[1].splitlines()[-1]
        assert error.startswith("Error: ") and f"RUN/{blocked}" in error
        for run_dir in (forked[2], inline[2]):
            assert (run_dir / side_output).is_file()
        listing = [sorted(p.relative_to(d) for p in d.rglob("*")) for d in (forked[2], inline[2])]
        assert listing[0] == listing[1]

    @staticmethod
    def signal_mid_export(tmp_path, signum, to_group):
        """Start ``pipeline`` in its own session on a config whose suite
        export (160,400 rows of 33 values) is still running when the
        pipeline has written ``model_spec.cfg``; send ``signum`` then, to
        the pipeline or its whole process group, and wait for it."""
        config = tmp_path / "export.cfg"
        config.write_text(TINY_CFG.replace("dim = 4", "dim = 32").replace(
            "n_train = 60\nn_test = 50", "n_train = 100\nn_test = 40000"))
        run_dir = tmp_path / "run"
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, MERGE_SURGEON_THREADS="2", PYTHONPATH=str(src))
        stderr = tmp_path / "stderr.txt"
        with open(stderr, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "merge_surgeon.cli", "pipeline", "--config",
                 str(config), "--run-dir", str(run_dir)],
                env=env, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
            )
        try:
            while proc.poll() is None and not (run_dir / "model_spec.cfg").exists():
                time.sleep(0.002)
        finally:
            if to_group:
                os.killpg(proc.pid, signum)
            else:
                proc.send_signal(signum)
            proc.wait()
        return proc, run_dir, stderr.read_text()

    def test_ctrl_c_aborts_after_the_side_stage(self, tmp_path):
        proc, run_dir, stderr = self.signal_mid_export(tmp_path, signal.SIGINT, to_group=True)
        assert proc.returncode == 1
        assert stderr.strip() == "Aborted!"
        assert (run_dir / "suite" / "mixture.csv").is_file()

    def test_sigint_before_the_side_stage_starts_spares_it(self, tmp_path):
        # The child signals itself between the fork and the stage's first
        # line, where a SIGINT sent to the whole group can also land.
        script = tmp_path / "side.py"
        script.write_text(
            "import multiprocessing.util, os, signal\n"
            "from merge_surgeon import cli\n"
            "close_stdin = multiprocessing.util._close_stdin\n"
            "def interrupted():\n"
            "    os.kill(os.getpid(), signal.SIGINT)\n"
            "    close_stdin()\n"
            "multiprocessing.util._close_stdin = interrupted\n"
            "def stage():\n"
            "    return 'answered'\n"
            "print(cli._beside(stage)())\n"
        )
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, MERGE_SURGEON_THREADS="2", PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "answered\n", "")

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_side_child_dies_with_the_pipeline(self, tmp_path):
        # A child that outlived the pipeline would go on to write mixture.csv.
        proc, run_dir, _ = self.signal_mid_export(tmp_path, signal.SIGKILL, to_group=False)
        assert proc.returncode == -signal.SIGKILL

        def session():
            """Live (not zombie) processes whose session the pipeline led."""
            alive = []
            for pid in filter(str.isdigit, os.listdir("/proc")):
                try:
                    stat = Path(f"/proc/{pid}/stat").read_text()
                except OSError:
                    continue
                state, _, _, sid = stat.rpartition(")")[2].split()[:4]
                if int(sid) == proc.pid and state != "Z":
                    alive.append(int(pid))
            return alive

        deadline = time.monotonic() + 2.0
        while session() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert session() == []
        assert not (run_dir / "suite" / "mixture.csv").exists()

    def test_ties_and_ada_algorithms_run(self, runner, tiny_config, tmp_path):
        for algo, extra in (("ties", ["--keep", "0.5", "--lambda", "0.3"]), ("ada", [])):
            run_dir = tmp_path / algo
            base = ["--config", str(tiny_config), "--run-dir", str(run_dir)]
            assert invoke(runner, ["gen", *base]).exit_code == 0
            assert invoke(runner, ["pretrain", *base]).exit_code == 0
            assert invoke(runner, ["finetune", *base, "--task", "0"]).exit_code == 0
            assert invoke(runner, ["finetune", *base, "--task", "1"]).exit_code == 0
            result = invoke(runner, ["merge", *base, "--algo", algo, *extra])
            assert result.exit_code == 0, result.output
            assert (run_dir / "checkpoints" / "merged.msrg").exists()
