"""Command-line surface: subcommand contracts on a small configuration."""

import hashlib
import shutil
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from merge_surgeon import cli, surgery
from merge_surgeon.bias import pca_project
from merge_surgeon.checkpoint import load_paramset, save_paramset
from merge_surgeon.cli import main
from merge_surgeon.config import RunConfig, parse_config_text
from merge_surgeon.datasets import gen_task_suite
from merge_surgeon.evaluation import collect_heads, evaluate
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
        save_paramset(one_task.to_paramset(), stack_file)
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
        save_paramset(three_tasks.to_paramset(), stack_file)
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

    def test_bad_config_value(self, runner, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("classes = one\n")
        result = runner.invoke(main, ["gen", "--config", str(bad), "--run-dir", str(tmp_path)])
        assert result.exit_code != 0
        assert "classes" in result.output


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
        heads = collect_heads(experts)
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
