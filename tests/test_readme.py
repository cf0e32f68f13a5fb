"""The README's library example runs as written, and its quick-start
commands name commands and options that the CLI has."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from merge_surgeon.cli import main

ROOT = Path(__file__).resolve().parents[1]


def section(heading: str) -> str:
    """The README text under ``## <heading>``, up to the next such heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    """The ``python`` block under the README's ``## Library use`` heading."""
    return re.search(r"```python\n(.*?)```", section("Library use"), re.DOTALL).group(1)


def quick_start_commands() -> list[list[str]]:
    """The words after ``merge-surgeon`` on each line of the ``sh`` blocks
    under ``## Quick start``, comments left out."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", section("Quick start"), re.DOTALL):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["merge-surgeon"]:
                commands.append(words[1:])
    return commands


def test_library_example_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", library_example()],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_quick_start_commands_and_flags_exist():
    commands = quick_start_commands()
    assert [words[0] for words in commands] == [
        "pipeline", "gen", "pretrain", "finetune", "merge", "bias", "surgery", "eval", "report",
    ]
    for name, *args in commands:
        assert name in main.commands, name
        options = {opt for param in main.commands[name].params for opt in param.opts}
        for flag in (arg for arg in args if arg.startswith("-")):
            assert flag in options, (name, flag)
