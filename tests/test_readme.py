"""The examples in README.md run as written."""

import re
import shlex
from pathlib import Path

import pytest

from ccodes.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


PYTHON_BLOCKS = _blocks("python")
COMMANDS = [shlex.split(line, comments=True)[1:] for block in _blocks("sh")
            for line in block.splitlines() if line.startswith("ccodes ")]


def test_readme_has_examples():
    assert len(PYTHON_BLOCKS) == 2 and len(COMMANDS) == 7


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_example_runs(index):
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_cli_example_exits_zero(argv, capsys):
    assert main(argv) == 0
