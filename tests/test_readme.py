"""The examples in README.md run as written and print what it shows."""

import doctest
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

# A command line followed by a comment documents its stdout, or with
# "# stderr: " its stderr; a "# stdout: " line before that describes stdout.
DOCUMENTED = [(shlex.split(command, comments=True)[1:], "err" if stderr else "out", text)
              for block in _blocks("sh")
              for command, stderr, text in re.findall(
                  r"^(ccodes .*)\n(?:# stdout: .*\n)?# (stderr: )?(.*)$", block, flags=re.M)]


def test_readme_has_examples():
    assert len(PYTHON_BLOCKS) == 2 and len(COMMANDS) == 7 and len(DOCUMENTED) == 2
    assert all(block.startswith(">>> ") for block in PYTHON_BLOCKS)


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_example_runs(index):
    # as a doctest: every printed result is compared, and a mismatch is reported
    name = f"README.md python block {index}"
    runner = doctest.DocTestRunner()
    runner.run(doctest.DocTestParser().get_doctest(PYTHON_BLOCKS[index], {}, name, "README.md", 0))
    results = runner.summarize(verbose=False)
    assert results.attempted > 0 and results.failed == 0


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_cli_example_exits_zero(argv, capsys):
    assert main(argv) == 0


@pytest.mark.parametrize("argv,stream,text", DOCUMENTED, ids=[argv[0] for argv, _, _ in DOCUMENTED])
def test_cli_example_prints_its_documented_output(argv, stream, text, capsys):
    assert main(argv) == 0
    assert getattr(capsys.readouterr(), stream) == text + "\n"


def test_readme_names_no_private_identifier():
    # README documents behaviour; private names and their mechanisms live in
    # the docstrings.  A private name starts with "_" or is reached through
    # one, as in module._name.
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.M | re.S)
    spans = re.findall(r"`([^`\n]+)`", prose)
    private = sorted({name for span in spans for name in re.findall(r"[\w.]+", span)
                      if name.startswith("_") or "._" in name})
    assert spans and not private
