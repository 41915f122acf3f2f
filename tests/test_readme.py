import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from fpfun.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The first python block of the README's library quick start."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs_as_written():
    namespace = {}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    # the values its comments state
    assert namespace["hk_multiplicity"](namespace["problem"], 10) == Fraction(2, 1)
    assert namespace["est"].error_bound >= 0


def cli_lines() -> list:
    """The fpfun command lines of the sh blocks in the README's CLI section."""
    section = README.read_text(encoding="utf-8").split("## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    return [line for line in lines if re.match(r"(python -m )?fpfun ", line)]


@pytest.mark.parametrize("line", cli_lines(), ids=lambda line: " ".join(shlex.split(line, True)))
def test_cli_section_runs_as_written(line, monkeypatch, capsys):
    argv = shlex.split(line, comments=True)
    monkeypatch.chdir(README.parent)
    assert main(argv[argv.index("fpfun") + 1 :]) == 0, capsys.readouterr().err


def test_cli_section_is_found():
    # so that a renamed section or block cannot leave the test above with no case
    assert cli_lines()
