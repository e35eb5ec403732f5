"""Every ``higgs-atlas`` example in README's shell blocks runs through
``cli.main`` and exits 0; a pipeline feeds each stage's stdout to the next
stage's stdin."""

from __future__ import annotations

import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from higgs_atlas import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    """Each shell-block command starting with ``higgs-atlas``, with
    backslash continuations joined into one line."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = (line for block in blocks for line in block.replace("\\\n", " ").splitlines())
    return [line for line in lines if line.startswith("higgs-atlas ")]


COMMANDS = readme_commands()


def test_readme_has_one_line_examples_and_pipelines():
    assert any("|" not in c for c in COMMANDS)
    assert any("|" in c for c in COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_example_exits_zero(command, capsys, monkeypatch):
    out = ""
    for stage in command.split("|"):
        argv = shlex.split(stage, comments=True)
        assert argv[0] == "higgs-atlas", stage
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code = cli.main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0, (stage, out)
