"""The README's examples run as written.

Every ```python block is executed, and every `fuzzloc generate`, `fuzzloc
solve` and `fuzzloc validate` command line of the ```sh blocks is run through
`cli.main`, in order, in a temporary directory. `bench` and `tune` are left
out: they run many solves, and tests/test_cli.py covers those commands.
"""

import re
import shlex
from pathlib import Path

from fuzzloc.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"
RUN_COMMANDS = ("generate", "solve", "validate")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def _commands() -> list[list[str]]:
    lines = (line.split("#")[0] for block in _blocks("sh") for line in block.splitlines())
    argvs = [shlex.split(line) for line in lines if line.startswith("fuzzloc ")]
    return [argv[1:] for argv in argvs if argv[1] in RUN_COMMANDS]


def test_readme_has_examples():
    assert len(_blocks("python")) >= 2
    assert {argv[0] for argv in _commands()} == set(RUN_COMMANDS)


def test_python_blocks_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for block in _blocks("python"):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in _commands():
        assert main(argv) == EXIT_OK, (argv, capsys.readouterr().err)
