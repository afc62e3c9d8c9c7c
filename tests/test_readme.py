"""The README's examples run as written: every ```python block, in order,
in one namespace, since a later block uses what an earlier one made, and
every ``timeloc`` command of the command-line walkthrough, in order, in one
directory, since a later command reads what an earlier one wrote."""

import re
import shlex
from pathlib import Path

from timeloc.cli import _load_days, main

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_python_blocks_are_found():
    text = "x\n```python\na = 1\n```\n```sh\nls\n```\n```python\nb = a\n```\n"
    assert python_blocks(text) == ["a = 1\n", "b = a\n"]


def test_every_python_block_of_the_readme_runs():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def walkthrough_commands(text: str) -> list[list[str]]:
    """The arguments of each ``timeloc`` command in the first ```sh block
    after the "Command-line walkthrough" heading, in order, with the
    backslash-continued lines joined."""
    section = text.split("## Command-line walkthrough\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("timeloc ")]


def test_walkthrough_commands_are_found():
    text = (
        "## Other\n```sh\ntimeloc no\n```\n"
        "## Command-line walkthrough\n\n```sh\n# 1. a step\ntimeloc a --x 1 \\\n    --y 2\n"
        "ls\ntimeloc b\n```\n```sh\ntimeloc c\n```\n"
    )
    assert walkthrough_commands(text) == [["a", "--x", "1", "--y", "2"], ["b"]]


def test_every_walkthrough_command_of_the_readme_exits_zero(tmp_path, monkeypatch, capsys):
    commands = walkthrough_commands(README.read_text(encoding="utf-8"))
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if "<scan-ts>" in argv:
            # the simulate step wrote data/; query the first scan of its last day
            ts = str(_load_days("data/")[-1].scans[0].ts)
            argv = [ts if a == "<scan-ts>" else a for a in argv]
        assert main(argv) == 0, (argv, capsys.readouterr().err)
