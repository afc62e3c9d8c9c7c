"""The README's Python examples run as written: every ```python block, in
order, in one namespace, since a later block uses what an earlier one made."""

import re
from pathlib import Path

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
