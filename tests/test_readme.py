"""README.md's python code blocks run in order, in one namespace.

A signature change that leaves a documented call stale fails here. Each
block is compiled with its README line numbers, so a traceback points at
the README line.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    namespace = {}
    for block in blocks:
        first_line = text.count("\n", 0, block.start(1))
        exec(compile("\n" * first_line + block.group(1), str(README), "exec"), namespace)
