"""README's Python examples run as written, so a name they use cannot be
deleted or renamed without the example changing with it."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_in_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
