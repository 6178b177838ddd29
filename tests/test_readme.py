"""The README's quick start runs against the package root and prints what
its comments say."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_the_values_in_its_comments():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start\n.*?```python\n(.*?)```", text, re.S).group(1)
    expected = [line.rsplit(": ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    assert expected == ["[0 2 4]", "[0 0 2 4 4]", "2"]
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
