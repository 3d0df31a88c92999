"""README's quick start runs as written and prints what its comment says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_one_bit():
    text = README.read_text(encoding="utf-8")
    quick_start = text.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == "1.0\n"
