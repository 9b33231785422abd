"""The README's library example runs as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The python block under the README's "## Library example" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    text = out.getvalue()
    assert text.startswith("alpha_hat=")
    checks = [line for line in text.splitlines() if line.startswith("check_")]
    assert checks and all("=pass " in line for line in checks)
