"""The README's library example runs as written, and its spec table lists
the forms of the spec catalogs."""

import contextlib
import io
import pathlib
import re

from proxbound import cli
from proxbound.penalties import PENALTY_KINDS
from proxbound.smooth import MAP_KINDS, SMOOTH_KINDS

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


# config key -> the catalog its spec is built from
CATALOGS = {"penalty": PENALTY_KINDS, "h": PENALTY_KINDS,
            "smooth": SMOOTH_KINDS, "map": MAP_KINDS, "x0": cli.X0_KINDS}


def test_readme_spec_table_lists_every_catalog_form():
    text = README.read_text(encoding="utf-8")
    table = text.split("\n| key | forms | parameter rules |\n", 1)[1]
    listed = set()
    for row in table.split("\n\n", 1)[0].splitlines()[1:]:
        keys, forms = row.split("|")[1:3]
        for key in re.findall(r"`(\w+)`", keys):
            for kind, params in re.findall(r"`(\w+)\(([\w=,]*)\)`", forms):
                listed.add((key, kind, tuple(re.findall(r"(\w+)=", params))))
    assert listed == {(key, kind, names)
                      for key, catalog in CATALOGS.items()
                      for kind, forms in catalog.items()
                      for names, _ in forms}
