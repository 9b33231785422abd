"""Contract test over every spec catalog, generated from the tables.

Each form of each kind in the penalty, h, smooth, map and x0 catalogs is
built from a spec string, and then broken one way at a time: an unknown
extra parameter, a duplicated one, each single missing one, and each
parameter set to a value its rule rejects (a non-finite float, a zero
size, a negative seed, a missing file). Each broken spec must raise
ValueError and make `check` exit 2 with only `config error:` lines. Every
smooth and map form is also run on its tiny instance. A kind added to a
catalog later is covered without editing this file.
"""

import re

import pytest

from proxbound import cli, specs
from proxbound.penalties import PENALTY_KINDS
from proxbound.proxlinear import FINITE_H_KINDS
from proxbound.smooth import MAP_KINDS, SMOOTH_KINDS

# one admissible value per parameter name; {dir} holds a 3 x 2 matrix A,
# a length-3 right-hand side b, +-1 labels y and a length-2 start x0, and
# every instance below has dimension 2
VALID = {"rows": "3", "cols": "2", "dim": "2", "identity": "2", "seed": "1",
         "file": "{dir}/A.txt", "rhs": "{dir}/b.txt", "labels": "{dir}/y.txt",
         "path": "{dir}/x0.txt", "mu": "0.5", "curvature": "0.3",
         "value": "0.5", "lambda": "0.5", "lambda1": "0.1",
         "lambda2": "0.2", "lo": "-1", "hi": "1", "epsilon": "0.1",
         "tau": "0.3"}
FILES = {"A.txt": "3 2\n1 0\n0 1\n1 1\n", "b.txt": "3 1\n1\n-1\n0.5\n",
         "y.txt": "3 1\n1\n-1\n1\n", "x0.txt": "2 1\n0.5\n-0.5\n"}


def rejected(key):
    """A value that the rule of parameter key rejects."""
    rule = specs._RULES[key]
    if rule is specs._SIZE:
        return "0"
    if rule is specs._FILE:
        return "{dir}/missing.txt"
    return "-1" if key == "seed" else "nan"


ADDITIVE = """\
[problem]
kind = additive
smooth = quadratic(rows=3,cols=2,seed=1)
penalty = zero
x0 = zeros

[solver]
method = proxgrad
max_iter = 20
"""
COMPOSITE = """\
[problem]
kind = composite
map = affine(identity=2)
h = absvalue(lambda=1)
penalty = zero
x0 = zeros

[solver]
method = proxlinear
max_iter = 20
"""
H_KINDS = {kind: forms for kind, forms in PENALTY_KINDS.items()
           if all(cls in FINITE_H_KINDS for _, cls in forms)}
# role -> (catalog, the name messages give it, the config with the role's
# spec as {spec}); a config error names the role's key first
ROLES = {
    "penalty": (PENALTY_KINDS, "penalty",
                ADDITIVE.replace("penalty = zero", "penalty = {spec}")),
    "h": (H_KINDS, "penalty",
          COMPOSITE.replace("absvalue(lambda=1)", "{spec}")),
    "smooth": (SMOOTH_KINDS, "smooth",
               ADDITIVE.replace("quadratic(rows=3,cols=2,seed=1)", "{spec}")),
    "map": (MAP_KINDS, "map",
            COMPOSITE.replace("affine(identity=2)", "{spec}")),
    "x0": (cli.X0_KINDS, "x0", ADDITIVE.replace("x0 = zeros", "x0 = {spec}")),
}
FORMS = [(role, kind, names) for role, (catalog, _, _) in ROLES.items()
         for kind, forms in catalog.items() for names, _ in forms]

RUN_FORMS = [f for f in FORMS if f[0] in ("smooth", "map")]


def form_ids(forms):
    return [f"{role}-{kind}({','.join(names)})" for role, kind, names in forms]


def spec(kind, pairs):
    return f"{kind}({','.join(f'{k}={v}' for k, v in pairs)})"


def broken_specs(role, kind, names):
    """(what is wrong, spec) for every way of breaking the form."""
    catalog = ROLES[role][0]
    other_forms = {frozenset(n) for n, _ in catalog[kind]}
    pairs = [(k, VALID[k]) for k in names]
    yield "unknown extra", spec(kind, pairs + [("bogus", "1")])
    if names:
        yield "duplicated", spec(kind, pairs + [pairs[0]])
    for i, key in enumerate(names):
        rest = pairs[:i] + pairs[i + 1:]
        if frozenset(k for k, _ in rest) not in other_forms:
            yield f"missing {key}", spec(kind, rest)
        yield (f"{key} rejected",
               spec(kind, pairs[:i] + [(key, rejected(key))] + pairs[i + 1:]))


@pytest.fixture
def spec_dir(tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def check(tmp_path, capsys, role, text):
    """`check`'s exit code on the role's config holding spec text, and its
    stderr."""
    path = tmp_path / "case.ini"
    path.write_text(ROLES[role][2].replace("{spec}", text))
    code = cli.main(["check", str(path)])
    return code, capsys.readouterr().err, path


def test_every_parameter_name_has_a_rule():
    assert set(VALID) == set(specs._RULES)
    for role, kind, names in FORMS:
        assert set(names) <= set(specs._RULES), (role, kind, names)
        assert len(set(names)) == len(names), (role, kind, names)


@pytest.mark.parametrize("role,kind,names", FORMS, ids=form_ids(FORMS))
def test_catalog_form_builds_and_rejects_each_violation(
        spec_dir, tmp_path, capsys, role, kind, names):
    catalog, what, _ = ROLES[role]
    where = f"[problem] {role}"
    valid = spec(kind, [(k, VALID[k]) for k in names]).replace(
        "{dir}", str(spec_dir))
    specs.build_from_spec(valid, what, catalog)
    code, err, _ = check(tmp_path, capsys, role, valid)
    assert (code, err) == (0, ""), valid
    for wrong, text in broken_specs(role, kind, names):
        text = text.replace("{dir}", str(spec_dir))
        case = f"{wrong}: {text}"
        with pytest.raises(ValueError):
            specs.build_from_spec(text, what, catalog)
        code, err, _ = check(tmp_path, capsys, role, text)
        assert code == 2, case
        lines = err.splitlines()
        assert lines and all(ln.startswith("config error: ") for ln in lines)
        assert lines[0].startswith(f"config error: {where}"), (case, err)


@pytest.mark.parametrize("role,kind,names", RUN_FORMS,
                         ids=form_ids(RUN_FORMS))
def test_catalog_instance_keeps_the_run_contract(
        spec_dir, tmp_path, capsys, role, kind, names):
    valid = spec(kind, [(k, VALID[k]) for k in names]).replace(
        "{dir}", str(spec_dir))
    code, err, path = check(tmp_path, capsys, role, valid)
    assert (code, err) == (0, ""), valid
    code = cli.main(["run", str(path), "--quiet", "--out",
                     str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 3), valid
    if code == 3:
        # one readable line, not the `runtime error: <Type>: ...` form of
        # an exception the run did not expect
        assert err.count("\n") == 1 and err.startswith("runtime error: ")
        assert not re.match(r"runtime error: [A-Z]\w*: ", err), err
    else:
        assert err == "", valid
