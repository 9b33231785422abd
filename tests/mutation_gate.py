"""Mutation gate: every CHECK verdict must be able to fail.

Each mutant below forces one check's verdict to PASS, or loosens one
relation's bound, in a temporary copy of this checkout's src/ and tests/
(and pyproject.toml, so the suite runs with its own settings). The tests
that name the mutated check are then run against the copy: those whose
decorators or body hold the check's name as text, and those whose name or
parameter id contains it. A mutant that makes one of them fail is killed;
one they all pass survived, and no test can tell the check from a check
that always passes.

Prints a killed/survived table and exits 1 if a mutant survives that is
not a known survivor, or if a mutation no longer applies (its text is not
found exactly once in the source, so the table is stale).

Usage (from the root of a checkout):
    python3 tests/mutation_gate.py
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def forced(name):
    """A run_experiment check of the form CheckLine(name, slack >= 0.0,
    slack), forced to PASS."""
    return ("cli.py", f'CheckLine("{name}", slack >= 0.0, slack)',
            f'CheckLine("{name}", True, slack)', (name,))


# name -> (module under src/proxbound, text, its mutated text, the checks
# it touches)
MUTANTS = {
    "relations add forced to PASS": (
        "diagnostics.py", "checks[name] = (slack >= 0.0, slack)",
        "checks[name] = (True, slack)",
        ("gamma_vs_alpha", "prox_vs_subdiff", "subdiff_vs_alpha")),
    "alpha_vs_gamma forced to PASS": (
        "diagnostics.py", 'checks["alpha_vs_gamma"] = (slack >= 0.0, slack)',
        'checks["alpha_vs_gamma"] = (True, slack)', ("alpha_vs_gamma",)),
    "gamma_vs_alpha bound 1e300": (
        "diagnostics.py",
        'add("gamma_vs_alpha", (2.0 / alpha + t) * (1.0 + beta * t), gamma)',
        'add("gamma_vs_alpha", 1e300, gamma)', ("gamma_vs_alpha",)),
    "monotone_values forced to PASS": (
        "cli.py", "bool(np.all(drops >= -1e-12 * phi_scale))", "True",
        ("monotone_values",)),
    "descent_inequality forced to PASS": forced("descent_inequality"),
    "improved_certificate forced to PASS": forced("improved_certificate"),
    "sufficient_decrease forced to PASS": forced("sufficient_decrease"),
    "half_bound forced to PASS": forced("half_bound"),
    "certificate_formula forced to PASS": (
        "cli.py", 'CheckLine("certificate_formula", diff == 0.0, -diff)',
        'CheckLine("certificate_formula", True, -diff)',
        ("certificate_formula",)),
    "sandwich_lower forced to PASS": (
        "cli.py", "rep.min_lower_slack >= -1e-8,", "True,",
        ("sandwich_lower",)),
    "sandwich_upper forced to PASS": (
        "cli.py", "rep.min_upper_slack >= -1e-8,", "True,",
        ("sandwich_upper",)),
}

# mutants that no test can kill, with the reason
KNOWN_SURVIVORS = {
    "certificate_formula forced to PASS": (
        "the check recomputes the certificate by the solver's own formula, "
        "so it cannot FAIL (ROADMAP item 17 replaces it)"),
}


def naming_tests(names):
    """(test files, pytest -k expression) selecting the tests that name
    any of names: by their decorators' or body's text, or by their node
    id."""
    files, keywords = [], set(names)
    tests = os.path.join(ROOT, "tests")
    for fname in sorted(os.listdir(tests)):
        if not (fname.startswith("test_") and fname.endswith(".py")):
            continue
        with open(os.path.join(tests, fname), encoding="utf-8") as fh:
            source = fh.read()
        if not any(name in source for name in names):
            continue
        files.append(os.path.join("tests", fname))
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("test_")):
                first = min([d.lineno for d in node.decorator_list]
                            + [node.lineno])
                text = "\n".join(lines[first - 1:node.end_lineno])
                if any(name in text for name in names):
                    keywords.add(node.name)
    return files, " or ".join(sorted(keywords))


def run_mutant(work, module, old, new, names):
    """(verdict, the first test that failed) for one mutant applied in
    work, a copy of the checkout. The verdict is 'killed', 'survived',
    'stale' when old is not found exactly once, or 'error' with pytest's
    exit code."""
    path = os.path.join(work, "src", "proxbound", module)
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    if source.count(old) != 1:
        return "stale", ""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(source.replace(old, new))
    try:
        files, keywords = naming_tests(names)
        env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *files, "-k", keywords],
            cwd=work, env=env, capture_output=True, text=True)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(source)
    # pytest exits 1 when a test failed and 0 when all passed; anything
    # else (no test selected, a collection error) is not a verdict
    verdict = {0: "survived", 1: "killed"}.get(proc.returncode,
                                               f"error {proc.returncode}")
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    return verdict, failed[0] if failed else ""


def main():
    bad = 0
    with tempfile.TemporaryDirectory() as work:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part),
                            os.path.join(work, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), work)
        for name, (module, old, new, names) in MUTANTS.items():
            start = time.perf_counter()
            verdict, witness = run_mutant(work, module, old, new, names)
            if name in KNOWN_SURVIVORS:
                witness = f"known survivor: {KNOWN_SURVIVORS[name]}"
                bad += verdict not in ("survived", "killed")
            else:
                bad += verdict != "killed"
            print(f"{name:37s} {verdict:8s} "
                  f"{time.perf_counter() - start:4.1f}s  {witness}",
                  flush=True)
    if bad:
        print(f"{bad} mutant(s) neither killed nor known survivors")
    else:
        print("every mutant is killed, except the known survivors")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
