"""Check the recorded reference seeds of the benchmark workloads.

Runs `proxbound run` once per `[problem] seed` that perfbench/reference.json
holds for lasso-constants, robust-constants and vapnik-solve, and once for
huber-solve seed 0 (huber-solve does not read the seed, so every seed poses
the same solve). Each run's outputs are checked with
perfbench/bench_check.check_run: exit code, status, iteration count,
checks, trace shape and the compared constants. A run also fails when it
writes to stderr or raises any Python warning (numpy's included): `run`
exits 0 or 1 with empty stderr. The benchmark's smoke run checks seed 0
only; a change to the dual ascent or to the proximal-gradient loop moves
the paths of every seed.

Usage (from the root of a checkout):
    python3 tests/check_reference_seeds.py [--digests] [--src DIR]
        [--keep DIR] [--against DIR]
Prints one line per run and exits 1 if any run fails its check. With
--digests each run also prints the sha256 of its trace.csv, constants.txt
and report.txt, one line per file, so that the output of two checkouts can
be diffed to show that their runs write the same bytes at every seed.

--keep DIR writes each run's trace.csv, constants.txt and report.txt to
DIR/<workload>-<seed>/. --against DIR compares each run's files with the
ones kept there line by line: it prints every line that differs, old and
new, with the largest relative change of the numbers in it (a trace.csv
row is compared column by column), and at the end the largest change per
key over all runs. A key is the file and the line with its numbers
written as #, or the file and the column of trace.csv. Differences do not
count as failures.

--src DIR imports the proxbound package from DIR, not from this checkout's
src/; the reference file, the workload configs and the checker still come
from this checkout. So one copy of the script compares two trees, here
the parent commit and the working tree:

    P=$(mktemp -d); git archive HEAD~ | tar -x -C "$P"
    python3 tests/check_reference_seeds.py --digests --src "$P/src" > a.txt
    python3 tests/check_reference_seeds.py --digests > b.txt
    diff a.txt b.txt

and, to see which lines moved and by how much:

    python3 tests/check_reference_seeds.py --src "$P/src" --keep "$P/out"
    python3 tests/check_reference_seeds.py --against "$P/out"
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# workload -> the seeds to run (None: every recorded seed)
WORKLOAD_SEEDS = {"lasso-constants": None, "robust-constants": None,
                  "vapnik-solve": None, "huber-solve": ("0",)}
OUTPUTS = ("trace.csv", "constants.txt", "report.txt")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|[-+]?inf|nan")


def relative_change(old, new):
    """Largest |a - b| / max(|a|, |b|) over the numbers of two texts that
    differ only in their numbers; inf when the rest of the texts differ or
    a number turns non-finite."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return math.inf
    worst = 0.0
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        a, b = float(a), float(b)
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


def _keyed(fname, text):
    """The (key, text) items of a file: one per line, and one per field of
    a trace.csv row, keyed by its column."""
    lines = text.splitlines()
    if not fname.endswith(".csv") or not lines:
        return [[(f"{fname}: {NUMBER.sub('#', line)}", line)]
                for line in lines]
    header = lines[0].split(",")
    return [[(f"{fname}: header", lines[0])]] + [
        [(f"{fname}: {col}", field)
         for col, field in zip(header, line.split(","))]
        for line in lines[1:]]


def compare_lines(fname, old, new):
    """(line number, key, old item, new item, relative change) for every
    item of file fname that differs between the texts old and new; a line
    present in one text only is compared with an empty one."""
    a, b = _keyed(fname, old), _keyed(fname, new)
    moved = []
    for i in range(max(len(a), len(b))):
        row_a = a[i] if i < len(a) else []
        row_b = b[i] if i < len(b) else []
        if len(row_a) != len(row_b):
            moved.append((i + 1, f"{fname}: line {i + 1}",
                          ",".join(t for _, t in row_a),
                          ",".join(t for _, t in row_b), math.inf))
            continue
        for (key, x), (_, y) in zip(row_a, row_b):
            if x != y:
                moved.append((i + 1, key, x, y, relative_change(x, y)))
    return moved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--digests", action="store_true",
                        help="print the sha256 of each run's output files")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the directory to import proxbound from")
    parser.add_argument("--keep", metavar="DIR",
                        help="write each run's output files under DIR")
    parser.add_argument("--against", metavar="DIR",
                        help="compare each run's output files with the "
                        "ones that --keep wrote to DIR")
    args = parser.parse_args(argv)
    # the package is imported only now, from the directory asked for
    sys.path[:0] = [os.path.abspath(args.src),
                    os.path.join(ROOT, "perfbench")]
    import bench_check
    import bench_workloads
    from proxbound import cli
    with open(os.path.join(ROOT, "perfbench", "reference.json"),
              encoding="utf-8") as fh:
        reference = json.load(fh)
    failed = 0
    largest = {}
    with tempfile.TemporaryDirectory() as work:
        for name, seeds in WORKLOAD_SEEDS.items():
            template = bench_workloads.WORKLOADS[name].template
            for seed in sorted(seeds or reference[name], key=int):
                ref = reference[name][seed]
                config = os.path.join(work, f"{name}-{seed}.ini")
                with open(config, "w", encoding="ascii", newline="\n") as fh:
                    fh.write(template.format(seed=seed))
                out = os.path.join(work, f"{name}-{seed}")
                err = io.StringIO()
                with contextlib.redirect_stderr(err), \
                        warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = cli.main(["run", config, "--quiet", "--out", out])
                problems = bench_check.check_run(code, out, ref)
                if err.getvalue():
                    problems.append("stderr: " + " | ".join(
                        err.getvalue().splitlines()))
                problems += [f"warning: {w.category.__name__}: {w.message}"
                             for w in caught]
                failed += bool(problems)
                print(name, seed, "; ".join(problems) or "ok", flush=True)
                if args.digests:
                    for fname in OUTPUTS:
                        with open(os.path.join(out, fname), "rb") as fh:
                            digest = hashlib.sha256(fh.read()).hexdigest()
                        print(name, seed, fname, digest, flush=True)
                if args.keep:
                    kept = os.path.join(args.keep, f"{name}-{seed}")
                    os.makedirs(kept, exist_ok=True)
                    for fname in OUTPUTS:
                        shutil.copy(os.path.join(out, fname), kept)
                if args.against:
                    _report_moves(name, seed, out, args.against, largest)
    if args.against:
        print("largest relative change per key:")
        for key, (rel, where) in sorted(largest.items()):
            print(f"  {key}  {rel:.3g}  ({len(where)} runs: "
                  f"{' '.join(where)})")
    print(f"{failed} failed", flush=True)
    return 1 if failed else 0


def _report_moves(name, seed, out, against, largest):
    """Print the lines of one run's files that differ from the kept ones,
    and fold their changes into largest: key -> (change, runs)."""
    for fname in OUTPUTS:
        kept = os.path.join(against, f"{name}-{seed}", fname)
        if not os.path.exists(kept):
            print(name, seed, fname, "not kept in", against, flush=True)
            continue
        texts = []
        for path in (kept, os.path.join(out, fname)):
            with open(path, encoding="ascii") as fh:
                texts.append(fh.read())
        for line, key, old, new, rel in compare_lines(fname, *texts):
            print(f"{name} {seed} {fname}:{line}: {old} -> {new} "
                  f"(rel {rel:.3g})", flush=True)
            worst, where = largest.get(key, (0.0, []))
            if f"{name}-{seed}" not in where:
                where.append(f"{name}-{seed}")
            largest[key] = (max(worst, rel), where)


if __name__ == "__main__":
    sys.exit(main())
