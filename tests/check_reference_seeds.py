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
Prints one line per run and exits 1 if any run fails its check. With
--digests each run also prints the sha256 of its trace.csv, constants.txt
and report.txt, one line per file, so that the output of two checkouts can
be diffed to show that their runs write the same bytes at every seed.

--src DIR imports the proxbound package from DIR, not from this checkout's
src/; the reference file, the workload configs and the checker still come
from this checkout. So one copy of the script compares two trees, here
the parent commit and the working tree:

    P=$(mktemp -d); git archive HEAD~ | tar -x -C "$P"
    python3 tests/check_reference_seeds.py --digests --src "$P/src" > a.txt
    python3 tests/check_reference_seeds.py --digests > b.txt
    diff a.txt b.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# workload -> the seeds to run (None: every recorded seed)
WORKLOAD_SEEDS = {"lasso-constants": None, "robust-constants": None,
                  "vapnik-solve": None, "huber-solve": ("0",)}
OUTPUTS = ("trace.csv", "constants.txt", "report.txt")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--digests", action="store_true",
                        help="print the sha256 of each run's output files")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the directory to import proxbound from")
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
    print(f"{failed} failed", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
