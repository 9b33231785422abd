"""Check every recorded composite reference seed against its reference.

Runs `proxbound run` once per `[problem] seed` that perfbench/reference.json
holds for the composite workloads (robust-constants and vapnik-solve), and
checks each run's outputs with perfbench/bench_check.check_run: exit code,
status, iteration count, checks, trace shape and the compared constants.
The benchmark's smoke run checks seed 0 only; a change to the dual ascent
moves the inner iteration paths of every seed.

Usage (from the root of a checkout): python3 tests/check_reference_seeds.py
Prints one line per run and exits 1 if any run fails its check.
"""

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import bench_check  # noqa: E402
import bench_workloads  # noqa: E402
from proxbound import cli  # noqa: E402

COMPOSITE_WORKLOADS = ("robust-constants", "vapnik-solve")


def main():
    with open(os.path.join(ROOT, "perfbench", "reference.json"),
              encoding="utf-8") as fh:
        reference = json.load(fh)
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        for name in COMPOSITE_WORKLOADS:
            template = bench_workloads.WORKLOADS[name].template
            for seed, ref in sorted(reference[name].items(),
                                    key=lambda item: int(item[0])):
                config = os.path.join(work, f"{name}-{seed}.ini")
                with open(config, "w", encoding="ascii", newline="\n") as fh:
                    fh.write(template.format(seed=seed))
                out = os.path.join(work, f"{name}-{seed}")
                code = cli.main(["run", config, "--quiet", "--out", out])
                problems = bench_check.check_run(code, out, ref)
                failed += bool(problems)
                print(name, seed, "; ".join(problems) or "ok", flush=True)
    print(f"{failed} failed", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
