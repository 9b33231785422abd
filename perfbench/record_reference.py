"""Record the reference outputs that every benchmark run is checked against.

Runs each workload once per `[problem] seed` it can select, at the current
commit, and stores per run the status, iteration count, check names and
compared constants (see bench_check) in perfbench/reference.json, keyed by
workload and problem seed. A run that does not pass is reported and not
stored: a reference must come from a correct run.

Usage: python3 perfbench/record_reference.py [WORKLOAD ...]
Re-record only in a change to the benchmark that redefines a workload.
"""

import json
import os
import shutil
import sys

import bench_check
import bench_env
import bench_workloads
from run import REFERENCE


def record(names):
    bench_env.import_proxbound()
    from proxbound import cli
    refs = {}
    if os.path.isfile(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            refs = json.load(fh)
    work = os.path.join(bench_env.WORK, "reference")
    os.makedirs(work, exist_ok=True)
    failed = []
    for name in names:
        w = bench_workloads.WORKLOADS[name]
        entries = {}
        for offset in w.offsets:
            seed = w.base_seed + offset
            config = os.path.join(work, f"{name}-{seed}.ini")
            with open(config, "w", encoding="ascii", newline="\n") as fh:
                fh.write(w.template.format(seed=seed))
            out = os.path.join(work, f"{name}-{seed}")
            shutil.rmtree(out, ignore_errors=True)
            code = cli.main(["run", config, "--quiet", "--out", out])
            entry = bench_check.reference_entry(out, cli.parse_config(config).eps)
            problems = bench_check.check_run(code, out, entry)
            print(name, seed, entry["iterations"], problems or "ok", flush=True)
            if problems:
                failed.append((name, seed, problems))
            else:
                entries[str(seed)] = entry
        refs[name] = entries
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return failed


if __name__ == "__main__":
    if record(sys.argv[1:] or sorted(bench_workloads.WORKLOADS)):
        sys.exit(1)
