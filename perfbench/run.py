"""proxbound benchmark: wall time of `proxbound run` per workload, set-up
time and peak memory, and per-layer spans from a separate traced run.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 reports run_s, setup_s and peak_rss_mb. Both times are wall
seconds at a reference machine speed (bench_yardstick): a fixed numpy
computation that never touches proxbound is timed alongside, and each time
is scaled by the yardstick's nominal over its measured time, because the
2-vCPU shared virtual machine the benchmark was tuned on changes speed by
up to 1.5x in phases lasting seconds to minutes.
- run_s: one fresh process runs the workload once to warm up, then back to
  back until S seconds have passed since it started, while yardstick units
  interrupt the runs; run_s is the mean net time of the timed runs (wall
  minus the units inside them) scaled by the mean unit time.
- setup_s: median over SETUP_PROBES fresh processes of import + parse +
  build, each scaled by the units the process runs right after it.
- peak_rss_mb: peak resident memory of the fresh process after its first
  run.
The raw times and unit times are kept in the record.
--trace 1 runs the same untraced loop, then two traced runs, and
reports the per-layer metrics of bench_trace.LAYER_METRICS. Every run's
output is checked against perfbench/reference.json; a run that fails a
check counts in "failed". The full record (samples, failures, workload
reason, environment) goes to .perfbench/results/ and to the next-to-last
stdout line; the last line is the result object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import bench_env
import bench_trace
import bench_workloads
import bench_yardstick

SETUP_PROBES = 11
# every child process must end within this many seconds of the start
TIME_LIMIT_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


class BenchError(Exception):
    """The benchmark itself could not measure (not a failed run)."""


def run_child(script, args, deadline):
    """Last stdout line of a Python child process, parsed as JSON; the child
    is killed and waited for if it runs past `deadline` (time.monotonic)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {script}")
    cmd = [sys.executable, os.path.join(HERE, script)] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, cwd=bench_env.ROOT, env=bench_env.child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """(result object, full record) of one benchmark invocation."""
    deadline = time.monotonic() + TIME_LIMIT_S
    problem_seed = bench_workloads.WORKLOADS[workload].problem_seed(seed)
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)[workload].get(str(problem_seed))
    if ref is None:
        raise BenchError(f"no reference for {workload} problem seed "
                         f"{problem_seed}")
    work = os.path.join(bench_env.WORK, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = os.path.join(work, "config.ini")
    with open(config, "w", encoding="ascii", newline="\n") as fh:
        fh.write(bench_workloads.make_config(workload, seed))
    ref_path = os.path.join(work, "reference.json")
    with open(ref_path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh)

    setups = []
    if not trace:
        setups = [run_child("bench_setup.py", [config], deadline)
                  for _ in range(SETUP_PROBES)]
    worker = run_child("bench_worker.py", [
        "--config", config, "--out", os.path.join(work, "out"),
        "--reference", ref_path, "--seconds", seconds, "--trace", trace,
        "--spans", os.path.join(work, "spans.npz")], deadline)

    if trace:
        metrics = {name: {"value": worker["layer_metrics"][name], "unit": unit}
                   for name, unit, _ in bench_trace.LAYER_METRICS
                   if name in worker["layer_metrics"]}
    else:
        metrics = {
            "run_s": {"value": worker["run_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(
                bench_yardstick.normalized([p["setup_s"]], p["units"])
                for p in setups), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    failed = len(worker["failures"])
    correct = failed == 0 and not worker.get("counts_differing")
    result = {"correct": correct, "attempted": worker["attempted"],
              "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "why": bench_workloads.WORKLOADS[workload].why,
        "seed": seed, "problem_seed": problem_seed,
        "seconds": seconds, "trace": trace,
        "config": bench_workloads.make_config(workload, seed),
        "run_net_s_samples": worker["samples"],
        "run_net_s_mean": statistics.fmean(worker["samples"]),
        "warm_up_s": worker["warm_up_s"],
        "yardstick_unit_s": worker["units"],
        "yardstick_nominal_s": bench_yardstick.NOMINAL_S,
        "setup_s_samples": [p["setup_s"] for p in setups],
        "setup_unit_s": [p["units"] for p in setups],
        "failures": worker["failures"],
        "traced_s": worker.get("traced_s"),
        "counts_differing": worker.get("counts_differing"),
        "environment": worker["environment"],
        "known_bad": bench_workloads.KNOWN_BAD,
        "result": result,
    }
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not bench_env.sources_present():
        print(f"perfbench: no proxbound sources under {bench_env.SRC}",
              file=sys.stderr)
        return 2
    try:
        result, record = measure(args.workload, args.seed, args.seconds,
                                 args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    results = os.path.join(bench_env.WORK, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
