"""One fresh process running one workload.

Runs `proxbound run CONFIG --quiet --out DIR` in-process through
`cli.main` until --seconds have passed, and checks every run's output. The
first run warms caches and lazy set-up and is not timed; the peak resident
memory is read right after it, so it is that of a fresh process that ran
the workload once. The later runs are timed while yardstick units
(bench_yardstick) interrupt them to measure the machine's speed; a run's
net time is its wall time minus that of the units that ran inside it. With
--trace 1 it then makes TRACED_RUNS pairs of one untraced and one traced
run, and reports the per-layer metrics and counters of the traced runs.

Usage: python3 perfbench/bench_worker.py --config C --out DIR
           --reference REF.json --seconds S --trace 0|1 --spans FILE.npz
Prints one JSON line.
"""

import argparse
import json
import resource
import statistics
import time
import traceback

import bench_check
import bench_env
import bench_trace
import bench_yardstick

TRACED_RUNS = 2


class Runner:
    """Runs the CLI on one config and checks each run's output."""

    def __init__(self, cli, args, ref):
        self.cli, self.args, self.ref = cli, args, ref
        self.attempted = 0
        self.failures = []
        self._code = None

    def run(self):
        """Wall seconds of one CLI run. An exception that escapes the CLI
        is a failed run, not the end of the measurement."""
        t0 = time.perf_counter()
        try:
            code = self.cli.main(["run", self.args.config, "--quiet",
                                  "--out", self.args.out])
        except Exception:
            traceback.print_exc()
            code = "exception"
        seconds = time.perf_counter() - t0
        self.attempted += 1
        self._code = code
        return seconds

    def check(self):
        """Check the output of the latest run."""
        problems = bench_check.check_run(self._code, self.args.out, self.ref)
        if problems:
            self.failures.append(problems)


def traced_runs(runner, spans_path):
    """(per-layer metrics, wall seconds of the traced runs, names of the
    counts that differ between the traced runs).

    Each traced run directly follows an untraced one, and
    bench.trace_overhead_s is the mean difference within these pairs, so a
    change of machine speed since the timed loop does not enter it.
    """
    recorder = bench_trace.Recorder()
    traced, overheads = [], []
    for run_id in range(TRACED_RUNS):
        untraced = runner.run()
        runner.check()
        recorder.run_id = run_id
        patches = bench_trace.install(recorder)
        try:
            traced.append(runner.run())
        finally:
            patches.uninstall()
        runner.check()
        overheads.append(traced[-1] - untraced)
    recorder.write_spans(spans_path)
    per_run = [bench_trace.run_metrics(recorder, patches.patched, r)
               for r in range(TRACED_RUNS)]
    metrics = {}
    for name in per_run[0]:
        values = [run[name] for run in per_run]
        same = all(v == values[0] for v in values)
        metrics[name] = values[0] if same else statistics.median(values)
    metrics["bench.trace_overhead_s"] = statistics.fmean(overheads)
    counts = [bench_trace.run_counts(recorder, r) for r in range(TRACED_RUNS)]
    differing = sorted(k for k in set(counts[0]) | set(counts[1])
                       if counts[0].get(k) != counts[1].get(k))
    return metrics, traced, differing


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    with open(args.reference, encoding="utf-8") as fh:
        ref = json.load(fh)

    bench_env.import_proxbound()
    from proxbound import cli
    runner = Runner(cli, args, ref)

    start = time.perf_counter()
    warm_up = runner.run()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.check()
    bench_yardstick.unit()
    samples = []
    with bench_yardstick.Sampler() as sampler:
        while not samples or time.perf_counter() - start < args.seconds:
            before = len(sampler.units)
            wall = runner.run()
            samples.append(wall - sum(sampler.units[before:]))
            runner.check()
    units = sampler.units

    result = {"samples": samples, "warm_up_s": warm_up, "units": units,
              "run_s": bench_yardstick.normalized(samples, units),
              "peak_rss_mb": peak_rss_mb}
    if args.trace:
        metrics, traced, differing = traced_runs(runner, args.spans)
        result.update(layer_metrics=metrics, traced_s=traced,
                      counts_differing=differing)
    result.update(attempted=runner.attempted, failures=runner.failures,
                  environment=bench_env.environment())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
