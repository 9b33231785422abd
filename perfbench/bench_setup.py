"""Set-up time of one fresh process: import proxbound, parse a config and
build its instance with the public constructors.

Afterwards it runs UNITS yardstick units (bench_yardstick), imported only
then so that numpy's import stays inside the timed set-up, to measure the
machine's speed at that moment.

Usage: python3 perfbench/bench_setup.py CONFIG
Prints one JSON line {"setup_s": seconds, "dim": n, "units": [seconds]}.
"""

import json
import sys
import time

import bench_env


def set_up(path):
    """Seconds to import proxbound, parse `path` and build the instance."""
    t0 = time.perf_counter()
    pb = bench_env.import_proxbound()
    from proxbound import cli
    cfg = cli.parse_config(path)
    g = pb.penalty_from_spec(cfg.penalty_spec)
    if cfg.kind == "additive":
        problem = pb.AdditiveProblem(f=pb.smooth_from_spec(cfg.smooth_spec),
                                     g=g, f_convex=cfg.f_convex)
    else:
        problem = pb.CompositeProblem(g=g, h=pb.penalty_from_spec(cfg.h_spec),
                                      c=pb.map_from_spec(cfg.map_spec))
    return time.perf_counter() - t0, problem.dim


UNITS = 3

if __name__ == "__main__":
    setup_s, dim = set_up(sys.argv[1])
    import bench_yardstick
    units = [bench_yardstick.unit() for _ in range(UNITS)]
    print(json.dumps({"setup_s": setup_s, "dim": dim, "units": units}))
