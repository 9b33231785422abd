"""Verification of one `proxbound run` output directory.

A run passes when the CLI exited 0, report.txt says status=Converged with
the stored iteration count, every CHECK line (and every check_* line of
constants.txt) passes and none of the stored checks is missing, trace.csv
holds one row per iterate, and each stored constant is reproduced.

Tolerance. Iteration counts and statuses must match exactly: a count moves
only when a change carries the final |G_t| across eps, and at the reference
commit the closest final |G_t| (huber-solve) sits 0.1% below eps. Each
compared constant may drift by RTOL_PER_EPS * eps relative to its stored
value, eps being the run's [solver] eps (1e-10 on every workload, so
1e-9). Every quantity a constant is built from (the reference point, |G_t|,
the subproblem and prox-point solves) is solved to eps or tighter, and a
constant is a ratio of two of them taken at an extremal sample; the factor
10 covers the ratio and the min/max selection. For scale: tightening
robust-constants' inner_tol from 1e-11 to 1e-12 moves gamma_hat by 7e-13
relative. tail_rate is not compared: on the superlinear composite tail it
is fitted to gaps near the roundoff of phi and moves by 27% under that same
change, so only its CHECK line counts.
"""

import math
import os

RTOL_PER_EPS = 10.0
COMPARED_CONSTANTS = ("alpha_hat", "gamma_hat", "L_hat_sub", "L_hat_prox",
                      "nu")


def _read_lines(path):
    with open(path, encoding="ascii") as fh:
        return fh.read().splitlines()


def summarize(out_dir):
    """Status, iteration count, checks, constants and trace shape of a run.

    Lines this parser does not know are ignored, so counters added to the
    reports later do not fail a run; a missing or unreadable file raises
    OSError/UnicodeDecodeError, and a malformed known line ValueError.
    """
    summary = {"status": None, "iterations": None, "checks": {},
               "constants": {}, "trace_rows": None, "final_gnorm": None}
    for line in _read_lines(os.path.join(out_dir, "report.txt")):
        if line.startswith("status="):
            summary["status"] = line[len("status="):]
        elif line.startswith("iterations="):
            summary["iterations"] = int(line[len("iterations="):])
        elif line.startswith("CHECK "):
            name, _, rest = line[len("CHECK "):].partition(": ")
            summary["checks"][name] = rest.split(" ", 1)[0]
    for line in _read_lines(os.path.join(out_dir, "constants.txt")):
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"constants.txt: malformed line {line!r}")
        if key.startswith("check_"):
            summary["checks"][f"constants.txt:{key}"] = (
                "PASS" if value.split(" ", 1)[0] == "pass" else "FAIL")
        elif key in COMPARED_CONSTANTS:
            summary["constants"][key] = float(value)
    rows = _read_lines(os.path.join(out_dir, "trace.csv"))
    header = rows[0].split(",") if rows else []
    summary["trace_rows"] = len(rows) - 1
    if "gnorm" in header and len(rows) > 1:
        last = rows[-1].split(",")
        summary["final_gnorm"] = float(last[header.index("gnorm")])
    return summary


def reference_entry(out_dir, eps):
    """What the reference stores of a run made at the reference commit."""
    s = summarize(out_dir)
    return {"status": s["status"], "iterations": s["iterations"],
            "checks": sorted(s["checks"]), "constants": s["constants"],
            "eps": eps}


def check_run(exit_code, out_dir, ref):
    """List of problems with a run's outputs; empty when the run passes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        s = summarize(out_dir)
    except (OSError, UnicodeDecodeError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    if s["status"] != "Converged":
        problems.append(f"status {s['status']!r}")
    if s["iterations"] != ref["iterations"]:
        problems.append(f"iterations {s['iterations']} != {ref['iterations']}")
    for name, word in sorted(s["checks"].items()):
        if word != "PASS":
            problems.append(f"check {name}: {word}")
    for name in ref["checks"]:
        if name not in s["checks"]:
            problems.append(f"check {name} missing")
    if s["iterations"] is not None and s["trace_rows"] != s["iterations"] + 1:
        problems.append(f"trace.csv has {s['trace_rows']} rows for "
                        f"{s['iterations']} iterations")
    if s["final_gnorm"] is None or not s["final_gnorm"] <= ref["eps"]:
        problems.append(f"trace.csv final gnorm {s['final_gnorm']}")
    rtol = RTOL_PER_EPS * ref["eps"]
    for key, want in sorted(ref["constants"].items()):
        got = s["constants"].get(key)
        if got is None:
            problems.append(f"constant {key} missing")
        elif not (math.isfinite(got) and abs(got - want) <= rtol * abs(want)):
            problems.append(f"constant {key}={got!r}, reference {want!r}")
    return problems
