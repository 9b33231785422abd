"""Tests of the benchmark's own code: span arithmetic, patching, the output
checker, the generated configs and the yardstick.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import signal
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import bench_check  # noqa: E402
import bench_env  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import bench_yardstick  # noqa: E402

bench_env.import_proxbound()
from proxbound import cli  # noqa: E402

BENCHMARK_JSON = os.path.join(bench_env.ROOT, "BENCHMARK.json")
REFERENCE_JSON = os.path.join(os.path.dirname(HERE), "reference.json")

SMALL_CONFIG = """\
[problem]
kind = additive
smooth = quadratic(rows=8,cols=5,seed=1)
penalty = absvalue(lambda=0.1)
seed = 3

[solver]
method = proxgrad
eps = 1e-10

[diagnostics]
constants = true
samples = 300
tail_rate = true
"""


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

def test_self_times_subtract_direct_children_only():
    # root [0,10] > a [1,4] > leaf [2,3];  root > b [5,9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    np.testing.assert_allclose(bench_trace.self_times(parent, start, end),
                               [3.0, 2.0, 1.0, 4.0])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_wrapped_calls_give_calls_total_and_self(monkeypatch):
    monkeypatch.setattr(bench_trace.time, "perf_counter", FakeClock())
    rec = bench_trace.Recorder()
    leaf = bench_trace.wrap(rec, "m.leaf", lambda: None)

    def mid_body():
        leaf()
        leaf()
    mid = bench_trace.wrap(rec, "m.mid", mid_body)
    mid()
    # ticks: mid opens 1, leaf 2-3, leaf 4-5, mid closes 6
    stats = bench_trace.span_stats(rec, 0)
    assert stats["m.mid"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert stats["m.leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_same_name_reentry_joins_outer_span():
    rec = bench_trace.Recorder()

    class Base:
        def value(self):
            return 1

    class Child(Base):
        def value(self):
            return super().value() + 1

    Base.value = bench_trace.wrap(rec, "p.value", Base.value)
    Child.value = bench_trace.wrap(rec, "p.value", Child.value)
    assert Child().value() == 2
    assert bench_trace.span_stats(rec, 0)["p.value"]["calls"] == 1


def test_spans_are_kept_per_run_and_written_out(tmp_path):
    rec = bench_trace.Recorder()
    f = bench_trace.wrap(rec, "m.f", lambda: None)
    f()
    rec.run_id = 1
    f()
    f()
    assert bench_trace.span_stats(rec, 0)["m.f"]["calls"] == 1
    assert bench_trace.span_stats(rec, 1)["m.f"]["calls"] == 2
    path = tmp_path / "spans.npz"
    rec.write_spans(str(path))
    saved = np.load(path)
    assert list(saved["run"]) == [0, 1, 1]
    assert list(saved["names"]) == ["m.f"]


# ---------------------------------------------------------------------------
# patching the package
# ---------------------------------------------------------------------------

def _run_small(tmp_path, out_name="out"):
    config = tmp_path / "small.ini"
    config.write_text(SMALL_CONFIG)
    out = tmp_path / out_name
    code = cli.main(["run", str(config), "--quiet", "--out", str(out)])
    return code, str(out)


def test_install_patches_callers_and_uninstall_restores(tmp_path):
    import proxbound.penalties as P
    originals = (cli.run_prox_gradient, P.SeparablePenalty.value)
    rec = bench_trace.Recorder()
    patches = bench_trace.install(rec)
    try:
        assert cli.run_prox_gradient is not originals[0]
        code, _ = _run_small(tmp_path)
    finally:
        patches.uninstall()
    assert code == 0
    assert (cli.run_prox_gradient, P.SeparablePenalty.value) == originals
    metrics = bench_trace.run_metrics(rec, patches.patched, 0)
    # the CLI's own solve plus compute_reference's
    assert bench_trace.span_stats(rec, 0)["proxgrad.run_prox_gradient"]["calls"] == 2
    assert metrics["proxgrad.iterations"] > 0
    assert metrics["kernels.dual_ascent.calls"] == 0
    assert metrics["proxlinear.solves_per_step"] == 0.0
    assert 0.0 < metrics["diagnostics.accept_ratio"] <= 1.0
    assert metrics["cli.emit_report.bytes"] > 0
    assert metrics["penalties.value_batch.rows"] > 0
    assert metrics["diagnostics.dist_to_stationarity.calls"] > 0


def test_every_catalog_class_defining_a_method_is_wrapped():
    import proxbound.penalties as P

    class Custom(P.AbsValue):
        def value(self, x):
            return super().value(x)
    P.Custom = Custom
    Custom.__module__ = P.__name__
    rec = bench_trace.Recorder()
    patches = bench_trace.install(rec)
    try:
        assert getattr(Custom.value, "__wrapped__", None) is not None
        assert Custom(0.5).value(np.ones(3)) == 1.5
    finally:
        patches.uninstall()
        del P.Custom
    assert bench_trace.span_stats(rec, 0)["penalties.value"]["calls"] == 1


def test_missing_name_gives_missing_metrics_not_a_crash():
    rec = bench_trace.Recorder()
    patches = bench_trace.Patches(rec)
    assert not patches.function("kernels.gone", "_kernels", "gone")
    assert not patches.function("nomodule.f", "nomodule", "f")
    assert not patches.method("smooth.gone", "smooth", "gone")
    metrics = bench_trace.run_metrics(rec, patches.patched, 0)
    assert metrics == {}


def test_two_traced_runs_count_the_same(tmp_path):
    rec = bench_trace.Recorder()
    patches = bench_trace.install(rec)
    try:
        for run_id in range(2):
            rec.run_id = run_id
            assert _run_small(tmp_path, f"out{run_id}")[0] == 0
    finally:
        patches.uninstall()
    assert bench_trace.run_counts(rec, 0) == bench_trace.run_counts(rec, 1)


# ---------------------------------------------------------------------------
# output checker
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("clean")
    code, out = _run_small(tmp)
    assert code == 0
    return out, bench_check.reference_entry(out, 1e-10)


def _corrupt(clean_run, tmp_path, filename, edit):
    out = str(tmp_path / "copy")
    shutil.copytree(clean_run[0], out)
    path = os.path.join(out, filename)
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")
    return bench_check.check_run(0, out, clean_run[1])


def test_clean_run_passes(clean_run):
    out, ref = clean_run
    assert bench_check.check_run(0, out, ref) == []
    assert set(ref["constants"]) >= {"alpha_hat", "gamma_hat", "L_hat_sub"}


def test_nonzero_exit_fails(clean_run):
    assert bench_check.check_run(1, *clean_run) == ["exit code 1"]


def _scale_constant(key, factor):
    def edit(lines):
        out = []
        for line in lines:
            if line.startswith(key + "="):
                value = float(line.split("=", 1)[1]) * factor
                line = f"{key}={value:.17g}"
            out.append(line)
        return out
    return edit


@pytest.mark.parametrize("filename, edit, expect", [
    ("report.txt", lambda ls: [l.replace(": PASS", ": FAIL", 1) for l in ls],
     "FAIL"),
    ("report.txt", lambda ls: [l for l in ls if not l.startswith("CHECK tail")],
     "missing"),
    ("report.txt", lambda ls: [l.replace("iterations=", "iterations=1")
                               for l in ls], "iterations"),
    ("report.txt", lambda ls: [l.replace("Converged", "MaxIter") for l in ls],
     "status"),
    ("report.txt", lambda ls: ls[:1], "iterations"),
    ("constants.txt", _scale_constant("gamma_hat", 1 + 1e-6), "gamma_hat"),
    ("constants.txt", lambda ls: [l for l in ls
                                  if not l.startswith("alpha_hat")],
     "alpha_hat missing"),
    ("constants.txt", lambda ls: ls + ["garbage"], "unreadable"),
    ("constants.txt", lambda ls: [l.replace("=pass", "=fail") for l in ls],
     "FAIL"),
    ("trace.csv", lambda ls: ls[:-1], "rows"),
])
def test_corrupted_output_is_flagged(clean_run, tmp_path, filename, edit,
                                     expect):
    problems = _corrupt(clean_run, tmp_path, filename, edit)
    assert any(expect in p for p in problems), problems


def test_drift_within_tolerance_passes(clean_run, tmp_path):
    edit = _scale_constant("alpha_hat", 1 + 1e-11)
    assert _corrupt(clean_run, tmp_path, "constants.txt", edit) == []


# ---------------------------------------------------------------------------
# workloads, reference and BENCHMARK.json
# ---------------------------------------------------------------------------

EXPECTED_DEFAULTS = {
    "lasso-constants": dict(
        kind="additive", smooth_spec="quadratic(rows=20,cols=10,seed=42)",
        penalty_spec="absvalue(lambda=0.1)", seed=42, method="proxgrad",
        eps=1e-10, max_iter=20000, constants=True, samples=10000,
        sandwich=True, tail_rate=True),
    "robust-constants": dict(
        kind="composite",
        map_spec="quadraticmap(rows=20,cols=10,seed=7,curvature=0.3)",
        h_spec="absvalue(lambda=1)", penalty_spec="zero",
        x0_spec="const(value=2)", seed=7, method="proxlinear", eps=1e-10,
        max_iter=300, inner_tol=1e-11, constants=True, samples=2000,
        sandwich=False, tail_rate=True),
    "huber-solve": dict(
        kind="additive", smooth_spec="quadratic(rows=10,cols=10,seed=2)",
        penalty_spec="huberenvelope(lambda=0.05,mu=0.1)", seed=0,
        method="proxgrad", eps=1e-10, max_iter=200000, constants=False,
        sandwich=False, tail_rate=False),
    "vapnik-solve": dict(
        kind="composite",
        map_spec="quadraticmap(rows=20,cols=10,seed=7,curvature=0.3)",
        h_spec="epsiloninsensitive(lambda=1,epsilon=0.1)",
        penalty_spec="absvalue(lambda=0.05)", x0_spec="const(value=2)",
        method="proxlinear", eps=1e-10, max_iter=2000, inner_tol=1e-11,
        constants=False, sandwich=False, tail_rate=False),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_DEFAULTS))
def test_default_seed_reproduces_the_workload_config(name, tmp_path,
                                                     monkeypatch):
    monkeypatch.delenv("PROXBOUND_SEED", raising=False)
    path = tmp_path / "c.ini"
    path.write_text(bench_workloads.make_config(name, 0))
    cfg = cli.parse_config(str(path))
    for key, want in EXPECTED_DEFAULTS[name].items():
        assert getattr(cfg, key) == want, key


def test_seed_sets_only_the_problem_seed_and_folds():
    for name in bench_workloads.WORKLOADS:
        base = bench_workloads.make_config(name, 0)
        other = bench_workloads.make_config(name, 5)
        changed = [(a, b) for a, b in zip(base.splitlines(),
                                          other.splitlines()) if a != b]
        assert len(changed) == 1 and changed[0][1].startswith("seed = ")
        period = len(bench_workloads.WORKLOADS[name].offsets)
        assert bench_workloads.make_config(name, period + 5) == other


def test_reference_covers_every_selectable_seed():
    with open(REFERENCE_JSON) as fh:
        refs = json.load(fh)
    assert set(refs) == set(bench_workloads.WORKLOADS)
    for name, entries in refs.items():
        w = bench_workloads.WORKLOADS[name]
        assert set(entries) == {str(w.problem_seed(s))
                                for s in range(len(w.offsets))}
        for entry in entries.values():
            assert entry["status"] == "Converged"


def test_benchmark_json_matches_the_code():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench_workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in bench_trace.LAYER_METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "run_s", "setup_s", "peak_rss_mb"}


# ---------------------------------------------------------------------------
# yardstick
# ---------------------------------------------------------------------------

def test_normalized_scales_mean_run_by_nominal_over_mean_unit():
    nominal = bench_yardstick.NOMINAL_S
    # units twice as slow as nominal: the machine ran at half speed
    got = bench_yardstick.normalized([2.0, 4.0], [2 * nominal, 2 * nominal])
    assert got == pytest.approx(1.5)


def test_sampler_interrupts_busy_code_and_restores_the_signal(monkeypatch):
    monkeypatch.setattr(bench_yardstick, "UNIT_ITERS", 20)
    previous = signal.getsignal(signal.SIGALRM)
    with bench_yardstick.Sampler() as sampler:
        end = time.perf_counter() + 10 * bench_yardstick.INTERVAL_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(sampler.units) >= 3
    assert all(u > 0 for u in sampler.units)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
