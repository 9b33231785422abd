import configparser
import functools
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import proxbound as pb
from proxbound import cli, proxgrad, proxlinear


CORRIDOR_CFG = """\
[problem]
kind = additive
smooth = corridor(dim=10)
penalty = zero()
x0 = const(value=3)
seed = 1

[solver]
method = proxgrad
t0 = 0.5
eps = 1e-10
max_iter = 100

[diagnostics]
constants = true
samples = 2000
nu = inf
tail_rate = true

[output]
dir = {out}
"""


def write_cfg(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_minimal_config(tmp_path):
    cfg = cli.parse_config(write_cfg(tmp_path, CORRIDOR_CFG.format(out=tmp_path)))
    assert cfg.kind == "additive"
    assert cfg.method == "proxgrad"
    assert cfg.t0 == 0.5
    assert cfg.constants and cfg.samples == 2000


def test_parse_rejects_bad_q(tmp_path):
    # prox-linear takes no backtracking factor: any q is an unknown key
    for q in ("1.5", "0.5"):
        text = CORRIDOR_CFG.format(out=tmp_path).replace(
            "method = proxgrad", f"method = proxlinear\nq = {q}")
        with pytest.raises(pb.ConfigError) as err:
            cli.parse_config(write_cfg(tmp_path, text))
        assert "unknown key 'q' in [solver]" in err.value.violations


def test_parse_collects_all_violations(tmp_path):
    text = """\
[problem]
kind = mystery
penalty = absvalue(lambda=0.1)
bogus = 1

[solver]
method = nothing
max_iter = 0
eps = -1
"""
    with pytest.raises(pb.ConfigError) as err:
        cli.parse_config(write_cfg(tmp_path, text))
    joined = "\n".join(err.value.violations)
    assert "bogus" in joined
    assert "kind" in joined
    assert "method" in joined
    assert "max_iter must be finite and > 0" in joined
    assert "eps" in joined


def test_parse_missing_matrix_file(tmp_path):
    text = """\
[problem]
kind = additive
smooth = quadratic(file=/nonexistent/A.txt,rhs=/nonexistent/b.txt)
penalty = zero()

[solver]
method = proxgrad
"""
    with pytest.raises(pb.ConfigError) as err:
        cli.parse_config(write_cfg(tmp_path, text))
    assert any("/nonexistent/A.txt" in v for v in err.value.violations)


def test_parse_missing_config_file():
    with pytest.raises(pb.ConfigError):
        cli.parse_config("/nonexistent/config.ini")


def test_env_seed_is_not_read(tmp_path, monkeypatch):
    # [problem] seed is the one seed setting; the environment cannot move
    # it, so no exported variable makes a run use other samples
    path = write_cfg(tmp_path, CORRIDOR_CFG.format(out=tmp_path))
    for value in ("777", "notanint"):
        monkeypatch.setenv("PROXBOUND_SEED", value)
        cfg = cli.parse_config(path)
        assert cfg.seed == 1 and cfg.echo["problem.seed"] == "1"


def test_run_corridor_experiment(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, CORRIDOR_CFG.format(out=out))
    code = cli.main(["run", path])
    captured = capsys.readouterr().out
    assert code == 0
    assert "iterations=1" in captured
    assert "FAIL" not in captured
    report = (out / "report.txt").read_text()
    assert "CHECK converged: PASS" in report
    assert "CHECK descent_inequality: PASS" in report
    # the corridor's minimizer set is known exactly: nothing to converge
    assert "CHECK reference_converged: PASS slack=inf" in report
    assert (out / "trace.csv").exists()
    constants = (out / "constants.txt").read_text()
    assert "alpha_hat=" in constants and "gamma_hat=" in constants


@pytest.mark.parametrize("growth", [None, 1.25], ids=["too-few", "growing"])
def test_tail_rate_check_verdicts(tmp_path, monkeypatch, growth):
    # the corridor run reaches its flat bottom (gap 0) at once, so too few
    # tail gaps are left to fit and the check passes vacuously; a fit to
    # gaps that grow by 1.25 per step gives a rate above 1, a tail that
    # does not decrease, and FAILs with slack 1 - rate
    if growth is not None:
        fit = pb.diagnostics.fit_tail_rate
        trace = pb.IterationTrace(("k", "phi"))
        trace.data = {"k": list(range(40)),
                      "phi": list(growth ** np.arange(40.0))}
        monkeypatch.setattr(pb.diagnostics, "fit_tail_rate",
                            lambda tr, phi_star, fraction:
                            fit(trace, 0.0, fraction))
    path = write_cfg(tmp_path, CORRIDOR_CFG.format(out=tmp_path / "out"))
    assert cli.main(["run", path, "--quiet"]) == (0 if growth is None else 1)
    lines = [ln for ln in (tmp_path / "out" / "report.txt").read_text()
             .splitlines() if ln.startswith("CHECK tail_rate: ")]
    assert len(lines) == 1
    slack = float(lines[0].split("slack=")[1])
    if growth is None:
        assert lines[0] == "CHECK tail_rate: PASS slack=inf"
    else:
        assert "FAIL" in lines[0]
        assert slack == pytest.approx(1.0 - growth, abs=1e-9)


# a composite constants run whose pool pulls rows toward S (nu = gap0) and
# keeps the maps of the first 2000 of its 2100 rows for L and gamma
COMPOSITE_CONSTANTS_CFG = """\
[problem]
kind = composite
map = quadraticmap(rows=20,cols=10,seed=7,curvature=0.3)
h = absvalue(lambda=1)
penalty = zero
x0 = const(value=2)

[solver]
method = proxlinear
eps = 1e-10
max_iter = 300
inner_tol = 1e-11

[diagnostics]
constants = true
samples = 2100

[output]
dir = {out}
"""


# the lasso-constants benchmark workload at its first seed
LASSO_CONSTANTS_CFG = """\
[problem]
kind = additive
smooth = quadratic(rows=20,cols=10,seed=42)
penalty = absvalue(lambda=0.1)
seed = 42

[solver]
method = proxgrad
eps = 1e-10

[diagnostics]
constants = true
samples = 10000
sandwich = true
tail_rate = true
"""


def test_rerun_is_byte_identical(tmp_path):
    for i, text in enumerate((CORRIDOR_CFG, COMPOSITE_CONSTANTS_CFG)):
        out1, out2 = tmp_path / f"o1-{i}", tmp_path / f"o2-{i}"
        path = write_cfg(tmp_path, text.format(out=out1))
        assert cli.main(["run", path, "--quiet"]) == 0
        assert cli.main(["run", path, "--quiet", "--out", str(out2)]) == 0
        for name in ("trace.csv", "constants.txt", "report.txt"):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, name
    constants = (out1 / "constants.txt").read_text()
    assert "map_eval_rows=" in constants
    assert "pool_shrink_rounds=0" not in constants


def test_fault_injection_wrong_beta(tmp_path):
    text = """\
[problem]
kind = additive
smooth = quadratic(rows=20,cols=10,seed=42)
penalty = absvalue(lambda=0.1)
beta_override = 16.0

[solver]
method = proxgrad
eps = 1e-8
max_iter = 300
"""
    out = tmp_path / "bad"
    path = write_cfg(tmp_path, text)
    code = cli.main(["run", path, "--quiet", "--out", str(out)])
    assert code == 1
    report = (out / "report.txt").read_text()
    failing = [ln for ln in report.splitlines()
               if ln.startswith("CHECK descent_inequality")]
    assert failing and "FAIL" in failing[0]
    assert float(failing[0].split("slack=")[1]) < 0


def report_checks(out):
    """{check name: (PASS or FAIL, slack)} from a run's report.txt."""
    checks = {}
    for line in (out / "report.txt").read_text().splitlines():
        if line.startswith("CHECK "):
            name, rest = line[len("CHECK "):].split(": ", 1)
            word, slack = rest.split(" slack=")
            checks[name] = (word, float(slack))
    return checks


def assert_only_check_fails(path, out, name):
    """run exits 1 and `name` is its one FAIL, with a negative slack."""
    assert cli.main(["run", path, "--quiet", "--out", str(out)]) == 1
    checks = report_checks(out)
    word, slack = checks.pop(name)
    assert word == "FAIL" and slack < 0.0
    assert all(word == "PASS" for word, _ in checks.values()), checks


SANDWICH_CFG = LASSO_CONSTANTS_CFG.replace(
    "constants = true\nsamples = 10000\n", "").replace(
    "tail_rate = true", "sandwich_points = 20")


# the step-length band of the sandwich, at s = 0.5/beta:
# (1 - beta s)|G_s| <= |x - prox_{s phi}(x)|/s <= (1 + beta s)|G_s|. An oracle
# that returns x itself breaks the lower side, one that moves ten times as
# far as the true prox point the upper
@pytest.mark.parametrize("name,scale", [("sandwich_lower", 0.0),
                                        ("sandwich_upper", 10.0)])
def test_perturbed_prox_oracle_fails_the_sandwich(tmp_path, monkeypatch,
                                                  name, scale):
    path = write_cfg(tmp_path, SANDWICH_CFG)
    assert cli.main(["run", path, "--quiet", "--out",
                     str(tmp_path / "true")]) == 0
    oracle = pb.diagnostics._prox_point_batch

    def perturbed(problem, X, t, inner_tol):
        return X + scale * (oracle(problem, X, t, inner_tol) - X)

    monkeypatch.setattr(pb.diagnostics, "_prox_point_batch", perturbed)
    assert_only_check_fails(path, tmp_path / "out", name)


# the robust-constants instance with no diagnostics switched on
COMPOSITE_SOLVE_CFG = COMPOSITE_CONSTANTS_CFG.format(out="o").replace(
    "constants = true\nsamples = 2100\n", "")


def composite_solve_cfg(tmp_path):
    return write_cfg(tmp_path, COMPOSITE_SOLVE_CFG)


def test_zero_stationarity_distance_fails_half_bound(tmp_path, monkeypatch):
    # half_bound checks dist(0, d phi(x_k)) >= |G_t(x_k)|/2 at every
    # iterate; a distance oracle that reports 0 everywhere breaks it
    path = composite_solve_cfg(tmp_path)
    assert cli.main(["run", path, "--quiet", "--out",
                     str(tmp_path / "true")]) == 0
    monkeypatch.setattr(pb.diagnostics, "dist_to_stationarity",
                        lambda problem, X: np.zeros(len(X)))
    assert_only_check_fails(path, tmp_path / "out", "half_bound")


def test_negative_decrease_residual_fails_sufficient_decrease(tmp_path,
                                                              monkeypatch):
    # a step whose phi dropped by less than (sigma/2)|G_t|^2 has a negative
    # decrease residual; one injected into the trace fails the check
    path = composite_solve_cfg(tmp_path)
    solve = cli.run_prox_linear

    def short_step(problem, x0, cfg):
        trace = solve(problem, x0, cfg)
        trace.data["decrease_residual"][0] = -1e-3
        return trace

    monkeypatch.setattr(cli, "run_prox_linear", short_step)
    assert_only_check_fails(path, tmp_path / "out", "sufficient_decrease")


def test_check_subcommand(tmp_path):
    path = write_cfg(tmp_path, CORRIDOR_CFG.format(out=tmp_path))
    assert cli.main(["check", path]) == 0
    assert cli.main(["check", "/nonexistent.ini"]) == 2


def test_usage_errors():
    assert cli.main([]) == 2


def test_composite_experiment(tmp_path):
    text = """\
[problem]
kind = composite
penalty = zero()
h = absvalue(lambda=1)
map = quadraticmap(rows=20,cols=10,seed=7,curvature=0.3)
x0 = const(value=2)

[solver]
method = proxlinear
eps = 1e-9
max_iter = 200
inner_tol = 1e-11

[diagnostics]
tail_rate = true
"""
    out = tmp_path / "comp"
    path = write_cfg(tmp_path, text)
    code = cli.main(["run", path, "--quiet", "--out", str(out)])
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "CHECK sufficient_decrease: PASS" in report
    assert "CHECK certificate_formula: PASS" in report
    assert "CHECK half_bound: PASS" in report
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == ("k,phi,gnorm,t_accepted,inner_iters,inner_newton,"
                      "decrease_residual,certificate,elapsed_s")


def test_runtime_error_exit_code(tmp_path, capsys, monkeypatch):
    # a subproblem that its dual ascent cannot solve within the inner cap
    # is a runtime error (exit 3), not a check failure
    monkeypatch.setattr(proxlinear, "INNER_CAP", 3)
    text = """\
[problem]
kind = composite
penalty = zero()
h = absvalue(lambda=1)
map = quadraticmap(rows=4,cols=2,seed=5,curvature=0.5)
x0 = const(value=2)

[solver]
method = proxlinear
eps = 1e-10
max_iter = 50
"""
    path = write_cfg(tmp_path, text)
    assert cli.main(["run", path, "--quiet", "--out",
                     str(tmp_path / "err")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: subproblem dual ascent stalled")
    assert err.count("\n") == 1


def test_report_written_without_diagnostics(tmp_path):
    text = """\
[problem]
kind = additive
smooth = corridor(dim=3)
penalty = zero()
x0 = const(value=2)

[solver]
method = proxgrad
t0 = 0.5
"""
    out = tmp_path / "plain"
    path = write_cfg(tmp_path, text)
    assert cli.main(["run", path, "--quiet", "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "status=Converged" in report and "iterations=" in report
    # constants file exists but is empty when diagnostics are off
    assert (out / "constants.txt").read_text() == ""


COMPOSITE_CFG = """\
[problem]
kind = composite
penalty = zero()
h = {h}
map = quadraticmap(rows=4,cols=2,seed=5,curvature=0.5)

[solver]
method = proxlinear
sigma_policy = {sigma_policy}
max_iter = 50
"""


@pytest.mark.parametrize("h,sigma_policy,violation", [
    ("absvalue(lambda=1)", "fixed(sigma",
     "[solver] sigma_policy: malformed sigma_policy string: 'fixed(sigma'"),
    ("bogus(lambda=1)", "adaptive", "[problem] h: unknown penalty kind"),
    ("box(lo=-1,hi=1)", "adaptive",
     "[problem] h must be a finite Lipschitz penalty, got BoxIndicator"),
], ids=["sigma_unclosed", "h_unknown", "h_not_finite"])
@pytest.mark.parametrize("command", ["check", "run"])
def test_bad_h_or_sigma_policy_is_a_config_error(tmp_path, capsys, h,
                                                 sigma_policy, violation,
                                                 command):
    path = write_cfg(tmp_path, COMPOSITE_CFG.format(
        h=h, sigma_policy=sigma_policy))
    assert cli.main([command, path, "--quiet", "--out", str(tmp_path / "o")]
                    if command == "run" else [command, path]) == 2
    err = capsys.readouterr().err
    assert f"config error: {violation}" in err
    assert "Traceback" not in err


ADDITIVE_CFG = """\
[problem]
kind = additive
smooth = {smooth}
penalty = absvalue(lambda=0.1)
x0 = {x0}

[solver]
method = {method}
max_iter = 50
"""


# each of these passed `check` and then made `run` exit 1 with a traceback
@pytest.mark.parametrize("text,violation", [
    (ADDITIVE_CFG.format(smooth="quadratic(rows=5,cols=3,seed=1)",
                         x0="const(value=abc)", method="proxgrad"),
     "[problem] x0: const value=abc must be finite"),
    (COMPOSITE_CFG.format(h="absvalue(lambda=1)", sigma_policy="adaptive")
     .replace("quadraticmap(rows=4,cols=2,seed=5,curvature=0.5)",
              "bogusmap(rows=20)"),
     "[problem] map: unknown map kind 'bogusmap'"),
    (ADDITIVE_CFG.format(smooth="quadratic(rows=abc,cols=3,seed=1)",
                         x0="zeros", method="proxgrad"),
     "[problem] smooth: quadratic rows=abc must be an integer >= 1"),
    (COMPOSITE_CFG.format(h="absvalue(lambda=1)", sigma_policy="adaptive")
     .replace("method = proxlinear", "method = proxgrad"),
     "[solver] method proxgrad does not solve kind = composite"),
    (ADDITIVE_CFG.format(smooth="quadratic(rows=5,cols=3,seed=1)",
                         x0="zeros", method="proxlinear"),
     "[solver] method proxlinear does not solve kind = additive"),
], ids=["x0_not_a_number", "map_unknown", "smooth_bad_rows",
        "composite_proxgrad", "additive_proxlinear"])
@pytest.mark.parametrize("command", ["check", "run"])
def test_unbuildable_config_is_a_config_error(tmp_path, capsys, text,
                                              violation, command):
    path = write_cfg(tmp_path, text)
    assert cli.main([command, path, "--quiet", "--out", str(tmp_path / "o")]
                    if command == "run" else [command, path]) == 2
    err = capsys.readouterr().err
    assert f"config error: {violation}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_x0_outside_dom_g_is_a_config_error(tmp_path, capsys):
    # check accepted this x0, and run stopped on it with exit 3
    text = ADDITIVE_CFG.format(
        smooth="quadratic(rows=8,cols=4,seed=2)", x0="const(value=-2)",
        method="proxgrad").replace("absvalue(lambda=0.1)",
                                   "box(lo=-0.5,hi=0.5)")
    path = write_cfg(tmp_path, text)
    assert cli.main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err == "config error: [problem] x0 lies outside dom g\n"
    out = tmp_path / "o"
    assert cli.main(["run", path, "--quiet", "--out", str(out)]) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()


def test_retired_proxpoint_method_is_a_config_error(tmp_path, capsys):
    # a config written for the retired proximal point runner must fail
    # check, not run another solver
    path = write_cfg(tmp_path, ADDITIVE_CFG.format(
        smooth="quadratic(rows=5,cols=3,seed=1)", x0="zeros",
        method="proxpoint-oracle"))
    assert cli.main(["check", path]) == 2
    assert capsys.readouterr().err == (
        "config error: [solver] method must be proxgrad|proxlinear\n")


@pytest.mark.parametrize("penalty", [
    "elasticnet(lambda1=0.1,lambda2=0.2)", "huberenvelope(lambda=0.5,mu=0.1)",
    "absvalue(lambda=0.1)"], ids=["elasticnet", "huberenvelope", "absvalue"])
def test_x0_whose_objective_overflows_is_in_the_domain(tmp_path, penalty):
    # g and f overflow at x0 although x0 lies in dom g: check rejected the
    # elastic net's x0 as outside dom g, and both commands printed numpy's
    # overflow warnings
    text = ADDITIVE_CFG.format(smooth="quadratic(rows=5,cols=3,seed=1)",
                               x0="const(value=1e200)", method="proxgrad")
    path = write_cfg(tmp_path, text.replace("absvalue(lambda=0.1)", penalty))
    proc = run_cli_process("check", path)
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    proc = run_cli_process("run", path, "--quiet", "--out",
                           str(tmp_path / "o"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    assert "status=Diverged" in (tmp_path / "o" / "report.txt").read_text()


def test_check_at_the_float_limit_evaluates_no_formula(tmp_path):
    # x0 / mu overflows here: check printed numpy's overflow warning
    text = ADDITIVE_CFG.format(smooth="quadratic(rows=5,cols=3,seed=1)",
                               x0="const(value=1e308)", method="proxgrad")
    path = write_cfg(tmp_path, text.replace(
        "absvalue(lambda=0.1)", "huberenvelope(lambda=0.5,mu=0.1)"))
    proc = run_cli_process("check", path)
    assert proc.returncode == 0 and proc.stderr == ""


# each passed check, and run then reported Diverged at 0 iterations
@pytest.mark.parametrize("role,spec,violation", [
    ("penalty", "absvalue(lambda=nan)", "lambda must lie in (0, inf)"),
    ("penalty", "box(lo=nan,hi=1)", "box requires lo <= hi"),
    ("penalty", "huberenvelope(lambda=1,mu=inf)",
     "huberenvelope mu=inf must be finite"),
    ("h", "absvalue(lambda=nan)", "lambda must lie in (0, inf)"),
    ("h", "checkfunction(lambda=inf,tau=0.5)", "lambda must lie in (0, inf)"),
], ids=["absvalue_nan", "box_nan", "huber_mu_inf", "h_nan", "h_inf"])
def test_non_finite_penalty_parameter_is_a_config_error(tmp_path, role, spec,
                                                        violation):
    text = COMPOSITE_CFG.format(h="absvalue(lambda=1)",
                                sigma_policy="adaptive")
    text = (text.replace("h = absvalue(lambda=1)", f"h = {spec}")
            if role == "h" else text.replace("penalty = zero()",
                                             f"penalty = {spec}"))
    proc = run_cli_process("check", write_cfg(tmp_path, text))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error: [problem] {role}: ")
    assert violation in proc.stderr and "Traceback" not in proc.stderr


# a start whose phi is not finite ends on one k = 0 row with an inf |G_t|:
# proxgrad wrote a NaN |G_t| and final_gnorm here (its residual A x0 - b is
# NaN), and proxlinear exited 3 with numpy's overflow warnings when h's value
# raised on the overflowing c(x0)
@pytest.mark.parametrize("text,phi0", [
    (ADDITIVE_CFG.format(smooth="quadratic(rows=20,cols=10,seed=42)",
                         x0="const(value=1e308)", method="proxgrad"),
     "nan"),
    (COMPOSITE_CFG.format(h="absvalue(lambda=1)", sigma_policy="adaptive")
     .replace("penalty = zero()",
              "penalty = huberenvelope(lambda=0.5,mu=0.1)")
     .replace("[solver]", "x0 = const(value=1e308)\n\n[solver]"),
     "inf"),
], ids=["proxgrad", "proxlinear"])
def test_start_whose_objective_is_not_finite_ends_diverged(tmp_path, text,
                                                           phi0):
    path = write_cfg(tmp_path, text)
    assert run_cli_process("check", path).returncode == 0
    out = tmp_path / "o"
    proc = run_cli_process("run", path, "--quiet", "--out", str(out))
    assert proc.returncode == 1 and proc.stderr == ""
    report = (out / "report.txt").read_text()
    assert "status=Diverged\niterations=0\nfinal_gnorm=inf\n" in report
    assert "CHECK converged: FAIL slack=-inf" in report
    # no step was taken, so no step check PASSes over an empty set of rows
    for name in ("monotone_values", "descent_inequality",
                 "improved_certificate", "sufficient_decrease"):
        assert f"CHECK {name}:" not in report
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert len(rows) == 1
    k, phi, gnorm = rows[0].split(",")[:3]
    assert (k, phi, gnorm) == ("0", phi0, "inf")


@pytest.mark.parametrize("content,violation", [
    ("2 1\n1.0\n2.0\n", "x0 has dim 2, expected 3"),
    ("1.0\n2.0\n1.0\n", "first line must be 'rows cols'"),
], ids=["wrong_length", "no_header"])
def test_unloadable_x0_file_is_a_config_error(tmp_path, content, violation):
    x0 = tmp_path / "x0.txt"
    x0.write_text(content)
    text = ADDITIVE_CFG.format(smooth="quadratic(rows=5,cols=3,seed=1)",
                               x0=f"file(path={x0})", method="proxgrad")
    with pytest.raises(pb.ConfigError) as err:
        cli.parse_config(write_cfg(tmp_path, text))
    assert len(err.value.violations) == 1
    assert err.value.violations[0].startswith("[problem] ")
    assert violation in err.value.violations[0]


def test_parse_config_builds_the_instance(tmp_path):
    cfg = cli.parse_config(write_cfg(tmp_path, ADDITIVE_CFG.format(
        smooth="quadratic(rows=5,cols=3,seed=1)", x0="const(value=2)",
        method="proxgrad")))
    assert isinstance(cfg.problem, pb.AdditiveProblem)
    assert cfg.problem.dim == 3 and np.array_equal(cfg.x0, np.full(3, 2.0))


def run_cli_process(*args):
    """`python -m proxbound args` from this checkout's src."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-m", "proxbound", *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_python_dash_m_runs_the_cli(tmp_path):
    path = write_cfg(tmp_path, CORRIDOR_CFG.format(out=tmp_path / "o"))
    runs = [(["check", path], 0), (["run", path, "--quiet"], 0),
            (["bogus", path], 2)]
    for args, code in runs:
        proc = run_cli_process(*args)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
    assert (tmp_path / "o" / "report.txt").exists()


def test_proxgrad_t0_above_one_over_beta_runs_without_stderr(tmp_path):
    # t0 = 10 exceeds 1/beta = 0.0304: run clamps it once to 1/beta, so
    # neither the solve nor the reference solve warns, and the run is the
    # one with t0 unset
    traces = []
    for name, text in (("t0", LASSO_CONSTANTS_CFG.replace(
            "eps = 1e-10", "eps = 1e-10\nt0 = 10")),
                       ("unset", LASSO_CONSTANTS_CFG)):
        out = tmp_path / name
        proc = run_cli_process("run", write_cfg(tmp_path, text, f"{name}.ini"),
                               "--quiet", "--out", str(out))
        assert (proc.returncode, proc.stderr) == (0, ""), name
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_proxlinear_t0_above_one_over_L_beta_is_the_run_with_t0_unset(
        tmp_path, capsys):
    # on the robust-constants instance 1/(L beta) = 0.1228: the solve clamps
    # t0 = 1e3 and t0 = 1e200 to it, takes no search, and writes the trace
    # of the run with t0 unset (a subproblem at t = 1e200 is beyond the
    # dual ascent's reach)
    traces = []
    for t0 in ("1e200", "1e3", None):
        text = COMPOSITE_SOLVE_CFG
        if t0 is not None:
            text = text.replace("inner_tol = 1e-11",
                                f"inner_tol = 1e-11\nt0 = {t0}")
        out = tmp_path / str(t0)
        assert cli.main(["run", write_cfg(tmp_path, text), "--quiet",
                         "--out", str(out)]) == 0, t0
        assert capsys.readouterr().err == "", t0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1] == traces[2]
    rows = traces[2].decode().splitlines()
    assert len(rows) == 38 and rows[1].split(",")[3] == "0.12281657921946453"


def test_diverging_run_reports_status_without_traceback(tmp_path):
    # check accepts it, then the declared beta is ~3e4 times too small for
    # the true f, and steps of t0 = 1000 overflow: run must report the
    # divergence (exit 1, failed checks), not raise from a deep call
    text = ADDITIVE_CFG.format(smooth="quadratic(rows=20,cols=10,seed=42)",
                               x0="zeros", method="proxgrad").replace(
        "max_iter = 50", "t0 = 1000").replace(
        "x0 = zeros", "x0 = zeros\nbeta_override = 0.001")
    path = write_cfg(tmp_path, text)
    out = tmp_path / "div"
    assert run_cli_process("check", path).returncode == 0
    proc = run_cli_process("run", path, "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "status=Diverged" in proc.stdout
    report = (out / "report.txt").read_text()
    assert "status=Diverged" in report
    for name in ("converged", "monotone_values", "descent_inequality",
                 "improved_certificate"):
        assert f"CHECK {name}: FAIL" in report
    assert (out / "trace.csv").read_text().splitlines()[-1].startswith("34,")


def test_diverging_run_with_diagnostics_ends_on_its_verdict(tmp_path):
    # the diagnostics would step from the overflowing iterates with the same
    # too-small beta; after a diverged solve they are skipped, and the run
    # ends on the failed converged check
    text = ADDITIVE_CFG.format(smooth="quadratic(rows=20,cols=10,seed=42)",
                               x0="zeros", method="proxgrad").replace(
        "max_iter = 50", "t0 = 1000").replace(
        "x0 = zeros", "x0 = zeros\nbeta_override = 0.001")
    path = write_cfg(tmp_path, text + "\n[diagnostics]\nconstants = true\n"
                     "sandwich = true\ntail_rate = true\n")
    out = tmp_path / "div"
    start = time.perf_counter()
    proc = run_cli_process("run", path, "--out", str(out))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "runtime error:" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "status=Diverged" in proc.stdout
    assert "CHECK converged: FAIL" in proc.stdout
    assert (out / "constants.txt").read_text() == ""
    assert elapsed < 5.0


@pytest.mark.parametrize("ref_max_iter,code", [(3, 1), (None, 0)],
                         ids=["capped", "default"])
def test_reference_status_is_checked(tmp_path, capsys, monkeypatch,
                                     ref_max_iter, code):
    # tail_rate needs phi*, so the run solves for a reference; one that
    # stops short of its tolerance fails the run instead of silently
    # serving as x*
    if ref_max_iter is not None:
        monkeypatch.setattr(pb.diagnostics, "compute_reference",
                            functools.partial(pb.diagnostics.compute_reference,
                                              max_iter=ref_max_iter))
    text = ADDITIVE_CFG.format(smooth="quadratic(rows=20,cols=10,seed=42)",
                               x0="zeros", method="proxgrad").replace(
        "max_iter = 50", "max_iter = 1000")
    path = write_cfg(tmp_path, text + "\n[diagnostics]\ntail_rate = true\n")
    out = tmp_path / "ref"
    assert cli.main(["run", path, "--quiet", "--out", str(out)]) == code
    assert capsys.readouterr().err == ""
    lines = [ln for ln in (out / "report.txt").read_text().splitlines()
             if ln.startswith("CHECK reference_converged: ")]
    assert len(lines) == 1
    slack = float(lines[0].split("slack=")[1])
    assert (("PASS" in lines[0]) == (slack >= 0.0) == (ref_max_iter is None))


def test_unconverged_reference_stops_the_diagnostics(tmp_path, capsys,
                                                     monkeypatch):
    # constants, sandwich and tail rate are all measured around x*; a
    # reference that stops short of its tolerance FAILs the run and nothing
    # is measured around it
    monkeypatch.setattr(pb.diagnostics, "compute_reference",
                        functools.partial(pb.diagnostics.compute_reference,
                                          max_iter=3))
    text = ADDITIVE_CFG.format(smooth="quadratic(rows=20,cols=10,seed=42)",
                               x0="zeros", method="proxgrad").replace(
        "max_iter = 50", "max_iter = 1000")
    path = write_cfg(tmp_path, text + "\n[diagnostics]\nconstants = true\n"
                     "sandwich = true\ntail_rate = true\n")
    out = tmp_path / "ref"
    assert cli.main(["run", path, "--quiet", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    assert (out / "constants.txt").read_text() == ""
    checks = [ln for ln in (out / "report.txt").read_text().splitlines()
              if ln.startswith("CHECK ")]
    assert any(ln.startswith("CHECK reference_converged: FAIL")
               for ln in checks)
    assert not [ln for ln in checks
                if ln.startswith(("CHECK constants_", "CHECK sandwich_",
                                  "CHECK tail_rate"))]


SMALL_NU_LASSO = """\
[problem]
kind = additive
smooth = quadratic(rows=20,cols=10,seed=42)
penalty = absvalue(lambda=0.1)
seed = 42

[solver]
method = proxgrad
eps = 1e-10

[diagnostics]
constants = true
samples = 10000
sandwich = true
tail_rate = true
nu = {nu}
"""


def test_nonpositive_measured_constant_is_a_readable_runtime_error(
        tmp_path, capsys, monkeypatch):
    # a reduction that comes out at or below 0 (a roundoff-level gap or
    # distance) reaches the guard: check accepts the config, and run must
    # exit 3 with one line naming the constant
    monkeypatch.setattr(pb.diagnostics, "_growth_min", lambda *args: -15.7)
    path = write_cfg(tmp_path, SMALL_NU_LASSO.format(nu="2e-6"))
    assert cli.main(["check", path]) == 0
    capsys.readouterr()
    assert cli.main(["run", path, "--quiet", "--out",
                     str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("runtime error: ") and "alpha_hat" in err
    assert "ValueError:" not in err and "nu = 2e-06" in err


@pytest.mark.parametrize("nu", ["2e-4", "2e-6"])
def test_small_nu_alpha_stays_above_the_strong_convexity_modulus(tmp_path,
                                                                  nu):
    # f is mu-strongly convex with mu = lambda_min(A^T A) and g is convex,
    # so alpha >= mu; the roundoff floor keeps the gaps that cancellation
    # would push below it out of the min
    path = write_cfg(tmp_path, SMALL_NU_LASSO.format(nu=nu))
    out = tmp_path / "o"
    assert cli.main(["run", path, "--quiet", "--out", str(out)]) == 0
    consts = dict(line.split("=", 1) for line in
                  (out / "constants.txt").read_text().splitlines())
    A, _ = pb.random_least_squares(20, 10, 42)
    mu = np.linalg.eigvalsh(A.T @ A)[0]
    assert float(consts["alpha_hat"]) >= mu * (1.0 - 1e-6)
    assert int(consts["alpha_samples"]) >= 10
    assert int(consts["alpha_roundoff_skips"]) > 0


# the vapnik-solve instance with h = checkfunction, perfbench's KNOWN_BAD
# checkfunction config
KNOWN_BAD_CFG = """\
[problem]
kind = composite
map = quadraticmap(rows=20,cols=10,seed=7,curvature=0.3)
h = checkfunction(lambda=1,tau=0.3)
penalty = absvalue(lambda=0.05)
x0 = const(value=2)

[solver]
method = proxlinear
eps = 1e-10
max_iter = 2000
inner_tol = 1e-11
"""


def test_run_at_the_floating_point_floor_reports_stalled(tmp_path):
    # with h = checkfunction the model's required decrease (t/2)|G_t|^2
    # falls below ulp(phi) at |G_t| ~ 8e-8, long before eps = 1e-10: the
    # run ends as Stalled (exit 1)
    out = tmp_path / "stall"
    start = time.perf_counter()
    proc = run_cli_process("run", write_cfg(tmp_path, KNOWN_BAD_CFG),
                           "--out", str(out))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "runtime error:" not in proc.stderr
    assert "status=Stalled" in proc.stdout
    assert "CHECK converged: FAIL" in proc.stdout
    last = (out / "trace.csv").read_text().splitlines()[-1].split(",")
    assert 0.0 < float(last[2]) < 1e-6
    assert elapsed < 30.0


# ROADMAP item 13's floor configs, the solve alone: the fuzzer's composite
# configs by number, and the KNOWN_BAD one. Each row is (map, h, g, x0, the
# status, the iterations, the checks that FAIL, the item that owns them).
# Every Stalled row is the floor defect that item 13 owns; a change that
# flips a verdict updates this table
FLOOR_FUZZ_CFG = """\
[problem]
kind = composite
map = {map}
h = {h}
penalty = {g}
x0 = {x0}

[solver]
method = proxlinear
eps = 1e-9
max_iter = 3000
"""
CHECK_FN = "checkfunction(lambda=1,tau=0.3)"
HUBER_ENV = "huberenvelope(lambda=0.5,mu=0.1)"
VAPNIK = "epsiloninsensitive(lambda=1,epsilon=0.1)"
FLOOR_VERDICTS = {
    "1": ("quadraticmap(rows=6,cols=6,seed=1,curvature=0.3)", CHECK_FN,
          "zero", "const(value=1)", "Stalled", 317, ["converged"], 13),
    "9": ("affine(rows=12,cols=5,seed=9)", CHECK_FN,
          "elasticnet(lambda1=0.1,lambda2=0.2)", "zeros", "Stalled", 79,
          ["converged"], 13),
    "11": ("affine(rows=12,cols=5,seed=11)", HUBER_ENV, VAPNIK,
           "const(value=-2)", "Stalled", 18, ["converged"], 13),
    "19": ("quadraticmap(rows=8,cols=4,seed=19,curvature=0.3)", VAPNIK,
           "absvalue(lambda=0.1)", "const(value=1)", "Stalled", 49,
           ["converged"], 13),
    "5": ("affine(rows=4,cols=8,seed=5)", "absvalue(lambda=0.1)", HUBER_ENV,
          "const(value=1)", "Converged", 10, [], None),
    "26": ("quadraticmap(rows=6,cols=6,seed=26,curvature=0.3)", HUBER_ENV,
           VAPNIK, "const(value=-2)", "Converged", 10, [], None),
    "known_bad": (None, None, None, None, "Stalled", 449, ["converged"], 13),
}


@pytest.mark.parametrize("case", list(FLOOR_VERDICTS))
def test_floor_config_verdicts(tmp_path, capsys, case):
    *spec, status, iterations, fails, owner = FLOOR_VERDICTS[case]
    text = KNOWN_BAD_CFG if case == "known_bad" else FLOOR_FUZZ_CFG.format(
        **dict(zip(("map", "h", "g", "x0"), spec)))
    out = tmp_path / "o"
    code = cli.main(["run", write_cfg(tmp_path, text), "--quiet", "--out",
                     str(out)])
    assert capsys.readouterr().err == ""
    assert code == (1 if fails else 0)
    report = (out / "report.txt").read_text().splitlines()
    assert report[:2] == [f"status={status}", f"iterations={iterations}"]
    assert [name for name, (word, _) in report_checks(out).items()
            if word == "FAIL"] == fails
    assert (owner == 13) == (status == "Stalled")


def test_unexpected_exception_is_a_runtime_error(tmp_path, capsys,
                                                 monkeypatch):
    def broken(cfg):
        raise RuntimeError("solver state lost\nat step 3")

    monkeypatch.setattr(cli, "run_experiment", broken)
    path = write_cfg(tmp_path, CORRIDOR_CFG.format(out=tmp_path / "o"))
    assert cli.main(["run", path, "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err == "runtime error: RuntimeError: solver state lost at step 3\n"
    assert not (tmp_path / "o").exists()


def with_spec(base, old, new):
    """The config base with spec old replaced by new."""
    assert old in base
    return base.replace(old, new)


ADDITIVE_QUADRATIC = ADDITIVE_CFG.format(
    smooth="quadratic(rows=5,cols=3,seed=1)", x0="zeros", method="proxgrad")
COMPOSITE_QUADRATIC = COMPOSITE_CFG.format(h="absvalue(lambda=1)",
                                           sigma_policy="adaptive")
QUADRATIC_MAP = "quadraticmap(rows=4,cols=2,seed=5,curvature=0.5)"
# files under {dir}: a 3 x 2 matrix, a 3 x 2 matrix whose A^T A overflows,
# and a length-3 right-hand side
SPEC_FILES = {"A.txt": "3 2\n1 0\n0 1\n1 1\n",
              "Abig.txt": "3 2\n1e200 0\n0 1\n1 1\n",
              "b.txt": "3 1\n1\n-1\n0.5\n"}


# each of these passed `check` and then either ran to a false PASS, ran
# with a negative certificate, spun in an inner loop or exited 3 from a deep
# call, or it ran with a parameter that one of its spec's forms ignored or
# overrode; the violation names the key
@pytest.mark.parametrize("text,violation", [
    (ADDITIVE_CFG.format(smooth="quadratic(rows=20,cols=10,seed=42)",
                         x0="zeros", method="proxgrad")
     + "\n[diagnostics]\nsandwich = true\nsandwich_t = -1\n",
     "[diagnostics] sandwich_t must be finite and > 0"),
    (COMPOSITE_CFG.format(h="absvalue(lambda=1)", sigma_policy="adaptive")
     .replace("penalty = zero()", "penalty = zero()\nbeta_override = -1"),
     "[problem] beta_override must be finite and > 0"),
    (COMPOSITE_CFG.format(h="epsiloninsensitive(lambda=1,epsilon=0.1)",
                          sigma_policy="adaptive") + "inner_tol = nan\n",
     "[solver] inner_tol must be finite and > 0"),
    # [problem] seed is the one seed setting
    (CORRIDOR_CFG.format(out="o").replace("nu = inf", "nu = inf\nseed = 3"),
     "unknown key 'seed' in [diagnostics]"),
    (ADDITIVE_CFG.format(smooth="quadratic(rows=5,cols=3,seed=1)",
                         x0="zeros", method="proxgrad")
     + "\n[diagnostics]\nsandwich = true\nsandwich_points = 0\n",
     "[diagnostics] sandwich_points must be finite and > 0"),
    (ADDITIVE_CFG.format(smooth="quadratic(rows=5,cols=3,seed=1)",
                         x0="zeros\nbeta_override = 0", method="proxgrad"),
     "[problem] beta_override must be finite and > 0"),
    (ADDITIVE_CFG.format(smooth="quadratic(rows=5,cols=3,seed=1)",
                         x0="const(value=nan)", method="proxgrad"),
     "[problem] x0: const value=nan must be finite"),
    (with_spec(ADDITIVE_QUADRATIC, "quadratic(rows=5,cols=3,seed=1)",
               "huberloss(file={dir}/A.txt,rhs={dir}/b.txt,mu=nan)"),
     "[problem] smooth: huberloss mu=nan must be finite"),
    (with_spec(COMPOSITE_QUADRATIC, QUADRATIC_MAP,
               "quadraticmap(rows=2,cols=2,seed=1,curvature=inf)"),
     "[problem] map: quadraticmap curvature=inf must be finite"),
    (with_spec(COMPOSITE_QUADRATIC, QUADRATIC_MAP,
               "quadraticmap(rows=2,cols=2,seed=1,curvature=1e300)"),
     "[problem] map: declared modulus jac_beta = nan is not finite"),
    (with_spec(ADDITIVE_QUADRATIC, "quadratic(rows=5,cols=3,seed=1)",
               "quadratic(file={dir}/Abig.txt,rhs={dir}/b.txt)"),
     "[problem] smooth: declared modulus beta = "),
    (with_spec(ADDITIVE_QUADRATIC, "quadratic(rows=5,cols=3,seed=1)",
               "quadratic(rows=3,cols=0,seed=1)"),
     "[problem] smooth: quadratic cols=0 must be an integer >= 1"),
    (with_spec(ADDITIVE_QUADRATIC, "quadratic(rows=5,cols=3,seed=1)",
               "quadratic(rows=0,cols=2,seed=1)"),
     "[problem] smooth: quadratic rows=0 must be an integer >= 1"),
    (with_spec(ADDITIVE_QUADRATIC, "quadratic(rows=5,cols=3,seed=1)",
               "corridor(dim=0)"),
     "[problem] smooth: corridor dim=0 must be an integer >= 1"),
    (with_spec(COMPOSITE_QUADRATIC, QUADRATIC_MAP, "affine(identity=0)"),
     "[problem] map: affine identity=0 must be an integer >= 1"),
    # 71 PiB: more than any address space, so numpy refuses it at once
    (with_spec(ADDITIVE_QUADRATIC, "quadratic(rows=5,cols=3,seed=1)",
               "quadratic(rows=100000000,cols=100000000,seed=1)"),
     "[problem] smooth: Unable to allocate "),
    (with_spec(ADDITIVE_QUADRATIC, "quadratic(rows=5,cols=3,seed=1)",
               "quadratic(rows=3,cols=2,seed=1,bogus=7)"),
     "[problem] smooth: quadratic takes (rows, cols, seed) or "
     "(file, rhs), got (rows, cols, seed, bogus)"),
    (with_spec(COMPOSITE_QUADRATIC, QUADRATIC_MAP,
               "affine(rows=2,cols=2,seed=1,junk=1)"),
     "[problem] map: affine takes "),
    (with_spec(ADDITIVE_QUADRATIC, "quadratic(rows=5,cols=3,seed=1)",
               "quadratic(rows=3,cols=2,seed=1,file={dir}/A.txt,"
               "rhs={dir}/b.txt)"),
     "[problem] smooth: quadratic takes "),
    (with_spec(COMPOSITE_QUADRATIC, QUADRATIC_MAP,
               "affine(identity=2,rows=9,seed=3)"),
     "[problem] map: affine takes "),
    (with_spec(ADDITIVE_QUADRATIC, "absvalue(lambda=0.1)",
               "absvalue(lambda=0.1,lambda=7)"),
     "[problem] penalty: parameter 'lambda' given twice in "),
    (with_spec(ADDITIVE_QUADRATIC, "x0 = zeros", "x0 = const(value=1,junk=2)"),
     "[problem] x0: const takes (value), got (value, junk)"),
    (with_spec(COMPOSITE_QUADRATIC, "sigma_policy = adaptive",
               "sigma_policy = fixed(sigma=1,foo=2)"),
     "[solver] sigma_policy: fixed takes (sigma), got (sigma, foo)"),
], ids=["sandwich_t_negative", "composite_beta_negative", "inner_tol_nan",
        "diag_seed_key", "sandwich_points_zero",
        "additive_beta_zero", "x0_const_nan", "huberloss_mu_nan",
        "curvature_inf", "curvature_overflow", "file_gram_overflow",
        "cols_zero", "rows_zero", "corridor_dim_zero", "identity_zero",
        "unallocatable_size",
        "unknown_smooth_parameter", "unknown_map_parameter",
        "two_smooth_forms", "two_map_forms", "duplicated_parameter",
        "unknown_x0_parameter", "unknown_sigma_parameter"])
def test_check_rejects_values_run_cannot_use(tmp_path, capsys, text,
                                             violation):
    for name, content in SPEC_FILES.items():
        (tmp_path / name).write_text(content)
    path = write_cfg(tmp_path, text.replace("{dir}", str(tmp_path)))
    out = tmp_path / "o"
    for args in (["check", path], ["run", path, "--quiet", "--out", str(out)]):
        assert cli.main(args) == 2, args[0]
        err = capsys.readouterr().err
        assert f"config error: {violation}" in err, args[0]
        assert all(line.startswith("config error: ")
                   for line in err.splitlines()), err
    assert not out.exists()


# the admissibility sweep: tiny instances, one per method, with every
# diagnostic on, so that each scalar key is read by the run
SWEEP_DIAGNOSTICS = """
[diagnostics]
constants = true
samples = 20
sandwich = true
sandwich_points = 4
tail_rate = true
"""
SWEEP_BASES = {
    "proxgrad": ADDITIVE_CFG.format(smooth="quadratic(rows=5,cols=3,seed=1)",
                                    x0="zeros", method="proxgrad")
    + SWEEP_DIAGNOSTICS,
    "proxlinear": COMPOSITE_CFG.format(h="absvalue(lambda=1)",
                                       sigma_policy="adaptive")
    + SWEEP_DIAGNOSTICS}
SWEEP_EDGES = ("0", "-1", "nan", "inf", "abc")
# admissible values per scalar key, the first of them the one that the
# single-key cases try
SWEEP_VALID = {
    ("problem", "f_convex"): ("false", "true"),
    ("problem", "beta_override"): ("5", "2"),
    ("problem", "seed"): ("5", "0"),
    ("solver", "t0"): ("0.2", "1e200"),
    ("solver", "eps"): ("1e-6", "1e-9"),
    ("solver", "max_iter"): ("7", "50"),
    ("solver", "inner_tol"): ("1e-8", "1e-11"),
    ("diagnostics", "constants"): ("yes", "no"),
    ("diagnostics", "samples"): ("3", "20"),
    ("diagnostics", "nu"): ("0.5", "gap0", "inf"),
    ("diagnostics", "sandwich"): ("off", "on"),
    ("diagnostics", "sandwich_points"): ("1", "4"),
    ("diagnostics", "sandwich_t"): ("0.02", "0.3"),
    ("diagnostics", "tail_rate"): ("on", "off"),
    ("diagnostics", "tail_fraction"): ("0.1", "1"),
}


def sweep_cases(seed=0, n_mixed=30, keys_per_mixed=3):
    """(method, {key: value}, mixed) triples: every edge value and the
    first admissible value of every scalar key alone, then seeded draws
    that set several keys at once, each to one of its admissible values,
    and in half of the draws one of them to an edge value."""
    keys = sorted(SWEEP_VALID)
    methods = sorted(SWEEP_BASES)
    cases = [(method, {key: value}, False) for method in methods
             for key in keys for value in SWEEP_EDGES + SWEEP_VALID[key][:1]]
    rng = np.random.default_rng(seed)
    for _ in range(n_mixed):
        method = methods[rng.integers(len(methods))]
        picked = [keys[i] for i in rng.choice(len(keys), size=keys_per_mixed,
                                               replace=False)]
        draw = {key: str(rng.choice(SWEEP_VALID[key])) for key in picked}
        if rng.integers(2):
            draw[picked[0]] = str(rng.choice(SWEEP_EDGES))
        cases.append((method, draw, True))
    return cases


def test_check_accepts_only_values_run_can_use(tmp_path, capsys,
                                               monkeypatch):
    assert set(SWEEP_VALID) == set(cli._SCALARS)
    # an accepted config must never spin: a capped inner loop is a
    # readable runtime error
    monkeypatch.setattr(proxgrad, "INNER_CAP", 2000)
    monkeypatch.setattr(proxlinear, "INNER_CAP", 2000)
    ran = ran_mixed = 0
    for n, (method, overrides, mixed) in enumerate(sweep_cases()):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(SWEEP_BASES[method])
        for (section, key), value in overrides.items():
            parser[section][key] = value
        path = tmp_path / f"case{n}.ini"
        with open(path, "w") as fh:
            parser.write(fh)
        code = cli.main(["check", str(path)])
        err = capsys.readouterr().err
        case = f"{method} {overrides}"
        assert code in (0, 2), case
        if code == 2:
            assert err.startswith("config error: "), case
            continue
        ran += 1
        ran_mixed += mixed
        assert_run_contract(path, tmp_path / f"out{n}", capsys, case)
    # the 21 admissible single-key cases of each method, and most of the
    # several-key draws (18 of 30)
    assert ran - ran_mixed == 42 and ran_mixed >= 15


def assert_run_contract(path, out, capsys, case):
    """`run` on an accepted config exits 0, 1 or 3, never with a
    traceback."""
    code = cli.main(["run", str(path), "--quiet", "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 3), case
    assert "Traceback" not in err, case
    if code == 3:
        # one readable line, not the `runtime error: <Type>: ...` form
        # of an exception the run did not expect
        assert err.count("\n") == 1, case
        assert err.startswith("runtime error: "), case
        assert not re.match(r"runtime error: [A-Z]\w*: ", err), case


# admissible nu far below the sampled gaps: the alpha estimator then sees
# few or no samples inside the level set, or a negative growth ratio
@pytest.mark.parametrize("nu", ["2e-4", "2e-6", "1e-8", "1e-12"])
@pytest.mark.parametrize("method", sorted(SWEEP_BASES))
def test_small_nu_keeps_the_run_contract(tmp_path, capsys, monkeypatch,
                                         method, nu):
    monkeypatch.setattr(proxgrad, "INNER_CAP", 2000)
    monkeypatch.setattr(proxlinear, "INNER_CAP", 2000)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(SWEEP_BASES[method])
    parser["diagnostics"]["nu"] = nu
    path = tmp_path / "case.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    assert cli.main(["check", str(path)]) == 0
    capsys.readouterr()
    assert_run_contract(path, tmp_path / "out", capsys, f"{method} nu={nu}")
