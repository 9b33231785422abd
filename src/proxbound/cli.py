"""Config-driven experiment runner.

Configs are flat INI-style files with [problem], [solver], [diagnostics] and
[output] sections. Runs are deterministic given the config: all randomness
is seeded, and no solver keeps wall time (the elapsed_s column of
trace.csv is 0 on every row), so reruns are byte-identical.

Exit codes: 0 all checks pass, 1 check failure, 2 usage/config error,
3 runtime error.
"""

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics as diag
from .errors import ConfigError, ProxboundError
from .penalties import PENALTY_KINDS
from .proxgrad import AdditiveProblem, ProxGradConfig, run_prox_gradient
from .proxlinear import (FINITE_H_KINDS, CompositeProblem, ProxLinearConfig,
                         run_prox_linear)
from .smooth import MAP_KINDS, SMOOTH_KINDS, load_dense_vector
from .specs import build_from_spec
from .vectors import as_vector

# the spec catalogs of the two keys that only the runner reads
# (proxbound.specs): x0 is a function dim -> start, sigma_policy the fixed
# sigma, or None for adaptive
X0_KINDS = {
    "zeros": [((), lambda: np.zeros)],
    "const": [(("value",), lambda value: lambda dim: np.full(dim, value))],
    "file": [(("path",), lambda path: lambda dim: as_vector(
        load_dense_vector(path), dim, "x0"))],
}
SIGMA_KINDS = {
    "adaptive": [((), lambda: None)],
    "fixed": [(("sigma",), float)],
}


@dataclass
class ExperimentConfig:
    kind: str = "additive"
    penalty_spec: str = ""
    smooth_spec: str = ""
    h_spec: str = ""
    map_spec: str = ""
    f_convex: bool = True
    beta_override: float = None
    x0_spec: str = "zeros"
    seed: int = 0
    method: str = "proxgrad"
    t0: float = None
    eps: float = 1e-10
    max_iter: int = 20000
    inner_tol: float = 1e-10
    sigma: float = None
    constants: bool = False
    samples: int = 10000
    nu_spec: object = "gap0"  # "gap0" or a float
    sandwich: bool = False
    sandwich_points: int = 100
    sandwich_t: float = None
    tail_rate: bool = False
    tail_fraction: float = 0.5
    out_dir: str = "out"
    echo: dict = field(default_factory=dict)
    # built by parse_config from the specs above
    problem: object = None
    x0: np.ndarray = None


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_nu(text):
    return text if text == "gap0" else float(text)


# (requirement, predicate) pairs; each predicate states what is allowed, so
# NaN fails every one of them
_INF = float("inf")
_POSITIVE = ("must be finite and > 0", lambda v: 0 < v < _INF)
_NONNEGATIVE = ("must be a nonnegative integer", lambda v: v >= 0)

# every scalar key: (section, key) -> (ExperimentConfig field, parser,
# admissibility rule or None); a key left out keeps the field's default
_SCALARS = {
    ("problem", "f_convex"): ("f_convex", _parse_bool, None),
    ("problem", "beta_override"): ("beta_override", float, _POSITIVE),
    ("problem", "seed"): ("seed", int, _NONNEGATIVE),
    ("solver", "t0"): ("t0", float, _POSITIVE),
    ("solver", "eps"): ("eps", float, _POSITIVE),
    ("solver", "max_iter"): ("max_iter", int, _POSITIVE),
    ("solver", "inner_tol"): ("inner_tol", float, _POSITIVE),
    ("diagnostics", "constants"): ("constants", _parse_bool, None),
    ("diagnostics", "samples"): ("samples", int, _POSITIVE),
    ("diagnostics", "nu"): ("nu_spec", _parse_nu, (
        "must be gap0, inf or > 0", lambda v: v == "gap0" or v > 0)),
    ("diagnostics", "sandwich"): ("sandwich", _parse_bool, None),
    ("diagnostics", "sandwich_points"): ("sandwich_points", int, _POSITIVE),
    ("diagnostics", "sandwich_t"): ("sandwich_t", float, _POSITIVE),
    ("diagnostics", "tail_rate"): ("tail_rate", _parse_bool, None),
    ("diagnostics", "tail_fraction"): ("tail_fraction", float, (
        "must lie in (0,1]", lambda v: 0 < v <= 1)),
}

_SPEC_KEYS = {
    "problem": {"kind", "penalty", "smooth", "h", "map", "x0"},
    "solver": {"method", "sigma_policy"},
    "diagnostics": set(),
    "output": {"dir"},
}
_KNOWN_KEYS = {section: keys | {k for s, k in _SCALARS if s == section}
               for section, keys in _SPEC_KEYS.items()}


def _admit(where, raw, parse, rule, violations):
    """parse(raw) if it meets rule = (requirement, predicate), else None
    with the reason added to violations."""
    try:
        value = parse(raw)
    except ValueError as exc:
        violations.append(f"{where}: {exc}")
        return None
    if rule is not None and not rule[1](value):
        violations.append(f"{where} {rule[0]}")
        return None
    return value


# MemoryError: a size numpy cannot allocate
_BUILD_ERRORS = (ValueError, ProxboundError, OSError, MemoryError)


def _build_spec(text, what, catalog, where, violations):
    """What spec text names in catalog (proxbound.specs), or None with the
    reason added to violations."""
    try:
        return build_from_spec(text, what, catalog)
    except _BUILD_ERRORS as exc:
        violations.append(f"{where}: {exc}")
        return None


def parse_config(path):
    """Read and fully validate an experiment config.

    Builds every spec it accepts through its catalog (PENALTY_KINDS for
    penalty and h, SMOOTH_KINDS, MAP_KINDS, X0_KINDS, SIGMA_KINDS; the
    format and the parameter rules are proxbound.specs'), the problem
    instance and x0 included (kept on the returned config), and checks
    that the method suits the problem kind, so a config that passes can be
    run. Collects every violation found (unknown keys, missing keys, bad
    values, specs that do not build) before raising.
    """
    if not os.path.isfile(path):
        raise ConfigError([f"config file not found: {path}"])
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError([f"config parse error: {exc}"]) from exc

    violations = []
    cfg = ExperimentConfig()

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            violations.append(f"unknown section [{section}]")
            continue
        for key, raw in parser[section].items():
            if key not in _KNOWN_KEYS[section]:
                violations.append(f"unknown key {key!r} in [{section}]")
                continue
            cfg.echo[f"{section}.{key}"] = raw
            if (section, key) in _SCALARS:
                attr, parse, rule = _SCALARS[section, key]
                value = _admit(f"[{section}] {key}", raw.strip(), parse, rule,
                               violations)
                if value is not None:
                    setattr(cfg, attr, value)

    def get(section, key, default=None):
        if parser.has_option(section, key):
            return parser.get(section, key).strip()
        return default

    if not parser.has_section("problem"):
        violations.append("missing required section [problem]")
    if not parser.has_section("solver"):
        violations.append("missing required section [solver]")

    cfg.kind = (get("problem", "kind") or "").lower()
    if cfg.kind not in ("additive", "composite"):
        violations.append("[problem] kind must be 'additive' or 'composite'")
    built = {}  # the instance's pieces: g, then f or h and c

    def required(piece, key, what, catalog, need=""):
        text = get("problem", key) or ""
        setattr(cfg, f"{key}_spec", text)
        if not text:
            violations.append(f"[problem] {key} is required{need}")
        else:
            built[piece] = _build_spec(text, what, catalog,
                                       f"[problem] {key}", violations)

    required("g", "penalty", "penalty", PENALTY_KINDS)
    if cfg.kind == "additive":
        required("f", "smooth", "smooth", SMOOTH_KINDS, " for additive")
    elif cfg.kind == "composite":
        required("h", "h", "penalty", PENALTY_KINDS, " for composite")
        h = built.get("h")
        if h is not None and not isinstance(h, FINITE_H_KINDS):
            violations.append("[problem] h must be a finite Lipschitz "
                              f"penalty, got {type(h).__name__}")
        required("c", "map", "map", MAP_KINDS, " for composite")
    cfg.x0_spec = get("problem", "x0", cfg.x0_spec)
    x0 = _build_spec(cfg.x0_spec, "x0", X0_KINDS, "[problem] x0", violations)

    cfg.method = (get("solver", "method") or "").lower()
    if cfg.method not in ("proxgrad", "proxlinear"):
        violations.append("[solver] method must be proxgrad|proxlinear")
    elif cfg.kind in ("additive", "composite") and (
            (cfg.method == "proxlinear") != (cfg.kind == "composite")):
        violations.append(
            f"[solver] method {cfg.method} does not solve kind = {cfg.kind} "
            "(proxgrad solves additive problems, proxlinear composite ones)")
    cfg.sigma = _build_spec(get("solver", "sigma_policy", "adaptive"),
                            "sigma_policy", SIGMA_KINDS,
                            "[solver] sigma_policy", violations)

    cfg.out_dir = get("output", "dir", cfg.out_dir)

    if not violations:
        try:
            cfg.problem = _build_problem(cfg, **built)
            cfg.x0 = x0(cfg.problem.dim)
        except _BUILD_ERRORS as exc:
            violations.append(f"[problem] {exc}")
        else:
            if not cfg.problem.g.in_domain(cfg.x0):
                violations.append("[problem] x0 lies outside dom g")
    if violations:
        raise ConfigError(violations)
    return cfg


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------

@dataclass
class CheckLine:
    name: str
    passed: bool
    slack: float

    def render(self):
        word = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name}: {word} slack={self.slack:.17g}"


@dataclass
class RunReport:
    config_echo: dict
    status: str
    iterations: int
    final_gnorm: float
    final_certificate: float
    trace: object
    constants: object = None
    checks: list = field(default_factory=list)

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def summary_lines(self):
        lines = [f"status={self.status}",
                 f"iterations={self.iterations}",
                 f"final_gnorm={self.final_gnorm:.17g}",
                 f"final_certificate={self.final_certificate:.17g}"]
        for key in sorted(self.config_echo):
            lines.append(f"config {key}={self.config_echo[key]}")
        return lines


def _build_problem(cfg, g, f=None, h=None, c=None):
    """The instance from the built g and f (additive) or h and c."""
    if cfg.kind == "additive":
        if cfg.beta_override is not None:
            f.beta = cfg.beta_override
        return AdditiveProblem(f=f, g=g, f_convex=cfg.f_convex)
    return CompositeProblem(g=g, h=h, c=c, beta=cfg.beta_override)


def _tolerance_slack(values, floor):
    """Smallest margin of values >= -floor (pass when nonnegative)."""
    return float(np.min(np.asarray(values) + floor)) if len(values) else 0.0


# |G_t| the reference solve must reach for its x* to count as converged
REFERENCE_TOL = 1e-12


def run_experiment(cfg):
    """Run the solver on the instance parse_config built and evaluate every
    enabled check."""
    problem, x0 = cfg.problem, cfg.x0
    checks = []
    if cfg.method == "proxlinear":
        trace = run_prox_linear(problem, x0, ProxLinearConfig(
            t0=cfg.t0, eps=cfg.eps, max_iter=cfg.max_iter,
            inner_tol=cfg.inner_tol, sigma=cfg.sigma))
    else:
        trace = run_prox_gradient(problem, x0, ProxGradConfig(
            t=cfg.t0, max_iter=cfg.max_iter, eps=cfg.eps))
    # the step the solver took, t0 clamped to what the theory licenses
    t_used = trace.meta["t"]
    beta = problem.beta

    # a diverged solve's verdict is its failed converged check; nothing can
    # be measured around its overflowing iterates
    diagnose = trace.status != "Diverged"
    phis = trace.column("phi")
    gnorms = trace.column("gnorm")
    phi_scale = 1.0 + float(np.max(np.abs(phis)))

    checks.append(CheckLine("converged", trace.status == "Converged",
                            cfg.eps - float(gnorms[-1])))
    # a run that diverged on its start row took no step: its step checks
    # would PASS over no rows, so they are left out
    stepped = diagnose or len(phis) > 1
    if stepped:
        drops = phis[:-1] - phis[1:]
        checks.append(CheckLine("monotone_values",
                                bool(np.all(drops >= -1e-12 * phi_scale)),
                                _tolerance_slack(drops, 1e-12 * phi_scale)))
    if stepped and cfg.method == "proxgrad":
        resid = trace.column("descent_residual")[:-1]
        slack = _tolerance_slack(resid, 1e-10 * phi_scale)
        checks.append(CheckLine("descent_inequality", slack >= 0.0, slack))
        # a diverged run's iterates overflow here; their inf distance FAILs
        # the check, which says more than a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            d = diag.dist_to_stationarity(problem, trace.iterates[1:])
        margins = (1.0 + beta * t_used) * gnorms[:-1] - d
        slack = _tolerance_slack(margins, 1e-8)
        checks.append(CheckLine("improved_certificate", slack >= 0.0, slack))
    elif stepped:
        resid = trace.column("decrease_residual")[:-1]
        slack = _tolerance_slack(resid, 1e-10 * phi_scale)
        checks.append(CheckLine("sufficient_decrease", slack >= 0.0, slack))
    # a diverged prox-linear run ends on its last finite iterate, and its
    # certificates are left out with the rest of the diagnostics
    if cfg.method == "proxlinear" and diagnose:
        expected = ((3.0 * problem.L * beta * trace.column("t_accepted") + 2.0)
                    * gnorms)
        diff = float(np.max(np.abs(expected - trace.column("certificate"))))
        checks.append(CheckLine("certificate_formula", diff == 0.0, -diff))
        d = diag.dist_to_stationarity(problem, trace.iterates)
        slack = _tolerance_slack(d - 0.5 * gnorms, 1e-8)
        checks.append(CheckLine("half_bound", slack >= 0.0, slack))

    constants = None
    ref = None
    if diagnose and (cfg.constants or cfg.sandwich or cfg.tail_rate):
        ref = diag.analytic_reference(problem)
        if ref is None:
            ref = diag.compute_reference(problem, x0=trace.final_x, t=cfg.t0,
                                         tol=REFERENCE_TOL)
            # every constant below is measured around x*: one that is not
            # converged FAILs the run, and nothing is measured around it
            diagnose = ref.status == "Converged"
            checks.append(CheckLine("reference_converged", diagnose,
                                    REFERENCE_TOL - ref.accuracy))
        else:
            checks.append(CheckLine("reference_converged", True, _INF))
    if diagnose and cfg.constants:
        gap0 = float(phis[0] - ref.phi_star)
        nu = cfg.nu_spec
        if nu == "gap0":
            nu = gap0 if gap0 > 0 else float("inf")
        constants = diag.estimate_constants(problem, ref, nu, t_used,
                                            n_samples=cfg.samples,
                                            seed=cfg.seed,
                                            inner_tol=cfg.inner_tol)
        L_eff = 1.0 if cfg.method != "proxlinear" else problem.L
        lbg = L_eff * beta * constants.gamma_hat
        constants.extras["natural_rate_bound"] = 1.0 - 1.0 / (25.0 + 10.0 * lbg)
        bound = diag.iteration_bound(beta, nu, constants.gamma_hat,
                                     float(ref.dist(x0)) ** 2, gap0, cfg.eps)
        constants.extras["iteration_bound"] = bound
        for name, (ok, slack) in constants.checks.items():
            checks.append(CheckLine(f"constants_{name}", ok, slack))
    if diagnose and cfg.sandwich:
        if cfg.method == "proxlinear" or not problem.f_convex:
            checks.append(CheckLine("sandwich_skipped_nonconvex", True,
                                    float("inf")))
        else:
            s_t = cfg.sandwich_t if cfg.sandwich_t is not None else 0.5 / beta
            pts = diag.sample_box(ref, problem.dim, cfg.sandwich_points,
                                  cfg.seed, radius_scale=1.0)
            rep = diag.verify_sandwich(problem, s_t, pts, cfg.inner_tol)
            checks.append(CheckLine("sandwich_lower",
                                    rep.min_lower_slack >= -1e-8,
                                    rep.min_lower_slack + 1e-8))
            checks.append(CheckLine("sandwich_upper",
                                    rep.min_upper_slack >= -1e-8,
                                    rep.min_upper_slack + 1e-8))
    if diagnose and cfg.tail_rate:
        try:
            rate = diag.fit_tail_rate(trace, ref.phi_star, cfg.tail_fraction)
            checks.append(CheckLine("tail_rate", rate < 1.0, 1.0 - rate))
            if constants is not None:
                constants.extras["tail_rate"] = rate
        except ProxboundError:
            # too few tail gaps above roundoff to fit: vacuous pass
            checks.append(CheckLine("tail_rate", True, float("inf")))

    final_cert = float(trace.column("certificate")[-1])
    return RunReport(config_echo=dict(cfg.echo), status=trace.status,
                     iterations=trace.iterations,
                     final_gnorm=float(gnorms[-1]),
                     final_certificate=final_cert, trace=trace,
                     constants=constants, checks=checks)


def emit_report(report, out_dir):
    """Write trace.csv, constants.txt and report.txt into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    lines = report.summary_lines() + [c.render() for c in report.checks]
    paths = []
    for name, text in (
            ("trace.csv", report.trace.to_csv()),
            ("constants.txt", "" if report.constants is None
             else report.constants.to_text()),
            ("report.txt", "\n".join(lines) + "\n")):
        paths.append(os.path.join(out_dir, name))
        with open(paths[-1], "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    return paths


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="proxbound",
        description="Run proximal-method experiments from a config file.")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run an experiment")
    run_p.add_argument("config")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--quiet", action="store_true")
    check_p = sub.add_parser("check", help="validate a config without running")
    check_p.add_argument("config")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 2

    if args.command == "check":
        print(f"{args.config}: OK")
        return 0

    out_dir = args.out if args.out is not None else cfg.out_dir
    try:
        report = run_experiment(cfg)
        emit_report(report, out_dir)
    except ProxboundError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # exit 1 means "a check failed", so no other failure may escape
        # as a traceback
        message = " ".join(str(exc).splitlines())
        print(f"runtime error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 3
    if not args.quiet:
        for line in report.summary_lines():
            print(line)
        for check in report.checks:
            print(check.render())
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
