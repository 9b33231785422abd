"""The benchmark's workloads and the configs it generates from a seed.

Each workload is one `proxbound run` config. The benchmark seed selects the
config's `[problem] seed`: the workload's base seed plus
offsets[seed mod len(offsets)], where the offsets are 0..VARIANTS-1 unless a
workload lists others. Seed 0 reproduces the base configs exactly. The
instance seeds inside the smooth/map specs stay fixed, because the work of a
solve changes up to tenfold between instance seeds (huber-solve takes 1.2k
to 17.5k iterations over quadratic seeds 2-6, vapnik-solve 2.5 to 29 s over
map seeds 7-11 on a 2-vCPU virtual machine), which would drown every timing
in the choice of instance. The `[problem] seed` drives the diagnostics
samples; the two solve-only workloads do not read it, so every seed poses
them the same solve.
"""

from dataclasses import dataclass

VARIANTS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    base_seed: int
    template: str
    why: str
    offsets: tuple = tuple(range(VARIANTS))

    def problem_seed(self, seed):
        """The `[problem] seed` that benchmark seed `seed` selects."""
        return self.base_seed + self.offsets[seed % len(self.offsets)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="lasso-constants",
        base_seed=42,
        template="""\
[problem]
kind = additive
smooth = quadratic(rows=20,cols=10,seed=42)
penalty = absvalue(lambda=0.1)
seed = {seed}

[solver]
method = proxgrad
eps = 1e-10

[diagnostics]
constants = true
samples = 10000
sandwich = true
tail_rate = true
""",
        why=("The ROADMAP additive baseline. Batched penalty evaluation and "
             "per-sample dist_to_stationarity do most of the work. The run "
             "never touches proxlinear or the dual ascent."),
    ),
    Workload(
        name="robust-constants",
        base_seed=7,
        template="""\
[problem]
kind = composite
map = quadraticmap(rows=20,cols=10,seed=7,curvature=0.3)
h = absvalue(lambda=1)
penalty = zero
x0 = const(value=2)
seed = {seed}

[solver]
method = proxlinear
eps = 1e-10
max_iter = 300
inner_tol = 1e-11

[diagnostics]
constants = true
samples = 2000
tail_rate = true
""",
        why=("The ROADMAP composite baseline. The gamma estimator runs 500 "
             "subproblem solves one after another, which is where a batched "
             "dual ascent shows. Batched penalty work is nearly absent."),
        # [problem] seeds 20 and 25 fail a check on every run; they are
        # listed in KNOWN_BAD
        offsets=tuple(o for o in range(VARIANTS + 1) if o not in (13, 18)),
    ),
    Workload(
        name="huber-solve",
        base_seed=0,
        template="""\
[problem]
kind = additive
smooth = quadratic(rows=10,cols=10,seed=2)
penalty = huberenvelope(lambda=0.05,mu=0.1)
seed = {seed}

[solver]
method = proxgrad
eps = 1e-10
max_iter = 200000
""",
        why=("Uses the layers one point at a time: the solver loop, "
             "single-point prox/value, one dist_to_stationarity per iterate "
             "and a 17k-row trace.csv. A penalty or diagnostics refactor that "
             "speeds batches but slows single calls shows here."),
    ),
    Workload(
        name="vapnik-solve",
        base_seed=0,
        template="""\
[problem]
kind = composite
map = quadraticmap(rows=20,cols=10,seed=7,curvature=0.3)
h = epsiloninsensitive(lambda=1,epsilon=0.1)
penalty = absvalue(lambda=0.05)
x0 = const(value=2)
seed = {seed}

[solver]
method = proxlinear
eps = 1e-10
max_iter = 2000
inner_tol = 1e-11
""",
        why=("Solves one subproblem at a time and exercises the l1 dual term "
             "and a nonzero g prox, which robust-constants uses neither of. A "
             "batched dual ascent that slows the B=1 path shows here."),
    ),
)}

# Configs left out because every run of them fails. They are recorded with
# each result so that the failures stay visible.
KNOWN_BAD = (
    {"config": "vapnik-solve with h = checkfunction(lambda=1,tau=0.3)",
     "outcome": ("exits 3 after 105-155 s: the dual ascent stalls at "
                 "residual 7.05e-10 for both inner_tol 1e-10 and 1e-11"),
     "left_for": "ROADMAP items 3/4 (batched dual ascent, CLI failure contract)"},
    {"config": "robust-constants with [problem] seed = 20 or 25",
     "outcome": ("exits 1: CHECK constants_alpha_vs_gamma fails, alpha_hat "
                 "1.3845 resp. 1.3619 against (1 - 1e-3)/gamma_hat, slack "
                 "-0.151 resp. -0.216; 2 of the 21 seeds 7-27 fail"),
     "left_for": ("not investigated: the sampled alpha_hat at these seeds "
                  "breaks the converse growth check on a nonconvex "
                  "composite instance")},
)


def make_config(name, seed):
    """Config text of workload `name` for benchmark seed `seed`."""
    w = WORKLOADS[name]
    return w.template.format(seed=w.problem_seed(seed))
