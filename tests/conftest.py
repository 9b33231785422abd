import numpy as np
import pytest

import proxbound as pb


@pytest.fixture(scope="session")
def lasso42():
    """The 20x10 seed-42 l1-regularized least-squares instance."""
    A, b = pb.random_least_squares(20, 10, 42)
    return pb.AdditiveProblem(f=pb.Quadratic(A, b), g=pb.AbsValue(0.1))


@pytest.fixture(scope="session")
def lasso42_run(lasso42):
    cfg = pb.ProxGradConfig(eps=1e-10, max_iter=50000)
    return pb.run_prox_gradient(lasso42, np.zeros(10), cfg)


@pytest.fixture(scope="session")
def lasso42_ref(lasso42, lasso42_run):
    return pb.compute_reference(lasso42, x0=lasso42_run.final_x, tol=1e-12)


@pytest.fixture(scope="session")
def robust7():
    """Robust regression: l1 outer penalty over quadratically perturbed
    residuals (n=10, m=20, seed 7)."""
    c = pb.random_quadratic_map(20, 10, 7, 0.3)
    return pb.CompositeProblem(g=pb.Zero(), h=pb.AbsValue(1.0), c=c)


@pytest.fixture(scope="session")
def robust7_run(robust7):
    cfg = pb.ProxLinearConfig(eps=1e-10, max_iter=300, inner_tol=1e-11)
    return pb.run_prox_linear(robust7, np.full(10, 2.0), cfg)


@pytest.fixture(scope="session")
def corridor10():
    return pb.AdditiveProblem(f=pb.Corridor(dim=10), g=pb.Zero())


@pytest.fixture(scope="session")
def corridor_affine():
    """Corridor loss composed with an affine map, run via the nonconvex
    code path (f_convex off)."""
    A, b = pb.random_least_squares(15, 8, 21)
    f = pb.Corridor(A=A, b=b)
    return pb.AdditiveProblem(f=f, g=pb.AbsValue(0.05), f_convex=False)


ALL_PENALTIES = {
    "zero": (pb.Zero(), {}),
    "absvalue": (pb.AbsValue(0.7), {"lam": 0.7}),
    "elasticnet": (pb.ElasticNet(0.5, 0.8), {"lam1": 0.5, "lam2": 0.8}),
    "box": (pb.BoxIndicator(-1.2, 0.9), {"lo": -1.2, "hi": 0.9}),
    "epsiloninsensitive": (pb.EpsilonInsensitive(0.9, 0.4),
                           {"lam": 0.9, "eps": 0.4}),
    "checkfunction": (pb.CheckFunction(0.8, 0.3), {"lam": 0.8, "tau": 0.3}),
    "huberenvelope": (pb.HuberEnvelope(0.6, 0.5), {"lam": 0.6, "mu": 0.5}),
}


def counted_prox_maps(monkeypatch, cls):
    """The steps of every _prox_map call on the penalty class cls."""
    steps = []
    prox_map = cls._prox_map

    def counted(self, t):
        steps.append(t)
        return prox_map(self, t)

    monkeypatch.setattr(cls, "_prox_map", counted)
    return steps


@pytest.fixture(params=sorted(ALL_PENALTIES), ids=sorted(ALL_PENALTIES))
def penalty_case(request):
    """(name, penalty, oracle params) triple covering the whole catalog."""
    p, params = ALL_PENALTIES[request.param]
    return request.param, p, params
