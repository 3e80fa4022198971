import os

# one BLAS thread per process: the acceptance suite runs two training workers
# on two cores, and oversubscribed OpenBLAS thrashing dwarfs the math
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from fescycle import biomech as bm


# acceptance-gate fixtures ranked by the training behind them; the gate runs
# after the unit tests, and within it the criteria that need the fewest
# training runs come first, so a broken unit shows in seconds and the cheap
# criteria report before the long learning-curve study
GATE_FIXTURE_COST = {"nominal_agents": 1, "finetune_results": 2, "curve_study": 3}


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(items):
    def cost(item):
        if item.path.name != "test_acceptance.py":
            return 0
        return 1 + max((GATE_FIXTURE_COST.get(f, 0) for f in item.fixturenames), default=0)

    items.sort(key=cost)


@pytest.fixture(scope="session")
def nominal_2m():
    return bm.validate_config(bm.nominal_config(2))


@pytest.fixture(scope="session")
def nominal_3m():
    return bm.validate_config(bm.nominal_config(3))


def vector_rel_err(analytic, numeric) -> float:
    """Norm-based relative error between two gradient collections."""
    a = np.concatenate([np.ravel(x) for x in analytic])
    b = np.concatenate([np.ravel(x) for x in numeric])
    return float(np.linalg.norm(a - b) / (np.linalg.norm(a) + np.linalg.norm(b) + 1e-12))


def finite_difference(params, value_fn, h):
    """Central differences of a scalar function w.r.t. a list of arrays."""
    out = []
    for p in params:
        flat = p.ravel()
        fd = np.empty_like(flat)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            up = value_fn()
            flat[i] = old - h
            down = value_fn()
            flat[i] = old
            fd[i] = (up - down) / (2.0 * h)
        out.append(fd.reshape(p.shape))
    return out
