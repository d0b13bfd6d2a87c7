import os
import time

# One BLAS thread unless the caller asks otherwise; set before numpy is
# first imported, as OpenBLAS reads it once at load.  The suite's matrices
# are at most 256x256, and with the default thread count one eigh of that
# size took 1 s on a loaded 2-core machine (8 ms with one thread).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

from monosplit.demos import deblur_demo, lasso_demo, qp_demo, separation_demo
from monosplit.solver import ERROR_FAMILIES, IterateState, make_policy, solve
from monosplit.system import compute_beta


def run_demo(demo, tol, max_iter, trace_every=1, errors=None):
    policy = make_policy(compute_beta(demo.system))
    init = demo.extras.get("init") or IterateState.zeros(demo.system.layout)
    started = time.perf_counter()
    final, trace, status = solve(demo.system, init, policy,
                                 errors=errors, tol=tol, max_iter=max_iter,
                                 trace_every=trace_every)
    wall = time.perf_counter() - started
    return {"demo": demo, "policy": policy, "final": final, "trace": trace,
            "status": status, "wall": wall}


@pytest.fixture(scope="session")
def lasso_run():
    return run_demo(lasso_demo(), tol=1e-8, max_iter=20000)


@pytest.fixture(scope="session")
def qp_run():
    return run_demo(qp_demo(), tol=1e-8, max_iter=50000)


@pytest.fixture(scope="session")
def separation_run():
    return run_demo(separation_demo(), tol=1e-8, max_iter=50000)


@pytest.fixture(scope="session")
def deblur_run():
    return run_demo(deblur_demo(), tol=1e-6, max_iter=20000,
                    trace_every=1000)


def error_blocks(record, layout):
    """The blocks of an error record by family, in ``ERROR_FAMILIES`` order.

    Family ``a12``, say, is row 0 (its letter) of the record, cut by the
    blocks of the flat iterate's x2 family (its digits, the space G_k);
    each block is a view of the record.
    """
    place = {"11": 0, "12": 1, "21": 2, "22": 3}
    return {family: [record["abc".index(family[0])][sl]
                     for sl in layout.blocks[place[family[1:]]]]
            for family in ERROR_FAMILIES}
