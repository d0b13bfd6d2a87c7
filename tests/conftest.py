import os
import time

# One BLAS thread unless the caller asks otherwise; set before numpy is
# first imported, as OpenBLAS reads it once at load.  The suite's matrices
# are at most 256x256, and with the default thread count one eigh of that
# size took 1 s on a loaded 2-core machine (8 ms with one thread).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

from monosplit import cli
from monosplit.demos import deblur_demo, lasso_demo, qp_demo, separation_demo
from monosplit.solver import ERROR_FAMILIES, IterateState, solve


def run_demo(demo, trace_every=1):
    # the step the CLI ships: validated, under the metric taken against its
    # bound, to the demo's own tol and max_iter
    policy = cli._policy(demo.system)
    init = demo.extras.get("init") or IterateState.zeros(demo.system.layout)
    started = time.perf_counter()
    final, trace, status = solve(demo.system, init, policy, tol=demo.tol,
                                 max_iter=demo.max_iter,
                                 trace_every=trace_every)
    wall = time.perf_counter() - started
    return {"demo": demo, "policy": policy, "final": final, "trace": trace,
            "status": status, "wall": wall}


@pytest.fixture(scope="session")
def lasso_run():
    return run_demo(lasso_demo())


@pytest.fixture(scope="session")
def qp_run():
    return run_demo(qp_demo())


@pytest.fixture(scope="session")
def separation_run():
    return run_demo(separation_demo())


@pytest.fixture(scope="session")
def deblur_run():
    return run_demo(deblur_demo(), trace_every=1000)


def error_record(schedule, n, layout):
    """The error record of iteration n alone: row 0 of its run of one, or
    None when it is exact."""
    run = schedule.realize(n, layout, 1)
    return None if run is None else run[0]


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

