"""The three benchmark workloads: inputs from a seed, the timed runs, checks.

Every workload is a closed loop in one process: each solve starts after the
previous one ended.  A run processes a fixed batch whose size follows from
``--seconds`` (see :func:`batch_size`), so the same seed and run length give
exactly the same inputs and iteration counts on every run.

Library calls go through module attributes (``solver.solve``, not a name
imported from it) so that the traced pass can patch them where they are
looked up.
"""

import json
import math
import os
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibration
from monosplit import cli, demos, oracles, solver, system
from monosplit.minimization import primal_surrogate

REFERENCES = Path(__file__).resolve().parent / "deblur_references.json"

# Seconds one instance takes at the parent commit on a 2-core x86-64
# machine (setup, solve and checks); fixes the batch size for a run length.
COST_S = {"deblur16": 8.0, "lasso_noisy": 0.14, "qp_files": 0.27}

DEBLUR_SIZE = 16
DEBLUR_TOL = 1e-6
DEBLUR_MAX_ITER = 20_000
DEBLUR_TRACE_EVERY = 10
DEBLUR_STRATA = 4
ENERGY_RTOL = 1e-4

LASSO_N = 10
LASSO_RHO = 0.9
LASSO_AMPLITUDE = 0.1
LASSO_TOL = 1e-6
LASSO_MAX_ITER = 50_000
LASSO_ORACLE_TOL = 1e-5

QP_MIN_N = 4
QP_MAX_N = 100
QP_SOLVER = {"tol": 1e-8, "max_iter": 50_000, "seed": 42, "trace_every": 10}
QP_ORACLE_TOL = 1e-6

# Untraced passes set each instance up this many times and keep the median.
SETUP_REPEATS = 3

clock = time.perf_counter


@dataclass
class Measured:
    """Raw times of one instance and the problems its checks found."""

    setups: list
    solve: float
    wall: float
    iterations: int
    problems: list


@dataclass
class Samples:
    """What one pass over a batch measured, one entry per instance.

    Times are rescaled to the reference speed (see ``calibration``), and
    ``setup_s`` holds the median of an instance's set-ups; ``raw_solve_s``
    and ``calibration_us`` keep what the clocks read.
    """

    setup_s: list = field(default_factory=list)
    solve_s: list = field(default_factory=list)
    wall_s: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    raw_solve_s: list = field(default_factory=list)
    calibration_us: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def add(self, measured, calibration_us, scale):
        if measured.setups:
            self.setup_s.append(statistics.median(measured.setups) * scale)
        self.solve_s.append(measured.solve * scale)
        self.wall_s.append(measured.wall * scale)
        self.iterations.append(int(measured.iterations))
        self.raw_solve_s.append(measured.solve)
        self.calibration_us.append(calibration_us)


def batch_size(workload, seconds, traced):
    """Instances in one run; a traced run solves each one twice."""
    k = max(1, round(seconds / COST_S[workload]))
    if traced:
        k = max(1, k // 2)
    if workload == "deblur16":
        k = min(k, len(load_references()))
    return k


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _wrap(tracer, spec):
    return tracer.wrap_spec(spec) if tracer is not None else spec


def _set_up(setup, tracer):
    """Run ``setup`` (once when traced); return its last result and times."""
    times = []
    for _ in range(1 if tracer is not None else SETUP_REPEATS):
        with _span(tracer, "bench.setup"):
            t0 = clock()
            result = setup()
            times.append(clock() - t0)
    return result, times


# ---------------------------------------------------------------------------
# deblur16


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)["instances"]


def deblur_plan(seed, count):
    """Instance seeds for one run: one per difficulty stratum in turn.

    Reference energies need a 10x continuation run (about a minute per
    instance), so instances come from the recorded pool.  The pool is split
    into strata by iterations to tolerance and each run takes one instance
    per stratum before it takes a second from any, which keeps the summed
    iteration count of a run close to that of every other run.
    """
    pool = sorted(load_references(), key=lambda e: (e["exit_iterations"], e["seed"]))
    per = math.ceil(len(pool) / DEBLUR_STRATA)
    strata = [pool[i:i + per] for i in range(0, len(pool), per)]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(strata))
    shuffled = [[stratum[j] for j in rng.permutation(len(stratum))]
                for stratum in strata]
    picks = []
    for j in range(count):
        stratum = shuffled[order[j % len(strata)]]
        picks.append(stratum[j // len(strata)])
    return picks


def deblur_setup(instance_seed):
    """Instance build, validation, beta and step policy."""
    demo = demos.deblur_demo(size=DEBLUR_SIZE, seed=instance_seed)
    violations = system.validate(demo.system)
    if violations:
        raise RuntimeError(f"deblur seed {instance_seed}: {violations}")
    policy = solver.make_policy(system.compute_beta(demo.system))
    return demo, policy


def deblur_solve(spec, demo, policy):
    return solver.solve(spec, demo.extras["init"], policy,
                        errors=solver.zero_schedule(), tol=DEBLUR_TOL,
                        max_iter=DEBLUR_MAX_ITER, trace_every=DEBLUR_TRACE_EVERY)


def check_deblur(status, displacement, x1, energy, reference):
    """Problems with one deblur result; empty when it passes."""
    problems = []
    if status != "converged":
        problems.append(f"status {status}")
    if not displacement <= DEBLUR_TOL:
        problems.append(f"final displacement {displacement:.3e} > {DEBLUR_TOL}")
    if not (np.all(x1 >= 0.0) and np.all(x1 <= 1.0)):
        problems.append(f"x1 outside [0, 1]: [{x1.min():.6g}, {x1.max():.6g}]")
    rel = abs(energy - reference) / abs(reference)
    if not rel <= ENERGY_RTOL:
        problems.append(f"energy {energy!r} vs reference {reference!r} "
                        f"(rel {rel:.2e})")
    return problems


def deblur_instance(entry, tracer):
    (demo, policy), setups = _set_up(lambda: deblur_setup(entry["seed"]),
                                     tracer)
    spec = _wrap(tracer, demo.system)
    t1 = clock()
    final, trace, status = deblur_solve(spec, demo, policy)
    t2 = clock()
    energy = primal_surrogate(demo.min_spec, final.x1, final.x2)
    system.extract_solution(final, demo.system)
    t3 = clock()
    return Measured(setups, t2 - t1, setups[-1] + t3 - t1, final.n,
                    check_deblur(status, trace[-1].displacement, final.x1[0],
                                 energy, entry["reference_energy"]))


# ---------------------------------------------------------------------------
# lasso_noisy


def lasso_plan(seed, count):
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def check_lasso(status, x, oracle):
    problems = []
    if status != "converged":
        problems.append(f"status {status}")
    err = float(np.max(np.abs(x - oracle)))
    if not err <= LASSO_ORACLE_TOL:
        problems.append(f"max |x - oracle| = {err:.3e} > {LASSO_ORACLE_TOL}")
    return problems


def lasso_setup(instance_seed):
    demo = demos.lasso_demo(n=LASSO_N, seed=instance_seed)
    violations = system.validate(demo.system)
    if violations:
        raise RuntimeError(f"lasso seed {instance_seed}: {violations}")
    policy = solver.make_policy(system.compute_beta(demo.system))
    errors = solver.geometric_schedule(LASSO_RHO, LASSO_AMPLITUDE,
                                       seed=instance_seed)
    return demo, policy, errors


def lasso_instance(instance_seed, tracer):
    (demo, policy, errors), setups = _set_up(
        lambda: lasso_setup(instance_seed), tracer)
    spec = _wrap(tracer, demo.system)
    init = solver.IterateState.zeros(demo.system.layout)
    t2 = clock()
    final, _, status = solver.solve(spec, init, policy, errors=errors,
                                    tol=LASSO_TOL, max_iter=LASSO_MAX_ITER)
    t3 = clock()
    sol = system.extract_solution(final, demo.system)
    t4 = clock()
    return Measured(setups, t3 - t2, setups[-1] + t4 - t2, final.n,
                    check_lasso(status, sol.xbar[0], demo.oracle_solution))


# ---------------------------------------------------------------------------
# qp_files


def _identity(n):
    return {"builder": "identity", "params": {"dim": n}}


def qp_document(n, rng):
    """An equality-constrained QP in the format of ``problems/qp.json``.

    Built the way ``demos.qp_demo`` builds its instance, ``Q = G'G + I``
    with a random ``G``, so each file has its own random spectrum; but the
    entries of ``G`` have variance 1/n rather than 1.  Then the eigenvalues
    of ``Q`` fall in about [1, 5] at every n, where unscaled ``G`` puts them
    in about [1, 4n + 1] and files from n = 12 up stop at the shipped
    ``max_iter`` before ``tol``.  ``phi = 0.5 ||T x - r||^2`` with
    ``T'T = Q`` and ``T'r = -c``, and about n/5 random equality constraints
    ``E x = d``.  Returns the document and the KKT oracle solution.
    """
    p = max(1, round(n / 5))
    g_mat = rng.standard_normal((n, n)) / np.sqrt(n)
    Q = g_mat.T @ g_mat + np.eye(n)
    c = rng.standard_normal(n)
    E = rng.standard_normal((p, n))
    d = rng.standard_normal(p)
    low = np.linalg.cholesky(Q)
    T = low.T
    r = np.linalg.solve(low, -c)
    doc = {
        "version": 1,
        "kind": "minimization",
        "layout": {"m": 1, "s": 1, "h_dims": [n], "g_dims": [n],
                   "y_dims": [n], "x_dims": [n]},
        "z": None,
        "r": None,
        "operators": {"M": [_identity(n)], "N": [_identity(n)],
                      "L": [[_identity(n)]]},
        "functions": {
            "f": [{"prox": "indicator_affine",
                   "params": {"matrix": E.tolist(), "offset": d.tolist()}}],
            "smooth": {"name": "quadratic_fidelity",
                       "params": {"terms": [{"matrix": T.tolist(),
                                             "offset": r.tolist(),
                                             "weight": 1.0}]}},
            "g": [{"prox": "zero_function", "params": {}}],
            "ell": [{"prox": "indicator_zero", "params": {}}],
        },
        "solver": dict(QP_SOLVER),
        "errors": {"name": "zero"},
    }
    oracle = oracles.kkt_quadratic_solve(Q, c, E, d)
    return doc, oracle


def qp_sizes(seed, count):
    """Log-uniform sizes in [QP_MIN_N, QP_MAX_N], one per equal-width stratum."""
    rng = np.random.default_rng(seed)
    u = (rng.permutation(count) + rng.uniform(size=count)) / count
    sizes = np.rint(QP_MIN_N * (QP_MAX_N / QP_MIN_N) ** u).astype(int)
    return [int(n) for n in sizes], rng


def qp_plan(seed, count, workdir):
    """Write the problem files before timing starts; return (path, oracle)s."""
    sizes, rng = qp_sizes(seed, count)
    workdir.mkdir(parents=True, exist_ok=True)
    plan = []
    for j, n in enumerate(sizes):
        doc, oracle = qp_document(n, rng)
        path = workdir / f"qp{j:03d}_n{n}.json"
        path.write_text(json.dumps(doc))
        plan.append((path, oracle))
    return plan


def count_trace_rows(path):
    with open(path) as fh:
        return sum(1 for _ in fh) - 1  # header


def check_qp(exit_code, summary, trace_rows, xbar, oracle):
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if summary.get("status") != "converged":
        problems.append(f"status {summary.get('status')}")
    if trace_rows != summary.get("iterations"):
        problems.append(f"trace.csv has {trace_rows} rows for "
                        f"{summary.get('iterations')} iterations")
    err = float(np.max(np.abs(np.asarray(xbar) - oracle)))
    if not err <= QP_ORACLE_TOL:
        problems.append(f"max |xbar - oracle| = {err:.3e} > {QP_ORACLE_TOL}")
    return problems


def qp_instance(item, tracer):
    """One ``cli solve`` call; set-up is timed inside it, on its own path.

    Set-up runs from entering ``cmd_solve`` to entering ``_run_and_write``
    (load, validation, beta, step policy); both are looked up in ``cli`` at
    call time, so thin wrappers there record when they are entered.
    """
    path, oracle = item
    out_dir = path.with_suffix(".out")
    entered = {}
    originals = {name: getattr(cli, name)
                 for name in ("cmd_solve", "_run_and_write")}

    def entry_timed(name, fn):
        def timed(*args, **kwargs):
            entered[name] = clock()
            return fn(*args, **kwargs)

        return timed

    for name, fn in originals.items():
        setattr(cli, name, entry_timed(name, fn))
    try:
        t1 = clock()
        exit_code = cli.main(["solve", str(path), "--out", str(out_dir)])
        wall = clock() - t1
    finally:
        for name, original in originals.items():
            setattr(cli, name, original)
    setups = ([entered["_run_and_write"] - entered["cmd_solve"]]
              if len(entered) == 2 else [])
    try:
        with open(out_dir / "summary.json") as fh:
            summary = json.load(fh)
        with open(out_dir / "solution.json") as fh:
            xbar = json.load(fh)["xbar"][0]
        rows = count_trace_rows(out_dir / "trace.csv")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return Measured(setups, summary["wall_time_s"], wall, summary["iterations"],
                    check_qp(exit_code, summary, rows, xbar, oracle))


INSTANCE = {
    "deblur16": deblur_instance,
    "lasso_noisy": lasso_instance,
    "qp_files": qp_instance,
}


def make_plan(workload, seed, count, workdir):
    """The batch for one run, fully determined by the seed and its size."""
    if workload == "deblur16":
        return deblur_plan(seed, count)
    if workload == "lasso_noisy":
        return lasso_plan(seed, count)
    return qp_plan(seed, count, workdir)


def run(workload, plan, tracer=None):
    """Process the batch in order; a failing instance is counted, not fatal.

    Each instance's times are rescaled to the reference speed (see
    ``calibration``) once the pass is over.
    """
    out = Samples()
    timed = []
    previous = os.environ.get(cli.TRACE_ENV)
    if workload == "qp_files":
        # every iteration yields a diagnostic record and a trace row
        os.environ[cli.TRACE_ENV] = "1"
    try:
        with calibration.SpeedSampler() as sampler:
            for j, item in enumerate(plan):
                out.attempted += 1
                if tracer is not None:
                    tracer.run_id = j
                start = clock()
                try:
                    with _span(tracer, "bench.instance"):
                        measured = INSTANCE[workload](item, tracer)
                    problems = measured.problems
                except Exception as exc:  # noqa: BLE001 - reported as a failure
                    measured = None
                    problems = [f"{type(exc).__name__}: {exc}"]
                if measured is not None:
                    timed.append((measured, start, clock()))
                if problems:
                    out.failures.append(
                        f"{workload}[{j}]: {'; '.join(problems)}")
        for measured, start, end in timed:
            out.add(measured, sampler.speed_us(start, end),
                    sampler.scale(start, end))
    finally:
        if previous is None:
            os.environ.pop(cli.TRACE_ENV, None)
        else:
            os.environ[cli.TRACE_ENV] = previous
    return out
