"""Command-line front end: solve problem files, run demos, self-check.

Exit codes: 0 on success/convergence, 2 when the iteration budget ran out,
1 on any error (bad file, failed validation, step-bound violation, numeric
failure).
"""

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from .checks import format_report, run_checks
from .demos import DEMO_NAMES, get_demo
from .errors import ConfigurationError, MonosplitError, SpecificationError
from .imaging import ImageGrid, write_pgm
from .minimization import primal_surrogate
from .problemio import load_problem
from .solver import (
    IterateState,
    solve,
    step,
    transversality_defect,
    write_trace_csv,
    zero_schedule,
)
from .system import compute_beta, extract_solution, step_policy, validate

TRACE_ENV = "SOLVER_TRACE_EVERY"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="monosplit",
        description="Solver for coupled systems of composite monotone inclusions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("path", help="problem JSON file")
    p_solve.add_argument("--out", required=True, help="output directory")

    p_demo = sub.add_parser("demo", help="run a shipped demo")
    p_demo.add_argument("name", choices=DEMO_NAMES)
    p_demo.add_argument("--out", required=True, help="output directory")

    sub.add_parser("check", help="run the fast invariant battery")

    args = parser.parse_args(argv)
    try:
        # a finite state whose squares overflow steps on with an infinite
        # displacement, and a norm that overflows is an error: an overflow
        # warning adds nothing to either
        with np.errstate(over="ignore"):
            if args.command == "solve":
                return cmd_solve(args.path, args.out)
            if args.command == "demo":
                return cmd_demo(args.name, args.out)
            return cmd_check()
    except MonosplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _trace_every(default):
    override = os.environ.get(TRACE_ENV)
    if not override:
        return default
    # int() would also read "3_0", "+3", " 3" and non-ASCII digits, and
    # refuses more digits than Python's int-string limit (4300)
    try:
        every = int(override) if override.isascii() and override.isdigit() else 0
    except ValueError:
        every = 0
    if every < 1:
        raise ConfigurationError(f"{TRACE_ENV} must be a positive integer "
                                 f"in ASCII digits, got {override!r}")
    return every


def _policy(system, epsilon=None, gamma=None):
    """The :func:`step_policy` of a validated ``system``; one error lists
    validate's faults."""
    violations = validate(system)
    if violations:
        raise SpecificationError("problem failed validation:\n  "
                                 + "\n  ".join(violations))
    return step_policy(system, epsilon, gamma)


def _make_out_dir(out_dir):
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory "
                                 f"{out_dir}: {exc.strerror or exc}") from exc


@contextmanager
def _writing(out_dir):
    """Report a file that the block cannot write as a
    :class:`ConfigurationError` naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write {exc.filename or out_dir}: "
            f"{exc.strerror or exc}") from exc


def _run_and_write(system, init, policy, errors, tol, max_iter, trace_every,
                   out_dir, extra_summary=None):
    """Solve and write ``trace.csv``, ``solution.json`` and ``summary.json``.

    The files are written even when the solve raises, and a file that
    cannot be written is a :class:`ConfigurationError` naming it.
    ``extra_summary``, if given, is called as ``extra_summary(final,
    status)`` and returns fields to add to the summary; after a failed
    solve ``status`` is ``"numeric_error"`` and ``final`` is the initial
    state.
    """
    _make_out_dir(out_dir)
    started = time.perf_counter()
    status = "numeric_error"
    trace = []
    final = init
    try:
        final, trace, status = solve(system, init, policy, errors=errors,
                                     tol=tol, max_iter=max_iter,
                                     trace_every=trace_every)
    finally:
        wall = time.perf_counter() - started
        sol = extract_solution(final, system)
        solution = {
            "xbar": [list(map(float, b)) for b in sol.xbar],
            "vbar": [list(map(float, b)) for b in sol.vbar],
            "state": {
                "x1": [list(map(float, b)) for b in final.x1],
                "x2": [list(map(float, b)) for b in final.x2],
                "v1": [list(map(float, b)) for b in final.v1],
                "v2": [list(map(float, b)) for b in final.v2],
            },
        }
        summary = {
            "status": status,
            "iterations": final.n,
            "final_displacement":
                trace[-1].displacement if trace else None,
            # solve's last record is always the final state's
            "transversality_defect":
                trace[-1].transversality_defect if trace
                else transversality_defect(system, final),
            # beta, step_bound and metric_bound are system.bounds' fields
            "beta": compute_beta(system),
            "beta_terms": system.beta_report,
            "step_bound": system.bounds.step_bound,
            "metric_bound": policy.beta,
            "epsilon": policy.epsilon,
            "gamma": policy.gamma_const,
            "block_steps": list(policy.steps(system.layout).per_block),
            "tol": tol,
            "max_iter": max_iter,
            "wall_time_s": wall,
        }
        if extra_summary:
            summary.update(extra_summary(final, status))
        # JSON has no infinity or NaN (RFC 8259); beta_terms is finite, as
        # beta is
        summary = {key: None if isinstance(value, float)
                   and not math.isfinite(value) else value
                   for key, value in summary.items()}
        with _writing(out_dir):
            write_trace_csv(trace, os.path.join(out_dir, "trace.csv"))
            for name, doc, indent in (("solution.json", solution, None),
                                      ("summary.json", summary, 2)):
                with open(os.path.join(out_dir, name), "w") as fh:
                    json.dump(doc, fh, indent=indent)
    return final, trace, status


def cmd_solve(path, out_dir):
    problem = load_problem(path)
    system = problem["system"]
    cfg = problem["solver"]
    policy = _policy(system, cfg["epsilon"], cfg["gamma"])
    init = IterateState.zeros(system.layout)
    _, _, status = _run_and_write(
        system, init, policy, problem["errors"], cfg["tol"], cfg["max_iter"],
        _trace_every(cfg["trace_every"]), out_dir,
    )
    return 0 if status == "converged" else 2


def cmd_demo(name, out_dir):
    demo = get_demo(name)
    system = demo.system
    policy = _policy(system)
    init = demo.extras.get("init") or IterateState.zeros(system.layout)

    if name == "separation":
        return _run_separation(demo, policy, out_dir)

    extra = {"demo": name}

    def demo_fields(final, status):
        if status == "numeric_error":
            return extra
        if demo.oracle_solution is not None:
            extra["oracle_max_error"] = float(
                np.max(np.abs(final.x1[0] - demo.oracle_solution)))
        if name == "deblur":
            extra["primal_surrogate"] = primal_surrogate(
                demo.min_spec, final.x1, final.x2)
        return extra

    final, trace, status = _run_and_write(
        system, init, policy, zero_schedule(), demo.tol, demo.max_iter,
        _trace_every(10), out_dir, extra_summary=demo_fields,
    )

    if "oracle_max_error" in extra:
        print(f"{name}: status={status} oracle max error "
              f"{extra['oracle_max_error']:.3e}")
    if name == "deblur":
        truth = demo.extras["truth"]
        shape = truth.height, truth.width
        obs = demo.extras["observations"].observations[0]
        with _writing(out_dir):
            write_pgm(os.path.join(out_dir, "truth.pgm"), truth)
            write_pgm(os.path.join(out_dir, "observed.pgm"),
                      ImageGrid(*shape, np.clip(obs, 0.0, 1.0)))
            write_pgm(os.path.join(out_dir, "recovered.pgm"),
                      ImageGrid(*shape, np.clip(final.x1[0], 0.0, 1.0)))
        print(f"deblur: status={status} iterations={final.n} "
              f"energy={extra['primal_surrogate']:.6f}")
    return 0 if status == "converged" else 2


def _run_separation(demo, policy, out_dir):
    """Step the joint system and its two halves side by side; report
    whether the joint trajectory matches theirs bit for bit."""
    _make_out_dir(out_dir)
    joint = demo.system
    systems = (joint, demo.extras["primal_only"], demo.extras["dual_only"])
    states = [IterateState.zeros(system.layout) for system in systems]
    identical = True
    # the halves share the joint's block structure and take its block
    # steps, which read only their own blocks' terms
    steps = [policy.steps(system.layout) for system in systems]
    for _ in range(200):
        states = [step(system, state, gamma)[0]
                  for system, state, gamma in zip(systems, states, steps)]
        js, ps, ds = states
        pairs = [*zip(js.x1, ps.x1), *zip(js.x2, ds.x2), *zip(js.v1, ds.v1),
                 *zip(js.v2, ds.v2)]
        identical &= all(a.tobytes() == b.tobytes() for a, b in pairs)

    final, trace, status = _run_and_write(
        joint, IterateState.zeros(joint.layout), policy, zero_schedule(),
        demo.tol, demo.max_iter, _trace_every(10), out_dir,
        extra_summary=lambda final, status: {
            "demo": "separation",
            "separation_report": "identical" if identical else "divergent",
        },
    )
    print(f"separation: trajectories "
          f"{'identical' if identical else 'DIVERGENT'}; joint solve "
          f"status={status}")
    if not identical:
        return 1
    return 0 if status == "converged" else 2


def cmd_check():
    results = run_checks()
    print(format_report(results))
    return 0 if all(passed for _, passed, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
