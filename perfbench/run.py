"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's batch in this process, checks every output and prints,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it holds the run's
metadata and each timing's median, tail percentile and sample count; the
same object is written to ``.perfbench/`` with the spans of a traced run.
Exits 2 without a result when the checkout holds no ``src/monosplit``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

import env

WORKLOADS = ("deblur16", "lasso_noisy", "qp_files")
TIMINGS = ("setup_s", "solve_s", "wall_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def summarize(values):
    """Median, the highest percentile with at least 10 samples above it, n."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    if n > 10:
        out["tail_pct"] = math.floor(100 * (n - 10) / n)
        out["tail"] = ordered[n - 11]
    else:
        out["max"] = ordered[-1]
    return out


def us_per_iter(samples, times=None):
    """Solve time over iterations, pooled over the batch, in microseconds."""
    return 1e6 * sum(times or samples.solve_s) / sum(samples.iterations)


def end_to_end(samples):
    return {
        "setup_s": (statistics.fmean(samples.setup_s), "s"),
        "solve_s": (statistics.fmean(samples.solve_s), "s"),
        "wall_s": (statistics.fmean(samples.wall_s), "s"),
        "iterations": (sum(samples.iterations), "count"),
        "us_per_iter": (us_per_iter(samples), "us"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _git_rev():
    if not (env.ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(env.ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_version(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def metadata():
    import numpy
    import scipy

    digest = hashlib.sha256()
    lines = 0
    for path in sorted((env.SRC / "monosplit").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(env.SRC).as_posix().encode())
        digest.update(data)
        lines += data.count(b"\n")
    return {
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
        "src_monosplit_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy),
        "scipy_blas": _blas_version(scipy),
        "blas_threads": env.BLAS_THREADS,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        env.prepare()
    except env.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = env.OUT / "work" / f"{tag}-{os.getpid()}"
    count = workloads.batch_size(args.workload, args.seconds, args.trace)
    try:
        plan = workloads.make_plan(args.workload, args.seed, count, workdir)
        untraced = workloads.run(args.workload, plan)
        passes = [untraced]
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.patched():
                passes.append(workloads.run(args.workload, plan, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if not all(p.solve_s for p in passes):
        print("error: no instance completed; nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        metrics = tracing.layer_metrics(tracer, us_per_iter(untraced),
                                        us_per_iter(passes[1]))
    else:
        metrics = end_to_end(untraced)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "batch": count,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "timings": {name: summarize(getattr(untraced, name))
                    for name in TIMINGS},
        "raw_us_per_iter": us_per_iter(untraced, untraced.raw_solve_s),
        "calibration_us": summarize(untraced.calibration_us),
        "meta": metadata(),
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    env.OUT.mkdir(exist_ok=True)
    with open(env.OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    if args.trace:
        tracer.save(env.OUT / f"spans-{args.workload}.npz")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
