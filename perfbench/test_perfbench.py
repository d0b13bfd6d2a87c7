"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import env

env.prepare()

from monosplit import cli, solver  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _perturbed(solve, shift=1e-3):
    """``solve`` whose returned primal block is moved by ``shift``."""

    def wrapped(*args, **kwargs):
        state, trace, status = solve(*args, **kwargs)
        state = state.copy()
        state.x1 = [b + shift for b in state.x1]
        return state, trace, status

    return wrapped


def _run_script(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


# --- inputs ----------------------------------------------------------------


def test_inputs_repeat_for_the_same_seed(tmp_path):
    assert workloads.lasso_plan(7, 5) == workloads.lasso_plan(7, 5)
    assert workloads.lasso_plan(7, 5) != workloads.lasso_plan(8, 5)
    assert workloads.deblur_plan(7, 6) == workloads.deblur_plan(7, 6)

    first = workloads.qp_plan(7, 4, tmp_path / "a")
    second = workloads.qp_plan(7, 4, tmp_path / "b")
    for (p1, o1), (p2, o2) in zip(first, second):
        assert p1.name == p2.name
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(o1, o2)
    other = workloads.qp_plan(8, 4, tmp_path / "c")
    assert [p.read_bytes() for p, _ in first] != [p.read_bytes() for p, _ in other]


def test_deblur_plan_takes_one_instance_per_stratum_first():
    pool = sorted(workloads.load_references(), key=lambda e: e["exit_iterations"])
    per = len(pool) // workloads.DEBLUR_STRATA
    stratum_of = {e["seed"]: i // per for i, e in enumerate(pool)}
    for seed in range(20):
        picks = workloads.deblur_plan(seed, workloads.DEBLUR_STRATA)
        assert sorted(stratum_of[e["seed"]] for e in picks) == list(
            range(workloads.DEBLUR_STRATA))


def test_qp_sizes_cover_the_range():
    sizes, _ = workloads.qp_sizes(3, 30)
    assert min(sizes) >= workloads.QP_MIN_N and max(sizes) <= workloads.QP_MAX_N
    assert min(sizes) < 6 and max(sizes) > 70


# --- traced runs -----------------------------------------------------------


def _traced_counts(workload, plan):
    tracer = tracing.Tracer()
    with tracer.patched():
        workloads.run(workload, plan, tracer)
    metrics = tracing.layer_metrics(tracer, 0.0, 0.0)
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}, metrics


@pytest.mark.parametrize("workload", sorted(workloads.INSTANCE))
def test_traced_runs_repeat_iterations_and_call_counts(workload, tmp_path,
                                                       monkeypatch):
    if workload == "deblur16":
        # a short horizon keeps the test fast; counts must still repeat
        monkeypatch.setattr(workloads, "DEBLUR_MAX_ITER", 150)
    plan = workloads.make_plan(workload, 11, 2, tmp_path)
    first, metrics = _traced_counts(workload, plan)
    second, _ = _traced_counts(workload, plan)
    assert first == second
    assert first["solver.iterations"] > 0
    if workload == "deblur16":
        assert metrics["imaging.grad2.apply_us"][0] > 0
        assert first["linops.N.apply_per_iter"] == pytest.approx(4.0, abs=0.02)
    else:
        assert metrics["imaging.grad2.apply_us"][0] == 0
    if workload == "qp_files":
        assert first["solver.transversality_per_iter"] == pytest.approx(1.0, abs=1e-3)
        assert metrics["cli.self_ms"][0] > 0
        assert metrics["problemio.load_s"][0] > 0


def test_patches_are_removed_after_the_traced_pass():
    before = [getattr(owner, attr) for owner, attr, _ in tracing.PATCHES]
    with tracing.Tracer().patched():
        pass
    assert [getattr(owner, attr) for owner, attr, _ in tracing.PATCHES] == before


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    a = tracer.arrays()
    assert list(a["parent"]) == [-1, 0]
    assert a["start"][0] <= a["start"][1] <= a["end"][1] <= a["end"][0]


def test_sampler_rescales_by_the_reference_speed():
    sampler = calibration.SpeedSampler()
    sampler.samples = [(0.0, 0.1, 4e4), (1.0, 1.1, 2e4), (5.0, 5.1, 1e4)]
    assert sampler.speed_us(0.0, 2.0) == 3e4
    assert sampler.speed_us(2.0, 3.0) == 1.5e4  # no sample inside: neighbours
    assert sampler.busy_s(0.0, 2.0) == pytest.approx(0.06)
    assert sampler.busy_s(0.05, 2.0) == pytest.approx(0.04)  # half of the first
    assert sampler.scale(0.0, 2.0) == pytest.approx(0.97 * calibration.REF_US / 3e4)


def test_sampler_process_samples_and_stops():
    start = time.perf_counter()
    with calibration.SpeedSampler() as sampler:
        time.sleep(3 * calibration.PERIOD_S)
    end = time.perf_counter()
    assert sampler._proc.returncode == 0
    assert len(sampler.samples) >= 3
    # the sampler's clock is this process's clock
    assert all(start < w0 < w1 < end and us > 0 for w0, w1, us in sampler.samples)


def _slowed(step, repeats, live):
    """``step`` that does its work ``repeats`` more times and leaves objects
    alive, which loads this interpreter's allocator and garbage collector."""

    def wrapped(*args, **kwargs):
        out = step(*args, **kwargs)
        for _ in range(repeats):
            step(*args, **kwargs)
        live.extend({"i": i} for i in range(100))
        return out

    return wrapped


def test_calibrated_times_follow_an_injected_slowdown(monkeypatch):
    import run

    plan = workloads.lasso_plan(9, 6)
    step = solver.step
    ratios = []
    for _ in range(3):  # interleaved pairs; the median is robust to one slow spell
        monkeypatch.setattr(solver, "step", step)
        base = run.us_per_iter(workloads.run("lasso_noisy", plan))
        monkeypatch.setattr(solver, "step", _slowed(step, 3, []))
        ratios.append(run.us_per_iter(workloads.run("lasso_noisy", plan)) / base)
    # three more steps per iteration at least double the step's share of it;
    # a calibration that divided the slowdown out would read about 1
    assert statistics.median(ratios) > 1.4


# --- checks ----------------------------------------------------------------


def test_each_deblur_check_can_fail():
    x = np.full(4, 0.5)
    ok = workloads.check_deblur("converged", 1e-7, x, 1.0, 1.0)
    assert ok == []
    assert workloads.check_deblur("max_iter", 1e-7, x, 1.0, 1.0)
    assert workloads.check_deblur("converged", 2e-6, x, 1.0, 1.0)
    assert workloads.check_deblur("converged", 1e-7, x + 0.6, 1.0, 1.0)
    assert workloads.check_deblur("converged", 1e-7, x - 0.6, 1.0, 1.0)
    assert workloads.check_deblur("converged", 1e-7, x, 1.0 + 2e-4, 1.0)


def test_each_qp_check_can_fail():
    good = {"status": "converged", "iterations": 5}
    oracle = np.zeros(3)
    assert workloads.check_qp(0, good, 5, [0.0, 0.0, 0.0], oracle) == []
    assert workloads.check_qp(2, good, 5, [0.0, 0.0, 0.0], oracle)
    assert workloads.check_qp(0, dict(good, status="max_iter"), 5,
                              [0.0, 0.0, 0.0], oracle)
    assert workloads.check_qp(0, good, 4, [0.0, 0.0, 0.0], oracle)
    assert workloads.check_qp(0, good, 5, [0.0, 2e-6, 0.0], oracle)


def test_perturbed_lasso_solution_is_counted_failed(monkeypatch):
    plan = workloads.lasso_plan(5, 3)
    assert workloads.run("lasso_noisy", plan).failures == []
    monkeypatch.setattr(solver, "solve", _perturbed(solver.solve))
    out = workloads.run("lasso_noisy", plan)
    assert out.attempted == 3 and len(out.failures) == 3


def test_perturbed_qp_solution_is_counted_failed(monkeypatch, tmp_path):
    plan = workloads.qp_plan(5, 2, tmp_path)
    monkeypatch.setattr(cli, "solve", _perturbed(solver.solve, shift=1e-5))
    out = workloads.run("qp_files", plan)
    assert out.attempted == 2 and len(out.failures) == 2
    assert all("oracle" in f for f in out.failures)


def test_raising_instance_is_counted_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(solver, "solve", broken)
    out = workloads.run("lasso_noisy", workloads.lasso_plan(5, 2))
    assert out.attempted == 2 and len(out.failures) == 2
    assert out.solve_s == []


# --- the command -----------------------------------------------------------


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_workload_names_agree():
    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.INSTANCE)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_declared_metric(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run_script(ROOT, "--workload", "lasso_noisy", "--seed", "3",
                       "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in declared[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_script(tmp_path, "--workload", "deblur16", "--seed", "1",
                       "--seconds", "10", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_wrapped_spec_computes_the_same_step():
    demo, policy = workloads.deblur_setup(2024)
    tracer = tracing.Tracer()
    wrapped = tracer.wrap_spec(demo.system)
    init = demo.extras["init"]
    plain, _ = solver.step(demo.system, init, policy.gamma_at(0))
    traced, _ = solver.step(wrapped, init, policy.gamma_at(0))
    for a, b in zip(dataclasses.astuple(plain), dataclasses.astuple(traced)):
        if isinstance(a, list):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
