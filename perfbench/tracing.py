"""Spans recorded from outside the program, and the per-layer metrics.

A traced pass wraps the library at its layer boundaries without changing
any file under ``src``:

* the linear maps, resolvents and coupling of a system are frozen
  dataclasses, so :meth:`Tracer.wrap_spec` builds a copy whose callables
  are timed (``dataclasses.replace``);
* module-level functions are patched for the duration of the pass only,
  in every module where a caller looks the name up (``PATCHES``).

Each span records a name, start, end, parent span and run id (the index of
the instance in the batch).  Spans are kept in memory in flat arrays and
written out once, when the run ends.  Spans are appended in the order they
open, so the descendants of a span are exactly the spans after it that open
before it closes.
"""

import dataclasses
import re
import time
from array import array
from contextlib import contextmanager

import numpy as np

from monosplit import cli, demos, imaging, minimization, problemio, solver, system

# (owner, attribute, span name) for every place a traced function is looked
# up; ``operator_norm``, for one, is called from system and minimization.
PATCHES = (
    (cli, "load_problem", "problemio.load"),
    (problemio, "load_problem", "problemio.load"),
    (demos, "build_app1_instance", "imaging.build"),
    (demos, "quadratic_smooth", "minimization.quadratic_smooth"),
    (imaging, "quadratic_smooth", "minimization.quadratic_smooth"),
    (problemio, "quadratic_smooth", "minimization.quadratic_smooth"),
    (system, "operator_norm", "linops.operator_norm"),
    (minimization, "operator_norm", "linops.operator_norm"),
    (system, "validate", "system.validate"),
    (cli, "validate", "system.validate"),
    (system, "compute_beta", "system.compute_beta"),
    (cli, "compute_beta", "system.compute_beta"),
    (solver, "solve", "solver.solve"),
    (cli, "solve", "solver.solve"),
    (solver, "step", "solver.step"),
    (solver, "transversality_defect", "solver.transversality"),
    (cli, "transversality_defect", "solver.transversality"),
    (cli, "write_trace_csv", "solver.write_trace"),
    (cli, "main", "cli.main"),
    (solver.ErrorSchedule, "realize", "solver.realize"),
)

# LinOp tags of the imaging kernels: grad16x16, grad2_16x16, haar16x16.
_IMAGING_TAG = re.compile(r"(grad2|grad|haar)(?=[_\d])")
IMAGING_KERNELS = ("grad", "grad2", "haar")

# ResolventOp tags of the prox catalog, by catalog name.
PROX_TAGS = {
    "l1": "l1", "group_l12": "group_l12", "box": "indicator_box",
    "ind0": "indicator_zero", "affine": "indicator_affine",
    "quad": "quadratic_fidelity", "zero": "zero_function",
    "shifted": "scaled_translated",
}
PROX_REPORTED = ("group_l12", "l1", "indicator_box", "indicator_affine")


class Tracer:
    """Span recorder for one single-threaded traced pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("i")
        self.run_id = 0
        self.power_iters = {}  # run id -> power-iteration steps
        self.blocks = None  # (m, s) of the wrapped systems
        self._stack = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name):
        """``fn`` recording one span per call."""
        name_id = self._id(name)
        open_, close = self._open, self._close

        def timed(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return timed

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def patched(self):
        """Patch the traced module functions for the duration of the block."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in PATCHES]
        try:
            for owner, attr, name in PATCHES:
                setattr(owner, attr, self.wrap(getattr(owner, attr), name))
            for owner in (system, minimization):
                owner.operator_norm = self._count_power_iters(owner.operator_norm)
            cli.load_problem = self._wrap_loaded(cli.load_problem)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def _count_power_iters(self, norm):
        def counted(*args, **kwargs):
            estimate = norm(*args, **kwargs)
            self.power_iters[self.run_id] = (self.power_iters.get(self.run_id, 0)
                                             + estimate.iterations_used)
            return estimate

        return counted

    def _wrap_loaded(self, load):
        def load_wrapped(path):
            problem = load(path)
            problem["system"] = self.wrap_spec(problem["system"])
            return problem

        return load_wrapped

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "run": np.frombuffer(self.run, dtype=np.int32),
        }

    def save(self, path):
        """Write every span (times in ns from an arbitrary origin)."""
        np.savez(path, **self.arrays())

    def wrap_spec(self, spec):
        """A copy of ``spec`` whose operators record spans."""
        self.blocks = (spec.layout.m, spec.layout.s)

        def linop(op, family):
            match = _IMAGING_TAG.match(op.tag)
            suffix = f":{match.group(1)}" if match else ""
            return dataclasses.replace(
                op,
                apply=self.wrap(op.apply, f"linops.{family}.apply{suffix}"),
                adjoint_apply=self.wrap(op.adjoint_apply,
                                        f"linops.{family}.adjoint{suffix}"))

        def resolvent(op):
            name = PROX_TAGS.get(op.tag, op.tag or "unnamed")
            return dataclasses.replace(
                op, resolve=self.wrap(op.resolve, f"prox.{name}.resolve"))

        return dataclasses.replace(
            spec,
            A=[resolvent(op) for op in spec.A],
            B=[resolvent(op) for op in spec.B],
            D=[resolvent(op) for op in spec.D],
            C=dataclasses.replace(
                spec.C, apply=self.wrap(spec.C.apply,
                                        "minimization.coupling.apply")),
            M=[linop(op, "M") for op in spec.M],
            N=[linop(op, "N") for op in spec.N],
            L=[[linop(op, "L") for op in row] for row in spec.L],
        )


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer, untraced_us_per_iter, traced_us_per_iter):
    """Per-layer metrics of a traced pass, as ``{name: (value, unit)}``.

    Per-iteration counts and busy times cover the spans inside
    ``solver.solve``; ``linops.X.*_per_iter`` is per operator of family X
    (s maps N_k and M_k, s*m maps L_ki).  Per-call times are medians over
    calls, set-up figures medians over instances of the per-instance sum.
    Every metric is present; a layer that did not run reads 0.
    """
    a = tracer.arrays()
    names = list(a["names"])
    name, start, end, parent = a["name"], a["start"], a["end"], a["parent"]
    count = len(name)
    dur = (end - start) / 1e3  # microseconds
    nested = parent >= 0
    self_us = dur - np.bincount(parent[nested], weights=dur[nested],
                                minlength=count)

    def select(pred):
        return np.isin(name, [k for k, nm in enumerate(names) if pred(nm)])

    def subtree(i):
        return slice(i, int(np.searchsorted(start, end[i], side="left")))

    in_solve = np.zeros(count, dtype=bool)
    for i in np.flatnonzero(select(lambda nm: nm == "solver.solve")):
        in_solve[subtree(i)] = True
    step = select(lambda nm: nm == "solver.step")
    iterations = int(np.count_nonzero(step & in_solve))
    if iterations == 0:
        raise RuntimeError("traced pass recorded no solver iterations")

    m, s = tracer.blocks
    out = {}

    def per_iter(mask, per=1):
        return np.count_nonzero(mask & in_solve) / iterations / per

    def busy(mask):
        return float(np.sum(dur[mask & in_solve])) / iterations

    def call_us(mask):
        return _median(dur[mask & in_solve])

    out["solver.iterations"] = (iterations, "count")
    out["solver.step_us"] = (_median(dur[step]), "us")
    out["solver.step_self_us"] = (_median(self_us[step]), "us")
    realize = select(lambda nm: nm == "solver.realize")
    out["solver.realize_us_per_iter"] = (busy(realize), "us")
    transversality = select(lambda nm: nm == "solver.transversality")
    out["solver.transversality_per_iter"] = (per_iter(transversality), "count")
    out["solver.transversality_us"] = (call_us(transversality), "us")
    write = select(lambda nm: nm == "solver.write_trace")
    out["solver.write_trace_ms"] = (_median(dur[write]) / 1e3, "ms")

    for family, per in (("N", s), ("M", s), ("L", s * m)):
        for direction in ("apply", "adjoint"):
            mask = select(lambda nm: nm.split(":")[0]
                          == f"linops.{family}.{direction}")
            out[f"linops.{family}.{direction}_per_iter"] = (
                per_iter(mask, per), "count")
    maps = select(lambda nm: re.match(r"linops\.[NML]\.", nm) is not None)
    out["linops.busy_us_per_iter"] = (busy(maps), "us")

    instances = np.flatnonzero(select(lambda nm: nm == "bench.instance"))

    def per_instance(label, scale):
        mask = select(lambda nm: nm == label)
        return _median([float(np.sum(dur[subtree(i)][mask[subtree(i)]]))
                        for i in instances]) * scale

    out["linops.power_iters"] = (
        _median([tracer.power_iters.get(int(a["run"][i]), 0)
                 for i in instances]), "count")
    out["linops.operator_norm_ms"] = (
        per_instance("linops.operator_norm", 1e-3), "ms")

    for kernel in IMAGING_KERNELS:
        for direction in ("apply", "adjoint"):
            mask = select(lambda nm: nm.startswith("linops.")
                          and nm.endswith(f".{direction}:{kernel}"))
            out[f"imaging.{kernel}.{direction}_us"] = (call_us(mask), "us")
    out["imaging.build_s"] = (per_instance("imaging.build", 1e-6), "s")

    resolve = select(lambda nm: nm.startswith("prox."))
    out["prox.resolve_per_iter"] = (per_iter(resolve), "count")
    out["prox.busy_us_per_iter"] = (busy(resolve), "us")
    for prox in PROX_REPORTED:
        mask = select(lambda nm: nm == f"prox.{prox}.resolve")
        out[f"prox.{prox}.resolve_us"] = (call_us(mask), "us")

    coupling = select(lambda nm: nm == "minimization.coupling.apply")
    out["minimization.coupling_per_iter"] = (per_iter(coupling), "count")
    out["minimization.coupling_apply_us"] = (call_us(coupling), "us")
    out["minimization.quadratic_smooth_s"] = (
        per_instance("minimization.quadratic_smooth", 1e-6), "s")

    out["system.validate_s"] = (per_instance("system.validate", 1e-6), "s")
    out["system.compute_beta_s"] = (
        per_instance("system.compute_beta", 1e-6), "s")
    out["problemio.load_s"] = (per_instance("problemio.load", 1e-6), "s")

    main = select(lambda nm: nm == "cli.main")
    out["cli.self_ms"] = (_median(self_us[main]) / 1e3, "ms")

    out["trace.spans_per_iter"] = (per_iter(np.ones(count, dtype=bool)),
                                   "count")
    out["trace.overhead_us_per_iter"] = (
        traced_us_per_iter - untraced_us_per_iter, "us")
    return out
