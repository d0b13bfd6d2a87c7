import ast
import dataclasses
import importlib
from functools import reduce
from pathlib import Path

import pytest

import monosplit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(monosplit.__file__).resolve().parent


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks
    # ``from monosplit import *`` while every other import still works
    missing = [name for name in monosplit.__all__
               if not hasattr(monosplit, name)]
    assert missing == []
    assert len(set(monosplit.__all__)) == len(monosplit.__all__)


def test_operator_norm_resolves_where_the_benchmark_patches_it(monkeypatch):
    # perfbench/tracing.py patches each function of its PATCHES table in the
    # modules where callers look it up; an import cleanup there would break
    # the traced benchmark run only
    from monosplit import linops, minimization, system

    assert system.operator_norm is linops.operator_norm
    assert minimization.operator_norm is linops.operator_norm
    if not PERFBENCH.is_dir():
        pytest.skip("perfbench/ is not in this checkout")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for owner, attr, _ in tracing.PATCHES:
        patched = getattr(owner, attr)
        home = importlib.import_module(patched.__module__)
        defined = reduce(getattr, patched.__qualname__.split("."), home)
        assert patched is defined, (owner, attr)


def test_step_state_is_what_the_benchmark_compares():
    # perfbench/test_perfbench.py compares two states through
    # dataclasses.astuple and checks only the fields that are lists, so
    # the block families must stay lists for that check to compare anything
    from monosplit.demos import lasso_demo
    from monosplit.solver import IterateState, make_policy, step
    from monosplit.system import compute_beta

    spec = lasso_demo().system
    gamma = make_policy(compute_beta(spec)).gamma_at(0)
    state, _ = step(spec, IterateState.zeros(spec.layout), gamma)
    assert dataclasses.is_dataclass(state)
    # the families and the counter, and no hidden copy of them
    assert [f.name for f in dataclasses.fields(state)] == [
        "x1", "x2", "v1", "v2", "n"]
    families = dataclasses.astuple(state)[:4]
    assert [type(f) for f in families] == [list] * 4
    assert all(len(f) > 0 for f in families)


def test_step_plan_holds_only_immutable_values():
    # a plan is built once per system, shared by every step that runs it on
    # any thread, and holds the system's bound operators
    import numpy as np

    from monosplit.demos import lasso_demo

    spec = lasso_demo().system
    spec = dataclasses.replace(spec, z=[np.ones(d) for d in spec.layout.h_dims],
                               r=[np.ones(d) for d in spec.layout.g_dims])
    plan = spec.plan

    def immutable(value):
        if isinstance(value, tuple):
            return all(map(immutable, value))
        if isinstance(value, np.ndarray):
            return not value.flags.writeable
        return value is None or callable(value) or isinstance(
            value, (slice, int, str))

    assert dataclasses.fields(plan)
    assert plan.z is not None and plan.nr is not None
    for f in dataclasses.fields(plan):
        assert immutable(getattr(plan, f.name)), f.name
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.lengths = ()


def _package_imports(path):
    """``(module, names)`` for each package module that ``path`` imports,
    named relative to the package, with the names it takes from it
    (``from . import solver`` takes none from ``solver``)."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "monosplit":
                    continue
                module = module.partition(".")[2]
            if module:
                out.append((module, [alias.name for alias in node.names]))
            else:
                out += [(alias.name, []) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name.partition(".")[2], []) for alias in node.names
                    if alias.name.split(".")[0] == "monosplit"]
    return out


def test_the_step_and_its_plan_sit_below_the_system_model():
    # the solver prepares and runs the step on its own: the system model
    # builds on it, not the other way round
    solver_imports = _package_imports(PACKAGE / "solver.py")
    assert {module for module, _ in solver_imports} <= {"errors", "linops"}
    system_tree = ast.parse((PACKAGE / "system.py").read_text())
    defined = {node.name for node in system_tree.body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert "StepPlan" not in defined
    for path in sorted(PACKAGE.glob("*.py")):
        for module, names in _package_imports(path):
            private = [name for name in names if name.startswith("_")]
            assert module != "system" or not private, (path.name, private)
