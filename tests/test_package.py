import ast
import dataclasses
import importlib
import inspect
import json
import re
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest

import monosplit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = Path(__file__).resolve().parents[1] / "README.md"
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
    # modules where callers look it up, and perfbench/workloads.py times the
    # qp_files set-up by wrapping cli.cmd_solve and cli._run_and_write; an
    # import cleanup or a rename there would break the benchmark run only
    from monosplit import cli, linops, minimization, system

    assert system.operator_norm is linops.operator_norm
    assert minimization.operator_norm is linops.operator_norm
    for name in ("cmd_solve", "_run_and_write"):
        fn = getattr(cli, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == cli.__name__, name
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


# definitions no package code uses, each kept for a reason
UNUSED_BY_DESIGN = {
    "imaging.py:read_pgm":
        "the reader of problem-file images that the deblur problem file "
        "will name (ROADMAP L)",
    "minimization.py:dual_surrogate":
        "the dual half of the duality gap that runs will report "
        "(ROADMAP J and D)",
    "solver.py:StepPolicy.gamma_at":
        "perfbench's tests step at the policy's gamma through it",
}


def _definitions(tree):
    """``(name, node)`` for every top-level function and class of a module
    and every method of its classes; dunder methods are left out, as
    Python calls them itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__"))


def _names(node):
    """How often each name or attribute is read or written in ``node``."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def test_every_definition_is_used_by_the_package():
    # an option or helper that only tests reach is code to delete: every
    # function, class and method is named by package code outside its own
    # definition (an import or an __all__ entry does not count)
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum(map(_names, trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            short = name.rpartition(".")[2]
            if everywhere[short] == _names(node)[short]:
                unused.append(f"{module}:{name}")
    assert sorted(unused) == sorted(UNUSED_BY_DESIGN)


def readme_table_names(header):
    """The backticked names in the first column of the README table that
    ``header`` heads."""
    lines = README.read_text().splitlines()
    names = set()
    for row in lines[lines.index(header) + 2:]:
        if not row.startswith("|"):
            return names
        names.update(re.findall(r"`(\w+)`", row.split("|")[1]))
    return names


def test_readme_matches_the_package():
    from jsonschema import Draft202012Validator

    from monosplit.problemio import OPERATOR_BUILDERS, PROBLEM_SCHEMA
    from monosplit.prox import CATALOG

    example = re.search(r"```jsonc\n(.*?)```", README.read_text(),
                        re.DOTALL).group(1)
    doc = json.loads(re.sub(r"//.*", "", example))
    assert list(Draft202012Validator(PROBLEM_SCHEMA).iter_errors(doc)) == []
    assert readme_table_names("| builder | params |") == set(OPERATOR_BUILDERS)
    assert readme_table_names("| prox | params |") == set(CATALOG)


def test_readme_names_every_summary_key(tmp_path):
    from monosplit.cli import main

    out = tmp_path / "lasso"
    problem = README.parent / "problems" / "lasso.json"
    assert main(["solve", str(problem), "--out", str(out)]) == 0
    written = list(json.loads((out / "summary.json").read_text()))
    listed = re.search(r"`summary\.json` \((.*?)\)", README.read_text(),
                       re.DOTALL).group(1)
    assert re.findall(r"`(\w+)`", listed) == written


def test_the_readme_quick_start_runs():
    # the documented library API, run as written
    import numpy as np

    block = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                      README.read_text(), re.DOTALL).group(1)
    scope = {}
    exec(compile(block, "README quick start", "exec"), scope)
    assert scope["status"] == "converged"
    error = np.max(np.abs(scope["solution"].xbar[0]
                          - scope["demo"].oracle_solution))
    assert error < 1e-6
