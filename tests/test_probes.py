"""The hypothesis probes of ``validate`` against their per-trial definitions.

``adjoint_check`` and ``coupling_defects`` draw their points in one batch and
reduce each quantity with one dot per row.  The oracles here are the
per-trial loops they replace: one ``standard_normal`` draw per vector, one
``np.dot`` per pairing and one ``np.linalg.norm`` per norm, folded by
Python's ``max`` from 0.0.  The batch must return their floats bit for bit.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from monosplit import demos
from monosplit.checks import CHECK_SEED
from monosplit.errors import SpecificationError
from monosplit.imaging import gradient_op, haar_analysis_op, second_gradient_op
from monosplit.linops import (LinOp, adjoint_check, compose, dense_op,
                              identity_op, probe_points, scaled_identity_op)
from monosplit.problemio import load_problem
from monosplit.prox import LipschitzCoupling, coupling_defects
from monosplit.system import validate

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def per_trial_adjoint(op, trials, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(op.in_dim)
        y = rng.standard_normal(op.out_dim)
        a = float(np.dot(np.asarray(op.apply(x)), y))
        b = float(np.dot(x, np.asarray(op.adjoint_apply(y))))
        worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    return worst


def per_trial_coupling(coupling, trials, seed):
    rng = np.random.default_rng(seed)
    n = coupling.total_dim
    lip = mono = 0.0
    for _ in range(trials):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        cx = np.asarray(coupling.apply(x))
        cy = np.asarray(coupling.apply(y))
        lip = max(lip, float(np.linalg.norm(cx - cy)
                             - coupling.nu0 * np.linalg.norm(x - y)))
        mono = max(mono, float(-np.dot(cx - cy, x - y)))
    return lip, mono


def per_trial_points(seed, trials, x_dim, y_dim):
    rng = np.random.default_rng(seed)
    pairs = [(rng.standard_normal(x_dim), rng.standard_normal(y_dim))
             for _ in range(trials)]
    return [x for x, _ in pairs], [y for _, y in pairs]


def battery_maps():
    """The maps the ``check`` battery probes, built as it builds them."""
    rng = np.random.default_rng(CHECK_SEED)
    ops = [identity_op(7), dense_op(rng.standard_normal((5, 3))),
           gradient_op(6, 5), second_gradient_op(6, 5),
           haar_analysis_op(6, 4)]
    ops.append(compose(ops[1], dense_op(rng.standard_normal((3, 4)))))
    return ops


def shipped_systems():
    """Every system of the four demos and of the two problem files."""
    systems = []
    for name, build in demos.DEMOS.items():
        demo = build()
        systems.append((name, demo.system))
        systems += [(f"{name}.{key}", value)
                    for key, value in demo.extras.items()
                    if hasattr(value, "layout")]
    systems += [(name, load_problem(PROBLEMS / name)["system"])
                for name in ("lasso.json", "qp.json")]
    return systems


@pytest.fixture(scope="module")
def systems():
    return shipped_systems()


def bits(value):
    return float(value).hex()


def test_every_shipped_map_gives_the_per_trial_defect(systems):
    seen = 0
    for name, spec in systems:
        for k, (M, N, row) in enumerate(zip(spec.M, spec.N, spec.L)):
            # validate's seeds and trial count, then the battery's
            for op, seed in [(M, 3 + k), (N, 3 + k)] + [
                    (L, 5 + k + i) for i, L in enumerate(row)]:
                for trials, s in ((20, seed), (50, CHECK_SEED)):
                    assert bits(adjoint_check(op, trials, s)) == bits(
                        per_trial_adjoint(op, trials, s)), (name, op.tag)
                    seen += 1
    assert seen >= 2 * 14


def test_every_battery_map_gives_the_per_trial_defect():
    for op in battery_maps():
        assert bits(adjoint_check(op, 50, CHECK_SEED)) == bits(
            per_trial_adjoint(op, 50, CHECK_SEED)), op.tag


def test_every_shipped_coupling_gives_the_per_trial_defects(systems):
    for name, spec in systems:
        for trials, seed in ((30, 13), (50, 11)):
            got = coupling_defects(spec.C, trials, seed)
            want = per_trial_coupling(spec.C, trials, seed)
            assert list(map(bits, got)) == list(map(bits, want)), name


def wrong_adjoint():
    mat = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 4.0]])
    wrong = mat.T.copy()
    wrong[1, 0] += 1.0
    return LinOp(2, 3, lambda v: mat @ v, lambda u: wrong @ u, tag="wrong")


def test_faulty_maps_give_the_per_trial_defect():
    # NaN where the first entry is at least 0.5: the fold passes it over
    nan_some = LinOp(3, 3, lambda x: x if x[0] < 0.5 else np.full(3, np.nan),
                     lambda y: 2.0 * y, tag="nan")
    # pairings that overflow: an infinite or NaN defect, where the per-trial
    # dot warned
    overflowing = LinOp(4, 4, lambda x: np.full(4, 1e308),
                        lambda y: np.full(4, -1e308), tag="overflowing")
    for op in (wrong_adjoint(), nan_some, overflowing,
               scaled_identity_op(4, 1e200),
               LinOp(4, 4, lambda x: 1e200 * x, lambda y: -1e200 * y)):
        for trials, seed in ((1, 0), (20, 3), (100, 2)):
            with np.errstate(all="ignore"):
                want = per_trial_adjoint(op, trials, seed)
            assert bits(adjoint_check(op, trials, seed)) == bits(want), op.tag


@pytest.mark.parametrize("coupling", [
    LipschitzCoupling((3,), lambda x: x, 0.1, "lying"),
    LipschitzCoupling((2,), lambda x: np.array([-x[1], x[0]]), 1.0, "skew"),
    LipschitzCoupling((2,), lambda x: -x, 1.0, "antimonotone"),
    LipschitzCoupling((3,), lambda x: 1e300 * x, 1.0, "overflowing"),
], ids=["lying", "skew", "antimonotone", "overflowing"])
def test_faulty_couplings_give_the_per_trial_defects(coupling):
    with np.errstate(all="ignore"):  # the per-trial arrays warned
        want = per_trial_coupling(coupling, 30, 13)
    assert list(map(bits, coupling_defects(coupling, 30, 13))) == list(
        map(bits, want))


def test_the_batch_draws_the_per_trial_points():
    xs, ys = probe_points(7, 20, 7, 3)
    old_xs, old_ys = per_trial_points(7, 20, 7, 3)
    assert xs.shape == (20, 7) and ys.shape == (20, 3)
    assert np.array_equal(xs, old_xs) and np.array_equal(ys, old_ys)


def recording(in_dim, out_dim):
    seen = {"apply": [], "adjoint": []}

    def apply(x):
        seen["apply"].append(x.copy())
        return np.zeros(out_dim)

    def adjoint(y):
        seen["adjoint"].append(y.copy())
        return np.zeros(in_dim)

    return LinOp(in_dim, out_dim, apply, adjoint, tag="rec"), seen


@pytest.mark.parametrize("trials, seed", [(1, 0), (20, 5), (50, CHECK_SEED)])
def test_a_map_sees_the_per_trial_points_once_each(trials, seed):
    op, seen = recording(7, 3)
    adjoint_check(op, trials, seed)
    xs, ys = per_trial_points(seed, trials, 7, 3)
    assert len(seen["apply"]) == len(seen["adjoint"]) == trials
    assert all(np.array_equal(a, b) for a, b in zip(seen["apply"], xs))
    assert all(np.array_equal(a, b) for a, b in zip(seen["adjoint"], ys))


@pytest.mark.parametrize("trials, seed", [(1, 0), (30, 13)])
def test_a_coupling_sees_the_per_trial_points_once_each(trials, seed):
    seen = []

    def apply(x):
        seen.append(x.copy())
        return x

    coupling_defects(LipschitzCoupling((2, 3), apply, 1.0), trials, seed)
    xs, ys = per_trial_points(seed, trials, 5, 5)
    assert len(seen) == 2 * trials
    assert all(np.array_equal(a, b) for a, b in zip(seen, xs + ys))


def test_validate_calls_each_map_once_per_probe():
    spec = demos.lasso_demo().system
    counts = {}

    def counted(op, name):
        def wrap(fn, key):
            def call(v):
                counts[key] = counts.get(key, 0) + 1
                return fn(v)
            return call
        return dataclasses.replace(op, apply=wrap(op.apply, name),
                                   adjoint_apply=wrap(op.adjoint_apply,
                                                      name + "*"))

    spec = dataclasses.replace(
        spec, M=[counted(spec.M[0], "M")], N=[counted(spec.N[0], "N")],
        L=[[counted(spec.L[0][0], "L")]],
        C=dataclasses.replace(spec.C, apply=counted(
            identity_op(spec.C.total_dim), "C").apply))
    spec.bounds  # the norms' probes are not validate's
    counts.clear()
    assert validate(spec) == []
    assert counts == {"M": 20, "M*": 20, "N": 20, "N*": 20, "L": 20, "L*": 20,
                      "C": 60}


def short_at(point, keep):
    """A map that returns its first ``keep`` entries at ``point`` only."""
    return lambda v: v[:keep] if np.array_equal(v, point) else v


SECOND_X = per_trial_points(3, 20, 4, 4)[0][1]
FIFTH_Y = per_trial_points(13, 30, 2, 2)[1][4]


@pytest.mark.parametrize("apply, adjoint, message", [
    (lambda x: x[:3], lambda y: y,
     "apply returned shape (3,), expected (4,)"),
    (lambda x: x, lambda y: np.append(y, 0.0),
     "adjoint_apply returned shape (5,), expected (4,)"),
    (lambda x: 0.0, lambda y: 0.0, "apply returned shape (), expected (4,)"),
    (lambda x: x[None], lambda y: y,
     "apply returned shape (1, 4), expected (4,)"),
    # a value of another shape among well-shaped ones
    (short_at(SECOND_X, 2), lambda y: y,
     "apply returned shape (2,), expected (4,)"),
    # the probes' order: the adjoint of the first point before the apply of
    # the second
    (short_at(SECOND_X, 2), lambda y: y[:1],
     "adjoint_apply returned shape (1,), expected (4,)"),
], ids=["apply-short", "adjoint-long", "scalars", "rows", "ragged",
        "adjoint-first"])
def test_a_misshaped_map_is_named_as_before(apply, adjoint, message):
    op = LinOp(4, 4, apply, adjoint, tag="bad")
    with pytest.raises(SpecificationError) as err:
        adjoint_check(op, trials=20, seed=3)
    assert str(err.value) == f"operator 'bad': {message}"


@pytest.mark.parametrize("apply, shape", [
    (lambda x: np.zeros(3), (3,)),
    (lambda x: 0.0, ()),
    (short_at(FIFTH_Y, 1), (1,)),
], ids=["long", "scalar", "ragged"])
def test_a_misshaped_coupling_is_named_as_before(apply, shape):
    with pytest.raises(SpecificationError) as err:
        coupling_defects(LipschitzCoupling((2,), apply, 1.0, "bad"), 30, 13)
    assert str(err.value) == (
        f"coupling 'bad': apply returned shape {shape}, expected (2,)")


def test_validate_reports_the_per_trial_defects():
    qp = demos.qp_demo().system
    wrong = LinOp(4, 4, lambda x: 2.0 * x, lambda y: 3.0 * y, tag="wrong")
    lying = dataclasses.replace(qp.C, nu0=0.01)
    spec = dataclasses.replace(qp, M=[wrong], C=lying)
    lip, _ = per_trial_coupling(lying, 30, 13)
    assert validate(spec)[:2] == [
        f"M[0]: adjoint defect {per_trial_adjoint(wrong, 20, 3):.2e}",
        f"C: Lipschitz defect {lip:.2e} exceeds tolerance for nu0 = 0.01",
    ]


def test_coupling_defects_needs_a_probe():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        coupling_defects(LipschitzCoupling((2,), lambda x: x, 1.0), 0, 13)


def test_the_docstrings_say_the_points_are_drawn_in_one_batch():
    for fn in (adjoint_check, coupling_defects, validate, probe_points):
        assert "one batch" in " ".join(fn.__doc__.split()), fn.__name__
