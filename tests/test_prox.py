import threading

import numpy as np
import pytest

from monosplit.errors import ConfigurationError
from monosplit.linops import LinOp, dense_op
from monosplit.oracles import grid_refine_minimize
from monosplit.prox import (
    _assemble_quadratic,
    _block_index,
    coupling_defects,
    gradient_coupling,
    make_function,
    resolvent_of_inverse,
    soft_threshold,
    zero_coupling,
)

GAMMAS = (0.1, 1.0, 10.0)


def firm_nonexpansiveness_defect(op, trials=50, seed=7):
    """Worst violation of ||Jx-Jy||^2 <= <Jx-Jy, x-y> over random probes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        gamma = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        x = rng.standard_normal(op.dim)
        y = rng.standard_normal(op.dim)
        jx = np.asarray(op.resolve(gamma, x))
        jy = np.asarray(op.resolve(gamma, y))
        diff = jx - jy
        worst = max(worst, float(np.dot(diff, diff) - np.dot(diff, x - y)))
    return worst


def catalog_entries(dim3=True):
    """One representative instance per catalog name."""
    entries = [
        ("l1", make_function("l1", {"weight": 1.0}, 3)),
        ("group_l12", make_function("group_l12",
                                    {"blocks": [[0, 1], [2]], "weight": 1.0}, 3)),
        ("indicator_box", make_function("indicator_box",
                                        {"lo": 0.0, "hi": 1.0}, 3)),
        ("indicator_zero", make_function("indicator_zero", {}, 2)),
        ("indicator_affine", make_function(
            "indicator_affine",
            {"matrix": [[1.0, 0.0, 0.0]], "offset": [0.25]}, 3)),
        ("quadratic_fidelity", make_function(
            "quadratic_fidelity",
            {"terms": [{"matrix": np.eye(2).tolist(), "offset": [0.3, -0.2],
                        "weight": 2.0}]}, 2)),
        ("zero_function", make_function("zero_function", {}, 2)),
        ("scaled_translated", make_function(
            "scaled_translated",
            {"inner": {"prox": "l1", "params": {"weight": 1.0}},
             "shift": 0.5, "scale": 2.0}, 2)),
    ]
    return entries


def test_l1_soft_threshold():
    op = make_function("l1", {"weight": 1.0}, 3).operator
    np.testing.assert_allclose(op.resolve(1.0, np.array([2.0, -0.5, 0.0])),
                               [1.0, 0.0, 0.0], atol=0)


def test_indicator_box_projection_is_gamma_independent():
    op = make_function("indicator_box", {"lo": 0.0, "hi": 1.0}, 3).operator
    x = np.array([-3.0, 0.4, 9.0])
    np.testing.assert_allclose(op.resolve(7.0, x), [0.0, 0.4, 1.0], atol=0)
    np.testing.assert_allclose(op.resolve(0.01, x), op.resolve(100.0, x),
                               atol=0)


def test_group_l12_block_shrinkage():
    fn = make_function("group_l12", {"blocks": [[0, 1]], "weight": 1.0}, 2)
    out = fn.operator.resolve(1.0, np.array([3.0, 4.0]))
    np.testing.assert_allclose(out, [2.4, 3.2], atol=1e-14)

    # independent 2-D grid-refinement oracle for min 0.5||y-x||^2 + ||y||_2
    x = np.array([3.0, 4.0])
    argmin, _ = grid_refine_minimize(
        lambda y: fn.value(y) + 0.5 * float(np.add.reduce((y - x) ** 2)),
        lo=x - 6.0, hi=x + 6.0, levels=7)
    np.testing.assert_allclose(out, argmin, atol=2e-3)


def test_group_l12_zero_block_maps_to_zero():
    op = make_function("group_l12", {"blocks": [[0, 1]], "weight": 1.0},
                       2).operator
    np.testing.assert_allclose(op.resolve(1.0, np.zeros(2)), np.zeros(2),
                               atol=0)


def test_group_l12_strided_layout_matches_explicit():
    # channel layout [p, K+p] is the fast path; compare against the generic
    # gather implementation through a permuted (non-strided) block list
    rng = np.random.default_rng(0)
    K = 5
    x = rng.standard_normal(2 * K)
    strided = make_function(
        "group_l12", {"blocks": [[p, K + p] for p in range(K)], "weight": 0.7},
        2 * K).operator
    shuffled = make_function(
        "group_l12",
        {"blocks": [[K + p, p] for p in range(K)], "weight": 0.7},
        2 * K).operator
    np.testing.assert_allclose(strided.resolve(0.8, x),
                               shuffled.resolve(0.8, x), atol=1e-14)


def test_indicator_affine_projection():
    E = np.array([[1.0, 1.0]])
    d = np.array([2.0])
    op = make_function("indicator_affine", {"matrix": E, "offset": d},
                       2).operator
    np.testing.assert_allclose(op.resolve(3.0, np.zeros(2)), [1.0, 1.0],
                               atol=1e-12)


def test_indicator_affine_rank_deficient_rows():
    # duplicated constraint rows: the pseudo-inverse still yields the
    # orthogonal projection onto the (consistent) affine set
    E = np.array([[1.0, 1.0], [2.0, 2.0]])
    d = np.array([2.0, 4.0])
    op = make_function("indicator_affine", {"matrix": E, "offset": d},
                       2).operator
    np.testing.assert_allclose(op.resolve(1.0, np.zeros(2)), [1.0, 1.0],
                               atol=1e-10)
    np.testing.assert_allclose(op.resolve(1.0, np.array([2.0, 0.0])),
                               [2.0, 0.0], atol=1e-10)


def test_quadratic_fidelity_prox():
    # 0.5||x - r||^2: prox solves (1+gamma) y = x + gamma r
    fn = make_function(
        "quadratic_fidelity",
        {"terms": [{"matrix": np.eye(1), "offset": [0.0], "weight": 1.0}]}, 1)
    out = fn.operator.resolve(0.5, np.array([1.0]))
    np.testing.assert_allclose(out, [1.0 / 1.5], atol=1e-14)


def test_scaled_translated_wraps_inner_prox():
    fn = make_function(
        "scaled_translated",
        {"inner": {"prox": "l1", "params": {"weight": 1.0}},
         "shift": 1.0, "scale": 1.0}, 1)
    # prox of |x-1| at 3 with gamma 1: 1 + soft(2, 1) = 2
    np.testing.assert_allclose(fn.operator.resolve(1.0, np.array([3.0])),
                               [2.0], atol=1e-14)
    assert fn.value(np.array([3.0])) == pytest.approx(2.0)


def test_unknown_prox_name_raises():
    with pytest.raises(ConfigurationError):
        make_function("huber", {}, 3)


@pytest.mark.parametrize("name, params, dim", [
    ("l1", {"weigth": 0.5}, 3),
    ("indicator_zero", {"x": 1}, 2),
    ("quadratic_fidelity", {"terms": [{"matrix": [[1.0, 0.0]],
                                       "wieght": 2.0}]}, 2),
    ("scaled_translated", {"inner": {"prox": "l1", "parms": {}}}, 2),
])
def test_unknown_parameter_name_raises(name, params, dim):
    with pytest.raises(ConfigurationError, match="unknown"):
        make_function(name, params, dim)


def test_malformed_blocks_raise():
    with pytest.raises(ConfigurationError):
        make_function("group_l12", {"blocks": [[0, 1], [1, 2]]}, 3)
    with pytest.raises(ConfigurationError):
        make_function("group_l12", {"blocks": [[0, 9]]}, 3)
    # a fractional index is rejected, not truncated to a different block;
    # so are ragged blocks and a block list that is not a list
    for blocks in ([[0, 1.5]], [[0, [1, 2]]], 5, []):
        with pytest.raises(ConfigurationError):
            make_function("group_l12", {"blocks": blocks}, 3)


def test_group_l12_uneven_blocks_match_per_block_formula():
    blocks = [[4, 0], [2], [5, 1, 6]]  # index 3 is in no block
    fn = make_function("group_l12", {"blocks": blocks, "weight": 0.9}, 7)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(7)
    x[[2]] = 0.0  # a zero block maps to zero
    gamma = 0.7
    expect = x.copy()
    for b in blocks:
        nb = np.linalg.norm(x[b])
        shrink = 0.0 if nb == 0.0 else max(0.0, 1.0 - gamma * 0.9 / nb)
        expect[b] = shrink * x[b]
    np.testing.assert_allclose(fn.operator.resolve(gamma, x), expect,
                               atol=1e-15)
    assert fn.value(x) == pytest.approx(
        0.9 * sum(np.linalg.norm(x[b]) for b in blocks), rel=1e-14)
    inside = np.array([0.3, 0.2, -0.9, 0.0, 0.4, 0.5, -0.5])
    assert fn.conjugate_value(inside) == 0.0
    assert fn.conjugate_value(inside + 0.1 * np.eye(7)[3]) == np.inf
    assert fn.conjugate_value(2.0 * inside) == np.inf


def test_quadratic_fidelity_resolvent_memory_stays_bounded():
    # one eigendecomposition serves every step size: 200 distinct gammas
    # must not accumulate a dim x dim factor each
    import tracemalloc

    dim = 100
    rng = np.random.default_rng(4)
    T = rng.standard_normal((60, dim))
    r = rng.standard_normal(60)
    fn = make_function("quadratic_fidelity",
                       {"terms": [{"matrix": T, "offset": r, "weight": 1.5}]},
                       dim)
    S = 1.5 * T.T @ T
    u0 = 1.5 * T.T @ r
    x = rng.standard_normal(dim)
    gammas = np.geomspace(0.01, 100.0, 200)
    fn.operator.resolve(gammas[0], x)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for gamma in gammas:
            out = fn.operator.resolve(gamma, x)
            expect = np.linalg.solve(np.eye(dim) + gamma * S, x + gamma * u0)
            assert np.max(np.abs(out - expect)) <= 1e-10 * (
                1.0 + np.max(np.abs(expect)))
            del out, expect
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 1_000_000


def test_resolvent_of_inverse_self_inverse_quadratic():
    # A = subgradient of 0.5||.||^2 has resolvent x/(1+gamma) and equals
    # its own inverse
    fn = make_function(
        "quadratic_fidelity",
        {"terms": [{"matrix": np.eye(1), "offset": [0.0], "weight": 1.0}]}, 1)
    out = resolvent_of_inverse(fn.operator, 1.0, np.array([2.0]))
    np.testing.assert_allclose(out, [1.0], atol=1e-14)


def test_resolvent_of_inverse_l1_gives_box_projection():
    fn = make_function("l1", {"weight": 1.0}, 1)
    x = np.array([0.4])
    out = resolvent_of_inverse(fn.operator, 1.0, x)
    np.testing.assert_allclose(out, [0.4], atol=1e-14)
    # x - J_A(x) equals the clamp of x onto [-1, 1] for gamma = 1
    for v in (-3.0, -0.4, 0.2, 5.0):
        xv = np.array([v])
        lhs = xv - fn.operator.resolve(1.0, xv)
        np.testing.assert_allclose(lhs, [np.clip(v, -1.0, 1.0)], atol=1e-14)


@pytest.mark.parametrize("name,fn", catalog_entries())
def test_moreau_identity_across_catalog(name, fn):
    rng = np.random.default_rng(17)
    for gamma in GAMMAS:
        for _ in range(20):
            x = 3.0 * rng.standard_normal(fn.dim)
            lhs = np.asarray(fn.operator.resolve(gamma, x)) \
                + gamma * resolvent_of_inverse(fn.operator, 1.0 / gamma,
                                               x / gamma)
            assert np.max(np.abs(lhs - x)) <= 1e-12, name


@pytest.mark.parametrize("name,fn", catalog_entries())
def test_catalog_resolvents_firmly_nonexpansive(name, fn):
    assert firm_nonexpansiveness_defect(fn.operator, trials=50) <= 1e-10


@pytest.mark.parametrize("name,fn", catalog_entries())
def test_catalog_resolvents_one_lipschitz(name, fn):
    rng = np.random.default_rng(23)
    for _ in range(30):
        gamma = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        x = rng.standard_normal(fn.dim)
        y = rng.standard_normal(fn.dim)
        jx = np.asarray(fn.operator.resolve(gamma, x))
        jy = np.asarray(fn.operator.resolve(gamma, y))
        assert np.linalg.norm(jx - jy) <= np.linalg.norm(x - y) + 1e-10


@pytest.mark.slow
def test_prox_variational_inequality_by_grid():
    # f(y) + ||y - x||^2 / (2 gamma) is minimized at the prox output
    rng = np.random.default_rng(29)
    for name, fn in catalog_entries():
        if fn.dim > 3:
            continue
        x = 0.8 * rng.standard_normal(fn.dim)
        for gamma in (0.5,):  # the acceptance suite sweeps the gamma grid
            prox = np.asarray(fn.operator.resolve(gamma, x))
            if name == "indicator_zero":
                lo, hi = -np.ones(fn.dim), np.ones(fn.dim)
            elif name == "indicator_affine":
                center = x.copy()
                center[0] = 0.25  # grid must contain the constraint plane
                lo, hi = center - 2.0, center + 2.0
            else:
                lo, hi = x - 3.0, x + 3.0
            argmin, _ = grid_refine_minimize(
                lambda y, f=fn: f.value(y)
                + float(np.add.reduce((y - x) ** 2)) / (2 * gamma),
                lo=lo, hi=hi, levels=6)
            assert np.max(np.abs(prox - argmin)) <= 2e-3, name


def test_gradient_coupling_zero():
    c = zero_coupling((2, 3))
    assert c.nu0 == 0.0
    np.testing.assert_allclose(c.apply(np.ones(5)), np.zeros(5), atol=0)


def test_gradient_coupling_half_squared_norm():
    c = gradient_coupling(lambda x: x, 1.0, (2, 3))
    x = np.arange(5.0)
    np.testing.assert_allclose(c.apply(x), x, atol=0)
    lip, mono = coupling_defects(c, trials=30)
    assert lip <= 1e-10 and mono <= 1e-10


def test_gradient_coupling_finite_difference_check():
    rng = np.random.default_rng(31)
    T = rng.standard_normal((4, 3))
    r = rng.standard_normal(4)

    def value(x):
        return 0.5 * float(np.sum((T @ x - r) ** 2))

    def grad(x):
        return T.T @ (T @ x - r)

    c = gradient_coupling(grad, float(np.linalg.norm(T, 2) ** 2), (3,))
    for _ in range(10):
        x = rng.standard_normal(3)
        fd = np.zeros(3)
        for j in range(3):
            h = 1e-5 * (1.0 + abs(x[j]))
            e = np.zeros(3)
            e[j] = h
            fd[j] = (value(x + e) - value(x - e)) / (2 * h)
        assert np.linalg.norm(fd - c.apply(x)) <= 1e-6 * (1 + np.linalg.norm(fd))


def test_soft_threshold_basics():
    np.testing.assert_allclose(soft_threshold(np.array([2.0, -0.5, 0.0]), 1.0),
                               [1.0, 0.0, 0.0], atol=0)


def block_index_errors_by_loop(blocks, dim):
    """The message the first bad block raises, checked block by block."""
    if not isinstance(blocks, (list, tuple)) or not blocks:
        return "group_l12 requires params['blocks'], a non-empty list of blocks"
    not_indices = "group_l12: a block must be a list of integer indices"
    try:
        index = [np.asarray(b) for b in blocks]
    except ValueError:
        return not_indices
    seen = np.zeros(dim, dtype=bool)
    for b in index:
        if b.size == 0:
            return "group_l12: empty block"
        if b.ndim != 1 or b.dtype.kind not in "iu":
            return not_indices
        if np.any(b < 0) or np.any(b >= dim):
            return "group_l12: block index out of range"
        if np.any(seen[b]):
            return "group_l12: blocks must be disjoint"
        seen[b] = True
    return None


@pytest.mark.parametrize("blocks", [
    [[0, 1], [2]], [[0, 1], [1, 2]], [[0, 9]], [[0, 1.5]], [[0, [1, 2]]],
    [], [[]], [[0], []], [[0, 1], [2, -1]], [[2], [0, 0]],
    [[0, 1], [5], [1]], [[0, 1], [1], []], [[0, "a"]], [[True, False]],
    [[0], [1, 9], [1]], [[[0, 1]]], [[0], [1], [[2]]], [[0, 1], [2, 9], [1]],
    [[0, 0], [1]], [[2], [2]], [(0,), (1, 2)], [[1], [0, 7], []],
    [np.array([2**64 - 1], dtype=np.uint64), [1]], ([0], [2, 1]),
])
def test_block_checks_raise_what_the_block_by_block_loop_raises(blocks):
    expected = block_index_errors_by_loop(blocks, 3)
    if expected is None:
        order, sizes, covered = _block_index({"blocks": blocks}, 3)
        flat = np.concatenate([np.asarray(b) for b in blocks])
        assert np.array_equal(order, flat)
        assert list(sizes) == [len(b) for b in blocks]
        assert list(covered) == [j in flat for j in range(3)]
    else:
        with pytest.raises(ConfigurationError) as info:
            _block_index({"blocks": blocks}, 3)
        assert str(info.value) == expected


@pytest.mark.parametrize("weight", ["0.5", True, None, [0.5, "0.5"],
                                    [[1.0], [False]]])
def test_catalog_params_are_typed(weight):
    with pytest.raises(ConfigurationError, match="'weight' must be a number"):
        make_function("l1", {"weight": weight}, 2)


def test_catalog_params_accept_numpy_values():
    fn = make_function("l1", {"weight": np.array([0.5, 1.0])}, 2)
    assert fn.value(np.array([2.0, -1.0])) == 2.0
    make_function("indicator_box", {"lo": np.float64(-1.0), "hi": 2}, 2)
    make_function("scaled_translated",
                  {"inner": make_function("l1", {}, 2), "scale": np.int64(2)},
                  2)
    with pytest.raises(ConfigurationError, match="'inner' must be an object"):
        make_function("scaled_translated", {"inner": "l1"}, 2)


@pytest.mark.parametrize("term", [
    {"matrix": [[1.0, "2"]]},
    {"matrix": [[1.0, 0.0]], "weight": "2"},
    {"matrix": [[1.0, 0.0]], "offset": [True]},
    [1.0, 0.0],
])
def test_quadratic_terms_are_typed(term):
    with pytest.raises(ConfigurationError):
        make_function("quadratic_fidelity", {"terms": [term]}, 2)


def test_assembly_takes_a_dense_matrix_as_it_is():
    rng = np.random.default_rng(31)
    mat = rng.standard_normal((7, 5))
    r = rng.standard_normal(7)
    opaque = LinOp(5, 7, lambda x: mat @ x, lambda y: mat.T @ y)
    direct = _assemble_quadratic(
        {"terms": [{"op": dense_op(mat), "offset": r, "weight": 0.7}]}, 5)
    by_columns = _assemble_quadratic(
        {"terms": [{"op": opaque, "offset": r, "weight": 0.7}]}, 5)
    for a, b in zip(direct[:3], by_columns[:3]):
        assert np.array_equal(a, b)


def test_quadratic_fidelity_builds_its_eigenbasis_once_on_first_use(
        monkeypatch):
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rng = np.random.default_rng(32)
    mat = rng.standard_normal((6, 4))
    fn = make_function("quadratic_fidelity",
                       {"terms": [{"matrix": mat, "offset": np.ones(6)}]}, 4)
    assert calls == []
    x = rng.standard_normal(4)
    expected = np.linalg.solve(np.eye(4) + 0.3 * mat.T @ mat,
                               x + 0.3 * mat.T @ np.ones(6))
    results = []
    threads = [threading.Thread(
        target=lambda: results.append(fn.operator.resolve(0.3, x)))
        for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert 1 <= len(calls) <= 4
    for out in results:
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
    seen = len(calls)
    fn.conjugate_value(np.zeros(4))
    fn.operator.resolve(1.0, x)
    assert len(calls) == seen
