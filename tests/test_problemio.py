import json
from pathlib import Path

import numpy as np
import pytest

from conftest import error_blocks
from monosplit.errors import ConfigurationError
from monosplit.problemio import load_problem, parse_problem
from monosplit.prox import soft_threshold
from monosplit.solver import IterateState, make_policy, solve
from monosplit.system import compute_beta, validate

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def load_doc(name):
    with open(PROBLEMS / name) as fh:
        return json.load(fh)


def test_shipped_lasso_parses_and_validates():
    problem = load_problem(PROBLEMS / "lasso.json")
    assert problem["kind"] == "minimization"
    assert validate(problem["system"]) == []
    assert problem["solver"]["tol"] == 1e-8


def test_shipped_lasso_solves_to_closed_form():
    problem = load_problem(PROBLEMS / "lasso.json")
    doc = load_doc("lasso.json")
    term = doc["functions"]["smooth"]["params"]["terms"][0]
    design = np.asarray(term["matrix"])
    b = np.asarray(term["offset"])
    oracle = soft_threshold(design.T @ b, 0.5)
    system = problem["system"]
    policy = make_policy(compute_beta(system))
    final, _, status = solve(system, IterateState.zeros(system.layout),
                             policy, tol=1e-8, max_iter=20000)
    assert status == "converged"
    assert np.max(np.abs(final.x1[0] - oracle)) <= 1e-6


def test_schema_violation_reports_pointer_path():
    doc = load_doc("lasso.json")
    doc["layout"]["h_dims"] = [0]
    with pytest.raises(ConfigurationError) as err:
        parse_problem(doc)
    assert "/layout/h_dims/0" in str(err.value)


def test_unknown_builder_reports_location():
    doc = load_doc("lasso.json")
    doc["operators"]["M"][0] = {"builder": "wavelet_packet", "params": {}}
    with pytest.raises(ConfigurationError) as err:
        parse_problem(doc)
    assert "/operators/M/0" in str(err.value)


def test_operator_dimension_mismatch_is_flagged():
    doc = load_doc("lasso.json")
    doc["operators"]["N"][0] = {"builder": "identity", "params": {"dim": 3}}
    with pytest.raises(ConfigurationError) as err:
        parse_problem(doc)
    assert "/operators/N/0" in str(err.value)


def test_vector_length_mismatch_is_flagged():
    doc = load_doc("lasso.json")
    doc["z"] = [[0.0, 0.0]]
    with pytest.raises(ConfigurationError) as err:
        parse_problem(doc)
    assert "/z/0" in str(err.value)


def test_inclusion_kind_roundtrip():
    n = 2
    doc = {
        "version": 1,
        "kind": "inclusion",
        "layout": {"m": 1, "s": 1, "h_dims": [n], "g_dims": [n],
                   "y_dims": [n], "x_dims": [n]},
        "operators": {
            "M": [{"builder": "identity", "params": {"dim": n}}],
            "N": [{"builder": "identity", "params": {"dim": n}}],
            "L": [[{"builder": "identity", "params": {"dim": n}}]],
        },
        "functions": {
            "A": [{"prox": "l1", "params": {"weight": 0.3}}],
            "coupling": {"name": "quadratic_gradient",
                         "params": {"terms": [{"matrix": np.eye(n).tolist(),
                                               "offset": [1.0, -1.0],
                                               "weight": 1.0}]}},
            "B": [{"prox": "zero_function", "params": {}}],
            "D": [{"prox": "indicator_zero", "params": {}}],
        },
        "errors": {"name": "geometric", "params": {"rho": 0.5,
                                                   "amplitude": 0.01}},
    }
    problem = parse_problem(doc)
    system = problem["system"]
    assert validate(system) == []
    policy = make_policy(compute_beta(system))
    final, _, status = solve(system, IterateState.zeros(system.layout),
                             policy, errors=problem["errors"],
                             tol=1e-8, max_iter=10000)
    assert status == "converged"
    # soft-threshold fixed point of x = prox(x - (x - z)) with z = (1, -1)
    np.testing.assert_allclose(final.x1[0], [0.7, -0.7], atol=1e-6)


def test_shipped_qp_parses_and_validates():
    problem = load_problem(PROBLEMS / "qp.json")
    assert validate(problem["system"]) == []


def test_dense_operator_entries():
    doc = load_doc("lasso.json")
    n = doc["layout"]["h_dims"][0]
    doc["operators"]["L"] = [[{"dense": (2.0 * np.eye(n)).tolist()}]]
    problem = parse_problem(doc)
    out = problem["system"].L[0][0].apply(np.ones(n))
    np.testing.assert_allclose(out, 2.0 * np.ones(n), atol=0)

    doc["operators"]["L"] = [[{"dense": np.eye(3).tolist()}]]
    with pytest.raises(ConfigurationError) as err:
        parse_problem(doc)
    assert "/operators/L/0/0" in str(err.value)


def test_geometric_error_schedule_from_file():
    doc = load_doc("lasso.json")
    doc["errors"] = {"name": "geometric", "params": {"rho": 0.9,
                                                     "amplitude": 0.1}}
    problem = parse_problem(doc)
    assert "geometric" in problem["errors"].description


# tests/test_cli.py runs rho 1.5, amplitude "nan" and seeds -1 and 2.5
@pytest.mark.parametrize("entry, pointer", [
    ({"name": "uniform"}, "/errors/name"),
    ({"name": "zero", "params": {"rho": 0.5}}, "/errors/params"),
    ({"name": "geometric", "params": {"sigma": 0.1}}, "/errors/params"),
    ({"name": "geometric", "params": {"amplitude": 1e400}},  # inf
     "/errors/params/amplitude"),
])
def test_error_schedule_entry_reports_pointer(entry, pointer):
    doc = load_doc("lasso.json")
    doc["errors"] = entry
    with pytest.raises(ConfigurationError, match=pointer):
        parse_problem(doc)


def test_nan_amplitude_is_rejected_with_pointer():
    doc = load_doc("lasso.json")
    doc["errors"] = {"name": "geometric",
                     "params": {"amplitude": float("nan")}}
    with pytest.raises(ConfigurationError, match="/errors/params"):
        parse_problem(doc)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_problem_file_rejects_non_json_constants(tmp_path, constant):
    text = (PROBLEMS / "lasso.json").read_text().replace(
        '"name": "zero"',
        f'"name": "geometric", "params": {{"amplitude": {constant}}}')
    assert constant in text
    path = tmp_path / "nonfinite.json"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=f"{constant} is not a JSON"):
        load_problem(path)


def test_integral_float_seed_is_accepted():
    doc = load_doc("lasso.json")
    doc["errors"] = {"name": "geometric", "params": {}}
    doc["solver"]["seed"] = 2.0
    doc_int = load_doc("lasso.json")
    doc_int["errors"] = {"name": "geometric", "params": {}}
    doc_int["solver"]["seed"] = 2
    layout = parse_problem(doc)["system"].layout
    a = error_blocks(parse_problem(doc)["errors"].realize(3, layout), layout)
    b = error_blocks(parse_problem(doc_int)["errors"].realize(3, layout),
                     layout)
    for family in a:
        for x, y in zip(a[family], b[family]):
            assert x.tobytes() == y.tobytes()
