import csv
import json
import re
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from monosplit import cli, solver
from monosplit.cli import main
from monosplit.demos import DEMO_NAMES, get_demo
from monosplit.prox import soft_threshold
from monosplit.solver import TRACE_COLUMNS
from monosplit.problemio import load_problem
from monosplit.system import compute_beta

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def read_summary(out_dir):
    with open(Path(out_dir) / "summary.json") as fh:
        return json.load(fh)


def test_solve_lasso_file(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", str(PROBLEMS / "lasso.json"), "--out", str(out)])
    assert code == 0

    summary = read_summary(out)
    assert summary["status"] == "converged"
    for key in ("beta", "epsilon", "gamma", "final_displacement",
                "transversality_defect", "wall_time_s"):
        assert key in summary

    with open(out / "solution.json") as fh:
        solution = json.load(fh)
    with open(PROBLEMS / "lasso.json") as fh:
        doc = json.load(fh)
    term = doc["functions"]["smooth"]["params"]["terms"][0]
    oracle = soft_threshold(np.asarray(term["matrix"]).T
                            @ np.asarray(term["offset"]), 0.5)
    assert np.max(np.abs(np.asarray(solution["xbar"][0]) - oracle)) <= 1e-6

    with open(out / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TRACE_COLUMNS
    assert len(rows) > 2
    disp = [float(r[2]) for r in rows[1:]]
    assert disp[-1] <= 1e-8


def test_solve_rejects_overlarge_gamma(tmp_path, capsys):
    doc = json.loads((PROBLEMS / "lasso.json").read_text())
    doc["solver"]["gamma"] = 5.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "gamma" in err


def test_solve_budget_exhausted_exits_2(tmp_path):
    doc = json.loads((PROBLEMS / "lasso.json").read_text())
    doc["solver"]["max_iter"] = 1
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert read_summary(tmp_path / "o")["status"] == "max_iter"


def test_integral_float_counts_are_solved_as_written(tmp_path, capsys):
    doc = json.loads((PROBLEMS / "qp.json").read_text())
    outputs = {}
    for count in (50, 50.0):
        doc["solver"].update(max_iter=count, seed=count,
                             trace_every=count // 10)
        path = tmp_path / f"{count!r}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"out_{count!r}"
        assert main(["solve", str(path), "--out", str(out)]) == 2
        assert '"max_iter": 50,' in (out / "summary.json").read_text()
        outputs[count] = [(out / name).read_bytes()
                          for name in ("trace.csv", "solution.json")]
    assert capsys.readouterr().err == ""
    assert outputs[50] == outputs[50.0]


def test_solve_schema_error_exits_1(tmp_path, capsys):
    doc = json.loads((PROBLEMS / "lasso.json").read_text())
    doc["kind"] = "mystery"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "/kind" in capsys.readouterr().err


def test_trace_every_env_override(tmp_path, monkeypatch):
    out = tmp_path / "dense_trace"
    monkeypatch.setenv("SOLVER_TRACE_EVERY", "1")
    code = main(["solve", str(PROBLEMS / "lasso.json"), "--out", str(out)])
    assert code == 0
    with open(out / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    iters = read_summary(out)["iterations"]
    assert len(rows) - 1 == iters


@pytest.mark.parametrize("value", ["x", "0", "-3", "2.5",
                                   "3_0", "\u0663", "+3", " 3",
                                   pytest.param("9" * 5000,
                                                id="5000-digits")])
def test_trace_every_env_rejects_other_than_positive_integers(
        tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("SOLVER_TRACE_EVERY", value)
    code = main(["solve", str(PROBLEMS / "lasso.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "SOLVER_TRACE_EVERY" in err
    assert "Traceback" not in err


def unreadable_case(case, tmp_path):
    """The command line of one unreadable-input case, and the path that
    its error line must name."""
    a_file = tmp_path / "a_file"
    a_file.write_text("not a directory")
    lasso = str(PROBLEMS / "lasso.json")
    out = str(tmp_path / "out")
    if case == "missing":
        missing = str(tmp_path / "missing.json")
        return ["solve", missing, "--out", out], missing
    if case == "directory":
        return ["solve", str(tmp_path), "--out", out], str(tmp_path)
    if case == "not-utf8":
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"version": 1, "kind": "caf\xe9"}')
        return ["solve", str(latin1), "--out", out], str(latin1)
    if case in ("deep-nesting", "long-integer"):
        bad = tmp_path / f"{case}.json"
        # past the decoder's recursion limit, and past Python's int-string
        # limit of 4300 digits
        bad.write_text("[" * 5000 + "]" * 5000 if case == "deep-nesting"
                       else re.sub(r'"max_iter": *\d+', '"max_iter": '
                                   + "9" * 5000, Path(lasso).read_text()))
        return ["solve", str(bad), "--out", out], "not valid JSON"
    if case == "out-is-a-file":
        return ["solve", lasso, "--out", str(a_file)], str(a_file)
    if case == "trace-is-a-directory":
        (tmp_path / "out" / "trace.csv").mkdir(parents=True)
        return ["solve", lasso, "--out", out], str(tmp_path / "out"
                                                   / "trace.csv")
    under = str(a_file / "run")
    if case == "out-under-a-file":
        return ["solve", lasso, "--out", under], under
    return ["demo", "lasso", "--out", under], under


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8",
                                  "deep-nesting", "long-integer",
                                  "out-is-a-file", "trace-is-a-directory",
                                  "out-under-a-file",
                                  "demo-out-under-a-file"])
def test_unreadable_inputs_are_errors_not_tracebacks(tmp_path, capsys, case):
    argv, path = unreadable_case(case, tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and path in err
    assert "Traceback" not in err


def test_an_integer_literal_past_the_digit_limit_names_the_limit(tmp_path,
                                                                 capsys):
    bad = tmp_path / "nines.json"
    bad.write_text(re.sub(r'"max_iter": *\d+', '"max_iter": ' + "9" * 5000,
                          (PROBLEMS / "lasso.json").read_text()))
    assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == ("error: not valid JSON: integer literal longer than "
                   "4300 digits\n")


def nested(depth):
    value = 0.0
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("z, listed", [
    ([["x"] * 200000], "and 199980 more"),
    ([nested(900)], "[[[[..."),
], ids=["200000-strings", "900-deep"])
def test_a_schema_report_is_bounded(tmp_path, capsys, z, listed):
    doc = json.loads((PROBLEMS / "lasso.json").read_text())
    doc["z"] = z
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: problem file is invalid:")
    assert len(err) < 4096 and listed in err
    assert err.count("\n  /z/0") <= 20


def test_demo_numeric_error_summary_has_no_demo_fields(tmp_path, monkeypatch):
    from monosplit import cli
    from monosplit.errors import NumericError

    def failing_solve(*args, **kwargs):
        raise NumericError("non-finite value in p11, block 0", iteration=3)

    monkeypatch.setattr(cli, "solve", failing_solve)
    out = tmp_path / "demo"
    assert main(["demo", "lasso", "--out", str(out)]) == 1
    summary = read_summary(out)
    assert summary["status"] == "numeric_error"
    assert summary["demo"] == "lasso"
    assert "oracle_max_error" not in summary


def test_demo_lasso(tmp_path):
    out = tmp_path / "demo"
    code = main(["demo", "lasso", "--out", str(out)])
    assert code == 0
    summary = read_summary(out)
    assert summary["demo"] == "lasso"
    assert summary["oracle_max_error"] <= 1e-6
    # each demo's exit count is pinned, so a change that moves its
    # trajectory, or a stop decision through the last bits of the
    # displacement, shows here
    assert summary["iterations"] == 75


def test_demo_separation_reports_identical(tmp_path):
    out = tmp_path / "sep"
    code = main(["demo", "separation", "--out", str(out)])
    assert code == 0
    summary = read_summary(out)
    assert summary["separation_report"] == "identical"
    assert summary["iterations"] == 293


def test_demo_qp(tmp_path):
    out = tmp_path / "qp"
    code = main(["demo", "qp", "--out", str(out)])
    assert code == 0
    summary = read_summary(out)
    assert summary["oracle_max_error"] <= 1e-6
    assert summary["iterations"] == 156


@pytest.mark.parametrize("name", ["lasso", "qp"])
def test_shipped_problem_file_is_the_demo(name, tmp_path, monkeypatch):
    # problems/<name>.json is the demo's instance written out: both commands
    # write the same solution and trace bytes
    monkeypatch.delenv(cli.TRACE_ENV, raising=False)
    solved, demo = tmp_path / "solve", tmp_path / "demo"
    assert main(["solve", str(PROBLEMS / f"{name}.json"),
                 "--out", str(solved)]) == 0
    assert main(["demo", name, "--out", str(demo)]) == 0
    for output in ("solution.json", "trace.csv"):
        assert (solved / output).read_bytes() == (demo / output).read_bytes()


def test_demo_deblur_writes_images(tmp_path):
    from monosplit.imaging import read_pgm

    out = tmp_path / "deblur"
    code = main(["demo", "deblur", "--out", str(out)])
    assert code == 0
    summary = read_summary(out)
    assert summary["status"] == "converged"
    assert summary["iterations"] == 7521
    for name in ("truth.pgm", "observed.pgm", "recovered.pgm"):
        img = read_pgm(out / name)
        assert img.height == img.width == 16
    recovered = read_pgm(out / "recovered.pgm")
    truth = read_pgm(out / "truth.pgm")
    # recovery beats the raw observation against the truth
    observed = read_pgm(out / "observed.pgm")
    err_rec = np.linalg.norm(recovered.pixels - truth.pixels)
    err_obs = np.linalg.norm(observed.pixels - truth.pixels)
    assert err_rec < err_obs


def test_check_command(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_check_reports_are_deterministic(capsys):
    main(["check"])
    first = capsys.readouterr().out
    main(["check"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("section, key, value, pointer", [
    ("errors", "rho", 1.5, "/errors/params/rho"),
    ("errors", "amplitude", "nan", "/errors/params/amplitude"),
    ("solver", "seed", -1, "/solver/seed"),
    ("solver", "seed", 2.5, "/solver/seed"),
])
def test_solve_rejects_bad_error_schedule_entries(tmp_path, capsys, section,
                                                  key, value, pointer):
    doc = json.loads((PROBLEMS / "lasso.json").read_text())
    doc["errors"] = {"name": "geometric", "params": {}}
    target = doc["errors"]["params"] if section == "errors" else doc["solver"]
    target[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and pointer in err
    assert "Traceback" not in err


# one edit of problems/lasso.json each: name -> (path to the replaced value,
# the new value, the pointer the error must name)
BAD_PARAMS = {
    "dim-string": ("operators/M/0/params/dim", "ten",
                   "/operators/M/0/params/dim"),
    "scale-string": ("operators/M/0", {"builder": "scaled_identity",
                                       "params": {"dim": 10, "scale": "x"}},
                     "/operators/M/0/params/scale"),
    "blur-size-fraction": ("operators/M/0", {
        "builder": "box_blur", "params": {"height": 2, "width": 5,
                                          "size": 3.5}},
        "/operators/M/0/params/size"),
    "dense-ragged": ("operators/M/0", {"dense": [[1.0, 0.0], [1.0]]},
                     "/operators/M/0"),
    "term-without-matrix": ("functions/smooth/params/terms/0",
                            {"offset": [0.0] * 10}, "/functions/smooth"),
    "term-weight-string": ("functions/smooth/params/terms/0/weight", "heavy",
                           "/functions/smooth"),
    "l1-weight-string": ("functions/f/0/params/weight", "half",
                         "/functions/f/0"),
    "l1-weight-length-2": ("functions/f/0/params/weight", [0.5, 0.5],
                           "/functions/f/0"),
    "l1-weight-null": ("functions/f/0/params/weight", None,
                       "/functions/f/0"),
    "l1-weight-numeric-string": ("functions/f/0/params/weight", "0.5",
                                 "/functions/f/0"),
    "l1-weight-bool": ("functions/f/0/params/weight", True,
                       "/functions/f/0"),
    "term-weight-nan": ("functions/smooth/params/terms/0/weight", "nan",
                        "/functions/smooth"),
    "l1-weigth-typo": ("functions/f/0/params", {"weigth": 0.5},
                       "/functions/f/0"),
    "group-weight-string": ("functions/f/0", {
        "prox": "group_l12", "params": {"blocks": [[0, 1]], "weight": "x"}},
        "/functions/f/0"),
    "scaled-scale-string": ("functions/f/0", {
        "prox": "scaled_translated",
        "params": {"inner": {"prox": "l1"}, "scale": "x"}},
        "/functions/f/0"),
    "box-lo-string": ("functions/f/0", {"prox": "indicator_box",
                                        "params": {"lo": "low"}},
                      "/functions/f/0"),
    # decodes, but nests deeper than a recursive walk of it could go
    "l1-weight-nested-900": ("functions/f/0/params/weight",
                             reduce(lambda w, _: [w], range(900), 0.5),
                             "/functions/f/0"),
}


@pytest.mark.parametrize("path, value, pointer", BAD_PARAMS.values(),
                         ids=BAD_PARAMS)
def test_solve_rejects_bad_params_with_pointer(tmp_path, capsys, path, value,
                                               pointer):
    doc = json.loads((PROBLEMS / "lasso.json").read_text())
    *parents, last = path.split("/")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["solve", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and pointer in err
    assert "Traceback" not in err


def test_builder_dims_are_checked_before_the_builder_runs(tmp_path, capsys,
                                                          monkeypatch):
    from monosplit import imaging

    def no_matrix(*args, **kwargs):
        raise AssertionError("the blur matrix was built")

    monkeypatch.setattr(imaging, "_stencil_matrix", no_matrix)
    doc = json.loads((PROBLEMS / "qp.json").read_text())
    # a 40000x40000 matrix (12.8 GB) in a layout of dim 4
    doc["operators"]["M"][0] = {"builder": "box_blur",
                                "params": {"height": 200, "width": 200}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["solve", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "/operators/M/0" in err
    assert "40000->40000" in err and "Traceback" not in err


def test_builder_out_of_memory_exits_1_with_its_pointer(tmp_path, capsys,
                                                      monkeypatch):
    from monosplit import imaging

    # a box_blur of 10000x10000 asks for 71.1 PiB, but its layout first
    # needs zero vectors of 10**8 elements, which a machine may refuse
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 71.1 PiB")

    monkeypatch.setattr(imaging, "_stencil_matrix", no_memory)
    doc = json.loads((PROBLEMS / "lasso.json").read_text())
    doc["operators"]["M"][0] = {"builder": "box_blur",
                                "params": {"height": 2, "width": 5}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: /operators/M/0: Unable to allocate")
    assert "Traceback" not in err


def test_builder_with_a_missing_param_exits_1_with_its_pointer(tmp_path,
                                                               capsys):
    doc = json.loads((PROBLEMS / "qp.json").read_text())
    doc["operators"]["N"][0] = {"builder": "gradient",
                                "params": {"height": 2}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "/operators/N/0" in err
    assert "width" in err and "Traceback" not in err


def test_summary_reports_where_beta_came_from(tmp_path):
    out = tmp_path / "qp"
    assert main(["solve", str(PROBLEMS / "qp.json"), "--out", str(out)]) == 0
    summary = read_summary(out)
    terms = summary["beta_terms"]
    assert [t["term"] for t in terms] == ["C", "N[0]oL[0][0]", "N[0]", "M[0]"]
    assert [t["method"] for t in terms] == ["lanczos", "certificate",
                                            "certificate", "certificate"]
    assert [t["value"] for t in terms[1:]] == [1.0, 1.0, 1.0]
    assert all(t["converged"] for t in terms)
    assert terms[0]["iterations"] > 0
    assert summary["beta"] == terms[0]["value"] + np.sqrt(1.0 + 2.0)


@pytest.mark.parametrize("name", ["lasso.json", "qp.json"])
def test_a_run_steps_against_the_step_bound(tmp_path, name):
    # the scale is the largest the metric's bound admits, and each block
    # steps at the scale times its weight
    out = tmp_path / "o"
    assert main(["solve", str(PROBLEMS / name), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["step_bound"] < summary["beta"]
    assert summary["gamma"] == ((1.0 - summary["epsilon"])
                                / summary["metric_bound"])
    bounds = load_problem(PROBLEMS / name)["system"].bounds
    # the summary's bounds are the report's, bit for bit
    assert (summary["beta"], summary["step_bound"], summary["metric_bound"]) \
        == (bounds.beta, bounds.step_bound, bounds.metric_bound)
    assert summary["block_steps"] == [summary["gamma"] * d
                                      for d in bounds.metric]


def test_a_run_builds_the_block_norm_matrix_once(tmp_path, monkeypatch):
    # validate fills the spec's bounds, and the policy and the summary read
    # them
    from monosplit.system import _block_norms

    calls = []
    monkeypatch.setattr("monosplit.system._block_norms",
                        lambda spec: calls.append(spec) or _block_norms(spec))
    out = tmp_path / "o"
    assert main(["solve", str(PROBLEMS / "lasso.json"), "--out", str(out)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_every_demo_steps_against_a_bound_below_beta(name):
    # the CLI steps under the metric, against the metric's bound; the
    # summary's step_bound is the scalar bound, below beta
    system = get_demo(name).system
    policy = cli._policy(system)
    bounds = system.bounds
    assert (policy.metric, policy.beta) == (bounds.metric, bounds.metric_bound)
    assert bounds.step_bound < bounds.beta == compute_beta(system)


def test_a_gamma_past_the_metric_bound_is_an_error_line(tmp_path, capsys):
    doc = json.loads((PROBLEMS / "lasso.json").read_text())
    doc["solver"]["gamma"] = 5.0
    bad = tmp_path / "bad_gamma.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == 1
    bound = load_problem(PROBLEMS / "lasso.json")["system"].bounds.metric_bound
    assert capsys.readouterr().err == (
        f"error: gamma = 5.0 outside [0.01, {0.99 / bound}] for beta = "
        f"{bound}, epsilon = 0.01\n")


# where a number goes in problems/lasso.json, and the pointer that an
# integer too large for a double there must name
OVERFLOW_PLACES = {
    "z": ("z", "/z/0"),
    "r": ("r", "/r/0"),
    "tol": ("solver/tol", "/solver/tol"),
    "epsilon": ("solver/epsilon", "/solver/epsilon"),
    "gamma": ("solver/gamma", "/solver/gamma"),
    "l1-weight": ("functions/f/0/params/weight", "/functions/f/0"),
}


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400],
                         ids=["1e400", "-1e400", "401-digits"])
@pytest.mark.parametrize("place", OVERFLOW_PLACES)
def test_numbers_beyond_a_double_are_errors(tmp_path, capsys, place,
                                            literal):
    path, pointer = OVERFLOW_PLACES[place]
    doc = json.loads((PROBLEMS / "lasso.json").read_text())
    *parents, last = path.split("/")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    token = "@@number@@"
    node[last] = [[token] + [0.0] * 9] if place in ("z", "r") else token
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace(f'"{token}"', literal))
    code = main(["solve", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    if "e" in literal:
        assert f"number {literal} is out of the range of a double" in err
    else:
        assert pointer in err


@pytest.mark.parametrize("key", ["h_dims", "g_dims"])
def test_dims_numpy_cannot_allocate_are_errors(tmp_path, capsys, key):
    # np.zeros refuses 10**30 outright; a dim that needs a real allocation
    # to fail would fail or not depending on the machine's overcommit
    doc = json.loads((PROBLEMS / "lasso.json").read_text())
    doc["layout"][key] = [10**30]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["solve", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"/layout/{key}" in err
    assert "Traceback" not in err


def test_summary_defect_comes_from_the_last_trace_record(tmp_path,
                                                         monkeypatch):
    calls = []

    def counted(system, state):
        calls.append(state.n)
        return solver.transversality_defect(system, state)

    monkeypatch.setattr(cli, "transversality_defect", counted)
    out = tmp_path / "qp"
    assert main(["solve", str(PROBLEMS / "qp.json"), "--out", str(out)]) == 0
    with open(out / "trace.csv") as fh:
        last = list(csv.reader(fh))[-1]
    assert read_summary(out)["transversality_defect"] == float(last[-1])
    assert calls == []


def test_failed_validation_is_an_error_line(tmp_path, capsys):
    # every map is zero, so beta = 0 and the step range is empty
    zero = {"builder": "zero", "params": {"in_dim": 2, "out_dim": 2}}
    doc = {
        "version": 1,
        "kind": "minimization",
        "layout": {"m": 1, "s": 1, "h_dims": [2], "g_dims": [2],
                   "y_dims": [2], "x_dims": [2]},
        "operators": {"M": [zero], "N": [zero], "L": [[zero]]},
        "functions": {"f": [{"prox": "l1", "params": {"weight": 0.3}}],
                      "g": [{"prox": "zero_function"}],
                      "ell": [{"prox": "zero_function"}]},
    }
    path = tmp_path / "uncoupled.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["solve", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "beta = 0" in err
    assert "Traceback" not in err
    assert not out.exists()


# Python's float ** raises OverflowError where numpy's gives inf; each
# case with the terms its error line names
OVERFLOWING_SQUARES = {
    "M-1e200": ({"M": 1e200}, "M[0] = 1e+200"),
    "N-and-L-1e160": ({"N": 1e160, "L": 1e160},
                      "N[0]oL[0][0] = inf, N[0] = 1e+160"),
}


@pytest.mark.parametrize("scales, terms", OVERFLOWING_SQUARES.values(),
                         ids=OVERFLOWING_SQUARES)
def test_a_norm_whose_square_overflows_is_an_error_line(tmp_path, capsys,
                                                        scales, terms):
    doc = json.loads((PROBLEMS / "lasso.json").read_text())
    ops = doc["operators"]
    for family, scale in scales.items():
        row = ops["L"][0] if family == "L" else ops[family]
        row[0] = {"builder": "scaled_identity",
                  "params": {"dim": 10, "scale": scale}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == ("error: problem failed validation:\n  beta is infinite: "
                   f"squaring the norm bound overflows at {terms}\n")


def test_an_unwritable_demo_image_is_an_error_line(tmp_path, capsys,
                                                   monkeypatch):
    from monosplit.demos import deblur_demo

    # the 8x8 instance solves in about a second
    monkeypatch.setattr(cli, "get_demo", lambda name: deblur_demo(size=8))
    out = tmp_path / "deblur"
    (out / "truth.pgm").mkdir(parents=True)
    assert main(["demo", "deblur", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / 'truth.pgm'}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_an_overflowing_state_warns_nothing_and_writes_null(tmp_path,
                                                            capsys):
    doc = json.loads((PROBLEMS / "lasso.json").read_text())
    doc["z"] = [[1e200] * 10]
    doc["solver"]["max_iter"] = 50
    path = tmp_path / "huge_z.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["solve", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_refuse_constant)
    assert summary["final_displacement"] is None
    assert summary["transversality_defect"] is None
    with open(out / "trace.csv") as fh:
        assert list(csv.reader(fh))[-1][2] == "inf"


def test_a_state_too_large_to_move_is_no_convergence(tmp_path, capsys):
    # every increment is below the ulp of 1e300, so the state stands still
    # while its transversality defect is not finite
    doc = json.loads((PROBLEMS / "lasso.json").read_text())
    doc["r"] = [[1e300] * 10]
    path = tmp_path / "huge_r.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["solve", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: the displacement met tol with a non-finite transversality "
        "defect\n")
    assert read_summary(out)["status"] == "numeric_error"
    assert (out / "trace.csv").exists() and (out / "solution.json").exists()


def test_an_overflowing_norm_is_only_its_error_line(tmp_path, capsys):
    doc = json.loads((PROBLEMS / "qp.json").read_text())
    for term in doc["functions"]["smooth"]["params"]["terms"]:
        term["matrix"] = [[1e300] * len(row) for row in term["matrix"]]
    path = tmp_path / "huge_matrix.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: /functions/smooth: operator_norm: non-finite adjoint value\n")
