import dataclasses

import numpy as np

from monosplit import checks
from monosplit.checks import format_report, run_checks
from monosplit.imaging import haar_analysis_op
from monosplit.linops import LinOp
from monosplit.prox import ResolventOp


def test_battery_passes_on_fresh_build():
    results = run_checks()
    failed = [name for name, passed, _ in results if not passed]
    assert failed == []


def test_battery_detects_corrupted_adjoint(monkeypatch):
    def corrupted_haar(height, width):
        base = haar_analysis_op(height, width)
        bad = np.zeros(base.in_dim)
        bad[0] = 1.0
        return LinOp(base.in_dim, base.out_dim, base.apply,
                     lambda y: base.adjoint_apply(y) + bad * y[0],
                     tag="corrupted")

    monkeypatch.setattr(checks, "haar_analysis_op", corrupted_haar)
    results = run_checks()
    assert any(not passed for name, passed, _ in results
               if name.startswith("adjoint"))
    report = format_report(results)
    assert "FAIL" in report


def test_dual_resolvent_entries_catch_what_the_inverse_identity_cannot(
        monkeypatch):
    # a resolvent that is not the prox of the l1 function: the inverse-
    # resolvent identity holds for any resolve map, the dual-resolvent
    # entry reads the conjugate and fails
    samples = checks._catalog_samples

    def wrong_l1(dims_1d=False):
        entries = dict(samples(dims_1d))
        l1 = entries["l1"]
        entries["l1"] = dataclasses.replace(l1, operator=ResolventOp(
            l1.dim, lambda gamma, x: np.clip(x, -0.5, 0.5)))
        return list(entries.items())

    monkeypatch.setattr(checks, "_catalog_samples", wrong_l1)
    passed = {name: ok for name, ok, _ in run_checks()}
    assert passed["inverse-resolvent l1"]
    assert [name for name, ok in passed.items()
            if name.startswith("dual-resolvent") and not ok] \
        == ["dual-resolvent l1"]
