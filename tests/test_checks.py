import numpy as np

from monosplit import checks
from monosplit.checks import format_report, run_checks
from monosplit.imaging import haar_analysis_op
from monosplit.linops import LinOp


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
