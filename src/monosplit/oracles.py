"""Brute-force reference computations for verification.

Everything here exists to cross-check the solver and its supporting
machinery from a different direction: nested grid search for tiny prox
problems, a dense KKT solve for equality-constrained quadratics, and a
Jacobi singular-value routine as an independent check on the Lanczos
norm estimate.
None of these share code with the iterative solver.
"""

import numpy as np

from .errors import InfeasibleError, OracleError

GRID_POINTS = 41
GRID_SHRINK = 4.0


def grid_refine_minimize(objective, lo, hi, levels=6):
    """Minimize ``objective`` over a box by nested grid search.

    Lays a 41-point-per-axis grid over [lo, hi], recenters on the best
    point, shrinks the box by 4x and repeats ``levels`` times.  Supports 1
    to 3 dimensions; the objective may return ``inf`` (indicators).

    Returns
    -------
    (argmin, value) : (ndarray, float)
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    dims = lo.size
    if dims not in (1, 2, 3) or hi.size != dims:
        raise ValueError("grid_refine_minimize supports dims 1..3")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    center = 0.5 * (lo + hi)
    width = hi - lo
    best_x = None
    best_val = np.inf
    for level in range(levels):
        axes = [np.linspace(center[d] - 0.5 * width[d],
                            center[d] + 0.5 * width[d],
                            GRID_POINTS) for d in range(dims)]
        grids = np.meshgrid(*axes, indexing="ij")
        points = np.stack([g.ravel() for g in grids], axis=1)
        values = np.array([objective(p) for p in points], dtype=float)
        idx = int(np.nanargmin(values)) if np.any(np.isfinite(values)) else -1
        if idx < 0 or not np.isfinite(values[idx]):
            if level == 0:
                raise InfeasibleError("objective is infinite on the whole grid")
            # keep the previous best; the box shrank past all feasible points
            width /= GRID_SHRINK
            continue
        if values[idx] < best_val:
            best_val = float(values[idx])
            best_x = points[idx].copy()
        center = best_x.copy()
        width = width / GRID_SHRINK
    return best_x, best_val


def kkt_quadratic_solve(Q, c, E=None, d=None):
    """Solve ``min 0.5 x'Qx + c'x  s.t.  Ex = d`` by a dense KKT solve.

    ``E`` may be None or have zero rows (unconstrained case).  Raises
    :class:`OracleError` if the KKT matrix is singular.
    """
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    n = Q.shape[0]
    if E is None or np.size(E) == 0:
        E = np.zeros((0, n))
        d = np.zeros(0)
    E = np.asarray(E, dtype=float).reshape(-1, n)
    d = np.asarray(d, dtype=float).reshape(-1)
    p = E.shape[0]
    kkt = np.zeros((n + p, n + p))
    kkt[:n, :n] = Q
    kkt[:n, n:] = E.T
    kkt[n:, :n] = E
    rhs = np.concatenate([-c, d])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"singular KKT matrix: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise OracleError("KKT solve produced non-finite values")
    return sol[:n]


def dense_svd_norm(matrix):
    """Largest singular value of a dense matrix via two-sided Jacobi.

    Forms the smaller of A'A / AA' and diagonalizes it with cyclic Jacobi
    rotations until the off-diagonal mass falls below 1e-12 relative to
    the matrix norm.  Intended for dims up to a few hundred.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected a 2-D array")
    if min(A.shape) == 0:
        return 0.0
    S = A.T @ A if A.shape[1] <= A.shape[0] else A @ A.T
    S = 0.5 * (S + S.T)
    return float(np.sqrt(max(_jacobi_max_eigenvalue(S), 0.0)))


def _jacobi_max_eigenvalue(S):
    """Largest eigenvalue of a symmetric matrix by cyclic Jacobi rotations."""
    tol = 1e-12
    A = S.copy()
    n = A.shape[0]
    if n == 1:
        return float(A[0, 0])
    scale = max(float(np.linalg.norm(A, ord="fro")), 1e-300)
    for _ in range(60):  # sweeps; quadratic convergence makes this ample
        # measured directly: the difference of the full and diagonal
        # square sums cancels near convergence and can go negative
        off = np.linalg.norm(A - np.diag(np.diag(A)))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 0.1 * tol * scale / n:
                    continue
                # 2x2 symmetric Schur rotation annihilating A[p, q]
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(1.0 + theta**2))
                if theta == 0.0:
                    t = 1.0
                cos = 1.0 / np.sqrt(1.0 + t**2)
                sin = t * cos
                rot_p = A[:, p].copy()
                rot_q = A[:, q].copy()
                A[:, p] = cos * rot_p - sin * rot_q
                A[:, q] = sin * rot_p + cos * rot_q
                rot_p = A[p, :].copy()
                rot_q = A[q, :].copy()
                A[p, :] = cos * rot_p - sin * rot_q
                A[q, :] = sin * rot_p + cos * rot_q
    return float(np.max(np.diag(A)))
