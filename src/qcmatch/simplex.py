"""Dense revised simplex for small packing LPs.

Solves max c'x subject to Ax <= b, x >= 0 with b >= 0, which covers every
LP this package constructs (all are bounded packing programs, so the slack
basis is feasible and no phase-1 is needed). Bland's entering rule keeps
the iteration cycle-free; linear systems go through LU with partial
pivoting. Returns primal solution, value, and the dual vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
OPT_TOL = 1e-9


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


class IterationLimit(Exception):
    pass


@dataclass
class LpResult:
    x: np.ndarray
    value: float
    duals: np.ndarray
    iterations: int


def solve_packing_lp(c, A, b, max_iter: int = 20000) -> LpResult:
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("shape mismatch")
    if n == 0:
        if np.any(b < -FEAS_TOL):
            raise Infeasible("negative rhs with no variables")
        return LpResult(x=np.zeros(0), value=0.0, duals=np.zeros(m), iterations=0)
    if np.any(b < -FEAS_TOL):
        raise Infeasible(f"rhs must be nonnegative for the slack start (min {b.min()})")
    b = np.maximum(b, 0.0)

    # Columns 0..n-1 are structural, n..n+m-1 slacks; start on the slack basis.
    full = np.hstack([A, np.eye(m)])
    cost = np.concatenate([c, np.zeros(m)])
    basis = list(range(n, n + m))

    it = 0
    while True:
        B = full[:, basis]
        try:
            xb = np.linalg.solve(B, b)
            y = np.linalg.solve(B.T, cost[basis])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by pivots
            raise Infeasible(f"singular basis: {exc}") from exc
        reduced = cost - y @ full
        # Bland: lowest-index column with positive reduced cost.
        improving = reduced > OPT_TOL
        improving[basis] = False
        entering = int(np.argmax(improving))
        if not improving[entering]:
            x = np.zeros(n + m)
            x[basis] = xb
            value = float(cost @ x)
            return LpResult(x=x[:n], value=value, duals=y, iterations=it)

        d = np.linalg.solve(B, full[:, entering])
        mask = d > FEAS_TOL
        if not np.any(mask):
            raise Unbounded(f"column {entering} has no blocking row")
        ratios = np.full(m, np.inf)
        ratios[mask] = xb[mask] / d[mask]
        best = np.min(ratios)
        # Ties: prefer the largest pivot element (stability), then the
        # lowest basis index (Bland) among near-ties.
        leave = min(np.flatnonzero(ratios <= best + 1e-12), key=lambda i: (-abs(d[i]), basis[i]))
        basis[leave] = entering
        it += 1
        if it > max_iter:
            raise IterationLimit(f"iteration limit {max_iter} hit; LP likely degenerate beyond tolerance")


def check_kkt(c, A, b, res: LpResult, tol: float = 1e-7) -> dict:
    """Primal/dual feasibility and complementary-slackness residuals."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    slack = b - A @ res.x
    reduced = c - A.T @ res.duals
    primal_violation = float(max(0.0, -res.x.min(initial=0.0), -slack.min(initial=0.0)))
    dual_violation = float(max(0.0, -res.duals.min(initial=0.0), reduced.max(initial=0.0)))
    duality_gap = float(abs(c @ res.x - b @ res.duals))
    return {
        "primal_violation": primal_violation,
        "dual_violation": dual_violation,
        "comp_slackness": float(abs(res.duals @ slack) + abs(reduced @ res.x)),
        "duality_gap": duality_gap,
        "ok": primal_violation <= 1e-9 and dual_violation <= tol and duality_gap <= tol,
    }
