"""Dense revised simplex for small packing LPs.

Solves max c'x subject to Ax <= b, x >= 0 with b >= 0, which covers every
LP this package constructs (all are bounded packing programs, so the slack
basis is feasible and no phase-1 is needed). The entering column has the
largest reduced cost (Dantzig); after a run of more than `DEGENERATE_RUN`
degenerate pivots the lowest-index improving column enters instead (Bland)
until a pivot makes progress, so the iteration cannot cycle. The basis
inverse is kept explicitly, updated by one rank-one (eta) step per pivot
and inverted afresh every `REFACTOR_EVERY` pivots or when the basic values
drift infeasible. At optimality the primal solution and the dual vector
come from fresh LU solves on the final basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
DEGENERATE_RUN = 10  # degenerate pivots in a row before Bland's rule prices
REFACTOR_EVERY = 64  # pivots between fresh inversions of the basis


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
    basis = np.arange(n, n + m)
    binv = np.eye(m)
    xb = b.copy()

    it = degenerate = 0
    while True:
        reduced = cost - (cost[basis] @ binv) @ full
        reduced[basis] = 0.0
        if degenerate > DEGENERATE_RUN:
            entering = int(np.argmax(reduced > OPT_TOL))
        else:
            entering = int(np.argmax(reduced))
        if reduced[entering] <= OPT_TOL:
            B = full[:, basis]
            try:
                xb = np.linalg.solve(B, b)
                y = np.linalg.solve(B.T, cost[basis])
            except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by pivots
                raise Infeasible(f"singular basis: {exc}") from exc
            x = np.zeros(n + m)
            x[basis] = xb
            value = float(cost @ x)
            return LpResult(x=x[:n], value=value, duals=y, iterations=it)

        d = binv @ full[:, entering]
        mask = d > FEAS_TOL
        if not np.any(mask):
            raise Unbounded(f"column {entering} has no blocking row")
        ratios = np.full(m, np.inf)
        ratios[mask] = xb[mask] / d[mask]
        best = np.min(ratios)
        # Ties: prefer the largest pivot element (stability), then the
        # lowest basis index (Bland) among near-ties.
        leave = min(np.flatnonzero(ratios <= best + 1e-12), key=lambda i: (-abs(d[i]), basis[i]))
        theta = ratios[leave]
        degenerate = degenerate + 1 if theta <= FEAS_TOL else 0
        xb -= theta * d
        xb[leave] = theta
        pivot_row = binv[leave] / d[leave]
        binv -= np.outer(d, pivot_row)
        binv[leave] = pivot_row
        basis[leave] = entering
        it += 1
        if it > max_iter:
            raise IterationLimit(f"iteration limit {max_iter} hit; LP likely degenerate beyond tolerance")
        if it % REFACTOR_EVERY == 0 or xb.min() < -FEAS_TOL:
            try:
                binv = np.linalg.inv(full[:, basis])
            except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by pivots
                raise Infeasible(f"singular basis: {exc}") from exc
            xb = binv @ b


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
