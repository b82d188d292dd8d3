import itertools

import numpy as np
import pytest

from qcmatch import simplex
from qcmatch.simplex import Infeasible, IterationLimit, LpResult, Unbounded, check_kkt, solve_packing_lp


def bland_lu_oracle(c, A, b, max_iter=20000):
    """The earlier pivot loop, kept as the reference: Bland's entering rule
    and three LU solves per pivot on the current basis."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.maximum(np.asarray(b, dtype=float), 0.0)
    m, n = A.shape
    full = np.hstack([A, np.eye(m)])
    cost = np.concatenate([c, np.zeros(m)])
    basis = list(range(n, n + m))
    it = 0
    while True:
        B = full[:, basis]
        xb = np.linalg.solve(B, b)
        y = np.linalg.solve(B.T, cost[basis])
        reduced = cost - y @ full
        improving = reduced > simplex.OPT_TOL
        improving[basis] = False
        entering = int(np.argmax(improving))
        if not improving[entering]:
            x = np.zeros(n + m)
            x[basis] = xb
            return LpResult(x=x[:n], value=float(cost @ x), duals=y, iterations=it)
        d = np.linalg.solve(B, full[:, entering])
        mask = d > simplex.FEAS_TOL
        if not np.any(mask):
            raise Unbounded(f"column {entering} has no blocking row")
        ratios = np.full(m, np.inf)
        ratios[mask] = xb[mask] / d[mask]
        best = np.min(ratios)
        leave = min(np.flatnonzero(ratios <= best + 1e-12), key=lambda i: (-abs(d[i]), basis[i]))
        basis[leave] = entering
        it += 1
        if it > max_iter:
            raise IterationLimit(f"iteration limit {max_iter} hit")


def random_packing_lp(rng):
    """A degenerate-prone packing LP: tied costs, zero columns, duplicated
    rows, zero right-hand sides, and a row of ones bounding every column."""
    n = int(rng.integers(1, 13))
    m = int(rng.integers(1, 9))
    A = rng.uniform(0.0, 1.0, (m, n)) * (rng.uniform(size=(m, n)) < 0.6)
    A[:, rng.uniform(size=n) < 0.15] = 0.0
    b = rng.choice([0.0, 0.5, 1.0, 2.0], size=m)
    dup = rng.integers(0, m, size=int(rng.integers(0, m + 1)))
    A = np.vstack([A, A[dup], np.ones((1, n))])
    b = np.concatenate([b, b[dup], [float(rng.integers(1, 4))]])
    c = rng.choice([0.0, 0.5, 1.0], size=n)
    return c, A, b


def brute_force_lp(c, A, b):
    """Vertex-enumeration oracle for max c'x, Ax <= b, x >= 0.

    Enumerates all square subsystems of active constraints (rows of A and
    coordinate hyperplanes), solves each, and keeps the best feasible point.
    Only sensible for a handful of variables.
    """
    c = np.asarray(c, float)
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    m, n = A.shape
    rows = [(A[i], b[i]) for i in range(m)] + [(np.eye(n)[j], 0.0) for j in range(n)]
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(x >= -1e-9) and np.all(A @ x <= b + 1e-9):
            val = c @ x
            if best is None or val > best:
                best = val
    return best


def test_single_constraint():
    res = solve_packing_lp([1.0], [[1.0]], [1.0])
    assert abs(res.value - 1.0) <= 1e-12
    assert abs(res.x[0] - 1.0) <= 1e-12


def test_two_vars_hand_solution():
    # max x + y s.t. x + y <= 1, x <= 0.3  -> value 1
    res = solve_packing_lp([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [1.0, 0.3])
    assert abs(res.value - 1.0) <= 1e-12


def test_zero_variables_and_zero_objective():
    res = solve_packing_lp([], np.zeros((2, 0)), [1.0, 2.0])
    assert res.value == 0.0
    res2 = solve_packing_lp([0.0, 0.0], [[1.0, 1.0]], [1.0])
    assert res2.value == 0.0


def test_negative_rhs_rejected():
    with pytest.raises(Infeasible):
        solve_packing_lp([1.0], [[1.0]], [-1.0])


def test_iteration_limit_is_its_own_error():
    # max x + y s.t. x + y <= 1, x <= 0.3 needs pivots off the slack basis
    args = ([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [1.0, 0.3])
    assert solve_packing_lp(*args).iterations > 0
    with pytest.raises(IterationLimit, match="iteration limit 0") as exc:
        solve_packing_lp(*args, max_iter=0)
    assert not isinstance(exc.value, Infeasible)


def test_unbounded_detected():
    # no row blocks x2
    with pytest.raises(Unbounded):
        solve_packing_lp([0.0, 1.0], [[1.0, 0.0]], [1.0])


def test_duals_and_kkt_simple():
    c = [3.0, 2.0]
    A = [[1.0, 1.0], [1.0, 0.0]]
    b = [4.0, 2.0]
    res = solve_packing_lp(c, A, b)
    kkt = check_kkt(c, A, b, res)
    assert kkt["ok"], kkt
    assert kkt["duality_gap"] <= 1e-7
    assert kkt["comp_slackness"] <= 1e-7
    assert np.all(res.duals >= -1e-9)


def test_kkt_rejects_negative_duals():
    # primal optimal, no duality gap, complementary: only y >= 0 fails
    c, A, b = [1.0], [[1.0], [1.0]], [1.0, 1.0]
    res = LpResult(x=np.array([1.0]), value=1.0, duals=np.array([2.0, -1.0]), iterations=0)
    kkt = check_kkt(c, A, b, res)
    assert kkt["dual_violation"] == 1.0
    assert not kkt["ok"], kkt


def test_against_vertex_enumeration_oracle():
    rng = np.random.default_rng(123)
    for trial in range(120):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        A = rng.uniform(0.0, 1.0, (m, n))
        # keep every column bounded
        A = np.vstack([A, np.ones((1, n))])
        b = rng.uniform(0.1, 2.0, m + 1)
        c = rng.uniform(0.0, 1.0, n)
        res = solve_packing_lp(c, A, b)
        ref = brute_force_lp(c, A, b)
        assert ref is not None
        assert abs(res.value - ref) <= 1e-8, (trial, res.value, ref)
        kkt = check_kkt(c, A, b, res)
        assert kkt["ok"] and kkt["comp_slackness"] <= 1e-7, (trial, kkt)


@pytest.mark.parametrize(
    "setting",
    [{}, {"DEGENERATE_RUN": 0}, {"REFACTOR_EVERY": 1}],
    ids=["default", "bland-after-one-degenerate-pivot", "refactor-every-pivot"],
)
def test_matches_bland_oracle_on_random_packing_lps(monkeypatch, setting):
    for name, value in setting.items():
        monkeypatch.setattr(simplex, name, value)
    rng = np.random.default_rng(2020)
    for trial in range(300):
        c, A, b = random_packing_lp(rng)
        res = solve_packing_lp(c, A, b)
        ref = bland_lu_oracle(c, A, b)
        assert abs(res.value - ref.value) <= 1e-9 * max(1.0, abs(ref.value)), (trial, res.value, ref.value)
        kkt = check_kkt(c, A, b, res)
        assert kkt["ok"], (trial, kkt)


def test_beale_cycling_example_terminates():
    # Beale's example, on which the textbook largest-coefficient rule cycles
    c = [0.75, -20.0, 0.5, -6.0]
    A = [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]
    b = [0.0, 0.0, 1.0]
    res = solve_packing_lp(c, A, b)
    assert abs(res.value - 1.25) <= 1e-12
    assert check_kkt(c, A, b, res)["ok"]


def test_degenerate_lp_terminates():
    # many redundant rows through the same vertex
    c = [1.0, 1.0]
    A = [[1.0, 1.0]] * 6 + [[1.0, 0.0], [0.0, 1.0]]
    b = [1.0] * 6 + [1.0, 1.0]
    res = solve_packing_lp(c, A, b)
    assert abs(res.value - 1.0) <= 1e-9
