import itertools

import numpy as np
import pytest

from qcmatch.simplex import Infeasible, IterationLimit, LpResult, Unbounded, check_kkt, solve_packing_lp


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


def test_degenerate_lp_terminates():
    # many redundant rows through the same vertex
    c = [1.0, 1.0]
    A = [[1.0, 1.0]] * 6 + [[1.0, 0.0], [0.0, 1.0]]
    b = [1.0] * 6 + [1.0, 1.0]
    res = solve_packing_lp(c, A, b)
    assert abs(res.value - 1.0) <= 1e-9
