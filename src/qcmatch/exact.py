"""Exact desk-scale oracles: the optimal committal policy via memoized
dynamic programming over the full decision MDP, and exhaustive star-graph
optimization. Ground truth for everything else in the package."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .instances import Instance, is_infinite

DEFAULT_STATE_BUDGET = int(2e7)
DEFAULT_ORDERING_BUDGET = int(1e7)


class BudgetExceeded(Exception):
    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


def budget_override(default: int) -> int:
    env = os.environ.get("QCL_BUDGET")
    if env:
        return int(float(env))
    return default


def expected_sequence_reward(qr_pairs) -> float:
    """Expected reward of querying a fixed (q, r) sequence until the first
    success: sum_i r_i q_i prod_{j<i} (1 - q_j)."""
    total = 0.0
    alive = 1.0
    for q, r in qr_pairs:
        total += alive * q * r
        alive *= 1.0 - q
    return total


# ---------------------------------------------------------------------------
# Optimal policy by dynamic programming
# ---------------------------------------------------------------------------


@dataclass
class OptDpResult:
    value: float
    states_expanded: int


def opt_dp(inst: Instance, state_budget: int | None = None) -> OptDpResult:
    """Exact expected reward of the optimal committal policy.

    States are keyed by (available-edge mask, matched-U mask, matched-V
    mask); remaining patience is derived from the queried set. A query is
    feasible when both endpoints are unmatched and have remaining patience;
    on success both endpoints become matched. Stopping is always allowed.
    (Edge, action) pairs absent from the instance have q = r = 0 and are
    dominated by not querying, so only listed pairs are branched on.
    """
    budget = budget_override(state_budget if state_budget is not None else DEFAULT_STATE_BUDGET)
    edges = inst.edges()
    n_e = len(edges)
    if n_e > 0 and 2.0**n_e > budget:
        raise BudgetExceeded(f"2^{n_e} availability sets exceed state budget", estimate=2.0**n_e)

    u_index = {u: i for i, u in enumerate(inst.U)}
    v_index = {v: i for i, v in enumerate(inst.V)}
    e_u = [u_index[e[0]] for e in edges]
    e_v = [v_index[e[1]] for e in edges]

    def cap(s):
        p = inst.patience[s]
        deg = sum(1 for e in edges if s in e)
        return deg if is_infinite(p) else min(int(p), deg)

    cap_u = [cap(u) for u in inst.U]
    cap_v = [cap(v) for v in inst.V]

    actions_per_edge = []
    for e in edges:
        acts = [(inst.q[(e, a)], inst.r_of(e, a)) for a in inst.A if (e, a) in inst.q]
        actions_per_edge.append(acts)

    memo: dict = {}

    def solve(avail: int, mu: int, mv: int, rem_u: tuple, rem_v: tuple):
        key = (avail, mu, mv)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if len(memo) >= budget:
            raise BudgetExceeded("state budget exhausted", estimate=float(len(memo)))
        best = 0.0
        for i in range(n_e):
            bit = 1 << i
            if not avail & bit:
                continue
            ui, vi = e_u[i], e_v[i]
            if (mu >> ui) & 1 or (mv >> vi) & 1:
                continue
            if rem_u[ui] == 0 or rem_v[vi] == 0:
                continue
            nru = rem_u[:ui] + (rem_u[ui] - 1,) + rem_u[ui + 1 :]
            nrv = rem_v[:vi] + (rem_v[vi] - 1,) + rem_v[vi + 1 :]
            navail = avail & ~bit
            fail_val = None
            for q, r in actions_per_edge[i]:
                if fail_val is None:
                    fail_val = solve(navail, mu, mv, nru, nrv)
                if q > 0.0:
                    succ_val = solve(navail, mu | (1 << ui), mv | (1 << vi), nru, nrv)
                    val = q * (r + succ_val) + (1.0 - q) * fail_val
                else:
                    val = fail_val
                if val > best:
                    best = val
        memo[key] = best
        return best

    full = (1 << n_e) - 1
    try:
        value = solve(full, 0, 0, tuple(cap_u), tuple(cap_v))
        return OptDpResult(value=value, states_expanded=len(memo))
    finally:
        # solve refers to itself through its closure; that cycle would keep
        # the memo alive until the cyclic collector next runs
        memo.clear()


# ---------------------------------------------------------------------------
# Star graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarPolicy:
    edges: tuple
    actions: tuple
    value: float


def star_future_values(order, inst: Instance):
    """Backward future values along a fixed edge order.

    R[k] = 0 past the end; R[i] = max_a { r q + (1-q) R[i+1] } with ties
    broken toward the lowest action index. Returns (R values length k+1,
    chosen action per position).
    """
    if len(set(order)) != len(order):
        raise ValueError("edges must be distinct")
    return _future_values_core(star_action_table(inst, order))


def star_action_table(inst: Instance, edges):
    """Per edge, its listed (action, q, r) triples. An edge with none gets a
    zero-probability placeholder, so every position has an action."""
    table = []
    for e in edges:
        acts = [(a, inst.q[(e, a)], inst.r_of(e, a)) for a in inst.A if (e, a) in inst.q]
        table.append(acts or [(inst.A[0] if inst.A else "", 0.0, 0.0)])
    return table


def _future_values_core(actions_per_position):
    k = len(actions_per_position)
    rvals = [0.0] * (k + 1)
    chosen = [None] * k
    for i in range(k - 1, -1, -1):
        best, best_a = None, None
        for a, q, r in actions_per_position[i]:
            val = r * q + (1.0 - q) * rvals[i + 1]
            if best is None or val > best:
                best, best_a = val, a
        rvals[i] = best
        chosen[i] = best_a
    return rvals, chosen


def config_count(deg: int, ell, n_actions: int) -> float:
    """Number of ordered plans over `deg` edges: distinct edges, at most
    `ell` of them, one of `n_actions` actions per position."""
    kmax = deg if is_infinite(ell) else min(int(ell), deg)
    total = 0.0
    perms = 1.0
    for k in range(1, kmax + 1):
        perms *= deg - k + 1
        total += perms * n_actions**k
    return total


def star_opt_core(action_table, ell, ordering_budget: int | None = None):
    """Exhaustive optimum over ordered edge subsets of size <= ell.

    `action_table[i]` is the list of (action, q, r) for edge index i. For a
    fixed ordering the optimal actions come from the future-value recursion,
    so only orderings are enumerated. Returns (value, index order, actions).
    """
    from itertools import permutations

    budget = budget_override(
        ordering_budget if ordering_budget is not None else DEFAULT_ORDERING_BUDGET
    )
    n = len(action_table)
    est = config_count(n, ell, 1)
    if est > budget:
        raise BudgetExceeded(f"{est:.3g} orderings exceed budget {budget}", estimate=est)

    kmax = n if is_infinite(ell) else min(int(ell), n)
    best_val, best_order, best_actions = 0.0, (), ()
    for k in range(1, kmax + 1):
        for order in permutations(range(n), k):
            rvals, chosen = _future_values_core([action_table[i] for i in order])
            if rvals[0] > best_val:
                best_val, best_order, best_actions = rvals[0], order, tuple(chosen)
    return best_val, best_order, best_actions


def star_opt_bruteforce(inst: Instance, ordering_budget: int | None = None) -> StarPolicy:
    """Exact optimal policy for a single-online-vertex instance."""
    if len(inst.V) != 1:
        raise ValueError("star brute force needs exactly one online vertex")
    v = inst.V[0]
    edges = inst.incident_to_v(v)
    table = star_action_table(inst, edges)
    value, order, actions = star_opt_core(table, inst.patience[v], ordering_budget)
    return StarPolicy(
        edges=tuple(edges[i] for i in order), actions=actions, value=value
    )
