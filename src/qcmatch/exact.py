"""Exact desk-scale oracles: the optimal committal policy via memoized
dynamic programming over the full decision MDP, and the exact star-graph
optimum by a scan over (edge, action) pairs in reward order. Ground truth
for everything else in the package."""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain

from .instances import Instance, is_infinite

DEFAULT_STATE_BUDGET = int(2e7)
# kept star plan states: about 1e5 of them take some 50 MB
DEFAULT_STAR_STATE_BUDGET = int(1e5)


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
    mask). A vertex's remaining patience is read off the key: its patience
    less the number of its incident edges already queried. A query is
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

    # per edge: its endpoints' bits in the matched-U and matched-V masks
    e_u = [1 << inst.U.index(e[0]) for e in edges]
    e_v = [1 << inst.V.index(e[1]) for e in edges]
    # per vertex of finite patience: the mask of its incident edges, and
    # its patience
    caps = [
        (sum(1 << i for i, e in enumerate(edges) if s in e), inst.patience[s])
        for s in (*inst.U, *inst.V)
        if not is_infinite(inst.patience[s])
    ]

    actions_per_edge = []
    for e in edges:
        acts = [(inst.q[(e, a)], inst.r_of(e, a)) for a in inst.A if (e, a) in inst.q]
        actions_per_edge.append(acts)

    full = (1 << n_e) - 1
    memo: dict = {}

    def solve(avail: int, mu: int, mv: int):
        key = (avail, mu, mv)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if len(memo) >= budget:
            raise BudgetExceeded("state budget exhausted", estimate=float(len(memo)))
        queried = full ^ avail
        live = avail  # available edges whose endpoints have patience left
        for inc, patience in caps:
            if (queried & inc).bit_count() >= patience:
                live &= ~inc
        best = 0.0
        while live:
            bit = live & -live  # live edges in index order
            live ^= bit
            i = bit.bit_length() - 1
            ub, vb = e_u[i], e_v[i]
            if mu & ub or mv & vb:
                continue
            navail = avail & ~bit
            fail_val = None
            for q, r in actions_per_edge[i]:
                if fail_val is None:
                    fail_val = solve(navail, mu, mv)
                if q > 0.0:
                    succ_val = solve(navail, mu | ub, mv | vb)
                    val = q * (r + succ_val) + (1.0 - q) * fail_val
                else:
                    val = fail_val
                if val > best:
                    best = val
        memo[key] = best
        return best

    try:
        value = solve(full, 0, 0)
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


def star_opt_core(action_table, ell, state_budget: int | None = None):
    """Exact optimum over plans: distinct edges, at most `ell` of them, one
    action each; `action_table[i]` lists edge i's (action, q, r).

    For a fixed set of (edge, action) pairs, nonincreasing reward order is
    optimal (swapping adjacent pairs i, j changes the value by
    q_i q_j (r_i - r_j)). So the pairs with q r > 0 are scanned from the
    lowest reward up, each put in front of every kept plan suffix that
    does not use its edge (value r q + (1 - q) * suffix value). Per key
    (length, only when patience binds; the used edges with a pair still to
    come) only the best suffix is kept, the shorter on ties, so no plan
    goes on past a q = 1 pair. Raises `BudgetExceeded` once more plan
    states than the budget are kept. Returns (value, index order,
    actions); (0.0, (), ()) when no plan has positive value.
    """
    budget = budget_override(state_budget if state_budget is not None else DEFAULT_STAR_STATE_BUDGET)
    pairs = sorted(
        (r, i, a, q) for i, acts in enumerate(action_table) for a, q, r in acts if q > 0.0 and r > 0.0
    )
    last = {i: j for j, (_, i, _, _) in enumerate(pairs)}  # each edge's last scan position
    bounded = not is_infinite(ell) and int(ell) < len(last)

    def keep(states, key, state):  # state: (value, positions, plan as nested (i, a, rest))
        old = states.get(key)
        if old is None or state[0] > old[0] or (state[0] == old[0] and state[1] < old[1]):
            states[key] = state

    # the empty suffix stays apart: under unbounded patience it shares its
    # key with every suffix whose edges are all done, and would lose that
    # key to them although a shortest plan may need to start from it
    empty = ((0, 0), (0.0, 0, None))
    states = {}
    for j, (r, i, a, q) in enumerate(pairs):
        bit = 1 << i
        done = 0 if last[i] > j else bit  # once edge i is done, keys forget it
        kept = {}
        for (k, used), (val, n, plan) in chain([empty], states.items()):
            if n:  # every kept suffix stays a candidate
                keep(kept, (k, used & ~done), (val, n, plan))
            if not used & bit and not (bounded and k == ell):
                state = (r * q + (1.0 - q) * val, n + 1, (i, a, plan))
                keep(kept, (k + 1 if bounded else 0, (used | bit) & ~done), state)
        states = kept
        if len(states) > budget:
            raise BudgetExceeded(f"plan states exceed budget {budget}", estimate=float(len(states)))

    value, _, plan = max(states.values(), key=lambda state: (state[0], -state[1]), default=empty[1])
    order, actions = [], []
    while plan is not None:
        i, a, plan = plan
        order.append(i)
        actions.append(a)
    return value, tuple(order), tuple(actions)


def star_opt_bruteforce(inst: Instance, state_budget: int | None = None) -> StarPolicy:
    """Exact optimal policy for a single-online-vertex instance."""
    if len(inst.V) != 1:
        raise ValueError("star brute force needs exactly one online vertex")
    v = inst.V[0]
    edges = inst.incident_to_v(v)
    table = star_action_table(inst, edges)
    value, order, actions = star_opt_core(table, inst.patience[v], state_budget)
    return StarPolicy(
        edges=tuple(edges[i] for i in order), actions=actions, value=value
    )
