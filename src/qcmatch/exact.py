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

    A query is feasible when both endpoints are unmatched and have patience
    left; on success both endpoints become matched, on failure both lose one
    unit of patience. Stopping is always allowed. (Edge, action) pairs
    absent from the instance have q = r = 0 and are dominated by not
    querying, so only listed pairs are branched on.

    A state is keyed by what decides its future, packed into one int: the
    mask of live edges (available, with a listed action, both endpoints
    unmatched and with patience left) and, above it, one field per binding
    vertex: its remaining patience capped at its live degree, less one (0
    once it has no live edges; a vertex of patience 1 needs no bits). A
    vertex binds when its patience is below its live degree at the start;
    the others never run out (each query at one costs a unit of patience
    and a live edge). A success kills every edge at both endpoints; a
    failure at an endpoint on its last unit of patience kills that
    endpoint's edges; each binding vertex that loses edges caps its field
    again. From equal keys the same queries are feasible with the same
    outcomes, and patience beyond the live degree can never be spent, so
    equal keys have equal values. `states_expanded` counts these canonical
    states.

    Raises `BudgetExceeded` before any state when failures alone reach
    more states than the budget, and otherwise once the memo holds
    `state_budget` states.
    """
    budget = budget_override(state_budget if state_budget is not None else DEFAULT_STATE_BUDGET)
    edges = inst.edges()
    n_e = len(edges)
    pat = inst.patience
    acts = [[(inst.q[(e, a)], inst.r_of(e, a)) for a in inst.A if (e, a) in inst.q] for e in edges]
    inc = dict.fromkeys((*inst.U, *inst.V), 0)  # vertex -> mask of its edges
    for i, (u, v) in enumerate(edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    key = sum(1 << i for i, (u, v) in enumerate(edges) if acts[i] and pat[u] >= 1 and pat[v] >= 1)
    field = {}  # binding vertex -> (offset, mask) of its field in the key
    spare = {}  # vertex -> failures it can take and keep patience left
    offset = n_e
    for s, m in inc.items():
        deg = (m & key).bit_count()
        if pat[s] < deg:
            width = int(pat[s] - 1).bit_length()  # none at patience 1
            field[s] = (offset, (1 << width) - 1)
            key |= (pat[s] - 1) << offset
            offset += width
            spare[s] = pat[s] - 1
        else:
            spare[s] = deg

    # failures alone can remove any subset of a set of live edges that
    # leaves every vertex patience, each subset leaving its own live mask:
    # 2^size states at least
    free = 0
    for i, (u, v) in enumerate(edges):
        if key >> i & 1 and spare[u] and spare[v]:
            spare[u] -= 1
            spare[v] -= 1
            free += 1
    if 2.0**free > budget:
        raise BudgetExceeded(f"2^{free} failure sets exceed state budget", estimate=2.0**free)

    # per vertex s, per neighbour w with field bits: the bit of edge (s, w),
    # w's field and w's edges; when s's edges go, w loses that one edge
    near = {s: () for s in inc}
    for i, (u, v) in enumerate(edges):
        for s, w in ((u, v), (v, u)):
            if w in field and field[w][1]:
                near[s] += ((1 << i, *field[w], inc[w]),)

    # per edge: its binding endpoints (a failure costs each a unit of
    # patience or, at its last unit, its edges); on success, the edges and
    # fields of both endpoints and their neighbours; the actions of q > 0
    # as (q, r, 1 - q); whether one has q = 0
    per_edge = []
    for i, (u, v) in enumerate(edges):
        ends, succ_kill = (), inc[u] | inc[v]
        for s in (u, v):
            if s in field:
                o, m = field[s]
                ends += ((o, m, inc[s], near[s]),)
                succ_kill |= m << o
        pos = [(q, r, 1.0 - q) for q, r in acts[i] if q > 0.0]
        per_edge.append((ends, succ_kill, near[u] + near[v], pos, len(pos) < len(acts[i])))

    full = (1 << n_e) - 1
    memo: dict = {}
    get = memo.get

    def lose(key, child, nbrs):
        # a neighbour that lost a live edge caps its field again
        for b, o, m, w_inc in nbrs:
            if key & b and (child >> o) & m >= (child & w_inc).bit_count() > 0:
                child -= 1 << o
        return child

    def solve(key: int):
        if len(memo) >= budget:
            raise BudgetExceeded("state budget exhausted", estimate=float(len(memo)))
        memo[key] = 0.0  # counts the state from its start, so at most `budget` are held
        best = 0.0
        live = key & full
        while live:
            bit = live & -live  # live edges in index order
            live ^= bit
            ends, succ_kill, succ_nbrs, pos, zero = per_edge[bit.bit_length() - 1]
            child = key ^ bit
            if ends:
                kill, nbrs = 0, ()
                for o, m, s_inc, s_nbrs in ends:
                    if (key >> o) & m:
                        child -= 1 << o
                    else:  # the last unit of patience
                        kill |= s_inc
                        nbrs += s_nbrs
                if kill:
                    child = lose(child, child & ~kill, nbrs)
            fail_val = get(child)
            if fail_val is None:
                fail_val = solve(child)
            if zero and fail_val > best:
                best = fail_val
            if pos:
                child = key & ~succ_kill
                if succ_nbrs:
                    child = lose(key, child, succ_nbrs)
                succ_val = get(child)
                if succ_val is None:
                    succ_val = solve(child)
                for q, r, p in pos:
                    val = q * (r + succ_val) + p * fail_val
                    if val > best:
                        best = val
        memo[key] = best
        return best

    try:
        value = solve(key)
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
