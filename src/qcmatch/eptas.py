"""Approximation scheme for the star-graph problem.

Pipeline: estimate the optimum from the single-vertex edge LP, bucket the
(unknown) optimal query sequence by its large future-value drops, guess the
per-bucket base and increment values on an eps^2-grid, solve an exact
assignment feasibility program per guess, rebuild a policy from each
feasible assignment, and keep the best. The guesses are walked bucket by
bucket, and each prefix of buckets is solved as a program of its own: a
prefix without a feasible assignment has no feasible extension, so its
subtree is skipped. Solutions are cached per value candidate by the
multiset of bucket descriptors. Each prefix program checked, cached or
not, is one guess tried, charged against the guess budget as the count
grows. An assignment is a tuple of per-bucket edge-index tuples. Edge
loads depend only on the value candidate and a bucket's base grid index,
so they are computed once per (candidate, grid base, edge), when a guess
first needs that base, and shared by every guess; all the walk's work
thus grows with the guesses tried, whatever eps is. The (1 - 7 eps)
guarantee is vacuous at desk-scale eps; the operative contracts are
feasibility, value never above the true optimum, and feasibility of the
truth-rounded guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import simplex
from .exact import (
    BudgetExceeded,
    StarPolicy,
    _future_values_core,
    budget_override,
    star_action_table,
    star_opt_core,
)
from .instances import Instance, is_infinite

DEFAULT_GUESS_BUDGET = int(1e5)


def grid_inverse(eps: float) -> int:
    """1/eps, after checking 0 < eps < 1 with 1/eps an integer; the guess
    grid has (1/eps)^2 steps."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    inv = round(1.0 / eps)
    if abs(inv - 1.0 / eps) > 1e-9:
        raise ValueError(f"1/eps must be an integer, got eps = {eps!r}")
    return inv


@dataclass(frozen=True)
class BucketPlan:
    """A guess: K jump drops, 2K+1 alternating buckets (index 0 is the
    stable tail queried last), and per-bucket grid guesses of the base
    future value and the bucket's value increment."""

    jump_flags: tuple  # True at jump buckets
    base_guess: tuple
    delta_guess: tuple

    @property
    def n_buckets(self) -> int:
        return len(self.jump_flags)


def check_assignment(by_bucket: tuple, plan: BucketPlan, loads, ell) -> list:
    """The assignment program's constraints on `by_bucket` (per bucket, a
    tuple of edge indices), with `loads[i][e]` edge e's load in bucket i:
    each edge in one bucket, jump capacity 1, per-bucket load >=
    DeltaGuess, global budget."""
    out = []
    used = [e for bucket in by_bucket for e in bucket]
    if len(used) != len(set(used)):
        out.append("edge assigned to two buckets")
    if len(used) > ell:
        out.append("global budget exceeded")
    for i, bucket in enumerate(by_bucket):
        if plan.jump_flags[i] and len(bucket) > 1:
            out.append(f"jump bucket {i} holds {len(bucket)} edges")
        load = sum(loads[i][e] for e in bucket)
        if load < plan.delta_guess[i] - 1e-12:
            out.append(f"bucket {i} load {load} below requirement")
    return out


def bucket_load(actions, base_guess: float) -> float:
    """max_a [(r(a) - base) q(a)]^+ : the edge's value contribution when its
    bucket's future value is pinned at `base_guess`."""
    best = 0.0
    for _a, q, r in actions:
        best = max(best, max(r - base_guess, 0.0) * q)
    return best


def single_star_lp(table, ell) -> float:
    """Edge LP restricted to one online vertex (the estimate source)."""
    cols = [(e, a, q, r) for e, acts in enumerate(table) for a, q, r in acts]
    n = len(cols)
    if n == 0:
        return 0.0
    rows, rhs = [], []
    rows.append([q for _, _, q, _ in cols])
    rhs.append(1.0)
    if not is_infinite(ell):
        rows.append([1.0] * n)
        rhs.append(float(ell))
    for e in range(len(table)):
        rows.append([1.0 if ce == e else 0.0 for ce, _, _, _ in cols])
        rhs.append(1.0)
    c = [q * r for _, _, q, r in cols]
    res = simplex.solve_packing_lp(c, np.array(rows), np.array(rhs))
    return float(res.value)


def estimate_value_candidates(table, ell, eps: float):
    """All powers of (1 + eps) in [LP/2, LP] for the single-vertex LP value.

    The LP upper-bounds the optimum and a constant-selectable rounding
    witnesses at least half of it, so the window contains the optimum and
    one candidate lands within factor (1 - eps) below it.
    """
    lpopt = single_star_lp(table, ell)
    if lpopt <= 0.0:
        return 0.0, []
    out = []
    e_val = lpopt / 2.0
    while e_val <= lpopt * (1.0 + 1e-12):
        out.append(e_val)
        e_val *= 1.0 + eps
    return lpopt, out


def solve_bucket_ip(plan: BucketPlan, loads, ell) -> tuple | None:
    """Exact feasibility search for the bucket-assignment program.

    `loads[i][e]` is edge e's load at bucket i's base guess. Returns the
    first feasible assignment found, a tuple of per-bucket edge-index
    tuples that `check_assignment` accepts, or None. Buckets with zero need
    stay empty (never worse for feasibility). Replaces randomized rounding
    with exact satisfaction of every constraint, including the load lower
    bounds, which desk-scale sizes allow.
    """
    needs = plan.delta_guess
    n = len(loads[0])
    caps = [1 if jump else n for jump in plan.jump_flags]
    order = sorted(range(len(needs)), key=lambda i: -needs[i])
    budget = min(ell, n)

    def feasible_tail(k, avail, budget_left):
        # cheap veto: every remaining bucket must be coverable in isolation
        for i in order[k:]:
            need = needs[i]
            if need <= 0:
                continue
            row = loads[i]
            tops = sorted((row[e] for e in avail), reverse=True)[: min(caps[i], budget_left)]
            if sum(tops) < need - 1e-12:
                return False
        return True

    def go(k, avail, budget_left, acc):
        if k == len(order):
            return acc
        i = order[k]
        need = needs[i]
        if need <= 0:
            return go(k + 1, avail, budget_left, acc)
        if not feasible_tail(k, avail, budget_left):
            return None
        row = loads[i]
        cands = sorted((e for e in avail if row[e] > 0), key=lambda e: -row[e])
        max_size = min(caps[i], budget_left, len(cands))
        for size in range(1, max_size + 1):
            if sum(row[e] for e in cands[:size]) < need - 1e-12:
                continue
            for subset in combinations(cands, size):
                if sum(row[e] for e in subset) < need - 1e-12:
                    continue
                res = go(k + 1, avail - set(subset), budget_left - size, acc + [(i, subset)])
                if res is not None:
                    return res
        return None

    res = go(0, set(range(n)), budget, [])
    if res is None:
        return None
    by_bucket = [()] * len(needs)
    for i, subset in res:
        by_bucket[i] = tuple(sorted(subset))
    by_bucket = tuple(by_bucket)
    bad = check_assignment(by_bucket, plan, loads, ell)
    if bad:  # pragma: no cover - solver postcondition
        raise AssertionError(f"solver returned an invalid assignment: {bad}")
    return by_bucket


def reconstruct(by_bucket, table):
    """Rebuild a policy from an assignment (per bucket, a tuple of edge
    indices): buckets are queried in reverse index order (the last bucket's
    edges first, bucket 0's last), ascending edge index inside a bucket;
    actions and value via the future-value recursion. Returns (value,
    order, actions, future values, bucket of each position)."""
    order = []
    bucket_of = []
    for i in range(len(by_bucket) - 1, -1, -1):
        for e in sorted(by_bucket[i]):
            order.append(e)
            bucket_of.append(i)
    rvals, actions = _future_values_core([table[e] for e in order])
    return rvals[0], tuple(order), tuple(actions), rvals, tuple(bucket_of)


def eptas_core(table, ell, eps: float, guess_budget: int | None = None):
    """Best policy found over the whole guess space.

    Returns (value, order as table indices, actions, stats), where stats
    counts the guesses tried and the feasible ones. A guess fixes, for
    bucket i = 0, 1, ..., 2K, a grid base bg and delta dg: base 0 at the
    tail bucket, each next base one of {bg + dg, bg + dg + 1} grid steps
    (clamped at the top), jump deltas at least (1/eps - 1) steps, and the
    top bucket's bg + dg reaching the top of the grid. The guesses are
    walked depth-first, delta ascending at each bucket, and every prefix
    is solved as a bucket program of its own, cached per value candidate
    by the multiset of its (base, delta, jump) descriptors and shared by
    every K. A prefix without a feasible assignment has no feasible
    extension, nor has the same prefix with a larger last delta, so both
    subtrees are skipped. Each prefix program the walk checks, cached or
    not, counts as one guess tried in `guesses_tried`; once that count
    passes the guess budget the walk raises `BudgetExceeded`. Every
    feasible guess is reconstructed in walk order, and the first best
    value found is kept.
    """
    inv = grid_inverse(eps)
    gmax = inv * inv  # grid = {0, 1, ..., gmax} in units of eps^2 * E
    budget = budget_override(guess_budget if guess_budget is not None else DEFAULT_GUESS_BUDGET)

    _, candidates = estimate_value_candidates(table, ell, eps)

    def deltas(m, i, bg):
        # bucket i's delta choices: odd buckets are jumps, and the top
        # bucket's base plus delta reaches the top of the grid
        lo = inv - 1 if i % 2 == 1 else 0
        if i == m - 1:
            lo = max(lo, gmax - 1 - bg)
        return range(lo, gmax + 1)

    def walk(m, i, bg, prefix, solve):
        # yields (descriptors, assignment) of every feasible guess
        for dg in deltas(m, i, bg):
            desc = prefix + ((bg, dg, i % 2 == 1),)
            assign = solve(tuple(sorted(desc)))
            if assign is None:  # larger deltas only raise this bucket's need
                return
            if i == m - 1:
                yield desc, assign
                continue
            for bg2 in {min(bg + dg, gmax), min(bg + dg + 1, gmax)}:
                yield from walk(m, i + 1, bg2, desc, solve)

    best_val, best_order, best_actions = 0.0, (), ()
    guesses_tried = 0
    feasible = 0
    for e_val in candidates:
        step = eps * eps * e_val
        loads = {}  # loads[g][e]: edge e's load at base grid index g
        feas_cache = {}

        def load_row(g):
            if g not in loads:
                loads[g] = [bucket_load(acts, g * step) for acts in table]
            return loads[g]

        def solve(key):
            nonlocal guesses_tried
            guesses_tried += 1
            if guesses_tried > budget:
                raise BudgetExceeded(f"more than {budget} guesses tried", estimate=guesses_tried)
            if key not in feas_cache:
                plan = BucketPlan(
                    jump_flags=tuple(j for _, _, j in key),
                    base_guess=tuple(bg * step for bg, _, _ in key),
                    delta_guess=tuple(dg * step for _, dg, _ in key),
                )
                feas_cache[key] = solve_bucket_ip(plan, [load_row(bg) for bg, _, _ in key], ell)
            return feas_cache[key]

        for K in range(0, inv + 1):
            m = 2 * K + 1
            for desc, assign_sorted in walk(m, 0, 0, (), solve):
                feasible += 1
                # remap the canonically-sorted buckets back to guess order
                slots = sorted(range(m), key=desc.__getitem__)
                by_bucket = [()] * m
                for pos, slot in enumerate(slots):
                    by_bucket[slot] = assign_sorted[pos]
                val, order, actions, _, _ = reconstruct(by_bucket, table)
                if val > best_val:
                    best_val, best_order, best_actions = val, order, actions
    stats = {"guesses_tried": guesses_tried, "feasible_guesses": feasible}
    return best_val, best_order, best_actions, stats


def eptas(inst: Instance, eps: float, guess_budget: int | None = None):
    """Approximation scheme on a single-online-vertex instance.

    Returns (StarPolicy, stats) where stats carries the guess counts.
    """
    if len(inst.V) != 1:
        raise ValueError("the star scheme needs exactly one online vertex")
    v = inst.V[0]
    edges = inst.incident_to_v(v)
    table = star_action_table(inst, edges)
    value, order, actions, stats = eptas_core(table, inst.patience[v], eps, guess_budget)
    policy = StarPolicy(edges=tuple(edges[i] for i in order), actions=actions, value=value)
    return policy, stats


# ---------------------------------------------------------------------------
# Truth-rounded guesses (the feasibility lemma, checked constructively)
# ---------------------------------------------------------------------------


def truth_rounded_plan(table, ell, eps: float):
    """Bucket plan and assignment built from the true optimal policy.

    Finds the exact optimum, marks the jump positions (future-value drops
    of at least eps times the optimum), floors the true per-bucket base and
    increment values to the grid with estimate = optimum, and assigns each
    bucket its own positions' edges. Returns (plan, assignment, stats) with
    the assignment a tuple of per-bucket edge-index tuples and stats the
    jump census; the assignment always satisfies the program, which is the
    constructive feasibility argument.
    """
    inv = grid_inverse(eps)
    opt_val, order, _ = star_opt_core(table, ell)
    if opt_val <= 0.0:
        plan = BucketPlan(jump_flags=(False,), base_guess=(0.0,), delta_guess=(0.0,))
        return plan, ((),), {"jumps": 0, "opt": 0.0}
    rvals, _ = _future_values_core([table[e] for e in order])
    k = len(order)
    jumps = [i for i in range(k) if rvals[i] - rvals[i + 1] >= eps * rvals[0] - 1e-12]
    K = len(jumps)
    # positions bucket by bucket, from the tail stable bucket outward
    buckets_positions = []
    jump_desc = sorted(jumps, reverse=True)
    upper = k  # exclusive end of the current stable range
    for t in jump_desc:
        buckets_positions.append(list(range(t + 1, upper)))  # stable
        buckets_positions.append([t])  # jump
        upper = t
    buckets_positions.append(list(range(0, upper)))
    m = len(buckets_positions)
    jump_flags = tuple(i % 2 == 1 for i in range(m))

    e_val = opt_val
    step = eps * eps * e_val
    gmax = inv * inv

    def floor_grid(x):
        idx = min(int(np.floor(x / step + 1e-12)), gmax)
        return idx * step

    base, delta = [], []
    base_val = 0.0
    for positions in buckets_positions:
        dv = sum(rvals[i] - rvals[i + 1] for i in positions)
        base.append(floor_grid(base_val))
        delta.append(floor_grid(dv))
        base_val += dv
    plan = BucketPlan(jump_flags=jump_flags, base_guess=tuple(base), delta_guess=tuple(delta))
    by_bucket = tuple(tuple(sorted(order[i] for i in positions)) for positions in buckets_positions)
    return plan, by_bucket, {"jumps": K, "opt": opt_val, "max_jumps": inv}
