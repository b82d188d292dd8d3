"""Approximation scheme for the star-graph problem.

Pipeline: estimate the optimum from the single-vertex edge LP, bucket the
(unknown) optimal query sequence by its large future-value drops, guess the
per-bucket base and increment values on an eps^2-grid, solve an exact
assignment feasibility program per guess, rebuild a policy from each
feasible assignment, and keep the best. The guesses are walked bucket by
bucket. Each prefix of buckets carries its frontier: the set of used-edge
masks its buckets can cover together, one Python int over the 2^n masks
of the star's n edges (at most `MAX_EDGES`). Adding a bucket combines the
frontier with the bucket's feasible edge subsets; a prefix whose frontier
is empty has no feasible extension, and its subtree is skipped. Each
prefix checked is one guess tried, charged against the guess budget as
the count grows. A feasible guess builds its assignment from the suffix
frontiers of its buckets, without backtracking, once per value candidate
and multiset of bucket guesses. An assignment is a tuple of per-bucket
edge-index tuples. Edge loads, and the subsets they make feasible, depend
only on the value candidate and a bucket's base grid index, so they are
computed once per (candidate, grid base), when a guess first needs that
base; all the walk's work thus grows with the guesses tried, whatever eps
is. The (1 - 7 eps) guarantee is vacuous at desk-scale eps; the operative
contracts are feasibility, value never above the true optimum, and
feasibility of the truth-rounded guess.
"""

from __future__ import annotations

from dataclasses import dataclass

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
MAX_EDGES = 12  # largest star the frontiers take (2^n bits each)


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


class _MaskSets:
    """Sets of used-edge masks over a star's n edges, each one Python int
    with bit M set when mask M is in the set. Only masks of at most
    `budget` edges are ever kept, the patience cap of a bucket program."""

    def __init__(self, n: int, budget: int):
        if n > MAX_EDGES:
            raise BudgetExceeded(
                f"{n} edges: the bucket programs hold 2^n masks, at most {MAX_EDGES} edges allowed",
                estimate=1 << n,
            )
        self.budget = budget
        full = (1 << (1 << n)) - 1
        # free[e]: the masks without edge e, runs of 2^e set bits every 2^(e+1)
        self.free = [((1 << (1 << e)) - 1) * (full // ((1 << (2 << e)) - 1)) for e in range(n)]
        by_size = [1]  # by_size[c]: the masks of c edges, over the first e edges
        for e in range(n):
            by_size = [low | high << (1 << e) for low, high in zip(by_size + [0], [0] + by_size)]
        self.fits = [by_size[0]]  # fits[b]: the masks of at most b edges
        for size in range(1, budget + 1):
            self.fits.append(self.fits[-1] | by_size[size])
        self.full = full

    def subsets(self, row) -> list:
        """(load, choice) of every subset of the edges with positive load,
        up to `budget` edges, in the search order: by size, then in
        `combinations` order over the edges sorted by descending load (ties
        by index). Each load is summed left to right in that order. A choice
        is (mask, size, the masks disjoint from it)."""
        cands = sorted((e for e in range(len(row)) if row[e] > 0), key=lambda e: -row[e])
        grow = [(pos, row[e], 1 << e, self.free[e]) for pos, e in enumerate(cands, 1)]
        out = []
        level = [(0, 0, self.full, 0)]  # (load, mask, the masks disjoint from it, next position)
        for size in range(1, min(self.budget, len(cands)) + 1):
            level = [
                (load + add, S | bit, free & free_e, pos)
                for load, S, free, last in level
                for pos, add, bit, free_e in grow[last:]
            ]
            out += [(load, (S, size, free)) for load, S, free, _ in level]
        return out

    def choices(self, subsets, need: float, jump: bool) -> list:
        """The (load, choice) records of a bucket's feasible choices, kept
        in the order of `subsets`: a bucket with need <= 0 stays empty;
        otherwise its load must reach need - 1e-12, and a jump bucket holds
        one edge. Filtering these again for a larger need gives the same as
        filtering `subsets` for it."""
        if need <= 0:
            return [(0.0, (0, 0, self.full))]
        return [rec for rec in subsets if rec[0] >= need - 1e-12 and (rec[1][1] == 1 or not jump)]

    def extend(self, reach: int, choices) -> int:
        """The masks reachable once a bucket with these choices joins the
        buckets that reach `reach`."""
        out = 0
        for _, (S, _, free) in choices:
            out |= (reach & free) << S
        return out & self.fits[self.budget]

    def assign(self, needs, choices) -> tuple | None:
        """The first feasible assignment, per bucket a tuple of edges, of
        the depth-first search that takes the buckets by descending need
        (ties by index), each trying its choices in order; None when there
        is none. Each bucket takes the first choice that leaves the later
        buckets' frontier a mask that fits, so nothing is backtracked."""
        order = sorted(range(len(needs)), key=lambda i: -needs[i])
        suffix = [1]
        for i in reversed(order):
            suffix.append(self.extend(suffix[-1], choices[i]))
        if not suffix[-1]:
            return None
        suffix.reverse()  # suffix[k]: the frontier of the buckets order[k:]
        picks = [()] * len(needs)
        avail, left = self.full, self.budget  # avail: the masks disjoint from the edges used
        for k, i in enumerate(order):
            for _, (S, size, free) in choices[i]:
                if size <= left and avail >> S & 1 and suffix[k + 1] & avail & free & self.fits[left - size]:
                    picks[i] = tuple(e for e in range(S.bit_length()) if S >> e & 1)
                    avail &= free
                    left -= size
                    break
        return tuple(picks)


def solve_bucket_ip(plan: BucketPlan, loads, ell) -> tuple | None:
    """Exact solution of the bucket-assignment program.

    `loads[i][e]` is edge e's load at bucket i's base guess. Returns the
    first feasible assignment of the depth-first search that takes the
    buckets by descending need (ties by index) and each bucket's subsets
    by size, then in `combinations` order over the edges sorted by
    descending load: a tuple of per-bucket edge-index tuples that
    `check_assignment` accepts, or None. Buckets with zero need stay empty
    (never worse for feasibility). The mask frontiers of `_MaskSets`
    decide each step, so the search never backtracks.
    """
    n = len(loads[0])
    sets = _MaskSets(n, min(ell, n))
    subsets = {row: sets.subsets(row) for row in {tuple(row) for row in loads}}
    choices = [
        sets.choices(subsets[tuple(row)], need, jump)
        for row, need, jump in zip(loads, plan.delta_guess, plan.jump_flags)
    ]
    return sets.assign(plan.delta_guess, choices)


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
    extends its parent's frontier by its last bucket. A prefix with an
    empty frontier has no feasible extension, nor has the same prefix with
    a larger last delta, so both subtrees are skipped. Each prefix the walk
    checks counts as one guess tried in `guesses_tried`; once that count
    passes the guess budget the walk raises `BudgetExceeded`. Every
    feasible guess is reconstructed in walk order from the assignment that
    `solve_bucket_ip` would return for its buckets, built by the same
    `_MaskSets.assign` once per value candidate and multiset of (base,
    delta, jump) descriptors, and the first best value found is kept. A
    star of more than `MAX_EDGES` edges raises `BudgetExceeded` before any
    frontier is built: the frontiers hold 2^n bits, and a bucket may have
    2^n - 1 subsets to combine.
    """
    inv = grid_inverse(eps)
    gmax = inv * inv  # grid = {0, 1, ..., gmax} in units of eps^2 * E
    budget = budget_override(guess_budget if guess_budget is not None else DEFAULT_GUESS_BUDGET)
    sets = _MaskSets(len(table), min(ell, len(table)))

    _, candidates = estimate_value_candidates(table, ell, eps)

    def deltas(m, i, bg):
        # bucket i's delta choices: odd buckets are jumps, and the top
        # bucket's base plus delta reaches the top of the grid
        lo = inv - 1 if i % 2 == 1 else 0
        if i == m - 1:
            lo = max(lo, gmax - 1 - bg)
        return range(lo, gmax + 1)

    best_val, best_order, best_actions = 0.0, (), ()
    guesses_tried = 0
    feasible = 0
    for e_val in candidates:
        step = eps * eps * e_val
        subsets = {}  # subsets[g]: sets.subsets of the loads at base grid index g
        leaves = {}  # assignment per sorted leaf key

        def walk(m, i, bg, prefix, path, reach):
            # yields (descriptors, choices per bucket) of every feasible
            # guess; `reach` is the prefix's frontier
            nonlocal guesses_tried
            jump = i % 2 == 1
            if bg not in subsets:
                subsets[bg] = sets.subsets([bucket_load(acts, bg * step) for acts in table])
            pool = subsets[bg]
            for dg in deltas(m, i, bg):
                guesses_tried += 1
                if guesses_tried > budget:
                    raise BudgetExceeded(f"more than {budget} guesses tried", estimate=guesses_tried)
                need = dg * step
                choices = sets.choices(pool, need, jump)
                if need > 0:
                    pool = choices  # a larger delta keeps some of these
                nxt = sets.extend(reach, choices)
                if not nxt:  # larger deltas only raise this bucket's need
                    return
                desc = prefix + ((bg, dg, jump),)
                if i == m - 1:
                    yield desc, path + (choices,)
                    continue
                for bg2 in {min(bg + dg, gmax), min(bg + dg + 1, gmax)}:
                    yield from walk(m, i + 1, bg2, desc, path + (choices,), nxt)

        for K in range(0, inv + 1):
            m = 2 * K + 1
            for desc, path in walk(m, 0, 0, (), (), 1):
                feasible += 1
                # the canonically-sorted buckets, and where each sits in guess order
                slots = sorted(range(m), key=desc.__getitem__)
                key = tuple(desc[slot] for slot in slots)
                if key not in leaves:
                    leaves[key] = sets.assign([dg * step for _, dg, _ in key], [path[slot] for slot in slots])
                by_bucket = [()] * m
                for pos, slot in enumerate(slots):
                    by_bucket[slot] = leaves[key][pos]
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
