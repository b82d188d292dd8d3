import gc
import json
import pathlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcmatch.exact import (
    BudgetExceeded,
    OptDpResult,
    _future_values_core,
    expected_sequence_reward,
    opt_dp,
    star_action_table,
    star_opt_bruteforce,
    star_opt_core,
)
from qcmatch.instances import INFINITE, is_infinite, make_instance, random_instance
from qcmatch.lp import solve_edge_lp, solve_lp_c_colgen, validate_solution


def star2():
    # two offline vertices u1, u2 against one online vertex
    return make_instance(
        ["u1", "u2"], ["v"], ["a"],
        {(("u1", "v"), "a"): 0.5, (("u2", "v"), "a"): 1.0},
        {(("u1", "v"), "a"): 1.0, (("u2", "v"), "a"): 0.6},
        {"u1": 1, "u2": 1, "v": 2},
    )


def exhaustive_star_value(inst, ell=None):
    """Independent oracle: walk every sequence of distinct edges, at most
    `ell` (default: the patience) long, with every action at each position,
    and evaluate the first-success reward expression along the way (the
    same sums as `expected_sequence_reward`)."""
    v = inst.V[0]
    ell = inst.patience[v] if ell is None else ell
    pairs = {e: [(inst.q_of(e, a), inst.r_of(e, a)) for a in inst.A] for e in inst.incident_to_v(v)}
    best = 0.0
    stack = [(frozenset(pairs), 0, 0.0, 1.0)]  # (edges left, length, reward so far, alive)
    while stack:
        left, k, total, alive = stack.pop()
        best = max(best, total)
        if k == ell:
            continue
        for e in left:
            for q, r in pairs[e]:
                stack.append((left - {e}, k + 1, total + alive * q * r, alive * (1.0 - q)))
    return best


def matched_mask_dp(inst):
    """Independent oracle: the optimal-policy DP keyed by (available edges,
    matched U, matched V), as `opt_dp` was before it merged the states of
    equal futures, without its budget. A vertex's remaining patience is its
    patience less its queried incident edges."""
    edges = inst.edges()
    n_e = len(edges)
    e_u = [1 << inst.U.index(e[0]) for e in edges]
    e_v = [1 << inst.V.index(e[1]) for e in edges]
    caps = [
        (sum(1 << i for i, e in enumerate(edges) if s in e), inst.patience[s])
        for s in (*inst.U, *inst.V)
        if not is_infinite(inst.patience[s])
    ]
    actions_per_edge = [
        [(inst.q[(e, a)], inst.r_of(e, a)) for a in inst.A if (e, a) in inst.q] for e in edges
    ]
    full = (1 << n_e) - 1
    memo = {}

    def solve(avail, mu, mv):
        key = (avail, mu, mv)
        hit = memo.get(key)
        if hit is not None:
            return hit
        queried = full ^ avail
        live = avail
        for inc, patience in caps:
            if (queried & inc).bit_count() >= patience:
                live &= ~inc
        best = 0.0
        while live:
            bit = live & -live
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

    return OptDpResult(value=solve(full, 0, 0), states_expanded=len(memo))


def recursive_dp(inst):
    """Independent oracle: the canonical-key DP as a recursion over a dict
    memo, as `opt_dp` was before it walked its keys in layers, without
    its budget. The keys are those of `opt_dp` (live edges, and above them
    one field per binding vertex), so `states_expanded` must match too."""
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
    offset = n_e
    for s, m in inc.items():
        if pat[s] < (m & key).bit_count():
            width = int(pat[s] - 1).bit_length()  # none at patience 1
            field[s] = (offset, (1 << width) - 1)
            key |= (pat[s] - 1) << offset
            offset += width

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
    memo = {}

    def lose(key, child, nbrs):
        # a neighbour that lost a live edge caps its field again
        for b, o, m, w_inc in nbrs:
            if key & b and (child >> o) & m >= (child & w_inc).bit_count() > 0:
                child -= 1 << o
        return child

    def solve(key):
        hit = memo.get(key)
        if hit is not None:
            return hit
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
            fail_val = solve(child)
            if zero and fail_val > best:
                best = fail_val
            if pos:
                child = key & ~succ_kill
                if succ_nbrs:
                    child = lose(key, child, succ_nbrs)
                succ_val = solve(child)
                for q, r, p in pos:
                    val = q * (r + succ_val) + p * fail_val
                    if val > best:
                        best = val
        memo[key] = best
        return best

    return OptDpResult(value=solve(key), states_expanded=len(memo))


def test_single_edge_value():
    inst = make_instance(
        ["u"], ["v"], ["a"],
        {(("u", "v"), "a"): 0.5},
        {(("u", "v"), "a"): 2.0},
        {"u": 1, "v": 1},
    )
    assert abs(opt_dp(inst).value - 1.0) <= 1e-12


def test_star_example_dp():
    # query the risky high-reward edge first: 0.5*1 + 0.5*0.6 = 0.8
    res = opt_dp(star2())
    assert abs(res.value - 0.8) <= 1e-12


def test_all_zero_probability():
    inst = make_instance(
        ["u"], ["v"], ["a"],
        {(("u", "v"), "a"): 0.0},
        {(("u", "v"), "a"): 5.0},
        {"u": 1, "v": 1},
    )
    assert opt_dp(inst).value == 0.0


def test_future_values_example():
    inst = star2()
    rvals, chosen = _future_values_core(star_action_table(inst, [("u1", "v"), ("u2", "v")]))
    assert rvals == [0.8, 0.6, 0.0]
    assert chosen == ["a", "a"]


def test_future_values_empty_and_deterministic_edge():
    inst = star2()
    rvals, _ = _future_values_core(star_action_table(inst, []))
    assert rvals == [0.0]
    det = make_instance(
        ["u"], ["v"], ["a"], {(("u", "v"), "a"): 1.0}, {(("u", "v"), "a"): 5.0}, {"u": 1, "v": 1}
    )
    rvals, _ = _future_values_core(star_action_table(det, [("u", "v")]))
    assert rvals[0] == 5.0


def test_star_bruteforce_example():
    pol = star_opt_bruteforce(star2())
    assert abs(pol.value - 0.8) <= 1e-12
    assert pol.edges == (("u1", "v"), ("u2", "v"))


def test_star_bruteforce_patience_one():
    inst = star2()
    inst = make_instance(inst.U, inst.V, inst.A, inst.q, inst.r, {"u1": 1, "u2": 1, "v": 1})
    pol = star_opt_bruteforce(inst)
    assert abs(pol.value - 0.6) <= 1e-12  # max_e max_a r q


def test_star_bruteforce_vs_exhaustive_action_scan():
    for seed in range(25):
        inst = random_instance(seed, int(np.random.default_rng(seed).integers(2, 5)), 1, 2,
                               patience_range=(1, 2, 3))
        pol = star_opt_bruteforce(inst)
        ref = exhaustive_star_value(inst)
        assert abs(pol.value - ref) <= 1e-12
        # reported value matches direct evaluation of the policy
        direct = expected_sequence_reward(
            [(inst.q_of(e, a), inst.r_of(e, a)) for e, a in zip(pol.edges, pol.actions)]
        )
        assert abs(pol.value - direct) <= 1e-12


def test_star_vs_dp_agree():
    for seed in range(60):
        rng = np.random.default_rng(1000 + seed)
        inst = random_instance(
            1000 + seed, int(rng.integers(1, 5)), 1, int(rng.integers(1, 3)),
            patience_range=(1, 2, 3, INFINITE),
        )
        # the DP needs offline patience >= 1, which random_instance delivers
        dp = opt_dp(inst)
        star = star_opt_bruteforce(inst)
        assert abs(dp.value - star.value) <= 1e-9, (seed, dp.value, star.value)


def test_dp_monotone_in_reward():
    base = random_instance(7, 2, 2, 2, patience_range=(1, 2))
    v0 = opt_dp(base).value
    key = next(iter(base.r))
    bumped_r = dict(base.r)
    bumped_r[key] = bumped_r[key] + 0.5
    bumped = make_instance(base.U, base.V, base.A, base.q, bumped_r, base.patience)
    assert opt_dp(bumped).value >= v0 - 1e-12


def test_unbounded_patience_sorts_by_reward():
    # single action, unlimited patience, one online vertex: the optimal
    # ordering value equals the nonincreasing-reward ordering value
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        U = [f"u{i}" for i in range(n)]
        q = {((u, "v"), "a"): float(rng.uniform(0.05, 0.95)) for u in U}
        r = {((u, "v"), "a"): float(rng.uniform(0, 1)) for u in U}
        pat = {u: 1 for u in U}
        pat["v"] = INFINITE
        inst = make_instance(U, ["v"], ["a"], q, r, pat)
        pol = star_opt_bruteforce(inst)
        order = sorted(inst.edges(), key=lambda e: -r[(e, "a")])
        ref = expected_sequence_reward([(q[(e, "a")], r[(e, "a")]) for e in order])
        assert abs(pol.value - ref) <= 1e-12


def test_budget_exceeded():
    inst = random_instance(3, 3, 3, 1, patience_range=(2,))
    with pytest.raises(BudgetExceeded) as exc:
        opt_dp(inst, state_budget=10)
    assert exc.value.estimate >= 10
    star = random_instance(4, 6, 1, 2, patience_range=(6,))
    with pytest.raises(BudgetExceeded):
        star_opt_bruteforce(star, state_budget=5)


def test_env_budget_override(monkeypatch):
    inst = random_instance(3, 2, 2, 1, patience_range=(1,))  # 6 states
    monkeypatch.setenv("QCL_BUDGET", "5")
    with pytest.raises(BudgetExceeded):
        opt_dp(inst)
    monkeypatch.delenv("QCL_BUDGET")
    assert opt_dp(inst).value >= 0.0


def test_dp_memo_freed_on_return_and_give_up():
    # the memo must go with the call, not wait for the cyclic collector
    inst = random_instance(9, 4, 3, 1, patience_range=(2,))
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert opt_dp(inst).states_expanded == 1241
        with pytest.raises(BudgetExceeded):
            opt_dp(inst, state_budget=500)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    # the memo of 1241 states takes about 0.15 MB; what stays until the
    # cyclic collector runs is the per-edge tables solve closes over and
    # the interpreter's free lists, about 0.05 MB
    assert kept < 100_000, kept


# ---------------------------------------------------------------------------
# Pins: outputs recorded with the ordered-subset search the reward-order
# scan replaced, compared exactly
# ---------------------------------------------------------------------------

STAR_PINS = json.loads((pathlib.Path(__file__).parent / "golden" / "star_opt_core_pins.json").read_text())


def random_star_table(seed):
    """Continuous q and r: n <= 6 edges, |A| <= 3 actions, every pair listed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    n_a = int(rng.integers(1, 4))
    ell = (1, 2, 3, INFINITE)[int(rng.integers(0, 4))]
    table = [
        [(f"a{k}", float(rng.uniform()), float(rng.uniform())) for k in range(n_a)] for _ in range(n)
    ]
    return table, ell


def test_star_opt_core_pins():
    assert len(STAR_PINS) == 1000
    for seed, (value, order, actions) in enumerate(STAR_PINS):
        table, ell = random_star_table(seed)
        assert star_opt_core(table, ell) == (value, tuple(order), tuple(actions)), seed


# (seed, n_u, n_v, n_a, patience_range) -> (value, states_expanded): the
# values as first recorded, the canonical state counts
OPT_DP_PINS = [
    ((0, 2, 2, 1, (1, 2)), 0.40913111316680073, 10),
    ((2, 3, 3, 1, (2,)), 2.010747557310786, 386),
    ((3, 2, 3, 2, (1, INFINITE)), 0.9818145635371891, 21),
    ((4, 4, 2, 1, (1, 2, 3)), 1.129265175271082, 45),
    ((5, 3, 3, 2, (1,)), 1.033998449597495, 20),
    ((9, 4, 3, 1, (2,)), 1.5549115923734114, 1241),
    ((10, 4, 1, 3, (INFINITE,)), 0.9280011890947859, 16),
    ((11, 2, 4, 2, (3,)), 1.604580953955607, 172),
    ((12, 3, 3, 2, (1, 2, INFINITE)), 1.9588991242622686, 65),
    ((13, 5, 2, 1, (1, 2, INFINITE)), 1.0576272309537864, 200),
]


def test_opt_dp_pins():
    for (seed, n_u, n_v, n_a, pats), value, states in OPT_DP_PINS:
        res = opt_dp(random_instance(seed, n_u, n_v, n_a, patience_range=pats))
        assert (res.value, res.states_expanded) == (value, states), seed


def test_opt_dp_canonical_state_counts():
    # the pipeline's former give-up case solves under the harness budget,
    # within the edge LP's bound
    inst = random_instance(7, 6, 3, 2, patience_range=(1, 2, INFINITE))
    res = opt_dp(inst, state_budget=500_000)
    assert res == OptDpResult(value=2.0596837073472294, states_expanded=35888)
    assert res.value <= solve_edge_lp(inst).value
    # a smaller budget still gives up once it is spent
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="state budget exhausted") as exc:
        opt_dp(inst, state_budget=10_000)
    assert exc.value.estimate == 10_000.0
    assert time.perf_counter() - start < 2.0
    # unbounded patience, every q inside (0, 1): failures reach every
    # subset of the 18 edges, and each is one state
    inst = random_instance(1048, 6, 3, 2, patience_range=(INFINITE,))
    assert opt_dp(inst, state_budget=500_000).states_expanded == 2**18
    # a budget below those 2^18 failure sets is refused before any state
    with pytest.raises(BudgetExceeded, match="2\\^18 failure sets") as exc:
        opt_dp(inst, state_budget=2**18 - 1)
    assert exc.value.estimate == 2.0**18


def test_layer_sizes_count_states_per_live_edge_count():
    for (seed, n_u, n_v, n_a, pats), _, states in OPT_DP_PINS:
        res = opt_dp(random_instance(seed, n_u, n_v, n_a, patience_range=pats))
        assert sum(res.layer_sizes) == res.states_expanded == states, seed
        assert res.layer_sizes[-1] == 1  # the start alone has every live edge
    # no vertex binds on a star with unbounded patience: every subset of
    # the 4 edges is a state
    res = opt_dp(random_instance(10, 4, 1, 3, patience_range=(INFINITE,)))
    assert res.layer_sizes == (1, 4, 6, 4, 1)
    assert res == OptDpResult(value=res.value, states_expanded=16)  # layer_sizes is not compared


# random_instance(1, n, n, 2, (1,)) -> (value, states_expanded), recorded
# with the recursive DP: 8x8 fills one 64-bit word of live edges, 9x9 and
# 10x10 need a second
WIDE_PINS = [(8, 5.174494531112319, 12870), (9, 6.171716260365902, 48620), (10, 7.105254690136664, 184756)]


def test_opt_dp_keys_wider_than_64_bits():
    for n, value, states in WIDE_PINS:
        res = opt_dp(random_instance(1, n, n, 2, patience_range=(1,)), state_budget=500_000)
        assert (res.value, res.states_expanded) == (value, states), n
        assert sum(res.layer_sizes) == states


def test_dense_low_patience_refused_promptly():
    # failures alone reach only 2^n states on these, so the floor lets them
    # through; the forward pass charges the budget as its layers grow, so
    # neither time nor memory grows with the states it never reaches
    for n, patience in ((6, 2), (5, 3), (8, 2)):
        inst = random_instance(1, n, n, 2, patience_range=(patience,))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(BudgetExceeded) as exc:
                opt_dp(inst, state_budget=500_000)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (str(exc.value), exc.value.estimate) == ("state budget exhausted", 500000.0)
        assert elapsed < 10.0, (n, patience, elapsed)
        assert peak < 100e6, (n, patience, peak)


# ---------------------------------------------------------------------------
# The DP against the matched-mask and recursive oracles, on tied grids
# ---------------------------------------------------------------------------


@st.composite
def tied_graphs(draw, max_side=3):
    n_u, n_v = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    n_a = draw(st.integers(1, 2))
    U, V, A = [f"u{i}" for i in range(n_u)], [f"v{j}" for j in range(n_v)], [f"a{k}" for k in range(n_a)]
    q, r = {}, {}
    for e in ((u, v) for u in U for v in V):
        if draw(st.integers(0, 3)):  # three edges in four are listed
            for a in A:
                q[(e, a)] = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
                r[(e, a)] = draw(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 2.0))
    pats = {s: draw(st.sampled_from([0, 1, 2, 3, INFINITE])) for s in U + V}
    return make_instance(U, V, A, q, r, pats)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(tied_graphs())
def test_opt_dp_matches_matched_mask_oracle(inst):
    res = opt_dp(inst)
    assert res.value == matched_mask_dp(inst).value
    # the failure-set floor never refuses a budget the states fit in
    assert opt_dp(inst, state_budget=res.states_expanded) == res


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(tied_graphs(max_side=4))
def test_opt_dp_matches_recursive_oracle(inst):
    res = opt_dp(inst)
    ref = recursive_dp(inst)
    assert (res.value, res.states_expanded) == (ref.value, ref.states_expanded)
    assert sum(res.layer_sizes) == res.states_expanded


# ---------------------------------------------------------------------------
# The star search against the exhaustive oracle, on tied grids
# ---------------------------------------------------------------------------


@st.composite
def tied_stars(draw):
    n = draw(st.integers(0, 6))
    n_a = draw(st.integers(1, 3))
    pats = {f"u{i}": 1 for i in range(n)}
    pats["v"] = draw(st.sampled_from([0, 1, 2, 3, INFINITE]))
    q, r = {}, {}
    for i in range(n):
        for k in range(n_a):
            pair = ((f"u{i}", "v"), f"a{k}")
            q[pair] = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
            r[pair] = float(draw(st.sampled_from([0, 1, 2])))
    return make_instance([f"u{i}" for i in range(n)], ["v"], [f"a{k}" for k in range(n_a)], q, r, pats)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(tied_stars())
def test_star_search_matches_exhaustive_on_tied_grids(inst):
    pol = star_opt_bruteforce(inst)
    assert abs(pol.value - exhaustive_star_value(inst)) <= 1e-12
    ell = inst.patience["v"]
    assert len(set(pol.edges)) == len(pol.edges) and len(pol.edges) <= ell
    qr = [(inst.q_of(e, a), inst.r_of(e, a)) for e, a in zip(pol.edges, pol.actions)]
    assert pol.value == expected_sequence_reward(qr)
    # nothing is queried after a sure success, and no shorter plan is as good
    assert all(q < 1.0 for q, _ in qr[:-1]), qr
    if qr:
        assert exhaustive_star_value(inst, len(qr) - 1) < pol.value


def test_star_search_returns_shortest_optimal_plan():
    # u0 alone is worth 2; putting u1 (q = 0, or r = 0) before or after it
    # adds nothing
    inst = make_instance(
        ["u0", "u1"], ["v"], ["a"],
        {(("u0", "v"), "a"): 1.0, (("u1", "v"), "a"): 0.0},
        {(("u0", "v"), "a"): 2.0, (("u1", "v"), "a"): 3.0},
        {"u0": 1, "u1": 1, "v": INFINITE},
    )
    pol = star_opt_bruteforce(inst)
    assert (pol.value, pol.edges) == (2.0, (("u0", "v"),))


# ---------------------------------------------------------------------------
# Robustness: unbounded patience at sizes the ordered search could not reach
# ---------------------------------------------------------------------------


def test_unbounded_star_and_colgen_finish():
    start = time.perf_counter()
    star = random_instance(10, 10, 1, 2, patience_range=(INFINITE,))
    pol = star_opt_bruteforce(star)
    qr = [(star.q_of(e, a), star.r_of(e, a)) for e, a in zip(pol.edges, pol.actions)]
    assert pol.value == expected_sequence_reward(qr) > 0.0
    inst = random_instance(1, 10, 10, 2, patience_range=(INFINITE,))
    assert validate_solution(solve_lp_c_colgen(inst), inst) == []
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, elapsed


def test_large_star_hits_state_budget_quickly():
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        star_opt_bruteforce(random_instance(40, 40, 1, 2, patience_range=(INFINITE,)))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, elapsed
