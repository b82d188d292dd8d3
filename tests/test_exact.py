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
    _future_values_core,
    expected_sequence_reward,
    opt_dp,
    star_action_table,
    star_opt_bruteforce,
    star_opt_core,
)
from qcmatch.instances import INFINITE, make_instance, random_instance
from qcmatch.lp import solve_lp_c_colgen, validate_solution


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
    inst = random_instance(3, 2, 2, 1, patience_range=(1,))
    monkeypatch.setenv("QCL_BUDGET", "10")
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
        assert opt_dp(inst).states_expanded == 11569
        with pytest.raises(BudgetExceeded):
            opt_dp(inst, state_budget=5000)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    # the memo of 11569 states takes about 3.8 MB; what stays is the
    # interpreter's tuple free lists, about 0.14 MB
    assert kept < 1_000_000, kept


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


# (seed, n_u, n_v, n_a, patience_range) -> (value, states_expanded)
OPT_DP_PINS = [
    ((0, 2, 2, 1, (1, 2)), 0.40913111316680073, 36),
    ((2, 3, 3, 1, (2,)), 2.010747557310786, 2050),
    ((3, 2, 3, 2, (1, INFINITE)), 0.9818145635371891, 88),
    ((4, 4, 2, 1, (1, 2, 3)), 1.129265175271082, 320),
    ((5, 3, 3, 2, (1,)), 1.033998449597495, 139),
    ((9, 4, 3, 1, (2,)), 1.5549115923734114, 11569),
    ((10, 4, 1, 3, (INFINITE,)), 0.9280011890947859, 48),
    ((11, 2, 4, 2, (3,)), 1.604580953955607, 1599),
    ((12, 3, 3, 2, (1, 2, INFINITE)), 1.9588991242622686, 628),
    ((13, 5, 2, 1, (1, 2, INFINITE)), 1.0576272309537864, 2108),
]


def test_opt_dp_pins():
    for (seed, n_u, n_v, n_a, pats), value, states in OPT_DP_PINS:
        res = opt_dp(random_instance(seed, n_u, n_v, n_a, patience_range=pats))
        assert (res.value, res.states_expanded) == (value, states), seed


def test_opt_dp_gives_up_at_pinned_state_count():
    # the pipeline's give-up case: 18 edges pass the 2^|E| check, the DP
    # then fills its whole budget
    inst = random_instance(7, 6, 3, 2, patience_range=(1, 2, INFINITE))
    with pytest.raises(BudgetExceeded, match="state budget exhausted") as exc:
        opt_dp(inst, state_budget=500_000)
    assert exc.value.estimate == 500_000.0


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
