import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from qcmatch.exact import (
    BudgetExceeded,
    expected_sequence_reward,
    opt_dp,
    star_future_values,
    star_opt_bruteforce,
)
from qcmatch.instances import INFINITE, make_instance, random_instance


def star2():
    # two offline vertices u1, u2 against one online vertex
    return make_instance(
        ["u1", "u2"], ["v"], ["a"],
        {(("u1", "v"), "a"): 0.5, (("u2", "v"), "a"): 1.0},
        {(("u1", "v"), "a"): 1.0, (("u2", "v"), "a"): 0.6},
        {"u1": 1, "u2": 1, "v": 2},
    )


def exhaustive_star_value(inst):
    """Independent oracle: enumerate ordered subsets and evaluate the
    first-success reward expression directly, maximizing actions by brute
    force over action tuples."""
    v = inst.V[0]
    edges = inst.incident_to_v(v)
    ell = inst.patience[v]
    kmax = len(edges) if ell == INFINITE else min(int(ell), len(edges))
    best = 0.0
    for k in range(1, kmax + 1):
        for order in itertools.permutations(edges, k):
            for acts in itertools.product(inst.A, repeat=k):
                val = expected_sequence_reward(
                    [(inst.q_of(e, a), inst.r_of(e, a)) for e, a in zip(order, acts)]
                )
                best = max(best, val)
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
    rvals, chosen = star_future_values([("u1", "v"), ("u2", "v")], inst)
    assert rvals == [0.8, 0.6, 0.0]
    assert chosen == ["a", "a"]


def test_future_values_empty_and_deterministic_edge():
    inst = star2()
    rvals, _ = star_future_values([], inst)
    assert rvals == [0.0]
    det = make_instance(
        ["u"], ["v"], ["a"], {(("u", "v"), "a"): 1.0}, {(("u", "v"), "a"): 5.0}, {"u": 1, "v": 1}
    )
    rvals, _ = star_future_values([("u", "v")], det)
    assert rvals[0] == 5.0


def test_future_values_rejects_duplicates():
    with pytest.raises(ValueError):
        star_future_values([("u1", "v"), ("u1", "v")], star2())


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
        star_opt_bruteforce(star, ordering_budget=5)


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
