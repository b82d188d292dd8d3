import dataclasses
import time

import numpy as np
import pytest

from qcmatch.exact import BudgetExceeded, opt_dp
from qcmatch.instances import INFINITE, make_instance, random_instance
from qcmatch.lp import (
    DualPrices,
    IterationLimit,
    check_marginal_feasibility,
    edge_marginals,
    enumerate_configs,
    make_config,
    price_best_config,
    reduced_value,
    solve_edge_lp,
    solve_lp_c_colgen,
    solve_lp_c_explicit,
    validate_solution,
)


def star2():
    return make_instance(
        ["u1", "u2"], ["v"], ["a"],
        {(("u1", "v"), "a"): 0.5, (("u2", "v"), "a"): 1.0},
        {(("u1", "v"), "a"): 1.0, (("u2", "v"), "a"): 0.6},
        {"u1": 1, "u2": 1, "v": 2},
    )


def small_instances(count, start=0, sizes=(3, 3), n_a=2, patience=(1, 2, INFINITE)):
    out = []
    for seed in range(start, start + count):
        rng = np.random.default_rng(seed)
        out.append(
            random_instance(
                seed,
                int(rng.integers(1, sizes[0] + 1)),
                int(rng.integers(1, sizes[1] + 1)),
                int(rng.integers(1, n_a + 1)),
                patience_range=patience,
            )
        )
    return out


# ---- edge LP ----


def test_edge_lp_single_edge():
    inst = make_instance(
        ["u"], ["v"], ["a"], {(("u", "v"), "a"): 0.5}, {(("u", "v"), "a"): 2.0}, {"u": 1, "v": 1}
    )
    res = solve_edge_lp(inst)
    assert abs(res.value - 1.0) <= 1e-9
    assert abs(res.z[(("u", "v"), "a")] - 1.0) <= 1e-9


def test_edge_lp_matching_constraint_binds():
    inst = make_instance(
        ["u"], ["v1", "v2"], ["a"],
        {(("u", "v1"), "a"): 1.0, (("u", "v2"), "a"): 1.0},
        {(("u", "v1"), "a"): 1.0, (("u", "v2"), "a"): 1.0},
        {"u": 2, "v1": 1, "v2": 1},
    )
    res = solve_edge_lp(inst)
    assert abs(res.value - 1.0) <= 1e-9


def test_edge_lp_star_example_value():
    # structure: z1 = 1 on the risky edge, matching row of v leaves 0.5 for e2
    res = solve_edge_lp(star2())
    assert abs(res.value - 0.8) <= 1e-9


def test_edge_lp_relaxes_dp():
    for inst in small_instances(25, start=300):
        lp_val = solve_edge_lp(inst).value
        dp = opt_dp(inst).value
        assert lp_val >= dp - 1e-9


# ---- config enumeration ----


@pytest.mark.parametrize(
    "seed, n_a, patience, all_equal",
    [(1, 2, 2, False), (2, 2, 2, False), (1, 3, 3, True)],
    ids=["seed1-20x20x2", "seed2-20x20x2", "all-equal-20x20x3"],
)
def test_edge_lp_at_20x20_solves_quickly(monkeypatch, seed, n_a, patience, all_equal):
    from qcmatch import simplex

    inst = random_instance(seed, 20, 20, n_a, patience_range=(patience,))
    if all_equal:  # every q and r equal: a highly degenerate LP
        inst = dataclasses.replace(inst, q=dict.fromkeys(inst.q, 0.5), r=dict.fromkeys(inst.r, 0.5))
    solved = []
    solve = simplex.solve_packing_lp

    def keeping(c, A, b, **kwargs):
        res = solve(c, A, b, **kwargs)
        solved.append((c, A, b, res))
        return res

    monkeypatch.setattr(simplex, "solve_packing_lp", keeping)
    start = time.perf_counter()
    res = solve_edge_lp(inst)
    assert time.perf_counter() - start < 10.0
    (c, A, b, lp_res), = solved
    assert A.shape == (480, 400 * n_a)  # every row: matching, patience, edge
    assert simplex.check_kkt(c, A, b, lp_res)["ok"]
    assert res.value == lp_res.value


def test_enumerate_counts():
    i1 = make_instance(
        ["u"], ["v"], ["a0", "a1"], {(("u", "v"), "a0"): 0.5, (("u", "v"), "a1"): 0.5}, {}, {"u": 1, "v": 1}
    )
    assert len(enumerate_configs(i1, "v")) == 2
    i2 = make_instance(
        ["u1", "u2"], ["v"], ["a"],
        {(("u1", "v"), "a"): 0.5, (("u2", "v"), "a"): 0.5}, {}, {"u1": 1, "u2": 1, "v": 2},
    )
    got = enumerate_configs(i2, "v")
    assert len(got) == 4  # (e1), (e2), (e1 e2), (e2 e1)
    i3 = make_instance(
        ["u1", "u2"], ["v"], ["a0", "a1"],
        {(("u1", "v"), "a0"): 0.5, (("u2", "v"), "a0"): 0.5}, {}, {"u1": 1, "u2": 1, "v": 1},
    )
    assert len(enumerate_configs(i3, "v")) == 4


def test_enumerate_budget():
    inst = random_instance(0, 6, 1, 2, patience_range=(6,))
    with pytest.raises(BudgetExceeded):
        enumerate_configs(inst, "v0", config_budget=10)


# ---- explicit LP-C ----


def test_lp_c_star_example():
    sol = solve_lp_c_explicit(star2())
    assert abs(sol.objective - 0.8) <= 1e-7
    best = max(sol.weights, key=sol.weights.get)
    assert best.edges == (("u1", "v"), ("u2", "v"))
    assert abs(sol.weights[best] - 1.0) <= 1e-9
    assert validate_solution(sol, star2()) == []


def test_lp_c_zero_instance():
    inst = make_instance(
        ["u"], ["v"], ["a"], {(("u", "v"), "a"): 0.0}, {(("u", "v"), "a"): 0.0}, {"u": 1, "v": 1}
    )
    assert solve_lp_c_explicit(inst).objective == 0.0


def test_lp_c_relaxes_dp_and_tightens_edge_lp():
    for inst in small_instances(30, start=500):
        sol = solve_lp_c_explicit(inst)
        dp = opt_dp(inst).value
        assert sol.objective >= dp - 1e-9, inst.meta
        # marginals satisfy the full edge-LP constraint set, so the config
        # LP value never exceeds the edge LP value
        assert check_marginal_feasibility(sol.marginals, inst) == []
        edge_val = solve_edge_lp(inst).value
        assert sol.objective <= edge_val + 1e-9
        # objective identity: sum r q ztilde == sum val * weight
        from_marg = sum(
            inst.r_of(e, a) * inst.q_of(e, a) * z for (e, a), z in sol.marginals.items()
        )
        assert abs(from_marg - sol.objective) <= 1e-9


# ---- marginals ----


def test_edge_marginals_two_position_config():
    inst = star2()
    cfg = make_config(inst, "v", [("u1", "v"), ("u2", "v")], ["a", "a"])
    m1 = edge_marginals({cfg: 1.0}, inst)
    assert abs(m1[(("u1", "v"), "a")] - 1.0) <= 1e-15
    assert abs(m1[(("u2", "v"), "a")] - 0.5) <= 1e-15
    m2 = edge_marginals({cfg: 0.5}, inst)
    assert abs(m2[(("u1", "v"), "a")] - 0.5) <= 1e-15
    assert abs(m2[(("u2", "v"), "a")] - 0.25) <= 1e-15
    assert edge_marginals({}, inst) == {}


def test_marginal_feasibility_flags_violation():
    inst = star2()
    bad = {((("u1", "v")), "a"): 1.5}
    msgs = check_marginal_feasibility(bad, inst)
    assert any("edge" in m for m in msgs)
    assert check_marginal_feasibility({}, inst) == []


# ---- pricing ----


def test_pricing_zero_duals_is_star_opt():
    inst = star2()
    zero = DualPrices(alpha={"u1": 0.0, "u2": 0.0}, gamma={"u1": 0.0, "u2": 0.0}, beta={"v": 0.0})
    cfg, val = price_best_config(inst, "v", zero)
    assert abs(val - 0.8) <= 1e-12
    assert cfg.edges == (("u1", "v"), ("u2", "v"))


def test_pricing_large_duals_empty():
    inst = star2()
    big = DualPrices(alpha={"u1": 9.0, "u2": 9.0}, gamma={"u1": 0.0, "u2": 0.0}, beta={"v": 0.0})
    cfg, val = price_best_config(inst, "v", big)
    assert cfg is None and val == 0.0


def test_clamped_value_dominates_reduced_value_pointwise():
    # evaluating a plan with clamped rewards max(r - alpha - gamma/q, 0)
    # always dominates its raw reduced value, for every plan
    rng = np.random.default_rng(17)
    for seed in range(8):
        inst = random_instance(seed + 50, 3, 1, 2, patience_range=(2,))
        duals = DualPrices(
            alpha={u: float(rng.uniform(0, 0.5)) for u in inst.U},
            gamma={u: float(rng.uniform(0, 0.2)) for u in inst.U},
            beta={v: 0.0 for v in inst.V},
        )
        for cfg in enumerate_configs(inst, "v0"):
            clamped = 0.0
            alive = 1.0
            for e, a in zip(cfg.edges, cfg.actions):
                q = inst.q_of(e, a)
                if q > 0:
                    rhat = max(inst.r_of(e, a) - duals.alpha[e[0]] - duals.gamma[e[0]] / q, 0.0)
                    clamped += alive * q * rhat
                alive *= 1.0 - q
            assert clamped >= reduced_value(inst, cfg, duals) - 1e-12


def test_pricing_value_matches_reduced_value_identity():
    # on plans whose reduced rewards are strictly positive, the priced value
    # equals plan value minus dual charge; in general it dominates it
    rng = np.random.default_rng(2)
    for seed in range(10):
        inst = random_instance(seed, 3, 1, 2, patience_range=(2,))
        duals = DualPrices(
            alpha={u: float(rng.uniform(0, 0.3)) for u in inst.U},
            gamma={u: float(rng.uniform(0, 0.1)) for u in inst.U},
            beta={v: 0.0 for v in inst.V},
        )
        cfg, val = price_best_config(inst, "v0", duals)
        if cfg is None:
            continue
        assert abs(val - reduced_value(inst, cfg, duals)) <= 1e-9
        for other in enumerate_configs(inst, "v0"):
            assert val >= reduced_value(inst, other, duals) - 1e-9


# ---- column generation ----


def test_colgen_star_example():
    sol = solve_lp_c_colgen(star2(), eps=0.01)
    assert abs(sol.objective - 0.8) <= 1e-6


def test_colgen_all_zero_rewards():
    inst = make_instance(
        ["u"], ["v"], ["a"], {(("u", "v"), "a"): 0.5}, {(("u", "v"), "a"): 0.0}, {"u": 1, "v": 1}
    )
    sol = solve_lp_c_colgen(inst)
    assert sol.objective == 0.0
    assert sol.n_columns == 0


def test_lp_iterations_are_the_simplex_pivots(monkeypatch):
    from qcmatch import simplex

    pivots = []
    solve = simplex.solve_packing_lp

    def counting(*args, **kwargs):
        res = solve(*args, **kwargs)
        pivots.append(res.iterations)
        return res

    monkeypatch.setattr(simplex, "solve_packing_lp", counting)
    inst = small_instances(1, start=900)[0]
    for solver in (solve_edge_lp, solve_lp_c_explicit, solve_lp_c_colgen):
        pivots.clear()
        res = solver(inst)
        # column generation sums its master solves; the others solve once
        assert len(pivots) > 1 if solver is solve_lp_c_colgen else len(pivots) == 1
        assert res.iterations == sum(pivots) > 0


def test_colgen_matches_explicit_and_certifies_duals():
    for inst in small_instances(20, start=900):
        explicit = solve_lp_c_explicit(inst)
        cg = solve_lp_c_colgen(inst, eps=0.01)
        assert abs(cg.objective - explicit.objective) <= 0.01 * explicit.objective + 1e-6
        # definitional relaxed-dual check over the whole column universe
        duals = cg.duals
        for v in inst.V:
            for cfg in enumerate_configs(inst, v):
                lhs = (1 - 0.01) * cfg.value - (cfg.value - reduced_value(inst, cfg, duals))
                assert lhs <= duals.beta[v] + 1e-7
        assert validate_solution(cg, inst) == []


def test_colgen_pricing_refusal_propagates(monkeypatch):
    # a star search past its state budget refuses, and the refusal
    # propagates out of column generation
    inst = random_instance(11, 4, 3, 2, patience_range=(INFINITE,))
    monkeypatch.setenv("QCL_BUDGET", "2")
    with pytest.raises(BudgetExceeded):
        solve_lp_c_colgen(inst)


def test_colgen_iteration_limit():
    inst = random_instance(11, 3, 3, 2, patience_range=(2,))
    with pytest.raises(IterationLimit):
        solve_lp_c_colgen(inst, iteration_limit=1)


def test_colgen_rejects_bad_eps():
    with pytest.raises(ValueError):
        solve_lp_c_colgen(star2(), eps=0.0)
