import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcmatch import eptas as ep
from qcmatch.exact import BudgetExceeded, star_opt_bruteforce, _future_values_core
from qcmatch.instances import INFINITE, make_instance, random_instance
from test_exact import random_star_table


def table_of(inst):
    v = inst.V[0]
    edges = inst.incident_to_v(v)
    return [
        [(a, inst.q[(e, a)], inst.r_of(e, a)) for a in inst.A if (e, a) in inst.q]
        for e in edges
    ]


def random_star(seed, n_max=6, actions=2, patience=None):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    na = int(rng.integers(1, actions + 1))
    ell = patience if patience is not None else int(rng.integers(1, n + 1))
    return random_instance(seed, n, 1, na, patience_range=(ell,))


def test_bucket_load():
    acts = [("a", 0.5, 5.0)]
    assert ep.bucket_load(acts, 3.0) == 1.0
    assert ep.bucket_load(acts, 6.0) == 0.0
    two = [("a", 0.5, 5.0), ("b", 1.0, 2.0)]
    assert ep.bucket_load(two, 1.0) == max(0.5 * 4.0, 1.0 * 1.0)


def test_estimate_candidates_bracket():
    inst = make_instance(
        ["u"], ["v"], ["a"], {(("u", "v"), "a"): 1.0}, {(("u", "v"), "a"): 1.0}, {"u": 1, "v": 1}
    )
    lpopt, cands = ep.estimate_value_candidates(table_of(inst), 1, 0.5)
    assert lpopt == pytest.approx(1.0)
    assert cands, "candidate list must be nonempty"
    assert all(0.5 - 1e-12 <= c <= 1.0 + 1e-9 for c in cands)


def test_estimate_contains_good_candidate():
    for seed in range(20):
        inst = random_star(seed)
        opt = star_opt_bruteforce(inst).value
        if opt <= 0:
            continue
        _, cands = ep.estimate_value_candidates(table_of(inst), inst.patience["v0"], 0.5)
        assert any(0.5 * opt - 1e-9 <= c <= opt + 1e-9 for c in cands), (seed, opt, cands)


def test_solve_bucket_ip_trivial_and_single():
    table = [[("a", 1.0, 1.0)]]
    loads = [[ep.bucket_load(table[0], 0.0)]]
    plan = ep.BucketPlan(jump_flags=(False,), base_guess=(0.0,), delta_guess=(0.0,))
    assign = ep.solve_bucket_ip(plan, loads, 1)
    assert assign is not None and assign == ((),)
    plan2 = ep.BucketPlan(jump_flags=(False,), base_guess=(0.0,), delta_guess=(1.0,))
    assign2 = ep.solve_bucket_ip(plan2, loads, 1)
    assert assign2 == ((0,),)
    plan3 = ep.BucketPlan(jump_flags=(False,), base_guess=(0.0,), delta_guess=(2.0,))
    assert ep.solve_bucket_ip(plan3, loads, 1) is None


def test_reconstruct_identities():
    inst = random_star(3, patience=3)
    table = table_of(inst)
    assign = ((0,), (1,), (2,))
    val, order, actions, rvals, bucket_of = ep.reconstruct(assign, table)
    # reverse bucket order, ascending ids inside
    assert order == (2, 1, 0)
    assert bucket_of == (2, 1, 0)
    ref, _ = _future_values_core([table[e] for e in order])
    assert val == ref[0]
    # empty assignment
    val0, order0, actions0, _, _ = ep.reconstruct(((), (), ()), table)
    assert val0 == 0.0 and order0 == () and actions0 == ()


def test_eptas_single_edge():
    inst = make_instance(
        ["u"], ["v"], ["a"], {(("u", "v"), "a"): 1.0}, {(("u", "v"), "a"): 1.0}, {"u": 1, "v": 1}
    )
    pol, stats = ep.eptas(inst, 0.5)
    assert pol.value == pytest.approx(1.0)
    assert pol.edges == ((("u", "v")),) or pol.edges == ((("u", "v"),))
    assert stats["guesses_tried"] > 0


def dominant_star(seed):
    # edge u0 deterministic with a dominant reward; junk edges tiny
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    U = [f"u{i}" for i in range(n)]
    q = {((f"u{i}", "v"), "a"): float(rng.uniform(0.1, 0.9)) for i in range(1, n)}
    r = {((f"u{i}", "v"), "a"): float(rng.uniform(0.0, 0.05)) for i in range(1, n)}
    q[(("u0", "v"), "a")] = 1.0
    r[(("u0", "v"), "a")] = 10.0
    pat = {u: 1 for u in U}
    pat["v"] = int(rng.integers(1, n + 1))
    return make_instance(U, ["v"], ["a"], q, r, pat)


def test_eptas_dominant_deterministic_edge():
    for seed in range(10):
        inst = dominant_star(seed)
        opt = star_opt_bruteforce(inst).value
        assert opt == pytest.approx(10.0)
        pol, _ = ep.eptas(inst, 0.5)
        assert pol.value == pytest.approx(opt, abs=1e-9)


def test_eptas_feasible_and_never_above_opt():
    for seed in range(25):
        inst = random_star(seed + 100)
        pol, _ = ep.eptas(inst, 0.5)
        opt = star_opt_bruteforce(inst).value
        assert pol.value <= opt + 1e-9, (seed, pol.value, opt)
        assert len(set(pol.edges)) == len(pol.edges)
        ell = inst.patience["v0"]
        assert len(pol.edges) <= (len(inst.U) if ell == INFINITE else int(ell))
        # value is honestly computed from the policy itself
        from qcmatch.exact import expected_sequence_reward

        direct = expected_sequence_reward(
            [(inst.q_of(e, a), inst.r_of(e, a)) for e, a in zip(pol.edges, pol.actions)]
        )
        assert pol.value == pytest.approx(direct, abs=1e-12)


def test_truth_rounded_plan_feasibility_lemma():
    for seed in range(30):
        inst = random_star(seed + 200)
        table = table_of(inst)
        ell = inst.patience["v0"]
        plan, assign, stats = ep.truth_rounded_plan(table, ell, 0.5)
        if stats["opt"] <= 0:
            continue
        assert stats["jumps"] <= stats["max_jumps"], stats  # jump census
        n = len(table)
        loads = [
            [ep.bucket_load(table[e], plan.base_guess[i]) for e in range(n)]
            for i in range(plan.n_buckets)
        ]
        assert ep.check_assignment(assign, plan, loads, ell) == [], (seed, plan, assign)
        # and the exact solver agrees the program is feasible
        assert ep.solve_bucket_ip(plan, loads, ell) is not None


def test_ahead_behind_decomposition_identity():
    # telescoping identity and the ahead-of-schedule load bound on
    # reconstructed policies
    for seed in range(10):
        inst = random_star(seed + 300, patience=3)
        table = table_of(inst)
        plan, assign, stats = ep.truth_rounded_plan(table, inst.patience["v0"], 0.5)
        if stats["opt"] <= 0:
            continue
        val, order, actions, rvals, bucket_of = ep.reconstruct(assign, table)
        if not order:
            continue
        k = len(order)
        # first ahead-of-schedule position (always exists: the last position
        # has future value 0 and bucket 0 has base guess 0)
        i_min = next(
            i for i in range(k) if rvals[i + 1] >= plan.base_guess[bucket_of[i]] - 1e-12
        )
        lhs = rvals[0]
        rhs = rvals[i_min] + sum(rvals[i] - rvals[i + 1] for i in range(i_min))
        assert lhs == pytest.approx(rhs, abs=1e-12)
        b = bucket_of[i_min]
        load = ep.bucket_load(table[order[i_min]], plan.base_guess[b])
        assert rvals[i_min] >= plan.base_guess[b] + load - 1e-9


def test_eptas_guess_budget():
    inst = random_star(7, patience=3)
    with pytest.raises(BudgetExceeded):
        ep.eptas(inst, 0.5, guess_budget=3)
    # at eps = 1/50 the walk tries guesses until the default budget runs out
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded):
        ep.eptas(inst, 0.02)
    assert time.monotonic() - t0 < 20.0


def test_eptas_small_eps_refused_by_budget():
    # at eps = 1e-4 the grid has 1e8 + 1 bases and the top bucket 1e8 + 1
    # deltas; the walk touches only what its guesses need, so it refuses
    # after the same budgeted work as at eps = 1/50
    inst = random_star(7, patience=3)
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded):
        ep.eptas(inst, 1e-4, guess_budget=1000)
    assert time.monotonic() - t0 < 1.0
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded):
        ep.eptas(inst, 1e-4)
    assert time.monotonic() - t0 < 20.0


def test_eptas_third_within_default_budget():
    # the walk tries 27,062 guesses here, far fewer than the 4.4e7 the
    # guess space holds at eps = 1/3; value, order, actions and feasible
    # guesses are those of the walk under an unlimited budget, and the
    # value is the optimum
    inst = random_instance(7201, 4, 1, 2, patience_range=(3,))
    out = ep.eptas_core(table_of(inst), inst.patience[inst.V[0]], 1 / 3)
    expected = (
        0.5117241985547222,
        (0, 1, 3),
        ("a0", "a0", "a0"),
        {"guesses_tried": 27062, "feasible_guesses": 4423},
    )
    assert out == expected, out
    assert out[0] == star_opt_bruteforce(inst).value


def test_eptas_rejects_bad_eps():
    inst = random_star(8)
    with pytest.raises(ValueError):
        ep.eptas(inst, 0.3)  # 1/eps not integral
    with pytest.raises(ValueError):
        ep.eptas(inst, 1.5)
    with pytest.raises(ValueError):
        ep.eptas(inst, 0)
    table, ell = table_of(inst), inst.patience["v0"]
    for eps in (0, 1, 0.3):
        with pytest.raises(ValueError):
            ep.truth_rounded_plan(table, ell, eps)


def test_eptas_all_zero():
    inst = make_instance(
        ["u"], ["v"], ["a"], {(("u", "v"), "a"): 0.5}, {(("u", "v"), "a"): 0.0}, {"u": 1, "v": 1}
    )
    # a preceding call must not leak its guess counts into this one
    ep.eptas(random_star(7, patience=2), 0.5)
    pol, stats = ep.eptas(inst, 0.5)
    assert pol.value == 0.0 and pol.edges == ()
    assert stats == {"guesses_tried": 0, "feasible_guesses": 0}


# (value, order, actions, stats) of eptas_core at eps = 1/2 on pinned_stars(),
# compared with ==. Value, order, actions and feasible_guesses were recorded
# with the earlier guess walk, which recomputed every load in each solve and
# reconstructed each ordering once; guesses_tried counts the prefix programs
# the pruned walk checks
PINNED_OUTPUTS = [
    (0.31744602679384326, (1,), ("a0",), {"guesses_tried": 222, "feasible_guesses": 22}),
    (0.6941777825242965, (1, 0), ("a1", "a0"), {"guesses_tried": 877, "feasible_guesses": 194}),
    (0.6770539645497593, (1, 0, 3), ("a0", "a0", "a0"), {"guesses_tried": 1405, "feasible_guesses": 441}),
    (0.9690779125514912, (4, 2, 1), ("a1", "a0", "a1"), {"guesses_tried": 2465, "feasible_guesses": 892}),
    (0.36761996434070954, (5, 4), ("a0", "a0"), {"guesses_tried": 749, "feasible_guesses": 158}),
    (0.7884211501500956, (3, 0, 1, 2), ("a1", "a1", "a0", "a0"), {"guesses_tried": 1687, "feasible_guesses": 614}),
    (10.0, (4,), ("a",), {"guesses_tried": 222, "feasible_guesses": 22}),
    (0.0, (), (), {"guesses_tried": 0, "feasible_guesses": 0}),
]


def pinned_stars():
    # the certify workload's (n, |A|, patience) shapes, one unbounded
    # patience, one dominant-edge star and one all-zero star
    shapes = ((2, 1, 1), (3, 2, 2), (4, 1, 3), (5, 2, 3), (6, 1, 2), (4, 2, INFINITE))
    stars = [
        random_instance(7100 + k, n, 1, n_a, patience_range=(ell,))
        for k, (n, n_a, ell) in enumerate(shapes)
    ]
    stars.append(dominant_star(3))
    U = ["u0", "u1", "u2"]
    stars.append(
        make_instance(
            U, ["v"], ["a"], {((u, "v"), "a"): 0.5 for u in U}, {((u, "v"), "a"): 0.0 for u in U},
            {"u0": 1, "u1": 1, "u2": 1, "v": 2},
        )
    )
    return stars


def test_eptas_outputs_reproduce():
    for inst, expected in zip(pinned_stars(), PINNED_OUTPUTS, strict=True):
        out = ep.eptas_core(table_of(inst), inst.patience[inst.V[0]], 0.5)
        assert out == expected, (out, expected)


def test_eptas_pinned_solve_counts(monkeypatch):
    # the walk decides its prefixes by frontiers and never calls
    # solve_bucket_ip (counted through the module attribute, where a tracer
    # wraps it); it builds one assignment per distinct sorted leaf key, and
    # never more than it has feasible guesses
    calls, builds = [], []
    solve, assign = ep.solve_bucket_ip, ep._MaskSets.assign

    def counting_solve(plan, loads, ell):
        calls.append(plan)
        return solve(plan, loads, ell)

    def counting_assign(self, needs, choices):
        builds.append(needs)
        return assign(self, needs, choices)

    monkeypatch.setattr(ep, "solve_bucket_ip", counting_solve)
    monkeypatch.setattr(ep._MaskSets, "assign", counting_assign)
    for inst in pinned_stars():
        builds.clear()
        table, ell = table_of(inst), inst.patience[inst.V[0]]
        _, _, _, stats = ep.eptas_core(table, ell, 0.5)
        _, leaf_keys = replay_walk(table, ell, 0.5)
        assert len(builds) == leaf_keys <= stats["feasible_guesses"], (len(builds), leaf_keys, stats)
    assert calls == []


# ---------------------------------------------------------------------------
# The unpruned walk, kept as the oracle for the prefix-pruned one
# ---------------------------------------------------------------------------


def enumerate_guesses(eps, K):
    # every guess of 2K+1 buckets as (base, delta) grid indices, in the
    # order eptas_core walks them
    inv = ep.grid_inverse(eps)
    gmax = inv * inv
    m = 2 * K + 1
    jump = [i % 2 == 1 for i in range(m)]

    def levels(i, bg, acc):
        dg_min = inv - 1 if jump[i] else 0
        for dg in range(dg_min, gmax + 1):
            if i == m - 1:
                if bg + dg >= gmax - 1:
                    yield acc + [(bg, dg)]
                continue
            nxt = {min(bg + dg, gmax), min(bg + dg + 1, gmax)}
            for bg2 in nxt:
                yield from levels(i + 1, bg2, acc + [(bg, dg)])

    yield from levels(0, 0, [])


def unpruned_eptas_core(table, ell, eps):
    # solves every guess's full bucket program, one cache per (candidate, K);
    # returns (value, order, actions, feasible guesses)
    inv = ep.grid_inverse(eps)
    _, candidates = ep.estimate_value_candidates(table, ell, eps)
    best_val, best_order, best_actions = 0.0, (), ()
    feasible = 0
    for e_val in candidates:
        step = eps * eps * e_val
        loads = [[ep.bucket_load(acts, g * step) for acts in table] for g in range(inv * inv + 1)]
        for K in range(0, inv + 1):
            m = 2 * K + 1
            jump = tuple(i % 2 == 1 for i in range(m))
            feas_cache = {}
            for combo in enumerate_guesses(eps, K):
                key = tuple(sorted((bg, dg, j) for (bg, dg), j in zip(combo, jump)))
                if key not in feas_cache:
                    plan = ep.BucketPlan(
                        jump_flags=tuple(j for _, _, j in key),
                        base_guess=tuple(bg * step for bg, _, _ in key),
                        delta_guess=tuple(dg * step for _, dg, _ in key),
                    )
                    feas_cache[key] = ep.solve_bucket_ip(plan, [loads[bg] for bg, _, _ in key], ell)
                assign_sorted = feas_cache[key]
                if assign_sorted is None:
                    continue
                feasible += 1
                slots = sorted(range(m), key=lambda i: (combo[i][0], combo[i][1], jump[i]))
                by_bucket = [()] * m
                for pos, slot in enumerate(slots):
                    by_bucket[slot] = assign_sorted[pos]
                val, order, actions, _, _ = ep.reconstruct(by_bucket, table)
                if val > best_val:
                    best_val, best_order, best_actions = val, order, actions
    return best_val, best_order, best_actions, feasible


unit = st.floats(0.0, 1.0, allow_subnormal=False)


@st.composite
def star_tables(draw):
    # rewards: uniform, tied on a three-point set, or all zero
    n = draw(st.integers(1, 6))
    n_a = draw(st.integers(1, 3))
    ell = draw(st.sampled_from([*range(1, n + 1), INFINITE]))
    kind = draw(st.sampled_from(["uniform", "tied", "zero"]))
    if kind == "uniform":
        q, r = unit, unit
    elif kind == "tied":
        q, r = st.sampled_from([0.5, 1.0]), st.sampled_from([0.0, 0.5, 1.0])
    else:
        q, r = unit, st.just(0.0)
    table = [[(f"a{k}", draw(q), draw(r)) for k in range(n_a)] for _ in range(n)]
    return table, ell


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(star_tables())
def test_pruned_walk_matches_unpruned(star):
    table, ell = star
    value, order, actions, stats = ep.eptas_core(table, ell, 0.5)
    assert (value, order, actions, stats["feasible_guesses"]) == unpruned_eptas_core(table, ell, 0.5)


@st.composite
def bucket_programs(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    ell = draw(st.sampled_from([*range(0, n + 1), INFINITE]))
    loads = [[draw(unit) for _ in range(n)] for _ in range(m)]
    jump = tuple(draw(st.booleans()) for _ in range(m))
    delta = tuple(draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5])) for _ in range(m))
    lower = tuple(draw(unit) for _ in range(m))
    return ep.BucketPlan(jump_flags=jump, base_guess=(0.0,) * m, delta_guess=delta), loads, ell, lower


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(bucket_programs())
def test_bucket_feasibility_survives_lowering_and_dropping(program):
    # the two facts the prefix prune rests on
    plan, loads, ell, lower = program
    if ep.solve_bucket_ip(plan, loads, ell) is None:
        return
    m = plan.n_buckets
    for i in range(m):
        delta = list(plan.delta_guess)
        delta[i] *= lower[i]
        lowered = ep.BucketPlan(plan.jump_flags, plan.base_guess, tuple(delta))
        assert ep.solve_bucket_ip(lowered, loads, ell) is not None, (plan, i)
    for size in range(1, m):
        for keep in combinations(range(m), size):
            sub = ep.BucketPlan(
                tuple(plan.jump_flags[i] for i in keep),
                tuple(plan.base_guess[i] for i in keep),
                tuple(plan.delta_guess[i] for i in keep),
            )
            assert ep.solve_bucket_ip(sub, [loads[i] for i in keep], ell) is not None, (plan, keep)


# ---------------------------------------------------------------------------
# The recursive bucket-program search, kept as the oracle for the frontiers
# ---------------------------------------------------------------------------


def recursive_bucket_ip(plan, loads, ell):
    # depth-first search over the buckets by descending need, each bucket's
    # subsets by size, then in combinations order over the available edges
    # by descending load; a bucket left uncoverable on its own vetoes the
    # branch. Returns the first assignment found or None
    needs = plan.delta_guess
    n = len(loads[0])
    caps = [1 if jump else n for jump in plan.jump_flags]
    order = sorted(range(len(needs)), key=lambda i: -needs[i])

    def feasible_tail(k, avail, budget_left):
        for i in order[k:]:
            if needs[i] <= 0:
                continue
            tops = sorted((loads[i][e] for e in avail), reverse=True)[: min(caps[i], budget_left)]
            if sum(tops) < needs[i] - 1e-12:
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
        for size in range(1, min(caps[i], budget_left, len(cands)) + 1):
            if sum(row[e] for e in cands[:size]) < need - 1e-12:
                continue
            for subset in combinations(cands, size):
                if sum(row[e] for e in subset) < need - 1e-12:
                    continue
                res = go(k + 1, avail - set(subset), budget_left - size, acc + [(i, subset)])
                if res is not None:
                    return res
        return None

    res = go(0, set(range(n)), min(ell, n), [])
    if res is None:
        return None
    by_bucket = [()] * len(needs)
    for i, subset in res:
        by_bucket[i] = tuple(sorted(subset))
    return tuple(by_bucket)


def replay_walk(table, ell, eps):
    # eptas_core's walk with each prefix decided by the recursive oracle, as
    # before the frontiers; asserts that the prefix's frontier agrees and
    # returns (prefixes checked, distinct sorted leaf keys over the candidates)
    inv = ep.grid_inverse(eps)
    gmax = inv * inv
    sets = ep._MaskSets(len(table), min(ell, len(table)))
    _, candidates = ep.estimate_value_candidates(table, ell, eps)
    checked = leaf_keys = 0
    for e_val in candidates:
        step = eps * eps * e_val
        loads = [[ep.bucket_load(acts, g * step) for acts in table] for g in range(gmax + 1)]
        subsets = [sets.subsets(row) for row in loads]
        feasible, leaves = {}, set()

        def walk(m, i, bg, prefix, reach):
            nonlocal checked
            lo = inv - 1 if i % 2 == 1 else 0
            if i == m - 1:
                lo = max(lo, gmax - 1 - bg)
            for dg in range(lo, gmax + 1):
                desc = prefix + ((bg, dg, i % 2 == 1),)
                key = tuple(sorted(desc))
                if key not in feasible:
                    plan = ep.BucketPlan(
                        jump_flags=tuple(j for _, _, j in key),
                        base_guess=tuple(b * step for b, _, _ in key),
                        delta_guess=tuple(d * step for _, d, _ in key),
                    )
                    feasible[key] = recursive_bucket_ip(plan, [loads[b] for b, _, _ in key], ell) is not None
                reach_next = sets.extend(reach, sets.choices(subsets[bg], dg * step, i % 2 == 1))
                checked += 1
                assert (reach_next != 0) == feasible[key], (table, ell, e_val, desc)
                if not feasible[key]:
                    return
                if i == m - 1:
                    leaves.add(key)
                    continue
                for bg2 in {min(bg + dg, gmax), min(bg + dg + 1, gmax)}:
                    walk(m, i + 1, bg2, desc, reach_next)

        for K in range(inv + 1):
            walk(2 * K + 1, 0, 0, (), 1)
        leaf_keys += len(leaves)
    return checked, leaf_keys


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(bucket_programs())
def test_solve_bucket_ip_matches_recursive_oracle(program):
    plan, loads, ell, _ = program
    assert ep.solve_bucket_ip(plan, loads, ell) == recursive_bucket_ip(plan, loads, ell)


def criterion_9_stars(count):
    # the first stars of test_criterion_9_star_eptas's family
    for seed in range(90_001, 90_001 + count):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        n_a = int(rng.integers(1, 3))
        ell = int(rng.integers(1, n + 1))
        yield table_of(random_instance(seed, n, 1, n_a, patience_range=(ell,))), ell


def test_frontier_matches_oracle_on_walk_prefixes():
    # every prefix the walk checks, on the first 30 stars of the criterion-9
    # family and the first 50 behind tests/golden/star_opt_core_pins.json;
    # the replay checks exactly the prefixes eptas_core counts
    stars = [*criterion_9_stars(30), *(random_star_table(seed) for seed in range(50))]
    for table, ell in stars:
        checked, _ = replay_walk(table, ell, 0.5)
        assert checked == ep.eptas_core(table, ell, 0.5)[3]["guesses_tried"], (table, ell)


def test_edge_limit_refused_promptly():
    # past MAX_EDGES the frontiers would hold 2^n masks each: the star is
    # refused before any frontier or LP is built
    assert ep.MAX_EDGES >= 12
    inst = random_instance(5, ep.MAX_EDGES + 1, 1, 1, patience_range=(3,))
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded):
        ep.eptas(inst, 0.5)
    assert time.monotonic() - t0 < 1.0
    plan = ep.BucketPlan(jump_flags=(False,), base_guess=(0.0,), delta_guess=(1.0,))
    with pytest.raises(BudgetExceeded):
        ep.solve_bucket_ip(plan, [[1.0] * (ep.MAX_EDGES + 1)], 3)
