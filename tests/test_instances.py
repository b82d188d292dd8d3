import math

import pytest

from qcmatch import instances as inst_mod
from qcmatch.harness import guarantee_ratio
from qcmatch.instances import (
    INFINITE,
    PricingSpec,
    ProphetSpec,
    deserialize,
    from_pricing,
    from_prophet,
    make_instance,
    random_instance,
    serialize,
    validate_instance,
)
from qcmatch.numerics import BETA, ONE_MINUS_INV_E


def one_edge(q=0.5, r=2.0, lu=1, lv=1):
    return make_instance(
        ["u0"], ["v0"], ["a0"],
        {(("u0", "v0"), "a0"): q},
        {(("u0", "v0"), "a0"): r},
        {"u0": lu, "v0": lv},
    )


def test_validate_ok():
    assert validate_instance(one_edge()) == []


def test_validate_probability_out_of_range():
    bad = one_edge(q=1.3)
    msgs = validate_instance(bad)
    assert any("probability out of range" in m for m in msgs)


def test_validate_negative_patience():
    bad = one_edge(lu=-1)
    msgs = validate_instance(bad)
    assert any("patience negative" in m for m in msgs)


def test_validate_missing_patience_and_unknown_action():
    bad = make_instance(["u0"], ["v0"], ["a0"], {(("u0", "v0"), "a1"): 0.5}, {}, {"u0": 1})
    msgs = validate_instance(bad)
    assert any("unknown action" in m for m in msgs)
    assert any("patience[v0]: missing" in m for m in msgs)


def test_from_pricing_revenue():
    spec = PricingSpec(job_value={"u0": 10.0}, curves={("u0", "v0"): [(4.0, 0.5)]})
    got = from_pricing(spec)
    e = ("u0", "v0")
    a = got.A[0]
    assert got.q_of(e, a) == 0.5
    assert got.r_of(e, a) == 6.0
    assert validate_instance(got) == []


def test_from_pricing_welfare_two_point_cost():
    # only the cost 2 atom satisfies cost <= payment 4
    spec = PricingSpec(
        job_value={"u0": 10.0},
        curves={("u0", "v0"): [(4.0, 0.5)]},
        objective="welfare",
        costs={("u0", "v0"): [(2.0, 0.5), (6.0, 0.5)]},
    )
    got = from_pricing(spec)
    assert got.r_of(("u0", "v0"), got.A[0]) == 8.0


def test_from_pricing_negative_reward_clamped():
    spec = PricingSpec(job_value={"u0": 3.0}, curves={("u0", "v0"): [(5.0, 0.9)]})
    got = from_pricing(spec)
    assert got.r_of(("u0", "v0"), got.A[0]) == 0.0


def test_from_pricing_welfare_requires_costs():
    spec = PricingSpec(job_value={"u0": 3.0}, curves={("u0", "v0"): [(1.0, 0.9)]}, objective="welfare")
    with pytest.raises(ValueError, match="cost distribution required"):
        from_pricing(spec)


def test_from_pricing_welfare_no_feasible_cost_drops_action():
    spec = PricingSpec(
        job_value={"u0": 10.0},
        curves={("u0", "v0"): [(1.0, 0.5), (4.0, 0.5)]},
        objective="welfare",
        costs={("u0", "v0"): [(2.0, 1.0)]},
    )
    got = from_pricing(spec)
    e = ("u0", "v0")
    present = [a for a in got.A if (e, a) in got.q]
    assert len(present) == 1  # payment 1.0 has no feasible cost, dropped


def test_from_prophet_examples():
    spec = ProphetSpec(dists={("u0", "v0"): [(1.0, 0.5), (3.0, 0.5)]})
    got = from_prophet(spec)
    e = ("u0", "v0")
    a3 = [a for a in got.A if a.endswith("3")][0]
    a1 = [a for a in got.A if a.endswith("1")][0]
    assert got.q_of(e, a3) == 0.5 and got.r_of(e, a3) == 3.0
    assert got.q_of(e, a1) == 1.0 and got.r_of(e, a1) == 2.0
    assert validate_instance(got) == []


def test_from_prophet_point_mass():
    got = from_prophet(ProphetSpec(dists={("u0", "v0"): [(5.0, 1.0)]}))
    e = ("u0", "v0")
    assert got.q_of(e, got.A[0]) == 1.0
    assert got.r_of(e, got.A[0]) == 5.0


def test_from_prophet_empty_support_rejected():
    with pytest.raises(ValueError, match="empty support"):
        from_prophet(ProphetSpec(dists={("u0", "v0"): []}))


def test_from_prophet_survival_reproduces_cdf_complement():
    dist = [(0.5, 0.25), (1.0, 0.25), (2.0, 0.5)]
    got = from_prophet(ProphetSpec(dists={("u0", "v0"): dist}))
    for tau in (0.5, 1.0, 2.0):
        a = inst_mod._fmt_tau(tau)
        surv = sum(p for w, p in dist if w >= tau)
        assert abs(got.q_of(("u0", "v0"), a) - surv) <= 1e-12


def test_random_instance_deterministic():
    a = random_instance(42, 2, 3, 2)
    b = random_instance(42, 2, 3, 2)
    assert a == b
    c = random_instance(43, 2, 3, 2)
    assert a != c
    assert validate_instance(a) == []
    assert a.meta["generator"] == "uniform-qr"


def test_random_instance_single_action_and_infinite_patience():
    got = random_instance(1, 2, 2, 1, patience_range=(INFINITE,))
    assert len(got.A) == 1
    assert all(p == INFINITE for p in got.patience.values())


def test_random_instance_bad_args():
    with pytest.raises(ValueError):
        random_instance(1, 0, 1, 1)


def test_serialize_roundtrip():
    for seed in range(5):
        inst = random_instance(seed, 2, 2, 2, patience_range=(1, 2, INFINITE))
        back = deserialize(serialize(inst))
        assert back == inst


def test_serialize_17_digits_and_unknown_keys():
    inst = one_edge(q=1 / 3, r=2 / 3)
    text = serialize(inst)
    assert "0.33333333333333331" in text
    with pytest.raises(ValueError, match="unknown keys"):
        deserialize(text.replace('"edges"', '"edges2"', 1).replace("}", '},"extra": 1', 1))


def test_deserialize_rejects_unknown_edge_keys():
    inst = one_edge()
    text = serialize(inst)
    bad = text.replace('"actions"', '"weird"')
    with pytest.raises(ValueError):
        deserialize(bad)


def test_reduction_outputs_always_validate():
    import numpy as np

    rng = np.random.default_rng(5)
    for _ in range(20):
        taus = sorted(set(float(t) for t in rng.uniform(0, 5, 3)))
        spec = PricingSpec(
            job_value={"u0": float(rng.uniform(0, 6))},
            curves={("u0", "v0"): [(t, float(rng.uniform(0, 1))) for t in taus]},
        )
        assert validate_instance(from_pricing(spec)) == []
        support = sorted(set(float(w) for w in rng.uniform(0, 4, 3)))
        probs = rng.dirichlet(np.ones(len(support)))
        pspec = ProphetSpec(dists={("u0", "v0"): list(zip(support, map(float, probs)))})
        assert validate_instance(from_prophet(pspec)) == []


def test_infinite_patience_case_split_exact():
    inst = one_edge(lu=1, lv=2)
    assert guarantee_ratio(inst) == ONE_MINUS_INV_E
    inst2 = make_instance(
        ["u0"], ["v0"], ["a0"],
        {(("u0", "v0"), "a0"): 0.5},
        {(("u0", "v0"), "a0"): 1.0},
        {"u0": 2, "v0": 1},
    )
    assert guarantee_ratio(inst2) == BETA
    inst3 = one_edge(lu=INFINITE)
    assert guarantee_ratio(inst3) == ONE_MINUS_INV_E
    assert math.isinf(inst3.patience["u0"])
