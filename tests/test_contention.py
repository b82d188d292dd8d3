import math
import tracemalloc

import numpy as np
import pytest

from qcmatch import contention as ct
from qcmatch.instances import INFINITE, is_infinite
from qcmatch.numerics import BETA, ONE_MINUS_INV_E


def test_attenuation_finite_values():
    assert abs(ct.attenuation_finite(0.0) - 1.0) <= 1e-12
    b1 = ct.attenuation_finite(1.0)
    assert abs(b1 - BETA / (1.5 - 4.5 * math.exp(-2))) <= 1e-12
    assert abs(b1 - 0.6511) <= 5e-5
    grid = np.linspace(0, 1, 1001)
    vals = ct.attenuation_finite(grid)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all((vals >= 0) & (vals <= 1))


def test_attenuation_infinite_values():
    assert abs(ct.attenuation_infinite(0.0) - 1.0) <= 1e-12
    assert abs(ct.attenuation_infinite(1.0) - ONE_MINUS_INV_E) <= 1e-12
    grid = np.linspace(0, 1, 1001)
    vals = ct.attenuation_infinite(grid)
    assert np.all(np.diff(vals) <= 1e-12)
    # continuity at the removable singularity
    assert abs(ct.attenuation_infinite(1 - 1e-10) - ONE_MINUS_INV_E) <= 1e-9


def test_input_validation():
    with pytest.raises(ValueError, match="exceeds patience"):
        ct.make_input(("*",), 1, [1.0, 1.0], [0.9, 0.9])
    with pytest.raises(ValueError, match="state-weighted"):
        ct.make_input(("*",), 3, [1.0, 1.0], [0.9, 0.9])
    inp = ct.make_input(("*",), 2, [1.0, 0.0], [0.5, 1.0])
    assert ct.validate_input(inp) == []


def test_reduce_aggregates():
    # attenuation depends on an element's action-summed masses only
    p2 = [[1.0, 0.5], [0.2, 0.9]]
    x2 = [[0.3, 0.2], [0.1, 0.4]]
    x1 = [0.5, 0.5]
    p1 = [(1.0 * 0.3 + 0.5 * 0.2) / 0.5, (0.2 * 0.1 + 0.9 * 0.4) / 0.5]
    for ell in (1, 2, INFINITE):
        multi = ct.attenuation_probs(ct.make_input(("a0", "a1"), ell, p2, x2))
        single = ct.attenuation_probs(ct.make_input(("*",), ell, p1, x1))
        np.testing.assert_allclose(multi, single, rtol=0, atol=1e-15)


def _assert_single_element_rate(inp, seed, expect):
    (row,) = ct.estimate_selectability(inp, 60_000, seed=seed)
    se = math.sqrt(expect * (1 - expect) / row.trials_conditioned)
    assert abs(row.estimate - expect) <= 4.5 * se


def test_run_scheme_single_element_finite():
    inp = ct.make_input(("*",), 2, [1.0], [1.0])
    _assert_single_element_rate(inp, 1, ct.attenuation_finite(1.0))


def test_run_scheme_single_element_unbounded():
    inp = ct.make_input(("*",), INFINITE, [1.0], [1.0])
    _assert_single_element_rate(inp, 2, ONE_MINUS_INV_E)


def test_selectability_two_element_closed_form():
    # With two elements, j blocks i only by arriving first (prob. 1/2),
    # being suggested and passing its attenuation bit, and then either
    # spending the last query (patience 1) or being output (unbounded, with
    # probability p_j): P[i queried | i suggested] = b_i (1 - x_j b_j s_j / 2)
    # with s_j = 1 and s_j = p_j respectively.
    cases = [
        (1, [0.0, 0.0], [0.5, 0.3], [1.0, 1.0]),
        (INFINITE, [1.0, 1.0], [0.6, 0.4], [1.0, 1.0]),
        (INFINITE, [1.0, 0.5], [0.7, 0.6], [1.0, 0.5]),
    ]
    for ell, p, x, s in cases:
        inp = ct.make_input(("*",), ell, p, x)
        b = ct.attenuation_probs(inp)
        rows = ct.estimate_selectability(inp, 200_000, seed=5)
        assert [r.element for r in rows] == [0, 1]
        for r in rows:
            i, j = r.element, 1 - r.element
            expect = b[i] * (1 - x[j] * b[j] * s[j] / 2)
            se = math.sqrt(expect * (1 - expect) / r.trials_conditioned)
            assert abs(r.estimate - expect) <= 5 * se, (ell, p, x, r)


def test_multi_action_trace_invariants_and_no_phantom_queries():
    inp = ct.make_input(("a0", "a1"), 2, [[1.0, 0.5], [0.2, 0.9]], [[0.3, 0.0], [0.1, 0.4]])
    rows = ct.estimate_selectability(inp, 2000, seed=3)
    expect = {(i, inp.actions[a]) for i in range(inp.n) for a in range(2) if inp.x[i, a] > 0}
    assert {(r.element, r.action) for r in rows} == expect
    assert len(rows) == len(expect)
    for r in rows:
        assert 0 <= r.queried <= r.trials_conditioned, r


def test_selectability_transfer_multi_action():
    # the per-(i, a) conditional frequency matches the aggregate per-i law
    inp = ct.make_input(("a0", "a1"), 2, [[1.0, 0.5]], [[0.3, 0.2]])
    rows = ct.estimate_selectability(inp, 200_000, seed=4)
    by_action = {r.action: r for r in rows}
    e0, e1 = by_action["a0"], by_action["a1"]
    se = math.sqrt(0.25 / min(e0.trials_conditioned, e1.trials_conditioned))
    assert abs(e0.estimate - e1.estimate) <= 5 * se


def test_estimate_selectability_deterministic():
    inp = ct.poisson_regime_input(2, n1_elements=10)
    a = ct.estimate_selectability(inp, 20_000, seed=9)
    b = ct.estimate_selectability(inp, 20_000, seed=9)
    assert [(r.element, r.estimate) for r in a] == [(r.element, r.estimate) for r in b]
    c = ct.estimate_selectability(inp, 20_000, seed=10)
    assert [(r.element, r.estimate) for r in a] != [(r.element, r.estimate) for r in c]


def test_selectability_bounds_on_stress_inputs():
    # smaller Monte Carlo here; the acceptance suite runs the full version
    for ell in (2, 3):
        inp = ct.poisson_regime_input(ell, n1_elements=20)
        for r in ct.estimate_selectability(inp, 150_000, seed=20 + ell):
            assert r.estimate >= r.bound - 4 * r.std_error, (ell, r)
    inp1 = ct.poisson_regime_input(1, n1_elements=20)
    for r in ct.estimate_selectability(inp1, 150_000, seed=31):
        assert r.bound == ONE_MINUS_INV_E
        assert r.estimate >= r.bound - 4 * r.std_error, r
    inpinf = ct.poisson_regime_input(INFINITE, n1_elements=20)
    for r in ct.estimate_selectability(inpinf, 150_000, seed=32):
        assert r.estimate >= r.bound - 4 * r.std_error, r


def test_selectability_single_heavy_corner():
    # the corner where the closed-form availability device is weakest;
    # the scheme itself must still clear the guarantee
    inp = ct.single_heavy_input(3, x1=0.8)
    for r in ct.estimate_selectability(inp, 150_000, seed=40):
        assert r.estimate >= r.bound - 4 * r.std_error, r


def exact_selectability(inp, nodes=None):
    """P[i queried via a | i suggested via a] per element i, exactly.

    Given i's arrival time y, each other element j is, independently,
    reached before i and fails with probability y b_j sum_a x_ja (1 - p_ja),
    reached before i and succeeds with y b_j sum_a x_ja p_ja, or neither;
    i is queried iff it passes its own attenuation bit, fewer than the
    patience failed and none succeeded. The integrand over y is a
    polynomial of degree n - 1, so n // 2 + 2 Gauss-Legendre nodes
    integrate it exactly. Unbounded patience counts no failures: the
    integrand is the product of (1 - y b_j sum_a x_ja p_ja).
    """
    b = ct.attenuation_probs(inp)
    succ = b * (inp.x * inp.p).sum(axis=1)
    if is_infinite(inp.patience):
        fail, ell = np.zeros(inp.n), 1
    else:
        fail, ell = b * (inp.x * (1.0 - inp.p)).sum(axis=1), inp.patience
    y, w = np.polynomial.legendre.leggauss(nodes or inp.n // 2 + 2)
    y, w = (y + 1.0) / 2.0, w / 2.0
    # prob[i, node, k]: k of the elements before i failed and none succeeded
    prob = np.zeros((inp.n, y.size, ell))
    prob[:, :, 0] = 1.0
    for j in range(inp.n):
        f, s = y * fail[j], y * succ[j]
        nxt = prob * (1.0 - f - s)[None, :, None]
        nxt[:, :, 1:] += prob[:, :, :-1] * f[None, :, None]
        nxt[j] = prob[j]
        prob = nxt
    return b * (prob.sum(axis=2) @ w)


def test_exact_selectability_oracle():
    # the closed form of test_selectability_two_element_closed_form
    for ell, p, x, s in ((1, [0.0, 0.0], [0.5, 0.3], [1.0, 1.0]), (INFINITE, [1.0, 0.5], [0.7, 0.6], [1.0, 0.5])):
        inp = ct.make_input(("*",), ell, p, x)
        b = ct.attenuation_probs(inp)
        expect = [b[i] * (1 - x[1 - i] * b[1 - i] * s[1 - i] / 2) for i in (0, 1)]
        np.testing.assert_allclose(exact_selectability(inp), expect, rtol=0, atol=1e-15)
    # the minima recorded with an independent prototype, and more nodes
    # change nothing once the integrand is integrated exactly
    for inp, minimum in (
        (ct.poisson_regime_input(2), 0.632586),
        (ct.poisson_regime_input(3), 0.632586),
        (ct.poisson_regime_input(1), 0.632718),
        (ct.poisson_regime_input(INFINITE), 0.632718),
        (ct.single_heavy_input(3, x1=31 / 39), 0.678898),
    ):
        exact = exact_selectability(inp)
        assert abs(exact.min() - minimum) <= 5e-7, (inp.patience, exact.min())
        assert exact.min() >= ct.selection_bound(inp.patience)
        np.testing.assert_allclose(exact_selectability(inp, inp.n // 2 + 6), exact, rtol=0, atol=1e-13)


def test_selectability_matches_exact_oracle():
    two_action = ct.make_input(("a0", "a1"), 2, [[1.0, 0.5], [0.2, 0.9], [0.0, 0.3]], [[0.3, 0.2], [0.1, 0.4], [0.5, 0.2]])
    inputs = [ct.poisson_regime_input(ell) for ell in (1, 2, 3, INFINITE)]
    inputs += [ct.single_heavy_input(3, x1=31 / 39), two_action]
    for k, inp in enumerate(inputs):
        exact = exact_selectability(inp)
        for r in ct.estimate_selectability(inp, 200_000, seed=50 + k):
            expect = exact[r.element]
            se = math.sqrt(expect * (1 - expect) / r.trials_conditioned)
            assert abs(r.estimate - expect) <= 5 * se, (inp.patience, r, expect)


def test_selectability_chunk_memory_ceiling():
    # 402 elements of which about three per trial are suggested: only the
    # suggestion uniforms scale with trials x elements
    inp = ct.poisson_regime_input(3, n1_elements=400)
    tracemalloc.start()
    try:
        ct.estimate_selectability(inp, 8192, seed=41)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6, peak
