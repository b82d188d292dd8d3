import math
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from qcmatch import numerics as nm


def _poisson_below_mp(k, z):
    # P[Poisson(z) < k] = Gamma(k, z) / Gamma(k), the regularized upper gamma
    return mp.gammainc(k, z, mp.inf, regularized=True)


def _availability_mp(ell, x1, m):
    # the defining integral of nm.midrange_availability, by mpmath quadrature
    b = ell - x1 - m
    return mp.quad(lambda y: mp.exp(-m * y) * _poisson_below_mp(ell, b * y), [0, (ell - 1) / b])


def test_guarantee_constants():
    assert abs(nm.BETA - (19 - 67 * math.exp(-3)) / 27) == 0.0
    assert abs(nm.ONE_MINUS_INV_E - (1 - 1 / math.e)) == 0.0
    # three independent routes to the same constant
    beta = mp.quad(lambda y: mp.exp(-y) * _poisson_below_mp(3, 2 * y), [0, 1])
    assert abs(float(beta) - nm.BETA) <= 1e-9
    assert abs(nm.selection_bound_midrange(3, 0.0) - nm.BETA) <= 1e-9


def test_poisson_cdf_below_known_values():
    assert nm.poisson_cdf_below(3, 0.0) == 1.0
    assert abs(nm.poisson_cdf_below(3, 2.0) - 5 * math.exp(-2)) <= 1e-14
    assert nm.poisson_cdf_below(0, 5.0) == 0.0
    # nonincreasing in the mean
    mus = np.linspace(0.0, 30.0, 400)
    vals = nm.poisson_cdf_below(4, mus)
    assert np.all(np.diff(vals) <= 1e-13)


def test_poisson_cdf_large_mean_stable():
    # brute high-precision reference at mu = 119
    from fractions import Fraction

    mu = 119
    acc = Fraction(0)
    term = Fraction(1)
    for i in range(1, 120):
        term = term * mu / i
        acc += term
    ref = float((1 + acc) * Fraction(math.exp(-mu)))
    assert abs(nm.poisson_cdf_below(120, float(mu)) - ref) <= 1e-12


def _upper_gamma(s, z):
    # Gamma(s, z) = (s-1)! P[Poisson(z) < s] for integer s >= 1
    return math.factorial(s - 1) * nm.poisson_cdf_below(s, z)


def test_poisson_cdf_below_upper_gamma_values():
    assert abs(_upper_gamma(3, 0.0) - 2.0) <= 1e-13
    for z in (0.1, 1.0, 2.5, 7.0):
        assert abs(_upper_gamma(1, z) - math.exp(-z)) <= 1e-13 * math.exp(-z) + 1e-15
    assert abs(_upper_gamma(3, 2.0) - 10 * math.exp(-2)) <= 1e-13


def test_poisson_cdf_below_upper_gamma_vs_quadrature():
    # Gamma(s, z) = int_z^inf t^{s-1} e^-t dt, by mpmath
    rng = np.random.default_rng(7)
    for _ in range(100):
        s = int(rng.integers(1, 8))
        z = float(rng.uniform(0.0, 12.0))
        ref = float(mp.gammainc(s, z))
        assert abs(_upper_gamma(s, z) - ref) <= 1e-8 * max(1.0, abs(ref)) + 1e-10


def test_attenuation_denominator_matches_quadrature():
    rng = np.random.default_rng(11)
    for s in rng.uniform(0.0, 1.0, 100):
        quad = mp.quad(lambda y: mp.exp(-y * (1 - s)) * _poisson_below_mp(3, 2 * y), [0, 1])
        assert abs(nm.attenuation_denominator(float(s)) - float(quad)) <= 1e-8


def test_midrange_availability_anchor_and_quadrature():
    # exact identity at the calibration point
    assert abs(nm.midrange_availability(3, 0.0, 1.0) - nm.BETA) <= 1e-12
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 100:
        ell = int(rng.choice([3, 4, 5, 10, 50, 119]))
        x1 = float(rng.uniform(0, 1))
        m = float(rng.uniform(1e-3, 1 - x1)) if x1 < 1 - 1e-3 else 1e-3
        if x1 + m > 1:
            continue
        closed = nm.midrange_availability(ell, x1, m)
        quad = float(_availability_mp(ell, x1, m))
        assert abs(closed - quad) <= 1e-8, (ell, x1, m)
        checked += 1
    # below the closed form's threshold the integral is taken by quadrature,
    # one vectorised evaluation for every small mass of a call
    x1s = np.array([0.0, 31 / 39, 0.4, 1.0 - 5e-7])
    ms = np.array([0.0, 0.0, 5e-7, 5e-7])
    for ell in (3, 4, 5, 10, 50, 119):
        vals = nm.midrange_availability(ell, x1s, ms)
        for x1, m, v in zip(x1s, ms, vals):
            quad = float(_availability_mp(ell, float(x1), float(m)))
            assert abs(v - quad) <= 1e-10, (ell, x1, m)


def test_midrange_availability_small_mass_limit_continuous():
    for ell in (3, 10):
        a = nm.midrange_availability(ell, 0.4, 5e-7)
        b = nm.midrange_availability(ell, 0.4, 2e-6)
        assert abs(a - b) <= 1e-5


def test_selection_bound_midrange_examples():
    assert abs(nm.selection_bound_midrange(3, 0.0) - nm.BETA) <= 1e-12
    # at patience 3 the bound is identically BETA: the attenuation kernel is
    # calibrated on this very integral, so only rounding separates them
    assert abs(nm.selection_bound_midrange(3, 0.5) - nm.BETA) <= 1e-12
    assert nm.selection_bound_midrange(119, 0.0) >= nm.BETA - 1e-12
    with pytest.raises(ValueError):
        nm.selection_bound_midrange(1, 0.0)
    with pytest.raises(ValueError):
        nm.selection_bound_midrange(120, 0.0)


def test_bennett_integrand_endpoints():
    assert abs(float(nm._bennett_survival(1.0)) - 0.0) <= 1e-12
    assert abs(float(nm._bennett_survival(1e-12)) - 1.0) <= 1e-12


def test_bennett_bound_values():
    v1 = nm.selection_bound_bennett(1.0)
    # computed value; strictly above the finite-patience constant
    assert abs(v1 - 0.5802045004) <= 1e-8
    assert v1 > nm.BETA
    assert nm.selection_bound_bennett(0.0) > v1


def test_verify_attenuation_properties_passes():
    rep = nm.verify_attenuation_properties(1000)
    assert rep.passed, rep.as_dict()
    # z = 1 margin for the integral property is strictly positive
    z = 1.0
    b1 = nm.BETA / nm.attenuation_denominator(1.0)
    bh = nm.BETA / nm.attenuation_denominator(0.5)
    assert (z * bh - z * b1) / 2 - z**2 * bh**2 / 12 > 0


def _exchange_integrands(u, s, t, y):
    """Independent oracle: both patience-2 exchange integrands on broadcast
    grids, as written in the analysis (case 1 when t > 1 - s - u)."""
    m = 2.0 - s - u - t
    d1 = 1.0 - s - u
    d0 = t - d1
    case1 = (np.exp(-y * s) - np.exp(-y * (1.0 - u))) * (1.0 - y * m) - (
        np.exp(-y * d1) * (1.0 - y * d0) - (1.0 - y * t)
    ) * y * m * np.exp(-y * (1.0 - u - t))
    case2 = np.exp(-y * s) * (1.0 - np.exp(-y * t)) * (1.0 - y) * (
        1.0 - y * (1.0 - s - u - t)
    ) - (np.exp(-y * t) - (1.0 - y * t)) * y * m * np.exp(-y * (1.0 - u - t))
    return case1, case2


def _exchange_grid(n_grid):
    g = np.linspace(0.0, 1.0, n_grid)
    u, s, t = np.meshgrid(g, g, g, indexing="ij")
    mask = (u + s) <= 1.0 + 1e-12
    return u[mask], s[mask], t[mask]


def test_verify_patience2_exchange_passes():
    rep = nm.verify_patience2_exchange(50)
    assert rep.passed, rep.as_dict()
    # degenerate points: t = 0 makes the case-2 integrand vanish identically
    u, s, t = _exchange_grid(50)
    vals, use1 = nm._exchange_values(u, s, t)
    zero = t == 0.0
    assert zero.sum() == 1275 and not use1[zero].any()
    assert np.max(np.abs(vals[zero])) <= 1e-15
    c1, c2 = _exchange_integrands(np.array(0.3), np.array(0.4), np.array(0.0), np.linspace(0, 1, 11))
    assert np.allclose(c2, 0.0, atol=1e-15)


@pytest.mark.parametrize("n_grid", [10, 20, 33, 50])
def test_exchange_moments_match_integrand_oracle(n_grid):
    # the suite's moment sums against the integrands summed on the same nodes
    u, s, t = _exchange_grid(n_grid)
    y, w = nm._gl_nodes(0.0, 1.0, panels=4, order=16)
    c1, c2 = _exchange_integrands(u[:, None], s[:, None], t[:, None], y[None, :])
    use1_ref = t > (1.0 - s - u)
    ref = np.where(use1_ref, c1 @ w, c2 @ w)
    vals, use1 = nm._exchange_values(u, s, t)
    assert np.array_equal(use1, use1_ref)
    assert np.max(np.abs(vals - ref)) <= 1e-14
    rep = nm.verify_patience2_exchange(n_grid)
    assert rep.points_checked == ref.size
    assert rep.passed == (ref.min() >= -1e-9)
    assert abs(rep.min_margin - ref.min()) <= 1e-14


def test_exchange_suite_bounded_memory():
    # moments per distinct exponent, not a (points x nodes) array per case
    tracemalloc.start()
    start = time.perf_counter()
    try:
        rep = nm.verify_patience2_exchange(50)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.points_checked == 63750
    assert elapsed < 2.0, elapsed
    assert peak < 32e6, peak


def test_verify_final_bounds_passes():
    rep = nm.verify_final_bounds()
    assert rep.passed, rep.as_dict()
    assert rep.min_margin >= -1e-9
    assert rep.extras["bennett_min_at_x1_1"]


def test_midrange_monotonicity_finding():
    # The nonincreasing-in-mass claim holds for patience >= 4 on the sweep
    # grid but is false for patience 3 near the zero-mass edge; the suite
    # reports the counterexample rather than papering over it.
    rep4 = nm.verify_midrange_monotonicity(ells=(4, 5, 10, 50, 119), n_grid=40)
    assert rep4.passed, rep4.as_dict()
    rep3 = nm.verify_midrange_monotonicity(ells=(3,), n_grid=40)
    assert not rep3.passed
    assert rep3.min_margin < -1e-3
    assert rep3.witness[0] == 3
    # counterexample point, independently via the defining integral
    x1 = 0.8
    lhs = _availability_mp(3, x1, 1e-9)
    rhs = _availability_mp(3, x1, 1 - x1)
    assert lhs < rhs - 1e-3


def test_run_verification_dispatch():
    reps = nm.run_verification("bennett")
    assert len(reps) == 1 and reps[0].suite == "bennett"
    with pytest.raises(ValueError):
        nm.run_verification("nope")


def test_mpmath_references():
    # Independent 25-digit references for the acceptance anchors: beta, the
    # Bennett bound at x1 = 1, and the patience-3 mass-monotonicity margin at
    # the suite's witness on the zero-mass edge.
    with mp.workdps(25):
        beta = (19 - 67 * mp.exp(-3)) / 27
        assert abs(nm.BETA - float(beta)) <= 1e-15

        denom_at_1 = mp.quad(lambda y: mp.exp(-2 * y) * (1 + 2 * y + 2 * y**2), [0, 1])
        survival = mp.quad(lambda y: 1 - mp.exp(-120 * (y - mp.log(y) - 1)), [0, 1e-3, 0.1, 1])
        assert abs(nm.selection_bound_bennett(1.0) - float(beta / denom_at_1 * survival)) <= 1e-10

        rep = nm.verify_midrange_monotonicity(ells=(3,))
        ell, x1, m = rep.witness
        x1 = mp.mpf(x1)
        margin = _availability_mp(ell, x1, mp.mpf(m)) - _availability_mp(ell, x1, 1 - x1)
        assert abs(rep.min_margin - float(margin)) <= 1e-10
