"""Special functions and machine verification of the worst-case bounds.

Everything here is deterministic closed-form or quadrature work: the
guarantee constant and attenuation denominators, Poisson tail sums, the
truncated-availability closed form for mid-range patience, the Bennett-tail
bound for large patience, and grid sweeps that re-check each numeric claim
the analysis rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Selection guarantee for finite patience >= 2, and the classic single-item
# constant used when patience is 1 or unbounded.
BETA = (19.0 - 67.0 * math.exp(-3.0)) / 27.0
ONE_MINUS_INV_E = 1.0 - math.exp(-1.0)


def poisson_cdf_below(k: int, mu):
    """P[Poisson(mu) < k] = sum_{i<k} e^-mu mu^i / i!.

    Accepts scalar or ndarray mu; evaluated by log-domain term recursion so
    large means stay stable. k <= 0 gives 0.
    """
    mu_arr = np.asarray(mu, dtype=float)
    if np.any(mu_arr < 0):
        raise ValueError("mu must be nonnegative")
    if k <= 0:
        out = np.zeros_like(mu_arr)
        return float(out) if np.isscalar(mu) or mu_arr.ndim == 0 else out
    with np.errstate(divide="ignore"):
        logmu = np.where(mu_arr > 0, np.log(np.where(mu_arr > 0, mu_arr, 1.0)), -np.inf)
    log_term = -mu_arr  # i = 0
    total = np.exp(log_term)
    for i in range(1, k):
        log_term = log_term + logmu - math.log(i)
        total = total + np.exp(log_term)
    total = np.minimum(total, 1.0)
    if np.isscalar(mu) or mu_arr.ndim == 0:
        return float(total)
    return total


def attenuation_denominator(s):
    """int_0^1 e^{-y(1-s)} P[Poisson(2y) < 3] dy in closed form.

    With c = 3 - s the integrand is e^{-cy}(1 + 2y + 2y^2); integrating each
    monomial analytically gives the expression below. Equals BETA at s = 0,
    so the attenuation function is exactly 1 there.
    """
    c = np.asarray(s, dtype=float) * -1.0 + 3.0
    e = np.exp(-c)
    d = (
        (1.0 - e) / c
        + 2.0 * (1.0 - (1.0 + c) * e) / c**2
        + 2.0 * (2.0 - (c**2 + 2.0 * c + 2.0) * e) / c**3
    )
    if np.isscalar(s) or np.asarray(s).ndim == 0:
        return float(d)
    return d


def attenuation_finite(s):
    """Dampening probability for finite patience >= 2.

    b(s) = BETA / int_0^1 e^{-y(1-s)} P[Poisson(2y) < 3] dy. The denominator
    equals BETA at s = 0, so b(0) = 1; it grows with s, so b is decreasing.
    The same function serves every finite patience level: it is calibrated
    against the patience-3 worst case, which dominates the others.
    """
    arr = np.asarray(s, dtype=float)
    if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
        raise ValueError("attenuation argument must lie in [0, 1]")
    return BETA / attenuation_denominator(np.clip(arr, 0.0, 1.0) if arr.ndim else min(max(float(arr), 0.0), 1.0))


def _gl_nodes(a: float, b: float, panels: int, order: int = 16):
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        h = 0.5 * (hi - lo)
        nodes.append(h * x + 0.5 * (hi + lo))
        weights.append(h * w)
    return np.concatenate(nodes), np.concatenate(weights)


# ---------------------------------------------------------------------------
# Mid-range patience (2 <= ell <= 119)
# ---------------------------------------------------------------------------


# Below this n1_mass the closed form of midrange_availability loses digits
# to its 0/0 limit, so the integral is evaluated by quadrature instead.
_QUAD_THRESHOLD = 1e-6


def midrange_availability(ell: int, x1, n1_mass):
    """int_0^{yc} e^{-y(ell-x1)} sum_{k<ell} (B y)^k / k! dy.

    Here B = ell - x1 - n1_mass and yc = (ell-1)/B. Writing c = n1_mass and
    Q(s, z) = P[Poisson(z) < s], integration by parts gives

        [1 - e^{-c(ell-1)/B} Q(ell, ell-1)
           - (B/A)^ell (1 - Q(ell, (ell-1) + c(ell-1)/B))] / c,

    with A = ell - x1. The form is pinned by the exact identity at
    (x1, n1_mass) = (0, 1), ell = 3, where the value is the guarantee
    constant BETA, and by quadrature cross-checks at random arguments.
    As n1_mass -> 0 the expression is 0/0, so masses below _QUAD_THRESHOLD
    take the equivalent form int_0^{yc} e^{-cy} Q(ell, By) dy instead, all
    at once on 4 x 16 Gauss-Legendre nodes scaled to [0, yc].
    """
    if ell < 2 or ell != int(ell):
        raise ValueError("ell must be an integer >= 2")
    ell = int(ell)
    x1_a = np.asarray(x1, dtype=float)
    c_a = np.asarray(n1_mass, dtype=float)
    scalar = x1_a.ndim == 0 and c_a.ndim == 0
    x1_a, c_a = np.broadcast_arrays(np.atleast_1d(x1_a), np.atleast_1d(c_a))
    if np.any(x1_a < 0) or np.any(c_a < 0) or np.any(x1_a + c_a > 1 + 1e-12):
        raise ValueError("need x1, n1_mass >= 0 with x1 + n1_mass <= 1")

    A = ell - x1_a
    B = ell - x1_a - c_a
    out = np.empty_like(x1_a)

    big = c_a >= _QUAD_THRESHOLD
    if np.any(big):
        cb, Ab, Bb = c_a[big], A[big], B[big]
        yc = (ell - 1.0) / Bb
        q1 = poisson_cdf_below(ell, ell - 1.0)
        q2 = poisson_cdf_below(ell, (ell - 1.0) + cb * yc)
        out[big] = (1.0 - np.exp(-cb * yc) * q1 - (Bb / Ab) ** ell * (1.0 - q2)) / cb

    small = ~big
    if np.any(small):
        cs, Bs = c_a[small], B[small]
        yc = (ell - 1.0) / Bs
        t, w = _gl_nodes(0.0, 1.0, panels=4, order=16)
        y = yc[:, None] * t[None, :]
        out[small] = yc * ((np.exp(-cs[:, None] * y) * poisson_cdf_below(ell, Bs[:, None] * y)) @ w)

    return float(out[0]) if scalar else out.reshape(np.broadcast(np.asarray(x1), np.asarray(n1_mass)).shape)


def selection_bound_midrange(ell: int, x1):
    """Lower bound on the conditional query probability for 2 <= ell <= 119.

    b(x1) * int_0^1 P[Poisson(y(ell-1)) < ell] e^{-y(1-x1)} dy, i.e. the
    availability integral at the extremal split n1_mass = 1 - x1. Minimized
    over its domain at (ell, x1) = (3, 0) where it equals BETA exactly.
    """
    if not (2 <= ell <= 119):
        raise ValueError("ell must be in [2, 119]")
    return attenuation_finite(x1) * midrange_availability(
        ell, x1, 1.0 - np.asarray(x1, dtype=float)
    )


# ---------------------------------------------------------------------------
# Large patience (ell >= 120): Bennett-tail bound
# ---------------------------------------------------------------------------


def _bennett_survival(y):
    """1 - e^{-120(y + log(1/y) - 1)}, continuously extended to 1 at y = 0."""
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore"):
        expo = np.where(y > 0, 120.0 * (np.log(np.where(y > 0, y, 1.0)) + 1.0 - y), -np.inf)
    return 1.0 - np.exp(expo)


def _bennett_bound(x1):
    """selection_bound_bennett on an array of x1 in [0, 1].

    The survival factor equals 1 - y^120 e^{120(1-y)}, an entire function
    of y, so 8 x 16 Gauss-Legendre nodes on [0, 1] integrate it to
    rounding error.
    """
    y, w = _gl_nodes(0.0, 1.0, panels=8, order=16)
    x1 = np.asarray(x1, dtype=float)
    return attenuation_finite(x1) * ((_bennett_survival(y) * np.exp(-np.multiply.outer(1.0 - x1, y))) @ w)


def selection_bound_bennett(x1: float) -> float:
    """b(x1) * int_0^1 (1 - e^{-120(y + log(1/y) - 1)}) e^{-y(1-x1)} dy.

    The integrand tends to 1 as y -> 0+ (the log term diverges inside the
    exponential), so the integral is proper; it is evaluated on the same
    Gauss-Legendre nodes as the Bennett sweeps (`_bennett_bound`).
    """
    if not 0.0 <= x1 <= 1.0:
        raise ValueError("x1 must lie in [0, 1]")
    return float(_bennett_bound(x1))


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    suite: str
    points_checked: int
    min_margin: float
    witness: tuple
    passed: bool
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "points_checked": self.points_checked,
            "min_margin": self.min_margin,
            "witness": list(self.witness),
            "pass": self.passed,
            **self.extras,
        }


_MARGIN_TOL = 1e-9


def verify_attenuation_properties(n_grid: int = 1000) -> VerifyReport:
    """Check the three analytic properties the splitting argument needs.

    (1) b(0) = 1 and b nonincreasing on [0, 1];
    (2) int_0^1 (1 - yz b(z)) dy >= int_0^1 (1 - yz b(z/2)/2)^2 dy, whose
        difference has the closed form (z b(z/2) - z b(z))/2 - z^2 b(z/2)^2/12;
    (3) the quadratic integrand difference f(y) has roots 0 and
        4(b(z/2) - b(z)) / (z b(z/2)^2) and a single sign change.
    """
    z = np.linspace(0.0, 1.0, n_grid + 1)
    bz = attenuation_finite(z)
    bhalf = attenuation_finite(z / 2.0)

    margins = []
    margins.append((-abs(float(bz[0]) - 1.0), ("b(0)", 0.0)))
    mono = bz[:-1] - bz[1:]
    i = int(np.argmin(mono))
    margins.append((float(mono[i]), ("monotone", float(z[i + 1]))))

    closed = (z * bhalf - z * bz) / 2.0 - z**2 * bhalf**2 / 12.0
    j = int(np.argmin(closed))
    margins.append((float(closed[j]), ("integral", float(z[j]))))

    # Sign pattern of f(y) = yz(b(z/2) - b(z)) - y^2 z^2 b(z/2)^2 / 4 on a
    # y-grid: nonnegative up to the positive root, nonpositive after.
    y = np.linspace(0.0, 1.0, 201)
    pos = z > 0
    root = np.full_like(z, np.inf)
    root[pos] = 4.0 * (bhalf[pos] - bz[pos]) / (z[pos] * bhalf[pos] ** 2)
    k = int(np.argmin(root))
    margins.append((float(np.min(root)), ("root-nonneg", float(z[k]))))
    f = (
        y[None, :] * z[:, None] * (bhalf - bz)[:, None]
        - y[None, :] ** 2 * z[:, None] ** 2 * (bhalf**2)[:, None] / 4.0
    )
    before = y[None, :] <= root[:, None]
    sign_margin = float(np.min(np.where(before, f, -f)))
    flat = int(np.argmin(np.where(before, f, -f)))
    zi, yi = divmod(flat, y.size)
    margins.append((sign_margin, ("sign-change", float(z[zi]), float(y[yi]))))

    worst = min(margins, key=lambda t: t[0])
    return VerifyReport(
        suite="b",
        points_checked=int(z.size * (4 + y.size)),
        min_margin=worst[0],
        witness=worst[1],
        passed=worst[0] >= -_MARGIN_TOL,
    )


def _exchange_values(u, s, t):
    """Both patience-2 exchange integrals at points (x1, s, t), each by its case.

    u = x1, s = mass of the p=1 block, t = mass of the modified p=0 element.
    With m = 2 - s - u - t, d1 = 1 - s - u, d0 = t - d1 and r = 1 - s - u - t,
    the integrands over y in [0, 1] are

        case 1 (t > d1): (e^{-ys} - e^{-y(1-u)}) (1 - ym)
                         - (e^{-y d1} (1 - y d0) - (1 - yt)) ym e^{-y(1-u-t)},
        case 2 (else):   e^{-ys} (1 - e^{-yt}) (1 - y) (1 - yr)
                         - (e^{-yt} - (1 - yt)) ym e^{-y(1-u-t)}.

    Each is a sum of terms c(u, s, t) y^k e^{-a y} with k <= 2, so its
    integral is a short sum of moments M_k(a) = sum_i w_i y_i^k e^{-a y_i}
    on the 4 x 16 Gauss-Legendre nodes of [0, 1], evaluated once per
    distinct exponent a. Returns the integrals and the case-1 mask.
    """
    y, w = _gl_nodes(0.0, 1.0, panels=4, order=16)
    wy = np.stack([w, w * y, w * y * y], axis=1)

    def moments(a):
        a, inv = np.unique(a, return_inverse=True)
        return (np.exp(-np.outer(a, y)) @ wy)[inv].T

    use1 = t > (1.0 - s - u)
    vals = np.empty(u.shape)

    u1, s1, t1 = u[use1], s[use1], t[use1]
    m, d0 = 2.0 - s1 - u1 - t1, t1 - (1.0 - s1 - u1)
    ms, mu, mb, mt = moments(s1), moments(1.0 - u1), moments(2.0 - s1 - 2.0 * u1 - t1), moments(1.0 - u1 - t1)
    vals[use1] = (
        ms[0] - m * ms[1] - mu[0] + m * mu[1]
        - m * mb[1] + m * d0 * mb[2] + m * mt[1] - m * t1 * mt[2]
    )

    u2, s2, t2 = u[~use1], s[~use1], t[~use1]
    m, r = 2.0 - s2 - u2 - t2, 1.0 - s2 - u2 - t2
    ms, mst, mu, mt = moments(s2), moments(s2 + t2), moments(1.0 - u2), moments(1.0 - u2 - t2)
    vals[~use1] = (
        ms[0] - (1.0 + r) * ms[1] + r * ms[2] - mst[0] + (1.0 + r) * mst[1] - r * mst[2]
        - m * mu[1] + m * mt[1] - m * t2 * mt[2]
    )
    return vals, use1


def verify_patience2_exchange(n_grid: int = 50) -> VerifyReport:
    """Integrate both exchange-argument expressions over y in [0, 1].

    Sweeps (x1, s, t) over the feasible box (x1 + s <= 1) and asserts every
    integral is >= -1e-9, which is what lets the patience-2 analysis assume
    the p=1 block carries all remaining suggestion mass. Each point's
    integral is evaluated only for the case that applies there, as a sum of
    Gauss-Legendre moments (see _exchange_values).
    """
    g = np.linspace(0.0, 1.0, n_grid)
    u, s, t = np.meshgrid(g, g, g, indexing="ij")
    mask = (u + s) <= 1.0 + 1e-12
    u, s, t = u[mask], s[mask], t[mask]
    vals, use1 = _exchange_values(u, s, t)

    i = int(np.argmin(vals))
    return VerifyReport(
        suite="exchange",
        points_checked=int(vals.size),
        min_margin=float(vals[i]),
        witness=(float(u[i]), float(s[i]), float(t[i]), "case1" if use1[i] else "case2"),
        passed=float(vals[i]) >= -_MARGIN_TOL,
    )


def verify_midrange_monotonicity(ells=(3, 4, 5, 10, 50, 119), n_grid: int = 40) -> VerifyReport:
    """Check F(ell, x1, m) >= F(ell, x1, 1 - x1) over the feasible grid.

    This is the claim that lets the mid-range analysis pin the p=1 block's
    mass at 1 - x1; the conclusion is checked directly, not the derivative.
    """
    g = np.linspace(0.0, 1.0, n_grid)
    x1, m = np.meshgrid(g, g, indexing="ij")
    mask = (x1 + m) <= 1.0 + 1e-12
    x1, m = x1[mask], m[mask]

    worst = (np.inf, ())
    for ell in ells:
        vals = midrange_availability(ell, x1, m)
        ref = midrange_availability(ell, x1, 1.0 - x1)
        margin = vals - ref
        i = int(np.argmin(margin))
        if margin[i] < worst[0]:
            worst = (float(margin[i]), (int(ell), float(x1[i]), float(m[i])))
    return VerifyReport(
        suite="fl",
        points_checked=int(x1.size * len(ells)),
        min_margin=worst[0],
        witness=worst[1],
        passed=worst[0] >= -_MARGIN_TOL,
    )


def verify_final_bounds(
    ells=(2, 3, 4, 5, 10, 20, 50, 100, 119), n_grid: int = 1000
) -> VerifyReport:
    """Re-check the endgame: the mid-range bound never dips below BETA, is
    exactly BETA at (ell, x1) = (3, 0), and the Bennett bound dominates BETA
    with its minimum at x1 = 1.

    extras carry the computed Bennett value at x1 = 1 (0.5802045...), since
    the acceptance layer pins an anchor against it.
    """
    x1 = np.linspace(0.0, 1.0, n_grid)
    worst = (np.inf, ())
    for ell in ells:
        margin = selection_bound_midrange(ell, x1) - BETA
        i = int(np.argmin(margin))
        if margin[i] < worst[0]:
            worst = (float(margin[i]), ("mid", int(ell), float(x1[i])))

    eq = abs(selection_bound_midrange(3, 0.0) - BETA)
    if -eq < worst[0]:
        worst = (-eq, ("mid-equality", 3, 0.0))

    ben = verify_bennett()
    if ben.min_margin < worst[0]:
        worst = (ben.min_margin, ("bennett", *ben.witness))

    bennett_at_1 = ben.extras["bennett_at_1"]
    min_at_edge = ben.min_margin + BETA >= bennett_at_1 - 1e-9

    return VerifyReport(
        suite="final",
        points_checked=int(n_grid * len(ells) + ben.points_checked + 1),
        min_margin=worst[0],
        witness=worst[1],
        passed=worst[0] >= -_MARGIN_TOL and min_at_edge,
        extras={"bennett_at_1": bennett_at_1, "bennett_min_at_x1_1": min_at_edge},
    )


def verify_bennett(n_grid: int = 201) -> VerifyReport:
    """Bennett sweep over x1 in [0, 1]; the final suite reuses its report."""
    x1 = np.linspace(0.0, 1.0, n_grid)
    margin = _bennett_bound(x1) - BETA
    i = int(np.argmin(margin))
    return VerifyReport(
        suite="bennett",
        points_checked=n_grid,
        min_margin=float(margin[i]),
        witness=(float(x1[i]),),
        passed=float(margin[i]) >= -_MARGIN_TOL,
        extras={"bennett_at_1": selection_bound_bennett(1.0)},
    )


_SUITES = {
    "b": verify_attenuation_properties,
    "exchange": verify_patience2_exchange,
    "fl": verify_midrange_monotonicity,
    "final": verify_final_bounds,
    "bennett": verify_bennett,
}


def run_verification(suite: str = "all") -> list[VerifyReport]:
    if suite == "all":
        return [fn() for fn in _SUITES.values()]
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(_SUITES)} or 'all'")
    return [_SUITES[suite]()]
