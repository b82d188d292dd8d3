"""Reference computations the benchmark checks the package against.

Nothing here calls into qcmatch: the LPs are built from an instance's raw
fields and solved with scipy's HiGHS, plan values are summed forward from
q and r, the numeric anchors come from mpmath or from a Gauss-Legendre
rule, and the Monte Carlo tolerances are plain normal and Wilson bounds.
"""

from __future__ import annotations

import math
from itertools import permutations, product

import numpy as np

# Standard deviations a simulated figure may stray before a check fails.
# A workload makes at most about 500 such comparisons per seed, so a correct
# program trips one by chance with probability below 5e-4 per run (one-sided
# normal tail 2.9e-7 each), while a mean moved by 5 sigma always fails the
# two-sided check of the relaxed policy against its LP value.
Z = 5.0

# Relative agreement required between an LP value and its HiGHS reference.
LP_RTOL = 1e-7

# Largest configuration LP the reference enumerates (columns).
MAX_REFERENCE_COLUMNS = 40_000


def _finite(patience) -> bool:
    return patience != math.inf


def _close(value: float, ref: float, rtol: float = LP_RTOL) -> bool:
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def _highs_max(c, rows, cols, vals, n_rows, rhs) -> float:
    # Imported here, after the timed rounds, so that scipy is not part of
    # the peak resident memory the benchmark reports for the program.
    from scipy.optimize import linprog
    from scipy.sparse import csc_matrix

    n = len(c)
    if n == 0:
        return 0.0
    a = csc_matrix((vals, (rows, cols)), shape=(n_rows, n))
    res = linprog(-np.asarray(c), A_ub=a, b_ub=np.asarray(rhs), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(-res.fun)


def edge_lp_value(inst) -> float:
    """max sum r q z s.t. per vertex sum q z <= 1 and sum z <= patience,
    per edge sum_a z <= 1, z >= 0."""
    pairs = sorted(inst.q)
    vertices = list(inst.U) + list(inst.V)
    row_of = {}
    rhs = []
    for s in vertices:
        row_of[("match", s)] = len(rhs)
        rhs.append(1.0)
        if _finite(inst.patience[s]):
            row_of[("pat", s)] = len(rhs)
            rhs.append(float(inst.patience[s]))
    for e in sorted({e for e, _ in pairs}):
        row_of[("edge", e)] = len(rhs)
        rhs.append(1.0)
    rows, cols, vals, c = [], [], [], []
    for j, (e, a) in enumerate(pairs):
        q = inst.q[(e, a)]
        c.append(q * inst.r.get((e, a), 0.0))
        for s in e:
            rows.append(row_of[("match", s)]); cols.append(j); vals.append(q)
            if ("pat", s) in row_of:
                rows.append(row_of[("pat", s)]); cols.append(j); vals.append(1.0)
        rows.append(row_of[("edge", e)]); cols.append(j); vals.append(1.0)
    return _highs_max(c, rows, cols, vals, len(rhs), rhs)


def plan_value(inst, edges, actions) -> float:
    """Expected reward of querying a plan in order until the first success."""
    total, alive = 0.0, 1.0
    for e, a in zip(edges, actions):
        q = inst.q.get((e, a), 0.0)
        total += alive * q * inst.r.get((e, a), 0.0)
        alive *= 1.0 - q
    return total


def config_column_count(inst) -> int:
    total = 0
    n_a = max(1, len(inst.A))
    for v in inst.V:
        deg = sum(1 for u in inst.U if any(((u, v), a) in inst.q for a in inst.A))
        ell = inst.patience[v]
        kmax = min(int(ell), deg) if _finite(ell) else deg
        perms = 1
        for k in range(1, kmax + 1):
            perms *= deg - k + 1
            total += perms * n_a**k
    return total


def config_lp_value(inst) -> float | None:
    """Configuration LP over every ordered plan, or None when it has more
    than MAX_REFERENCE_COLUMNS columns."""
    if config_column_count(inst) > MAX_REFERENCE_COLUMNS:
        return None
    row_of = {}
    rhs = []
    for u in inst.U:
        row_of[("match", u)] = len(rhs)
        rhs.append(1.0)
        if _finite(inst.patience[u]):
            row_of[("pat", u)] = len(rhs)
            rhs.append(float(inst.patience[u]))
    for v in inst.V:
        row_of[("dist", v)] = len(rhs)
        rhs.append(1.0)
    rows, cols, vals, c = [], [], [], []
    j = 0
    for v in inst.V:
        inc = [(u, v) for u in inst.U if any(((u, v), a) in inst.q for a in inst.A)]
        ell = inst.patience[v]
        kmax = min(int(ell), len(inc)) if _finite(ell) else len(inc)
        for k in range(1, kmax + 1):
            for order in permutations(inc, k):
                for acts in product(inst.A, repeat=k):
                    rows.append(row_of[("dist", v)]); cols.append(j); vals.append(1.0)
                    total, alive = 0.0, 1.0
                    for e, a in zip(order, acts):
                        q = inst.q.get((e, a), 0.0)
                        u = e[0]
                        total += alive * q * inst.r.get((e, a), 0.0)
                        rows.append(row_of[("match", u)]); cols.append(j); vals.append(q * alive)
                        if ("pat", u) in row_of:
                            rows.append(row_of[("pat", u)]); cols.append(j); vals.append(alive)
                        alive *= 1.0 - q
                    c.append(total)
                    j += 1
    return _highs_max(c, rows, cols, vals, len(rhs), rhs)


def plan_mix_problems(inst, weights: dict, objective: float, tol: float = 1e-9) -> list:
    """Feasibility of a weighted plan mix in the configuration LP, and
    agreement of its re-evaluated value with the reported objective.

    `weights` maps objects with `v`, `edges` and `actions` to weights.
    """
    out = []
    dist, match, pat = {}, {}, {}
    value = 0.0
    for cfg, w in weights.items():
        if w < -tol:
            out.append(f"negative weight {w} at {cfg.v}")
        if len(set(cfg.edges)) != len(cfg.edges) or any(e[1] != cfg.v for e in cfg.edges):
            out.append(f"plan at {cfg.v} repeats an edge or leaves its vertex")
        if any(a not in inst.A for a in cfg.actions) or len(cfg.actions) != len(cfg.edges):
            out.append(f"plan at {cfg.v} has invalid actions")
        ell = inst.patience[cfg.v]
        if _finite(ell) and len(cfg.edges) > ell:
            out.append(f"plan at {cfg.v} longer than its patience")
        dist[cfg.v] = dist.get(cfg.v, 0.0) + w
        alive = 1.0
        for e, a in zip(cfg.edges, cfg.actions):
            q = inst.q.get((e, a), 0.0)
            match[e[0]] = match.get(e[0], 0.0) + w * q * alive
            pat[e[0]] = pat.get(e[0], 0.0) + w * alive
            alive *= 1.0 - q
        value += w * plan_value(inst, cfg.edges, cfg.actions)
    for v, m in dist.items():
        if m > 1.0 + tol:
            out.append(f"plan mass {m} at {v}")
    for u, m in match.items():
        if m > 1.0 + tol:
            out.append(f"match mass {m} at {u}")
        if _finite(inst.patience[u]) and pat[u] > inst.patience[u] + tol:
            out.append(f"query mass {pat[u]} at {u} over patience {inst.patience[u]}")
    if abs(value - objective) > tol * max(1.0, abs(objective)):
        out.append(f"weights re-evaluate to {value!r}, reported objective {objective!r}")
    return out


def star_policy_problems(inst, edges, actions, value: float, optimum: float) -> list:
    """A star policy must query distinct incident edges within patience, its
    value must equal its re-evaluation, and never exceed the optimum."""
    out = []
    v = inst.V[0]
    if len(set(edges)) != len(edges) or any(e[1] != v for e in edges) or len(actions) != len(edges):
        out.append("policy repeats an edge, leaves the star, or misaligns actions")
    ell = inst.patience[v]
    if _finite(ell) and len(edges) > ell:
        out.append(f"policy queries {len(edges)} edges with patience {ell}")
    reeval = plan_value(inst, edges, actions)
    if abs(value - reeval) > 1e-9 * max(1.0, abs(reeval)):
        out.append(f"policy value {value!r} differs from its re-evaluation {reeval!r}")
    if reeval > optimum + 1e-9:
        out.append(f"policy value {reeval!r} above the optimum {optimum!r}")
    return out


# ---------------------------------------------------------------------------
# Monte Carlo tolerances
# ---------------------------------------------------------------------------


def mean_sigma(rewards) -> tuple[float, float]:
    r = np.asarray(rewards, dtype=float)
    n = r.size
    return float(r.mean()), float(r.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def wilson_interval(hits: int, n: int, z: float = Z) -> tuple[float, float]:
    if n <= 0:
        return 0.0, 1.0
    p = hits / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return centre - half, centre + half


# ---------------------------------------------------------------------------
# Numeric anchors
# ---------------------------------------------------------------------------


def mpmath_anchors() -> dict:
    """beta = (19 - 67/e^3)/27 and the Bennett bound at x1 = 1,
    b(1) * int_0^1 (1 - e^{-120(y - ln y - 1)}) dy, at 25 digits."""
    import mpmath as mp

    with mp.workdps(25):
        beta = (19 - 67 * mp.exp(-3)) / 27
        denom_at_1 = mp.quad(lambda y: mp.exp(-2 * y) * (1 + 2 * y + 2 * y**2), [0, 1])
        survival = mp.quad(lambda y: 1 - mp.exp(-120 * (y - mp.log(y) - 1)), [0, 1e-3, 0.1, 1])
        return {"beta": float(beta), "bennett_at_1": float(beta / denom_at_1 * survival)}


def availability_gl(ell: int, x1: float, mass: float, order: int = 64) -> float:
    """int_0^{yc} e^{-mass y} P[Poisson(B y) < ell] dy with B = ell - x1 - mass
    and yc = (ell - 1)/B, by one Gauss-Legendre rule of the given order."""
    b = ell - x1 - mass
    yc = (ell - 1.0) / b
    x, w = np.polynomial.legendre.leggauss(order)
    y = 0.5 * yc * (x + 1.0)
    mu = b * y
    cdf = sum(np.exp(-mu) * mu**k / math.factorial(k) for k in range(ell))
    return float(0.5 * yc * np.sum(w * np.exp(-mass * y) * cdf))
