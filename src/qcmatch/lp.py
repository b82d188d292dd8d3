"""Edge LP, configuration LP (explicit and column generation), edge
marginals, and the star-problem pricing step.

The configuration LP has one variable per ordered query plan at an online
vertex; its optimum upper-bounds the optimal policy and its marginals are
what the rounding policies consume. Column generation prices plans against
the duals with the exact star oracle, adding plans until none beats its
vertex's dual price.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np

from . import simplex
from .exact import (
    BudgetExceeded,
    budget_override,
    expected_sequence_reward,
    star_opt_core,
)
from .instances import Instance, is_infinite
from .simplex import IterationLimit

DEFAULT_CONFIG_BUDGET = int(1e5)
_WEIGHT_EPS = 1e-12
# margin by which a priced plan must beat its vertex's dual to enter the master
_PRICING_TOL = 1e-9


@dataclass(frozen=True)
class Config:
    """An ordered sequence of distinct incident edges with one action each."""

    v: str
    edges: tuple
    actions: tuple
    value: float = field(compare=False, default=0.0)

    def __len__(self):
        return len(self.edges)


def make_config(inst: Instance, v: str, edges, actions) -> Config:
    edges = tuple(edges)
    actions = tuple(actions)
    if len(set(edges)) != len(edges):
        raise ValueError("config edges must be distinct")
    if len(edges) != len(actions):
        raise ValueError("edges and actions must have equal length")
    val = expected_sequence_reward([(inst.q_of(e, a), inst.r_of(e, a)) for e, a in zip(edges, actions)])
    return Config(v=v, edges=edges, actions=actions, value=val)


@dataclass
class DualPrices:
    alpha: dict  # u -> price of the matching row
    gamma: dict  # u -> price of the patience row (0 when unbounded)
    beta: dict  # v -> price of the distribution row

    def clipped(self) -> "DualPrices":
        z = lambda d: {k: max(0.0, val) for k, val in d.items()}
        return DualPrices(alpha=z(self.alpha), gamma=z(self.gamma), beta=z(self.beta))


@dataclass
class LpSolution:
    weights: dict  # Config -> weight in [0, 1]
    objective: float
    marginals: dict  # (edge, action) -> induced query probability
    duals: DualPrices | None = None
    n_columns: int = 0
    iterations: int = 0  # simplex pivots, summed over every master solve


@dataclass
class EdgeLpResult:
    value: float
    z: dict  # (edge, action) -> weight
    duals: dict  # (tag, vertex) -> dual price
    iterations: int  # simplex pivots


# ---------------------------------------------------------------------------
# Edge LP (marginal variables only)
# ---------------------------------------------------------------------------


def solve_edge_lp(inst: Instance) -> EdgeLpResult:
    """max sum r q z subject to, per vertex, expected-match mass <= 1 and
    query mass <= patience, and per edge sum_a z <= 1."""
    pairs = sorted(inst.q)
    n = len(pairs)
    col = {p: j for j, p in enumerate(pairs)}
    rows, rhs, tags = [], [], []
    for s in list(inst.U) + list(inst.V):
        inc = [p for p in pairs if s in p[0]]
        row = np.zeros(n)
        for p in inc:
            row[col[p]] = inst.q[p]
        rows.append(row)
        rhs.append(1.0)
        tags.append(("match", s))
        if not is_infinite(inst.patience[s]):
            row = np.zeros(n)
            for p in inc:
                row[col[p]] = 1.0
            rows.append(row)
            rhs.append(float(inst.patience[s]))
            tags.append(("pat", s))
    for e in inst.edges():
        row = np.zeros(n)
        for a in inst.A:
            if ((e, a)) in col:
                row[col[(e, a)]] = 1.0
        rows.append(row)
        rhs.append(1.0)
        tags.append(("edge", e))
    c = np.array([inst.r_of(e, a) * inst.q[(e, a)] for e, a in pairs])
    res = simplex.solve_packing_lp(c, np.array(rows).reshape(len(rows), n), np.array(rhs))
    z = {p: float(res.x[j]) for p, j in col.items() if res.x[j] > _WEIGHT_EPS}
    duals = {t: float(max(0.0, d)) for t, d in zip(tags, res.duals)}
    return EdgeLpResult(value=res.value, z=z, duals=duals, iterations=res.iterations)


# ---------------------------------------------------------------------------
# Configuration enumeration and the explicit LP
# ---------------------------------------------------------------------------


def config_count(deg: int, ell, n_actions: int) -> float:
    """Number of ordered plans over `deg` edges: distinct edges, at most
    `ell` of them, one of `n_actions` actions per position."""
    kmax = min(ell, deg)
    total = 0.0
    perms = 1.0
    for k in range(1, kmax + 1):
        perms *= deg - k + 1
        total += perms * n_actions**k
    return total


def enumerate_configs(inst: Instance, v: str, config_budget: int | None = None) -> list:
    """All ordered plans at v: distinct incident edges, length <= patience,
    one action per position. The empty plan is not enumerated; the
    distribution row's slack stands in for it."""
    budget = budget_override(config_budget if config_budget is not None else DEFAULT_CONFIG_BUDGET)
    edges = inst.incident_to_v(v)
    ell = inst.patience[v]
    est = config_count(len(edges), ell, max(1, len(inst.A)))
    if est > budget:
        raise BudgetExceeded(f"{est:.3g} plans at {v} exceed budget {budget}", estimate=est)
    kmax = min(ell, len(edges))
    out = []
    for k in range(1, kmax + 1):
        for order in permutations(edges, k):
            for acts in product(inst.A, repeat=k):
                out.append(make_config(inst, v, order, acts))
    return out


def _survival_prefix(inst: Instance, cfg: Config):
    alive = 1.0
    for e, a in zip(cfg.edges, cfg.actions):
        yield e, a, alive
        alive *= 1.0 - inst.q_of(e, a)


def edge_marginals(weights: dict, inst: Instance) -> dict:
    """Induced per-(edge, action) query probabilities of a weighted plan mix:
    each position contributes weight times the probability all earlier
    positions failed."""
    out = {}
    for cfg, w in weights.items():
        if w <= 0.0:
            continue
        for e, a, alive in _survival_prefix(inst, cfg):
            out[(e, a)] = out.get((e, a), 0.0) + w * alive
    return out


def check_marginal_feasibility(marginals: dict, inst: Instance, tol: float = 1e-9) -> list:
    """Every edge-LP inequality at a marginal vector: per edge at most one
    action in expectation, and per vertex on either side at most patience
    queries and at most one expected match."""
    out = []
    for e in inst.edges():
        mass = sum(z for (e2, _), z in marginals.items() if e2 == e)
        if mass > 1.0 + tol:
            out.append(f"edge[{e}]: action mass {mass}")
    for s in list(inst.U) + list(inst.V):
        mass = sum(z for (e, _), z in marginals.items() if s in e)
        if mass > inst.patience[s] + tol:
            out.append(f"queries[{s}]: {mass}")
        qmass = sum(inst.q_of(e, a) * z for (e, a), z in marginals.items() if s in e)
        if qmass > 1.0 + tol:
            out.append(f"matches[{s}]: {qmass}")
    return out


def _master_rows(inst: Instance, configs: list):
    """Constraint matrix for a column set, with row tags for dual recovery."""
    tags = []
    for u in inst.U:
        tags.append(("match", u))
        if not is_infinite(inst.patience[u]):
            tags.append(("pat", u))
    for v in inst.V:
        tags.append(("dist", v))
    row_of = {t: i for i, t in enumerate(tags)}
    A = np.zeros((len(tags), len(configs)))
    rhs = np.zeros(len(tags))
    for u in inst.U:
        rhs[row_of[("match", u)]] = 1.0
        if ("pat", u) in row_of:
            rhs[row_of[("pat", u)]] = float(inst.patience[u])
    for v in inst.V:
        rhs[row_of[("dist", v)]] = 1.0
    for j, cfg in enumerate(configs):
        A[row_of[("dist", cfg.v)], j] = 1.0
        for e, a, alive in _survival_prefix(inst, cfg):
            u = e[0]
            A[row_of[("match", u)], j] += inst.q_of(e, a) * alive
            if ("pat", u) in row_of:
                A[row_of[("pat", u)], j] += alive
    return A, rhs, tags


def _duals_from(tags, y, inst: Instance) -> DualPrices:
    alpha = {u: 0.0 for u in inst.U}
    gamma = {u: 0.0 for u in inst.U}
    beta = {v: 0.0 for v in inst.V}
    for t, d in zip(tags, y):
        kind, s = t
        if kind == "match":
            alpha[s] = float(d)
        elif kind == "pat":
            gamma[s] = float(d)
        else:
            beta[s] = float(d)
    return DualPrices(alpha=alpha, gamma=gamma, beta=beta).clipped()


def _solve_master(inst: Instance, configs: list):
    A, rhs, tags = _master_rows(inst, configs)
    c = np.array([cfg.value for cfg in configs])
    res = simplex.solve_packing_lp(c, A, rhs)
    weights = {cfg: float(x) for cfg, x in zip(configs, res.x) if x > _WEIGHT_EPS}
    return weights, float(res.value), _duals_from(tags, res.duals, inst), res.iterations


def solve_lp_c_explicit(inst: Instance, config_budget: int | None = None) -> LpSolution:
    """Configuration LP over the full enumerated column set."""
    configs = []
    for v in inst.V:
        configs.extend(enumerate_configs(inst, v, config_budget))
    weights, value, duals, iterations = _solve_master(inst, configs)
    return LpSolution(
        weights=weights,
        objective=value,
        marginals=edge_marginals(weights, inst),
        duals=duals,
        n_columns=len(configs),
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Pricing and column generation
# ---------------------------------------------------------------------------


def _priced_action_table(inst: Instance, v: str, duals: DualPrices):
    """Reduced-reward star input at v: r - alpha_u - gamma_u / q, clamped at
    0, with zero-probability actions excluded (they can never contribute)."""
    edges = inst.incident_to_v(v)
    table, kept = [], []
    for e in edges:
        u = e[0]
        acts = []
        for a in inst.A:
            q = inst.q_of(e, a)
            if q <= 0.0:
                continue
            rhat = inst.r_of(e, a) - duals.alpha.get(u, 0.0) - duals.gamma.get(u, 0.0) / q
            if rhat > 0.0:
                acts.append((a, q, rhat))
        if acts:
            table.append(acts)
            kept.append(e)
    return table, kept


def price_best_config(inst: Instance, v: str, duals: DualPrices):
    """Best reduced-value plan at v against dual prices, by the exact star
    search.

    Returns (config or None, reduced value). With every reduced reward
    clamped to zero the empty plan wins and the reduced value is 0, which is
    the column-generation termination signal.
    """
    table, kept = _priced_action_table(inst, v, duals)
    if not table:
        return None, 0.0
    value, order, actions = star_opt_core(table, inst.patience[v])
    if value <= 0.0 or not order:
        return None, 0.0
    cfg = make_config(inst, v, [kept[i] for i in order], actions)
    return cfg, float(value)


def reduced_value(inst: Instance, cfg: Config, duals: DualPrices) -> float:
    """True plan value minus its dual charge (no clamping)."""
    charge = 0.0
    for e, a, alive in _survival_prefix(inst, cfg):
        u = e[0]
        charge += (inst.q_of(e, a) * duals.alpha.get(u, 0.0) + duals.gamma.get(u, 0.0)) * alive
    return cfg.value - charge


def solve_lp_c_colgen(
    inst: Instance,
    eps: float = 0.01,
    iteration_limit: int = 10000,
) -> LpSolution:
    """Column generation for the configuration LP.

    Starts from the empty master, whose duals are zero, and alternates
    exact pricing with master solves until no plan's reduced value beats
    its vertex's dual price by more than the tolerance, so the returned
    weights are optimal up to tolerances. `eps` in (0, 1) is the tolerance
    callers check the result against: the value is within factor
    (1 - eps) of the explicit LP, and the termination duals are feasible
    for the eps-relaxed dual system (pricing values bound every plan's
    reduced value from above).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    seen = set()
    configs = []
    weights, value, duals, iterations = _solve_master(inst, configs)
    while True:
        improved = False
        for v in inst.V:
            cfg, val = price_best_config(inst, v, duals)
            if cfg is None:
                continue
            if val > duals.beta.get(v, 0.0) + _PRICING_TOL:
                key = (cfg.v, cfg.edges, cfg.actions)
                if key in seen:
                    continue
                if len(configs) >= iteration_limit:
                    raise IterationLimit(f"column limit {iteration_limit} reached")
                seen.add(key)
                configs.append(cfg)
                improved = True
        if not improved:
            break
        weights, value, duals, pivots = _solve_master(inst, configs)
        iterations += pivots

    return LpSolution(
        weights=weights,
        objective=value,
        marginals=edge_marginals(weights, inst),
        duals=duals,
        n_columns=len(configs),
        iterations=iterations,
    )


def validate_solution(sol: LpSolution, inst: Instance, tol: float = 1e-9) -> list:
    """Structural checks: per-vertex weight mass and marginal consistency."""
    out = []
    mass = {}
    for cfg, w in sol.weights.items():
        if w < -tol or w > 1.0 + tol:
            out.append(f"weight[{cfg.v}]: {w} out of range")
        mass[cfg.v] = mass.get(cfg.v, 0.0) + w
        recomputed = expected_sequence_reward(
            [(inst.q_of(e, a), inst.r_of(e, a)) for e, a in zip(cfg.edges, cfg.actions)]
        )
        if abs(recomputed - cfg.value) > 1e-12:
            out.append(f"config value stale at {cfg.v}")
    for v, m in mass.items():
        if m > 1.0 + tol:
            out.append(f"distribution[{v}]: {m}")
    fresh = edge_marginals(sol.weights, inst)
    keys = set(fresh) | set(sol.marginals)
    for k in keys:
        if abs(fresh.get(k, 0.0) - sol.marginals.get(k, 0.0)) > tol:
            out.append(f"marginal[{k}] inconsistent")
    return out
