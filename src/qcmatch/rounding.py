"""Rounding a configuration-LP solution into a policy.

The relaxed rounding samples one plan per online vertex and queries it
straight through (one-sided matching, offline constraints ignored). The
full policy runs a contention-resolution scheme per offline vertex on the
solution's marginals: a suggested edge is really queried only when the
scheme says so, and passed suggestions consume a simulated success bit so
every later suggestion keeps its unconditional marginal. The greedy
baseline is the full policy with the attenuation forced to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import contention as ct
from .instances import Instance
from .lp import LpSolution
from .rng import chunks, stream_rng


@dataclass
class QueryEvent:
    v: str
    position: int
    edge: tuple
    action: str
    decision: str  # "query" | "pass"
    b_bit: int | None
    bit: int  # the success bit consulted (real on query, simulated on pass)
    success: bool


@dataclass
class RunOutcome:
    matching: list  # [(edge, action)] matched pairs
    reward: float
    permutation: tuple
    chosen: dict  # v -> Config | None
    events: list = field(default_factory=list)
    policy: str = "full"


class _Compiled:
    """Index-space view of (instance, solution) for the trial walker.

    Sampled plans are numbered globally, with plan 0 the empty "no plan"
    row. `cum[v]` holds v's cumulative plan weights padded with +inf, so
    the number of thresholds at or below a uniform u is the index of the
    first threshold above it; `plan_id[v, k]` maps that index to a plan
    (k = number of v's plans gives plan 0). Plan positions are padded to the
    longest plan, `plan_len` says how many are real, and `plan_q`, `plan_b`
    give each position's success and attenuation probabilities.
    """

    def __init__(self, inst: Instance, sol: LpSolution, policy: str):
        if policy not in ("full", "greedy", "relaxed"):
            raise ValueError(f"unknown policy {policy!r}")
        self.policy = policy
        self.v_list = list(inst.V)
        self.u_list = list(inst.U)
        self.u_index = {u: i for i, u in enumerate(self.u_list)}
        self.edge_list = inst.edges()
        self.e_index = {e: i for i, e in enumerate(self.edge_list)}
        self.a_list = list(inst.A)
        self.a_index = {a: i for i, a in enumerate(self.a_list)}
        n_e, n_a = len(self.edge_list), len(self.a_list)

        self.q_mat = np.zeros((n_e, n_a))
        for (e, a), q in inst.q.items():
            self.q_mat[self.e_index[e], self.a_index[a]] = q

        # offline-side scheme state: attenuation probability per (u, v),
        # read by the full policy only; patience 0 never queries
        self.rem_init = _budgets(inst, self.u_list)
        b_mat = np.ones((len(self.u_list), len(self.v_list)))
        if policy in ("full", "greedy"):
            inputs = scheme_inputs(inst, sol)  # validates the marginals
            if policy == "full":
                for u, inp in inputs.items():
                    b_mat[self.u_index[u]] = ct.attenuation_probs(inp)

        # per-v sampled-plan tables, each plan checked as `_chunk_draws` needs
        per_v = []
        for v in self.v_list:
            cfgs = [(cfg, w) for cfg, w in sol.weights.items() if cfg.v == v and w > 0]
            for cfg, _ in cfgs:
                if len(cfg) > inst.patience[v] or len(set(cfg.edges)) != len(cfg) or any(e[1] != v for e in cfg.edges):
                    raise ValueError(f"plan at {v} longer than patience, repeating an edge or leaving {v}")
            if sum(w for _, w in cfgs) > 1.0 + 1e-9:
                raise ValueError(f"plan weights at {v} exceed 1")
            per_v.append(cfgs)
        k_max = max((len(cfgs) for cfgs in per_v), default=0)
        self.cum = np.full((len(self.v_list), k_max), np.inf)
        self.plan_id = np.zeros((len(self.v_list), k_max + 1), dtype=np.int64)
        cfg_list = []
        for vi, cfgs in enumerate(per_v):
            self.cum[vi, : len(cfgs)] = np.cumsum([w for _, w in cfgs])
            self.plan_id[vi, : len(cfgs)] = np.arange(len(cfg_list) + 1, len(cfg_list) + 1 + len(cfgs))
            cfg_list.extend((vi, cfg) for cfg, _ in cfgs)
        n_p = len(cfg_list) + 1
        self.plan_len = np.array([0] + [len(cfg) for _, cfg in cfg_list], dtype=np.int64)
        self.plan_cfg = [None] + [cfg if len(cfg) else None for _, cfg in cfg_list]
        width = int(self.plan_len.max())
        self.plan_u = np.zeros((n_p, width), dtype=np.int64)
        self.plan_e = np.zeros((n_p, width), dtype=np.int64)
        self.plan_a = np.zeros((n_p, width), dtype=np.int64)
        self.plan_r = np.zeros((n_p, width))
        self.plan_b = np.zeros((n_p, width))
        for pid, (vi, cfg) in enumerate(cfg_list, start=1):
            for j, (e, a) in enumerate(zip(cfg.edges, cfg.actions)):
                ui, ei, ai = self.u_index[e[0]], self.e_index[e], self.a_index[a]
                self.plan_u[pid, j], self.plan_e[pid, j], self.plan_a[pid, j] = ui, ei, ai
                self.plan_r[pid, j] = inst.r_of(e, a)
                self.plan_b[pid, j] = b_mat[ui, vi]
        self.plan_q = self.q_mat[self.plan_e, self.plan_a]  # padding never read


def _budgets(inst: Instance, vertices) -> np.ndarray:
    """Query budgets of `vertices`, with unbounded patience as inf."""
    return np.array([inst.patience[s] for s in vertices], dtype=float)


def scheme_inputs(inst: Instance, sol: LpSolution) -> dict:
    """The per-offline-vertex contention inputs induced by the marginals.

    Their feasibility is exactly the marginal-feasibility lemma; building
    them raises ValueError when it fails. Rows follow inst.V.
    """
    out = {}
    for u in inst.U:
        ell = inst.patience[u]
        if ell == 0:
            continue
        p = [[inst.q_of((u, v), a) for a in inst.A] for v in inst.V]
        x = [[sol.marginals.get(((u, v), a), 0.0) for a in inst.A] for v in inst.V]
        out[u] = ct.make_input(tuple(inst.A), ell, p, x)
    return out


def _chunk_draws(comp: _Compiled, seed: int, chunk_idx: int, count: int):
    n_v = len(comp.v_list)
    perm_rng = stream_rng(seed, "permutation", chunk_idx)
    keys = perm_rng.uniform(size=(count, n_v))
    perms = np.argsort(keys, axis=1)
    cfg_rng = stream_rng(seed, "config-sampling", chunk_idx)
    u_cfg = cfg_rng.uniform(size=(count, n_v))
    # one success uniform per (trial, arrival rank, plan position), real on a
    # query and simulated on a pass: a trial reaches each (edge, action) and
    # (u, v) at most once, and its query decision there ignores that uniform.
    # Only full draws attenuation bits; skipping that stream keeps the others.
    shape = (count, n_v, comp.plan_u.shape[1])
    q_u = stream_rng(seed, "q-bits", chunk_idx).uniform(size=shape)
    b_u = None
    if comp.policy == "full":
        b_u = stream_rng(seed, "attenuation-bits", chunk_idx).uniform(size=shape)
    return perms, u_cfg, q_u, b_u


def _walk_chunk(comp: _Compiled, draws, sug=None, log=None) -> np.ndarray:
    """Every trial of a chunk of the selected policy, stepped in lockstep
    over arrival rank x plan position; returns the rewards.

    `sug` (flat edge x action counts) gains one per reached position. With
    a one-trial chunk, `log` (a dict) receives the chosen plan per online
    vertex under "chosen" and the QueryEvents in order under "events".
    """
    perms, u_cfg, q_u, b_u = draws
    c = perms.shape[0]
    n_u, n_a = len(comp.u_list), comp.q_mat.shape[1]
    relaxed = comp.policy == "relaxed"
    reward = np.zeros(c)
    rem = np.tile(comp.rem_init, c)  # flat over trial x offline vertex
    u_matched = np.zeros(c * n_u, dtype=bool)
    all_t = np.arange(c)
    for rank in range(perms.shape[1]):
        vi = perms[:, rank]
        pick = (comp.cum[vi] <= u_cfg[all_t, vi][:, None]).sum(axis=1)
        pid = comp.plan_id[vi, pick]
        if log is not None:
            log["chosen"][comp.v_list[vi[0]]] = comp.plan_cfg[pid[0]]
        t = all_t
        for j in range(comp.plan_u.shape[1]):
            keep = comp.plan_len[pid] > j
            t, pid = t[keep], pid[keep]
            if not t.size:
                break
            slot = t * n_u + comp.plan_u[pid, j]
            if sug is not None:
                sug += np.bincount(comp.plan_e[pid, j] * n_a + comp.plan_a[pid, j], minlength=sug.size)
            # the success bit is real on a query and simulated on a pass;
            # either way a set bit ends the plan, and only a query pays
            if relaxed:
                b = None
                query = np.ones(t.size, dtype=bool)
            else:
                b = np.ones(t.size, dtype=bool) if b_u is None else b_u[t, rank, j] < comp.plan_b[pid, j]
                query = b & ~u_matched[slot] & (rem[slot] > 0)
                rem[slot[query]] -= 1
            bit = q_u[t, rank, j] < comp.plan_q[pid, j]
            won = query & bit
            reward[t[won]] += comp.plan_r[pid[won], j]
            u_matched[slot[won]] = True
            if log is not None:
                log["events"].append(
                    QueryEvent(
                        v=comp.v_list[vi[0]], position=j, edge=comp.edge_list[comp.plan_e[pid[0], j]],
                        action=comp.a_list[comp.plan_a[pid[0], j]], decision="query" if query[0] else "pass",
                        b_bit=None if b is None else int(b[0]), bit=int(bit[0]), success=bool(won[0]),
                    )
                )
            t, pid = t[~bit], pid[~bit]
    return reward


def run_once(sol: LpSolution, inst: Instance, seed: int, policy: str = "full", trial: int = 0) -> RunOutcome:
    """Execute one fully-logged trial; deterministic in (seed, trial).

    "relaxed" queries every reached position (one-sided matching); "full"
    guards each query with the offline vertex's scheme and outputs a proper
    two-sided matching; "greedy" is "full" with attenuation forced to 1.
    Each reached position reads one success uniform, as the real bit on a
    query and the simulated bit on a pass, so at one (seed, trial) the three
    policies reach the same positions with the same bits.
    """
    comp = _Compiled(inst, sol, policy)
    draws = _chunk_draws(comp, seed, trial, 1)
    log = {"chosen": {}, "events": []}
    reward = _walk_chunk(comp, draws, log=log)
    events = log["events"]
    return RunOutcome(
        matching=[(ev.edge, ev.action) for ev in events if ev.success],
        reward=float(reward[0]),
        permutation=tuple(comp.v_list[i] for i in draws[0][0]),
        chosen=log["chosen"],
        events=events,
        policy=policy,
    )


def simulate(
    sol: LpSolution,
    inst: Instance,
    policy: str,
    trials: int,
    seed: int,
    count_suggestions: bool = False,
):
    """Monte Carlo over trials; returns (rewards ndarray, suggestion counts).

    Trials run in chunks whose randomness is pre-drawn from counter-keyed
    substreams, and each chunk is walked in lockstep. Suggestion counts
    (per edge/action position reached) feed the marginal preservation
    checks.
    """
    comp = _Compiled(inst, sol, policy)
    n_e, n_a = comp.q_mat.shape
    sug = np.zeros(n_e * n_a, dtype=np.int64) if count_suggestions else None
    rewards = np.empty(trials)
    for chunk_idx, first, c in chunks(trials):
        draws = _chunk_draws(comp, seed, chunk_idx, c)
        rewards[first : first + c] = _walk_chunk(comp, draws, sug=sug)
    counts = None
    if count_suggestions:
        sug = sug.reshape(n_e, n_a)
        counts = {
            (comp.edge_list[ei], comp.a_list[ai]): int(sug[ei, ai])
            for ei in range(n_e)
            for ai in range(n_a)
            if sug[ei, ai] > 0 or comp.q_mat[ei, ai] > 0
        }
    return rewards, counts


# ---------------------------------------------------------------------------
# Edge-LP rounding template (uniformly random edge order)
# ---------------------------------------------------------------------------


def simulate_edge_lp(z: dict, inst: Instance, trials: int, seed: int):
    """Round edge-LP weights: process edges in uniformly random order and
    query a feasible edge via action a with probability z_e(a); both
    endpoints must be unmatched with remaining patience. Returns rewards.
    Each chunk of trials is stepped in lockstep over edge rank."""
    edges = inst.edges()
    n_e, n_a = len(edges), len(inst.A)
    # per edge: cumulative action weights padded with +inf, and q, r of each
    thresh = np.full((n_e, n_a), np.inf)
    q_tab = np.zeros((n_e, n_a))
    r_tab = np.zeros((n_e, n_a))
    n_acts = np.zeros(n_e, dtype=np.int64)
    for ei, e in enumerate(edges):
        total = 0.0
        for a in inst.A:
            w = z.get((e, a), 0.0)
            if w > 0:
                total += w
                k = n_acts[ei]
                thresh[ei, k], q_tab[ei, k], r_tab[ei, k] = total, inst.q_of(e, a), inst.r_of(e, a)
                n_acts[ei] += 1
    u_index = {u: i for i, u in enumerate(inst.U)}
    v_index = {v: i for i, v in enumerate(inst.V)}
    rem_u0 = _budgets(inst, inst.U)
    rem_v0 = _budgets(inst, inst.V)
    e_u = np.array([u_index[e[0]] for e in edges], dtype=np.int64)
    e_v = np.array([v_index[e[1]] for e in edges], dtype=np.int64)

    rewards = np.empty(trials)
    for chunk_idx, first, c in chunks(trials):
        rng = stream_rng(seed, "permutation", chunk_idx)
        keys = rng.uniform(size=(c, n_e))
        orders = np.argsort(keys, axis=1)
        pick_rng = stream_rng(seed, "config-sampling", chunk_idx)
        picks = pick_rng.uniform(size=(c, n_e))
        q_rng = stream_rng(seed, "q-bits", chunk_idx)
        q_u = q_rng.uniform(size=(c, n_e))
        rem_u = np.tile(rem_u0, (c, 1))
        rem_v = np.tile(rem_v0, (c, 1))
        mu = np.zeros((c, len(inst.U)), dtype=bool)
        mv = np.zeros((c, len(inst.V)), dtype=bool)
        reward = np.zeros(c)
        t_all = np.arange(c)
        for rank in range(n_e):
            ei = orders[:, rank]
            ui, vi = e_u[ei], e_v[ei]
            k = (thresh[ei] <= picks[t_all, ei][:, None]).sum(axis=1)
            go = (k < n_acts[ei]) & ~mu[t_all, ui] & ~mv[t_all, vi]
            go &= (rem_u[t_all, ui] > 0) & (rem_v[t_all, vi] > 0)
            t, ei, ui, vi, k = t_all[go], ei[go], ui[go], vi[go], k[go]
            rem_u[t, ui] -= 1
            rem_v[t, vi] -= 1
            won = q_u[t, ei] < q_tab[ei, k]
            t, ui, vi = t[won], ui[won], vi[won]
            reward[t] += r_tab[ei[won], k[won]]
            mu[t, ui] = True
            mv[t, vi] = True
        rewards[first : first + c] = reward
    return rewards


# ---------------------------------------------------------------------------
# Replay audit
# ---------------------------------------------------------------------------


def audit_outcome(outcome: RunOutcome, sol: LpSolution, inst: Instance) -> list:
    """Re-derive every decision in the event log from information available
    at its decision point and flag any inconsistency: decisions must follow
    the scheme rule, plans must be consumed in order, patience and matching
    must hold, and the reward must equal the matched rewards."""
    out = []
    policy = outcome.policy
    rem = {u: inst.patience[u] for u in inst.U}
    rem_v = {v: inst.patience[v] for v in inst.V}
    u_matched = set()
    v_matched = set()
    queried_edges = set()
    pos = {}
    order_of = {v: i for i, v in enumerate(outcome.permutation)}
    last_v_seen = -1
    v_done = set()
    for ev in outcome.events:
        u, v = ev.edge
        if order_of[v] < last_v_seen:
            out.append(f"events out of permutation order at {ev.edge}")
        last_v_seen = max(last_v_seen, order_of[v])
        if v in v_done:
            out.append(f"plan at {v} continued after it ended")
        if ev.position != pos.get(v, 0):
            out.append(f"plan at {v} skipped a position")
        pos[v] = ev.position + 1
        cfg = outcome.chosen.get(v)
        if cfg is None or ev.position >= len(cfg.edges) or cfg.edges[ev.position] != ev.edge:
            out.append(f"event does not match the chosen plan at {v}")
        if ev.edge in queried_edges and ev.decision == "query":
            out.append(f"edge {ev.edge} queried twice")
        if policy == "relaxed":
            should_query = True
        else:
            b = bool(ev.b_bit) if policy == "full" else True
            should_query = b and u not in u_matched and rem[u] > 0
        if (ev.decision == "query") != should_query:
            out.append(f"decision at {ev.edge} contradicts the scheme rule")
        if ev.decision == "query":
            queried_edges.add(ev.edge)
            if policy != "relaxed":
                rem[u] -= 1
                if rem[u] < 0:
                    out.append(f"patience of {u} violated")
            if rem_v[v] <= 0:
                out.append(f"patience of {v} violated")
            rem_v[v] -= 1
            if ev.success:
                if policy != "relaxed":
                    u_matched.add(u)
                v_matched.add(v)
                v_done.add(v)
        else:
            if ev.success:
                out.append("pass event marked successful")
            if ev.bit:
                v_done.add(v)
        if ev.position + 1 == (len(cfg.edges) if cfg else 0):
            v_done.add(v)
    expect_reward = sum(inst.r_of(e, a) for e, a in outcome.matching)
    if abs(expect_reward - outcome.reward) > 1e-9:
        out.append("reward does not match matched rewards")
    per_v = {}
    per_u = {}
    for e, a in outcome.matching:
        per_u[e[0]] = per_u.get(e[0], 0) + 1
        per_v[e[1]] = per_v.get(e[1], 0) + 1
    if any(c > 1 for c in per_v.values()):
        out.append("online vertex matched twice")
    if policy != "relaxed" and any(c > 1 for c in per_u.values()):
        out.append("offline vertex matched twice")
    return out
