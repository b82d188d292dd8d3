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

import math
from dataclasses import dataclass, field

import numpy as np

from . import contention as ct
from .instances import Instance, is_infinite
from .lp import LpSolution
from .reports import SimReport, make_report
from .rng import stream_rng

_BIG = 1 << 30


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
    mode: str = "full"


class _Compiled:
    """Index-space view of (instance, solution) for the trial loop."""

    def __init__(self, inst: Instance, sol: LpSolution, scheme: str):
        self.inst = inst
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

        # per-v sampled-plan tables
        self.cum = []
        self.plans = []
        for v in self.v_list:
            cfgs = [(cfg, w) for cfg, w in sol.weights.items() if cfg.v == v and w > 0]
            ell_v = inst.patience[v]
            weights = []
            compiled = []
            for cfg, w in cfgs:
                if not is_infinite(ell_v) and len(cfg) > int(ell_v):
                    raise ValueError(f"plan at {v} longer than patience")
                weights.append(w)
                compiled.append(
                    [
                        (
                            self.u_index[e[0]],
                            self.e_index[e],
                            self.a_index[a],
                            inst.q_of(e, a),
                            inst.r_of(e, a),
                            cfg,
                        )
                        for e, a in zip(cfg.edges, cfg.actions)
                    ]
                )
            total = sum(weights)
            if total > 1.0 + 1e-9:
                raise ValueError(f"plan weights at {v} exceed 1")
            self.cum.append(np.cumsum(weights).tolist())
            self.plans.append(compiled)

        # offline-side scheme state: attenuation probability per (u, v);
        # greedy keeps every bit at 1, and patience 0 never queries
        self.rem_init = [
            _BIG if is_infinite(inst.patience[u]) else int(inst.patience[u]) for u in self.u_list
        ]
        self.b_mat = np.ones((len(self.u_list), len(self.v_list)))
        if scheme in ("full", "greedy"):
            inputs = scheme_inputs(inst, sol)  # validates the marginals
            if scheme == "full":
                for u, inp in inputs.items():
                    self.b_mat[self.u_index[u]] = ct.attenuation_probs(inp)


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
        out[u] = ct.make_input(tuple(inst.A), ell if is_infinite(ell) else int(ell), p, x)
    return out


def _chunk_draws(comp: _Compiled, seed: int, chunk_idx: int, count: int, mode: str):
    n_v = len(comp.v_list)
    n_e, n_a = comp.q_mat.shape
    perm_rng = stream_rng(seed, "permutation", chunk_idx)
    keys = perm_rng.uniform(size=(count, n_v))
    perms = np.argsort(keys, axis=1).tolist()
    cfg_rng = stream_rng(seed, "config-sampling", chunk_idx)
    u_cfg = cfg_rng.uniform(size=(count, n_v)).tolist()
    q_rng = stream_rng(seed, "q-bits", chunk_idx)
    q_bits = (q_rng.uniform(size=(count, n_e, n_a)) < comp.q_mat[None]).tolist()
    qt_rng = stream_rng(seed, "qtilde-bits", chunk_idx)
    qt_bits = (qt_rng.uniform(size=(count, n_e, n_a)) < comp.q_mat[None]).tolist()
    if mode == "relaxed":
        b_bits = None
    else:
        b_rng = stream_rng(seed, "attenuation-bits", chunk_idx)
        b_bits = (b_rng.uniform(size=(count, len(comp.u_list), n_v)) < comp.b_mat[None]).tolist()
    return perms, u_cfg, q_bits, qt_bits, b_bits


def _walk_trial(comp, perm, u_cfg_row, q_row, qt_row, b_row, mode, sug_counts=None, events=None):
    """One trial of the selected policy; returns (reward, matched pairs,
    chosen plans). Appends QueryEvents when `events` is a list."""
    reward = 0.0
    matched = []
    chosen = {}
    rem = comp.rem_init[:]
    u_matched = [False] * len(comp.u_list)
    relaxed = mode == "relaxed"
    for vi in perm:
        cum = comp.cum[vi]
        u = u_cfg_row[vi]
        pick = -1
        for k, threshold in enumerate(cum):
            if u < threshold:
                pick = k
                break
        v_name = comp.v_list[vi]
        if pick < 0:
            chosen[v_name] = None
            continue
        plan = comp.plans[vi][pick]
        chosen[v_name] = plan[0][5] if plan else None
        for j, (ui, ei, ai, q, r, _cfg) in enumerate(plan):
            if sug_counts is not None:
                sug_counts[ei][ai] += 1
            if relaxed:
                do_query = True
                b = None
            else:
                b = b_row[ui][vi]
                do_query = b and not u_matched[ui] and rem[ui] > 0
            if do_query:
                bit = q_row[ei][ai]
                if not relaxed:
                    rem[ui] -= 1
                if events is not None:
                    events.append(
                        QueryEvent(
                            v=v_name, position=j, edge=comp.edge_list[ei], action=comp.a_list[ai],
                            decision="query", b_bit=None if relaxed else int(bool(b)),
                            bit=int(bool(bit)), success=bool(bit),
                        )
                    )
                if bit:
                    reward += r
                    matched.append((comp.edge_list[ei], comp.a_list[ai]))
                    u_matched[ui] = True
                    break
            else:
                bit = qt_row[ei][ai]
                if events is not None:
                    events.append(
                        QueryEvent(
                            v=v_name, position=j, edge=comp.edge_list[ei], action=comp.a_list[ai],
                            decision="pass", b_bit=int(bool(b)), bit=int(bool(bit)),
                            success=False,
                        )
                    )
                if bit:
                    break  # simulated success ends the plan with no reward
    return reward, matched, chosen


def _mode_of(policy: str) -> str:
    if policy not in ("full", "greedy", "relaxed"):
        raise ValueError(f"unknown policy {policy!r}")
    return policy


def run_once(sol: LpSolution, inst: Instance, seed: int, policy: str = "full", trial: int = 0) -> RunOutcome:
    """Execute one fully-logged trial; deterministic in (seed, trial).

    "relaxed" queries every reached position (one-sided matching); "full"
    guards each query with the offline vertex's scheme and outputs a proper
    two-sided matching; "greedy" is "full" with attenuation forced to 1.
    """
    mode = _mode_of(policy)
    comp = _Compiled(inst, sol, mode)
    perms, u_cfg, q_bits, qt_bits, b_bits = _chunk_draws(comp, seed, trial, 1, mode)
    events: list = []
    reward, matched, chosen = _walk_trial(
        comp, perms[0], u_cfg[0], q_bits[0], qt_bits[0],
        None if b_bits is None else b_bits[0], mode, events=events,
    )
    return RunOutcome(
        matching=matched,
        reward=reward,
        permutation=tuple(comp.v_list[i] for i in perms[0]),
        chosen=chosen,
        events=events,
        mode=mode,
    )


def simulate(
    sol: LpSolution,
    inst: Instance,
    policy: str,
    trials: int,
    seed: int,
    count_suggestions: bool = False,
    chunk: int = 8192,
):
    """Monte Carlo over trials; returns (rewards ndarray, suggestion counts).

    Suggestion counts (per edge/action position reached) feed the marginal
    preservation checks.
    """
    mode = _mode_of(policy)
    comp = _Compiled(inst, sol, mode)
    n_e, n_a = comp.q_mat.shape
    sug = [[0] * n_a for _ in range(n_e)] if count_suggestions else None
    rewards = np.empty(trials)
    done = 0
    chunk_idx = 0
    while done < trials:
        c = min(chunk, trials - done)
        perms, u_cfg, q_bits, qt_bits, b_bits = _chunk_draws(comp, seed, chunk_idx, c, mode)
        for t in range(c):
            reward, _, _ = _walk_trial(
                comp, perms[t], u_cfg[t], q_bits[t], qt_bits[t],
                None if b_bits is None else b_bits[t], mode, sug_counts=sug,
            )
            rewards[done + t] = reward
        done += c
        chunk_idx += 1
    counts = None
    if count_suggestions:
        counts = {
            (comp.edge_list[ei], comp.a_list[ai]): sug[ei][ai]
            for ei in range(n_e)
            for ai in range(n_a)
            if sug[ei][ai] > 0 or comp.q_mat[ei, ai] > 0
        }
    return rewards, counts


def evaluate_policy(
    policy: str,
    inst: Instance,
    sol: LpSolution,
    trials: int,
    seed: int,
    opt_value: float | None = None,
) -> SimReport:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rewards, _ = simulate(sol, inst, policy, trials, seed)
    mean = float(rewards.mean())
    var = float(rewards.var(ddof=1)) if trials > 1 else 0.0
    return make_report(mean, var, trials, lp_value=sol.objective, opt_value=opt_value)


# ---------------------------------------------------------------------------
# Edge-LP rounding template (uniformly random edge order)
# ---------------------------------------------------------------------------


def simulate_edge_lp(z: dict, inst: Instance, trials: int, seed: int, chunk: int = 8192):
    """Round edge-LP weights: process edges in uniformly random order and
    query a feasible edge via action a with probability z_e(a); both
    endpoints must be unmatched with remaining patience. Returns rewards."""
    edges = inst.edges()
    n_e = len(edges)
    acts = []
    for e in edges:
        cum = []
        total = 0.0
        for a in inst.A:
            w = z.get((e, a), 0.0)
            if w > 0:
                total += w
                cum.append((total, a, inst.q_of(e, a), inst.r_of(e, a)))
        acts.append(cum)
    u_index = {u: i for i, u in enumerate(inst.U)}
    v_index = {v: i for i, v in enumerate(inst.V)}
    rem_u0 = [_BIG if is_infinite(inst.patience[u]) else int(inst.patience[u]) for u in inst.U]
    rem_v0 = [_BIG if is_infinite(inst.patience[v]) else int(inst.patience[v]) for v in inst.V]
    e_u = [u_index[e[0]] for e in edges]
    e_v = [v_index[e[1]] for e in edges]

    rewards = np.empty(trials)
    done = 0
    chunk_idx = 0
    while done < trials:
        c = min(chunk, trials - done)
        rng = stream_rng(seed, "permutation", chunk_idx)
        keys = rng.uniform(size=(c, n_e))
        orders = np.argsort(keys, axis=1).tolist()
        pick_rng = stream_rng(seed, "config-sampling", chunk_idx)
        picks = pick_rng.uniform(size=(c, n_e)).tolist()
        q_rng = stream_rng(seed, "q-bits", chunk_idx)
        q_u = q_rng.uniform(size=(c, n_e)).tolist()
        for t in range(c):
            rem_u = rem_u0[:]
            rem_v = rem_v0[:]
            mu = [False] * len(inst.U)
            mv = [False] * len(inst.V)
            reward = 0.0
            prow, qrow = picks[t], q_u[t]
            for ei in orders[t]:
                ui, vi = e_u[ei], e_v[ei]
                if mu[ui] or mv[vi] or rem_u[ui] == 0 or rem_v[vi] == 0:
                    continue
                upick = prow[ei]
                for threshold, a, q, r in acts[ei]:
                    if upick < threshold:
                        rem_u[ui] -= 1
                        rem_v[vi] -= 1
                        if qrow[ei] < q:
                            reward += r
                            mu[ui] = True
                            mv[vi] = True
                        break
            rewards[done + t] = reward
        done += c
        chunk_idx += 1
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
    mode = outcome.mode
    rem = {u: (math.inf if is_infinite(inst.patience[u]) else int(inst.patience[u])) for u in inst.U}
    rem_v = {v: (math.inf if is_infinite(inst.patience[v]) else int(inst.patience[v])) for v in inst.V}
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
        if mode == "relaxed":
            should_query = True
        else:
            b = bool(ev.b_bit) if mode == "full" else True
            should_query = b and u not in u_matched and rem[u] > 0
        if (ev.decision == "query") != should_query:
            out.append(f"decision at {ev.edge} contradicts the scheme rule")
        if ev.decision == "query":
            queried_edges.add(ev.edge)
            if mode != "relaxed":
                rem[u] -= 1
                if rem[u] < 0:
                    out.append(f"patience of {u} violated")
            if rem_v[v] <= 0:
                out.append(f"patience of {v} violated")
            rem_v[v] -= 1
            if ev.success:
                if mode != "relaxed":
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
    if mode != "relaxed" and any(c > 1 for c in per_u.values()):
        out.append("offline vertex matched twice")
    return out
