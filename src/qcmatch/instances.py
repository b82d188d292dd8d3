"""Problem instances: bipartite graphs with per-edge-per-action success
probabilities, rewards, and per-vertex patience budgets.

Also owns the two model reductions (sequential pricing and free-order
threshold selection), the seeded random generator family, and the JSON
file format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .rng import stream_rng

# Patience is an int >= 0 or unbounded. Unbounded is the float infinity so
# the case split on patience in {1, inf} stays exactly decidable.
INFINITE = math.inf

Edge = tuple[str, str]


def is_infinite(patience) -> bool:
    return patience == INFINITE


@dataclass(frozen=True)
class Instance:
    U: tuple[str, ...]
    V: tuple[str, ...]
    A: tuple[str, ...]
    q: dict  # (edge, action) -> success probability
    r: dict  # (edge, action) -> reward
    patience: dict  # vertex -> int >= 0 or INFINITE
    meta: dict = field(default_factory=dict, compare=False)

    def edges(self) -> list[Edge]:
        seen = dict.fromkeys(e for e, _ in self.q)
        for e, _ in self.r:
            seen.setdefault(e)
        return list(seen)

    def q_of(self, e: Edge, a: str) -> float:
        return self.q.get((e, a), 0.0)

    def r_of(self, e: Edge, a: str) -> float:
        return self.r.get((e, a), 0.0)

    def incident_to_v(self, v: str) -> list[Edge]:
        return [e for e in self.edges() if e[1] == v]


def make_instance(U, V, A, q, r, patience, meta=None) -> Instance:
    return Instance(
        U=tuple(U),
        V=tuple(V),
        A=tuple(A),
        q=dict(q),
        r=dict(r),
        patience=dict(patience),
        meta=dict(meta or {}),
    )


def validate_instance(inst: Instance) -> list[str]:
    """Every invariant violation, each with a path to the offending field.

    An empty list means the instance is well-formed. Violations are data,
    not exceptions.
    """
    out = []
    useen = set(inst.U)
    vseen = set(inst.V)
    aseen = set(inst.A)
    if len(useen) != len(inst.U):
        out.append("U: duplicate vertex ids")
    if len(vseen) != len(inst.V):
        out.append("V: duplicate vertex ids")
    if len(aseen) != len(inst.A):
        out.append("A: duplicate action ids")
    if useen & vseen:
        out.append("U/V: overlapping vertex ids")
    for (e, a), val in inst.q.items():
        u, v = e
        if u not in useen or v not in vseen:
            out.append(f"edges[{e}]: endpoint not in U x V")
        if a not in aseen:
            out.append(f"edges[{e}].actions[{a}]: unknown action id")
        if not (0.0 <= val <= 1.0):
            out.append(f"edges[{e}].actions[{a}].q: probability out of range")
    for (e, a), val in inst.r.items():
        if val < 0.0:
            out.append(f"edges[{e}].actions[{a}].r: reward negative")
        if (e, a) not in inst.q:
            out.append(f"edges[{e}].actions[{a}]: reward without probability entry")
    for s in list(inst.U) + list(inst.V):
        p = inst.patience.get(s)
        if p is None:
            out.append(f"patience[{s}]: missing")
        elif is_infinite(p):
            continue
        elif not isinstance(p, int) or isinstance(p, bool):
            out.append(f"patience[{s}]: not an integer")
        elif p < 0:
            out.append(f"patience[{s}]: patience negative")
    for s in inst.patience:
        if s not in useen and s not in vseen:
            out.append(f"patience[{s}]: unknown vertex")
    return out


def require_valid(inst: Instance) -> Instance:
    violations = validate_instance(inst)
    if violations:
        raise ValueError("invalid instance: " + "; ".join(violations))
    return inst


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PricingSpec:
    """Sequential-pricing input: jobs with values, workers with acceptance
    curves per payment level, and (for the welfare objective) worker cost
    distributions."""

    job_value: dict  # u -> b_u >= 0
    curves: dict  # (u, v) -> list of (payment, acceptance probability)
    objective: str = "revenue"  # or "welfare"
    costs: dict | None = None  # (u, v) -> list of (cost, probability)
    patience: dict | None = None  # vertex -> patience; default unbounded


@dataclass(frozen=True)
class ProphetSpec:
    """Free-order threshold-selection input: one finite weight distribution
    per edge."""

    dists: dict  # (u, v) -> list of (value, probability)
    patience: dict | None = None


def _fmt_tau(tau: float) -> str:
    return f"tau:{format(float(tau), '.17g')}"


def validate_pricing(spec: PricingSpec) -> list[str]:
    out = []
    if spec.objective not in ("revenue", "welfare"):
        out.append("objective: must be 'revenue' or 'welfare'")
    for u, b in spec.job_value.items():
        if b < 0:
            out.append(f"job_value[{u}]: negative")
    for e, curve in spec.curves.items():
        for tau, p in curve:
            if tau < 0:
                out.append(f"curves[{e}]: payment negative")
            if not (0.0 <= p <= 1.0):
                out.append(f"curves[{e}]: probability out of range")
    for e, dist in (spec.costs or {}).items():
        total = sum(p for _, p in dist)
        if abs(total - 1.0) > 1e-9:
            out.append(f"costs[{e}]: probabilities sum to {total}, not 1")
        if any(p < 0 for _, p in dist):
            out.append(f"costs[{e}]: negative probability")
    return out


def from_pricing(spec: PricingSpec) -> Instance:
    """Build an action-reward instance from a pricing spec.

    One action per distinct payment level across all curves. Revenue mode
    sets reward to the job value minus the payment; welfare mode subtracts
    the expected worker cost conditioned on acceptance-feasible costs.
    Rewards are clamped at 0 (a rational platform never offers a payment
    above the job value, and objectives require nonnegative rewards).
    Payment levels whose conditional cost is undefined (no cost mass at or
    below the payment) yield no action for that edge.
    """
    bad = validate_pricing(spec)
    if bad:
        raise ValueError("invalid pricing spec: " + "; ".join(bad))
    taus = sorted({tau for curve in spec.curves.values() for tau, _ in curve})
    A = [_fmt_tau(t) for t in taus]
    U = sorted(spec.job_value)
    V = sorted({v for _, v in spec.curves})
    q, r = {}, {}
    for (u, v), curve in spec.curves.items():
        for tau, p in curve:
            a = _fmt_tau(tau)
            if spec.objective == "revenue":
                reward = max(spec.job_value[u] - tau, 0.0)
            else:
                if spec.costs is None or (u, v) not in spec.costs:
                    raise ValueError(f"cost distribution required for edge {(u, v)} in welfare mode")
                dist = spec.costs[(u, v)]
                mass = sum(pc for c, pc in dist if c <= tau)
                if mass <= 0.0:
                    continue  # conditional expectation undefined; drop the action
                cond = sum(c * pc for c, pc in dist if c <= tau) / mass
                reward = max(spec.job_value[u] - cond, 0.0)
            q[((u, v), a)] = float(p)
            r[((u, v), a)] = float(reward)
    patience = dict(spec.patience) if spec.patience else {s: INFINITE for s in U + V}
    return require_valid(make_instance(U, V, A, q, r, patience, meta={"source": "pricing", "objective": spec.objective}))


def from_prophet(spec: ProphetSpec) -> Instance:
    """Build an action-reward instance from per-edge weight distributions.

    One action per support point used as an acceptance threshold: success
    probability P[W >= tau], reward E[W | W >= tau].
    """
    for e, dist in spec.dists.items():
        if not dist:
            raise ValueError(f"dists[{e}]: empty support")
        total = sum(p for _, p in dist)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"dists[{e}]: probabilities sum to {total}, not 1")
        if any(w < 0 for w, _ in dist) or any(p < 0 for _, p in dist):
            raise ValueError(f"dists[{e}]: negative value or probability")
    taus = sorted({w for dist in spec.dists.values() for w, _ in dist})
    A = [_fmt_tau(t) for t in taus]
    U = sorted({u for u, _ in spec.dists})
    V = sorted({v for _, v in spec.dists})
    q, r = {}, {}
    for (u, v), dist in spec.dists.items():
        for tau in {w for w, _ in dist}:
            surv = sum(p for w, p in dist if w >= tau)
            if surv <= 0.0:
                continue
            mean = sum(w * p for w, p in dist if w >= tau) / surv
            a = _fmt_tau(tau)
            q[((u, v), a)] = min(float(surv), 1.0)  # guard float accumulation
            r[((u, v), a)] = float(mean)
    patience = dict(spec.patience) if spec.patience else {s: INFINITE for s in U + V}
    return require_valid(make_instance(U, V, A, q, r, patience, meta={"source": "prophet"}))


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def random_instance(
    seed: int,
    n_u: int,
    n_v: int,
    n_a: int,
    patience_range=(1, 2),
) -> Instance:
    """Deterministic-in-seed random instance on the complete bipartite graph.

    `patience_range` is the collection patience values are drawn from
    (ints and/or INFINITE). q in [0, 1] and r in [0, 1] uniform; the
    generator family is recorded in the instance metadata.
    """
    if min(n_u, n_v, n_a) < 1:
        raise ValueError("sizes must be >= 1")
    choices = list(patience_range)
    if not choices:
        raise ValueError("patience_range must be nonempty")
    rng = stream_rng(seed, "instance-gen")
    U = [f"u{i}" for i in range(n_u)]
    V = [f"v{j}" for j in range(n_v)]
    A = [f"a{k}" for k in range(n_a)]
    q, r = {}, {}
    for u in U:
        for v in V:
            for a in A:
                q[((u, v), a)] = float(rng.uniform(0.0, 1.0))
                r[((u, v), a)] = float(rng.uniform(0.0, 1.0))
    patience = {}
    for s in U + V:
        pick = choices[int(rng.integers(0, len(choices)))]
        patience[s] = INFINITE if is_infinite(pick) else int(pick)
    meta = {
        "generator": "uniform-qr",
        "seed": int(seed),
        "n_u": n_u,
        "n_v": n_v,
        "n_a": n_a,
        "patience_range": ["inf" if is_infinite(p) else int(p) for p in choices],
    }
    return make_instance(U, V, A, q, r, patience, meta=meta)


# ---------------------------------------------------------------------------
# Serialization: one self-describing JSON document per instance
# ---------------------------------------------------------------------------

_TOP_KEYS = {"U", "V", "A", "patience", "edges"}


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _jstr(s: str) -> str:
    return json.dumps(s)


def serialize(inst: Instance) -> str:
    """Instance file text. Keys are fixed-case and ordered; every float is
    written with 17 significant digits so round-trips are exact."""
    lines = []
    lines.append("{")
    lines.append(f'  "U": [{", ".join(_jstr(u) for u in inst.U)}],')
    lines.append(f'  "V": [{", ".join(_jstr(v) for v in inst.V)}],')
    lines.append(f'  "A": [{", ".join(_jstr(a) for a in inst.A)}],')
    pat = ", ".join(
        f"{_jstr(s)}: " + ('"inf"' if is_infinite(p) else str(int(p)))
        for s, p in sorted(inst.patience.items())
    )
    lines.append(f'  "patience": {{{pat}}},')
    lines.append('  "edges": [')
    edges = sorted(inst.edges())
    for i, e in enumerate(edges):
        acts = sorted(a for a in inst.A if (e, a) in inst.q or (e, a) in inst.r)
        parts = ", ".join(
            f'{{"a": {_jstr(a)}, "q": {_f17(inst.q_of(e, a))}, "r": {_f17(inst.r_of(e, a))}}}'
            for a in acts
        )
        comma = "," if i < len(edges) - 1 else ""
        lines.append(f'    {{"u": {_jstr(e[0])}, "v": {_jstr(e[1])}, "actions": [{parts}]}}{comma}')
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> Instance:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("instance file must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown keys in instance file: {sorted(unknown)}")
    missing = _TOP_KEYS - set(doc)
    if missing:
        raise ValueError(f"missing keys in instance file: {sorted(missing)}")
    patience = {}
    for s, p in doc["patience"].items():
        patience[s] = INFINITE if p == "inf" else int(p)
    q, r = {}, {}
    for ed in doc["edges"]:
        unknown = set(ed) - {"u", "v", "actions"}
        if unknown:
            raise ValueError(f"unknown keys in edge record: {sorted(unknown)}")
        e = (ed["u"], ed["v"])
        for act in ed["actions"]:
            unknown = set(act) - {"a", "q", "r"}
            if unknown:
                raise ValueError(f"unknown keys in action record: {sorted(unknown)}")
            q[(e, act["a"])] = float(act["q"])
            r[(e, act["a"])] = float(act["r"])
    return make_instance(doc["U"], doc["V"], doc["A"], q, r, patience)


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(inst))
