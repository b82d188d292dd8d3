"""Exact desk-scale oracles: the optimal committal policy by dynamic
programming over the decision MDP's canonical states, walked in layers of
live-edge count with numpy, and the exact star-graph optimum by a scan
over (edge, action) pairs in reward order. Ground truth for everything
else in the package."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .instances import Instance

DEFAULT_STATE_BUDGET = int(2e7)
# kept star plan states: about 1e5 of them take some 50 MB
DEFAULT_STAR_STATE_BUDGET = int(1e5)


class BudgetExceeded(Exception):
    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


def budget_override(default: int) -> int:
    env = os.environ.get("QCL_BUDGET")
    if env:
        return int(float(env))
    return default


def expected_sequence_reward(qr_pairs) -> float:
    """Expected reward of querying a fixed (q, r) sequence until the first
    success: sum_i r_i q_i prod_{j<i} (1 - q_j)."""
    total = 0.0
    alive = 1.0
    for q, r in qr_pairs:
        total += alive * q * r
        alive *= 1.0 - q
    return total


# ---------------------------------------------------------------------------
# Optimal policy by dynamic programming
# ---------------------------------------------------------------------------

_BLOCK = 4096  # keys per vectorised step of either pass
_MASK64 = (1 << 64) - 1


@dataclass
class OptDpResult:
    value: float
    states_expanded: int
    # states per live-edge count, from 0 live edges up
    layer_sizes: tuple = field(default=(), compare=False)


def _rows(ints, n_words: int) -> np.ndarray:
    """Python ints as rows of little-endian 64-bit words."""
    if n_words == 1:
        return np.array(ints, dtype=np.uint64).reshape(-1, 1)
    return np.array(
        [[x >> 64 * k & _MASK64 for k in range(n_words)] for x in ints], dtype=np.uint64
    ).reshape(len(ints), n_words)


def _unique(flat: np.ndarray) -> np.ndarray:
    """Sorted distinct entries. The sort is stable, so runs already sorted
    (a layer and the keys it gains) merge in linear time."""
    flat = np.sort(flat, kind="stable")
    return flat[np.concatenate(([True], flat[1:] != flat[:-1]))]


def _count(words: np.ndarray) -> np.ndarray:
    """Set bits per row of (n, words)."""
    bits = np.bitwise_count(words)
    return bits[:, 0] if bits.shape[1] == 1 else bits.sum(axis=1, dtype=np.intp)


class _Keys:
    """`opt_dp`'s canonical keys and their transitions, vectorised over
    (key, live edge) pairs. A key is a row of 64-bit words: live edge i is
    bit i, and each binding vertex's field sits above the edges, inside
    one word. `flat` views rows as one sortable scalar each: the word
    itself, or the words' bytes as a fixed-width byte string (an order of
    its own, but a total one, and faster to sort than a void scalar)."""

    def __init__(self, n_words, live, fields, inc, acts):
        n_e = len(live)
        self.n_words = n_words
        self.as_bytes = np.dtype(f"S{8 * n_words}")
        self.edges = _rows([(1 << n_e) - 1], n_words)
        self.bit = _rows([1 << i for i in range(n_e)], n_words)
        self.word = np.arange(n_e) // 64
        self.bit_in_word = self.bit[np.arange(n_e), self.word]
        field_mask = {s: ((1 << w) - 1) << o for s, (o, w) in fields.items()}
        self.succ_kill = _rows(
            [inc[u] | inc[v] | field_mask.get(u, 0) | field_mask.get(v, 0) for u, v in live], n_words
        )
        # per side of the edges (0: the U end, 1: the V end) with a binding
        # endpoint: per edge, that endpoint's field (word, shift, mask and
        # unit) and its edges; a free endpoint has an empty field and no
        # edges. When every field on a side is empty (patience 1), each
        # failure kills, and only the edges are kept.
        self.ends = []
        for side in (0, 1):
            ends = [fields.get(e[side]) for e in live]
            if all(f is None for f in ends):
                continue
            kill = _rows([inc[e[side]] if f else 0 for e, f in zip(live, ends)], n_words)
            o = [f[0] if f else 0 for f in ends]
            w = [f[1] if f else 0 for f in ends]
            if not any(w):
                self.ends.append((None, kill))
                continue
            self.ends.append((
                (
                    np.array([x // 64 for x in o], dtype=np.intp),
                    np.array([x % 64 for x in o], dtype=np.uint64),
                    np.array([(1 << x) - 1 for x in w], dtype=np.uint64),
                    np.array([1 << x % 64 if y else 0 for x, y in zip(o, w)], dtype=np.uint64),
                ),
                kill,
            ))
        # binding vertices with field bits, capped again when they lose an
        # edge: the field's word, shift, mask and unit, and the vertex's edges
        self.caps = [
            (o // 64, np.uint64(o % 64), np.uint64((1 << w) - 1), np.uint64(1 << o % 64),
             _rows([inc[s]], n_words)[0])
            for s, (o, w) in fields.items() if w
        ]
        # per action slot, per edge, (q, r, 1 - q) of the actions with q > 0;
        # unused slots hold (0, 0, 0), which yields 0
        pos = [[(q, r, 1.0 - q) for q, r in pairs if q > 0.0] for pairs in acts]
        table = [[(0.0, 0.0, 0.0)] * n_e for _ in range(max(map(len, pos), default=0))]
        for i, qrp in enumerate(pos):
            for slot, t in zip(table, qrp):
                slot[i] = t
        self.slots = [tuple(np.array(slot).T.copy()) for slot in table]
        self.has_succ = np.array(list(map(bool, pos)), dtype=bool)

    def flat(self, keys: np.ndarray) -> np.ndarray:
        if self.n_words == 1:
            return keys.reshape(-1)
        return np.ascontiguousarray(keys).view(self.as_bytes).reshape(-1)

    def unflat(self, flat: np.ndarray) -> np.ndarray:
        return flat.view(np.uint64).reshape(len(flat), self.n_words)

    def live_count(self, flat: np.ndarray) -> np.ndarray:
        return _count(self.unflat(flat) & self.edges)

    def pairs(self, flat: np.ndarray, n_live: int):
        """Each key once per live edge: the keys repeated `n_live` times,
        and the j-th live edge of every key in the j-th repeat."""
        keys = self.unflat(flat)
        words = keys if self.n_words == 1 else keys[:, self.word]
        e = np.flatnonzero(words & self.bit_in_word != 0) % len(self.word)
        return np.concatenate([keys] * n_live), e.reshape(len(keys), n_live).T.ravel()

    def children(self, keys, e, won):
        """The child of every pair after a failure, then of the pairs `won`
        selects after a success. A failure costs each binding endpoint a
        unit of patience, or at its last unit its edges; a success kills
        every edge at both endpoints."""
        child = keys ^ self.bit.take(e, axis=0)
        for field_of, kill in self.ends:
            if field_of is None:
                child &= ~kill.take(e, axis=0)
                continue
            word, shift, mask, unit = field_of
            at = (slice(None), 0) if self.n_words == 1 else (np.arange(len(e)), word[e])
            left = keys[at] >> shift[e] & mask[e]
            child[at] -= unit[e] * (left != 0)
            child &= ~(kill.take(e, axis=0) * (left == 0)[:, None])
        return self._cap(np.concatenate((child, keys[won] & ~self.succ_kill.take(e[won], axis=0))))

    def _cap(self, child):
        # a binding vertex that lost a live edge caps its field again
        for word, shift, mask, unit, inc in self.caps:
            col = child[:, word]
            deg = _count(child & inc)
            col -= unit * ((col >> shift & mask >= deg) & (deg != 0))
        return child


def opt_dp(inst: Instance, state_budget: int | None = None) -> OptDpResult:
    """Exact expected reward of the optimal committal policy.

    A query is feasible when both endpoints are unmatched and have patience
    left; on success both endpoints become matched, on failure both lose one
    unit of patience. Stopping is always allowed. (Edge, action) pairs
    absent from the instance have q = r = 0 and are dominated by not
    querying, so only listed pairs are branched on.

    A state is keyed by what decides its future: the mask of live edges
    (available, with a listed action, both endpoints unmatched and with
    patience left) and, above it, one field per binding vertex: its
    remaining patience capped at its live degree, less one (0 once it has
    no live edges; a vertex of patience 1 needs no bits). A vertex binds
    when its patience is below its live degree at the start; the others
    never run out (each query at one costs a unit of patience and a live
    edge). A success kills every edge at both endpoints; a failure at an
    endpoint on its last unit of patience kills that endpoint's edges;
    each binding vertex that loses edges caps its field again. From equal
    keys the same queries are feasible with the same outcomes, and
    patience beyond the live degree can never be spent, so equal keys have
    equal values. `states_expanded` counts these canonical states, and
    `layer_sizes` counts them per number of live edges.

    Every child has fewer live edges than its parent, so the states are
    walked in layers by live-edge count, `_BLOCK` keys at a time, each
    step vectorised over (key, live edge) pairs. When no vertex binds, the
    key is the live mask, every submask is a state, and a key is its own
    index. Otherwise a forward pass finds the reachable keys one layer at
    a time, and a backward pass computes values from the bottom layer up,
    finding children in the sorted keys. A value is the best of 0 (stop)
    and, over live edges and actions with q > 0, q·(r + s) + (1 − q)·f,
    with s and f the values after success and failure. An action with
    q = 0 would yield f alone, which never beats the state's own value:
    every policy open after a failure is open before it.

    Raises `BudgetExceeded` before any state when failures alone reach
    more states than the budget, and otherwise once the forward pass has
    found more than `state_budget` states.
    """
    budget = budget_override(state_budget if state_budget is not None else DEFAULT_STATE_BUDGET)
    pat = inst.patience
    live, acts = [], []  # the edges that can ever be queried, and their (q, r)
    for e in inst.edges():
        pairs = [(inst.q[(e, a)], inst.r_of(e, a)) for a in inst.A if (e, a) in inst.q]
        if pairs and pat[e[0]] >= 1 and pat[e[1]] >= 1:
            live.append(e)
            acts.append(pairs)
    n_e = len(live)
    inc = dict.fromkeys((*inst.U, *inst.V), 0)  # vertex -> mask of its live edges
    for i, (u, v) in enumerate(live):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    root = (1 << n_e) - 1
    fields = {}  # binding vertex -> (offset, width) of its field in the key
    spare = {}  # vertex -> failures it can take and keep patience left
    offset = n_e
    for s, m in inc.items():
        deg = m.bit_count()
        if pat[s] < deg:
            width = int(pat[s] - 1).bit_length()  # none at patience 1
            if offset % 64 + width > 64:  # no field straddles two words
                offset += 64 - offset % 64
            fields[s] = (offset, width)
            root |= (pat[s] - 1) << offset
            offset += width
            spare[s] = pat[s] - 1
        else:
            spare[s] = deg

    # failures alone can remove any subset of a set of live edges that
    # leaves every vertex patience, each subset leaving its own live mask:
    # 2^size states at least
    free = 0
    for u, v in live:
        if spare[u] and spare[v]:
            spare[u] -= 1
            spare[v] -= 1
            free += 1
    if 2.0**free > budget:
        raise BudgetExceeded(f"2^{free} failure sets exceed state budget", estimate=2.0**free)

    n_words = max(1, -(-offset // 64))
    keys = _Keys(n_words, live, fields, inc, acts)
    root = keys.flat(_rows([root], n_words))
    if fields:
        layers = _reachable(keys, root, budget)
        table = np.sort(np.concatenate(layers))
    else:
        # the 2^n_e live masks, layer by layer
        order = np.argsort(np.bitwise_count(np.arange(1 << n_e, dtype=np.uint64)), kind="stable")
        ends = list(accumulate((math.comb(n_e, k) for k in range(n_e + 1)), initial=0))
        layers = [order[a:b].view(np.uint64) for a, b in zip(ends, ends[1:])]
        table = None

    values = np.zeros(sum(map(len, layers)))
    for n_live in range(1, n_e + 1):
        layer = layers[n_live]
        for start in range(0, len(layer), _BLOCK):
            flat = layer[start:start + _BLOCK]
            k, e = keys.pairs(flat, n_live)
            f, s = values[_index(table, keys.flat(keys.children(k, e, slice(None))))].reshape(2, -1)
            best = np.zeros(len(e))
            for q, r, p in keys.slots:
                np.maximum(best, q[e] * (r[e] + s) + p[e] * f, out=best)
            values[_index(table, flat)] = best.reshape(n_live, len(flat)).max(axis=0)
    return OptDpResult(
        value=float(values[_index(table, root)][0]),
        states_expanded=len(values),
        layer_sizes=tuple(map(len, layers)),
    )


def _index(table, flat: np.ndarray) -> np.ndarray:
    """Positions of keys among the states: in the sorted keys, or the key
    itself when every live mask is a state. A key that is no state (the
    success child of an edge whose every q is 0, whose value is not used)
    gets some position."""
    if table is None:
        return flat.view(np.intp)
    return np.minimum(np.searchsorted(table, flat), len(table) - 1)


def _reachable(keys: _Keys, root: np.ndarray, budget: int) -> list:
    """The sorted flat keys reachable from `root`, per live-edge count.
    Each block's children are merged into their layers at once, and the
    budget is charged as the layers grow."""
    n_e = len(keys.word)
    layers = [root[:0]] * n_e + [root]
    total = 1
    for n_live in range(n_e, 0, -1):
        layer = layers[n_live]
        for start in range(0, len(layer), _BLOCK):
            k, e = keys.pairs(layer[start:start + _BLOCK], n_live)
            found = _unique(keys.flat(keys.children(k, e, keys.has_succ[e])))
            counts = keys.live_count(found)
            for c in np.flatnonzero(np.bincount(counts)):
                old = layers[c]
                layers[c] = _unique(np.concatenate((old, found[counts == c])))
                total += len(layers[c]) - len(old)
            if total > budget:
                raise BudgetExceeded("state budget exhausted", estimate=float(budget))
    return layers


# ---------------------------------------------------------------------------
# Star graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarPolicy:
    edges: tuple
    actions: tuple
    value: float


def star_action_table(inst: Instance, edges):
    """Per edge, its listed (action, q, r) triples. An edge with none gets a
    zero-probability placeholder, so every position has an action."""
    table = []
    for e in edges:
        acts = [(a, inst.q[(e, a)], inst.r_of(e, a)) for a in inst.A if (e, a) in inst.q]
        table.append(acts or [(inst.A[0] if inst.A else "", 0.0, 0.0)])
    return table


def _future_values_core(actions_per_position):
    k = len(actions_per_position)
    rvals = [0.0] * (k + 1)
    chosen = [None] * k
    for i in range(k - 1, -1, -1):
        best, best_a = None, None
        for a, q, r in actions_per_position[i]:
            val = r * q + (1.0 - q) * rvals[i + 1]
            if best is None or val > best:
                best, best_a = val, a
        rvals[i] = best
        chosen[i] = best_a
    return rvals, chosen


def star_opt_core(action_table, ell, state_budget: int | None = None):
    """Exact optimum over plans: distinct edges, at most `ell` of them, one
    action each; `action_table[i]` lists edge i's (action, q, r).

    For a fixed set of (edge, action) pairs, nonincreasing reward order is
    optimal (swapping adjacent pairs i, j changes the value by
    q_i q_j (r_i - r_j)). So the pairs with q r > 0 are scanned from the
    lowest reward up, each put in front of every kept plan suffix that
    does not use its edge (value r q + (1 - q) * suffix value). Per key
    (length, only when patience binds; the used edges with a pair still to
    come) only the best suffix is kept, the shorter on ties, so no plan
    goes on past a q = 1 pair. Raises `BudgetExceeded` once more plan
    states than the budget are kept. Returns (value, index order,
    actions); (0.0, (), ()) when no plan has positive value.
    """
    budget = budget_override(state_budget if state_budget is not None else DEFAULT_STAR_STATE_BUDGET)
    pairs = sorted(
        (r, i, a, q) for i, acts in enumerate(action_table) for a, q, r in acts if q > 0.0 and r > 0.0
    )
    last = {i: j for j, (_, i, _, _) in enumerate(pairs)}  # each edge's last scan position
    bounded = ell < len(last)

    def keep(states, key, state):  # state: (value, positions, plan as nested (i, a, rest))
        old = states.get(key)
        if old is None or state[0] > old[0] or (state[0] == old[0] and state[1] < old[1]):
            states[key] = state

    # the empty suffix stays apart: under unbounded patience it shares its
    # key with every suffix whose edges are all done, and would lose that
    # key to them although a shortest plan may need to start from it
    empty = ((0, 0), (0.0, 0, None))
    states = {}
    for j, (r, i, a, q) in enumerate(pairs):
        bit = 1 << i
        done = 0 if last[i] > j else bit  # once edge i is done, keys forget it
        kept = {}
        for (k, used), (val, n, plan) in chain([empty], states.items()):
            if n:  # every kept suffix stays a candidate
                keep(kept, (k, used & ~done), (val, n, plan))
            if not used & bit and not (bounded and k == ell):
                state = (r * q + (1.0 - q) * val, n + 1, (i, a, plan))
                keep(kept, (k + 1 if bounded else 0, (used | bit) & ~done), state)
        states = kept
        if len(states) > budget:
            raise BudgetExceeded(f"plan states exceed budget {budget}", estimate=float(len(states)))

    value, _, plan = max(states.values(), key=lambda state: (state[0], -state[1]), default=empty[1])
    order, actions = [], []
    while plan is not None:
        i, a, plan = plan
        order.append(i)
        actions.append(a)
    return value, tuple(order), tuple(actions)


def star_opt_bruteforce(inst: Instance, state_budget: int | None = None) -> StarPolicy:
    """Exact optimal policy for a single-online-vertex instance."""
    if len(inst.V) != 1:
        raise ValueError("star brute force needs exactly one online vertex")
    v = inst.V[0]
    edges = inst.incident_to_v(v)
    table = star_action_table(inst, edges)
    value, order, actions = star_opt_core(table, inst.patience[v], state_budget)
    return StarPolicy(
        edges=tuple(edges[i] for i in order), actions=actions, value=value
    )
