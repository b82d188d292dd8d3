"""Random-order contention resolution under a query budget.

Elements arrive in uniformly random order carrying Bernoulli suggestion
bits; a scheme may query a suggested element (revealing its success state)
as long as fewer than `patience` queries were made and nothing has been
output, and must output the first queried element whose state is 1. The
attenuation bit dampens high-mass elements so that the conditional query
probability is uniformly bounded below: by BETA for finite patience >= 2
and by 1 - 1/e for patience 1 or unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import is_infinite
from .numerics import BETA, ONE_MINUS_INV_E, attenuation_finite
from .reports import std_error, wilson_halfwidth
from .rng import chunks, stream_rng


def attenuation_infinite(s):
    """Dampening probability for patience 1 or unbounded.

    (1 - 1/e)(1 - s) / (1 - e^{-(1-s)}), extended by its limit 1 - 1/e at
    s = 1. Calibrated so the single-element worst case and the fully split
    (Poissonized) worst case both land exactly at 1 - 1/e.
    """
    arr = np.asarray(s, dtype=float)
    if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
        raise ValueError("attenuation argument must lie in [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    t = 1.0 - arr
    small = t < 1e-9
    safe_t = np.where(small, 1.0, t)
    vals = np.where(small, 1.0, safe_t / (1.0 - np.exp(-safe_t)))
    out = ONE_MINUS_INV_E * vals
    if np.isscalar(s) or np.asarray(s).ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ContentionInput:
    """Abstract scheme input: n elements, an action set, a query budget,
    and per-(element, action) state and suggestion probabilities."""

    actions: tuple
    n: int
    patience: object  # int >= 1 or INFINITE
    p: np.ndarray  # shape (n, len(actions))
    x: np.ndarray  # shape (n, len(actions))

    def aggregate_x(self) -> np.ndarray:
        return self.x.sum(axis=1)

    def aggregate_px(self) -> np.ndarray:
        return (self.p * self.x).sum(axis=1)


def make_input(actions, patience, p, x) -> ContentionInput:
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    if p.ndim == 1:
        p = p[:, None]
    if x.ndim == 1:
        x = x[:, None]
    inp = ContentionInput(actions=tuple(actions), n=p.shape[0], patience=patience, p=p, x=x)
    bad = validate_input(inp)
    if bad:
        raise ValueError("invalid scheme input: " + "; ".join(bad))
    return inp


def validate_input(inp: ContentionInput) -> list:
    out = []
    tol = 1e-9
    if inp.p.shape != (inp.n, len(inp.actions)) or inp.x.shape != inp.p.shape:
        out.append("p/x shape mismatch")
        return out
    if not (is_infinite(inp.patience) or (isinstance(inp.patience, int) and inp.patience >= 1)):
        out.append("patience must be an integer >= 1 or INFINITE")
    if np.any(inp.p < -tol) or np.any(inp.p > 1 + tol):
        out.append("state probabilities out of [0, 1]")
    if np.any(inp.x < -tol) or np.any(inp.x > 1 + tol):
        out.append("suggestion probabilities out of [0, 1]")
    if inp.x.sum() > float(inp.patience) + tol:
        out.append(f"total suggestion mass {inp.x.sum()} exceeds patience")
    if (inp.p * inp.x).sum() > 1 + tol:
        out.append(f"total state-weighted mass {(inp.p * inp.x).sum()} exceeds 1")
    rows = inp.x.sum(axis=1)
    if np.any(rows > 1 + tol):
        out.append("per-element suggestion mass exceeds 1")
    return out


def attenuation_probs(inp: ContentionInput) -> np.ndarray:
    """Per-element attenuation-bit probability under the patience rule:
    patience 1 uses the suggestion mass, unbounded patience the
    state-weighted mass, and finite patience >= 2 the finite-case curve.
    Masses are summed over actions, so a multi-action element gets the
    probability of its single-action aggregate."""
    xa = np.minimum(inp.aggregate_x(), 1.0)
    pxa = np.minimum(inp.aggregate_px(), 1.0)
    if inp.patience == 1:
        return np.asarray(attenuation_infinite(xa), dtype=float).reshape(inp.n)
    if is_infinite(inp.patience):
        return np.asarray(attenuation_infinite(pxa), dtype=float).reshape(inp.n)
    return np.asarray(attenuation_finite(pxa), dtype=float).reshape(inp.n)


# ---------------------------------------------------------------------------
# Stress-input families
# ---------------------------------------------------------------------------


def poisson_regime_input(ell, n1_elements: int = 50) -> ContentionInput:
    """Near-worst-case input: a block of `n1_elements` small-mass state-1
    elements carrying the whole state-weighted budget, plus (for finite
    patience >= 2) mass-1 state-0 elements soaking up the remaining query
    budget. As the block grows this approaches the Poissonized worst case
    that pins the selection guarantee."""
    xs, ps = [], []
    share = 1.0 / n1_elements
    for _ in range(n1_elements):
        xs.append(share)
        ps.append(1.0)
    if not is_infinite(ell) and int(ell) >= 2:
        for _ in range(int(ell) - 1):
            xs.append(1.0)
            ps.append(0.0)
    return make_input(("*",), ell if is_infinite(ell) else int(ell), ps, xs)


def single_heavy_input(ell: int, x1: float = 0.8) -> ContentionInput:
    """One heavy state-1 element plus mass-1 state-0 blockers filling the
    budget: the regime where the finite-patience availability bound is at
    its weakest, exercised to confirm the scheme itself stays above the
    guarantee."""
    if not (isinstance(ell, int) and ell >= 2):
        raise ValueError("ell must be a finite integer >= 2")
    xs, ps = [x1], [1.0]
    rem = ell - x1
    while rem > 1.0 + 1e-12:
        xs.append(1.0)
        ps.append(0.0)
        rem -= 1.0
    if rem > 1e-12:
        xs.append(rem)
        ps.append(0.0)
    return make_input(("*",), ell, ps, xs)


@dataclass(slots=True)
class SelectabilityRow:
    element: int
    action: object
    x: float
    p: float
    trials_conditioned: int
    queried: int
    estimate: float
    std_error: float
    wilson_half: float
    bound: float


def selection_bound(patience) -> float:
    if patience == 1 or is_infinite(patience):
        return ONE_MINUS_INV_E
    return BETA


def estimate_selectability(inp: ContentionInput, trials: int, seed: int) -> list[SelectabilityRow]:
    """Monte Carlo estimate of P[i queried via a | suggested via a].

    Deterministic in (input, trials, seed). Trials run in fixed-size chunks,
    each drawn from its own counter-keyed stream: one suggestion uniform per
    (trial, element), then an arrival key, an attenuation uniform and a
    state uniform per suggested (trial, element) pair only, since an
    unsuggested element never reaches the walk. The query rule is the one
    `rounding._walk_chunk` applies at each offline vertex; this walk steps
    every trial of a chunk in lockstep over the arrival rank of one input's
    suggested elements.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, n_a = inp.n, len(inp.actions)
    bprob = attenuation_probs(inp)
    x_cum = np.cumsum(inp.x, axis=1)  # suggestion thresholds per element

    cond = np.zeros((n, n_a), dtype=np.int64)
    hits = np.zeros((n, n_a), dtype=np.int64)

    for chunk_idx, _, c in chunks(trials):
        rng = stream_rng(seed, "prcrs-mc", chunk_idx)
        u_sug = rng.uniform(0.0, 1.0, (c, n))
        # suggested (trial, element) pairs in trial-major order; the action
        # is the number of the element's thresholds at or below its uniform
        t_sug, i_sug = np.nonzero(u_sug < x_cum[:, -1])
        u = u_sug[t_sug, i_sug]
        del u_sug  # freed before the next chunk draws its own
        a_sug = (x_cum[i_sug, :-1] <= u[:, None]).sum(axis=1)
        ykey = rng.uniform(0.0, 1.0, u.size)
        b_bits = rng.uniform(0.0, 1.0, u.size) < bprob[i_sug]
        s_bits = rng.uniform(0.0, 1.0, u.size) < inp.p[i_sug, a_sug]
        flat = i_sug * n_a + a_sug
        cond += np.bincount(flat, minlength=n * n_a).reshape(n, n_a)

        # each trial's suggested pairs in arrival order, stepped in lockstep
        # over arrival rank through per-trial offsets; ties keep element order
        order = np.argsort(t_sug + ykey, kind="stable")
        n_sug = np.bincount(t_sug, minlength=c)
        first = np.cumsum(n_sug) - n_sug
        budget = np.full(c, inp.patience, dtype=float)
        out = np.zeros(c, dtype=bool)
        queried = np.zeros(u.size, dtype=bool)
        t = np.arange(c)
        for rank in range(int(n_sug.max(initial=0))):
            t = t[n_sug[t] > rank]
            k = order[first[t] + rank]
            query = ~out[t] & b_bits[k] & (budget[t] > 0)
            tq, kq = t[query], k[query]
            queried[kq] = True
            budget[tq] -= 1
            out[tq] = s_bits[kq]
        hits += np.bincount(flat[queried], minlength=n * n_a).reshape(n, n_a)

    bound = selection_bound(inp.patience)
    rows_out = []
    for i in range(n):
        for a in range(n_a):
            if inp.x[i, a] <= 0.0:
                continue
            nc = int(cond[i, a])
            h = int(hits[i, a])
            est = h / nc if nc else 0.0
            rows_out.append(
                SelectabilityRow(
                    element=i,
                    action=inp.actions[a],
                    x=float(inp.x[i, a]),
                    p=float(inp.p[i, a]),
                    trials_conditioned=nc,
                    queried=h,
                    estimate=est,
                    std_error=std_error(h, nc),
                    wilson_half=wilson_halfwidth(h, nc),
                    bound=bound,
                )
            )
    return rows_out
