"""The four benchmark workloads.

A workload turns a seed into inputs (`prepare`, the timed set-up), lists
the operations one round runs (`ops`), computes the references its checks
need once (`references`), and checks one round's outputs (`check`). Every
round runs the same operations on the same inputs, so a round's outputs
are checked the same way whichever round it was.

Input make-up is fixed here; only q, r and (where a range is given)
patience are drawn from the seed. Instance k of a workload is generated
by `random_instance(subseed(seed, k), ...)`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from itertools import permutations

import numpy as np

import bench_reference as ref
from bench_reference import Z

INF = math.inf
BETA = (19.0 - 67.0 * math.exp(-3.0)) / 27.0
ONE_MINUS_INV_E = 1.0 - math.exp(-1.0)
COLGEN_EPS = 0.01
# The harness reports a 95% half-width, 1.96 standard errors.
HALF_WIDTH_Z = 1.96


def subseed(seed: int, k: int) -> int:
    return seed * 1000 + k


def guarantee(inst) -> float:
    """Selection guarantee of the full policy: 1 - 1/e when every offline
    vertex has patience 1 or unbounded, beta otherwise."""
    one_sided = all(inst.patience[u] in (1, INF) for u in inst.U)
    return ONE_MINUS_INV_E if one_sided else BETA


def star_optimum(inst) -> float:
    """Best ordered plan on a star by enumerating every edge order."""
    v = inst.V[0]
    edges = [(u, v) for u in inst.U if any(((u, v), a) in inst.q for a in inst.A)]
    ell = inst.patience[v]
    kmax = len(edges) if ell == INF else min(int(ell), len(edges))
    best = 0.0
    for k in range(1, kmax + 1):
        for order in permutations(edges, k):
            val = 0.0
            for e in reversed(order):
                val = max(
                    inst.r.get((e, a), 0.0) * inst.q.get((e, a), 0.0)
                    + (1.0 - inst.q.get((e, a), 0.0)) * val
                    for a in inst.A
                )
            best = max(best, val)
    return best


class Workload:
    name = ""

    def __init__(self, qc: dict, scale: str = "full"):
        self.qc = qc  # short module name -> imported qcmatch module
        self.scale = scale

    def prepare(self, seed: int, workdir: str):
        raise NotImplementedError

    def ops(self, state) -> list:
        raise NotImplementedError

    def run_round(self, state):
        """Run every operation once; returns (outputs, op seconds, failed count)."""
        outputs, times, failed = [], [], 0
        for _label, fn in self.ops(state):
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # an operation that raises counts as failed
                out = exc
                failed += 1
            times.append(time.perf_counter() - t0)
            outputs.append(out)
        return outputs, times, failed

    def references(self, state) -> dict:
        raise NotImplementedError

    def check(self, state, refs, outputs) -> list:
        raise NotImplementedError


def _mean_checks(tag, rewards, lp_value, problems, opt=None, floor=None, exact=False):
    """Monte Carlo mean against its LP value: never above LP (or the optimum)
    by more than Z sigma, not below `floor` by more, and within Z sigma of
    the LP when `exact` says its expectation equals the LP."""
    mean, sigma = ref.mean_sigma(rewards)
    if mean > lp_value + Z * sigma + 1e-12:
        problems.append(f"{tag}: mean {mean} above LP {lp_value} + {Z} sigma ({sigma})")
    if opt is not None and mean > opt + Z * sigma + 1e-12:
        problems.append(f"{tag}: mean {mean} above the optimum {opt} + {Z} sigma ({sigma})")
    if floor is not None and mean < floor - Z * sigma - 1e-12:
        problems.append(f"{tag}: mean {mean} below its guarantee {floor} - {Z} sigma ({sigma})")
    if exact and abs(mean - lp_value) > Z * sigma + 1e-12:
        problems.append(f"{tag}: mean {mean} not within {Z} sigma ({sigma}) of LP {lp_value}")


def _close(tag, value, expected, problems):
    if not ref._close(value, expected):
        problems.append(f"{tag}: value {value!r}, reference {expected!r}")


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


class Pipeline(Workload):
    name = "pipeline"

    # (pipeline, |U|, |V|, |A|, patience, trials). Patience is one value per
    # instance: with every q strictly inside (0, 1) the states opt_dp visits
    # then depend on the sizes and patience alone, not on the seed.
    DESK = (
        ("lp-m+greedy", 2, 2, 1, 1, 4000),
        ("lp-c+full", 2, 3, 2, 2, 4000),
        ("lp-c+greedy", 3, 2, 1, 3, 4000),
        ("lp-c-colgen+full", 3, 3, 2, INF, 4000),
        ("lp-m+greedy", 3, 4, 2, 2, 4000),
        ("lp-c+full", 4, 3, 1, INF, 4000),
        ("lp-c+greedy", 4, 2, 2, 1, 4000),
        ("lp-c-colgen+full", 4, 4, 2, 1, 4000),
        ("lp-m+greedy", 3, 3, 2, 3, 4000),
        ("lp-c+full", 3, 3, 1, 2, 4000),
        ("lp-c+greedy", 3, 3, 2, INF, 4000),
        ("lp-c-colgen+full", 3, 3, 1, 1, 4000),
    )
    # Every desk shape runs on four instances. The last experiment takes more
    # than half of a round: it has 18 edges, which pass opt_dp's 2^|E| check;
    # its states then run past the harness's 5e5 budget and the optimum is
    # dropped. The more desk experiments a round holds, the more of a run
    # the experiments around the median take, which steadies op_p50_ms.
    FULL = DESK * 4 + (("lp-c-colgen+full", 6, 3, 2, INF, 4000),)
    TINY = (
        ("lp-m+greedy", 2, 2, 1, 1, 500),
        ("lp-c+full", 2, 2, 2, 2, 500),
        ("lp-c+greedy", 2, 2, 1, INF, 500),
        ("lp-c-colgen+full", 2, 3, 1, INF, 500),
    )

    def prepare(self, seed, workdir):
        inst_mod = self.qc["instances"]
        experiments, instances = [], {}
        specs = self.FULL if self.scale == "full" else self.TINY
        for k, (pipeline, n_u, n_v, n_a, pat, trials) in enumerate(specs):
            exp_id = f"e{k:02d}"
            inst = inst_mod.random_instance(subseed(seed, k), n_u, n_v, n_a, patience_range=(pat,))
            path = f"{workdir}/{exp_id}.json"
            inst_mod.save_instance(inst, path)
            entry = {"id": exp_id, "pipeline": pipeline, "trials": trials, "seed": subseed(seed, k), "instance": path}
            if pipeline.startswith("lp-c-colgen"):
                entry["eps"] = COLGEN_EPS
            experiments.append(entry)
            instances[exp_id] = inst
        manifest = f"{workdir}/manifest.json"
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump({"experiments": experiments}, fh)
        return {"manifest": manifest, "experiments": experiments, "instances": instances}

    def run_round(self, state):
        harness, cli = self.qc["harness"], self.qc["cli"]
        inner = harness.run_experiment
        times = []

        def timed(cfg):
            t0 = time.perf_counter()
            try:
                return inner(cfg)
            finally:
                times.append(time.perf_counter() - t0)

        out = io.StringIO()
        harness.run_experiment = timed
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["suite", state["manifest"], "--workers", "1"])
        except Exception as exc:  # the suite stops at the first failing experiment
            return [exc] * len(state["experiments"]), times, len(state["experiments"])
        finally:
            harness.run_experiment = inner
        rows = {r["id"]: r for r in csv.DictReader(io.StringIO(out.getvalue()))}
        outputs = [dict(rows.get(e["id"], {}), exit_code=code) for e in state["experiments"]]
        failed = 0 if code in (0, 1) else len(outputs)
        return outputs, times, failed

    def references(self, state):
        return {
            k: {"edge": ref.edge_lp_value(inst), "config": ref.config_lp_value(inst)}
            for k, inst in state["instances"].items()
        }

    def check(self, state, refs, outputs):
        problems = []
        for entry, row in zip(state["experiments"], outputs):
            if isinstance(row, Exception):
                continue
            k, pipeline = entry["id"], entry["pipeline"]
            inst, r = state["instances"][k], refs[k]
            # The row's own pass flag uses 4 sigma; the checks below use Z.
            if "mean" not in row:
                problems.append(f"{k}: no row in the suite table (exit code {row.get('exit_code')})")
                continue
            lp_value, mean = float(row["lp_value"]), float(row["mean"])
            sigma = float(row["half_width"]) / HALF_WIDTH_Z
            opt = float(row["opt_value"]) if row["opt_value"] != "" else None
            if pipeline == "lp-m+greedy":
                _close(f"{k} edge LP", lp_value, r["edge"], problems)
            elif pipeline.startswith("lp-c-colgen"):
                if lp_value > r["edge"] * (1 + ref.LP_RTOL):
                    problems.append(f"{k}: column generation {lp_value} above the edge LP {r['edge']}")
                if r["config"] is not None and not (
                    (1 - COLGEN_EPS) * r["config"] - 1e-12 <= lp_value <= r["config"] * (1 + ref.LP_RTOL)
                ):
                    problems.append(f"{k}: column generation {lp_value} not within eps of {r['config']}")
            elif r["config"] is not None:
                _close(f"{k} configuration LP", lp_value, r["config"], problems)
            upper = r["config"] if r["config"] is not None else r["edge"]
            if opt is not None:
                if opt > upper * (1 + ref.LP_RTOL) + 1e-12:
                    problems.append(f"{k}: optimum {opt} above its LP {upper}")
                if mean > opt + Z * sigma + 1e-12:
                    problems.append(f"{k}: mean {mean} above the optimum {opt} + {Z} sigma")
            if mean > lp_value + Z * sigma + 1e-12:
                problems.append(f"{k}: mean {mean} above LP {lp_value} + {Z} sigma")
            if pipeline.endswith("+full") and mean < guarantee(inst) * lp_value - Z * sigma - 1e-12:
                problems.append(f"{k}: mean {mean} below its guarantee times LP {lp_value}")
        return problems


# ---------------------------------------------------------------------------
# lp-scale
# ---------------------------------------------------------------------------


class LpScale(Workload):
    name = "lp-scale"

    # (|U| = |V|, patience of every vertex); |A| = 2 throughout.
    # The time of one solve varies with the seed by a factor of two or more
    # at every size, so the median of a few solves of mixed sizes moves from
    # seed to seed. Forty 8x8 solves at patience 2 make up most operations:
    # the median operation is then the median of forty like solves, which
    # the seed moves little. One solve each of the other sizes and patience
    # values, and the edge LP at the two ends of its range (at 10x10 its
    # time varies with the seed by a factor of three), carry most of the time.
    FULL_COLGEN = ((8, 2),) * 40 + (
        (8, 3), (10, 2), (10, 3), (12, 2), (12, 3), (14, 2), (16, 2), (18, 2), (20, 2),
    )
    FULL_EDGE = ((8, 2), (12, 2))
    TINY_COLGEN = ((4, 2), (5, 3))
    TINY_EDGE = ((4, 2),)

    def prepare(self, seed, workdir):
        ri = self.qc["instances"].random_instance
        full = self.scale == "full"
        colgen = [
            ri(subseed(seed, k), n, n, 2, patience_range=(p,))
            for k, (n, p) in enumerate(self.FULL_COLGEN if full else self.TINY_COLGEN)
        ]
        edge = [
            ri(subseed(seed, 100 + k), n, n, 2, patience_range=(p,))
            for k, (n, p) in enumerate(self.FULL_EDGE if full else self.TINY_EDGE)
        ]
        return {"colgen": colgen, "edge": edge}

    def ops(self, state):
        lp = self.qc["lp"]
        out = [(f"colgen {len(i.U)}", lambda i=i: lp.solve_lp_c_colgen(i, eps=COLGEN_EPS)) for i in state["colgen"]]
        out += [(f"edge {len(i.U)}", lambda i=i: lp.solve_edge_lp(i)) for i in state["edge"]]
        return out

    def references(self, state):
        return {
            "colgen_edge": [ref.edge_lp_value(i) for i in state["colgen"]],
            "colgen_config": [ref.config_lp_value(i) for i in state["colgen"]],
            "edge": [ref.edge_lp_value(i) for i in state["edge"]],
        }

    def check(self, state, refs, outputs):
        problems = []
        n_cg = len(state["colgen"])
        for k, (inst, sol) in enumerate(zip(state["colgen"], outputs[:n_cg])):
            if isinstance(sol, Exception):
                continue
            tag = f"colgen {len(inst.U)}x{len(inst.V)} #{k}"
            problems += [f"{tag}: {p}" for p in ref.plan_mix_problems(inst, sol.weights, sol.objective)]
            if sol.objective > refs["colgen_edge"][k] * (1 + ref.LP_RTOL):
                problems.append(f"{tag}: value {sol.objective} above the edge LP {refs['colgen_edge'][k]}")
            config = refs["colgen_config"][k]
            if config is not None and not (
                (1 - COLGEN_EPS) * config - 1e-12 <= sol.objective <= config * (1 + ref.LP_RTOL)
            ):
                problems.append(f"{tag}: value {sol.objective} not within eps of the configuration LP {config}")
        for k, (inst, res) in enumerate(zip(state["edge"], outputs[n_cg:])):
            if not isinstance(res, Exception):
                _close(f"edge LP {len(inst.U)}x{len(inst.V)}", res.value, refs["edge"][k], problems)
        return problems


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


class MonteCarlo(Workload):
    name = "montecarlo"

    def _sizes(self):
        if self.scale == "full":
            return {"big": 10, "small_trials": 16384, "big_full": 8192, "big_other": 4096, "sel": 16384, "logged": 150}
        return {"big": 4, "small_trials": 1024, "big_full": 1024, "big_other": 512, "sel": 1024, "logged": 6}

    def prepare(self, seed, workdir):
        qc, sz = self.qc, self._sizes()
        ri, lp, ct = qc["instances"].random_instance, qc["lp"], qc["contention"]
        small = ri(subseed(seed, 0), 3, 3, 2, patience_range=(INF,))
        big = ri(subseed(seed, 1), sz["big"], sz["big"], 2, patience_range=(3,))
        inputs = [(f"poisson l={ell}", ct.poisson_regime_input(ell)) for ell in (1, 2, 3, INF)]
        inputs.append(("single heavy l=3", ct.single_heavy_input(3)))
        return {
            "seed": seed,
            "small": small,
            "big": big,
            "sol_small": lp.solve_lp_c_explicit(small),
            "sol_big": lp.solve_lp_c_colgen(big, eps=COLGEN_EPS),
            "edge_small": lp.solve_edge_lp(small),
            "inputs": inputs,
        }

    def _sims(self):
        sz = self._sizes()
        return [
            ("small", "full", sz["small_trials"]),
            ("small", "greedy", sz["small_trials"]),
            ("small", "relaxed", sz["small_trials"]),
            ("big", "full", sz["big_full"]),
            ("big", "greedy", sz["big_other"]),
            ("big", "relaxed", sz["big_other"]),
        ]

    def ops(self, state):
        rd, ct = self.qc["rounding"], self.qc["contention"]
        sz, seed = self._sizes(), state["seed"]
        out = []
        for k, (which, policy, trials) in enumerate(self._sims()):
            inst, sol = state[which], state[f"sol_{which}"]
            out.append((
                f"simulate {which} {policy}",
                lambda inst=inst, sol=sol, policy=policy, trials=trials, k=k: rd.simulate(
                    sol, inst, policy, trials, subseed(seed, 10 + k), count_suggestions=policy == "full"
                ),
            ))
        out.append((
            "simulate_edge_lp small",
            lambda: rd.simulate_edge_lp(state["edge_small"].z, state["small"], sz["small_trials"], subseed(seed, 20)),
        ))
        for k, (label, inp) in enumerate(state["inputs"]):
            out.append((
                f"selectability {label}",
                lambda inp=inp, k=k: ct.estimate_selectability(inp, sz["sel"], subseed(seed, 30 + k)),
            ))

        def logged():
            audits = []
            for t in range(sz["logged"]):
                policy = ("full", "greedy", "relaxed")[t % 3]
                outcome = rd.run_once(state["sol_small"], state["small"], subseed(seed, 40), policy=policy, trial=t)
                audits.append(rd.audit_outcome(outcome, state["sol_small"], state["small"]))
            return audits

        out.append(("logged trials", logged))
        return out

    def references(self, state):
        small, big = state["small"], state["big"]
        return {
            "opt_small": self.qc["exact"].opt_dp(small).value,
            "config_small": ref.config_lp_value(small),
            "edge_small": ref.edge_lp_value(small),
            "edge_big": ref.edge_lp_value(big),
            "config_big": ref.config_lp_value(big),
        }

    def check(self, state, refs, outputs):
        problems = []
        small, big = state["small"], state["big"]
        sol_small, sol_big = state["sol_small"], state["sol_big"]
        # the LPs the simulations consume
        _close("configuration LP small", sol_small.objective, refs["config_small"], problems)
        _close("edge LP small", state["edge_small"].value, refs["edge_small"], problems)
        for tag, inst, sol, config, edge in (
            ("small", small, sol_small, refs["config_small"], refs["edge_small"]),
            ("big", big, sol_big, refs["config_big"], refs["edge_big"]),
        ):
            problems += [f"LP {tag}: {p}" for p in ref.plan_mix_problems(inst, sol.weights, sol.objective)]
            if sol.objective > edge * (1 + ref.LP_RTOL):
                problems.append(f"LP {tag}: value {sol.objective} above the edge LP {edge}")
            if config is not None and sol.objective < (1 - COLGEN_EPS) * config - 1e-12:
                problems.append(f"LP {tag}: value {sol.objective} below the configuration LP {config}")
        sims = self._sims()
        for (which, policy, trials), out in zip(sims, outputs):
            if isinstance(out, Exception):
                continue
            inst, sol = state[which], state[f"sol_{which}"]
            rewards, counts = out
            tag = f"simulate {which} {policy}"
            _mean_checks(
                tag, rewards, sol.objective, problems,
                # relaxed rounding ignores the offline side, so only its
                # expectation (the LP value) bounds it, not the optimum
                opt=refs["opt_small"] if which == "small" and policy != "relaxed" else None,
                floor=guarantee(inst) * sol.objective if policy == "full" else None,
                exact=policy == "relaxed",
            )
            if policy == "full":
                for key in set(counts) | set(sol.marginals):
                    count, z = counts.get(key, 0), sol.marginals.get(key, 0.0)
                    if not 0 <= count <= trials:
                        problems.append(f"{tag}: {count} suggestions of {key} in {trials} trials")
                        continue
                    lo, hi = ref.wilson_interval(count, trials)
                    if not lo - 1e-12 <= z <= hi + 1e-12:
                        problems.append(f"{tag}: suggestion frequency of {key} in [{lo}, {hi}], marginal {z}")
        n = len(sims)
        rewards = outputs[n]
        if not isinstance(rewards, Exception):
            _mean_checks(
                "simulate_edge_lp small", rewards, state["edge_small"].value, problems, opt=refs["opt_small"]
            )
        for (label, inp), rows in zip(state["inputs"], outputs[n + 1 : n + 1 + len(state["inputs"])]):
            if isinstance(rows, Exception):
                continue
            bound = ONE_MINUS_INV_E if inp.patience in (1, INF) else BETA
            for row in rows:
                if row.trials_conditioned == 0:
                    continue
                _, hi = ref.wilson_interval(row.queried, row.trials_conditioned)
                if hi < bound - 1e-12:
                    problems.append(f"selectability {label} element {row.element}: {row.estimate} below {bound}")
        audits = outputs[-1]
        if not isinstance(audits, Exception):
            for t, found in enumerate(audits):
                if found:
                    problems.append(f"logged trial {t}: audit reports {found}")
        return problems


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


class Certify(Workload):
    name = "certify"

    # EPTAS stars (offline vertices, actions, patience) from the criterion-9
    # family (2 to 6 edges, 1 or 2 actions, patience <= edges). With eight of
    # them the median operation falls among EPTAS calls of like size, which
    # fill about half of a round, so op_p50_ms rests on many samples.
    FULL_EPTAS = ((2, 1, 1), (2, 2, 2), (3, 1, 3), (3, 2, 2), (4, 1, 3), (4, 2, 2), (5, 2, 3), (6, 1, 2))
    TINY_EPTAS = ((2, 1, 1),)

    def prepare(self, seed, workdir):
        ri = self.qc["instances"].random_instance
        full = self.scale == "full"
        rng = np.random.default_rng(subseed(seed, 0))
        stars = []
        for k in range(24 if full else 4):
            # criterion-10 family: 1 to 4 offline vertices, 1 or 2 actions
            n, n_a = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            stars.append(ri(subseed(seed, 100 + k), n, 1, n_a, patience_range=(1, 2, 3, INF)))
        desk = []
        for k in range(6 if full else 2):
            n_u, n_v, n_a = int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 3))
            desk.append(ri(subseed(seed, 200 + k), n_u, n_v, n_a, patience_range=(1, 2, INF)))
        eptas_stars = [
            ri(subseed(seed, 300 + k), n, 1, n_a, patience_range=(ell,))
            for k, (n, n_a, ell) in enumerate(self.FULL_EPTAS if full else self.TINY_EPTAS)
        ]
        half = len(stars) // 2
        return {"star_batches": [stars[:half], stars[half:]], "desk": desk, "eptas": eptas_stars}

    def _plan(self, state):
        """(kind, input, operation) per operation of a round."""
        ex, lp, ep, nm = self.qc["exact"], self.qc["lp"], self.qc["eptas"], self.qc["numerics"]
        full = self.scale == "full"
        plan = [
            ("stars", b, lambda b=b: [(ex.opt_dp(i).value, ex.star_opt_bruteforce(i).value) for i in b])
            for b in state["star_batches"]
        ]
        plan.append((
            "desk", state["desk"],
            lambda: [(ex.opt_dp(i).value, lp.solve_lp_c_explicit(i).objective) for i in state["desk"]],
        ))
        plan += [
            ("suite", None, lambda: nm.verify_attenuation_properties(n_grid=1000 if full else 100)),
            ("suite", None, lambda: nm.verify_bennett(n_grid=201 if full else 21)),
            ("suite", None, lambda: nm.verify_final_bounds(n_grid=1000 if full else 100)),
            ("suite", None, lambda: nm.verify_patience2_exchange(n_grid=50 if full else 10)),
            # the mass-monotonicity suite: patience >= 4, where it holds, and
            # patience 3, whose zero-mass counterexample is checked by quadrature
            ("fl", None, lambda: (
                nm.verify_midrange_monotonicity(ells=(4, 5, 10, 50, 119), n_grid=20 if full else 4),
                nm.verify_midrange_monotonicity(ells=(3,), n_grid=40 if full else 11),
            )),
        ]
        plan += [("eptas", i, lambda i=i: ep.eptas(i, 0.5)[0]) for i in state["eptas"]]
        return plan

    def ops(self, state):
        return [(kind, fn) for kind, _, fn in self._plan(state)]

    def references(self, state):
        return {
            "stars": [[star_optimum(i) for i in b] for b in state["star_batches"]],
            "desk": [ref.config_lp_value(i) for i in state["desk"]],
            "eptas": [star_optimum(i) for i in state["eptas"]],
            "anchors": ref.mpmath_anchors(),
        }

    def check(self, state, refs, outputs):
        problems = []
        anchors = refs["anchors"]
        beta = self.qc["numerics"].BETA
        if abs(beta - anchors["beta"]) > 1e-15:
            problems.append(f"beta {beta!r}, mpmath {anchors['beta']!r}")
        n_batch = n_eptas = 0
        for (kind, data, _), out in zip(self._plan(state), outputs):
            if kind == "stars":
                expected = refs["stars"][n_batch]
                n_batch += 1
            elif kind == "eptas":
                optimum = refs["eptas"][n_eptas]
                n_eptas += 1
            if isinstance(out, Exception):
                continue
            if kind == "stars":
                for (dp, brute), enum in zip(out, expected):
                    if abs(dp - brute) > 1e-9 or abs(brute - enum) > 1e-9:
                        problems.append(f"star: opt_dp {dp}, star brute force {brute}, enumeration {enum}")
            elif kind == "desk":
                for k, ((dp, lp_value), config) in enumerate(zip(out, refs["desk"])):
                    _close(f"desk {k} configuration LP", lp_value, config, problems)
                    if dp > lp_value + 1e-9:
                        problems.append(f"desk {k}: optimum {dp} above the configuration LP {lp_value}")
            elif kind == "eptas":
                found = ref.star_policy_problems(data, out.edges, out.actions, out.value, optimum)
                problems += [f"eptas star {n_eptas - 1}: {p}" for p in found]
            elif kind == "fl":
                high, three = out
                if high.min_margin < -1e-9:
                    problems.append(f"suite fl, patience >= 4: margin {high.min_margin} at {high.witness}")
                ell, x1, m = three.witness
                margin = ref.availability_gl(ell, x1, m) - ref.availability_gl(ell, x1, 1.0 - x1)
                if abs(three.min_margin - margin) > 1e-8:
                    problems.append(f"suite fl, patience 3: margin {three.min_margin!r} at {three.witness}, quadrature {margin!r}")
            else:
                if out.min_margin < -1e-9:
                    problems.append(f"suite {out.suite}: margin {out.min_margin} at {out.witness}")
                found = out.extras.get("bennett_at_1")
                if found is not None and abs(found - anchors["bennett_at_1"]) > 1e-8:
                    problems.append(f"suite {out.suite}: bennett(1) {found!r}, mpmath {anchors['bennett_at_1']!r}")
        return problems


WORKLOADS = {w.name: w for w in (Pipeline, LpScale, MonteCarlo, Certify)}
