"""End-to-end experiment orchestration: solve, round, simulate, report.

Experiments are pure functions of their config (instance source, pipeline,
trials, seed); all randomness flows from the seed through named substreams,
so reports are byte-identical across runs. Suites aggregate experiments
into a CSV table with a pass/fail verdict per row.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

from . import rounding
from .contention import selection_bound
from .exact import BudgetExceeded, opt_dp
from .instances import INFINITE, Instance, load_instance, random_instance, require_valid
from .lp import solve_edge_lp, solve_lp_c_colgen, solve_lp_c_explicit
from .numerics import ONE_MINUS_INV_E
from .reports import SimReport, make_report

PIPELINES = ("lp-m+greedy", "lp-c+full", "lp-c+greedy", "lp-c-colgen+full")

# classical guarantee of the edge-order rounding template, used as the
# default pass threshold for the lp-m pipeline
EDGE_TEMPLATE_RATIO = 0.31
GREEDY_RATIO = (4 - math.e) / math.e


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    pipeline: str
    trials: int
    seed: int
    instance_file: str | None = None
    generator: dict | None = None
    eps: float | None = None
    compute_opt: str = "auto"  # "auto" | "yes" | "no"
    threshold_ratio: float | None = None
    out: str | None = None
    experiment_id: str = "exp"

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {
            "id", "pipeline", "trials", "seed", "instance", "generator", "eps",
            "compute_opt", "threshold_ratio", "out",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(
            pipeline=doc.get("pipeline", "lp-c+full"),
            trials=doc.get("trials", 0),
            seed=doc.get("seed", 0),
            instance_file=doc.get("instance"),
            generator=doc.get("generator"),
            eps=doc.get("eps"),
            compute_opt=doc.get("compute_opt", "auto"),
            threshold_ratio=doc.get("threshold_ratio"),
            out=doc.get("out"),
            experiment_id=str(doc.get("id", "exp")),
        )


def validate_config(cfg: ExperimentConfig) -> list:
    out = []
    if cfg.pipeline not in PIPELINES:
        out.append(f"pipeline: unknown {cfg.pipeline!r}")
    if cfg.trials < 1:
        out.append("trials: must be >= 1")
    if (cfg.instance_file is None) == (cfg.generator is None):
        out.append("instance: exactly one of instance file or generator required")
    if cfg.instance_file is not None and not os.path.exists(cfg.instance_file):
        out.append(f"instance: file not found: {cfg.instance_file}")
    if cfg.pipeline.startswith("lp-c-colgen"):
        if cfg.eps is None or not (0 < cfg.eps < 1):
            out.append("eps: required in (0, 1) for column generation")
    return out


def _load(cfg: ExperimentConfig) -> Instance:
    if cfg.instance_file:
        return require_valid(load_instance(cfg.instance_file))
    g = dict(cfg.generator or {})
    pat = g.get("patience_range", (1, 2))
    pat = tuple(INFINITE if p in ("inf", INFINITE) else int(p) for p in pat)
    return random_instance(
        seed=g.get("seed", cfg.seed),
        n_u=g.get("n_u", 2),
        n_v=g.get("n_v", 2),
        n_a=g.get("n_a", 1),
        patience_range=pat,
    )


def guarantee_ratio(inst: Instance) -> float:
    return min((selection_bound(inst.patience[u]) for u in inst.U), default=ONE_MINUS_INV_E)


def default_threshold(cfg: ExperimentConfig, inst: Instance) -> float:
    # column generation prices exactly, so its LP value is the configuration
    # LP's and the full pipeline's guarantee applies unrelaxed
    if cfg.threshold_ratio is not None:
        return cfg.threshold_ratio
    if cfg.pipeline == "lp-m+greedy":
        return EDGE_TEMPLATE_RATIO
    if cfg.pipeline == "lp-c+greedy":
        return GREEDY_RATIO
    return guarantee_ratio(inst)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    report: SimReport
    lp_value: float
    opt_value: float | None
    threshold: float
    passed: bool
    n_columns: int
    rewards: list = field(default_factory=list, repr=False)

    def as_dict(self) -> dict:
        return {
            "id": self.config.experiment_id,
            "pipeline": self.config.pipeline,
            "seed": self.config.seed,
            "trials": self.config.trials,
            "lp_value": self.lp_value,
            "opt_value": self.opt_value,
            "n_columns": self.n_columns,
            "threshold": self.threshold,
            "passed": self.passed,
            "report": self.report.as_dict(),
        }


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    bad = validate_config(cfg)
    if bad:
        raise ConfigError("; ".join(bad))
    inst = _load(cfg)

    n_columns = 0
    if cfg.pipeline == "lp-m+greedy":
        edge = solve_edge_lp(inst)
        lp_value = edge.value
        rewards = rounding.simulate_edge_lp(edge.z, inst, cfg.trials, cfg.seed)
    else:
        if cfg.pipeline == "lp-c-colgen+full":
            sol = solve_lp_c_colgen(inst, eps=cfg.eps)
        else:
            sol = solve_lp_c_explicit(inst)
        n_columns = sol.n_columns
        lp_value = sol.objective
        policy = "greedy" if cfg.pipeline.endswith("greedy") else "full"
        rewards, _ = rounding.simulate(sol, inst, policy, cfg.trials, cfg.seed)

    opt_value = None
    if cfg.compute_opt == "yes" or cfg.compute_opt == "auto":
        try:
            opt_value = opt_dp(inst, state_budget=int(5e5) if cfg.compute_opt == "auto" else None).value
        except BudgetExceeded:
            if cfg.compute_opt == "yes":
                raise
    mean = float(rewards.mean())
    var = float(rewards.var(ddof=1)) if cfg.trials > 1 else 0.0
    report = make_report(mean, var, cfg.trials, lp_value=lp_value, opt_value=opt_value)
    threshold = default_threshold(cfg, inst)
    sigma = math.sqrt(var / cfg.trials) if cfg.trials > 1 else 0.0
    passed = mean >= threshold * lp_value - 4 * sigma
    result = ExperimentResult(
        config=cfg,
        report=report,
        lp_value=lp_value,
        opt_value=opt_value,
        threshold=threshold,
        passed=passed,
        n_columns=n_columns,
        rewards=rewards.tolist(),
    )
    if cfg.out:
        write_artifacts(result, cfg.out)
    return result


def write_artifacts(result: ExperimentResult, prefix: str) -> None:
    """JSON report plus a CSV trial log; stable key order, no timestamps."""
    os.makedirs(os.path.dirname(prefix) or ".", exist_ok=True)
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(result.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(prefix + ".csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "reward"])
        for t, r in enumerate(result.rewards):
            writer.writerow([t, repr(r)])


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

SUITE_COLUMNS = [
    "id", "pipeline", "lp_value", "opt_value", "mean", "half_width",
    "ratio_vs_lp", "threshold", "passed",
]


def _run_entry(doc: dict) -> dict:
    cfg = ExperimentConfig.from_dict(doc)
    res = run_experiment(cfg)
    return {
        "id": cfg.experiment_id,
        "pipeline": cfg.pipeline,
        "lp_value": res.lp_value,
        "opt_value": res.opt_value if res.opt_value is not None else "",
        "mean": res.report.mean,
        "half_width": res.report.half_width,
        "ratio_vs_lp": res.report.ratio_vs_lp if res.report.ratio_vs_lp is not None else "",
        "threshold": res.threshold,
        "passed": res.passed,
    }


def run_suite(manifest, out_path: str | None = None, workers: int = 1, id_filter: str | None = None):
    """Run every experiment in a manifest; returns (rows, all_passed).

    The manifest is a path or dict with an "experiments" list. Rows merge
    deterministically by experiment id. An empty post-filter list is a
    config error.
    """
    if isinstance(manifest, (str, os.PathLike)):
        with open(manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    entries = manifest.get("experiments")
    if not entries:
        raise ConfigError("manifest lists no experiments")
    if id_filter:
        entries = [e for e in entries if id_filter in str(e.get("id", ""))]
        if not entries:
            raise ConfigError(f"no experiments match filter {id_filter!r}")
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_entry, entries))
    else:
        rows = [_run_entry(e) for e in entries]
    rows.sort(key=lambda r: r["id"])
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(suite_table(rows))
    return rows, all(r["passed"] for r in rows)


def suite_table(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SUITE_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
