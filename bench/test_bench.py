"""Tests of the benchmark itself, at the tiny sizes (`scale="tiny"`).

Each workload runs end to end, timed and traced; each kind of correctness
check is shown to fail on a perturbed output; BENCHMARK.json names exactly
the metrics the code prints; and run.py refuses to run without sources.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench_core
import bench_trace
import compare

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _tiny(name, workdir, seed=3):
    """(workload, state, references, one round's outputs) at the tiny sizes."""
    mods = bench_core.import_qcmatch()
    import bench_workloads

    wl = bench_workloads.WORKLOADS[name](mods, "tiny")
    state = wl.prepare(seed, str(workdir))
    outputs, times, failed = wl.run_round(state)
    assert failed == 0 and len(times) == len(outputs)
    refs = wl.references(state)
    assert wl.check(state, refs, outputs) == []
    return wl, state, refs, outputs


def test_spec_matches_code():
    import bench_workloads

    # lp-scale runs from the command line but is not in BENCHMARK.json
    assert [w["name"] for w in SPEC["workloads"]] == [w for w in bench_core.WORKLOAD_NAMES if w != "lp-scale"]
    assert list(bench_workloads.WORKLOADS) == list(bench_core.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench_core.END_TO_END_UNITS
    names = set(bench_trace.layer_metrics({}, 1.0)) | {"trace.overhead_s"}
    assert {m["name"] for m in SPEC["per_layer"]} == names
    for m in SPEC["per_layer"]:
        assert m["unit"] == bench_trace.metric_unit(m["name"])


@pytest.mark.parametrize("name", bench_core.WORKLOAD_NAMES)
def test_workload_end_to_end(name):
    result, table, problems, info = bench_core.run(name, seed=5, seconds=0.0, trace=False, scale="tiny")
    assert problems == [] and result["correct"] and result["failed"] == 0
    assert result["attempted"] == info["rounds"] * info["ops_per_round"] >= 1
    assert set(result["metrics"]) == set(bench_core.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert table is None


@pytest.mark.parametrize("name", bench_core.WORKLOAD_NAMES)
def test_workload_traced(name):
    result, table, problems, _ = bench_core.run(name, seed=5, seconds=0.0, trace=True, scale="tiny")
    assert problems == [] and result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    # The self times of every traced function plus the time outside every
    # span (measured apart, from the outermost calls) make up the window.
    self_total = sum(f["self_s"] for f in table["functions"].values())
    assert math.isclose(self_total, metrics["trace.attributed_s"], rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(
        self_total + metrics["trace.unattributed_s"], metrics["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-9
    )
    assert 0 <= metrics["trace.unattributed_s"] < metrics["trace.wall_s"]
    expected = {
        "pipeline": ("cli.main.busy_s", "harness.run_experiment.calls", "exact.opt_dp.calls"),
        "lp-scale": ("lp.solve_lp_c_colgen.master_solves", "exact.star_opt_core.calls", "simplex.solve_packing_lp.iterations"),
        "montecarlo": ("rounding.simulate.full.trials", "contention.estimate_selectability.trials", "rounding.audit_outcome.calls"),
        "certify": ("eptas.eptas.guesses_tried", "numerics.verify_bennett.busy_s", "exact.star_opt_bruteforce.calls"),
    }[name]
    assert all(metrics[k] > 0 for k in expected)
    assert metrics["instances.random_instance.calls"] > 0


def test_tracer_restores_every_binding():
    mods = bench_core.import_qcmatch()
    before = {name: dict(vars(m)) for name, m in mods.items()}
    suites = dict(mods["numerics"]._SUITES)
    tracer = bench_trace.Tracer(mods)
    tracer.install()
    assert mods["lp"].star_opt_core is not before["lp"]["star_opt_core"]
    assert mods["harness"].opt_dp is not before["harness"]["opt_dp"]
    tracer.uninstall()
    assert all(vars(m) == before[name] for name, m in mods.items())
    assert mods["numerics"]._SUITES == suites


def test_lp_value_perturbation_fails(tmp_path):
    wl, state, refs, outputs = _tiny("lp-scale", tmp_path)
    n_cg = len(state["colgen"])
    bad = list(outputs)
    bad[n_cg] = copy.copy(outputs[n_cg])
    bad[n_cg].value *= 1 + 1e-6
    assert any("edge LP" in p for p in wl.check(state, refs, bad))
    bad = list(outputs)
    bad[0] = copy.copy(outputs[0])
    bad[0].objective *= 1 + 1e-6
    assert any("re-evaluate" in p for p in wl.check(state, refs, bad))


def test_pipeline_lp_value_perturbation_fails(tmp_path):
    wl, state, refs, outputs = _tiny("pipeline", tmp_path)
    for k, row in enumerate(outputs):
        if row["pipeline"] in ("lp-m+greedy", "lp-c+full"):
            bad = list(outputs)
            bad[k] = dict(row, lp_value=repr(float(row["lp_value"]) * (1 + 1e-6)))
            assert wl.check(state, refs, bad), row["pipeline"]


def test_simulated_mean_shift_fails(tmp_path):
    wl, state, refs, outputs = _tiny("montecarlo", tmp_path)
    k = 2  # relaxed policy on the small instance
    rewards, counts = outputs[k]
    n = rewards.size
    sigma = rewards.std(ddof=1) / math.sqrt(n)
    direction = 1.0 if rewards.mean() >= state["sol_small"].objective else -1.0
    bad = list(outputs)
    bad[k] = (rewards + direction * 5 * sigma, counts)
    assert any("not within" in p for p in wl.check(state, refs, bad))


def test_suggestion_frequency_and_audit_perturbation_fails(tmp_path):
    wl, state, refs, outputs = _tiny("montecarlo", tmp_path)
    rewards, counts = outputs[0]
    key = max(counts, key=counts.get)
    bumped = dict(counts)
    bumped[key] = counts[key] // 2
    bad = list(outputs)
    bad[0] = (rewards, bumped)
    assert any("suggestion frequency" in p for p in wl.check(state, refs, bad))
    bad = list(outputs)
    bad[-1] = [["decision contradicts the scheme rule"]] + outputs[-1][1:]
    assert any("audit" in p for p in wl.check(state, refs, bad))


def test_eptas_value_above_reevaluation_fails(tmp_path):
    wl, state, refs, outputs = _tiny("certify", tmp_path)
    k = next(i for i, o in enumerate(outputs) if hasattr(o, "edges"))
    pol = outputs[k]
    bad = list(outputs)
    bad[k] = type(pol)(edges=pol.edges, actions=pol.actions, value=pol.value + 1e-6)
    assert any("re-evaluation" in p for p in wl.check(state, refs, bad))


def test_bennett_anchor_perturbation_fails(tmp_path):
    wl, state, refs, outputs = _tiny("certify", tmp_path)
    k = next(i for i, o in enumerate(outputs) if getattr(o, "suite", None) == "final")
    bad = list(outputs)
    bad[k] = copy.deepcopy(outputs[k])
    bad[k].extras["bennett_at_1"] += 2e-8
    assert any("bennett(1)" in p for p in wl.check(state, refs, bad))


def test_refuses_without_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_flags_regressions(tmp_path):
    def write(directory, seed, run_s):
        directory.mkdir(exist_ok=True)
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        metrics["run_s"]["value"] = run_s
        rec = {"workload": "certify", "seed": seed, "trace": 0, "correct": True, "attempted": 4, "failed": 0, "metrics": metrics}
        (directory / f"certify-seed{seed}-trace0.json").write_text(json.dumps(rec))

    rng = np.random.default_rng(0)
    for seed in range(6):
        write(tmp_path / "a", seed, 1.0 + 0.01 * rng.random())
        write(tmp_path / "b", seed, 1.5 + 0.01 * rng.random())
    rows, regressed = compare.compare(compare.load_runs(tmp_path / "a"), compare.load_runs(tmp_path / "b"), SPEC)
    assert regressed
    run_row = next(r for r in rows if r["metric"] == "run_s")
    assert run_row["regression"] and run_row["new_wins"] == "0/6"
    rows, regressed = compare.compare(compare.load_runs(tmp_path / "a"), compare.load_runs(tmp_path / "a"), SPEC)
    assert not regressed
