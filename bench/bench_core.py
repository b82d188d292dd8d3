"""Benchmark runner: set up a workload, time whole rounds of its operations
for a fixed wall-clock budget, check every output, print one JSON result.

Timed mode (`--trace 0`) reports the end-to-end metrics:

- setup_s: the median import of qcmatch over IMPORT_REPEATS fresh
  interpreters plus the median of SETUP_REPEATS preparations;
- run_s: wall time of one pass over the operation list (see _per_op);
- op_p50_ms: median time of one operation over every round of the run;
- peak_rss_mb: the process's peak resident memory when the timed rounds end.

Traced mode (`--trace 1`) first times untraced rounds for half the budget,
then installs the tracer, prepares once more and times traced rounds for
the other half. Each per-layer metric covers that traced set-up pass plus
one round (the traced rounds' total divided by their number).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_trace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MODULES = (
    "instances", "rng", "simplex", "lp", "exact", "eptas",
    "contention", "rounding", "numerics", "harness", "cli",
)
WORKLOAD_NAMES = ("pipeline", "lp-scale", "montecarlo", "certify")
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def import_qcmatch() -> dict:
    """Import every qcmatch module from this checkout's src/; returns them
    by short name."""
    src = ROOT / "src"
    if not (src / "qcmatch" / "__init__.py").is_file():
        print(f"error: no qcmatch sources under {src}", file=sys.stderr)
        sys.exit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"qcmatch.{name}") for name in MODULES}
    origin = Path(mods["lp"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"error: qcmatch imported from {origin}, not from {src}")
    return mods


def import_seconds() -> float:
    """Median wall time of importing every qcmatch module in a fresh
    interpreter. A process imports once, and one import can vary by a
    factor of two on a shared machine, so it is timed in IMPORT_REPEATS
    child processes (each waited for) and the median is kept."""
    code = (
        "import importlib, sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "t0 = time.perf_counter()\n"
        "for name in sys.argv[2:]:\n"
        "    importlib.import_module('qcmatch.' + name)\n"
        "print(time.perf_counter() - t0)\n"
    )
    times = [
        float(subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src"), *MODULES],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout)
        for _ in range(IMPORT_REPEATS)
    ]
    return statistics.median(times)


def _prepare(workload, seed: int, tag: str):
    workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    state = workload.prepare(seed, str(workdir))
    return state, time.perf_counter() - t0, workdir


def _rounds(workload, state, seconds: float):
    """Whole rounds for about `seconds` (at least one): another round starts
    while less than `seconds` minus half the last round has passed, so a run
    ends within half a round of its budget. Returns the round wall times, the
    operation times of each round, every round's outputs, and the number of
    operations that raised."""
    walls, op_times, outputs, failed = [], [], [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outs, times, n_failed = workload.run_round(state)
        walls.append(time.perf_counter() - t0)
        op_times.append(times)
        outputs.append(outs)
        failed += n_failed
        if time.perf_counter() - start + walls[-1] / 2 >= seconds:
            return walls, op_times, outputs, failed


def _per_op(op_times) -> list | None:
    """Each operation's median time over the rounds, or None when rounds
    differ in length. A single time here varies by a factor of two from
    one second to the next (other processes on the shared machine slow it
    without taking its processor away); the median over every round of a
    run moves far less from run to run than the fastest round does.
    run_s sums these times."""
    if len({len(t) for t in op_times}) != 1:
        return None
    return [statistics.median(samples) for samples in zip(*op_times)]


def _check(workload, state, refs, rounds_outputs) -> list:
    problems = []
    for outs in rounds_outputs:
        for p in workload.check(state, refs, outs):
            if p not in problems:
                problems.append(p)
    return problems


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
    """Run one workload; returns (result dict, trace table or None, check
    problems, run facts such as the round count). `scale="tiny"` runs the
    test-suite sizes."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    mods = import_qcmatch()
    # The checks import scipy and mpmath, and only after the rounds.
    import bench_workloads

    workload = bench_workloads.WORKLOADS[workload_name](mods, scale)
    workdirs = []
    tracer = None
    try:
        prep_times = []
        for k in range(SETUP_REPEATS if not trace else 1):
            state, dt, wd = _prepare(workload, seed, f"s{k}")
            prep_times.append(dt)
            workdirs.append(wd)
        budget = seconds / 2 if trace else seconds
        walls, op_times, outputs, failed = _rounds(workload, state, budget)
        n_ops = len(outputs[0])
        attempted = sum(len(o) for o in outputs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = [(state, outputs)]
        table = None
        if trace:
            tracer = bench_trace.Tracer(mods)
            tracer.install()
            t_state, t_prep, wd = _prepare(workload, seed, "traced")
            workdirs.append(wd)
            setup_stats, setup_covered = tracer.take()
            t_walls, _, t_outputs, t_failed = _rounds(workload, t_state, budget)
            run_stats, run_covered = tracer.take()
            tracer.uninstall()
            tracer = None
            attempted += sum(len(o) for o in t_outputs)
            failed += t_failed
            checked.append((t_state, t_outputs))
            combined = {}
            for name in set(setup_stats) | set(run_stats):
                st = bench_trace.FnStats()
                if name in setup_stats:
                    st.add(setup_stats[name])
                if name in run_stats:
                    st.add(run_stats[name], 1.0 / len(t_walls))
                combined[name] = st
            wall = t_prep + statistics.fmean(t_walls)
            covered = setup_covered + run_covered / len(t_walls)
            metrics = bench_trace.layer_metrics(combined, wall, covered)
            # rounds run alike traced and untraced, so the difference of their
            # mean walls is what the wrappers cost per round
            metrics["trace.overhead_s"] = statistics.fmean(t_walls) - statistics.fmean(walls)
            table = {
                "window": "one traced set-up pass plus one round (traced rounds' total / rounds)",
                "rounds": len(t_walls),
                "setup_s": t_prep,
                "round_s": t_walls,
                "untraced_round_s": walls,
                "functions": {
                    name: {"calls": st.calls, "busy_s": st.busy, "self_s": st.self, **st.work}
                    for name, st in sorted(combined.items())
                },
            }
            result_metrics = {
                k: {"value": v, "unit": bench_trace.metric_unit(k)} for k, v in metrics.items()
            }
        else:
            per_op = _per_op(op_times)
            result_metrics = {
                "setup_s": import_seconds() + statistics.median(prep_times),
                "run_s": sum(per_op) if per_op else statistics.median(walls),
                "op_p50_ms": statistics.median(t for times in op_times for t in times) * 1000.0,
                "peak_rss_mb": peak_rss_mb,
            }
            result_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result_metrics.items()}
        refs = workload.references(state)
        problems = []
        for st, outs in checked:
            problems += _check(workload, st, refs, outs)
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": result_metrics,
        }
        info = {"rounds": len(walls), "ops_per_round": n_ops, "round_s": walls, "op_median_s": _per_op(op_times)}
        return result, table, problems, info
    finally:
        if tracer is not None:
            tracer.uninstall()
        for wd in workdirs:
            shutil.rmtree(wd, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="qcmatch benchmark: one workload, one process")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="wall-clock budget for the timed rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--results-dir", default=str(BENCH_DIR / "results"),
        help="where each run's result (and trace table) is written as JSON",
    )
    args = p.parse_args(argv)
    result, table, problems, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for prob in problems:
        print(f"check failed: {prob}", file=sys.stderr)
    out_dir = Path(args.results_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, **info, **result}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if table is not None:
        (out_dir / f"{stem}.layers.json").write_text(json.dumps(table, indent=1) + "\n")
    print(json.dumps(result))
    return 0
