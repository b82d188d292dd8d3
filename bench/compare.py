"""Compare two sets of timed benchmark runs.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the per-run JSON files `run.py` writes (its
`--results-dir`). For every workload and end-to-end metric in
BENCHMARK.json this prints both medians, both quartile ranges, the share
of paired runs the new set wins (runs are paired by seed, ties count for
neither side), and whether the new median is worse than the base median
by more than the metric's bound. Exit code 1 when any metric is.
Take the two sets alternately, seed by seed, so that the machine's slow
stretches fall on both (README.md shows how).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory) -> dict:
    """{workload: {seed: metrics}} from the timed (trace 0) runs in a directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        runs.setdefault(rec["workload"], {})[rec["seed"]] = {
            "metrics": {k: v["value"] for k, v in rec["metrics"].items()},
            "failed_share": rec["failed"] / rec["attempted"],
            "correct": rec["correct"],
        }
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(base: dict, new: dict, spec: dict) -> tuple[list, bool]:
    """Rows of the comparison table and whether any metric regressed."""
    rows, regressed = [], False
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        paired = sorted(set(b_runs) & set(n_runs))
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            b = [r["metrics"][name] for r in b_runs.values()]
            n = [r["metrics"][name] for r in n_runs.values()]
            b_med, n_med = statistics.median(b), statistics.median(n)
            wins = sum(
                1 for s in paired
                if (n_runs[s]["metrics"][name] < b_runs[s]["metrics"][name]) == lower
                and n_runs[s]["metrics"][name] != b_runs[s]["metrics"][name]
            )
            worse = (n_med - b_med) / b_med if lower else (b_med - n_med) / b_med
            over = worse > m["bound"]
            regressed |= over
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": m["unit"],
                "base_median": b_med,
                "base_q1_q3": quartiles(b),
                "new_median": n_med,
                "new_q1_q3": quartiles(n),
                "new_wins": f"{wins}/{len(paired)}",
                "worse_by": worse,
                "bound": m["bound"],
                "regression": over,
            })
        b_fail = {r["failed_share"] for r in b_runs.values()}
        n_fail = {r["failed_share"] for r in n_runs.values()}
        if b_fail != n_fail or not all(r["correct"] for r in list(b_runs.values()) + list(n_runs.values())):
            rows.append({"workload": workload, "metric": "failed share / correct", "base": sorted(b_fail), "new": sorted(n_fail)})
            regressed = True
    return rows, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    rows, regressed = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    for r in rows:
        if "base_median" not in r:
            print(f"{r['workload']:11s} {r['metric']}: base {r['base']} new {r['new']}  MISMATCH")
            continue
        print(
            f"{r['workload']:11s} {r['metric']:12s} "
            f"base {r['base_median']:.4g} [{r['base_q1_q3'][0]:.4g}, {r['base_q1_q3'][1]:.4g}]  "
            f"new {r['new_median']:.4g} [{r['new_q1_q3'][0]:.4g}, {r['new_q1_q3'][1]:.4g}] {r['unit']:3s} "
            f"new wins {r['new_wins']:6s} worse by {r['worse_by']:+.1%} (bound {r['bound']:.0%})"
            f"{'  REGRESSION' if r['regression'] else ''}"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
