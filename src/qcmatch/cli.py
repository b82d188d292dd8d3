"""Command-line interface.

Exit codes: 0 success, 1 acceptance/threshold failure, 2 usage, config,
budget or iteration-limit error. The QCL_BUDGET environment variable
overrides every enumeration budget (DP states, star plan states, plans,
EPTAS guesses tried).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext

from . import contention, eptas, harness
from .exact import BudgetExceeded, opt_dp
from .instances import (
    INFINITE,
    load_instance,
    random_instance,
    require_valid,
    save_instance,
    serialize,
)
from .lp import solve_edge_lp, solve_lp_c_colgen, solve_lp_c_explicit
from .numerics import run_verification
from .simplex import IterationLimit


def _emit(doc, out=None):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _marginals_doc(marginals):
    return [
        {"u": e[0], "v": e[1], "a": a, "z": z}
        for (e, a), z in sorted(marginals.items())
    ]


def _patience_list(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        out.append(INFINITE if tok == "inf" else int(tok))
    return out


def cmd_gen(args):
    inst = random_instance(
        seed=args.seed,
        n_u=args.n_u,
        n_v=args.n_v,
        n_a=args.n_a,
        patience_range=_patience_list(args.patience),
    )
    if args.out:
        save_instance(inst, args.out)
        _emit(inst.meta)
    else:
        sys.stdout.write(serialize(inst))
    return 0


def cmd_opt(args):
    inst = require_valid(load_instance(args.instance))
    res = opt_dp(inst)
    doc = {"value": res.value, "states_expanded": res.states_expanded, "layer_sizes": list(res.layer_sizes)}
    _emit(doc, args.out)
    return 0


def _lp_common(args, solver, **kw):
    inst = require_valid(load_instance(args.instance))
    sol = solver(inst, **kw)
    duals = sol.duals
    _emit(
        {
            "value": sol.objective,
            "n_columns": sol.n_columns,
            "iterations": sol.iterations,
            "marginals": _marginals_doc(sol.marginals),
            "duals": {
                "alpha": duals.alpha,
                "gamma": duals.gamma,
                "beta": duals.beta,
            },
        },
        args.out,
    )
    return 0


def cmd_lp_m(args):
    inst = require_valid(load_instance(args.instance))
    res = solve_edge_lp(inst)
    _emit(
        {
            "value": res.value,
            "n_columns": len(res.z),
            "iterations": res.iterations,
            "marginals": _marginals_doc(res.z),
            "duals": {f"{kind}:{s}": d for (kind, s), d in sorted(res.duals.items())},
        },
        args.out,
    )
    return 0


def cmd_lp_c(args):
    return _lp_common(args, solve_lp_c_explicit)


def cmd_lp_c_colgen(args):
    return _lp_common(args, solve_lp_c_colgen, eps=args.eps)


def cmd_round(args):
    cfg = harness.ExperimentConfig(
        pipeline=f"lp-c+{args.policy}", trials=args.trials, seed=args.seed, instance_file=args.instance
    )
    _emit(harness.run_experiment(cfg).report.as_dict(), args.out)
    return 0


def _load_scheme_input(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    unknown = set(doc) - {"actions", "patience", "p", "x"}
    if unknown:
        raise ValueError(f"unknown keys in scheme input: {sorted(unknown)}")
    patience = INFINITE if doc["patience"] == "inf" else int(doc["patience"])
    return contention.make_input(tuple(doc["actions"]), patience, doc["p"], doc["x"])


def cmd_prcrs_mc(args):
    inp = _load_scheme_input(args.input)
    rows = contention.estimate_selectability(inp, args.trials, args.seed)
    worst_ok = True
    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "a", "x", "p", "estimate", "half_width", "bound", "pass"])
        for r in rows:
            ok = r.estimate >= r.bound - 4 * r.std_error
            worst_ok = worst_ok and ok
            writer.writerow(
                [r.element, r.action, repr(r.x), repr(r.p), repr(r.estimate), repr(r.wilson_half),
                 repr(r.bound), int(ok)]
            )
    return 0 if worst_ok else 1


def cmd_star_eptas(args):
    inst = require_valid(load_instance(args.instance))
    policy, stats = eptas.eptas(inst, args.eps)
    _emit(
        {
            "value": policy.value,
            "order": [list(e) for e in policy.edges],
            "actions": list(policy.actions),
            "guesses_tried": stats.get("guesses_tried", 0),
            "feasible_guesses": stats.get("feasible_guesses", 0),
        },
        args.out,
    )
    return 0


def cmd_verify_numerics(args):
    reports = run_verification(args.suite)
    _emit([r.as_dict() for r in reports], args.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_suite(args):
    rows, ok = harness.run_suite(
        args.manifest, out_path=args.out, workers=args.workers, id_filter=args.filter
    )
    sys.stdout.write(harness.suite_table(rows))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qcmatch", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, instance=True):
        if instance:
            sp.add_argument("instance", help="instance JSON file")
        sp.add_argument("--out", default=None, help="write output here instead of stdout")

    sp = sub.add_parser("gen", help="generate a random instance")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n-u", type=int, default=2)
    sp.add_argument("--n-v", type=int, default=2)
    sp.add_argument("--n-a", type=int, default=1)
    sp.add_argument("--patience", default="1,2", help="comma list of values, 'inf' allowed")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("opt", help="exact optimal-policy value")
    common(sp)
    sp.set_defaults(fn=cmd_opt)

    sp = sub.add_parser("lp-m", help="edge LP")
    common(sp)
    sp.set_defaults(fn=cmd_lp_m)

    sp = sub.add_parser("lp-c", help="configuration LP, explicit columns")
    common(sp)
    sp.set_defaults(fn=cmd_lp_c)

    sp = sub.add_parser("lp-c-colgen", help="configuration LP via column generation")
    common(sp)
    sp.add_argument("--eps", type=float, default=0.01)
    sp.set_defaults(fn=cmd_lp_c_colgen)

    sp = sub.add_parser("round", help="solve the configuration LP and round it")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--policy", choices=("full", "greedy"), default="full")
    sp.add_argument("--trials", type=int, default=10000)
    sp.set_defaults(fn=cmd_round)

    sp = sub.add_parser("prcrs-mc", help="Monte Carlo selectability of the scheme")
    sp.add_argument("--input", required=True, help="scheme input JSON file")
    sp.add_argument("--trials", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_prcrs_mc)

    sp = sub.add_parser("star-eptas", help="approximation scheme on a star instance")
    common(sp)
    sp.add_argument("--eps", type=float, required=True)
    sp.set_defaults(fn=cmd_star_eptas)

    sp = sub.add_parser("verify-numerics", help="machine verification suites")
    sp.add_argument("--suite", default="all", choices=("b", "exchange", "fl", "final", "bennett", "all"))
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_verify_numerics)

    sp = sub.add_parser("suite", help="run an experiment manifest")
    sp.add_argument("manifest")
    sp.add_argument("--out", default=None)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--filter", default=None, help="only ids containing this substring")
    sp.set_defaults(fn=cmd_suite)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (harness.ConfigError, ValueError, FileNotFoundError, IterationLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: budget exceeded ({exc}); raise QCL_BUDGET to override", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
