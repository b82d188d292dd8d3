"""Layer tracing from outside the package.

`Tracer.install` replaces each traced function with a timing wrapper at
every place a caller looks the name up: its own module, every qcmatch
module that imported it by value, and `numerics._SUITES`. `uninstall`
puts the originals back. Each wrapper records calls, inclusive time
(`busy`), time not covered by traced calls beneath it (`self`), and the
work counts that function's hook reads from its arguments and result.
Apart from those, the tracer sums the duration of every outermost traced
call (one entered with no traced call open): the time a window spends
inside some span, measured without the self-time bookkeeping.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

# Every traced function, as "<module>.<function>". `lp._solve_master` is
# private; it is traced so column generation can split master and pricing
# time.
TRACED = (
    "simplex.solve_packing_lp",
    "lp.solve_edge_lp",
    "lp.solve_lp_c_explicit",
    "lp.solve_lp_c_colgen",
    "lp.price_best_config",
    "lp.enumerate_configs",
    "lp._solve_master",
    "exact.star_opt_core",
    "exact.opt_dp",
    "exact.star_opt_bruteforce",
    "eptas.eptas",
    "eptas.solve_bucket_ip",
    "rounding.simulate",
    "rounding.simulate_edge_lp",
    "rounding.run_once",
    "rounding.audit_outcome",
    "contention.estimate_selectability",
    "numerics.verify_attenuation_properties",
    "numerics.verify_patience2_exchange",
    "numerics.verify_midrange_monotonicity",
    "numerics.verify_final_bounds",
    "numerics.verify_bennett",
    "numerics.midrange_availability",
    "harness.run_experiment",
    "harness.run_suite",
    "cli.main",
    "instances.random_instance",
    "rng.stream_rng",
)

# Calls whose inclusive time is also credited to every traced caller above
# them, so a caller's hook can split its time by callee.
_CREDIT_CALLERS = ("lp._solve_master", "lp.price_best_config")

SIM_POLICIES = ("full", "greedy", "relaxed")


class FnStats:
    __slots__ = ("calls", "busy", "self", "work")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.work = defaultdict(float)

    def add(self, other: "FnStats", scale: float = 1.0) -> None:
        self.calls += other.calls * scale
        self.busy += other.busy * scale
        self.self += other.self * scale
        for k, v in other.work.items():
            self.work[k] += v * scale


class _Frame:
    __slots__ = ("child", "credit")

    def __init__(self):
        self.child = 0.0
        self.credit = None


def _arg(sig, args, kwargs, name):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _hooks(modules):
    """Per-function work counters: fn(stats, args, kwargs, result, exc, dt, frame)."""
    sig = {
        name: inspect.signature(getattr(modules[name.split(".")[0]], name.split(".")[1]))
        for name in ("rounding.simulate", "rounding.simulate_edge_lp", "contention.estimate_selectability")
    }
    budget_exceeded = modules["exact"].BudgetExceeded

    def simplex_hook(st, a, k, res, exc, dt, fr):
        if res is not None:
            st.work["iterations"] += res.iterations
            st.work["columns"] += len(res.x)

    def columns_hook(st, a, k, res, exc, dt, fr):
        if res is not None:
            st.work["columns"] += res.n_columns

    def colgen_hook(st, a, k, res, exc, dt, fr):
        columns_hook(st, a, k, res, exc, dt, fr)
        credit = fr.credit or {}
        t, n = credit.get("lp._solve_master", (0.0, 0))
        st.work["master_s"] += t
        st.work["master_solves"] += n
        st.work["pricing_s"] += credit.get("lp.price_best_config", (0.0, 0))[0]

    def opt_dp_hook(st, a, k, res, exc, dt, fr):
        if res is not None:
            st.work["states"] += res.states_expanded
        elif isinstance(exc, budget_exceeded):
            st.work["gave_up"] += 1
            st.work["gave_up_s"] += dt
            if "state budget exhausted" in str(exc):
                st.work["states"] += exc.estimate

    def eptas_hook(st, a, k, res, exc, dt, fr):
        if res is not None:
            st.work["guesses_tried"] += res[1]["guesses_tried"]
            st.work["feasible_guesses"] += res[1]["feasible_guesses"]

    def simulate_hook(st, a, k, res, exc, dt, fr):
        policy = _arg(sig["rounding.simulate"], a, k, "policy")
        st.work[f"{policy}.trials"] += _arg(sig["rounding.simulate"], a, k, "trials")
        st.work[f"{policy}.busy"] += dt

    def trials_hook(name):
        def hook(st, a, k, res, exc, dt, fr):
            st.work["trials"] += _arg(sig[name], a, k, "trials")

        return hook

    return {
        "simplex.solve_packing_lp": simplex_hook,
        "lp.solve_lp_c_explicit": columns_hook,
        "lp.solve_lp_c_colgen": colgen_hook,
        "exact.opt_dp": opt_dp_hook,
        "eptas.eptas": eptas_hook,
        "rounding.simulate": simulate_hook,
        "rounding.simulate_edge_lp": trials_hook("rounding.simulate_edge_lp"),
        "contention.estimate_selectability": trials_hook("contention.estimate_selectability"),
    }


class Tracer:
    """Wraps the TRACED functions of the given qcmatch modules.

    `modules` maps short module names ("lp", "exact", ...) to the imported
    modules. Statistics accumulate into `self.stats`, a dict of FnStats by
    traced name, and the outermost calls' durations into `self.covered`;
    `take()` returns both and starts afresh.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.stats = defaultdict(FnStats)
        self.covered = 0.0
        self._stack = []
        self._active = defaultdict(int)
        self._hooks = _hooks(modules)
        self._patched = []  # (container, key, original)

    def take(self) -> tuple[dict, float]:
        out, covered = self.stats, self.covered
        self.stats, self.covered = defaultdict(FnStats), 0.0
        return out, covered

    def _wrap(self, name, fn):
        stack, active, hooks = self._stack, self._active, self._hooks
        hook = hooks.get(name)
        credit = name in _CREDIT_CALLERS
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            active[name] += 1
            res = exc = None
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
                return res
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                active[name] -= 1
                stack.pop()
                st = self.stats[name]
                st.calls += 1
                if active[name] == 0:
                    st.busy += dt
                st.self += dt - frame.child
                if not stack:
                    self.covered += dt
                else:
                    stack[-1].child += dt
                    if credit:
                        for outer in stack:
                            if outer.credit is None:
                                outer.credit = {}
                            t, n = outer.credit.get(name, (0.0, 0))
                            outer.credit[name] = (t + dt, n + 1)
                if hook is not None:
                    hook(st, args, kwargs, res, exc, dt, frame)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__dict__.update(fn.__dict__)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        containers = [vars(m) for m in self.modules.values()]
        containers.append(self.modules["numerics"]._SUITES)
        for name in TRACED:
            mod, fn_name = name.split(".")
            original = getattr(self.modules[mod], fn_name)
            wrapper = self._wrap(name, original)
            for container in containers:
                for key, value in list(container.items()):
                    if value is original:
                        self._patched.append((container, key, original))
                        container[key] = wrapper

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched = []


def layer_metrics(stats: dict, wall_s: float, covered_s: float = 0.0) -> dict:
    """The per-layer metric values from one window's statistics.

    `wall_s` is the window's wall time and `covered_s` the summed duration
    of its outermost traced calls; the window's unattributed time is the
    difference, the time no traced call covers. `trace.attributed_s`, the
    sum of every self time, is computed apart from it, so the two adding up
    to `wall_s` checks the self-time accounting.
    """

    def s(name):
        return stats.get(name) or FnStats()

    def rate(trials, busy):
        return trials / busy if busy > 0 else 0.0

    m = {}
    sp = s("simplex.solve_packing_lp")
    m["simplex.solve_packing_lp.calls"] = sp.calls
    m["simplex.solve_packing_lp.busy_s"] = sp.busy
    m["simplex.solve_packing_lp.iterations"] = sp.work["iterations"]
    m["simplex.solve_packing_lp.columns"] = sp.work["columns"]
    for fn in ("solve_edge_lp", "solve_lp_c_explicit", "price_best_config"):
        m[f"lp.{fn}.calls"] = s(f"lp.{fn}").calls
        m[f"lp.{fn}.self_s"] = s(f"lp.{fn}").self
    m["lp.solve_lp_c_explicit.columns"] = s("lp.solve_lp_c_explicit").work["columns"]
    cg = s("lp.solve_lp_c_colgen")
    m["lp.solve_lp_c_colgen.calls"] = cg.calls
    m["lp.solve_lp_c_colgen.busy_s"] = cg.busy
    m["lp.solve_lp_c_colgen.self_s"] = cg.self
    for key in ("columns", "master_s", "master_solves", "pricing_s"):
        m[f"lp.solve_lp_c_colgen.{key}"] = cg.work[key]
    m["lp.enumerate_configs.busy_s"] = s("lp.enumerate_configs").busy
    m["exact.star_opt_core.calls"] = s("exact.star_opt_core").calls
    m["exact.star_opt_core.busy_s"] = s("exact.star_opt_core").busy
    dp = s("exact.opt_dp")
    m["exact.opt_dp.calls"] = dp.calls
    m["exact.opt_dp.busy_s"] = dp.busy
    for key in ("states", "gave_up", "gave_up_s"):
        m[f"exact.opt_dp.{key}"] = dp.work[key]
    m["exact.star_opt_bruteforce.calls"] = s("exact.star_opt_bruteforce").calls
    m["exact.star_opt_bruteforce.self_s"] = s("exact.star_opt_bruteforce").self
    ep = s("eptas.eptas")
    m["eptas.eptas.calls"] = ep.calls
    m["eptas.eptas.self_s"] = ep.self
    m["eptas.eptas.guesses_tried"] = ep.work["guesses_tried"]
    m["eptas.eptas.feasible_guesses"] = ep.work["feasible_guesses"]
    m["eptas.solve_bucket_ip.calls"] = s("eptas.solve_bucket_ip").calls
    m["eptas.solve_bucket_ip.busy_s"] = s("eptas.solve_bucket_ip").busy
    sim = s("rounding.simulate")
    for policy in SIM_POLICIES:
        trials = sim.work[f"{policy}.trials"]
        m[f"rounding.simulate.{policy}.trials"] = trials
        m[f"rounding.simulate.{policy}.trials_per_s"] = rate(trials, sim.work[f"{policy}.busy"])
    se = s("rounding.simulate_edge_lp")
    m["rounding.simulate_edge_lp.trials"] = se.work["trials"]
    m["rounding.simulate_edge_lp.trials_per_s"] = rate(se.work["trials"], se.busy)
    for fn in ("run_once", "audit_outcome"):
        m[f"rounding.{fn}.calls"] = s(f"rounding.{fn}").calls
        m[f"rounding.{fn}.busy_s"] = s(f"rounding.{fn}").busy
    es = s("contention.estimate_selectability")
    m["contention.estimate_selectability.calls"] = es.calls
    m["contention.estimate_selectability.trials"] = es.work["trials"]
    m["contention.estimate_selectability.trials_per_s"] = rate(es.work["trials"], es.busy)
    for fn in (
        "verify_attenuation_properties",
        "verify_patience2_exchange",
        "verify_midrange_monotonicity",
        "verify_final_bounds",
        "verify_bennett",
    ):
        m[f"numerics.{fn}.busy_s"] = s(f"numerics.{fn}").busy
    m["numerics.midrange_availability.calls"] = s("numerics.midrange_availability").calls
    m["numerics.midrange_availability.busy_s"] = s("numerics.midrange_availability").busy
    m["harness.run_experiment.calls"] = s("harness.run_experiment").calls
    m["harness.run_experiment.self_s"] = s("harness.run_experiment").self
    m["harness.run_suite.busy_s"] = s("harness.run_suite").busy
    m["cli.main.busy_s"] = s("cli.main").busy
    m["instances.random_instance.calls"] = s("instances.random_instance").calls
    m["instances.random_instance.busy_s"] = s("instances.random_instance").busy
    m["rng.stream_rng.calls"] = s("rng.stream_rng").calls
    attributed = sum(st.self for st in stats.values())
    m["trace.wall_s"] = wall_s
    m["trace.attributed_s"] = attributed
    m["trace.unattributed_s"] = wall_s - covered_s
    return m


def metric_unit(name: str) -> str:
    if name.endswith("trials_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"
