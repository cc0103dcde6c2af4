"""sigmech benchmark: one workload, one seed, one fresh interpreter.

    python3 perfbench/run.py --workload verify-mix --seed 0 --seconds 30 --trace 0

Runs passes over the workload's instances until ``--seconds`` have
passed (at least MIN_PASSES).  Each instance gets a 10 s interval-timer
budget and a reference check.  The last stdout line is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1`` (from
traced passes alternating with untraced ones).  The line before it is a
JSON record of the environment and run details; traced spans go to
``perfbench/out/``.

``--known-failures`` instead runs the large-lp instances that fail at
the seed commit, once each, and reports how they end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracing
from tracing import BudgetExceeded

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
BUDGET_S = 10.0
# The per-instance median over at least three passes ignores one cold pass.
MIN_PASSES = 3
SETUP_PROBES = 8
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PER_LAYER = {
    "lp.solve.central": ("calls", "self_s", "max_violation", "errors", "budget_hits"),
    "lp.solve.isolated": ("calls", "self_s", "errors"),
    "centralized.build_centralized_lp": ("calls", "self_s", "vars", "rows", "nnz"),
    "centralized.solve_centralized": ("calls", "self_s"),
    "decentralized.solve_isolated": ("calls", "self_s"),
    "decentralized.compose_optimal": ("calls", "self_s"),
    "decentralized.heterogeneous_compose": ("calls", "self_s"),
    "decentralized.correlated_fallback": ("calls", "self_s"),
    "oracle.best_response": ("calls", "self_s", "cells"),
    "oracle.evaluate": ("calls", "self_s", "cells"),
    "oracle.grid_search_decentralized": ("calls", "self_s", "candidates"),
    "model.require_valid": ("calls", "self_s"),
}
SETUP_LAYERS = ("instances.generate", "bounds.generate")


def _import_sigmech():
    """Put the checkout's src/ first on the path and import from it, or exit."""
    if not (SRC / "sigmech" / "__init__.py").is_file():
        sys.exit(f"error: no sigmech sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sigmech

    if Path(sigmech.__file__).resolve().parent != (SRC / "sigmech").resolve():
        sys.exit(f"error: imported sigmech from {sigmech.__file__}, not {SRC}")


class Budget:
    """Interval timer that raises BudgetExceeded in the main thread when armed."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:  # a signal that lands after __exit__ began is ignored
            self.armed = False
            raise BudgetExceeded(f"over the {self.seconds:g} s budget")

    def __enter__(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc_info):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return False


def run_instance(inst, system, budget, wl, tracer=None):
    """(outcome, seconds, outputs) of one operation; outcome is ok, budget or error."""
    root = tracer.open("instance") if tracer else None
    start = time.perf_counter()
    out = None
    try:
        with budget:
            if tracer:
                tracer.enabled = True
            out = wl.OPERATIONS[inst.kind](system, inst)
        outcome = "ok"
    except BudgetExceeded:
        outcome = "budget"
    except Exception as err:  # a failed operation is recorded and the pass goes on
        outcome = "error"
        out = f"{type(err).__name__}: {err}"
    finally:
        if tracer:
            tracer.enabled = False
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.close(root)
    return outcome, elapsed, out


def _problems(wl, inst, outcome, out) -> list[str]:
    if outcome == "ok":
        return wl.check(inst, out)
    return [out] if outcome == "error" else ["over the budget"]


def run_pass(items, budget, wl, tracer=None):
    """One timed pass over fresh copies of every instance, then the checks."""
    systems = [wl.fresh(inst.system) for inst in items]
    results = []
    start = time.perf_counter()
    for inst, system in zip(items, systems):
        results.append(run_instance(inst, system, budget, wl, tracer))
    wall = time.perf_counter() - start

    times, failures, largest = [], [], 0
    for inst, (outcome, elapsed, out) in zip(items, results):
        problems = _problems(wl, inst, outcome, out)
        if problems:
            failures.append({"instance": inst.name, "outcome": outcome, "problems": problems})
            elapsed = max(elapsed, budget.seconds)  # a failure counts at the budget
        else:
            largest = max(largest, out.get("lp_vars", 0))
        times.append(elapsed)
    return {
        "wall_s": wall,
        "times": times,
        "failures": failures,
        "largest_lp_vars": largest,
        "near_budget": [i.name for i, r in zip(items, results)
                        if r[0] == "ok" and r[1] >= budget.seconds / 2],
    }


def _layer_targets():
    """Wrap points for the traced run, with size counters from arguments/results."""
    import numpy as np

    from sigmech import bounds, centralized, decentralized, instances, model, oracle

    def lp_sizes(args, kwargs, lp):
        try:
            rows = lp.constraints
            nnz = sum(int(np.count_nonzero(row.coeffs)) for row in rows)
            return {"vars": lp.n_vars, "rows": len(rows), "nnz": nnz}
        except AttributeError:  # another LP representation: no size counts
            return {}

    def violation(args, kwargs, solution):
        value = getattr(solution, "max_violation", None)
        return {} if value is None else {"max_violation": float(value)}

    def cells(args, kwargs, result):
        system, mech = args[0], args[1]
        if hasattr(mech, "parts"):
            signals = math.prod(len(part.signals) for part in mech.parts)
        else:
            signals = len(mech.signals)
        return {"cells": system.state_count * signals}

    def candidates(args, kwargs, result):
        system = args[0]
        resolution = args[1] if len(args) > 1 else kwargs["resolution"]
        values = round(1.0 / resolution) + 1
        return {"candidates": values ** sum(loc.num_states for loc in system.locations)}

    T = tracing.Target
    targets = [
        T(centralized, "solve", "lp.solve.central", maxima=violation),
        T(decentralized, "solve", "lp.solve.isolated"),
        T(centralized, "build_centralized_lp", "centralized.build_centralized_lp",
          counter=lp_sizes),
        T(centralized, "solve_centralized", "centralized.solve_centralized"),
        T(oracle, "best_response", "oracle.best_response", counter=cells),
        T(oracle, "evaluate", "oracle.evaluate", counter=cells),
        T(oracle, "grid_search_decentralized", "oracle.grid_search_decentralized",
          counter=candidates),
        T(instances, "random_independent_system", "instances.generate"),
        T(instances, "random_joint_system", "instances.generate"),
        T(bounds, "make_tightness_instance", "bounds.generate"),
        T(bounds, "make_correlated_instance", "bounds.generate"),
    ]
    for name in ("solve_isolated", "compose_optimal", "heterogeneous_compose",
                 "correlated_fallback"):
        targets.append(T(decentralized, name, f"decentralized.{name}"))
    original = model.require_valid
    for module in (model, centralized, decentralized, oracle, instances, bounds):
        if getattr(module, "require_valid", None) is original:
            targets.append(T(module, "require_valid", "model.require_valid"))
    return targets


def _environment(seed: int) -> dict:
    commit = "unknown: not a git checkout"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        ref = ROOT / ".git" / commit.removeprefix("ref: ")
        if commit.startswith("ref: ") and ref.is_file():
            commit = ref.read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "sigmech").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_PIN},
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "dropped_workloads": [],
        "budget_s": BUDGET_S,
    }


def _setup(workload: str, seed: int):
    """Import sigmech and generate the workload; return (seconds, module, instances)."""
    start = time.perf_counter()
    _import_sigmech()
    import workloads as wl

    items = wl.WORKLOADS[workload](seed)
    return time.perf_counter() - start, wl, items


def _probe_setups(workload: str, seed: int) -> list[float]:
    """Set-up seconds measured in fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def _end_to_end(passes, setups, wl):
    """End-to-end metrics from each instance's median time over the passes.

    Per-instance medians shrug off a slowdown that hits one instance in
    one pass, and the cold first pass, which a median over whole passes
    of a short run does not.
    """
    typical = sorted(statistics.median(t) for t in zip(*(p["times"] for p in passes)))
    count = len(typical)
    return {
        "wall_s": (sum(typical), "s"),
        "instance_ms_p50": (1e3 * statistics.median(typical), "ms"),
        "instance_ms_tail": (1e3 * typical[wl.tail_index(count)], "ms"),
        "pass_frac": (statistics.median(1 - len(p["failures"]) / count for p in passes),
                      "fraction"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "largest_lp_vars": (min(p["largest_lp_vars"] for p in passes), "count"),
        "setup_s": (statistics.median(setups), "s"),
    }


def _per_layer(traced, untraced, setup_self, maxima):
    metrics = {}
    for layer, counters in PER_LAYER.items():
        for counter in counters:
            name = f"{layer}.{counter}"
            if counter == "self_s":
                metrics[name] = (statistics.median(p["self"].get(layer, 0.0) for p in traced), "s")
            elif counter == "max_violation":
                metrics[name] = (maxima.get(name, 0.0), "1")
            else:
                metrics[name] = (statistics.median(p["counts"].get(name, 0) for p in traced),
                                 "count")
    for layer in SETUP_LAYERS:
        metrics[f"{layer}.self_s"] = (setup_self.get(layer, 0.0), "s")
    metrics["trace.overhead_s"] = (
        _median_of(traced, "wall_s") - _median_of(untraced, "wall_s"), "s")
    return metrics


def _traced_pass(tracer, targets, items, budget, wl):
    first = len(tracer.spans)
    tracer.counts.clear()
    tracer.install(targets)
    try:
        result = run_pass(items, budget, wl, tracer)
    finally:
        tracer.restore()
    result["self"] = tracer.self_times(first)
    result["counts"] = dict(tracer.counts)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="verify-mix")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--known-failures", action="store_true")
    args = parser.parse_args(argv)
    for name in BLAS_PIN:
        os.environ[name] = "1"

    if args.known_failures:
        return _known_failures()
    if args.setup_only:
        print(repr(_setup(args.workload, args.seed)[0]))
        return 0
    if not (SRC / "sigmech" / "__init__.py").is_file():
        sys.exit(f"error: no sigmech sources under {SRC}")

    setups = [] if args.trace else _probe_setups(args.workload, args.seed)
    seconds, wl, items = _setup(args.workload, args.seed)
    setups.append(seconds)
    budget = Budget(BUDGET_S)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        targets = _layer_targets()
        tracer.install(targets)
        tracer.enabled = True
        try:
            wl.WORKLOADS[args.workload](args.seed)
        finally:
            tracer.enabled = False
            tracer.restore()
        setup_self = tracer.self_times()

    passes, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(passes) < MIN_PASSES:
        passes.append(run_pass(items, budget, wl))
        if tracer:
            traced.append(_traced_pass(tracer, targets, items, budget, wl))

    failures = [f for p in passes + traced for f in p["failures"]]
    correct = not any(f["outcome"] == "ok" for f in failures)  # no wrong answers
    for failure in failures:
        print(f"FAILED {failure['instance']}: {'; '.join(failure['problems'])}",
              file=sys.stderr)
    record = {
        "workload": args.workload,
        "environment": _environment(args.seed),
        "instances_per_pass": len(items),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "tail_percentile": wl.tail_percentile(len(items)),
        "tail_samples": len(items),
        "setup_runs_s": setups,
        "near_budget": sorted({n for p in passes + traced for n in p["near_budget"]}),
        "known_failures_excluded": [
            i.name for i in wl.large_lp(args.seed, True) if i.known_failure
        ] if args.workload == "large-lp" else [],
    }
    if tracer:
        metrics = _per_layer(traced, passes, setup_self, tracer.maxima)
        layer_sums = [
            sum(v for k, v in p["self"].items() if k not in ("instance", tracing.COUNT_SPAN))
            for p in traced
        ]
        record["traced_passes"] = [
            {"wall_s": p["wall_s"], "layer_self_s": s} for p, s in zip(traced, layer_sums)
        ]
        if any(s > p["wall_s"] for p, s in zip(traced, layer_sums)):
            print("tracer error: layer self times exceed the traced wall time",
                  file=sys.stderr)
            correct = False
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = _end_to_end(passes, setups, wl)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": (len(passes) + len(traced)) * len(items),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def _known_failures() -> int:
    """Run each known-failure instance once under the budget and report the outcome."""
    _import_sigmech()
    import workloads as wl

    budget = Budget(BUDGET_S)
    report = []
    for inst in wl.large_lp(0, with_known_failures=True):
        if not inst.known_failure:
            continue
        outcome, elapsed, out = run_instance(inst, inst.system, budget, wl)
        report.append({"instance": inst.name, "outcome": outcome, "seconds": elapsed,
                       "problems": _problems(wl, inst, outcome, out),
                       "known_as": inst.known_failure})
    print(json.dumps({"known_failures": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
