"""Alternating parent/change pairs of the benchmark, with a verdict per metric.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_topic.json \\
        [--workloads verify-mix,large-lp,decentral-oracle] [--first-seed 401] \\
        [--traced decentral-oracle] [--claim decentral-oracle:instance_ms_p50]

PARENT and CHANGE are two checkouts of the repository.  Their
``BENCHMARK.json`` and ``perfbench/`` files must be byte-identical, or
the script refuses to run; the metrics, their bounds, the workloads
(all of them unless ``--workloads`` names some) and the run length
``run_seconds`` are read from the parent's ``BENCHMARK.json``.  Pair i
of ``PAIRS`` runs ``perfbench/run.py --workload W --seed FIRST_SEED + i
--seconds RUN_SECONDS --trace 0`` in each checkout, one after the
other, the parent first in even pairs and the change first in odd
ones.  Per workload and end-to-end metric it prints each side's median
and quartiles, the pairs the change won and the verdict of
:func:`verdict`.  ``--traced`` adds one ``--trace 1`` run per side of
the named workloads, on the seed after the pairs'.  The JSON file is
rewritten after every run, so an interrupted session keeps what it
measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

GAIN = "gain"
NO_REGRESSION = "no regression"
REGRESSION = "regression"
UNRESOLVED = "unresolved"

PAIRS = 10  # pairs per workload, and the fewest a gain may rest on


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pairs_won(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better; a tie counts for neither side."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))


def verdict(
    parent: list[float],
    change: list[float],
    better: str,
    bound: float,
    more_failures: bool = False,
) -> str:
    """Verdict on one metric from paired runs (``parent[i]`` with ``change[i]``).

    ``gain``: there are at least ``PAIRS`` pairs, the change is better in
    at least nine tenths of them (ties count for neither side), its
    median is better than the parent's by more than the parent's
    interquartile range, and it failed no more operations than the
    parent.  Otherwise ``regression`` when its median is worse than the
    parent's by more than ``bound`` times the parent's median;
    ``unresolved`` when either side's interquartile range is wider than
    that, unless every change run is better than every parent run; else
    ``no regression``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("verdict needs the same positive number of runs on each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    gained = sign * (c_median - p_median)
    won = pairs_won(parent, change, better)
    if (len(parent) >= PAIRS and 10 * won >= 9 * len(parent) and gained > p_q3 - p_q1
            and not more_failures):
        return GAIN
    allowed = bound * abs(p_median)
    if -gained > allowed:
        return REGRESSION
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(p_q3 - p_q1, c_q3 - c_q1) > allowed and not all_better:
        return UNRESOLVED
    return NO_REGRESSION


def run_side(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The two JSON lines one ``perfbench/run.py`` run prints, merged."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=10 * seconds + 600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])["record"]
    return result


def _summary(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def workload_report(runs: dict, metrics: list[dict]) -> dict:
    """Per-metric summary and verdict of one workload's pairs."""
    sides = ("parent", "change")
    failed = {side: sum(r["failed"] for r in runs[side]) for side in sides}
    report = {
        "pairs": len(runs["parent"]),
        "seeds": runs["seeds"],
        "first_side": runs["first_side"],
        "correct_all_runs": all(r["correct"] for side in sides for r in runs[side]),
        "failed_operations": failed,
        "metrics": {},
    }
    for spec in metrics:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in sides}
        won = pairs_won(values["parent"], values["change"], spec["better"])
        report["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": _summary(values["parent"]),
            "change": _summary(values["change"]),
            "change_better_pairs": f"{won}/{len(values['parent'])}",
            "verdict": verdict(values["parent"], values["change"], spec["better"],
                               spec["bound"], failed["change"] > failed["parent"]),
            "parent_runs": [round(v, 6) for v in values["parent"]],
            "change_runs": [round(v, 6) for v in values["change"]],
        }
    return report


def _print_report(workload: str, report: dict) -> None:
    print(f"== {workload}: {report['pairs']} pairs, failed operations "
          f"{report['failed_operations']}, correct {report['correct_all_runs']}")
    for name, m in report["metrics"].items():
        p, c = m["parent"], m["change"]
        print(f"  {name:18s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
              f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
              f"  won {m['change_better_pairs']}  {m['verdict']}")
    sys.stdout.flush()


def _environment(result: dict) -> dict:
    env = result["record"]["environment"]
    keys = ("python", "numpy", "scipy", "nproc", "usable_cpus", "blas_threads",
            "commit", "src_sha256")
    return {key: env.get(key) for key in keys}


def benchmark_files(checkout: Path) -> dict[str, bytes]:
    """``BENCHMARK.json`` and every ``perfbench/`` file but the run's
    outputs (``out/``) and bytecode (``__pycache__/``), by relative path."""
    files = {"BENCHMARK.json": (checkout / "BENCHMARK.json").read_bytes()}
    for path in sorted((checkout / "perfbench").rglob("*")):
        rel = path.relative_to(checkout)
        if path.is_file() and not {"out", "__pycache__"} & set(rel.parts[1:-1]):
            files[rel.as_posix()] = path.read_bytes()
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default every workload of BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=401)
    parser.add_argument("--traced", default="", help="workloads given one traced run per side")
    parser.add_argument("--claim", default="", help="WORKLOAD:METRIC the change claims")
    args = parser.parse_args(argv)
    parent_files = benchmark_files(args.parent)
    change_files = benchmark_files(args.change)
    differ = sorted(name for name in parent_files.keys() | change_files.keys()
                    if parent_files.get(name) != change_files.get(name))
    if differ:
        parser.error("the checkouts' benchmark files differ: " + ", ".join(differ))
    bench = json.loads(parent_files["BENCHMARK.json"])
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = [w for w in args.workloads.split(",") if w] or [
        w["name"] for w in bench["workloads"]]
    traced = [w for w in args.traced.split(",") if w]
    claim = args.claim.split(":") if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in workloads
                  or claim[1] not in [spec["name"] for spec in metrics]):
        parser.error("--claim must be WORKLOAD:METRIC with a workload of --workloads "
                     "and an end-to-end metric of BENCHMARK.json")
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    doc = {
        "command": "python3 perfbench/run.py --workload <name> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "protocol": f"{PAIRS} pairs per workload, seeds {seeds[0]}-{seeds[-1]}; each pair "
                    "runs the parent and the change one after the other from their own "
                    "checkouts, the parent first in even pairs and the change first in odd "
                    "ones; workloads run one after the other in the order listed",
        "verdict_rule": " ".join(verdict.__doc__.split("\n\n")[1].split()),
        "environment": {},
        "workloads": {},
        "traced": {},
    }

    def save() -> None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    checkouts = {"parent": args.parent, "change": args.change}
    for workload in workloads:
        runs = {"parent": [], "change": [], "seeds": [], "first_side": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_side(checkouts[side], workload, seed, seconds, 0)
                doc["environment"].setdefault(side, _environment(result))
                runs[side].append(result)
            runs["seeds"].append(seed)
            runs["first_side"].append(order[0])
            doc["workloads"][workload] = workload_report(runs, metrics)
            save()
        _print_report(workload, doc["workloads"][workload])
    trace_seed = seeds[-1] + 1
    for workload in traced:
        doc["traced"][workload] = {
            "command": "python3 perfbench/run.py --workload "
                       f"{workload} --seed {trace_seed} --seconds {seconds:g} --trace 1",
        }
        for side in ("parent", "change"):
            result = run_side(checkouts[side], workload, trace_seed, seconds, 1)
            doc["traced"][workload][side] = {
                name: round(m["value"], 6) for name, m in result["metrics"].items()
            }
            save()
        layers = doc["traced"][workload]
        print(f"== traced {workload}, seed {trace_seed}: layers that moved")
        for name, value in layers["parent"].items():
            if value != layers["change"].get(name):
                print(f"  {name:48s} parent {value:.6g}  change {layers['change'][name]:.6g}")
    if claim:
        workload, metric = claim
        m = doc["workloads"][workload]["metrics"][metric]
        doc["claimed"] = {"workload": workload, "metric": metric, "verdict": m["verdict"],
                          "parent_median": m["parent"]["median"],
                          "change_median": m["change"]["median"],
                          "parent_iqr": round(m["parent"]["q3"] - m["parent"]["q1"], 6),
                          "change_better_pairs": m["change_better_pairs"]}
        print(f"claim {args.claim}: {m['verdict']}")
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
