"""Every workload's metrics by name and unit, plus the known-failure probe.

    python3 perfbench/report.py [--seed 0] [--seconds 30] [--trace]

Runs ``run.py`` once per workload, each in a fresh interpreter, then
``run.py --known-failures``.  Exits 1 if a run fails or reports a wrong
answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(args: list[str]) -> list[dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"run.py {' '.join(args)} exited with {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", action="store_true", help="add a traced run per workload")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())

    ok = True
    ladder = None
    for workload in (w["name"] for w in config["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            record, result = _run(["--workload", workload, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(trace)])
            record = record["record"]
            ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"passes={len(record['pass_wall_s'])} "
                  f"tail=p{record['tail_percentile']:.1f} of {record['tail_samples']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:45s} {metric['value']:>14.6g} {metric['unit']}")
            if workload == "large-lp" and trace == 0:
                size = record["instances_per_pass"]
                ladder = (round(result["metrics"]["pass_frac"]["value"] * size), size)
            for name in record["near_budget"]:
                print(f"  within 2x of the budget: {name}")

    probe = _run(["--known-failures"])[-1]["known_failures"]
    passed = sum(1 for entry in probe if not entry["problems"])
    print(f"large-lp known failures: {passed}/{len(probe)} now pass")
    if ladder:
        print(f"large-lp ladder with them: {ladder[0] + passed}/{ladder[1] + len(probe)} pass")
    for entry in probe:
        print(f"  {entry['instance']}: {entry['outcome']} after {entry['seconds']:.2f} s "
              f"{'; '.join(entry['problems'])} (seed commit: {entry['known_as']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
