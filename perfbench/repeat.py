"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/repeat.py --workloads verify_small enum_verify \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 10 [--trace 0|1] [--json FILE]

The spread is the distance between the first and third quartile of the
values (``statistics.quantiles(values, n=4)``) as a share of their median,
the figure each end-to-end bound in BENCHMARK.json is compared against.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=RUN.parent.parent,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "median": median,
            "spread": (q3 - q1) / median if median else 0.0,
            "unit": results[0]["metrics"][name]["unit"],
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        bad = [r for r in results if not r["correct"]]
        report[workload] = {
            "seeds": args.seeds,
            "all_correct": not bad,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": summarize(results),
        }
        for name, stats in report[workload]["metrics"].items():
            print(f"{workload:18s} {name:32s} median {stats['median']:14.6g} {stats['unit']:6s} "
                  f"spread {stats['spread']:.4f}", flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0 if all(w["all_correct"] for w in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
