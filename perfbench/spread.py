#!/usr/bin/env python3
"""Run workloads over several seeds and print how far each metric spreads.

Usage (from the repository root):

  python3 perfbench/spread.py --seeds 201-210 --seconds 20 [--workload channel_sweep ...] [--out set1.json]

Runs `perfbench/run.py --trace 0` once per workload and seed, one run at a
time, and prints per end-to-end metric the median and the quartile spread
(Q3 - Q1) / median, as statistics.quantiles(values, n=4) gives them, next
to the metric's bound in BENCHMARK.json; then the failures of all runs.
With --out it writes the same numbers, plus the workload-specific metrics,
as JSON in the layout of baseline.json's "sets".
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="201-210")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_range(args.seeds)
    out = {}
    for workload in args.workload or workloads.WORKLOADS:
        runs = [run(workload, seed, args.seconds) for seed in seeds]
        e2e = {name: quartiles([r["metrics"][name]["value"] for _, r in runs]) for name in bounds}
        for name, q in e2e.items():
            spread = (q["q3"] - q["q1"]) / q["median"]
            print(f"{workload:14s} {name:12s} median {q['median']:12.6g}  spread {spread:7.2%}"
                  f"  bound {bounds[name]:.0%}{'  OVER' if spread > bounds[name] else ''}")
        failed = sum(r["failed"] for _, r in runs)
        attempted = sum(r["attempted"] for _, r in runs)
        correct = all(r["correct"] for _, r in runs)
        defects = [d["known_defects"] for d, _ in runs]
        print(f"{workload:14s} failed {failed} of {attempted}, correct {correct},"
              f" known-defect failures {sum(d['failed'] for d in defects)} of {sum(d['probed'] for d in defects)}")
        out[workload] = {
            "end_to_end": e2e,
            "failures_per_run_median": {k: statistics.median(d["failures"][k] for d, _ in runs)
                                        for k in runs[0][0]["failures"]},
            "known_defects_per_run_median": {k: statistics.median(d[k] for d in defects) for k in defects[0]},
            "named": {name: {"median": statistics.median(d["metrics"][name]["value"] for d, _ in runs),
                             "unit": entry["unit"]}
                      for name, entry in runs[0][0]["metrics"].items()},
            "runs": len(runs),
            "seeds": args.seeds,
        }
    if args.out:
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
