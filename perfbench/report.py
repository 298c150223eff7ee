#!/usr/bin/env python3
"""Run every workload once and print its metrics under workload-specific names.

Usage (from the repository root):

  python3 perfbench/report.py --seed 1 --seconds 20 [--trace 1]

Runs `perfbench/run.py` for cold_cli, channel_sweep, pass_planning and
mc_validate in turn and prints one line per metric: workload, name, value,
unit and sample count, then whether every output check passed.  With
--trace 1 it prints the per-layer metrics instead.  Exits 1 when a run
fails or an output check does not pass.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ok = True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: run failed with exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        metrics = result["metrics"] if args.trace else detail["metrics"]
        for name, entry in sorted(metrics.items()):
            count = f"  n={entry['n']}" if "n" in entry else ""
            print(f"{workload:14s} {name:40s} {entry['value']:14.6g} {entry['unit']}{count}")
        print(f"{workload:14s} {'output checks':40s} {'pass' if result['correct'] else 'FAIL'}"
              f"  ({result['failed']} of {result['attempted']} operations failed: {detail['failures']};"
              f" known defects: {detail['known_defects']})")
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
