"""Record the reference outputs that every benchmark run checks against.

Usage: python3 perfbench/record_reference.py   (from the repository root)

Runs the first operations of each workload's default-seed stream in process
and writes how each ended and its parsed output to perfbench/reference.json.
Re-record only when a change of outputs is intended and has been checked
against the acceptance suite.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import run_inprocess  # noqa: E402


def record(workload: str) -> list[dict]:
    out = []
    for op in workloads.ops(workload, workloads.DEFAULT_SEED, workloads.REFERENCE_OPS[workload]):
        outcome = run_inprocess(op)
        if outcome.cause == "mismatch":
            raise SystemExit(f"{' '.join(op.argv)} fails its own invariants: {outcome.problems}")
        entry = {"argv": list(op.argv), "cause": outcome.cause}
        if outcome.cause == "ok":
            entry["values"] = checks.comparable(op.kind, outcome.parsed)
        out.append(entry)
    return out


def main() -> int:
    reference = {w: record(w) for w in workloads.WORKLOADS}
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
