#!/usr/bin/env python3
"""satlink benchmark: one workload, one seed, one run.

Usage (from the repository root):

  python3 perfbench/run.py --workload cold_cli --seed 1 --seconds 20 --trace 0

Workloads: cold_cli, channel_sweep, pass_planning, mc_validate (see
workloads.py and NOTES.md).  With --trace 0 the last stdout line carries the
end-to-end metrics, measured untraced; with --trace 1 it carries the
per-layer metrics of a separate traced run.  The line before it holds the
run metadata, the metrics under workload-specific names (cli_cold_s_p50,
sweep_points_per_s, pass_ms_p50, max_range_ms_p50, mc_samples_per_s, ...),
failures by cause, the validity guards that fired and the outcome of the
known-defect operations, which run once after the timed loop and are not
counted in `attempted` and `failed`.

Each workload runs in fresh worker processes (worker.py).  Set-up is
measured three times, by two set-up-only workers and by the measuring one,
and reported as the median.  The benchmark exits 1 without a result when
the satlink sources are not under ./src.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import child_env, layer_unit  # noqa: E402

SETUP_RUNS = 3
# Reference speed: the calibration loop of worker.py takes 5 ms.
CAL_REF_S = 0.005
RUN_TIMEOUT_S = 170.0  # all workers of one run together

# Workload-specific names of op_ms_p50 (with its unit) and good_per_s, and the
# per-kind medians reported beside them.
NAMED = {
    "cold_cli": {"latency": ("cli_cold_s_p50", "s"), "throughput": "cli_cmds_per_s"},
    "channel_sweep": {"latency": ("sweep_cmd_ms_p50", "ms"), "throughput": "sweep_points_per_s"},
    "pass_planning": {"latency": ("planning_op_ms_p50", "ms"), "throughput": "solves_per_s",
                      "kinds": {"pass": "pass_ms_p50", "max-range": "max_range_ms_p50"}},
    "mc_validate": {"latency": ("mc_cmd_ms_p50", "ms"), "throughput": "mc_samples_per_s"},
}


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--root", str(ROOT), "--t0", repr(t0)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(ROOT), cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{mode} worker for {workload} timed out") from None
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"{mode} worker for {workload} failed with exit code {proc.returncode}")
    return json.loads(stdout.splitlines()[-1])


def timing_ms(samples: list[float], window_s: float) -> dict:
    """Median latency in ms with its sample count, plus p90/p99 where at
    least 10 samples lie beyond them.  Failed operations are infinite; a
    percentile that lands on one is reported as the whole run window."""
    ordered = sorted(samples)
    n = len(ordered)
    picks = {"value": statistics.median(ordered)}
    for q in (90, 99):
        if n * (100 - q) / 100 >= 10:
            picks[f"p{q}"] = ordered[min(n - 1, math.ceil(n * q / 100) - 1)]
    out = {k: (v if math.isfinite(v) else window_s) * 1e3 for k, v in picks.items()}
    out["n"] = n
    return out


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def metadata_block(workload: str, seed: int) -> dict:
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "satlink").rglob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "src_satlink_lines": lines,
        "threads_pinned": {k: child_env(ROOT)[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def end_to_end(workload: str, seconds: float, main: dict, setups: list[dict]) -> tuple[dict, dict]:
    """The BENCHMARK.json metrics, and the same numbers under workload-specific names.

    Times are scaled to the reference speed, at which the calibration loop
    takes CAL_REF_S; the named entries carry the raw value too.
    """
    summary = main["summary"]
    cal = statistics.median(main["calibration_s"])
    speed = CAL_REF_S / cal  # < 1 when the machine runs slow
    attempted = max(1, summary["attempted"])
    latency = timing_ms([s for kind in summary["latency_s"].values() for s in kind], seconds)
    raw_setup = statistics.median(s["setup_s"] for s in setups)
    # each set-up is scaled by the calibration its own worker measured
    setup_s = statistics.median(s["setup_s"] * CAL_REF_S / s["setup_calibration_s"] for s in setups)
    raw_rate = summary["good_units"] / summary["busy_s"]
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        "good_frac": {"value": 1.0 - summary["failed"] / attempted, "unit": "ratio"},
        "op_ms_p50": {"value": latency["value"] * speed, "unit": "ms"},
        "good_per_s": {"value": raw_rate / speed, "unit": "1/s"},
    }

    def scaled(timing: dict, unit: str) -> dict:
        factor = 1e-3 if unit == "s" else 1.0
        out = {k: v * factor * speed for k, v in timing.items() if k != "n"}
        return dict(out, unit=unit, n=timing["n"], raw=timing["value"] * factor)

    names = NAMED[workload]
    lat_name, lat_unit = names["latency"]
    named = {
        "calibration_ms": {"value": cal * 1e3, "unit": "ms", "n": len(main["calibration_s"]),
                           "reference": CAL_REF_S * 1e3},
        "setup_s": {"value": setup_s, "raw": raw_setup, "unit": "s", "n": len(setups),
                    "raw_samples": [s["setup_s"] for s in setups]},
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_frac": {"value": summary["failed"] / attempted, "unit": "ratio", "n": summary["attempted"]},
        lat_name: scaled(latency, lat_unit),
        names["throughput"]: {"value": raw_rate / speed, "raw": raw_rate, "unit": "1/s",
                              "good_units": summary["good_units"], "busy_s": summary["busy_s"]},
    }
    defects = main["known_defects"]
    if defects["attempted"]:
        named["known_defect_failed_frac"] = {"value": defects["failed"] / defects["attempted"], "unit": "ratio",
                                             "n": defects["attempted"]}
    for kind, name in names.get("kinds", {}).items():
        named[name] = scaled(timing_ms(summary["latency_s"].get(kind, [math.inf]), seconds), "ms")
    return metrics, named


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "satlink" / "cli.py").is_file():
        print(f"no satlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        if args.trace:
            main_run = spawn(args.workload, args.seed, args.seconds, "trace", deadline)
        else:
            setups = [spawn(args.workload, args.seed, args.seconds, "setup", deadline)
                      for _ in range(SETUP_RUNS - 1)]
            main_run = spawn(args.workload, args.seed, args.seconds, "run", deadline)
            setups.append(main_run)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    summary = main_run["summary"]
    warm = main_run["warmup"]
    defects = main_run["known_defects"]
    checked = [summary, warm, defects] + ([main_run["untraced"]] if args.trace else [])
    mismatches = sum(s["causes"]["mismatch"] for s in checked)
    detail = {
        "meta": metadata_block(args.workload, args.seed),
        "trace": args.trace,
        "failures": dict(summary["causes"], max_range_capped=summary["capped"]),
        "guards": summary["guards"],
        "warmup_failures": warm["causes"],
        "known_defects": dict(defects["causes"], probed=defects["attempted"], failed=defects["failed"],
                              max_range_capped=defects["capped"]),
        "problems": warm["problems"] + summary["problems"] + defects["problems"],
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in main_run["metrics"].items()}
        detail["span_coverage"] = main_run["coverage"]
        detail["untraced_busy_s"] = main_run["untraced"]["busy_s"]
    else:
        metrics, detail["metrics"] = end_to_end(args.workload, args.seconds, main_run, setups)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
