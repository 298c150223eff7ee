"""One workload in one fresh process: import, warm up, then a closed timed loop.

Started by run.py, never by hand.  The worker prints one JSON line with
what it measured; set-up runs from --t0, taken by run.py just before the
spawn, to the end of the warm-up.  Modes:

  setup  start, import, warm up, report the set-up time and exit;
  run    set-up, then operations back to back for --seconds, untraced;
  trace  set-up, then each operation twice, untraced and with spans
         installed, for --seconds; reports the per-layer numbers.

After the loop, run and trace make the workload's known-defect operations
(workloads.known_defects) once, untimed, and report them apart.

In-process workloads call `satlink.cli.main(argv)` with stdout captured;
cold_cli starts one `satlink` process per operation, one at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
# What the `satlink` console script runs (pyproject: satlink = "satlink.cli:main").
LAUNCH = "import sys; from satlink.cli import main; sys.exit(main())"
COLD_TIMEOUT_S = 60.0
TRACE_MARK = "PERFBENCH-TRACE "
# The speed of this shared machine drifts by about 15 % over tens of seconds.
# Timings are scaled by a calibration loop sampled through the run (run.py).
CAL_ITERS = 60_000
CAL_EVERY_S = 0.1
CAL_MIN_SAMPLES = 5
CAL_SETUP_SAMPLES = 20

GUARDS = (
    ("Rytov", "guard.fading.rytov"),
    ("Yura", "guard.turbulence.yura"),
    ("blocks of", "guard.orbit.blocks_reduced"),
)


def guard_name(message: str) -> str:
    for needle, name in GUARDS:
        if needle in message:
            return name
    return "guard.other"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


# -- import-time profile ---------------------------------------------------------

def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds for `import satlink` (cumulative) and for scipy within it.

    Each module's own time goes to its nearest enclosing satlink, scipy or
    numpy module, so scipy's share includes what scipy alone pulls in but
    not numpy.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, self_us, cum_us, name = (part for part in line.replace("import time:", "|", 1).split("|"))
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(self_us), int(cum_us)))
    tracked = ("satlink", "scipy", "numpy")
    owners = Counter()
    satlink_s = 0.0
    path: list[str] = []
    for depth, name, self_us, cum_us in reversed(entries):  # parents precede children here
        del path[depth:]
        root = name.split(".")[0]
        owner = next((a for a in reversed(path + [name]) if a.split(".")[0] in tracked), None)
        if owner is not None:
            owners[owner.split(".")[0]] += self_us
        if root == "satlink" and not any(a.split(".")[0] == "satlink" for a in path):
            satlink_s += cum_us / 1e6
        path.append(name)
    return {"import.satlink_s": satlink_s, "import.scipy_s": owners["scipy"] / 1e6}


def import_profile(root: Path, repeats: int = 3) -> dict[str, float]:
    """Median import profile of `satlink.cli` over fresh interpreters."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import satlink.cli"],
            capture_output=True, text=True, env=child_env(root), cwd=root, timeout=COLD_TIMEOUT_S,
        )
        samples.append(parse_importtime(proc.stderr))
    return {key: sorted(s[key] for s in samples)[len(samples) // 2] for key in samples[0]}


# -- executing one operation ------------------------------------------------------

@dataclass
class Outcome:
    op: workloads.Op
    seconds: float
    cause: str  # "ok", "exit2", "exit3", "exception" or "mismatch"
    capped: bool = False
    guards: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    trace: dict | None = None  # span report of a traced cold process
    parsed: object = None  # the parsed output, kept only by run_inprocess


def _judge(op, seconds, rc, stdout, guards, ref, trace=None) -> Outcome:
    cause = {0: "ok", 2: "exit2", 3: "exit3"}.get(rc, "exception")
    if cause != "ok":
        return Outcome(op, seconds, cause, guards=guards, trace=trace)
    parsed, problems = checks.check(op.kind, op.argv, stdout, ref)
    if problems:
        return Outcome(op, seconds, "mismatch", guards=guards, problems=problems, trace=trace)
    return Outcome(op, seconds, "ok", checks.is_capped(op.kind, parsed), guards, trace=trace, parsed=parsed)


def run_inprocess(op, ref=None) -> Outcome:
    from satlink import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an uncaught exception is a failure cause of its own
            traceback.print_exc(file=err)
            rc = "exception"
        seconds = time.perf_counter() - start
    guards = [guard_name(str(w.message)) for w in caught]
    return _judge(op, seconds, rc, out.getvalue(), guards, ref)


def run_cold(op, root: Path, ref=None, traced=False) -> Outcome:
    if traced:
        cmd = [sys.executable, "-X", "importtime", str(HERE / "traced_cli.py"), *op.argv]
    else:
        cmd = [sys.executable, "-c", LAUNCH, *op.argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(root), cwd=root)
    try:
        stdout, stderr = proc.communicate(timeout=COLD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Outcome(op, time.perf_counter() - start, "exception", problems=["timed out"])
    seconds = time.perf_counter() - start
    trace, guards = None, []
    if traced:
        marks = [line for line in stderr.splitlines() if line.startswith(TRACE_MARK)]
        if marks:
            trace = json.loads(marks[-1][len(TRACE_MARK):])
            trace["imports"] = parse_importtime(stderr)
            guards = [g for g, n in trace["guards"].items() for _ in range(n)]
    return _judge(op, seconds, proc.returncode, stdout, guards, ref, trace)


# -- loops -------------------------------------------------------------------------

def load_reference(workload: str) -> list[dict]:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def reference_for(refs: list[dict], index: int, op) -> dict | None:
    if index < len(refs) and refs[index]["argv"] == list(op.argv):
        return refs[index]
    return None


def run_op(workload, op, root, ref=None) -> Outcome:
    outcome = run_cold(op, root, ref) if workload == "cold_cli" else run_inprocess(op, ref)
    outcome.parsed = None  # keep memory flat however many operations a run makes
    return outcome


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the machine's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERS):
        acc += i * i % 7
    return time.perf_counter() - start


def timed_loop(workload, seed, seconds, root, refs) -> tuple[list[Outcome], list[float]]:
    """Closed loop, one client: the next operation starts when the last ends.

    Between operations the calibration loop runs once per CAL_EVERY_S of
    elapsed time, so its samples cover the run evenly.
    """
    outcomes = []
    cal = [calibrate() for _ in range(CAL_MIN_SAMPLES)]
    start = time.perf_counter()
    deadline, next_cal = start + seconds, start
    for i, op in enumerate(workloads.STREAMS[workload](seed)):
        if time.perf_counter() >= deadline:
            break
        ref = reference_for(refs, i, op) if seed == workloads.DEFAULT_SEED else None
        outcomes.append(run_op(workload, op, root, ref))
        while time.perf_counter() >= next_cal:
            cal.append(calibrate())
            next_cal += CAL_EVERY_S
    return outcomes, cal


# -- summaries ---------------------------------------------------------------------

def summarize(outcomes: list[Outcome]) -> dict:
    causes = Counter(o.cause for o in outcomes)
    by_kind: dict[str, list[float]] = {}
    for o in outcomes:
        # a failed operation misses any latency limit
        by_kind.setdefault(o.op.kind, []).append(o.seconds if o.cause == "ok" else math.inf)
    return {
        "attempted": len(outcomes),
        "failed": len(outcomes) - causes["ok"],
        "causes": {c: causes[c] for c in ("exit2", "exit3", "exception", "mismatch")},
        "capped": sum(o.capped for o in outcomes),
        "busy_s": sum(o.seconds for o in outcomes),
        "good_units": sum(o.op.units for o in outcomes if o.cause == "ok"),
        "latency_s": by_kind,
        "guards": dict(Counter(g for o in outcomes for g in o.guards)),
        "problems": [f"{' '.join(o.op.argv)}: {p}" for o in outcomes for p in o.problems][:10],
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cold_cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _per_call(state, name, scale):
    calls = state["calls"].get(name, 0)
    return state["self_s"].get(name, 0.0) / calls * scale if calls else 0.0


_UNIT_SUFFIXES = (
    ("_pct", "%"), ("_frac", "ratio"), ("_ms", "ms"), (".ms", "ms"), ("_s", "s"),
    (".self_us", "us"), (".self_ns", "ns"), (".ns_per_sample", "ns"),
    (".calls_per_op", "1/op"), (".evals_per_solve", "1/solve"), (".calls_per_pass", "1/pass"),
)


def layer_unit(name: str) -> str:
    return next((unit for suffix, unit in _UNIT_SUFFIXES if name.endswith(suffix)), "count")


def layer_metrics(state: dict, ops: int, passes: int, cache, imports: dict) -> dict[str, float]:
    calls, nested = state["calls"], state["nested"]
    out = dict(imports)
    out["cli.config_ms"] = state["self_s"].get("cli.config", 0.0) / ops * 1e3
    out["cli.output_ms"] = state["self_s"].get("cli.output", 0.0) / ops * 1e3
    for name, _, _ in tracing.FUNCTION_SPANS:
        if name.startswith("cli.") or name in ("fading.sample_fading", "fading.fading_cdf"):
            continue
        out[f"{name}.calls_per_op"] = calls.get(name, 0) / ops
        out[f"{name}.self_us"] = _per_call(state, name, 1e6)
    out["fading.fading_cdf.calls_per_op"] = calls.get("fading.fading_cdf", 0) / ops
    out["fading.fading_cdf.self_ns"] = _per_call(state, "fading.fading_cdf", 1e9)
    samples = state["units"].get("fading.sample_fading", 0)
    out["fading.sample_fading.ns_per_sample"] = (
        state["self_s"].get("fading.sample_fading", 0.0) / samples * 1e9 if samples else 0.0)
    solves = calls.get("bounds.max_range", 0)
    out["bounds.max_range.evals_per_solve"] = (
        nested.get("bounds.max_range>bounds.thermal_upper", 0) / solves if solves else 0.0)
    out["scenario.rate_at.calls_per_pass"] = (
        nested.get("scenario.pass_report>scenario.rate_at", 0) / passes if passes else 0.0)
    for name in ("orbit.slice_orbit", "orbit.orbital_rate"):
        n = calls.get(name, 0)
        out[f"{name}.ms"] = state["total_s"].get(name, 0.0) / n * 1e3 if n else 0.0
    hits, misses = cache if cache is not None else (0, 0)
    out["turbulence.i_infty.cache_hits"] = hits
    out["turbulence.i_infty.cache_misses"] = misses
    return out


# -- modes -------------------------------------------------------------------------

def probe_defects(workload, seed, root) -> dict:
    return summarize([run_op(workload, op, root) for op in workloads.known_defects(workload, seed)])


def warm_up(workload, root) -> list[Outcome]:
    refs = load_reference(workload)
    warm = workloads.ops(workload, workloads.DEFAULT_SEED, workloads.WARMUP_OPS[workload])
    return [run_op(workload, op, root, reference_for(refs, i, op)) for i, op in enumerate(warm)]


def _traced_pairs(workload, seed, seconds, root):
    """Run each operation untraced and traced, alternating which goes first.

    Pairing the two runs of an operation keeps machine noise out of the
    tracing overhead.
    """
    untraced, traced = [], []
    spans = tracing.Tracer() if workload != "cold_cli" else None
    cache = [0, 0]
    deadline = time.perf_counter() + seconds
    for i, op in enumerate(workloads.STREAMS[workload](seed)):
        if time.perf_counter() >= deadline:
            break
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_spans:
                untraced.append(run_op(workload, op, root))
            elif spans is None:
                traced.append(run_cold(op, root, traced=True))
            else:
                spans.install()
                before = tracing.cache_info()
                traced.append(run_op(workload, op, root))
                after = tracing.cache_info()
                spans.uninstall()
                if before is not None:
                    cache[0] += after[0] - before[0]
                    cache[1] += after[1] - before[1]
    if spans is not None:
        return untraced, traced, spans.state(), tuple(cache), import_profile(root), spans.coverage()
    reports = [o.trace for o in traced if o.trace]
    if not reports:
        return untraced, traced, tracing.merge([]), None, {}, {}
    cache = tuple(sum(r["cache"][k] for r in reports if r["cache"]) for k in (0, 1))
    imports = {k: sorted(r["imports"][k] for r in reports)[len(reports) // 2] for k in reports[0]["imports"]}
    return untraced, traced, tracing.merge(r["trace"] for r in reports), cache, imports, reports[0]["coverage"]


def trace_run(workload, seed, seconds, root) -> dict:
    untraced, traced, state, cache, imports, coverage = _traced_pairs(workload, seed, seconds, root)
    ops = max(1, len(traced))
    passes = sum(o.op.kind == "pass" for o in traced)
    summary = summarize(traced)
    metrics = layer_metrics(state, ops, passes, cache, imports)
    for _, guard in GUARDS:
        metrics[guard] = summary["guards"].get(guard, 0)
    for cause, count in summary["causes"].items():
        metrics[f"fail.{cause}"] = count
    metrics["max_range.capped"] = summary["capped"]
    metrics["failed_frac"] = summary["failed"] / max(1, summary["attempted"])
    defects = probe_defects(workload, seed, root)
    metrics["known_defect.failed"] = defects["failed"]
    metrics["known_defect.failed_frac"] = defects["failed"] / max(1, defects["attempted"])
    base = sum(o.seconds for o in untraced)
    metrics["trace.ops"] = len(traced)
    metrics["trace.overhead_s"] = summary["busy_s"] - base
    metrics["trace.overhead_pct"] = (summary["busy_s"] / base - 1.0) * 100.0 if base else 0.0
    return {"summary": summary, "untraced": summarize(untraced), "metrics": metrics, "coverage": coverage,
            "known_defects": defects}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args()

    root = args.root.resolve()
    if args.workload != "cold_cli":
        sys.path.insert(0, str(root / "src"))
        import satlink.cli  # noqa: F401  (part of set-up)

        if not Path(satlink.cli.__file__).resolve().is_relative_to(root / "src"):
            print(f"satlink imported from {satlink.cli.__file__}, not {root / 'src'}", file=sys.stderr)
            return 1
    warm = warm_up(args.workload, root)
    setup_s = time.monotonic() - args.t0
    setup_cal = statistics.median(calibrate() for _ in range(CAL_SETUP_SAMPLES))
    result = {"setup_s": setup_s, "setup_calibration_s": setup_cal, "warmup": summarize(warm)}
    if args.mode == "run":
        refs = load_reference(args.workload)
        outcomes, cal = timed_loop(args.workload, args.seed, args.seconds, root, refs)
        result["summary"] = summarize(outcomes)
        result["calibration_s"] = cal
        result["known_defects"] = probe_defects(args.workload, args.seed, root)
    elif args.mode == "trace":
        result.update(trace_run(args.workload, args.seed, args.seconds, root))
        result["metrics"]["trace.calibration_ms"] = setup_cal * 1e3
    result["peak_rss_mb"] = peak_rss_mb(args.workload)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
