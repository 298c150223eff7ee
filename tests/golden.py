"""The golden corpus: CLI runs whose outputs are held in tests/golden.json.

    python tests/golden.py            # run every case and compare it with the corpus
    python tests/golden.py --record   # run every case and rewrite the corpus

A case is an argv of `satlink`; the corpus holds each case's exit code,
stdout and stderr.  Each case runs in this process through `cli.main`, with
fresh warning state; a warning is kept as `Category: message`, without its
file and source line.  It runs whichever satlink the interpreter imports:
the sources under PYTHONPATH, or the installed package.

A run matches the corpus when each case's exit code is the same, its text is
the same once its numbers are masked, and each of its numbers lies within
REL_TOL relative of the recorded one (a zero matches only a zero).  Every
number that moved is printed as old -> new with its relative change, within
the tolerance or not.  The check exits 1 on any change beyond the tolerance,
any text change, any exit-code change and any case added or removed;
`--record` prints the same list and rewrites the corpus.

No case quotes text from outside satlink on stderr (an errno string, numpy's
allocation message, an argparse usage error): such text differs between
platforms and Python versions.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import itertools
import json
import math
import pathlib
import re
import shlex
import sys
import warnings

# numpy's import resets the registry of warnings shown: loaded here, it is
# never loaded in the middle of a case, which would print a warning twice
import numpy  # noqa: F401
from satlink import cli

CORPUS = pathlib.Path(__file__).with_name("golden.json")
REL_TOL = 1e-6  # the tolerance of perfbench/reference.json
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")

UP_DAY = ["--set", "scenario.link=up", "--set", "scenario.period=day"]
README_SET = ["--set", "scenario.setup=2", "--set", "protocol.mu=9.28", "--set", "protocol.phi=0.73"]
RATE_3 = ["rate", "--h", "530km", "--theta-grid", "0:0.5:3"]
SWEEP = ["bounds", "--h-grid", "100km:36000km:40:log", "--theta", "0", "--theta", "1"]

README = [
    ["show-config", "--set", "scenario.setup=2"],
    [*SWEEP, *UP_DAY],
    ["rate", "--h", "530km", "--theta-grid=-1:1:81", *README_SET],
    ["pass", "--h", "530km", "--blocks", "10", *README_SET],
    ["compare-fiber", "--d-grid", "50km:10000km:60:log", "--n-rep", "1", "5", "30",
     "--sat", "h=530km,blocks=10,period=night,setup=2,mu=9.28,phi=0.73,label=nightdown"],
    ["validate-mc", "--h", "530km", "--theta", "1", "--samples", "1000000", "--seed", "1"],
    ["max-range", "--mode", "tight", *UP_DAY],
]

# the edges of the documented domain: each run with its exit code and the
# message or value that shows it
EDGES = [
    ["show-config"],
    *(["show-config", "--set", f"scenario.setup={n}"] for n in (1, 2, 3, 4)),
    ["pass", "--h", "530km"],
    # no block of 1e10 pulses fits in t_Q: the report keeps the orbit keys and says why
    ["pass", "--h", "530km", "--set", "protocol.N=1e10", "--set", "protocol.m=1e8"],
    # a log grid at the top of the double range; a hop behind 1e19 repeaters,
    # and one of 1e-300 m whose loss underflows
    ["compare-fiber", "--d-grid", "1e300km:1.7976931348623157e308:5:log", "--n-rep", "1e19"],
    ["compare-fiber", "--d-grid", "1e-300:1e-300:1", "--n-rep", "1e19"],
    # configuration errors: each names its angle, key or option
    ["rate", "--h", "530km", "--theta-grid=1.5:1.7:3"],
    ["validate-mc", "--h", "530km", "--theta=1.5707963267949", "--samples", "10"],
    ["bounds", "--h-grid", "10km:0km:3:log"],
    ["show-config", "--set", "scenario.setup=2.7"],
    ["validate-mc", "--h", "530km", "--samples", "1km"],
    ["show-config", "--set", "protocol.tail=bogus"],
    [*RATE_3, "--set", "atmosphere.alpha0=-1"],
    [*RATE_3, "--set", "beam.curvature=0"],
    # numerical failures: a degenerate fading law exits 3, not nan
    [*RATE_3, "--set", "beam.waist=1e-9"],
    ["max-range", "--mode", "tight", "--set", "scenario.link=up", "--set", "scenario.period=night",
     "--set", "receiver.filter=0.1pm"],
    # short paths take the tanh-sinh line of sight and keep a finite eta below 1
    ["bounds", "--h-grid", "530km:530km:1", "--set", "atmosphere.scale_height=1e300"],
    ["bounds", "--h-grid", "1m:10km:4:log", "--theta", "0", "--theta", "1.5"],
    # a full sampler block and a partial one; one KS segment; the near field,
    # where a fifth of the taus round to eta; no wander, every sample at eta
    ["validate-mc", "--h", "530km", "--theta", "1", "--samples", "65537", "--seed", "1"],
    ["validate-mc", "--h", "530km", "--samples", "33"],
    ["validate-mc", "--h", "100km", "--samples", "100000", "--set", "scenario.setup=4"],
    ["validate-mc", "--h", "530km", "--samples", "1000", "--set", "pointing.error_rad=0"],
    ["max-range", "--mode", "simple", *UP_DAY],
    # the near field of the 2 m downlink apertures
    ["bounds", "--h-grid", "100km:500km:5", "--set", "scenario.setup=3"],
]

# the tight max range on every documented configuration, with both filters
TIGHT = [
    ["max-range", "--mode", "tight", "--set", f"scenario.setup={setup}", "--set", f"scenario.link={link}",
     "--set", f"scenario.period={period}", "--set", f"scenario.sky={sky}", *narrow]
    for setup, link, period, sky, narrow in itertools.product(
        (1, 2, 3, 4), ("up", "down"), ("day", "night"), ("clear", "cloudy"),
        ([], ["--set", "receiver.filter=0.1pm"]))
]

# the curves of scripts/bounds_sweep.py, one per link and period
SCRIPT_SWEEPS = [
    [*SWEEP, "--set", f"scenario.link={link}", "--set", f"scenario.period={period}"]
    for period, link in (("night", "down"), ("night", "up"), ("day", "down"), ("day", "up"))
]

# the horizon, on every setup, link and altitude of the documented domain's corners
HORIZON = [
    ["bounds", "--h-grid", f"{h}:{h}:1", f"--theta={theta!r}", "--set", f"scenario.link={link}",
     "--set", f"scenario.setup={setup}"]
    for setup, link, h, theta in itertools.product(
        (1, 2, 3, 4), ("up", "down"), ("100km", "530km", "36000km"), (-math.pi / 2, math.pi / 2))
]

# each argv once, in the order above
CASES = [list(argv) for argv in dict.fromkeys(map(tuple, README + EDGES + TIGHT + SCRIPT_SWEEPS + HORIZON))]


def run(argv: list[str]) -> dict:
    """The exit code, stdout and stderr of `satlink argv`, run in this process."""
    stdout, stderr = io.StringIO(), io.StringIO()

    def show(message, category, *_):
        print(f"{category.__name__}: {message}", file=stderr)

    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("default")  # each warning once per place, as in a fresh process
        warnings.showwarning = show
        code = cli.main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout": stdout.getvalue().splitlines(keepends=True),
        "stderr": stderr.getvalue().splitlines(keepends=True),
    }


def moved_numbers(old: list[str], new: list[str]) -> list[tuple[int, str, str]] | None:
    """(line, old, new) for each number of new that differs from old, or
    None if the two differ in their text once their numbers are masked."""
    if len(old) != len(new):
        return None
    moves = []
    for line, (a, b) in enumerate(zip(old, new), 1):
        old_parts, new_parts = NUMBER.split(a), NUMBER.split(b)
        if old_parts[::2] != new_parts[::2]:
            return None
        moves += [(line, x, y) for x, y in zip(old_parts[1::2], new_parts[1::2]) if x != y]
    return moves


def relative_change(old: str, new: str) -> float:
    """(new - old) / |old|; infinite where a zero moved."""
    x, y = float(old), float(new)
    if x == y:
        return 0.0
    return (y - x) / abs(x) if x else math.inf


def compare(old: list[dict], new: list[dict]) -> tuple[list[str], bool]:
    """The report of the cases new against the cases old, matched by argv,
    and whether new differs beyond the tolerance."""
    recorded = {tuple(case["argv"]): case for case in old}
    running = {tuple(case["argv"]): case for case in new}
    lines, failed = [], False
    numbers = moved = beyond = 0
    for argv, case in running.items():
        head = "satlink " + shlex.join(argv)
        numbers += sum(len(NUMBER.findall(line)) for line in case["stdout"] + case["stderr"])
        if argv not in recorded:
            lines.append(f"{head}\n  added")
            failed = True
            continue
        was, notes = recorded[argv], []
        if case["exit"] != was["exit"]:
            notes.append(f"  exit code {was['exit']} -> {case['exit']}")
            failed = True
        for stream in ("stdout", "stderr"):
            moves = moved_numbers(was[stream], case[stream])
            if moves is None:
                notes.append(f"  {stream} text changed")
                notes += ("    " + d.rstrip("\n") for d in difflib.unified_diff(was[stream], case[stream], n=0))
                failed = True
                continue
            for line, x, y in moves:
                rel = relative_change(x, y)
                out = not abs(rel) <= REL_TOL  # a nan is beyond too
                moved, beyond, failed = moved + 1, beyond + out, failed or out
                notes.append(f"  {stream}:{line}  {x} -> {y}  rel {rel:+.2g}" + (f"  beyond {REL_TOL:g}" if out else ""))
        if notes:
            lines += [head, *notes]
    for argv in recorded:
        if argv not in running:
            lines.append("satlink " + shlex.join(argv) + "\n  removed")
            failed = True
    lines.append(
        f"{len(new)} cases, {numbers} numbers: {moved} moved, {beyond} beyond {REL_TOL:g}"
        + ("; the corpus differs" if failed else "")
    )
    return lines, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the golden corpus of CLI runs and compare it.")
    parser.add_argument("--record", action="store_true", help="rewrite the corpus with this run's outputs")
    args = parser.parse_args(argv)
    old = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else []
    new = [run(argv) for argv in CASES]
    lines, failed = compare(old, new)
    print("\n".join(lines))
    if args.record:
        CORPUS.write_text(json.dumps(new, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
