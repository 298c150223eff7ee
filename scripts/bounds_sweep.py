#!/usr/bin/env python3
"""Regenerate the bound-vs-altitude curves as CSV files.

Writes one file per configuration (night/day x up/down) with the
diffraction-only bound U, the fixed-loss bound V, the loss-limited bound B
and the thermal-loss upper/lower bounds at the zenith and at 1 radiant.
"""

import argparse
import pathlib

from satlink.cli import main as cli_main

CONFIGS = [
    ("night_down", ["--set", "scenario.link=down", "--set", "scenario.period=night"]),
    ("night_up", ["--set", "scenario.link=up", "--set", "scenario.period=night"]),
    ("day_down_clear", ["--set", "scenario.link=down", "--set", "scenario.period=day"]),
    ("day_up", ["--set", "scenario.link=up", "--set", "scenario.period=day"]),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out_bounds")
    parser.add_argument("--points", type=int, default=40)
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, overrides in CONFIGS:
        target = outdir / f"bounds_{name}.csv"
        code = cli_main(
            ["bounds", "--h-grid", f"100km:36000km:{args.points}:log",
             "--theta", "0", "--theta", "1", "-o", str(target)]
            + overrides
        )
        if code != 0:
            return code
        print("wrote", target)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
