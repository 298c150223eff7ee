#!/usr/bin/env python3
"""Print the background-photon tables and the maximum secure ranges.

Covers both the 1 nm and 0.1 pm receiver filters for every operating
condition (uplink/downlink, day/night, clear/cloudy).  A tight range whose
solve fails numerically is marked in its cell and explained on stderr; the
script then exits 3, as the CLI does for a numerical failure.
"""

import argparse
import sys

from satlink import Scenario
from satlink.beam import ReceiverParams
from satlink.bounds import MaxRangeResult
from satlink.errors import NumericalError
from satlink.noise import nbar_background

# (name, link, period, sky)
CONDITIONS = [
    ("night-up", "up", "night", "clear"),
    ("night-down", "down", "night", "clear"),
    ("day-up", "up", "day", "clear"),
    ("day-down-clear", "down", "day", "clear"),
    ("day-down-cloudy", "down", "day", "cloudy"),
]
# (name, receiver filter width in m)
FILTERS = [("1 nm", 1e-9), ("0.1 pm", 1e-13)]


def range_cell(res: MaxRangeResult) -> str:
    """A tight maximum range in km; at the bracket cap, a lower limit marked as such."""
    if res.capped:
        return f">{res.z_max / 1e3:.0e} km (cap)"
    return f"{res.z_max / 1e3:11.0f} km"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-tight", action="store_true",
                        help="skip the bisection for the tight maximum ranges")
    args = parser.parse_args()

    print("background photons per mode (receiver: a_R=40cm, fov=1e-10 sr, dt=10 ns)")
    print(f"{'condition':18s} {'1 nm filter':>14s} {'0.1 pm filter':>14s}")
    receivers = [ReceiverParams(filter_width=filt) for _, filt in FILTERS]
    for name, *condition in CONDITIONS:
        print(f"{name:18s}", *(f"{nbar_background(*condition, receiver):14.3g}" for receiver in receivers))

    if args.skip_tight:
        return 0

    print("\nmaximum secure slant range, zenith geometry (setup 1)")
    print(f"{'condition':18s} {'1 nm filter':>14s} {'0.1 pm filter':>14s}")
    failed = False
    for name, link, period, sky in CONDITIONS:
        row = [name]
        for filt_name, filt in FILTERS:
            scn = Scenario.build(link, period, sky, setup=1, receiver={"filter_width": filt})
            try:
                row.append(range_cell(scn.max_range("tight")))
            except NumericalError as exc:
                print(f"{name}, {filt_name} filter: numerical error: {exc}", file=sys.stderr)
                row.append("failed")
                failed = True
        print(f"{row[0]:18s} {row[1]:>14s} {row[2]:>14s}")
    return 3 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
