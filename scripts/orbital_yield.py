#!/usr/bin/env python3
"""Per-pass key yields for the three reference passes and the fiber break-even.

Scenarios: night downlink from 530 km (setup 2), clear-day downlink from
530 km (setup 2), night uplink to 155 km (setup 3); modulation and threshold
fraction fixed at their per-scenario optima.
"""

import argparse
import json
import math

from satlink import ProtocolParams, Scenario
from satlink.orbit import ALPHA_FIBER_DB_PER_KM, SECONDS_PER_DAY

RUNS = [
    ("night-down-530", "down", "night", "clear", 2, 9.28, 0.73, 530e3, 10),
    ("day-down-530", "down", "day", "clear", 2, 9.65, 0.83, 530e3, 10),
    ("night-up-155", "up", "night", "clear", 3, 7.0, 0.68, 155e3, 3),
]


def crossover(sat_bits: float, clock: float, n_rep: int) -> float:
    """Station separation (m) beyond which the pass beats a fiber with n_rep repeaters.

    The inverse of orbit.repeater_rate: at r bits per use, each of the
    n_rep + 1 equal hops transmits 1 - 2^-r.
    """
    r = sat_bits / (clock * SECONDS_PER_DAY)
    hop_db = -10.0 * math.log10(-math.expm1(-r * math.log(2.0)))
    return (n_rep + 1) * hop_db / ALPHA_FIBER_DB_PER_KM * 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit the full pass reports")
    args = parser.parse_args()

    for label, link, period, sky, setup, mu, phi, h, blocks in RUNS:
        scn = Scenario.build(link, period, sky=sky, setup=setup,
                             protocol=ProtocolParams(mu=mu, phi_thr=phi))
        report = scn.pass_report(h, blocks)
        if args.json:
            print(json.dumps({label: report}, indent=2, sort_keys=True))
        else:
            print(
                f"{label:15s} R_orb = {report['R_orb']:.3e} bits/use, "
                f"{report['R_orb'] * scn.protocol.clock_hz / 1e3:6.0f} kbit/s, "
                f"{report['bits_per_pass']:.3g} bits/pass"
            )
        if label == "night-down-530" and not args.json:
            clock = scn.protocol.clock_hz
            d0 = crossover(report["bits_per_day"], clock, 0)
            d30 = crossover(report["bits_per_day"], clock, 30)
            print(f"{'':15s} beats repeaterless fiber beyond {d0 / 1e3:.0f} km,"
                  f" 30 ideal repeaters beyond {d30 / 1e3:.0f} km")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
