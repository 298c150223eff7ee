"""Command-line front end: sweeps, pass planning, validation, comparisons.

Configuration is a flat key=value text file with dotted namespaces; CLI
flags and repeated --set key=value pairs override file values.  Quantities
accept unit suffixes (km, m, cm, nm, pm, deg, rad, ns, MHz, ...) and are
converted to SI at parse time.  Every CSV starts with a comment line that
records the fully resolved configuration; identical invocations produce
byte-identical output.

Exit codes: 0 ok, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import operator
import re
import sys
from typing import Callable, Sequence

import numpy as np

from . import bounds, fading, noise, orbit
from .atmosphere import ExtinctionModel
from .beam import BeamParams, ReceiverParams
from .cvqkd import ProtocolParams
from .errors import ConfigError, NumericalError
from .scenario import Scenario, setup_preset
from .turbulence import TurbulenceProfile

_UNITS = {
    "": 1.0,
    "m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "nm": 1e-9, "pm": 1e-12, "km": 1e3,
    "rad": 1.0, "deg": math.pi / 180.0,
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9,
    "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9,
    "sr": 1.0,
}

_QUANTITY_RE = re.compile(r"^\s*([+-]?\d*\.?\d+(?:[eE][+-]?\d+)?)\s*([a-zA-Z]*)\s*$")


def parse_quantity(text: str) -> float:
    """Parse '530km', '1 deg', '0.1pm', '5MHz' or a bare number to SI."""
    if text.strip().lower() in ("inf", "+inf", "infinity"):
        return math.inf
    m = _QUANTITY_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse quantity {text!r}")
    value, unit = float(m.group(1)), m.group(2).lower()
    if unit not in _UNITS:
        raise ConfigError(f"unknown unit {m.group(2)!r} in {text!r}")
    return value * _UNITS[unit]


def parse_grid(spec: str) -> list[float]:
    """Parse 'start:stop:n[:log]' into a list of SI values."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"grid spec {spec!r} is not start:stop:n[:log]")
    lo, hi = parse_quantity(parts[0]), parse_quantity(parts[1])
    try:
        n = int(parts[2])
    except ValueError:
        raise ConfigError(f"grid point count {parts[2]!r} is not an integer") from None
    if n < 1:
        raise ConfigError("grid needs at least one point")
    if len(parts) == 4:
        if parts[3] != "log":
            raise ConfigError(f"unknown grid mode {parts[3]!r}")
        if lo <= 0:
            raise ConfigError("log grid needs a positive start")
        return [float(x) for x in np.geomspace(lo, hi, n)]
    return [float(x) for x in np.linspace(lo, hi, n)]


# -- configuration -----------------------------------------------------------

def _int(text: str) -> int:
    value = parse_quantity(text)
    if math.isinf(value):
        raise ConfigError(f"expected a whole number, got {text!r}")
    return int(value)


def _profile(text: str) -> TurbulenceProfile:
    try:
        return TurbulenceProfile.from_name(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# Every configuration key: (key, Scenario attribute path, parser).  Defaults
# are the dataclasses' own, apart from the setup presets (scenario.SETUPS).
# Keys are parsed in table order, so of several bad keys the first one here
# is reported.
CONFIG_KEYS: tuple[tuple[str, str, Callable[[str], object]], ...] = (
    ("scenario.link", "link", str),
    ("scenario.period", "period", str),
    ("scenario.sky", "sky", str),
    ("scenario.setup", "setup", _int),
    ("beam.wavelength", "beam.wavelength", parse_quantity),
    ("beam.waist", "beam.waist", parse_quantity),
    ("beam.curvature", "beam.curvature", parse_quantity),
    ("receiver.aperture", "receiver.aperture", parse_quantity),
    ("receiver.fov_sr", "receiver.fov_sr", parse_quantity),
    ("receiver.detection_time", "receiver.detection_time", parse_quantity),
    ("receiver.filter", "receiver.filter_width", parse_quantity),
    ("receiver.efficiency", "receiver.efficiency", parse_quantity),
    ("receiver.excess_photons", "receiver.excess_photons", parse_quantity),
    ("atmosphere.alpha0", "extinction.alpha0", parse_quantity),
    ("atmosphere.scale_height", "extinction.h_scale", parse_quantity),
    ("protocol.N", "protocol.block_size", _int),
    ("protocol.m", "protocol.pilots", _int),
    ("protocol.f_et", "protocol.energy_test_fraction", parse_quantity),
    ("protocol.beta", "protocol.beta", parse_quantity),
    ("protocol.p_ec", "protocol.p_ec", parse_quantity),
    ("protocol.eps_s", "protocol.eps_s", parse_quantity),
    ("protocol.eps_h", "protocol.eps_h", parse_quantity),
    ("protocol.eps_pe", "protocol.eps_pe", parse_quantity),
    ("protocol.eps_cor", "protocol.eps_cor", parse_quantity),
    ("protocol.d", "protocol.alphabet", _int),
    ("protocol.mu", "protocol.mu", parse_quantity),
    ("protocol.phi", "protocol.phi_thr", parse_quantity),
    ("protocol.clock_hz", "protocol.clock_hz", parse_quantity),
    ("protocol.detection", "protocol.detection", str),
    ("protocol.tail", "protocol.tail", str),
    ("scenario.profile", "profile", _profile),
    ("pointing.error_rad", "pointing_error", parse_quantity),
    ("noise.h_sky", "h_sky_override", parse_quantity),
    ("noise.kappa", "kappa_override", parse_quantity),
)
_KNOWN_KEYS = frozenset(key for key, _, _ in CONFIG_KEYS)


def read_config_file(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = (part.strip() for part in stripped.split("=", 1))
                raw[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return raw


def apply_sets(raw: dict[str, str], sets: list[str] | None) -> dict[str, str]:
    for item in sets or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        raw[key] = value
    return raw


def scenario_from_config(raw: dict[str, str]) -> Scenario:
    for key in raw:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
    # constructor arguments of Scenario ("") and of its parameter dataclasses
    kwargs: dict[str, dict] = {"": {}, "beam": {}, "receiver": {}, "extinction": {}, "protocol": {}}
    for key, path, parse in CONFIG_KEYS:
        if key in raw:
            owner, _, name = path.rpartition(".")
            kwargs[owner][name] = parse(raw[key])
    w0, a_r, filt = setup_preset(kwargs[""].get("setup", Scenario.setup))
    try:
        return Scenario(
            beam=BeamParams(**{"waist": w0, **kwargs["beam"]}),
            receiver=ReceiverParams(**{"aperture": a_r, "filter_width": filt, **kwargs["receiver"]}),
            extinction=ExtinctionModel(**kwargs["extinction"]),
            protocol=ProtocolParams(**kwargs["protocol"]),
            **kwargs[""],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def resolve_scenario(args, sets: Sequence[str] = ()) -> Scenario:
    """The scenario of --config, overridden by --set and then by `sets`."""
    raw = read_config_file(args.config) if args.config else {}
    apply_sets(raw, [*(args.set or []), *sets])
    return scenario_from_config(raw)


# The resolved configuration lists every key of CONFIG_KEYS that has a value
# (the noise overrides have none unless set), with the resolved turbulence
# profile in place of scenario.profile, and the derived background photons.
_DESCRIBED_KEYS = tuple(key for key, _, _ in CONFIG_KEYS if key != "scenario.profile")
_described_values = operator.attrgetter(
    *(path for key, path, _ in CONFIG_KEYS if key != "scenario.profile")
)


def describe(scn: Scenario) -> dict[str, object]:
    """Flat, deterministic key/value view of the resolved configuration."""
    desc = {
        key: value
        for key, value in zip(_DESCRIBED_KEYS, _described_values(scn))
        if value is not None
    }
    desc["turbulence.profile"] = scn.resolved_profile.name
    desc["noise.nbar_background"] = noise.nbar_background(scn.noise_env, scn.receiver)
    return desc


# -- output helpers ----------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def config_comment(scn: Scenario) -> str:
    return "# config: " + " ".join(f"{k}={_fmt(v)}" for k, v in sorted(describe(scn).items()))


def write_csv(out, scn: Scenario, header: list[str], rows, extra_comments=()):
    out.write(config_comment(scn) + "\n")
    for comment in extra_comments:
        out.write(f"# {comment}\n")
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


@contextlib.contextmanager
def _open_out(args):
    if args.output and args.output != "-":
        fh = open(args.output, "w", encoding="utf-8", newline="\n")
        try:
            yield fh
        finally:
            fh.close()
    else:
        yield sys.stdout


# -- subcommands -------------------------------------------------------------

def _columns(n: int, *values) -> list[list]:
    """n-point arrays, and scalars that hold at every point, as CSV columns."""
    return [v.tolist() if isinstance(v, np.ndarray) else [v] * n for v in values]


def cmd_bounds(args) -> int:
    scn = resolve_scenario(args)
    h_grid = parse_grid(args.h_grid)
    if not h_grid:
        raise ConfigError("empty altitude grid")
    thetas = [parse_quantity(t) for t in args.theta] or [0.0]
    # rows in h-major order: every angle at the first altitude, then the next
    h = np.repeat(h_grid, len(thetas))
    theta = np.tile(thetas, len(h_grid))
    vals = scn.bounds_at(h, theta)
    keys = ("U", "V", "B", "upper", "lower", "eta", "nbar")
    with _open_out(args) as out:
        write_csv(
            out, scn,
            ["h_km", "theta", "U", "V", "B", "thermal_upper", "thermal_lower", "eta", "nbar"],
            zip(*_columns(h.size, h / 1e3, theta, *(vals[k] for k in keys))),
        )
    return 0


def cmd_rate(args) -> int:
    scn = resolve_scenario(args)
    h = parse_quantity(args.h)
    thetas = np.array(parse_grid(args.theta_grid))
    res = scn.rate_at(h, thetas, args.attacks)
    with _open_out(args) as out:
        write_csv(
            out, scn, ["h_km", "theta", "rate", "rate_unclamped"],
            zip(*_columns(thetas.size, h / 1e3, thetas, res.rate, res.unclamped)),
        )
    return 0


def cmd_pass(args) -> int:
    scn = resolve_scenario(args)
    h = parse_quantity(args.h)
    report = scn.pass_report(h, args.blocks, args.attacks)
    report["config"] = {k: v for k, v in sorted(describe(scn).items())}
    with _open_out(args) as out:
        json.dump(report, out, indent=2, sort_keys=True)
        out.write("\n")
    return 0


def _parse_sat_spec(spec: str) -> tuple[str, list[str], float, int]:
    """Parse --sat 'h=530km,blocks=10,link=down,period=night,setup=2,mu=9.28,...'."""
    shorthand = {
        "link": "scenario.link", "period": "scenario.period", "sky": "scenario.sky",
        "setup": "scenario.setup", "mu": "protocol.mu", "phi": "protocol.phi",
    }
    h = None
    blocks = 10
    label = None
    sets = []
    for item in spec.split(","):
        if "=" not in item:
            raise ConfigError(f"--sat expects key=value pairs, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key == "h":
            h = parse_quantity(value)
        elif key == "blocks":
            blocks = int(value)
        elif key == "label":
            label = value
        else:
            sets.append(f"{shorthand.get(key, key)}={value}")
    if h is None:
        raise ConfigError(f"--sat spec {spec!r} needs h=<altitude>")
    if label is None:
        label = f"sat_{h/1e3:g}km"
    return label, sets, h, blocks


def cmd_compare_fiber(args) -> int:
    scn = resolve_scenario(args)

    d_grid = parse_grid(args.d_grid)
    n_reps = [int(n) for n in args.n_rep]
    comparison = orbit.GroundComparison(clock_hz=scn.protocol.clock_hz)

    sat_cols: list[tuple[str, float]] = []
    for spec in args.sat or []:
        label, sets, h, blocks = _parse_sat_spec(spec)
        report = resolve_scenario(args, sets).pass_report(h, blocks)
        sat_cols.append((label, report["bits_per_day"]))

    header = ["d_km", "fiber_bits_day"]
    header += [f"rep{n}_bits_day" for n in n_reps]
    header += [f"{label}_bits_day" for label, _ in sat_cols]
    rows = []
    for d in d_grid:
        row = [d / 1e3, orbit.bits_per_day(orbit.fiber_rate(d, comparison), comparison.clock_hz)]
        for n in n_reps:
            row.append(orbit.bits_per_day(orbit.repeater_rate(d, n, comparison), comparison.clock_hz))
        row.extend(bits for _, bits in sat_cols)
        rows.append(tuple(row))
    with _open_out(args) as out:
        write_csv(out, scn, header, rows)
    return 0


def cmd_validate_mc(args) -> int:
    scn = resolve_scenario(args)
    h = parse_quantity(args.h)
    theta = parse_quantity(args.theta)
    model = scn.fading_model(h, theta)
    samples = fading.sample_fading(model, args.samples, args.seed)

    # KS distance of the empirical CDF against the analytic law
    ordered = np.sort(samples)
    analytic = fading.fading_cdf(ordered, model)
    n = len(ordered)
    steps_hi = np.arange(1, n + 1) / n
    steps_lo = np.arange(0, n) / n
    ks = float(np.max(np.maximum(np.abs(steps_hi - analytic), np.abs(analytic - steps_lo))))

    edges = np.linspace(0.0, model.eta, args.bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    cdf = fading.fading_cdf(edges, model)
    rows = []
    for i in range(args.bins):
        emp = counts[i] / n
        ana = float(cdf[i + 1] - cdf[i])
        rows.append((float(edges[i]), float(edges[i + 1]), emp, ana))
    with _open_out(args) as out:
        write_csv(
            out, scn,
            ["tau_bin_lo", "tau_bin_hi", "empirical_p", "analytic_p"],
            rows,
            extra_comments=[
                f"h_km={_fmt(h / 1e3)} theta={_fmt(theta)} samples={args.samples} seed={args.seed}",
                f"ks_statistic={_fmt(ks)}",
            ],
        )
    return 0


def cmd_max_range(args) -> int:
    scn = resolve_scenario(args)
    result = scn.max_range(args.mode)
    with _open_out(args) as out:
        write_csv(
            out, scn,
            ["mode", "z_max_km", "secure_anywhere"],
            [(result.mode, result.z_max / 1e3, result.secure_anywhere)],
        )
    return 0


def cmd_show_config(args) -> int:
    scn = resolve_scenario(args)
    with _open_out(args) as out:
        for key, value in sorted(describe(scn).items()):
            out.write(f"{key} = {_fmt(value)}\n")
    return 0


# -- argument parsing --------------------------------------------------------

@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="satlink",
        description="Satellite optical link budgets, capacity bounds and CV-QKD rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a configuration key (repeatable)")
        p.add_argument("-o", "--output", default="-", help="output path (default stdout)")

    p = sub.add_parser("bounds", help="upper/lower bound sweep over altitude")
    common(p)
    p.add_argument("--h-grid", required=True, metavar="LO:HI:N[:log]")
    p.add_argument("--theta", action="append", default=[], metavar="ANGLE",
                   help="zenith angle (repeatable; default 0)")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("rate", help="composable key rate vs zenith angle")
    common(p)
    p.add_argument("--h", required=True, help="satellite altitude")
    p.add_argument("--theta-grid", required=True, metavar="LO:HI:N")
    p.add_argument("--attacks", choices=("collective", "general"), default="collective")
    p.set_defaults(fn=cmd_rate)

    p = sub.add_parser("pass", help="zenith-crossing pass report (JSON)")
    common(p)
    p.add_argument("--h", required=True, help="satellite altitude")
    p.add_argument("--blocks", type=int, default=10, help="data blocks per pass")
    p.add_argument("--attacks", choices=("collective", "general"), default="collective")
    p.set_defaults(fn=cmd_pass)

    p = sub.add_parser("compare-fiber", help="satellite vs fiber/repeater bits per day")
    common(p)
    p.add_argument("--d-grid", required=True, metavar="LO:HI:N[:log]",
                   help="station separation grid")
    p.add_argument("--n-rep", nargs="*", default=["1", "5", "30"],
                   help="ideal repeater counts")
    p.add_argument("--sat", action="append", metavar="SPEC",
                   help="satellite column, e.g. h=530km,blocks=10,period=night,setup=2,mu=9.28,phi=0.73")
    p.set_defaults(fn=cmd_compare_fiber)

    p = sub.add_parser("validate-mc", help="Monte Carlo check of the fading law")
    common(p)
    p.add_argument("--h", required=True, help="satellite altitude")
    p.add_argument("--theta", default="0", help="zenith angle (default 0)")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--bins", type=int, default=60)
    p.set_defaults(fn=cmd_validate_mc)

    p = sub.add_parser("max-range", help="maximum secure slant range")
    common(p)
    p.add_argument("--mode", choices=("simple", "tight"), default="tight")
    p.set_defaults(fn=cmd_max_range)

    p = sub.add_parser("show-config", help="print the fully resolved configuration")
    common(p)
    p.set_defaults(fn=cmd_show_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        # parameter-validation ValueErrors count as configuration mistakes
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
