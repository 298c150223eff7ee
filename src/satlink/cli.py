"""Command-line front end: sweeps, pass planning, validation, comparisons.

Configuration is a flat key=value text file with dotted namespaces; CLI
flags and repeated --set key=value pairs override file values.  Quantities
accept unit suffixes (km, m, cm, nm, pm, deg, rad, ns, MHz, ...) and are
converted to SI at parse time, by the parser of each configuration key in
CONFIG_KEYS and of each option in COMMANDS.  Every CSV starts with a comment
line that records the fully resolved configuration; identical invocations
produce byte-identical output.

Each validity guard that fired (errors.GUARDS) prints as `warning: <text>` on
stderr, each distinct text once, in firing order and before any error line;
main clears the guards as it starts, so every run reports what a fresh one does.

Exit codes: 0 ok, 2 configuration error (a request that does not fit in
memory included), 3 numerical failure (a floating-point overflow or division
by zero included); any other exception is a bug.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import operator
import re
import sys
from typing import Callable

from . import fading, orbit
from .atmosphere import ExtinctionModel
from .beam import BeamParams, ReceiverParams
from .cvqkd import ProtocolParams
from .domain import NON_NEGATIVE, POSITIVE, Domain, at_least, check
from .errors import GUARDS, ConfigError, FieldError, NumericalError
from .scenario import Scenario

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


def _finite(text: str) -> float:
    """parse_quantity for a value that must be finite: all but beam.curvature."""
    value = parse_quantity(text)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite quantity, got {text!r}")
    return value


def _whole(text: str) -> int:
    """_finite for a count or an index: a bare whole number.

    A bare number has no unit; an exponent is fine ('1e6').
    """
    value = _finite(text)
    if _QUANTITY_RE.match(text).group(2):
        raise ConfigError(f"expected a whole number without a unit, got {text!r}")
    if not value.is_integer():
        raise ConfigError(f"expected a whole number, got {text!r}")
    return int(value)


def _count(items: str, text: str) -> int:
    """_whole for a count of doubles named by items ('{} bins'): past the address space, a MemoryError."""
    n = _whole(text)
    if n > sys.maxsize // 8:  # 8 n bytes beyond an index: numpy raises ValueError, not MemoryError
        raise MemoryError(f"Unable to allocate {items.format(f'{n:.3g}')}")
    return n


ZENITH_ANGLE = Domain("a zenith angle in [-pi/2, pi/2]", lambda theta: abs(theta) <= math.pi / 2)
# validate-mc holds about 0.5 KB per bin at its peak (its edge, its mapped
# bound, its count, its analytic value and its CSV row), so its bins stay
# below about 50 MB
MAX_BINS = 100_000


def _named(name: str, parse: Callable[[str], object], text: str, domain: Domain | None = None):
    """parse(text), each value (a grid's points) in domain, with `name` leading the error
    message unless it leads already (the --sat parser names the item: '--sat h: ...')."""
    try:
        value = parse(text)
    except ConfigError as exc:
        message = str(exc)
        raise ConfigError(message if message.startswith(name) else f"{name}: {message}") from None
    points = value if isinstance(value, list) else [value]
    if domain is not None and not all(map(domain.holds, points)):
        check(name, domain, next(point for point in points if not domain.holds(point)))
    return value


def _linear_grid(lo: float, hi: float, n: int) -> list[float]:
    """The n points of np.linspace(lo, hi, n), bit for bit: point i is
    i * step + lo with step = (hi - lo) / (n - 1), and the last is hi.

    Where the step underflows to 0, point i is i / (n - 1) * (hi - lo) + lo,
    and a lone point is 0 * (hi - lo) + lo, as numpy takes them.  A grid
    that does not fit in memory fails before a point is made.
    """
    try:
        grid = [0.0] * n
    except MemoryError:
        raise MemoryError(f"Unable to allocate a grid of {n:.3g} points") from None
    delta, div = hi - lo, n - 1
    if div == 0:
        grid[0] = 0.0 * delta + lo
        return grid
    step = delta / div
    for i in range(div):
        grid[i] = (i * step if step != 0.0 else i / div * delta) + lo
    grid[div] = hi
    return grid


def parse_grid(spec: str) -> list[float]:
    """Parse 'start:stop:n[:log]' into a list of SI values.

    A log grid is np.geomspace's formula in math: point i is 10 ** e_i over
    the linear grid e of log10(start) and log10(stop), and the ends are start
    and stop exactly.  Near an end, log10 and the power can round a point
    past it, or past the largest double; such a point is that end.
    """
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"grid spec {spec!r} is not start:stop:n[:log]")
    lo, hi = _finite(parts[0]), _finite(parts[1])
    n = _named("grid point count", functools.partial(_count, "a grid of {} points"), parts[2], at_least(1))
    if len(parts) == 4:
        if parts[3] != "log":
            raise ConfigError(f"unknown grid mode {parts[3]!r}")
        for end, text, value in (("start", parts[0], lo), ("stop", parts[1], hi)):
            if value <= 0:
                raise ConfigError(f"log grid needs a positive {end}, got {text!r}")
        grid = _linear_grid(math.log10(lo), math.log10(hi), n)
        grid[-1] = hi
        grid[0] = lo  # after the stop: a lone point is the start
        low, high = min(lo, hi), max(lo, hi)
        for i in range(1, n - 1):
            try:
                grid[i] = min(max(10.0 ** grid[i], low), high)
            except OverflowError:
                grid[i] = high
        return grid
    return _linear_grid(lo, hi, n)


# -- configuration -----------------------------------------------------------

# Every configuration key: (key, Scenario attribute path, parser).  Defaults
# and domains are the records' own, apart from the setup presets
# (scenario.SETUPS).  Keys are parsed in table order, so of several that do
# not parse the first here is reported.  Only beam.curvature takes inf.
CONFIG_KEYS: tuple[tuple[str, str, Callable[[str], object]], ...] = (
    ("scenario.link", "link", str),
    ("scenario.period", "period", str),
    ("scenario.sky", "sky", str),
    ("scenario.setup", "setup", _whole),
    ("beam.wavelength", "beam.wavelength", _finite),
    ("beam.waist", "beam.waist", _finite),
    ("beam.curvature", "beam.curvature", parse_quantity),
    ("receiver.aperture", "receiver.aperture", _finite),
    ("receiver.fov_sr", "receiver.fov_sr", _finite),
    ("receiver.detection_time", "receiver.detection_time", _finite),
    ("receiver.filter", "receiver.filter_width", _finite),
    ("receiver.efficiency", "receiver.efficiency", _finite),
    ("receiver.excess_photons", "receiver.excess_photons", _finite),
    ("atmosphere.alpha0", "extinction.alpha0", _finite),
    ("atmosphere.scale_height", "extinction.h_scale", _finite),
    ("protocol.N", "protocol.block_size", _whole),
    ("protocol.m", "protocol.pilots", _whole),
    ("protocol.f_et", "protocol.energy_test_fraction", _finite),
    ("protocol.beta", "protocol.beta", _finite),
    ("protocol.p_ec", "protocol.p_ec", _finite),
    ("protocol.eps_s", "protocol.eps_s", _finite),
    ("protocol.eps_h", "protocol.eps_h", _finite),
    ("protocol.eps_pe", "protocol.eps_pe", _finite),
    ("protocol.eps_cor", "protocol.eps_cor", _finite),
    ("protocol.d", "protocol.alphabet", _whole),
    ("protocol.mu", "protocol.mu", _finite),
    ("protocol.phi", "protocol.phi_thr", _finite),
    ("protocol.clock_hz", "protocol.clock_hz", _finite),
    ("protocol.detection", "protocol.detection", str),
    ("protocol.tail", "protocol.tail", str),
    ("scenario.profile", "profile", str),
    ("pointing.error_rad", "pointing_error", _finite),
    ("noise.h_sky", "h_sky_override", _finite),
    ("noise.kappa", "kappa_override", _finite),
)
_KNOWN_KEYS = frozenset(key for key, _, _ in CONFIG_KEYS)
# the record owning each key path; each key by its field's name in a FieldError
_OWNERS = {"": Scenario, "beam": BeamParams, "receiver": ReceiverParams,
           "extinction": ExtinctionModel, "protocol": ProtocolParams}
_KEY_OF_FIELD = {f"{_OWNERS[path.rpartition('.')[0]].__name__}.{path.rpartition('.')[2]}": key
                 for key, path, _ in CONFIG_KEYS}
# --sat takes each key by its last dotted part, which no two keys share
_SAT_SHORTHAND = {key.rpartition(".")[2]: key for key, _, _ in CONFIG_KEYS}


def _key_value(item: str, error: str) -> tuple[str, str]:
    """'key = value' split at its first '=', both sides stripped; error without one."""
    key, eq, value = item.partition("=")
    if not eq:
        raise ConfigError(error)
    return key.strip(), value.strip()


def read_config_file(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if stripped:
                    key, value = _key_value(stripped, f"{path}:{lineno}: expected key = value")
                    raw[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return raw


def scenario_from_config(raw: dict[str, str]) -> Scenario:
    for key in raw:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
    # constructor arguments of Scenario ("") and of its parameter records
    kwargs: dict[str, dict] = {owner: {} for owner in _OWNERS}
    for key, path, parse in CONFIG_KEYS:
        if key in raw:
            owner, _, name = path.rpartition(".")
            kwargs[owner][name] = _named(key, parse, raw[key])
    return Scenario.build(beam=kwargs["beam"], receiver=kwargs["receiver"],
                          extinction=ExtinctionModel(**kwargs["extinction"]),
                          protocol=ProtocolParams(**kwargs["protocol"]), **kwargs[""])


def resolve_scenario(args, overrides: dict[str, str] | None = None) -> Scenario:
    """The scenario of --config, overridden by --set and then by `overrides`."""
    raw = read_config_file(args.config) if args.config else {}
    raw.update(_key_value(item, f"--set expects key=value, got {item!r}") for item in args.set or [])
    return scenario_from_config({**raw, **(overrides or {})})


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
    desc["turbulence.profile"] = scn.profile_name
    desc["noise.nbar_background"] = scn.nbar_background
    return desc


# -- output ------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def csv_text(scn: Scenario, header: list[str], rows, extra_comments=()) -> str:
    """The configuration comment, further comment lines, the header and the rows.

    A row with a number that is nan or infinite is a NumericalError naming it.
    """
    lines = [",".join(map(_fmt, row)) for row in rows]
    for line in lines:
        if "nan" in line or "inf" in line:  # no other cell prints either
            raise NumericalError("not finite: " + ", ".join(map("=".join, zip(header, line.split(",")))))
    config = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(describe(scn).items()))
    return "".join([
        f"# config: {config}\n",
        *(f"# {comment}\n" for comment in extra_comments),
        ",".join(header) + "\n",
        *(line + "\n" for line in lines),
    ])


def _open_out(args):
    """The -o file as a context manager; stdout for '-'."""
    if args.output and args.output != "-":
        return open(args.output, "w", encoding="utf-8", newline="\n")
    return contextlib.nullcontext(sys.stdout)


# -- subcommands -------------------------------------------------------------
#
# A subcommand takes the parsed arguments, each option converted by its
# parser in COMMANDS, and the resolved scenario, and returns its output
# text, which main writes once the work has succeeded.

def cmd_bounds(args, scn: Scenario) -> str:
    # rows in h-major order: every angle at the first altitude, then the next
    points = [(h, theta) for h in args.h_grid for theta in args.theta or [0.0]]
    return csv_text(
        scn,
        ["h_km", "theta", "U", "V", "B", "thermal_upper", "thermal_lower", "eta", "nbar"],
        [(h / 1e3, theta, *row) for (h, theta), row in zip(points, scn.bounds_sweep(points))],
    )


def cmd_rate(args, scn: Scenario) -> str:
    rates = scn.rate_sweep(args.h, args.theta_grid, args.attacks)
    return csv_text(
        scn, ["h_km", "theta", "rate", "rate_unclamped"],
        [(args.h / 1e3, theta, res.rate, res.unclamped) for theta, res in zip(args.theta_grid, rates)],
    )


def _all_finite(value) -> bool:
    """Whether a number, or every number in a list of them at any depth, is finite."""
    if isinstance(value, list):
        return all(map(_all_finite, value))
    return math.isfinite(value)


def cmd_pass(args, scn: Scenario) -> str:
    import json

    report = scn.pass_report(args.h, args.blocks, args.attacks)
    for key, value in sorted(report.items()):
        if not isinstance(value, str) and not _all_finite(value):
            raise NumericalError(f"{key} is not finite for the pass at h_km={_fmt(report['h_km'])}")
    # strict JSON: a setting that is not finite (beam.curvature) as show-config prints it
    report["config"] = {
        key: _fmt(value) if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in describe(scn).items()
    }
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def cmd_compare_fiber(args, scn: Scenario) -> str:
    bits = functools.partial(orbit.bits_per_day, clock_hz=scn.protocol.clock_hz)
    header = ["d_km", "fiber_bits_day", *(f"rep{n}_bits_day" for n in args.n_rep)]
    sat_bits = []
    for label, overrides, h, blocks in args.sat:
        header.append(f"{label}_bits_day")
        sat_bits.append(resolve_scenario(args, overrides).pass_report(h, blocks)["bits_per_day"])

    rows = [
        (
            d / 1e3,
            bits(orbit.repeater_rate(d)),
            *(bits(orbit.repeater_rate(d, n)) for n in args.n_rep),
            *sat_bits,
        )
        for d in args.d_grid
    ]
    return csv_text(scn, header, rows)


def cmd_validate_mc(args, scn: Scenario) -> str:
    import numpy as np

    model = scn.fading_model(args.h, args.theta)
    v = fading.sample_v(args.samples, args.seed)
    v.sort()
    edges = np.linspace(0.0, model.eta, args.bins + 1)
    ks, counts = fading.sorted_v_statistics(v, model, edges)
    cdf = [fading.fading_cdf(edge, model) for edge in edges.tolist()]
    return csv_text(
        scn,
        ["tau_bin_lo", "tau_bin_hi", "empirical_p", "analytic_p"],
        zip(edges[:-1].tolist(), edges[1:].tolist(), (counts / args.samples).tolist(), np.diff(cdf).tolist()),
        [
            f"h_km={_fmt(args.h / 1e3)} theta={_fmt(args.theta)} samples={args.samples} seed={args.seed}",
            f"ks_statistic={_fmt(ks)}",
        ],
    )


def cmd_max_range(args, scn: Scenario) -> str:
    result = scn.max_range(args.mode)
    return csv_text(
        scn,
        ["mode", "z_max_km", "secure_anywhere", "capped"],
        [(args.mode, result.z_max / 1e3, result.z_max > 0.0, result.capped)],
    )


def cmd_show_config(args, scn: Scenario) -> str:
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in sorted(describe(scn).items()))


# -- argument parsing --------------------------------------------------------

def _sat_spec(spec: str) -> tuple[str, dict[str, str], float, int]:
    """Parse --sat 'h=530km,blocks=10,link=down,period=night,setup=2,mu=9.28,...'
    into its label, its configuration overrides, its altitude and its blocks."""
    items = dict(
        _key_value(item, f"--sat expects key=value pairs, got {item!r}") for item in spec.split(",")
    )
    if "h" not in items:
        raise ConfigError(f"--sat spec {spec!r} needs h=<altitude>")
    # h and blocks take the parsers of --h and --blocks, and blocks its default
    h = _named("--sat h", _finite, items.pop("h"), POSITIVE)
    _, parse, domain, kwargs = _BLOCKS
    blocks = _named("--sat blocks", parse, items.pop("blocks", kwargs["default"]), domain)
    label = items.pop("label", f"sat_{h/1e3:g}km")
    return label, {_SAT_SHORTHAND.get(key, key): value for key, value in items.items()}, h, blocks


_H = dict(required=True, help="satellite altitude")
_ATTACKS = ("--attacks", str, None, dict(choices=("collective", "general"), default="collective"))
_BLOCKS = ("--blocks", _whole, at_least(1), dict(default="10", help="data blocks per pass"))

# (name, help, command, the command's options as (flag, parser, domain,
# add_argument keywords)).  argparse keeps each value as text, defaults
# included; the parser converts it, item by item for a list option, into
# values (a grid's points) that must lie in the domain.
COMMANDS = (
    ("bounds", "upper/lower bound sweep over altitude", cmd_bounds, (
        ("--h-grid", parse_grid, NON_NEGATIVE, dict(required=True, metavar="LO:HI:N[:log]")),
        ("--theta", _finite, ZENITH_ANGLE, dict(action="append", default=[], metavar="ANGLE",
                                                help="zenith angle (repeatable; default 0)")),
    )),
    ("rate", "composable key rate vs zenith angle", cmd_rate, (
        ("--h", _finite, NON_NEGATIVE, _H),
        ("--theta-grid", parse_grid, ZENITH_ANGLE, dict(required=True, metavar="LO:HI:N")),
        _ATTACKS,
    )),
    ("pass", "zenith-crossing pass report (JSON)", cmd_pass, (
        ("--h", _finite, POSITIVE, _H),  # an orbit
        _BLOCKS,
        _ATTACKS,
    )),
    ("compare-fiber", "satellite vs fiber/repeater bits per day", cmd_compare_fiber, (
        ("--d-grid", parse_grid, NON_NEGATIVE, dict(required=True, metavar="LO:HI:N[:log]",
                                                    help="station separation grid")),
        ("--n-rep", _whole, at_least(0), dict(nargs="*", default=["1", "5", "30"], help="ideal repeater counts")),
        ("--sat", _sat_spec, None, dict(action="append", default=[], metavar="SPEC", help=(
            "satellite column, e.g. h=530km,blocks=10,period=night,setup=2,mu=9.28,phi=0.73"))),
    )),
    ("validate-mc", "Monte Carlo check of the fading law", cmd_validate_mc, (
        ("--h", _finite, NON_NEGATIVE, _H),
        ("--theta", _finite, ZENITH_ANGLE, dict(default="0", help="zenith angle (default 0)")),
        ("--samples", functools.partial(_count, "{} samples"), at_least(1), dict(default="1000000")),
        ("--seed", _whole, at_least(0), dict(default="1")),
        ("--bins", _whole, Domain(f"at least 1 and at most {MAX_BINS}", lambda n: 1 <= n <= MAX_BINS),
         dict(default="60")),
    )),
    ("max-range", "maximum secure slant range", cmd_max_range, (
        ("--mode", str, None, dict(choices=("simple", "tight"), default="tight")),
    )),
    ("show-config", "print the fully resolved configuration", cmd_show_config, ()),
)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="satlink",
        description="Satellite optical link budgets, capacity bounds and CV-QKD rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, fn, options in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a configuration key (repeatable)")
        p.add_argument("-o", "--output", default="-", help="output path (default stdout)")
        for flag, _, _, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn, options=options)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The arguments of argv, each option converted by its parser and in its domain."""
    args = build_parser().parse_args(argv)
    for flag, parse, domain, _ in args.options:
        dest = flag[2:].replace("-", "_")
        value = getattr(args, dest)
        # into a new list: a list default is shared by every parse
        if isinstance(value, list):
            setattr(args, dest, [_named(flag, parse, item, domain) for item in value])
        else:
            setattr(args, dest, _named(flag, parse, value, domain))
    return args


def main(argv: list[str] | None = None) -> int:
    GUARDS.clear()
    code, error = 0, None
    try:
        args = parse_args(argv)
        text = args.fn(args, resolve_scenario(args))
        with _open_out(args) as out:
            out.write(text)
    except (NumericalError, ArithmeticError) as exc:
        code, error = 3, f"numerical error: {exc}"
    except ConfigError as exc:
        message = str(exc)
        if isinstance(exc, FieldError):  # each field at fault by its key; the values as given
            fields, got, values = message.partition(", got ")
            for name, key in _KEY_OF_FIELD.items():
                fields = fields.replace(name, key)
            message = fields + got + values
        code, error = 2, f"configuration error: {message}"
    except MemoryError as exc:
        code, error = 2, f"configuration error: the request does not fit in memory: {exc}"
    for text in GUARDS:  # the guards in the order they fired, then the error
        print(f"warning: {text}", file=sys.stderr)
    if error:
        print(error, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
