"""Output checks: parse each operation's CLI output and test it.

Two kinds of check apply to an operation that exits 0:

* invariants that hold for any input (bound ordering, 0 < eta < 1,
  KS < 0.01, pass bookkeeping, grid shapes);
* agreement with the values recorded in reference.json for the same argv,
  at a relative tolerance of 1e-6, the tightest relative tolerance of
  tests/test_acceptance.py (max-range ranges: 1 km, the bisection step).

An operation recorded as failing that now exits 0 and passes the invariants
counts as a success, not a mismatch.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-6
ABS_TOL = 1e-12
RANGE_ABS_TOL_KM = 1.0
RANGE_CAP_KM = 1e6  # bounds.max_range's bracket cap, 1e9 m
KS_LIMIT = 0.01


def _cell(text: str):
    if text in ("True", "False"):
        return text == "True"
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> dict:
    comments, rows, header = [], [], None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        else:
            rows.append([_cell(c) for c in line.split(",")])
    if header is None:
        raise ValueError("no CSV header")
    for row in rows:
        if len(row) != len(header):
            raise ValueError("ragged CSV row")
    return {"comments": comments, "header": header, "rows": rows}


def parse_output(kind: str, text: str):
    """Parse one operation's output into plain JSON-able data."""
    if kind == "pass":
        return json.loads(text)
    if kind == "show-config":
        out = {}
        for line in text.splitlines():
            key, sep, value = line.partition(" = ")
            if not sep:
                raise ValueError(f"bad show-config line {line!r}")
            out[key] = _cell(value)
        return out
    return parse_csv(text)


def _arg(argv, flag):
    found = _args(argv, flag)
    return found[0] if found else None


def _args(argv, flag):
    out = []
    for i, item in enumerate(argv):
        if item == flag:
            out.append(argv[i + 1])
        elif item.startswith(flag + "="):
            out.append(item.split("=", 1)[1])
    return out


def _km(text: str) -> float:
    if not text.endswith("km"):
        raise ValueError(f"altitude {text!r} is not in km")
    return float(text[:-2])


def _sets(argv) -> dict[str, str]:
    return dict(item.split("=", 1) for item in _args(argv, "--set"))


def _le(a: float, b: float) -> bool:
    return a <= b + ABS_TOL + 1e-9 * abs(b)


def _close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    return a == b or abs(a - b) <= abs_tol + rel * max(abs(a), abs(b))


def _columns(parsed: dict, names) -> list[dict]:
    header = parsed["header"]
    missing = [n for n in names if n not in header]
    if missing:
        raise ValueError(f"missing columns {missing}")
    return [dict(zip(header, row)) for row in parsed["rows"]]


def _linspace(lo, hi, n):
    return [lo] if n == 1 else [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _geomspace(lo, hi, n):
    return [lo] if n == 1 else [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


# -- invariants per subcommand -----------------------------------------------

def _check_bounds(argv, parsed, problems):
    lo, hi, n, _ = _arg(argv, "--h-grid").split(":")
    heights = _geomspace(_km(lo), _km(hi), int(n))
    thetas = [float(t) for t in _args(argv, "--theta")] or [0.0]
    rows = _columns(parsed, ["h_km", "theta", "U", "V", "B", "thermal_upper", "thermal_lower", "eta", "nbar"])
    expect = [(h, t) for h in heights for t in thetas]
    if len(rows) != len(expect):
        problems.append(f"{len(rows)} rows, expected {len(expect)}")
        return
    for row, (h, t) in zip(rows, expect):
        vals = [row[k] for k in ("thermal_lower", "thermal_upper", "B", "V", "U")]
        if not all(isinstance(v, float) and math.isfinite(v) for v in vals + [row["eta"], row["nbar"]]):
            problems.append(f"non-finite value at h={h:g} km")
            continue
        if not _close(row["h_km"], h, 1e-8) or not _close(row["theta"], t, 1e-8):
            problems.append(f"row geometry ({row['h_km']}, {row['theta']}) != ({h:g}, {t:g})")
        if vals[0] < 0.0 or not all(_le(a, b) for a, b in zip(vals, vals[1:])):
            problems.append(f"bound ordering 0 <= lower <= upper <= B <= V <= U broken at h={h:g} km: {vals}")
        if not 0.0 < row["eta"] < 1.0:
            problems.append(f"eta={row['eta']} outside (0, 1) at h={h:g} km")
        if row["nbar"] < 0.0:
            problems.append(f"negative nbar at h={h:g} km")


def _check_rate(argv, parsed, problems):
    h = _km(_arg(argv, "--h"))
    lo, hi, n = _arg(argv, "--theta-grid").split(":")
    thetas = _linspace(float(lo), float(hi), int(n))
    rows = _columns(parsed, ["h_km", "theta", "rate", "rate_unclamped"])
    if len(rows) != len(thetas):
        problems.append(f"{len(rows)} rows, expected {len(thetas)}")
        return
    for row, t in zip(rows, thetas):
        rate, raw = row["rate"], row["rate_unclamped"]
        if not (isinstance(rate, float) and math.isfinite(rate) and isinstance(raw, float) and math.isfinite(raw)):
            problems.append(f"non-finite rate at theta={t:g}")
            continue
        if not _close(row["h_km"], h, 1e-8) or not _close(row["theta"], t, 1e-8, 1e-9):
            problems.append(f"row geometry ({row['h_km']}, {row['theta']}) != ({h:g}, {t:g})")
        if rate < 0.0 or not _close(rate, max(0.0, raw), 1e-9):
            problems.append(f"rate {rate} is not max(0, {raw}) at theta={t:g}")


def _check_pass(argv, report, problems):
    blocks = int(_arg(argv, "--blocks"))
    slices, per_slice = report["slices"], report["per_slice_rate"]
    t_q, t_t = report["t_Q_s"], report["t_T_s"]
    if not 0.0 < t_q < t_t:
        problems.append(f"transit times t_Q={t_q} t_T={t_t}")
    if len(per_slice) != len(slices) or len(slices) > blocks:
        problems.append(f"{len(slices)} slices, {len(per_slice)} rates for {blocks} blocks")
        return
    if slices:
        edges = [s[0] for s in slices] + [slices[-1][1]]
        if edges[0] != -1.0 or edges[-1] != 1.0 or any(b <= a for a, b in zip(edges, edges[1:])):
            problems.append("slices do not partition [-1, 1]")
        if any(s[1] != t[0] for s, t in zip(slices, slices[1:])):
            problems.append("slices are not contiguous")
        r_orb = sum(max(0.0, r) for r in per_slice) / len(per_slice)
    else:
        r_orb = 0.0
    if report["R_orb"] < 0.0 or not _close(report["R_orb"], r_orb, 1e-9):
        problems.append(f"R_orb {report['R_orb']} != mean(max(0, R_i)) = {r_orb}")
    clock = report["config"]["protocol.clock_hz"]
    if not _close(report["bits_per_pass"], report["R_orb"] * clock * t_q, 1e-9):
        problems.append("bits_per_pass != R_orb * clock * t_Q")


def _check_max_range(argv, parsed, problems):
    rows = _columns(parsed, ["mode", "z_max_km", "secure_anywhere"])
    if len(rows) != 1:
        problems.append(f"{len(rows)} rows, expected 1")
        return
    row = rows[0]
    z = row["z_max_km"]
    if row["mode"] != _arg(argv, "--mode"):
        problems.append(f"mode {row['mode']!r}")
    if not (isinstance(z, float) and 0.0 <= z <= RANGE_CAP_KM):
        problems.append(f"z_max_km={z} outside [0, {RANGE_CAP_KM:g}]")
    elif row["secure_anywhere"] != (z > 0.0):
        problems.append(f"secure_anywhere={row['secure_anywhere']} with z_max_km={z}")


def _check_validate_mc(argv, parsed, problems):
    ks = [float(c.split("=", 1)[1]) for c in parsed["comments"] if c.startswith("ks_statistic=")]
    if len(ks) != 1:
        problems.append("no ks_statistic comment")
    elif not ks[0] < KS_LIMIT:
        problems.append(f"KS statistic {ks[0]} >= {KS_LIMIT}")
    rows = _columns(parsed, ["tau_bin_lo", "tau_bin_hi", "empirical_p", "analytic_p"])
    bins = int(_arg(argv, "--bins") or 60)
    if len(rows) != bins:
        problems.append(f"{len(rows)} bins, expected {bins}")
        return
    if rows[0]["tau_bin_lo"] != 0.0 or any(a["tau_bin_hi"] != b["tau_bin_lo"] for a, b in zip(rows, rows[1:])):
        problems.append("histogram bins are not contiguous from 0")
    for col in ("empirical_p", "analytic_p"):
        total = sum(r[col] for r in rows)
        if min(r[col] for r in rows) < -1e-12 or abs(total - 1.0) > 1e-6:
            problems.append(f"{col} sums to {total}")


def _check_show_config(argv, parsed, problems):
    for key, value in _sets(argv).items():
        got = parsed.get(key)
        want = int(value) if key == "scenario.setup" else value
        if got != want:
            problems.append(f"{key} = {got!r}, set to {value!r}")


def _check_compare_fiber(argv, parsed, problems):
    lo, hi, n, _ = _arg(argv, "--d-grid").split(":")
    reps = []
    i = argv.index("--n-rep") + 1
    while i < len(argv) and not argv[i].startswith("--"):
        reps.append(argv[i])
        i += 1
    label = dict(kv.split("=", 1) for kv in _arg(argv, "--sat").split(","))["label"]
    cols = ["d_km", "fiber_bits_day"] + [f"rep{r}_bits_day" for r in reps] + [f"{label}_bits_day"]
    rows = _columns(parsed, cols)
    if len(rows) != int(n):
        problems.append(f"{len(rows)} rows, expected {n}")
        return
    for a, b in zip(rows, rows[1:]):
        if not (b["d_km"] > a["d_km"] and b["fiber_bits_day"] <= a["fiber_bits_day"]):
            problems.append("fiber yield does not fall with distance")
            break
    for row in rows:
        if any(not _le(row["fiber_bits_day"], row[f"rep{r}_bits_day"]) for r in reps):
            problems.append(f"repeaters below plain fiber at d={row['d_km']}")
            break
    sat = [row[f"{label}_bits_day"] for row in rows]
    if min(sat) < 0.0 or max(sat) != min(sat):
        problems.append("satellite column is not one non-negative constant")


_INVARIANTS = {
    "bounds": _check_bounds,
    "rate": _check_rate,
    "pass": _check_pass,
    "max-range": _check_max_range,
    "validate-mc": _check_validate_mc,
    "show-config": _check_show_config,
    "compare-fiber": _check_compare_fiber,
}


def is_capped(kind: str, parsed) -> bool:
    """True when max-range returned its 1e9 m bracket cap instead of a range."""
    if kind != "max-range":
        return False
    row = dict(zip(parsed["header"], parsed["rows"][0]))
    return row.get("capped") is True or row["z_max_km"] >= RANGE_CAP_KM


# -- reference agreement ---------------------------------------------------------

def comparable(kind: str, parsed) -> dict:
    """The values of an output that must agree with the recorded reference.

    CSV outputs become one list per column, so a later output may add
    columns or keys without disagreeing.
    """
    if kind == "pass":
        return {k: parsed[k] for k in ("R_orb", "bits_per_pass", "per_slice_rate", "slices", "t_Q_s", "t_T_s")}
    if kind == "show-config":
        return parsed
    data = {col: [row[i] for row in parsed["rows"]] for i, col in enumerate(parsed["header"])}
    if kind == "validate-mc":
        data["ks_statistic"] = [float(c.split("=", 1)[1]) for c in parsed["comments"]
                                if c.startswith("ks_statistic=")]
    return data


def _diff(got, want, path, out, abs_tol=ABS_TOL):
    if isinstance(want, bool) or isinstance(got, bool) or isinstance(want, str):
        if got != want:
            out.append(f"{path}: {got!r} != {want!r}")
    elif isinstance(want, (int, float)):
        if not isinstance(got, (int, float)) or not _close(float(got), float(want), REL_TOL, abs_tol):
            out.append(f"{path}: {got!r} != {want!r}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{path}: length differs")
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                _diff(g, w, f"{path}[{i}]", out, abs_tol)
    elif isinstance(want, dict):
        missing = [key for key in want if key not in got]
        if missing:
            out.append(f"{path}: missing {missing}")
        for key in want:
            if key in got:
                tol = RANGE_ABS_TOL_KM if key == "z_max_km" else abs_tol
                _diff(got[key], want[key], f"{path}.{key}", out, tol)


def compare_reference(kind: str, parsed, ref: dict) -> list[str]:
    """Disagreements with the reference; none when it recorded a failure or the cap."""
    want = ref.get("values")
    if ref["cause"] != "ok" or (kind == "max-range" and want["z_max_km"][0] >= RANGE_CAP_KM):
        return []
    out: list[str] = []
    _diff(comparable(kind, parsed), want, kind, out)
    return out[:5]


def check(kind: str, argv, stdout: str, ref: dict | None = None):
    """Return (parsed output or None, list of problems) for one operation."""
    try:
        parsed = parse_output(kind, stdout)
        problems: list[str] = []
        _INVARIANTS[kind](list(argv), parsed, problems)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return None, [f"unparseable {kind} output: {exc!r}"]
    if ref is not None and not problems:
        problems += compare_reference(kind, parsed, ref)
    return parsed, problems
