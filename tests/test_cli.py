import json
import math
import operator
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given
from hypothesis import strategies as st

from satlink import cli, fading, orbit
from satlink.atmosphere import ExtinctionModel
from satlink.cvqkd import ProtocolParams
from satlink.cli import (
    _SAT_SHORTHAND,
    CONFIG_KEYS,
    _fmt,
    main,
    parse_grid,
    parse_quantity,
    resolve_scenario,
    scenario_from_config,
)
from satlink.errors import ConfigError
from satlink.fading import BLOCK, fading_cdf, sample_v, v_cdf
from satlink.scenario import SETUPS, Scenario

from _reference import cmd_validate_mc_sorted_twice, sample_fading


class TestQuantityParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("530km", 530e3),
            ("1 deg", math.pi / 180.0),
            ("0.1pm", 1e-13),
            ("800nm", 8e-7),
            ("5MHz", 5e6),
            ("10ns", 1e-8),
            ("0.73", 0.73),
            ("1e-10", 1e-10),
        ],
    )
    def test_units(self, text, expected):
        assert parse_quantity(text) == pytest.approx(expected, rel=1e-12)

    def test_rejects_garbage(self):
        for bad in ("fast", "1parsec", "--3m"):
            with pytest.raises(ConfigError):
                parse_quantity(bad)

    def test_infinite_curvature_round_trips(self, capsys):
        assert parse_quantity("inf") == math.inf
        code = main(["show-config", "--set", "beam.curvature=inf"])
        out = capsys.readouterr().out
        assert code == 0
        assert "beam.curvature = inf" in out

    def test_grids(self):
        lin = parse_grid("0:1:5")
        assert lin == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        log = parse_grid("100km:10000km:3:log")
        assert log == pytest.approx([1e5, 1e6, 1e7])
        with pytest.raises(ConfigError):
            parse_grid("1:2")
        with pytest.raises(ConfigError):
            parse_grid("1:2:0")


def linspace_bits(lo: float, hi: float, n: int) -> list[str]:
    with np.errstate(all="ignore"):  # hi - lo may overflow
        return [float(x).hex() for x in np.linspace(lo, hi, n)]


class TestLinearGrid:
    """A linear grid is np.linspace's, bit for bit, without numpy."""

    @pytest.mark.parametrize("spec,lo,hi,n", [
        # the README and CI grids: the five-point one steps across the switch angle
        ("-1:1:81", -1.0, 1.0, 81),
        ("0:0.5:3", 0.0, 0.5, 3),
        ("1.2802122581258115:1.4052122581258115:5", 1.2802122581258115, 1.4052122581258115, 5),
        ("0km:100km:2", 0.0, 1e5, 2),
        # one point, and equal ends
        ("-1:-1:1", -1.0, -1.0, 1),
        ("0.3:7:1", 0.3, 7.0, 1),
        ("2.5:2.5:4", 2.5, 2.5, 4),
        ("-0:-0:3", -0.0, -0.0, 3),
        # descending and negative ends
        ("1:-1:7", 1.0, -1.0, 7),
        ("-0.1:-3.7:11", -0.1, -3.7, 11),
        # a step that underflows to 0: numpy divides by n - 1, then multiplies
        ("0:5e-324:3", 0.0, 5e-324, 3),
        ("1e-320:1.5e-320:40000", 1e-320, 1.5e-320, 40000),
        # a span that overflows
        ("-1.7e308:1.7e308:5", -1.7e308, 1.7e308, 5),
    ])
    def test_grid_is_linspace(self, spec, lo, hi, n):
        assert [x.hex() for x in parse_grid(spec)] == linspace_bits(lo, hi, n)

    @given(
        lo=st.floats(allow_nan=False, allow_infinity=False),
        hi=st.floats(allow_nan=False, allow_infinity=False),
        n=st.integers(1, 200),
    )
    @example(lo=0.0, hi=5e-324, n=3)
    @example(lo=-5e-324, hi=5e-324, n=200)
    @example(lo=1.0, hi=1.0 + 2.0**-52, n=7)
    def test_any_grid_is_linspace(self, lo, hi, n):
        grid = parse_grid(f"{lo!r}:{hi!r}:{n}")
        assert all(type(x) is float for x in grid)
        assert [x.hex() for x in grid] == linspace_bits(lo, hi, n)


def log_grid_bits(lo: float, hi: float, n: int) -> list[str]:
    """np.geomspace's formula: 10 ** e over np.linspace of the log10 ends,
    the ends exact, and a point rounded past an end (or the largest double) that end."""
    low, high = min(lo, hi), max(lo, hi)
    points = []
    for e in np.linspace(math.log10(lo), math.log10(hi), n).tolist():
        try:
            points.append(min(max(10.0 ** e, low), high))
        except OverflowError:
            points.append(high)
    points[-1] = hi
    points[0] = lo
    return [x.hex() for x in points]


class TestLogGrid:
    """A log grid is np.geomspace's formula in math, without numpy."""

    @pytest.mark.parametrize("spec,lo,hi,n", [
        # the README and CI grids
        ("100km:36000km:40:log", 1e5, 3.6e7, 40),
        ("50km:10000km:60:log", 5e4, 1e7, 60),
        ("100km:36000km:300:log", 1e5, 3.6e7, 300),
        ("1m:10km:4:log", 1.0, 1e4, 4),
        ("100km:1000km:4:log", 1e5, 1e6, 4),
        # one point, descending, and subnormal ends
        ("7:3:1:log", 7.0, 3.0, 1),
        ("10km:1km:5:log", 1e4, 1e3, 5),
        ("5e-324:1e-300:9:log", 5e-324, 1e-300, 9),
        # at the top of the double range, where a power overflows
        ("1e300km:1.7976931348623157e308:5:log", 1e303, 1.7976931348623157e308, 5),
        ("1.7976931348623157e308:1.7976931348623157e308:3:log", 1.7976931348623157e308,
         1.7976931348623157e308, 3),
    ])
    def test_grid_is_the_geomspace_formula(self, spec, lo, hi, n):
        assert [x.hex() for x in parse_grid(spec)] == log_grid_bits(lo, hi, n)

    @given(
        lo=st.floats(min_value=5e-324, allow_infinity=False),
        hi=st.floats(min_value=5e-324, allow_infinity=False),
        n=st.integers(1, 200),
    )
    @example(lo=648.8039577439586, hi=648.803957743959, n=7)  # interior points round past the ends
    @example(lo=1.7976931348623157e308, hi=1.7976931348623157e308, n=3)
    def test_any_grid_is_the_geomspace_formula(self, lo, hi, n):
        grid = parse_grid(f"{lo!r}:{hi!r}:{n}:log")
        assert all(type(x) is float for x in grid)
        assert [x.hex() for x in grid] == log_grid_bits(lo, hi, n)
        assert all(min(lo, hi) <= x <= max(lo, hi) for x in grid)

    @given(
        lo=st.floats(min_value=1e-300, max_value=1e300),
        hi=st.floats(min_value=1e-300, max_value=1e300),
        n=st.integers(1, 200),
    )
    def test_grid_is_geomspace_to_rounding(self, lo, hi, n):
        assert parse_grid(f"{lo!r}:{hi!r}:{n}:log") == pytest.approx(np.geomspace(lo, hi, n).tolist(), rel=1e-12)

    @pytest.mark.filterwarnings("error")  # numpy's power warned of its overflow
    @pytest.mark.parametrize("grid", ["1e300km:1.7976931348623157e308:5:log",
                                      "1.7976931348623157e308:1.7976931348623157e308:3:log"])
    def test_grid_at_the_top_of_the_double_range(self, grid, capsys):
        code = main(["compare-fiber", "--d-grid", grid])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        d_km = [float(row.split(",")[0]) for row in captured.out.splitlines()[2:]]
        assert all(1e300 <= d <= 1.797693135e305 for d in d_km)  # printed to 10 digits


class TestScenarioAssembly:
    def test_setup_presets(self):
        assert SETUPS[1] == (0.2, 0.4, 1e-9)
        assert SETUPS[2] == (0.4, 1.0, 1e-9)
        assert SETUPS[3] == (0.4, 2.0, 1e-9)
        assert SETUPS[4] == (0.4, 2.0, 1e-13)
        for setup, (w0, a_r, filt) in SETUPS.items():
            scn = Scenario.build("down", "night", setup=setup)
            assert scn.beam.waist == w0
            assert scn.receiver.aperture == a_r
            assert scn.receiver.filter_width == filt

    def test_preset_1_is_the_defaults(self):
        assert Scenario() == Scenario.build(setup=1)

    def test_build_overrides_fields_of_the_preset(self):
        scn = Scenario.build("down", "night", setup=3, beam={"wavelength": 1550e-9},
                             receiver={"filter_width": 1e-13, "efficiency": 0.5})
        assert (scn.beam.waist, scn.beam.wavelength) == (0.4, 1550e-9)
        assert (scn.receiver.aperture, scn.receiver.filter_width, scn.receiver.efficiency) == (2.0, 1e-13, 0.5)
        assert Scenario.build(setup=2, beam={"waist": 0.1}).beam.waist == 0.1

    def test_profile_follows_period(self):
        assert Scenario.build("up", "night").profile_name == "hv-night"
        assert Scenario.build("up", "day").profile_name == "hv-day"

    def test_invalid_scenario(self):
        with pytest.raises(ConfigError):
            Scenario(link="sideways")
        with pytest.raises(ConfigError):
            Scenario(setup=9)
        with pytest.raises(ConfigError, match=re.escape("Scenario.setup: expected one of 1, 2, 3, 4, got 9")):
            Scenario.build(setup=9)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCliCommands:
    def test_show_config_deterministic(self, capsys):
        code1, out1 = run_cli(capsys, "show-config", "--set", "scenario.setup=2")
        code2, out2 = run_cli(capsys, "show-config", "--set", "scenario.setup=2")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "receiver.aperture = 1" in out1

    def test_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# demo configuration\n"
            "scenario.link = up\n"
            "scenario.period = day\n"
            "beam.waist = 30cm\n",
            encoding="utf-8",
        )
        code, out = run_cli(
            capsys, "show-config", "--config", str(cfg), "--set", "beam.waist=35cm"
        )
        assert code == 0
        assert "scenario.link = up" in out
        assert "beam.waist = 0.35" in out

    def test_repeated_options_do_not_carry_over(self, capsys):
        # the parser is built once per process; appended values must not leak
        # from one main() call into the next
        code1, _ = run_cli(
            capsys, "bounds", "--h-grid", "500km:1000km:2", "--theta", "0", "--theta", "0.5",
            "--set", "scenario.setup=2", "--set", "scenario.link=up",
        )
        code2, out = run_cli(capsys, "bounds", "--h-grid", "500km:1000km:2", "--theta", "0.3")
        assert code1 == code2 == 0
        lines = out.strip().splitlines()
        assert "scenario.setup=1" in lines[0] and "scenario.link=down" in lines[0]
        rows = [line.split(",") for line in lines[2:]]
        assert [row[1] for row in rows] == ["0.3", "0.3"]
        # nor may a default list, converted item by item, change for the next call
        for _ in range(2):
            code, out = run_cli(capsys, "compare-fiber", "--d-grid", "100km:100km:1")
            assert code == 0
            assert out.splitlines()[1] == "d_km,fiber_bits_day,rep1_bits_day,rep5_bits_day,rep30_bits_day"

    def test_bounds_sweep_shape_and_ordering(self, capsys):
        code, out = run_cli(
            capsys, "bounds", "--h-grid", "200km:2000km:4:log", "--theta", "0", "--theta", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "h_km,theta,U,V,B,thermal_upper,thermal_lower,eta,nbar"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 8
        for row in rows:
            u, v, b, upper, lower, eta, nbar = map(float, row[2:])
            assert lower <= upper + 1e-12 <= b + 1e-9
            assert b <= v + 1e-12 <= u + 1e-9
            assert 0.0 < eta < 1.0 and nbar >= 0.0

    def test_narrow_filter_collapses_thermal_bounds(self, capsys):
        # clear-day downlink with a 0.1 pm filter: both thermal bounds sit on
        # the loss-limited curve through LEO and MEO
        code, out = run_cli(
            capsys, "bounds", "--h-grid", "300km:7000km:4:log", "--theta", "1",
            "--set", "scenario.period=day", "--set", "scenario.sky=clear",
            "--set", "receiver.filter=0.1pm",
        )
        assert code == 0
        for line in out.strip().splitlines()[2:]:
            b, upper, lower = map(float, line.split(",")[4:7])
            assert upper == pytest.approx(b, rel=1e-2)
            assert lower == pytest.approx(b, rel=1e-2)
        # night-time with the same filter: exact collapse out to GEO
        code, out = run_cli(
            capsys, "bounds", "--h-grid", "300km:36000km:3:log", "--theta", "0",
            "--set", "receiver.filter=0.1pm",
        )
        assert code == 0
        for line in out.strip().splitlines()[2:]:
            b, upper, lower = map(float, line.split(",")[4:7])
            assert upper == pytest.approx(b, rel=1e-3)
            assert lower == pytest.approx(b, rel=1e-3)

    def test_rate_sweep(self, capsys):
        code, out = run_cli(
            capsys, "rate", "--h", "530km", "--theta-grid=-1:1:5",
            "--set", "scenario.setup=2", "--set", "protocol.mu=9.28",
            "--set", "protocol.phi=0.73",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "h_km,theta,rate,rate_unclamped"
        rates = [float(line.split(",")[2]) for line in lines[2:]]
        assert len(rates) == 5
        assert all(r > 0 for r in rates)
        assert rates[0] == pytest.approx(rates[-1], rel=1e-9)  # even in theta

    def test_pass_report_json(self, capsys):
        code, out = run_cli(
            capsys, "pass", "--h", "530km", "--blocks", "10",
            "--set", "scenario.setup=2", "--set", "protocol.mu=9.28",
            "--set", "protocol.phi=0.73",
        )
        assert code == 0
        report = json.loads(out)
        assert report["t_Q_s"] == pytest.approx(200.0, abs=1.0)
        assert len(report["slices"]) == 10
        assert len(report["per_slice_rate"]) == 10
        assert report["bits_per_pass"] == pytest.approx(4.1e7, rel=0.2)
        assert report["orbits_per_day"] == 15
        assert report["sun_sync_inclination_deg"] == pytest.approx(97.5, abs=0.1)
        # the orbital average can only improve on the 1-radiant border rate
        assert report["R_orb"] >= report["per_slice_rate"][0]

    def test_readme_pass_report_is_strict_json(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        command = re.search(r"^satlink (pass .*?)$", readme.replace("\\\n", ""), flags=re.MULTILINE).group(1)
        code, out = run_cli(capsys, *command.split())
        assert code == 0

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        report = json.loads(out, parse_constant=reject)
        # a non-finite setting reads as show-config prints it, a finite one stays a number
        assert report["config"]["beam.curvature"] == "inf"
        assert report["config"]["protocol.clock_hz"] == 5e6

    def test_pass_report_without_blocks(self, capsys):
        # a block of 1e10 pulses at 5 MHz outlasts t_Q: the report keeps
        # every key of a pass that has blocks, and adds the diagnostic
        _, normal = run_cli(capsys, "pass", "--h", "530km")
        code, out = run_cli(
            capsys, "pass", "--h", "530km", "--set", "protocol.N=1e10", "--set", "protocol.m=1e8"
        )
        assert code == 0
        report = json.loads(out)
        assert report["slices"] == [] and report["per_slice_rate"] == []
        assert report["R_orb"] == 0.0 and report["bits_per_day"] == 0.0
        assert report["diagnostic"] == "no block fits in the quantum transit time"
        assert set(report) == set(json.loads(normal)) | {"diagnostic"}

    def test_validate_mc_reproducible(self, capsys):
        args = (
            "validate-mc", "--h", "530km", "--theta", "0.3",
            "--samples", "50000", "--seed", "11", "--bins", "24",
        )
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        ks_line = [l for l in out1.splitlines() if "ks_statistic" in l][0]
        ks = float(ks_line.split("=")[-1])
        assert ks < 0.02
        header = out1.splitlines()[3]
        assert header == "tau_bin_lo,tau_bin_hi,empirical_p,analytic_p"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--h", "530km", "--theta", "1", "--samples", "1000000", "--seed", "1"),
            # a fifth of the samples round to eta, the top edge of the last bin
            ("--h", "100km", "--samples", "1000", "--seed", "3", "--bins", "7",
             "--set", "scenario.setup=4"),
            ("--h", "36000km", "--theta", "0.5", "--samples", "20000", "--seed", "0", "--bins", "200",
             "--set", "scenario.link=up", "--set", "scenario.period=day"),
            ("--h", "530km", "--samples", "1"),
            ("--h", "530km", "--samples", "2", "--bins", "1"),
            # the block edges of the sampler and the KS statistic
            *(("--h", "530km", "--theta", "1", "--samples", str(n), "--seed", "5")
              for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)),
        ],
    )
    def test_validate_mc_matches_the_sorted_twice_body(self, argv, capsys):
        argv = ["validate-mc", *argv]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        args = cli.parse_args(argv)
        assert out == cmd_validate_mc_sorted_twice(args, resolve_scenario(args))

    def test_validate_mc_holds_one_float_per_sample(self, capsys):
        # v is the only n-element array: the sampler draws y
        # a block at a time and the KS statistic takes the law at few of them
        n = 1_000_000
        tracemalloc.start()
        try:
            code = main(["validate-mc", "--h", "530km", "--theta", "1", "--samples", str(n)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "ks_statistic=" in capsys.readouterr().out
        assert peak < 1.5 * 8 * n

    def test_validate_mc_takes_the_law_at_few_samples(self, capsys, monkeypatch):
        # the law of v is non-decreasing on the sorted v, so the KS
        # statistic needs it at one sample in fading.STRIDE and in the few
        # segments that can hold the largest deviation, not at every sample;
        # the fading law is taken at the bin edges only
        n, bins = 1_000_000, 60
        points = {"v_cdf": [], "fading_cdf": []}

        def counted(name, law):
            def call(x, *model):
                points[name].append(np.size(x))
                return law(x, *model)
            return call

        monkeypatch.setattr(fading, "v_cdf", counted("v_cdf", v_cdf))
        monkeypatch.setattr(fading, "fading_cdf", counted("fading_cdf", fading_cdf))
        code, out = run_cli(capsys, "validate-mc", "--h", "530km", "--theta", "1",
                            "--samples", str(n), "--seed", "1", "--bins", str(bins))
        assert code == 0
        assert "ks_statistic=" in out
        assert 0 < sum(points["v_cdf"]) < n / 8
        assert points["fading_cdf"] == [1] * (bins + 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--h", "530km", "--theta", "0.3", "--samples", "20000", "--seed", "11", "--bins", "24"),
            ("--h", "100km", "--samples", "5000", "--seed", "2", "--bins", "9", "--set", "scenario.setup=4"),
        ],
    )
    def test_validate_mc_ks_and_counts_match_scipy_and_numpy(self, argv, capsys, monkeypatch):
        # every float printed round-trips, so the output can be held to the oracles exactly
        monkeypatch.setattr(cli, "_fmt", lambda x: repr(x) if isinstance(x, float) else str(x))
        argv = ["validate-mc", *argv]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        args = cli.parse_args(argv)
        model = resolve_scenario(args).fading_model(args.h, args.theta)
        lines = out.splitlines()

        # v / 2 is a standard exponential
        ks = float(next(line for line in lines if line.startswith("# ks_statistic=")).split("=")[1])
        v = sample_v(args.samples, args.seed)
        want = scipy.stats.kstest(v / 2.0, "expon").statistic
        assert abs(ks - want) <= 1e-15

        # the counts come from v, so they hold the forward map tau(v) to the
        # tau bins
        rows = np.array([[float(c) for c in line.split(",")] for line in lines[4:]])
        edges = np.linspace(0.0, model.eta, args.bins + 1)
        counts, _ = np.histogram(sample_fading(model, args.samples, args.seed), bins=edges)
        assert np.array_equal(rows[:, 0], edges[:-1]) and np.array_equal(rows[:, 1], edges[1:])
        assert np.array_equal(rows[:, 2], counts / args.samples)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--h", "0km"),
            ("--h", "530km", "--set", "pointing.error_rad=0"),
        ],
    )
    def test_validate_mc_without_wander_reads_zero(self, argv, capsys):
        # sigma^2 = 0: every sample is exactly eta, the law's point mass, so
        # the empirical law is the law and every sample is in the last bin
        code, out = run_cli(capsys, "validate-mc", *argv, "--samples", "1000", "--bins", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == "# ks_statistic=0"
        assert [line.split(",")[2] for line in lines[4:]] == ["0", "0", "0", "1"]

    def test_validate_mc_with_an_infinite_wander_variance(self, capsys):
        # s = 0: the beam always misses, so both columns put every tau at 0,
        # in the first bin; the statistic of v is finite, and numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["validate-mc", "--h", "100km", "--theta", "0", "--samples", "200", "--bins", "5",
                         "--set", "scenario.link=up", "--set", "scenario.period=day",
                         "--set", "pointing.error_rad=1.797693134862316e+303"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        lines = captured.out.splitlines()
        assert math.isfinite(float(lines[2].removeprefix("# ks_statistic=")))
        assert [line.split(",")[2:] for line in lines[4:]] == [["1", "1"]] + [["0", "0"]] * 4

    def test_validate_mc_statistic_does_not_depend_on_the_model(self, capsys, monkeypatch):
        # the statistic is that of the seed's v from their law, whatever the
        # model: the same double.  Setup 4 downlink at 100 km is the near
        # field, where a fifth of the taus round to eta and a KS statistic of
        # tau against F reads 0.2185
        monkeypatch.setattr(cli, "_fmt", lambda x: repr(x) if isinstance(x, float) else str(x))
        models = [
            ("--h", "530km", "--theta", "0"),
            ("--h", "530km", "--theta", "1"),
            ("--h", "20000km", "--theta", "0.5", "--set", "scenario.link=up"),
            ("--h", "100km", "--set", "scenario.setup=4"),
        ]
        ks = []
        for argv in models:
            code, out = run_cli(capsys, "validate-mc", *argv, "--samples", "1000000", "--seed", "1")
            assert code == 0
            ks.append(float(out.splitlines()[2].split("=")[1]))
        assert ks == pytest.approx([0.001589660826] * 4, rel=1e-9)
        assert len(set(ks)) == 1

    def test_max_range_reports_the_cap(self, capsys):
        # the bound is still positive at the 1e9 m bracket cap
        code, out = run_cli(
            capsys, "max-range", "--mode", "tight",
            "--set", "scenario.setup=4", "--set", "scenario.link=up",
        )
        assert code == 0
        assert out.splitlines()[1:] == ["mode,z_max_km,secure_anywhere,capped", "tight,1000000,True,True"]

    @pytest.mark.parametrize("mode", ["simple", "tight"])
    def test_max_range_found_is_not_capped(self, mode, capsys):
        code, out = run_cli(
            capsys, "max-range", "--mode", mode,
            "--set", "scenario.link=up", "--set", "scenario.period=day",
        )
        assert code == 0
        header, row = out.splitlines()[1:]
        assert header == "mode,z_max_km,secure_anywhere,capped"
        assert row.split(",")[2:] == ["True", "False"]

    def test_max_range_simple_vs_tight(self, capsys):
        code, out = run_cli(
            capsys, "max-range", "--mode", "simple",
            "--set", "scenario.link=up", "--set", "scenario.period=day",
        )
        assert code == 0
        simple = float(out.strip().splitlines()[-1].split(",")[1])
        code, out = run_cli(
            capsys, "max-range", "--mode", "tight",
            "--set", "scenario.link=up", "--set", "scenario.period=day",
        )
        tight = float(out.strip().splitlines()[-1].split(",")[1])
        assert tight < simple

    def test_compare_fiber(self, capsys):
        code, out = run_cli(
            capsys, "compare-fiber", "--d-grid", "100km:1000km:4:log", "--n-rep", "1", "30",
            "--sat", "h=530km,blocks=10,period=night,setup=2,mu=9.28,phi=0.73,label=nightdown",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "d_km,fiber_bits_day,rep1_bits_day,rep30_bits_day,nightdown_bits_day"
        first = lines[2].split(",")
        assert float(first[1]) > 0
        sat_bits = float(first[4])
        assert sat_bits == pytest.approx(4.1e7, rel=0.2)

    def test_compare_fiber_with_nearly_lossless_hops(self, capsys):
        # with 1e19 repeaters a hop transmits 1 - 1e-23, which rounds to 1:
        # its loss comes from expm1, so the rate stays finite
        code, out = run_cli(
            capsys, "compare-fiber", "--d-grid", "50km:10000km:5:log", "--n-rep", "0", "1", "30", "1e6", "1e19"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].endswith(",rep1000000_bits_day,rep10000000000000000000_bits_day")
        for row in lines[2:]:
            bits = [float(x) for x in row.split(",")[1:]]
            assert all(map(math.isfinite, bits))
            assert bits == sorted(bits)  # more repeaters never lower the rate

    def test_compare_fiber_with_underflowing_hop_loss(self, capsys):
        # 1e-300 m behind 1e19 repeaters: a hop's loss underflows, its rate does not
        code, out = run_cli(capsys, "compare-fiber", "--d-grid", "1e-300:1e-300:1", "--n-rep", "1e19")
        assert code == 0
        assert out.strip().splitlines()[2] == "1e-303,4.367454399e+14,4.640118257e+14"

    def test_compare_fiber_without_blocks(self, capsys):
        code, out = run_cli(
            capsys, "compare-fiber", "--d-grid", "50km:1000km:3", "--sat", "h=530km,N=1e10,m=1e8"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].endswith(",sat_530km_bits_day")
        assert [row.split(",")[-1] for row in lines[2:]] == ["0", "0", "0"]

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code, _ = run_cli(
            capsys, "bounds", "--h-grid", "500km:500km:1", "--theta", "0", "-o", str(target)
        )
        assert code == 0
        assert target.read_text(encoding="utf-8").startswith("# config:")


class TestExitCodes:
    def test_unknown_key(self, capsys):
        assert run_cli(capsys, "show-config", "--set", "scenario.color=red")[0] == 2

    def test_unknown_setup(self, capsys):
        code = main(["show-config", "--set", "scenario.setup=9"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "configuration error: scenario.setup: expected one of 1, 2, 3, 4, got 9\n"

    def test_infinite_count(self, capsys):
        assert run_cli(capsys, "show-config", "--set", "protocol.N=inf")[0] == 2

    def test_bad_grid(self, capsys):
        assert run_cli(capsys, "bounds", "--h-grid", "100km:200km:0")[0] == 2

    def test_bad_unit(self, capsys):
        assert run_cli(capsys, "rate", "--h", "530miles", "--theta-grid", "0:1:3")[0] == 2

    # sizes of 1e15 and more fail at allocation (petabytes), so no memory is
    # touched; from 2**60 doubles on (8 EiB) they fail before it, where numpy
    # would raise ValueError.  --bins is refused by its domain, far below either
    @pytest.mark.parametrize(
        "argv",
        [
            ("validate-mc", "--h", "530km", "--samples", "1e15"),
            ("validate-mc", "--h", "530km", "--samples", "10", "--bins", "1e15"),
            ("bounds", "--h-grid", "0km:1km:1e15"),
            ("bounds", "--h-grid", "1km:2km:2e18:log"),
            ("bounds", "--h-grid", "1km:2km:1e19:log"),
            ("bounds", "--h-grid", "1km:2km:1e30:log"),
            ("compare-fiber", "--d-grid", "50km:100km:1e19:log"),
            ("validate-mc", "--h", "530km", "--samples", "2e18"),
            ("validate-mc", "--h", "530km", "--samples", "1e19"),
            ("validate-mc", "--h", "530km", "--samples", "10", "--bins", "2e18"),
            ("validate-mc", "--h", "530km", "--samples", "10", "--bins", "1e19"),
        ],
    )
    def test_request_beyond_memory(self, argv, capsys):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        if "--bins" in argv:
            assert captured.err.startswith(f"configuration error: --bins: expected at least 1 and at most {cli.MAX_BINS}")
        else:
            assert captured.err.startswith("configuration error: the request does not fit in memory: Unable to allocate")

    def test_bins_up_to_their_bound(self):
        # the bound is checked as the options are parsed, before any array is made
        argv = ["validate-mc", "--h", "530km", "--bins"]
        assert cli.parse_args([*argv, str(cli.MAX_BINS)]).bins == cli.MAX_BINS
        with pytest.raises(ConfigError, match=f"--bins: expected at least 1 and at most {cli.MAX_BINS}, got"):
            cli.parse_args([*argv, str(cli.MAX_BINS + 1)])

    def test_missing_config_file(self, capsys):
        assert run_cli(capsys, "show-config", "--config", "/nonexistent.cfg")[0] == 2

    def test_inconsistent_protocol_request(self, capsys):
        # general attacks without an energy-test budget is a config mistake
        code, _ = run_cli(
            capsys, "rate", "--h", "530km", "--theta-grid", "0:1:2",
            "--attacks", "general",
        )
        assert code == 2

    def test_negative_altitude(self, capsys):
        code, _ = run_cli(capsys, "pass", "--h=-100km")
        assert code == 2

    @pytest.mark.parametrize(
        "key", ["beam.waist", "receiver.aperture", "protocol.clock_hz", "protocol.N"]
    )
    def test_infinite_value_names_the_key(self, key, capsys):
        # only beam.curvature takes inf; elsewhere it would reach the model
        # as a NaN rate or a message about a derived quantity
        code = main(["rate", "--h", "530km", "--theta-grid", "0:1:2", "--set", f"{key}=inf"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: {key}: expected a finite quantity, got 'inf'\n"

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["rate", "--h", "inf", "--theta-grid", "0:1:2"], "--h"),
            (["rate", "--h", "530km", "--theta-grid", "0:1e999:2"], "--theta-grid"),
            (["bounds", "--h-grid", "100km:inf:3"], "--h-grid"),
            (["bounds", "--h-grid", "100km:200km:3", "--theta", "inf"], "--theta"),
            (["pass", "--h", "inf"], "--h"),
            (["validate-mc", "--h", "530km", "--theta=-1e999"], "--theta"),
            (["compare-fiber", "--d-grid", "50km:inf:3"], "--d-grid"),
            (["compare-fiber", "--d-grid", "50km:100km:3", "--sat", "h=inf"], "--sat h"),
            (["show-config", "--set", "beam.waist=1e308km"], "beam.waist"),
        ],
    )
    def test_infinite_argument_names_the_option(self, argv, name, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {name}: expected a finite quantity, got ")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["compare-fiber", "--d-grid", "50km:100km:2", "--sat", "h=530km,blocks=abc"],
             "--sat blocks: cannot parse quantity 'abc'"),
            (["compare-fiber", "--d-grid", "50km:100km:2", "--n-rep", "x"],
             "--n-rep: cannot parse quantity 'x'"),
            (["validate-mc", "--h", "530km", "--samples", "0"], "--samples: expected at least 1, got 0"),
            (["validate-mc", "--h", "530km", "--samples", "-3"], "--samples: expected at least 1, got -3"),
            (["validate-mc", "--h", "530km", "--samples", "1000", "--bins", "0"],
             "--bins: expected at least 1 and at most 100000, got 0"),
            (["validate-mc", "--h", "530km", "--samples", "1000", "--bins", "-1"],
             "--bins: expected at least 1 and at most 100000, got -1"),
            (["max-range", "--mode", "simple", "--set", "noise.h_sky=-1"],
             "noise.h_sky: expected a non-negative quantity, got -1.0"),
            (["max-range", "--mode", "simple", "--set", "noise.kappa=-1", "--set", "scenario.link=up"],
             "noise.kappa: expected a non-negative quantity, got -1.0"),
            (["max-range", "--mode", "simple", "--set", "noise.h_sky=0"],
             "the Fresnel range needs background photons, and n_B is 0"),
            (["compare-fiber", "--d-grid", "50km:100km:2", "--n-rep", "-1"],
             "--n-rep: expected at least 0, got -1"),
            (["compare-fiber", "--d-grid", "50km:100km:2", "--sat", "h=530km,blocks=0"],
             "--sat blocks: expected at least 1, got 0"),
            (["pass", "--h", "530km", "--blocks", "0"], "--blocks: expected at least 1, got 0"),
            (["validate-mc", "--h", "530km", "--samples", "100", "--seed", "-1"],
             "--seed: expected at least 0, got -1"),
            # zenith angles beyond pi/2 stop at the option, before the Rytov variance
            (["validate-mc", "--h", "530km", "--theta=1.6"],
             "--theta: expected a zenith angle in [-pi/2, pi/2], got 1.6"),
            (["rate", "--h", "530km", "--theta-grid=1.5:1.7:3"],
             "--theta-grid: expected a zenith angle in [-pi/2, pi/2], got 1.6"),
            # just above pi/2 in double precision: cos(theta) < 0 there
            (["validate-mc", "--h", "530km", "--theta=1.5707963267949", "--samples", "10"],
             "--theta: expected a zenith angle in [-pi/2, pi/2], got 1.5707963267949"),
            (["bounds", "--h-grid", "530km:530km:1", "--theta=1.5707963267949"],
             "--theta: expected a zenith angle in [-pi/2, pi/2], got 1.5707963267949"),
            # counts and indices take whole numbers, not truncated fractions
            (["show-config", "--set", "scenario.setup=2.7"], "scenario.setup: expected a whole number, got '2.7'"),
            (["show-config", "--set", "protocol.d=31.9"], "protocol.d: expected a whole number, got '31.9'"),
            (["compare-fiber", "--d-grid", "50km:100km:2", "--n-rep", "2.9"],
             "--n-rep: expected a whole number, got '2.9'"),
            (["compare-fiber", "--d-grid", "50km:100km:2", "--sat", "h=530km,blocks=1.9"],
             "--sat blocks: expected a whole number, got '1.9'"),
            (["pass", "--h", "530km", "--blocks", "2.5"], "--blocks: expected a whole number, got '2.5'"),
            (["validate-mc", "--h", "530km", "--samples", "1000", "--bins", "7.5"],
             "--bins: expected a whole number, got '7.5'"),
            (["validate-mc", "--h", "530km", "--samples", "100", "--seed", "0.5"],
             "--seed: expected a whole number, got '0.5'"),
            # and bare numbers: a unit suffix would scale the count
            (["validate-mc", "--h", "530km", "--samples", "1km"],
             "--samples: expected a whole number without a unit, got '1km'"),
            (["compare-fiber", "--d-grid", "50km:100km:2", "--n-rep", "1km"],
             "--n-rep: expected a whole number without a unit, got '1km'"),
            (["bounds", "--h-grid", "100km:200km:2km"],
             "--h-grid: grid point count: expected a whole number without a unit, got '2km'"),
            (["show-config", "--set", "protocol.d=32ns"],
             "protocol.d: expected a whole number without a unit, got '32ns'"),
            # the PE tail model is checked with the configuration, not first by a rate
            (["show-config", "--set", "protocol.tail=bogus"],
             "protocol.tail: expected one of 'gaussian', 'hoeffding', got 'bogus'"),
            (["bounds", "--h-grid", "500km:600km:2", "--set", "protocol.tail=bogus"],
             "protocol.tail: expected one of 'gaussian', 'hoeffding', got 'bogus'"),
            # a log grid needs both ends positive
            (["bounds", "--h-grid", "0km:10km:3:log"], "--h-grid: log grid needs a positive start, got '0km'"),
            (["bounds", "--h-grid", "10km:0km:3:log"], "--h-grid: log grid needs a positive stop, got '0km'"),
            (["bounds", "--h-grid", "10km:-5km:3:log"], "--h-grid: log grid needs a positive stop, got '-5km'"),
            (["compare-fiber", "--d-grid", "50km:0km:3:log"],
             "--d-grid: log grid needs a positive stop, got '0km'"),
            (["rate", "--h", "530km", "--theta-grid", "0.5:0:3:log"],
             "--theta-grid: log grid needs a positive stop, got '0'"),
        ],
    )
    def test_bad_argument_names_its_cause(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {message}\n"
        assert captured.out == ""

    def test_failed_command_leaves_no_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code = main(["validate-mc", "--h", "530km", "--samples", "0", "-o", str(target)])
        assert code == 2
        assert not target.exists()

    @pytest.mark.parametrize(
        "sets,n_b",
        [
            (["noise.h_sky=5e-324"], "0"),  # n_B rounds to 0
            (["noise.h_sky=1e-300"], "1.59998e-319"),  # lambda n_B does
            (["scenario.link=up", "noise.kappa=5e-324"], "4.94066e-324"),
        ],
    )
    def test_background_photons_that_underflow_are_a_numerical_failure(self, sets, n_b, capsys):
        # a positive override whose photons round away is no user mistake
        assert main(["max-range", "--mode", "simple", *(f"--set={s}" for s in sets)]) == 3
        captured = capsys.readouterr()
        message = f"no finite Fresnel range: lambda n_B underflows to 0 at n_B = {n_b}"
        assert captured.err == f"numerical error: {message}\n"
        assert captured.out == ""

    def test_numerical_failure_is_exit_3(self, capsys):
        # a millimetre-scale uplink waist violates the weak-turbulence
        # precondition and must surface as a numerical error
        code, _ = run_cli(
            capsys, "rate", "--h", "530km", "--theta-grid", "0:1:3",
            "--set", "scenario.link=up", "--set", "beam.waist=0.5mm",
        )
        assert code == 3


class TestNearField:
    """Downlinks to a 2 m aperture below ~364 km, where 1 - exp(-2a^2/w^2) is 1.0."""

    def test_bounds_sweep(self, capsys):
        code, out = run_cli(capsys, "bounds", "--h-grid", "100km:500km:5", "--set", "scenario.setup=3")
        assert code == 0
        rows = [list(map(float, line.split(","))) for line in out.strip().splitlines()[2:]]
        assert len(rows) == 5
        for _, _, u, v, b, upper, lower, eta, _ in rows:
            assert 0.0 <= lower <= upper <= b <= v <= u
            assert 0.0 < eta < 1.0

    def test_rate_sweep(self, capsys):
        code, out = run_cli(
            capsys, "rate", "--h", "150km", "--theta-grid", "0:1:3", "--set", "scenario.setup=4"
        )
        assert code == 0
        scn = Scenario.build("down", "night", setup=4)
        rows = [list(map(float, line.split(","))) for line in out.strip().splitlines()[2:]]
        assert [row[1] for row in rows] == [0.0, 0.5, 1.0]
        for _, theta, rate, unclamped in rows:
            assert 0.0 < rate == unclamped <= scn.bounds_at(150e3, theta).B


# a valid non-default value for every configuration key, and the value it
# must give the key's field
KEY_SAMPLES = {
    "scenario.link": ("up", "up"),
    "scenario.period": ("day", "day"),
    "scenario.sky": ("cloudy", "cloudy"),
    "scenario.setup": ("3", 3),
    "scenario.profile": ("hv-worst-day", "hv-worst-day"),
    "beam.wavelength": ("1550nm", 1.55e-6),
    "beam.waist": ("30cm", 0.3),
    "beam.curvature": ("5km", 5e3),
    "receiver.aperture": ("75cm", 0.75),
    "receiver.fov_sr": ("2e-10", 2e-10),
    "receiver.detection_time": ("5ns", 5e-9),
    "receiver.filter": ("0.5nm", 5e-10),
    "receiver.efficiency": ("0.5", 0.5),
    "receiver.excess_photons": ("0.01", 0.01),
    "atmosphere.alpha0": ("4e-6", 4e-6),
    "atmosphere.scale_height": ("7km", 7e3),
    "pointing.error_rad": ("2e-6", 2e-6),
    "protocol.N": ("2e8", 200_000_000),
    "protocol.m": ("1e7", 10_000_000),
    "protocol.f_et": ("0.5", 0.5),
    "protocol.beta": ("0.95", 0.95),
    "protocol.p_ec": ("0.8", 0.8),
    "protocol.eps_s": ("1e-10", 1e-10),
    "protocol.eps_h": ("1e-11", 1e-11),
    "protocol.eps_pe": ("1e-12", 1e-12),
    "protocol.eps_cor": ("1e-13", 1e-13),
    "protocol.d": ("64", 64),
    "protocol.mu": ("7", 7.0),
    "protocol.phi": ("0.6", 0.6),
    "protocol.clock_hz": ("10MHz", 1e7),
    "protocol.detection": ("hom", "hom"),
    "protocol.tail": ("hoeffding", "hoeffding"),
    "noise.h_sky": ("1.5", 1.5),
    "noise.kappa": ("0.2", 0.2),
}


class TestConfigKeys:
    @pytest.mark.parametrize("key,path", [(key, path) for key, path, _ in CONFIG_KEYS])
    def test_set_reaches_field_and_show_config(self, key, path, capsys):
        text, expected = KEY_SAMPLES[key]
        field = operator.attrgetter(path)
        value = field(scenario_from_config({key: text}))
        assert type(value) is type(expected)
        assert value == (pytest.approx(expected, rel=1e-12) if isinstance(expected, float) else expected)
        assert value != field(scenario_from_config({}))
        code, out = run_cli(capsys, "show-config", "--set", f"{key}={text}")
        assert code == 0
        if key == "scenario.profile":
            assert "turbulence.profile = hv-worst-day" in out.splitlines()
        else:
            assert f"{key} = {_fmt(value)}" in out.splitlines()

    def test_sat_shorthand_names_every_key(self, capsys):
        # the last dotted part of each key is its --sat shorthand
        assert sorted(_SAT_SHORTHAND.values()) == sorted(key for key, _, _ in CONFIG_KEYS)
        code, out = run_cli(
            capsys, "compare-fiber", "--d-grid", "100km:100km:1", "--n-rep",
            "--sat", "h=530km,blocks=2,setup=2,waist=30cm,protocol.phi=0.7,label=a",
            "--sat", "h=530km,blocks=2,scenario.setup=2,beam.waist=30cm,phi=0.7,label=b",
            "--sat", "h=530km,blocks=2,setup=2,phi=0.7,label=c",
        )
        assert code == 0
        a, b, c = map(float, out.strip().splitlines()[-1].split(",")[2:])
        assert a == b > 0 and a != c

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Configuration keys", 1)[1].split("\n#", 1)[0]
        listed = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
        assert sorted(listed) == sorted(key for key, _, _ in CONFIG_KEYS)

    def test_readme_gives_each_key_its_declared_domain(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Configuration keys", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `([^`]+)` \| [^|]+ \| ([^|]+) \|", section, flags=re.MULTILINE)
        for key, domain in rows:
            owner, _, name = dict((k, path) for k, path, _ in CONFIG_KEYS)[key].rpartition(".")
            assert domain == cli._OWNERS[owner]._domains[name].text, key
        assert len(rows) == len(CONFIG_KEYS)

    def test_noise_overrides_are_recorded(self, capsys):
        # the overrides appear in every config record when set, and only then
        code, out = run_cli(capsys, "show-config")
        assert code == 0 and "noise." not in out.replace("noise.nbar_background", "")
        sets = ("--set", "noise.h_sky=1.5", "--set", "noise.kappa=0.2")
        code, out = run_cli(capsys, "bounds", "--h-grid", "500km:500km:1", *sets)
        assert code == 0
        assert {"noise.h_sky=1.5", "noise.kappa=0.2"} <= set(out.splitlines()[0].split())
        code, out = run_cli(capsys, "pass", "--h", "530km", *sets)
        assert code == 0
        config = json.loads(out)["config"]
        assert config["noise.h_sky"] == 1.5 and config["noise.kappa"] == 0.2


RATE = ["rate", "--h", "530km", "--theta-grid", "0:0.5:3"]
ALL_COMMANDS = [
    ["show-config"],
    ["bounds", "--h-grid", "500km:600km:2"],
    RATE,
    ["pass", "--h", "530km", "--blocks", "2"],
    ["compare-fiber", "--d-grid", "50km:100km:2", "--sat", "h=530km,blocks=1"],
    ["validate-mc", "--h", "530km", "--samples", "100"],
    ["max-range", "--mode", "simple"],
]


class TestDomains:
    @pytest.mark.parametrize(
        "setting,expected",
        [
            ("atmosphere.alpha0=-1", "a non-negative quantity, got -1.0"),
            ("atmosphere.scale_height=-1", "a positive quantity, got -1.0"),
            ("beam.curvature=0", "a non-zero quantity (inf: collimated), got 0.0"),
            ("protocol.beta=2", "a quantity in (0, 1], got 2.0"),
            ("protocol.p_ec=2", "a quantity in (0, 1], got 2.0"),
            ("protocol.f_et=1.5", "a quantity in [0, 1], got 1.5"),
            ("protocol.d=0", "at least 2, got 0"),
            ("pointing.error_rad=-1", "a non-negative quantity, got -1.0"),
            ("protocol.clock_hz=0", "a positive quantity, got 0.0"),
            ("receiver.excess_photons=-1", "a non-negative quantity, got -1.0"),
        ],
    )
    def test_key_outside_its_domain_names_the_key(self, setting, expected, capsys):
        key = setting.partition("=")[0]
        assert main([*RATE, "--set", setting]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {key}: expected {expected}\n"

    @pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda argv: argv[0])
    def test_pilot_count_is_checked_by_every_command(self, argv, capsys):
        assert main([*argv, "--set", "protocol.m=0"]) == 2
        assert capsys.readouterr().err == "configuration error: protocol.m: expected at least 1, got 0\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["compare-fiber", "--d-grid=-5km:10km:3"], "--d-grid: expected a non-negative quantity, got -5000.0"),
            (["rate", "--h=-1km", "--theta-grid", "0:1:2"], "--h: expected a non-negative quantity, got -1000.0"),
            (["validate-mc", "--h=-1km"], "--h: expected a non-negative quantity, got -1000.0"),
            # a pass needs an orbit
            (["pass", "--h", "0km"], "--h: expected a positive quantity, got 0.0"),
            (["compare-fiber", "--d-grid", "50km:100km:2", "--sat", "h=0km"],
             "--sat h: expected a positive quantity, got 0.0"),
            (["bounds", "--h-grid=-100km:200km:3"], "--h-grid: expected a non-negative quantity, got -100000.0"),
            (["bounds", "--h-grid", "100km:200km:2", "--theta=-2"],
             "--theta: expected a zenith angle in [-pi/2, pi/2], got -2.0"),
            (["rate", "--h", "530km", "--theta-grid=-1.6:0:2"],
             "--theta-grid: expected a zenith angle in [-pi/2, pi/2], got -1.6"),
        ],
    )
    def test_option_outside_its_domain_names_the_option(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "sets,message",
        [
            (["protocol.m=1e8"], "protocol.m must be below protocol.N, got 100000000 and 100000000"),
            (["protocol.N=1e7"], "protocol.m must be below protocol.N, got 15000000 and 10000000"),
            (["protocol.f_et=0.5", "protocol.detection=hom"],
             "attacks 'general' need protocol.detection 'het' and protocol.f_et > 0, got 'hom' and 0.5"),
            ([], "attacks 'general' need protocol.detection 'het' and protocol.f_et > 0, got 'het' and 0.0"),
        ],
    )
    def test_cross_key_rule_names_both_keys(self, sets, message, capsys):
        argv = [*RATE, "--attacks", "general"]
        for setting in sets:
            argv += ["--set", setting]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_a_value_that_spells_a_field_is_quoted_verbatim(self, capsys):
        # only the fields that a record's own message names are mapped to their keys
        assert main(["show-config", "--set", "scenario.link=BeamParams.waist"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: scenario.link: expected one of 'up', 'down', got 'BeamParams.waist'\n")

    def test_a_config_file_path_is_quoted_verbatim(self, tmp_path, capsys):
        path = tmp_path / "Scenario.setup.cfg"  # no such file
        assert main(["show-config", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read config file {path}: ")
        assert "scenario.setup" not in err

    def test_general_attacks_with_energy_tests_run(self, capsys):
        code, out = run_cli(capsys, *RATE, "--attacks", "general", "--set", "protocol.f_et=0.5")
        assert code == 0 and len(out.splitlines()) == 5

    @pytest.mark.parametrize("setting", ["beam.waist=1e-9", "beam.curvature=-1", "beam.curvature=1"])
    @pytest.mark.parametrize("argv", ALL_COMMANDS[1:6], ids=lambda argv: argv[0])
    def test_degenerate_fading_is_a_numerical_failure(self, argv, setting, capsys):
        assert main([*argv, "--set", setting]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error: degenerate fading geometry: ")

    def test_non_finite_row_names_its_point(self, capsys):
        # no fiber between the stations: its capacity is infinite
        assert main(["compare-fiber", "--d-grid", "0km:100km:2", "--n-rep"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical error: not finite: d_km=0, fiber_bits_day=inf\n"

    def test_non_finite_pass_number_names_the_pass(self, capsys, monkeypatch):
        monkeypatch.setattr(orbit, "orbital_rate", lambda rate_fn, slices: (math.nan, [math.nan] * len(slices)))
        assert main(["pass", "--h", "530km"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical error: R_orb is not finite for the pass at h_km=530\n"

    def test_non_finite_slice_bound_names_the_pass(self, capsys, monkeypatch):
        # a nan that sits only in the nested list of slice bounds
        pass_report = Scenario.pass_report

        def with_nan_slice(self, *args):
            report = pass_report(self, *args)
            report["slices"][-1][1] = math.nan
            return report

        monkeypatch.setattr(Scenario, "pass_report", with_nan_slice)
        assert main(["pass", "--h", "530km"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical error: slices is not finite for the pass at h_km=530\n"

    def test_a_stray_value_error_is_a_bug(self, monkeypatch):
        # a ValueError from inside the pipeline is not a user's mistake: it
        # escapes main, as any other bug does, instead of exiting 2
        def broken(*args, **kwargs):
            raise ValueError("math domain error")

        monkeypatch.setattr(fading, "fading_params", broken)
        with pytest.raises(ValueError, match="math domain error"):
            main(RATE)

    def test_library_callers_meet_the_same_check(self):
        with pytest.raises(ConfigError, match=re.escape("ExtinctionModel.alpha0: expected a non-negative")):
            ExtinctionModel(alpha0=-1.0)
        with pytest.raises(ConfigError, match=re.escape("Scenario.pointing_error: expected a non-negative")):
            Scenario.build(pointing_error=-1.0)
        with pytest.raises(ConfigError, match="ProtocolParams.pilots must be below ProtocolParams.block_size"):
            ProtocolParams(pilots=10, block_size=10)


# a command that fires each validity guard, and the start of the guard's text
GUARD_COMMANDS = [
    (["bounds", "--h-grid", "530km:530km:1", "--theta", "1.5", "--set", "scenario.link=up",
      "--set", "scenario.period=day"], "Rytov variance "),
    (["bounds", "--h-grid", "530km:530km:1", "--set", "scenario.link=up", "--set", "beam.waist=0.01"],
     "Yura parameter "),
    (["pass", "--h", "530km", "--blocks", "100"], "only 10 blocks of "),
]


@pytest.mark.parametrize("argv,text", GUARD_COMMANDS, ids=["rytov", "yura", "blocks"])
def test_same_guards_on_every_run(argv, text, capsys):
    # two identical runs in one process report the same guard, once each, as
    # two fresh processes do
    errs = []
    for _ in range(2):
        assert main(argv) == 0
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith(f"warning: {text}") and errs[0].count("\n") == 1
