import json
import math
import operator
import re
from pathlib import Path

import pytest

from satlink.cli import CONFIG_KEYS, _fmt, main, parse_grid, parse_quantity, scenario_from_config
from satlink.errors import ConfigError
from satlink.scenario import SETUPS, Scenario
from satlink.turbulence import TurbulenceProfile


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

    def test_profile_follows_period(self):
        assert Scenario.build("up", "night").resolved_profile.a_ground == 1.7e-14
        assert Scenario.build("up", "day").resolved_profile.a_ground == 2.75e-14

    def test_invalid_scenario(self):
        with pytest.raises(ConfigError):
            Scenario(link="sideways")
        with pytest.raises(ConfigError):
            Scenario(setup=9)
        with pytest.raises(ConfigError, match=re.escape("setup must be one of [1, 2, 3, 4]")):
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
        assert captured.err == "configuration error: setup must be one of [1, 2, 3, 4]\n"

    def test_infinite_count(self, capsys):
        assert run_cli(capsys, "show-config", "--set", "protocol.N=inf")[0] == 2

    def test_bad_grid(self, capsys):
        assert run_cli(capsys, "bounds", "--h-grid", "100km:200km:0")[0] == 2

    def test_bad_unit(self, capsys):
        assert run_cli(capsys, "rate", "--h", "530miles", "--theta-grid", "0:1:3")[0] == 2

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
            assert 0.0 < rate == unclamped <= scn.bounds_at(150e3, theta)["B"]


# a valid non-default value for every configuration key, and the value it
# must give the key's field
KEY_SAMPLES = {
    "scenario.link": ("up", "up"),
    "scenario.period": ("day", "day"),
    "scenario.sky": ("cloudy", "cloudy"),
    "scenario.setup": ("3", 3),
    "scenario.profile": ("hv-worst-day", TurbulenceProfile.from_name("hv-worst-day")),
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

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Configuration keys", 1)[1].split("\n#", 1)[0]
        listed = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
        assert sorted(listed) == sorted(key for key, _, _ in CONFIG_KEYS)

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
