"""Cold-process checks: the runtime imports no scipy, numpy only where it
integrates or samples, and the scripts run."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest
from satlink.bounds import Z_HI, MaxRangeResult
from satlink.orbit import bits_per_day, repeater_rate

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_python(*args: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_runtime_does_not_import_scipy():
    # scipy is a test-only oracle; the CLI must start without it
    probe = (
        "import sys, contextlib, io\n"
        "import satlink.cli\n"
        "assert 'scipy' not in sys.modules, 'imported by satlink.cli'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert satlink.cli.main(['pass', '--h', '530km']) == 0\n"
        "assert 'scipy' not in sys.modules, 'imported by satlink pass'\n"
    )
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr


def test_commands_without_arrays_do_not_import_numpy():
    # show-config, the README rate, a rate out to the horizon and one below
    # 660 m, pass and max-range commands and a configuration error start
    # without numpy; the README bounds command loads it.  json loads with pass
    proc = run_python(str(ROOT / "tests" / "_runtime_probe.py"))
    assert proc.returncode == 0, proc.stderr
    assert str(ROOT / "src") in proc.stdout


def test_readme_library_sketch():
    # the README's library example runs as written, and every exported name resolves
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    sketch = section.split("```python\n", 1)[1].split("```", 1)[0]
    exports = (
        "import satlink\n"
        "missing = [name for name in satlink.__all__ if not hasattr(satlink, name)]\n"
        "assert not missing, missing\n"
    )
    proc = run_python("-c", sketch + exports)
    assert proc.returncode == 0, proc.stderr
    r_orb, bits_per_pass = map(float, proc.stdout.split())
    assert r_orb > 0.0 and bits_per_pass > 0.0


def test_bounds_sweep_script(tmp_path):
    proc = run_python(str(ROOT / "scripts" / "bounds_sweep.py"), "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("bounds_*.csv"))) == 4


def test_orbital_yield_script():
    proc = run_python(str(ROOT / "scripts" / "orbital_yield.py"))
    assert proc.returncode == 0, proc.stderr
    assert "night-down-530" in proc.stdout


def test_orbital_yield_crossover_inverts_the_fiber_rate():
    # the closed-form break-even is where the fiber's bits per day equal the pass's
    path = ROOT / "scripts" / "orbital_yield.py"
    spec = importlib.util.spec_from_file_location("orbital_yield", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for sat_bits in (1e3, 4.1e7, 1e10):
        for n_rep in (0, 1, 30):
            d = script.crossover(sat_bits, 5e6, n_rep)
            assert bits_per_day(repeater_rate(d, n_rep), 5e6) == pytest.approx(sat_bits, rel=1e-9)


def test_noise_and_ranges_script_tables():
    # --skip-tight: the tight ranges still fail on the night-uplink 0.1 pm
    # far field, where the bracket reaches 1e9 m and 2 eta_st f0 rounds to 1
    proc = run_python(str(ROOT / "scripts" / "noise_and_ranges.py"), "--skip-tight")
    assert proc.returncode == 0, proc.stderr
    assert "day-down-cloudy" in proc.stdout


def test_noise_and_ranges_script_finishes_the_tight_table():
    # the night-uplink 0.1 pm cell fails numerically; the other nine print,
    # the failure is named on stderr and the script exits 3 like the CLI
    proc = run_python(str(ROOT / "scripts" / "noise_and_ranges.py"))
    assert proc.returncode == 3, proc.stderr
    tight = proc.stdout.split("maximum secure slant range", 1)[1].splitlines()[2:]
    assert [line.split()[0] for line in tight] == [
        "night-up", "night-down", "day-up", "day-down-clear", "day-down-cloudy"
    ]
    assert sum(line.split().count("failed") for line in tight) == 1
    assert tight[0].split()[-1] == "failed"
    assert "night-up, 0.1 pm filter" in proc.stderr
    assert "degenerate fading geometry" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_noise_and_ranges_marks_a_capped_range():
    # the tight search stops at the 1e9 m bracket cap without a root: the
    # table shows a lower limit, not a range
    path = ROOT / "scripts" / "noise_and_ranges.py"
    spec = importlib.util.spec_from_file_location("noise_and_ranges", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.range_cell(MaxRangeResult(Z_HI, capped=True)) == ">1e+06 km (cap)"
    assert script.range_cell(MaxRangeResult(82_560e3)) == "      82560 km"
