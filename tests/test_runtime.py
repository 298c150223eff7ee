"""Cold-process checks: the runtime imports no scipy, numpy only where it
integrates or samples, bounds_sweep.py writes its files, and the functions of
the other two scripts hold; tests/golden.json holds the tables they print."""

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
    # the commands of the probe's COMMANDS load numpy and json where its
    # docstring says, and each of its other checks holds
    proc = run_python(str(ROOT / "tests" / "_runtime_probe.py"))
    assert proc.returncode == 0, proc.stderr
    assert str(ROOT / "src") in proc.stdout


@pytest.mark.parametrize("grid", ["100km:500km:130:log", "100km:500km:130"])
def test_sweep_of_several_chunks_warns_once(grid):
    # every point of the sweep fires the same Rytov guard text, which names
    # only the angle; the run prints it once, in whichever chunk it fired
    proc = run_python(
        "-m", "satlink.cli", "bounds", "--h-grid", grid, "--theta", "1.57", "--set", "scenario.link=down"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("Rytov variance") == 1, proc.stderr


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


def test_noise_and_ranges_marks_a_capped_range():
    # the tight search stops at the 1e9 m bracket cap without a root: the
    # table shows a lower limit, not a range
    path = ROOT / "scripts" / "noise_and_ranges.py"
    spec = importlib.util.spec_from_file_location("noise_and_ranges", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.range_cell(MaxRangeResult(Z_HI, capped=True)) == ">1e+06 km (cap)"
    assert script.range_cell(MaxRangeResult(82_560e3)) == "      82560 km"
