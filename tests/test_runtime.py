"""Cold-process checks: the runtime imports no scipy and the scripts run."""

import os
import pathlib
import subprocess
import sys

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


def test_bounds_sweep_script(tmp_path):
    proc = run_python(str(ROOT / "scripts" / "bounds_sweep.py"), "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("bounds_*.csv"))) == 4


def test_orbital_yield_script():
    proc = run_python(str(ROOT / "scripts" / "orbital_yield.py"))
    assert proc.returncode == 0, proc.stderr
    assert "night-down-530" in proc.stdout



def test_noise_and_ranges_script_tables():
    # --skip-tight: the tight ranges still fail on the night-uplink 0.1 pm
    # far field, where the bracket reaches 1e9 m and 2 eta_st f0 rounds to 1
    proc = run_python(str(ROOT / "scripts" / "noise_and_ranges.py"), "--skip-tight")
    assert proc.returncode == 0, proc.stderr
    assert "day-down-cloudy" in proc.stdout
