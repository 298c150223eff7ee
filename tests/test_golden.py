"""The golden corpus of CLI runs (tests/golden.py): every case matches
tests/golden.json, and the comparison fails on each kind of change."""

import golden
import pytest


def record(exit=0, stdout="eta,B\n0.25,1.5e-3\n0\n", stderr="", argv=("show-config",)):
    return {
        "argv": list(argv),
        "exit": exit,
        "stdout": stdout.splitlines(keepends=True),
        "stderr": stderr.splitlines(keepends=True),
    }


def test_corpus(capsys):
    code = golden.main([])
    report = capsys.readouterr().out
    assert code == 0, report


def test_same_record_passes():
    lines, failed = golden.compare([record()], [record()])
    assert not failed
    assert lines == ["1 cases, 3 numbers: 0 moved, 0 beyond 1e-06"]


@pytest.mark.parametrize(
    "changed",
    [
        record(exit=3),
        record(stdout="eta,B_nbar\n0.25,1.5e-3\n0\n"),
        record(stderr="UserWarning: Rytov variance 1.2 >= 1\n"),
        record(stdout="eta,B\n0.2500005,1.5e-3\n0\n"),  # 2e-6 relative
        record(stdout="eta,B\n0.25,1.5e-3\n1e-300\n"),  # a zero matches only a zero
        record(stdout="eta,B\n0.25,1.5e-3\n"),
        record(argv=("show-config", "--set", "scenario.setup=2")),
    ],
    ids=["exit code", "text", "stderr", "2e-6", "zero", "line", "argv"],
)
def test_change_fails(changed):
    lines, failed = golden.compare([record()], [changed])
    assert failed, lines


def test_move_within_tolerance_is_listed_and_passes():
    lines, failed = golden.compare([record()], [record(stdout="eta,B\n0.25,1.5000000015e-3\n0\n")])
    assert not failed
    assert lines[0] == "satlink show-config"
    assert lines[1] == "  stdout:2  1.5e-3 -> 1.5000000015e-3  rel +1e-09"
    assert lines[-1].endswith(" 1 moved, 0 beyond 1e-06")
