"""The golden corpus of CLI and script runs (tests/golden.py): every case
matches tests/golden.json, the README commands are cases, and the comparison
fails on each kind of change."""

import shlex
import sys

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


def test_readme_commands_are_cases():
    # every satlink command of the README's CLI block, its continuation lines
    # joined, without -o FILE
    readme = (golden.ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", "").splitlines():
        if line.startswith("satlink "):
            argv = shlex.split(line)[1:]
            if "-o" in argv:
                at = argv.index("-o")
                del argv[at:at + 2]
            commands.append(argv)
    missing = [argv for argv in commands if argv not in golden.CASES]
    assert commands and not missing, missing


def test_script_case_leaves_sys_argv():
    argv = list(sys.argv)
    case = golden.run(["scripts/orbital_yield.py"])
    assert sys.argv == argv
    assert case["exit"] == 0, case["stderr"]


def test_same_record_passes():
    lines, failed = golden.compare([record()], [record()])
    assert not failed
    assert lines == ["1 cases, 3 numbers: 0 moved, 0 beyond 1e-06"]


@pytest.mark.parametrize(
    "changed",
    [
        record(exit=3),
        record(stdout="eta,B_nbar\n0.25,1.5e-3\n0\n"),
        record(stderr="warning: Rytov variance 1.2 >= 1\n"),
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


# a right-aligned table cell of width 11, as scripts/noise_and_ranges.py prints its ranges
def table(value: str) -> dict:
    return record(stdout=f"range {value:>11s} km\n")


def test_move_that_changes_a_width_is_listed_and_passes():
    lines, failed = golden.compare([table("999999.9")], [table("1000000.3")])
    assert not failed, lines
    assert lines[1] == "  stdout:1  999999.9 -> 1000000.3  rel +4e-07"


def test_move_beyond_tolerance_that_changes_a_width_fails_as_a_move():
    lines, failed = golden.compare([table("10010")], [table("7078")])
    assert failed
    assert lines[1] == "  stdout:1  10010 -> 7078  rel -0.29  beyond 1e-06"


@pytest.mark.parametrize(
    "changed",
    [
        record(stdout="eta,B\n0.25, 1.5e-3\n0\n"),  # padding beside a number that did not move
        record(stdout="eta,B\n0.25 ,1.5000000015e-3\n0\n"),  # a move, and padding beside a number that did not
        record(stdout="eta, B\n0.25,1.5000000015e-3\n0\n"),  # a move, and a space in the text
    ],
    ids=["padding", "padding beside a move", "text beside a move"],
)
def test_padding_of_a_number_that_did_not_move_is_text(changed):
    lines, failed = golden.compare([record()], [changed])
    assert failed and any(line.endswith("text changed") for line in lines), lines
