"""Which commands start without numpy: run it in a fresh interpreter.

    python tests/_runtime_probe.py

numpy must stay unloaded through `import satlink`, `show-config`, the README
`rate`, a `rate` out to the horizon, a `rate` on a path below 660 m, the
`pass` and `max-range --mode tight` commands and a configuration error; the
README `bounds` command, which integrates the beam wander in a numpy batch,
must load it, which shows that the probe sees numpy load.  json must stay
unloaded until the `pass` command, its only user, and be loaded after it.
Exits 0 if so, and names the first command that does not.  It runs
whichever satlink the interpreter imports: the sources under PYTHONPATH, or
the installed package.
"""

import contextlib
import io
import sys

README_SET = ["--set", "scenario.setup=2", "--set", "protocol.mu=9.28", "--set", "protocol.phi=0.73"]
# (loads numpy, exit code, argv) in the order they run: once loaded, numpy stays
COMMANDS = (
    (False, 0, ["show-config", "--set", "scenario.setup=2"]),
    (False, 0, ["rate", "--h", "530km", "--theta-grid=-1:1:81", *README_SET]),
    (False, 0, ["rate", "--h", "530km", "--theta-grid", "0:0.5:3"]),
    (False, 0, ["rate", "--h", "530km", "--theta-grid=-1.5707963267948966:1.5707963267948966:81"]),
    (False, 0, ["rate", "--h", "500m", "--theta-grid=0:1:11"]),
    (False, 0, ["pass", "--h", "530km", "--blocks", "10", *README_SET]),
    (False, 2, ["rate", "--h", "530km", "--theta-grid", "0:0.5:3", "--set", "atmosphere.alpha0=-1"]),
    (False, 0, ["max-range", "--mode", "tight", "--set", "scenario.link=up", "--set", "scenario.period=day"]),
    (True, 0, ["bounds", "--h-grid", "100km:36000km:40:log", "--theta", "0", "--theta", "1",
               "--set", "scenario.link=up", "--set", "scenario.period=day"]),
)


def check(loaded: bool, what: str, module: str = "numpy") -> None:
    if (module in sys.modules) != loaded:
        sys.exit(f"{what} {'does not load' if loaded else 'loads'} {module}")


def main() -> None:
    import satlink

    check(False, "import satlink")
    import satlink.cli

    check(False, "import satlink.cli")
    check(False, "import satlink.cli", "json")
    passed = False  # whether a pass command has run
    for loaded, code, argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            got = satlink.cli.main(argv)
        if got != code:
            sys.exit(f"satlink {' '.join(argv)}: exit {got}, not {code}")
        check(loaded, f"satlink {' '.join(argv)}")
        passed = passed or argv[0] == "pass"
        check(passed, f"satlink {' '.join(argv)}", "json")
    print(f"{satlink.__file__}: numpy and json loaded only where expected, over {len(COMMANDS)} commands")


if __name__ == "__main__":
    main()
