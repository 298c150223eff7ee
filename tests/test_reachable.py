"""Every top-level definition of the package is reached by the program.

The program is src/satlink without its re-exporting __init__, plus scripts/
and perfbench/.  Code that only tests reach belongs in tests/_reference.py.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unreached(package: list[pathlib.Path], others: list[pathlib.Path]) -> list[str]:
    """The top-level defs and classes of the package files that no other line names.

    A line inside an unreached definition names nothing, so a definition
    that only unreached ones use is unreached too.
    """
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in package + others}
    spans = {
        (path, node.name): range(node.lineno - 1, node.end_lineno)
        for path in package
        for node in ast.parse("\n".join(lines[path])).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    dead: set = set()
    while True:
        skip = {(path, i) for path, name in dead for i in spans[path, name]}
        found = {
            (path, name)
            for (path, name), span in spans.items()
            if (path, name) not in dead
            and not any(
                re.search(rf"\b{name}\b", text) and (other, i) not in skip
                and not (other == path and i in span)
                for other, text_lines in lines.items()
                for i, text in enumerate(text_lines)
            )
        }
        if not found:
            return sorted(f"{path.stem}.{name}" for path, name in dead)
        dead |= found


def test_every_top_level_definition_is_reached():
    package = [p for p in sorted((ROOT / "src" / "satlink").glob("*.py")) if p.name != "__init__.py"]
    others = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    assert unreached(package, others) == []


def test_a_definition_only_an_unreached_one_uses_is_unreached(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def orphan():\n    return inner()\n\n\n"
        "def inner():\n    return inner()\n",
        encoding="utf-8",
    )
    script = tmp_path / "run.py"
    script.write_text("from mod import used\n", encoding="utf-8")
    assert unreached([module], [script]) == ["mod.inner", "mod.orphan"]
