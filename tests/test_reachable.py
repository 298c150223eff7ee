"""Every top-level definition of the package is reached by the program.

The program is src/satlink without its re-exporting __init__, plus scripts/
and perfbench/.  A definition is reached where code names it: as a name, an
attribute, an import, or a string that spells a dotted name (the spans of
perfbench's tracer), but not in a docstring or a comment.  An attribute
whose name is a method of a builtin type (text.replace(...)) reaches nothing:
it calls that method far more often than a definition of the package.  Code
that only tests reach belongs in tests/_reference.py.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
BUILTIN_METHODS = frozenset(name for cls in (str, bytes, list, dict, tuple, set, int, float) for name in dir(cls))


def named(tree: ast.AST) -> list[tuple[str, int]]:
    """(identifier, 0-based line) of each name that the code of tree uses."""
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words = [node.id]
        elif isinstance(node, ast.Attribute):
            words = [] if node.attr in BUILTIN_METHODS else [node.attr]
        elif isinstance(node, ast.alias):
            words = node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            words = node.value.split(".") if DOTTED.fullmatch(node.value) else []
        else:
            continue
        found += [(word, node.lineno - 1) for word in words]
    return found


def unreached(package: list[pathlib.Path], others: list[pathlib.Path]) -> list[str]:
    """The top-level defs and classes of the package files that no other code names.

    A name inside an unreached definition reaches nothing, so a definition
    that only unreached ones use is unreached too.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in package + others}
    uses = {path: named(tree) for path, tree in trees.items()}
    spans = {
        (path, node.name): range(node.lineno - 1, node.end_lineno)
        for path in package
        for node in trees[path].body
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
                word == name and (other, i) not in skip and not (other == path and i in span)
                for other, words in uses.items()
                for word, i in words
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


def test_only_code_reaches_a_definition(tmp_path):
    # a docstring, a comment or the method of a builtin type does not reach a
    # definition; an attribute, an import, and a string that spells a dotted name do
    module = tmp_path / "mod.py"
    module.write_text("".join(f"def {name}():\n    return 1\n\n\n" for name in (
        "documented", "commented", "attribute", "imported", "traced", "quoted", "replace")), encoding="utf-8")
    script = tmp_path / "run.py"
    script.write_text(
        '"""Calls documented(h)."""\n'
        "import mod  # and commented()\n"
        "from mod import imported\n"
        "mod.attribute()\n"
        'SPANS = (("span", "mod", "traced"), ("other", "mod.quoted"))\n'
        'TEXT = "not documented() either"\n'
        'KEY = TEXT.replace("-", "_")\n',
        encoding="utf-8",
    )
    assert unreached([module], [script]) == ["mod.commented", "mod.documented", "mod.replace"]
