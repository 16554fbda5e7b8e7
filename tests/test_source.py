"""Rules the package source keeps."""

import ast
import re
from collections import Counter
from pathlib import Path

import zngauge

SRC = Path(zngauge.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
WORD = re.compile(r"\w+")


def test_no_assert_guards_a_runtime_invariant():
    """`python -O` strips assert statements, so an invariant must raise instead."""
    found = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if re.match(r"\s*assert ", line)]
    assert not found, found


def test_every_definition_is_used():
    """Each top-level function, class and method of the package is named outside its own def line."""
    uses: Counter = Counter()
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            uses.update(WORD.findall(path.read_text(encoding="utf-8")))
    dead = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        nodes = list(tree.body)
        nodes += [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
        for node in nodes:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = WORD.findall(lines[node.lineno - 1]).count(name)
            if uses[name] <= own:
                dead.append(f"{path.name}:{node.lineno} {name}")
    assert not dead, dead


def test_every_test_import_is_used():
    """Each name a test module imports is read somewhere else in that module."""
    unused = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused
