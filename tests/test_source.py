"""Rules the package source keeps."""

import ast
import re
from pathlib import Path

import numpy as np

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


# Read by tests only, but each puts a formula of the paper under test: the formula it
# states, and why no code in src/ reads it.
PAPER_FORMULAS = {
    "steps_required": "the Trotter bound solved for the step count; every driver takes "
                      "n_steps from its config and reports the bound's forward form",
    "plaquette_curl": "the zero curl that makes the spurious phases a pure gauge; "
                      "solve_vertex_potential checks every link, which implies it",
    "collision_unitary": "the full spin-1 collision exp(-i alpha (g0 + g1 F.F~ + g2 (F.F~)^2)); "
                         "the compiler applies only its rotating-wave form",
    "rwa_project": "the rotating-wave projection of that collision; collision_calibration "
                   "takes the projected couplings from eta_couplings in closed form",
    "lattice_spacing_valid": "the shared-wavelength spacing s > lambda / (2 sqrt 2); the "
                             "optical driver scans the polarization parameter, not spacings",
}


def names_read(path):
    """Every name and attribute that the code of one module reads; imports are not reads."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_is_used():
    """Each top-level function, class and method of the package is read by code in
    src/ or demos/, or named in perfbench/.  Tests and re-exports are no callers."""
    used = set(PAPER_FORMULAS)
    for folder in ("src", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            used.update(names_read(path))
    for path in (ROOT / "perfbench").rglob("*.py"):
        used.update(WORD.findall(path.read_text(encoding="utf-8")))
    dead = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = list(tree.body)
        nodes += [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
        for node in nodes:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in used:
                dead.append(f"{path.name}:{node.lineno} {name}")
    assert not dead, dead


def test_no_method_shares_a_name_with_numpy():
    """The used-definition check reads attributes by name alone, so a method named like an
    attribute of np.ndarray, numpy or numpy.linalg (`copy`, `norm`) would count as used
    through every numpy read of that name; no method or property may carry such a name."""
    numpy_names = set(dir(np.ndarray)) | set(dir(np)) | set(dir(np.linalg))
    shared = [f"{path.name}:{node.lineno} {cls.name}.{node.name}"
              for path in sorted(SRC.glob("*.py"))
              for cls in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, ast.FunctionDef) and node.name in numpy_names
              and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert not shared, shared


def test_every_test_import_is_used():
    """Each name a test, demo or package module imports is read somewhere else in
    that module; the package's __init__.py re-exports, and `annotations` is a
    future flag."""
    unused = []
    modules = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    modules += [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and name != "annotations":
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused
