"""Rules the package source keeps."""

import re
from pathlib import Path

import zngauge

SRC = Path(zngauge.__file__).resolve().parent


def test_no_assert_guards_a_runtime_invariant():
    """`python -O` strips assert statements, so an invariant must raise instead."""
    found = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if re.match(r"\s*assert ", line)]
    assert not found, found
