"""The runtime depends on numpy and the standard library only.

Every import statement in every module under src/catlab, at module level
or inside a function, must name a standard-library module, numpy, or
catlab itself (relative imports count as catlab).  scipy and the other
test-only tools stay out of the runtime.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "catlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "catlab"}
MODULES = sorted(SRC.glob("*.py"))


def imported_packages(path):
    """(line, top-level package) for every import in the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.lineno, node.module.split(".")[0]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "quantize.py", "hilbert.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_numpy_and_stdlib_only(path):
    outside = [
        f"{path.name}:{line} imports {package}"
        for line, package in imported_packages(path)
        if package not in ALLOWED
    ]
    assert not outside, outside


def test_the_check_catches_scipy(tmp_path):
    module = tmp_path / "bad.py"
    module.write_text("import numpy\n\ndef f():\n    from scipy.sparse import linalg\n")
    assert [p for _, p in imported_packages(module) if p not in ALLOWED] == ["scipy"]
