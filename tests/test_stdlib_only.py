"""fpfun's runtime code imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "fpfun").glob("*.py"))


def _imported_top_level(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_sources_found():
    assert any(path.name == "__init__.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_fpfun_or_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [
        (line, name)
        for line, name in _imported_top_level(tree)
        if name != "fpfun" and name not in sys.stdlib_module_names
    ]
    assert outside == [], f"{path.name} imports outside the standard library: {outside}"
