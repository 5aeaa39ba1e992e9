"""The package imports nothing at run time beyond the standard library and its declared dependencies."""

import ast
import sys
from pathlib import Path

import hierlog

DECLARED = {"click", "requests"}  # pyproject.toml's dependencies


def test_every_absolute_import_is_the_standard_library_or_declared():
    outside = []
    for path in sorted(Path(hierlog.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top not in DECLARED:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert not outside
