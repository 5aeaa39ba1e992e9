"""The package imports nothing at run time beyond the standard library and its declared dependencies."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hierlog

DECLARED = {"click"}  # pyproject.toml's dependencies, as import names
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def test_declared_matches_the_pyproject_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    names = {re.match(r"[A-Za-z0-9._-]+", spec).group().lower() for spec in project["dependencies"]}
    assert names == DECLARED


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


def test_seq_and_run_seq_are_named_only_in_decompose():
    """The product works on (level, pattern) and builds no `Seq`: only decompose.py, which keeps `Seq`,
    `run_seq` and `top_down_decompose` for the decomposition criteria and the reference tests, names them."""
    named = []
    for path in sorted(Path(hierlog.__file__).parent.glob("*.py")):
        if path.name == "decompose.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
            else:
                continue
            if name in ("Seq", "run_seq"):
                named.append(f"{path.name}:{node.lineno}: {name}")
    assert not named


def test_only_knowledge_sets_an_entrys_llm_fields():
    """A train entry is whole when `insert_train` or a load makes it, so no other module assigns its summary,
    embedding or example chunk: an insert is then the only change that can leave the retrieval lists stale."""
    assigned = []
    for path in sorted(Path(hierlog.__file__).parent.glob("*.py")):
        if path.name == "knowledge.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Attribute) and name.attr in ("summary", "embedding", "example_chunk"):
                        assigned.append(f"{path.name}:{name.lineno}: {name.attr}")
    assert not assigned


def test_one_function_asks_for_summaries():
    """Training and detection summarize a run by one rule, so exactly one function calls the summary prompts."""
    callers = set()
    for path in sorted(Path(hierlog.__file__).parent.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                callee = getattr(node, "func", None)
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name in ("summarize_status_seq", "summarize_parent_seq"):
                    callers.add(f"{path.name}: {function.name}")
    assert len(callers) == 1, sorted(callers)


def test_importing_the_package_loads_no_http_client():
    """The chat provider imports `urllib.request` when it first sends, so a run without it never pays for it."""
    code = "import sys, hierlog.cli, hierlog.pipeline; print(sorted({'http.client', 'urllib.request'} & sys.modules.keys()))"
    env = dict(os.environ, PYTHONPATH=str(Path(hierlog.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
