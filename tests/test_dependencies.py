"""The package loads nothing beyond the standard library, and the test
extra declares what the suite imports."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import toporna
for info in pkgutil.iter_modules(toporna.__path__):
    importlib.import_module("toporna." + info.name)
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_modules_import_only_the_standard_library():
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    loaded = json.loads(out.stdout)
    assert "toporna" in loaded
    foreign = [name for name in loaded if name not in sys.stdlib_module_names and name != "toporna"]
    assert foreign == []


def test_the_test_extra_declares_every_package_the_suite_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    declared = {
        re.split(r"[<>=!~ ]", spec, maxsplit=1)[0]
        for spec in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    imported = set()
    for path in (SRC.parent / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imported.add(node.module.split(".")[0])
    third_party = {
        name for name in imported if name not in sys.stdlib_module_names and name != "toporna"
    }
    assert third_party and third_party <= declared
