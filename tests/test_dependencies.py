"""The package loads nothing beyond the standard library and mpmath."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import toporna
for info in pkgutil.iter_modules(toporna.__path__):
    importlib.import_module("toporna." + info.name)
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_modules_import_only_the_standard_library_and_mpmath():
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    loaded = json.loads(out.stdout)
    assert "toporna" in loaded and "mpmath" in loaded
    foreign = [
        name
        for name in loaded
        if name not in sys.stdlib_module_names and name not in {"toporna", "mpmath"}
    ]
    assert foreign == []
