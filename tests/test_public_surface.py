"""The public surface that code outside the package relies on.

Every name that ``perfbench/`` and ``demos/`` import from sigcluster must
resolve, and so must every entry of ``sigcluster.__all__``; the demos
must run to completion.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sigcluster

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def sigcluster_imports():
    """(script, module, name) of every ``from sigcluster... import name``."""
    for path in SCRIPTS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module
                    and node.module.split(".")[0] == "sigcluster"):
                for alias in node.names:
                    yield path.relative_to(ROOT), node.module, alias.name


def test_scripts_import_sigcluster():
    # guards the scan itself: an empty scan would pass the test below
    scripts = {script.parts[0] for script, _, _ in sigcluster_imports()}
    assert scripts == {"perfbench", "demos"}


def test_imported_names_resolve():
    missing = [f"{script}: from {module} import {name}"
               for script, module, name in sigcluster_imports()
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, "names removed from sigcluster:\n" + "\n".join(missing)


def test_all_entries_resolve():
    missing = [name for name in sigcluster.__all__ if not hasattr(sigcluster, name)]
    assert not missing


@pytest.mark.parametrize("demo, args", [
    ("01_signature_test.py", []),
    ("02_test_benchmark.py", ["--fast"]),
    ("03_cluster_estimation.py", []),
])
def test_demo_runs(demo, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
