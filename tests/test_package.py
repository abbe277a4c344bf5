"""The package's public names: threepoint.__all__."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import threepoint


def test_all_is_sorted_and_unique():
    assert threepoint.__all__ == sorted(set(threepoint.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in threepoint.__all__ if not hasattr(threepoint, name)]
    assert missing == []


def test_star_import_in_a_fresh_interpreter():
    # the star import binds every name in __all__, in a process that has
    # imported nothing else
    src = str(Path(threepoint.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = ("from threepoint import *\nimport threepoint\n"
              "print(sum(name in globals() for name in threepoint.__all__))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == len(threepoint.__all__)


def test_every_private_module_name_is_used():
    # a module-level private name (_x, not a dunder) that nothing under src/
    # references is a helper some change left behind
    src = Path(threepoint.__file__).resolve().parent
    defined, used = {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", node)]
            for target in targets:
                name = getattr(target, "name", getattr(target, "id", None))
                if isinstance(name, str) and name.startswith("_") and not name.startswith("__"):
                    defined[name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert len(defined) > 50  # the walk above found the modules' names
    assert {name: where for name, where in defined.items() if name not in used} == {}


def test_only_schedules_names_a_theorem_id():
    # schedules.THEOREMS says what each guarantee restates, bounds and reads;
    # an id spelled out elsewhere is a second copy of part of that table
    src = Path(threepoint.__file__).resolve().parent
    ids = set(threepoint.schedules.THEOREM_IDS)
    named = {}
    for path in sorted(src.glob("*.py")):
        if path.name != "schedules.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found = {node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and node.value in ids}
            if found:
                named[path.name] = sorted(found)
    assert len(ids) == 10
    assert named == {}
