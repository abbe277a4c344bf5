"""The package's public names: threepoint.__all__."""

from __future__ import annotations

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
