"""Smoke test of ``tools/reach.py``, run in a fresh interpreter as documented."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_lists_only_functions_the_system_never_enters():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    never = done.stdout.splitlines()
    assert "evolution.tournament_select" in never  # only tests call it
    assert "hybrid.ga_phase" not in never
    assert "hybrid.run_hybrid.<locals>.phase" not in never
