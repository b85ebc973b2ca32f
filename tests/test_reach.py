"""Smoke test of ``tools/reach.py``, run in a fresh interpreter as documented."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NEVER_ENTERED = [
    "autodiff.ADDomainError.__init__",
    "autodiff.Hessian.__init__",
    "autodiff.Hessian.from_dense",
    "autodiff.Hessian.__repr__",
    "autodiff.Hessian.__matmul__",
    "autodiff._split",
    "autodiff.ADScalar.__init__",
    "autodiff.ADScalar.__repr__",
    "autodiff.ADScalar._plus_sym_outer",
    "autodiff.ADScalar.__rtruediv__",
    "autodiff.ADScalar.__pow__",
    "autodiff.ADVector.__getitem__",
    "benchmarks.register_problem",
    "evolution.tournament_select",
    "evolution.LineageRecord.stage_deltas",
    "evolution.LineageRecord.crossover_stage_z",
    "hybrid.acceptance_protocol",
    "local_search.ipm_qp_solve",
    "local_search.ipm_qp_solve.<locals>.fallback",
]


def test_lists_only_functions_the_system_never_enters():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    # the whole list, in source order: a function that only tests reach, or
    # one the system newly enters, shows up as a difference here
    assert done.stdout.splitlines() == NEVER_ENTERED
