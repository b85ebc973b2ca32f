"""Shared oracles for the test suite, and its loader of files by path.

The oracles recompute expected values through routes independent of the
code paths under test: explicit per-parent grouping for the fitness-change
decomposition, plain-float finite differences and gradient descent for the
local solver, and direct enumeration for the selection operators.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from ecsqp.evolution import LineageRecord

ROOT = Path(__file__).resolve().parents[1]


def load_module(name: str, path: Path):
    """A fresh module ``name`` executed from ``path``, as a script or the
    benchmark loads its file.  It is registered in ``sys.modules`` under
    ``name`` (its dataclasses resolve annotations there); a name of its own
    leaves any module pytest imported alone when a test rebinds its globals."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def brute_force_decomposition(lineage: LineageRecord):
    """Recompute the three decomposition terms by explicit per-parent grouping."""
    n = lineage.population_size
    slot_parent = lineage.slot_parent
    z = np.array([(slot_parent == i).sum() for i in range(n)], dtype=float)
    z_bar = z.sum() / n
    q = lineage.parent_fitness
    cov = float(np.mean((z - z.mean()) * (q - q.mean())))
    selection = cov / z_bar

    def stage_term(after, before):
        total = 0.0
        for i in range(n):
            mask = slot_parent == i
            zi = int(mask.sum())
            if zi == 0:
                continue
            total += zi * (after[mask].mean() - before[mask].mean())
        return total / (n * z_bar)

    crossover = stage_term(
        lineage.fitness_after_crossover, lineage.fitness_after_selection
    )
    mutation = stage_term(
        lineage.fitness_after_mutation, lineage.fitness_after_crossover
    )
    return selection, crossover, mutation


def chi_square_statistic(counts, expected):
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float(np.sum((counts - expected) ** 2 / expected))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
