"""``tools/gate_probe.py`` against criterion 7's full runs on three seeds.

The tool is loaded by path and its ``main`` run in this process.
"""

import importlib.util
from pathlib import Path

import pytest

GATE_PROBE = Path(__file__).resolve().parents[1] / "tools" / "gate_probe.py"
SEEDS = [0, 1, 2]


@pytest.fixture(scope="module")
def gate_probe():
    spec = importlib.util.spec_from_file_location("gate_probe", GATE_PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_capped_fractions_are_the_full_runs(gate_probe, capsys):
    assert gate_probe.main(["--problems", "ackley", "--seeds", *map(str, SEEDS)]) == 0
    header, *rows, mean = capsys.readouterr().out.splitlines()
    assert header.split() == ["problem", "seed", "switch", "ec_evals", "best_5k", "frac_5k"]
    assert [row.split()[:2] for row in rows] == [["ackley", str(s)] for s in SEEDS]
    assert all(len(row.split()) == 6 for row in rows)  # no capped round ended before 5k

    # criterion 7's batch with the full validation round, on the same seeds
    suite = gate_probe.acceptance_suite()
    suite.BASE_SEED = SEEDS[0]
    full = suite.run_hybrid_batch("ackley", 10, runs=len(SEEDS))["frac_at_5k"]
    assert [float(row.split()[-1]) for row in rows] == list(full)
    assert mean.split()[:3] == ["ackley", "mean_frac_5k", f"{full.mean():.4f}"]
