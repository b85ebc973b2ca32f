"""``tools/gate_probe.py`` against criterion 7's full runs on three seeds.

The tool is loaded by path and its ``main`` run in this process; the full
runs are a private copy of ``tests/test_acceptance.py``'s ``run_hybrid_batch``.
"""

import pytest

from conftest import ROOT, load_module

SEEDS = [0, 1, 2]


@pytest.fixture(scope="module")
def gate_probe():
    return load_module("gate_probe", ROOT / "tools" / "gate_probe.py")


def test_capped_fractions_are_the_full_runs(gate_probe, capsys):
    assert gate_probe.main(["--problems", "ackley", "--seeds", *map(str, SEEDS)]) == 0
    header, *rows, mean = capsys.readouterr().out.splitlines()
    assert header.split() == ["problem", "seed", "switch", "switch_gen", "ec_evals",
                              "best_5k", "best_phase", "frac_5k", "sqp_stop"]
    assert [row.split()[:2] for row in rows] == [["ackley", str(s)] for s in SEEDS]
    assert all(len(row.split()) == 9 for row in rows)  # no capped round ended before 5k

    # criterion 7's batch with the full validation round, on the same seeds
    suite = load_module("gate_probe_acceptance", ROOT / "tests" / "test_acceptance.py")
    results = []

    def run_hybrid(*args, **kwargs):
        results.append(gate_probe.run_hybrid(*args, **kwargs))
        return results[-1]

    suite.run_hybrid, suite.BASE_SEED = run_hybrid, SEEDS[0]
    full = suite.run_hybrid_batch("ackley", 10, runs=len(SEEDS))["frac_at_5k"]
    assert [float(row.split()[7]) for row in rows] == list(full)
    assert mean.split()[:3] == ["ackley", "mean_frac_5k", f"{full.mean():.4f}"]

    # the switch generation is the exploration phase's last trace row, the
    # best's phase that of the first row at <= 5,000 evaluations holding it,
    # and the refine's stop reason that of the full run (the capped round
    # follows the refine, so the two runs share it)
    for row, result in zip(rows, results):
        fields = row.split()
        ec_steps = [r.step for r in result.trace if r.phase == "ec"]
        assert ec_steps == list(range(len(ec_steps)))
        assert int(fields[3]) == ec_steps[-1]
        assert fields[2] == result.switch_reason.value
        within = [r for r in result.trace if r.evaluations <= gate_probe.BUDGET]
        best = min(r.best for r in within)
        assert fields[6] == next(r.phase for r in within if r.best == best)
        assert fields[6] in ("ec", "sqp", "validation")
        assert fields[8] == result.sqp_result.stop_reason
