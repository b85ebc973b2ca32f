#!/usr/bin/env python3
"""Criterion 7's gap fractions at 5,000 evaluations, from short hybrid runs.

    PYTHONPATH=src python3 tools/gate_probe.py --problems ackley --seeds 0 1 2

Each run is criterion 7's own: ``run_hybrid_batch`` of
``tests/test_acceptance.py`` (loaded by path, with its protocol constants
``EXPLORE_GA``, ``EXPLORE_SWITCH``, ``VALIDATE_GA`` and ``VALIDATE_SWITCH``)
for one seed at n=10, except that the validation round stops after
``VALIDATION_CAP`` generations.  A criterion 7 fraction reads only trace rows
at <= 5,000 evaluations.  When the capped round ends past 5,000 (each
validation generation adds about 300) those rows are the full run's, and so
is the fraction; a seed whose capped round ends at or below 5,000 is flagged.
It takes seconds where the full batches take minutes.

One line per seed gives the exploration switch reason and the generation it
fired at, the exploration evaluations, the best value at 5,000 evaluations,
the phase (``ec``, ``sqp`` or ``validation``) whose trace row first reached
that best, and the fraction of the gap closed there (all digits, to compare
checkouts); one line per problem gives the mean fraction, the number the
criterion 7 gate compares with 0.90 over seeds 0-99.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import ecsqp.hybrid

TESTS = Path(__file__).resolve().parents[1] / "tests"
PROBLEMS = ("ackley", "rastrigin", "schwefel")  # criterion 7's, all minimized
DIMENSION = 10
VALIDATION_CAP = 12
BUDGET = 5000


def acceptance_suite():
    """A private copy of ``tests/test_acceptance.py``: rebinding its globals
    leaves the module pytest imports alone."""
    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))  # it imports the suite's conftest
    spec = importlib.util.spec_from_file_location("gate_probe_acceptance",
                                                  TESTS / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def probe(suite, name: str, seed: int):
    """Criterion 7's run of ``name`` at ``seed`` with the validation round
    capped: returns its :class:`~ecsqp.hybrid.HybridResult` and gap fraction."""
    results = []

    def run_hybrid(*args, **kwargs):
        results.append(ecsqp.hybrid.run_hybrid(*args, **kwargs))
        return results[-1]

    suite.run_hybrid, suite.BASE_SEED = run_hybrid, seed
    frac = float(suite.run_hybrid_batch(name, DIMENSION, runs=1)["frac_at_5k"][0])
    return results[0], frac


def best_within_budget(trace) -> tuple[float, str]:
    """The least best value among the trace rows at <= BUDGET evaluations, and
    the phase of the first row that reached it."""
    row = min((row for row in trace if row.evaluations <= BUDGET), key=lambda row: row.best)
    return row.best, row.phase


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--problems", nargs="+", choices=PROBLEMS, default=list(PROBLEMS))
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(100)))
    args = parser.parse_args(argv)

    suite = acceptance_suite()
    suite.VALIDATE_SWITCH = replace(suite.VALIDATE_SWITCH, max_generations=VALIDATION_CAP)
    print("problem seed switch switch_gen ec_evals best_5k best_phase frac_5k")
    for name in args.problems:
        fracs = []
        for seed in args.seeds:
            result, frac = probe(suite, name, seed)
            switch_gen = max(row.step for row in result.trace if row.phase == "ec")
            best, phase = best_within_budget(result.trace)
            end = max(row.evaluations for row in result.trace if row.phase == "validation")
            flag = "" if end > BUDGET else f" capped-round-ends-at-{end}"
            print(f"{name} {seed} {result.switch_reason.value} {switch_gen} "
                  f"{result.evaluations['ec']} {best:.6g} {phase} {frac!r}{flag}")
            fracs.append(frac)
        print(f"{name} mean_frac_5k {sum(fracs) / len(fracs):.4f} over {len(fracs)} seeds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
