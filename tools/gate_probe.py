#!/usr/bin/env python3
"""Criterion 7's gap fractions at 5,000 evaluations, from short hybrid runs.

    PYTHONPATH=src python3 tools/gate_probe.py --problems ackley --seeds 0 1 2

Each run is criterion 7's: ``run_hybrid`` under the acceptance protocol
(``ecsqp.hybrid.acceptance_protocol``) for one seed at n=10, except that the
validation round stops after ``VALIDATION_CAP`` generations.  A criterion 7
fraction reads only trace rows at <= 5,000 evaluations.  When the capped
round ends past 5,000 (each validation generation adds about 300) those rows
are the full run's, and so is the fraction; a seed whose capped round ends
at or below 5,000 is flagged.  It takes seconds where the full batches take
minutes.

One line per seed gives the exploration switch reason and the generation it
fired at, the exploration evaluations, the best value at 5,000 evaluations,
the phase (``ec``, ``sqp`` or ``validation``) whose trace row first reached
that best, the fraction of the gap closed there (all digits, to compare
checkouts) and why the refine stopped (``sqp_run``'s stop reason, or
``failed`` when it raised); one line per problem gives the mean fraction,
the number the criterion 7 gate compares with 0.90 over seeds 0-99.
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from ecsqp.benchmarks import get_problem
from ecsqp.encoding import EncodingSpec
from ecsqp.hybrid import acceptance_protocol, run_hybrid
from ecsqp.local_search import SQPConfig

PROBLEMS = ("ackley", "rastrigin", "schwefel")  # criterion 7's, all minimized
DIMENSION = 10
VALIDATION_CAP = 12
BUDGET = 5000


def probe(name: str, seed: int):
    """Criterion 7's run of ``name`` at ``seed`` with the validation round
    capped: its :class:`~ecsqp.hybrid.HybridResult`, the least best value
    among the trace rows at <= BUDGET evaluations, the phase of the first row
    that reached it, and the fraction of the gap that value closes."""
    problem = get_problem(name, DIMENSION)
    length = EncodingSpec.for_bounds(problem.bounds.lower, problem.bounds.upper, 0.01).total_length
    ga, switch, validation_ga, validation_switch = acceptance_protocol(length)
    capped = replace(validation_switch, max_generations=VALIDATION_CAP)
    result = run_hybrid(problem, ga, SQPConfig(), switch, seed,
                        validation_criteria=capped, validation_ga=validation_ga)
    row = min((row for row in result.trace if row.evaluations <= BUDGET), key=lambda row: row.best)
    init = result.trace[0].best
    gap = abs(init - problem.known_optimum_value)
    return result, row.best, row.phase, abs(init - row.best) / gap if gap > 0 else 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--problems", nargs="+", choices=PROBLEMS, default=list(PROBLEMS))
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(100)))
    args = parser.parse_args(argv)

    print("problem seed switch switch_gen ec_evals best_5k best_phase frac_5k sqp_stop")
    for name in args.problems:
        fracs = []
        for seed in args.seeds:
            result, best, phase, frac = probe(name, seed)
            switch_gen = max(row.step for row in result.trace if row.phase == "ec")
            end = max(row.evaluations for row in result.trace if row.phase == "validation")
            flag = "" if end > BUDGET else f" capped-round-ends-at-{end}"
            stop = "failed" if result.sqp_result is None else result.sqp_result.stop_reason
            print(f"{name} {seed} {result.switch_reason.value} {switch_gen} "
                  f"{result.evaluations['ec']} {best:.6g} {phase} {frac!r} {stop}{flag}")
            fracs.append(frac)
        print(f"{name} mean_frac_5k {sum(fracs) / len(fracs):.4f} over {len(fracs)} seeds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
