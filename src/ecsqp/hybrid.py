"""Task-switching pipeline: global evolutionary search, Newton local refine,
a seeded evolutionary validation round, then a Newton polish of its best.

Every evolutionary run in the package is one :func:`ga_phase`: it steps an
engine (one run, or a stack of runs stepped together), decomposes each
generation per operator, tracks each run's crossover-envelope convergence,
and stops when its stop rule names a :class:`SwitchReason`.  In
:func:`run_hybrid` both evolutionary phases run it on one run under
:func:`should_switch` (the envelope collapsed, progress stalled, or the cap
was hit) and decode the best member: the exploration phase from a random
population, handing its best point to the SQP local solver, and the
validation phase from one seeded with the refined chromosome and its bitwise
complement.  ``ec`` batch mode (:mod:`ecsqp.cli_io`) runs it on a stack under
a cap-only rule.  All reporting is in the problem's native orientation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, NamedTuple

import numpy as np

from .autodiff import ADDomainError
from .benchmarks import BenchmarkProblem
from .encoding import EncodingSpec, decode, decode_batch, encode
from .evolution import Engine, GAConfig, Population
from .local_search import LineSearchError, SQPConfig, SQPResult, sqp_run
from .price_monitor import ConvergenceState, decompose_generation, sigma_width, update_convergence

__all__ = [
    "HybridResult",
    "PhaseReport",
    "PhaseTraceRow",
    "SwitchCriteria",
    "SwitchReason",
    "VALIDATION_GA",
    "VALIDATION_SWITCH",
    "acceptance_protocol",
    "fitness_function",
    "ga_phase",
    "run_hybrid",
    "should_switch",
]

#: failures a local phase degrades on: the incumbent is kept, a warning recorded
_LOCAL_FAILURES = (ADDomainError, np.linalg.LinAlgError, LineSearchError)


class SwitchReason(enum.Enum):
    SIGMA_CONVERGED = "sigma-converged"
    STALLED = "stalled"
    MAX_GEN = "max-generations"


@dataclass(frozen=True)
class SwitchCriteria:
    """Global-phase termination rules; the first satisfied criterion fires."""

    sigma_threshold: float = 0.01
    stall_window: int = 20
    stall_epsilon: float = 0.001
    max_generations: int = 100

    def __post_init__(self) -> None:
        if self.sigma_threshold <= 0 or self.stall_epsilon < 0:
            raise ValueError("thresholds must be positive")
        for name in ("stall_window", "max_generations"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # a float or a bool is no count
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


#: the validation round's ``GAConfig`` and ``SwitchCriteria`` fields over their defaults
VALIDATION_GA = dict(population_size=200, mutation_scheme="per-bit")
VALIDATION_SWITCH = dict(max_generations=800, stall_window=150, stall_epsilon=1e-9)


def acceptance_protocol(length: int) -> tuple[GAConfig, SwitchCriteria, GAConfig, SwitchCriteria]:
    """The hybrid's GA and switch settings for chromosomes of ``length`` bits,
    each phase mutating at one over ``length``: exploration's, the defaults,
    which switch fast; then the validation round's, a larger per-bit
    population whose long stall window digs the refined incumbent's basin out
    to grid precision."""
    rate = 1.0 / length
    return (GAConfig(mutation_rate=rate), SwitchCriteria(),
            GAConfig(mutation_rate=rate, **VALIDATION_GA), SwitchCriteria(**VALIDATION_SWITCH))


def should_switch(
    price_state: ConvergenceState,
    best_history: list[float],
    generation: int,
    crit: SwitchCriteria,
) -> SwitchReason | None:
    """First satisfied switching criterion, in fixed priority order."""
    if price_state.converged_at is not None:
        return SwitchReason.SIGMA_CONVERGED
    if generation >= crit.stall_window:
        if abs(best_history[generation] - best_history[generation - crit.stall_window]) <= crit.stall_epsilon:
            return SwitchReason.STALLED
    if generation >= crit.max_generations:
        return SwitchReason.MAX_GEN
    return None


class PhaseTraceRow(NamedTuple):
    phase: str
    step: int
    best: float
    mean: float
    evaluations: int


@dataclass
class HybridResult:
    """Outcome of one global->local->validation run (native orientation)."""

    x_ec: np.ndarray
    f_ec: float
    x_sqp: np.ndarray
    f_sqp: float
    x_star: np.ndarray
    f_star: float
    evaluations: dict[str, int]
    switch_reason: SwitchReason
    validation_switch_reason: SwitchReason
    trace: list[PhaseTraceRow]
    sqp_result: SQPResult | None
    polish_result: SQPResult | None
    warnings: list[str] = field(default_factory=list)


def fitness_function(
    problem: BenchmarkProblem, spec: EncodingSpec
) -> Callable[[np.ndarray], np.ndarray]:
    """Engine fitness of an ``(m, L)`` bit matrix: ``problem.sign`` times the
    objective of the decoded rows, so that the engine always maximizes."""
    sign = problem.sign

    def fitness(bits: np.ndarray) -> np.ndarray:
        return sign * problem.batch(decode_batch(bits, spec))

    return fitness


class PhaseReport(NamedTuple):
    """A GA phase: per generation g = 0, 1, ... a ``(contribution, stats,
    evaluations)`` tuple (no contribution at g = 0; evaluations per run so
    far), the last population, the stop reason and each run's ``converged_at``."""

    generations: list[tuple]
    population: Population
    reason: SwitchReason
    converged_at: list[int | None]


def ga_phase(engine: Engine, pop: Population, crit: SwitchCriteria, stop: Callable) -> PhaseReport:
    """Step ``engine`` (one run or a stack) from ``pop`` until, after some
    generation g, ``stop(states, best_history, g)`` names a reason.

    ``states`` holds one crossover-envelope convergence state per run, built
    from ``crit.sigma_threshold``; ``best_history`` the best fitness of
    generations 0..g.  For a stack every summary carries a run axis.
    """
    states = [ConvergenceState(threshold=crit.sigma_threshold) for _ in range(engine.runs)]
    generations = [(None, pop.stats, engine.run_evaluations.copy())]
    best_history = [pop.stats.best]
    for generation in count(1):
        pop, lineage, stats = engine.step(pop)
        contribution = decompose_generation(lineage, generation)
        for state, width in zip(states, np.ravel(sigma_width(contribution.crossover_sigma))):
            update_convergence(state, width, generation)
        generations.append((contribution, stats, engine.run_evaluations.copy()))
        best_history.append(stats.best)
        reason = stop(states, best_history, generation)
        if reason is not None:
            return PhaseReport(generations, pop, reason, [s.converged_at for s in states])


def run_hybrid(
    problem: BenchmarkProblem,
    ga_cfg: GAConfig,
    sqp_cfg: SQPConfig,
    crit: SwitchCriteria,
    rng_seed: int,
    precision: float = 0.01,
    *,
    validation_criteria: SwitchCriteria,
    validation_ga: GAConfig,
) -> HybridResult:
    """Run the full exploration -> refinement -> validation pipeline.

    The encoding grid is derived from the problem bounds and ``precision``.
    A local phase that fails with an AD domain error, a singular system or a
    failed line search degrades gracefully: the incumbent is kept and a
    warning recorded.  Any other exception raises.

    The validation round runs ``validation_ga`` under ``validation_criteria``
    (:func:`acceptance_protocol` gives the protocol's).  When it improves on
    the refined solution, its best point receives a final local polish under
    the same ``sqp_cfg`` as the refine: the validation population only
    carries grid projections, and the polish restores sub-grid precision.

    The trace has a row per generation of a GA phase (``ec``, ``validation``)
    and per iterate of an SQP phase (``sqp``, ``polish``), plus a closing row at
    an SQP phase's total when sweeps follow its last iterate.
    """
    spec = EncodingSpec.for_bounds(
        problem.bounds.lower, problem.bounds.upper, precision
    )
    sign = problem.sign
    rng = np.random.default_rng(rng_seed)
    fitness = fitness_function(problem, spec)
    warnings: list[str] = []
    trace: list[PhaseTraceRow] = []

    def phase(name: str, cfg: GAConfig, phase_crit: SwitchCriteria,
              seeds: list[np.ndarray], eval_base: int
              ) -> tuple[np.ndarray, float, int, SwitchReason]:
        """:func:`ga_phase` on one run topped up with ``seeds``, under :func:`should_switch`.
        Returns the best member decoded (elitism keeps the best seen), its value,
        the phase's evaluations and the reason; the trace gains one row per generation."""
        engine = Engine(cfg, spec.total_length, fitness, rng=rng)
        report = ga_phase(engine, engine.seeded_population(seeds), phase_crit,
                          lambda states, hist, g: should_switch(states[0], hist, g, phase_crit))
        trace.extend(
            PhaseTraceRow(name, g, sign * stats.best, sign * stats.mean, eval_base + int(evals))
            for g, (_, stats, evals) in enumerate(report.generations)
        )
        pop = report.population
        best = np.argmax(pop.fitness)
        return (decode(pop.bits[best], spec), sign * float(pop.fitness[best]),
                engine.evaluations, report.reason)

    def local(name: str, x0: np.ndarray, eval_base: int, failed: str) -> SQPResult | None:
        """:func:`sqp_run` from ``x0`` under ``sqp_cfg``, adding its trace rows
        (see above); a local failure returns None with the warning ``failed``."""
        try:
            result = sqp_run(problem.minimand, x0, problem.bounds, sqp_cfg)
        except _LOCAL_FAILURES as exc:
            warnings.append(failed.format(exc))
            return None
        rows = [(it.iteration, it.f, it.evaluations) for it in result.trace]
        if not rows or rows[-1][2] < result.evaluations:
            rows.append((len(rows), result.f, result.evaluations))
        trace.extend(PhaseTraceRow(name, step, -sign * f, math.nan, eval_base + evals)
                     for step, f, evals in rows)
        return result

    # phase 1: global exploration
    x_ec, f_ec, ec_evals, reason = phase("ec", ga_cfg, crit, [], 0)

    # phase 2: local refinement from the decoded incumbent
    x_sqp, f_sqp = x_ec, f_ec
    sqp_result = local("sqp", x_ec, ec_evals, "local phase failed ({}); kept x_ec")
    if sqp_result is not None:
        f_candidate = -sign * sqp_result.f
        if sign * f_candidate >= sign * f_ec:
            x_sqp, f_sqp = sqp_result.x, f_candidate
        else:
            warnings.append("local phase lost ground (boundary projection); kept x_ec")
    sqp_evals = sqp_result.evaluations if sqp_result else 0

    # phase 3: seeded validation round
    seed = encode(x_sqp, spec)
    x_val, f_val, val_evals, val_reason = phase(
        "validation", validation_ga, validation_criteria, [seed, 1 - seed], ec_evals + sqp_evals)

    # phase 4: a validation best that beat the refined point is polished
    x_star, f_star, polish_result = x_sqp, f_sqp, None
    if sign * f_val > sign * f_sqp:
        x_star, f_star = x_val, f_val
        polish_result = local("polish", x_val, ec_evals + sqp_evals + val_evals,
                              "final polish failed ({}); kept validation best")
        if polish_result is not None:
            sqp_evals += polish_result.evaluations
            f_polish = -sign * polish_result.f
            if sign * f_polish > sign * f_star:
                x_star, f_star = polish_result.x, f_polish

    evaluations = {
        "ec": ec_evals,
        "sqp": sqp_evals,
        "validation": val_evals,
        "total": ec_evals + sqp_evals + val_evals,
    }
    return HybridResult(
        x_ec=x_ec, f_ec=f_ec, x_sqp=np.asarray(x_sqp, dtype=float), f_sqp=f_sqp,
        x_star=np.asarray(x_star, dtype=float), f_star=f_star,
        evaluations=evaluations, switch_reason=reason,
        validation_switch_reason=val_reason, trace=trace,
        sqp_result=sqp_result, polish_result=polish_result, warnings=warnings,
    )
