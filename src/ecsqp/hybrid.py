"""Task-switching pipeline: global evolutionary search, Newton local refine,
then a seeded evolutionary validation round.

Every evolutionary run in the package goes through :func:`evolve`, one
generator that steps an engine and tracks the per-operator decomposition and
the crossover-envelope convergence state.  The exploration phase runs it
until its crossover convergence signal fires (or progress stalls, or the
generation cap is hit), hands its best decoded point to the SQP local
solver, and finally validates the refined solution with a fresh population
seeded with the refined chromosome and its bitwise complement.  ``ec`` batch
mode (:mod:`ecsqp.cli_io`) runs the same generator to a generation cap.  All
reporting is in the problem's native orientation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from itertools import count
from typing import Callable, Iterator

import numpy as np

from .benchmarks import BenchmarkProblem
from .encoding import Chromosome, EncodingSpec, decode, decode_batch, encode
from .evolution import Engine, GAConfig, Population
from .local_search import SQPConfig, SQPResult, sqp_run
from .price_monitor import ConvergenceState, decompose_generation, sigma_width, update_convergence

__all__ = [
    "HybridResult",
    "PhaseTraceRow",
    "SwitchCriteria",
    "SwitchReason",
    "evolve",
    "fitness_function",
    "invert_chromosome",
    "run_hybrid",
    "should_switch",
]


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
    smoothing_window: int = 3

    def __post_init__(self) -> None:
        if self.sigma_threshold <= 0 or self.stall_epsilon < 0:
            raise ValueError("thresholds must be positive")
        if self.stall_window < 1 or self.max_generations < 1:
            raise ValueError("windows must be positive")


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


def invert_chromosome(c: Chromosome) -> Chromosome:
    """Bitwise complement of a chromosome."""
    return Chromosome(np.uint8(1) - c.bits)


@dataclass(frozen=True)
class PhaseTraceRow:
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
    price_rows: list
    sqp_result: SQPResult | None
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


def evolve(engine: Engine, pop: Population, crit: SwitchCriteria) -> Iterator[tuple]:
    """Step ``engine`` from ``pop`` for as long as the caller keeps drawing.

    Yields ``(generation, population, contribution, stats, state)`` for
    generations 1, 2, ...: the new population, its operator decomposition
    and fitness summary, and the crossover-envelope convergence state built
    from ``crit.sigma_threshold`` and ``crit.smoothing_window``.
    """
    state = ConvergenceState(
        threshold=crit.sigma_threshold, smoothing_window=crit.smoothing_window
    )
    for generation in count(1):
        pop, lineage, stats = engine.step(pop)
        contribution = decompose_generation(lineage, generation)
        update_convergence(state, sigma_width(contribution.crossover_sigma), generation)
        yield generation, pop, contribution, stats, state


def _switching_phase(
    name: str,
    engine: Engine,
    pop: Population,
    crit: SwitchCriteria,
    sign: float,
    trace: list[PhaseTraceRow],
    price_rows: list,
    eval_base: int,
) -> tuple[Population, SwitchReason]:
    """Evolve until :func:`should_switch` fires; returns the final population,
    whose best member elitism keeps the best seen, and the reason."""
    best_history = [float(pop.fitness.max())]
    trace.append(
        PhaseTraceRow(name, 0, sign * best_history[0],
                      sign * float(pop.fitness.mean()), eval_base + engine.evaluations)
    )
    for generation, pop, contribution, stats, state in evolve(engine, pop, crit):
        best_history.append(stats.best)
        price_rows.append((name, contribution, stats))
        trace.append(
            PhaseTraceRow(name, generation, sign * stats.best, sign * stats.mean,
                          eval_base + engine.evaluations)
        )
        reason = should_switch(state, best_history, generation, crit)
        if reason is not None:
            break
    return pop, reason


def run_hybrid(
    problem: BenchmarkProblem,
    ga_cfg: GAConfig,
    sqp_cfg: SQPConfig,
    crit: SwitchCriteria,
    rng_seed: int,
    precision: float = 0.01,
    validation_criteria: SwitchCriteria | None = None,
    validation_ga: GAConfig | None = None,
) -> HybridResult:
    """Run the full exploration -> refinement -> validation pipeline.

    The encoding grid is derived from the problem bounds and ``precision``.
    A failing local phase degrades gracefully: the evolutionary solution is
    kept and a warning recorded.

    The validation round reuses the exploration settings unless
    ``validation_criteria``/``validation_ga`` override them; the two phases
    have different jobs (fast exploration with automatic switching versus
    certification and refinement of the incumbent), so the override allows a
    larger, longer-running validation population.  When the validation round
    improves on the refined solution, its best point receives a final local
    polish with absolute tolerances: the validation population only carries
    grid projections, and the polish restores sub-grid precision.
    """
    spec = EncodingSpec.for_bounds(
        problem.bounds.lower, problem.bounds.upper, precision
    )
    sign = problem.sign
    rng = np.random.default_rng(rng_seed)
    fitness = fitness_function(problem, spec)
    warnings: list[str] = []
    trace: list[PhaseTraceRow] = []
    price_rows: list = []

    # phase 1: global exploration
    explore = Engine(ga_cfg, spec.total_length, fitness, rng=rng)
    pop1, reason = _switching_phase(
        "ec", explore, explore.random_population(), crit, sign, trace, price_rows, 0
    )
    ec_evals = explore.evaluations
    x_ec = decode(pop1.best_chromosome(), spec)
    f_ec = sign * float(pop1.fitness.max())

    # phase 2: local refinement from the decoded incumbent
    objective = problem.minimand
    sqp_cfg_local = (
        replace(sqp_cfg, stopping="delta") if sqp_cfg.stopping is None else sqp_cfg
    )
    sqp_result: SQPResult | None = None
    x_sqp, f_sqp = x_ec, f_ec
    sqp_evals = 0
    try:
        sqp_result = sqp_run(objective, x_ec, problem.bounds, sqp_cfg_local)
        candidate = sqp_result.x
        f_candidate = -sign * sqp_result.f
        if sign * f_candidate >= sign * f_ec:
            x_sqp, f_sqp = candidate, f_candidate
        else:
            warnings.append("local phase lost ground (boundary projection); kept x_ec")
        warnings.extend(sqp_result.warnings)
        sqp_evals = sqp_result.evaluations
        for it in sqp_result.trace:
            trace.append(
                PhaseTraceRow("sqp", it.iteration, -sign * it.f,
                              math.nan, ec_evals + it.evaluations)
            )
    except Exception as exc:  # AD domain errors, singular systems
        warnings.append(f"local phase failed ({exc}); kept x_ec")

    # phase 3: seeded validation round
    seed_chrom = encode(x_sqp, spec)
    seeds = [seed_chrom.bits, invert_chromosome(seed_chrom).bits]
    validate = Engine(validation_ga or ga_cfg, spec.total_length, fitness, rng=rng)
    pop3, val_reason = _switching_phase(
        "validation", validate, validate.seeded_population(seeds),
        validation_criteria or crit, sign, trace, price_rows, ec_evals + sqp_evals,
    )
    val_evals = validate.evaluations
    x_val = decode(pop3.best_chromosome(), spec)
    f_val = sign * float(pop3.fitness.max())

    if sign * f_val > sign * f_sqp:
        x_star, f_star = x_val, f_val
        try:
            polish = sqp_run(
                objective, x_val, problem.bounds,
                replace(sqp_cfg_local, stopping="absolute"),
            )
            sqp_evals += polish.evaluations
            f_polish = -sign * polish.f
            if sign * f_polish > sign * f_star:
                x_star, f_star = polish.x, f_polish
        except Exception as exc:
            warnings.append(f"final polish failed ({exc}); kept validation best")
    else:
        x_star, f_star = x_sqp, f_sqp

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
        validation_switch_reason=val_reason, trace=trace, price_rows=price_rows,
        sqp_result=sqp_result, warnings=warnings,
    )
