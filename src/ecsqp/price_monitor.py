"""Fitness-change decomposition and operator-level convergence detection.

The mean-fitness change of a generation splits exactly into a selection
covariance term plus one transmission term per reproduction operator
(crossover, mutation); the decomposition is Price's equation extended with
per-operator stages.  Monitoring the spread (+/- one standard deviation) of
the crossover term's per-child contributions provides a convergence signal:
the population has converged once the width of that envelope stays below a
threshold.

An operator's transmission term is the mean of its per-slot stage deltas,
``LineageRecord.stage_deltas("crossover")`` or ``("mutation")``; it equals
``sum_i z_i * dq_i / (N * z_bar)`` because each parent's slots carry its
children.  The selection stage's deltas are exactly zero: selected copies
keep their parent's fitness.

Every term is computed per run: for a stack of runs (see
:mod:`ecsqp.evolution`) each function takes the stacked lineage and returns
one value per run, bitwise the value of that run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import LineageRecord, _per_run

__all__ = [
    "ConvergenceState",
    "OperatorContribution",
    "SMOOTHING_WINDOW",
    "decompose_generation",
    "selection_term",
    "sigma_width",
    "update_convergence",
]

DECOMPOSITION_RTOL = 1e-9
#: consecutive envelope widths at or below the threshold that declare convergence
SMOOTHING_WINDOW = 3


def _any(mask) -> bool:
    """Whether a per-run flag is set in any run (a bool for a single run)."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def selection_term(z, q):
    """Cov(z, q) / z_bar with the population (1/N) covariance.

    ``z`` holds per-parent offspring counts, ``q`` the parent fitnesses, both
    ``(N,)`` or, for a stack, ``(R, N)``.  Each mean is
    ``np.add.reduce(x) / n``, bitwise equal to ``ndarray.mean``.
    """
    z = np.asarray(z, dtype=float)
    q = np.asarray(q, dtype=float)
    if z.shape != q.shape or z.ndim not in (1, 2) or z.size == 0:
        raise ValueError("z and q must be equal-shape nonempty vectors")
    n = z.shape[-1]
    z_bar = np.add.reduce(z, axis=-1) / n
    if _any(z_bar <= 0.0):
        raise ValueError("mean offspring count must be positive")
    q_bar = np.add.reduce(q, axis=-1) / n
    cov = np.add.reduce((z - _per_run(z_bar)) * (q - _per_run(q_bar)), axis=-1) / n
    return cov / z_bar


def _operator_moments(lineage: LineageRecord):
    """Mean and standard deviation of the crossover and the mutation stage's
    per-slot deltas, :meth:`LineageRecord.stage_deltas`.

    Both stages' deltas and their squares fill one ``(4, ...)`` buffer,
    which is reduced once along its last axis, each row bitwise as if it
    were reduced alone.  Returns ``([xo, mut], [xo_sigma, mut_sigma])``, as
    Python floats for one run and ``(2, R)`` arrays for a stack.
    """
    f_sel, f_xo = lineage.fitness_after_selection, lineage.fitness_after_crossover
    n = f_sel.shape[-1]
    if n < 1:
        raise ValueError("stage carries no children")
    buf = np.empty((4,) + f_sel.shape)
    np.subtract(f_xo, f_sel, out=buf[0])  # the crossover stage's deltas
    np.subtract(lineage.fitness_after_mutation, f_xo, out=buf[1])  # the mutation stage's
    np.multiply(buf[:2], buf[:2], out=buf[2:])
    sums = np.add.reduce(buf, axis=-1) / n
    if f_sel.ndim == 1:  # the same float arithmetic on Python floats
        xo, mut, xo2, mut2 = sums.tolist()
        return [xo, mut], [math.sqrt(max(xo2 - xo * xo, 0.0)),
                           math.sqrt(max(mut2 - mut * mut, 0.0))]
    mean, second = sums[:2], sums[2:]
    return mean, np.sqrt(np.maximum(second - mean * mean, 0.0))


def sigma_width(sigma):
    """Width of the +/- sigma envelope around an operator term: 2*sigma.

    The term mean cancels: (mean + sigma) - (mean - sigma) == 2*sigma.
    """
    if _any(sigma < 0.0):
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    return 2.0 * sigma


@dataclass(frozen=True)
class OperatorContribution:
    """Per-generation decomposition of the offspring-pool mean-fitness change.

    The terms are scalars for one run and ``(R,)`` arrays for a stack.
    """

    generation: int
    selection_term: float | np.ndarray
    crossover_term: float | np.ndarray
    mutation_term: float | np.ndarray
    crossover_sigma: float | np.ndarray
    mutation_sigma: float | np.ndarray
    total_delta_q: float | np.ndarray


def decompose_generation(
    lineage: LineageRecord, generation: int
) -> OperatorContribution:
    """Build the three-term decomposition for one generation's lineage.

    The parent and offspring-pool means are read from the lineage's cached
    fitness summaries.  Raises if the terms fail to reconstruct the actual
    mean-fitness change (offspring pool mean minus parent mean) to relative
    tolerance 1e-9.
    """
    parents, offspring = lineage.parent_stats, lineage.offspring_stats
    sel = selection_term(lineage.selection_stage_z(), lineage.parent_fitness)
    (xo, mut), (xo_sigma, mut_sigma) = _operator_moments(lineage)
    total = offspring.mean - parents.mean
    parts = sel + xo + mut
    # |total - parts| > tol * max(|total|, |parts|, |parent mean|, 1), as one
    # comparison per operand: rounding tol * x keeps the order of the x
    gap = abs(total - parts)
    if _any(
        (gap > DECOMPOSITION_RTOL * abs(total)) & (gap > DECOMPOSITION_RTOL * abs(parts))
        & (gap > DECOMPOSITION_RTOL * abs(parents.mean)) & (gap > DECOMPOSITION_RTOL)
    ):
        raise ValueError(
            f"decomposition identity violated: terms sum to {parts}, "
            f"actual change {total}"
        )
    return OperatorContribution(
        generation=generation,
        selection_term=sel,
        crossover_term=xo,
        mutation_term=mut,
        crossover_sigma=xo_sigma,
        mutation_sigma=mut_sigma,
        total_delta_q=total,
    )


@dataclass
class ConvergenceState:
    """Debounced first-crossing detector on the crossover envelope width.

    Convergence is declared at the first generation completing
    :data:`SMOOTHING_WINDOW` consecutive widths at or below the threshold;
    raw single-generation widths are too noisy to act on directly.
    """

    threshold: float
    converged_at: int | None = None
    _streak: int = 0

    def __post_init__(self) -> None:
        if self.threshold <= 0.0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")


def update_convergence(
    state: ConvergenceState, width: float, generation: int
) -> ConvergenceState:
    """Count one generation's width toward the debounce streak; set
    ``converged_at`` on first crossing."""
    if width < 0.0:
        raise ValueError(f"width must be nonnegative, got {width}")
    if state.converged_at is not None:
        return state
    state._streak = state._streak + 1 if width <= state.threshold else 0
    if state._streak >= SMOOTHING_WINDOW:
        state.converged_at = generation
    return state
