"""Fitness-change decomposition and operator-level convergence detection.

The mean-fitness change of a generation splits exactly into a selection
covariance term plus one transmission term per reproduction operator
(crossover, mutation); the decomposition is Price's equation extended with
per-operator stages.  Monitoring the spread (+/- one standard deviation) of
the crossover term's per-child contributions provides a convergence signal:
the population has converged once the width of that envelope stays below a
threshold.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .evolution import LineageRecord

__all__ = [
    "ConvergenceState",
    "OperatorContribution",
    "Stage",
    "decompose_generation",
    "operator_term",
    "operator_term_sigma",
    "selection_term",
    "sigma_width",
    "update_convergence",
]

DECOMPOSITION_RTOL = 1e-9


class Stage(enum.Enum):
    SELECTION = "selection"
    CROSSOVER = "crossover"
    MUTATION = "mutation"


def selection_term(z, q) -> float:
    """Cov(z, q) / z_bar with the population (1/N) covariance.

    ``z`` holds per-parent offspring counts, ``q`` the parent fitnesses.
    Each mean is ``np.add.reduce(x) / n``, bitwise equal to ``ndarray.mean``.
    """
    z = np.asarray(z, dtype=float)
    q = np.asarray(q, dtype=float)
    if z.shape != q.shape or z.ndim != 1 or z.size == 0:
        raise ValueError("z and q must be equal-length nonempty vectors")
    n = z.size
    z_bar = np.add.reduce(z) / n
    if z_bar <= 0.0:
        raise ValueError("mean offspring count must be positive")
    cov = float(np.add.reduce((z - z_bar) * (q - np.add.reduce(q) / n)) / n)
    return cov / z_bar


def _stage_moments(deltas: np.ndarray) -> tuple[float, float]:
    """Mean and standard deviation of one stage's per-child deltas."""
    if deltas.size < 1:
        raise ValueError("stage carries no children")
    n = deltas.shape[0]
    mean = np.add.reduce(deltas) / n
    second = np.add.reduce(deltas * deltas) / n
    return float(mean), math.sqrt(max(second - mean * mean, 0.0))


def operator_term(lineage: LineageRecord, stage: Stage) -> float:
    """Mean-fitness change attributed to one operator stage.

    Equals ``sum_i z_i * dq_i / (N * z_bar)`` where ``dq_i`` is the change in
    parent i's mean offspring fitness across the stage; computed as the mean
    of the per-slot stage deltas, which is identical because each parent's
    slots carry its children.  The selection stage is exactly zero: selected
    copies keep their parent's fitness.
    """
    return _stage_moments(lineage.stage_deltas(stage.value))[0]


def operator_term_sigma(lineage: LineageRecord, stage: Stage) -> float:
    """Standard deviation of the per-child stage deltas.

    Moments are taken over the flat multiset of per-child fitness changes
    with the same ``1/(N z_bar)`` weighting as the stage mean, i.e.
    ``Var = E[dq^2] - E[dq]^2`` over all children of all parents.
    """
    return _stage_moments(lineage.stage_deltas(stage.value))[1]


def sigma_width(sigma: float) -> float:
    """Width of the +/- sigma envelope around an operator term: 2*sigma.

    The term mean cancels: (mean + sigma) - (mean - sigma) == 2*sigma.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    return 2.0 * sigma


@dataclass(frozen=True)
class OperatorContribution:
    """Per-generation decomposition of the offspring-pool mean-fitness change."""

    generation: int
    selection_term: float
    crossover_term: float
    mutation_term: float
    crossover_sigma: float
    mutation_sigma: float
    total_delta_q: float


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
    counts = np.bincount(lineage.slot_parent, minlength=lineage.population_size)
    sel = selection_term(counts, lineage.parent_fitness)
    xo, xo_sigma = _stage_moments(lineage.stage_deltas(Stage.CROSSOVER.value))
    mut, mut_sigma = _stage_moments(lineage.stage_deltas(Stage.MUTATION.value))
    total = offspring.mean - parents.mean
    parts = sel + xo + mut
    scale = max(abs(total), abs(parts), abs(parents.mean), 1.0)
    if abs(total - parts) > DECOMPOSITION_RTOL * scale:
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
    ``smoothing_window`` consecutive widths at or below the threshold; raw
    single-generation widths are too noisy to act on directly.
    """

    threshold: float = 0.01
    smoothing_window: int = 3
    converged_at: int | None = None
    _streak: int = 0

    def __post_init__(self) -> None:
        if self.threshold <= 0.0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if self.smoothing_window < 1:
            raise ValueError("smoothing window must be >= 1")


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
    if state._streak >= state.smoothing_window:
        state.converged_at = generation
    return state
