"""Generational evolutionary engine with per-operator lineage instrumentation.

A generation runs selection -> pairwise single-point crossover -> mutation ->
evaluation -> adaptive-elitist replacement.  Alongside the new population,
every step emits a :class:`LineageRecord` capturing, for each of the N
offspring slots, which parent it descends from and its fitness after each
operator stage; the record feeds the fitness-change decomposition in
:mod:`ecsqp.price_monitor`.

The engine maximizes internally.  Minimization problems are wrapped by
negating the objective at the boundary.

The variation operators work on whole ``(m, L)`` bit matrices, one row per
chromosome.  Two mutation schemes are supported.  ``per-chromosome`` (the
default, :func:`single_bit_mutation`) flips one uniformly chosen bit in an
offspring with probability Pm; this weak scheme is what the published
selection-comparison tables and the collapsing crossover envelope require.
``per-bit`` (:func:`bit_flip_mutation`) flips every bit independently with
probability Pm; it explores far more aggressively and keeps the population
permanently diverse, which prevents envelope-based convergence detection.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .encoding import Chromosome, random_bits

__all__ = [
    "EliteState",
    "Engine",
    "FitnessStats",
    "GAConfig",
    "GenerationResult",
    "LineageRecord",
    "Population",
    "SelectionMethod",
    "adaptive_elitism_replace",
    "binary_tournament_cycle",
    "bit_flip_mutation",
    "evolve_generation",
    "roulette_select",
    "single_bit_mutation",
    "single_point_crossover",
    "tournament_select",
]


class SelectionMethod(enum.Enum):
    ROULETTE_WHEEL = "roulette-wheel"
    BINARY_TOURNAMENT = "binary-tournament"


@dataclass(frozen=True)
class GAConfig:
    """Numerical parameters of one evolutionary run."""

    population_size: int
    crossover_rate: float = 1.0
    mutation_rate: float = 0.01
    selection: SelectionMethod = SelectionMethod.BINARY_TOURNAMENT
    overlap_fraction: float = 0.05
    max_generations: int = 100
    rng_seed: int = 0
    mutation_scheme: str = "per-chromosome"  # or "per-bit"

    def __post_init__(self) -> None:
        n = self.population_size
        if n < 2 or n % 2 != 0:
            raise ValueError(f"population size must be even and >= 2, got {n}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError(f"crossover rate must be in [0, 1], got {self.crossover_rate}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation rate must be in [0, 1], got {self.mutation_rate}")
        if not 0.0 < self.overlap_fraction < 1.0:
            raise ValueError(
                f"overlap fraction must be in (0, 1), got {self.overlap_fraction}"
            )
        if self.overlap_fraction * n < 1.0:
            raise ValueError("overlap_fraction * population_size must be >= 1")
        if self.max_generations < 1:
            raise ValueError("max_generations must be positive")
        if self.mutation_scheme not in ("per-chromosome", "per-bit"):
            raise ValueError(f"unknown mutation scheme {self.mutation_scheme!r}")


class Population:
    """Fixed-size evaluated population, stored as bit and fitness arrays.

    The fitness summary :attr:`stats` is computed once, on first use; the
    arrays are not to be modified after that.
    """

    def __init__(self, bits: np.ndarray, fitness: np.ndarray):
        bits = np.asarray(bits, dtype=np.uint8)
        fitness = np.asarray(fitness, dtype=float)
        if bits.ndim != 2 or fitness.shape != (bits.shape[0],):
            raise ValueError("bits must be (N, L) with one fitness per row")
        if bits.shape[0] == 0:
            raise ValueError("population may not be empty")
        if not np.all(np.isfinite(fitness)):
            raise ValueError("all members must carry finite fitness")
        self.bits = bits
        self.fitness = fitness

    def __len__(self) -> int:
        return self.bits.shape[0]

    @cached_property
    def stats(self) -> "FitnessStats":
        return FitnessStats.from_values(self.fitness)

    def best_index(self) -> int:
        return int(np.argmax(self.fitness))

    def best_chromosome(self) -> Chromosome:
        return Chromosome(self.bits[self.best_index()].copy())


@dataclass(frozen=True)
class FitnessStats:
    """Population fitness summary (maximization convention)."""

    mean: float
    variance: float
    best: float
    worst: float

    @classmethod
    def from_values(cls, values: np.ndarray) -> "FitnessStats":
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValueError("cannot summarize an empty fitness vector")
        return cls(
            mean=float(values.mean()),
            variance=float(values.var()),  # population form, divide by N
            best=float(values.max()),
            worst=float(values.min()),
        )


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def roulette_select(
    pop: Population, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Fitness-proportionate sampling with replacement.

    Each draw lands on the cumulative-probability bins of f_i / F, so the
    selection probability is literally proportional to fitness.  The wheel is
    only defined for positive fitness; while any member is nonpositive the
    whole population is drawn uniformly instead.  Proportional pressure then
    decays naturally as the mean fitness grows, which is the behaviour the
    selection-comparison experiments depend on.
    """
    f = pop.fitness
    if f.min() <= 0.0:
        return rng.integers(0, len(pop), size=count)
    total = f.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise ValueError(f"total fitness must be positive, got {total}")
    cum = np.cumsum(f)
    draws = rng.random(count) * total
    return np.minimum(np.searchsorted(cum, draws, side="right"), len(pop) - 1)


def tournament_select(
    pop: Population, k: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Strict k-way tournaments, contestants drawn without replacement.

    Each of ``count`` contests draws a fresh k-subset; the highest-fitness
    contestant wins, ties broken uniformly at random.
    """
    n = len(pop)
    if not 1 <= k <= n:
        raise ValueError(f"tournament size {k} must be in [1, {n}]")
    f = pop.fitness
    if k == 2 and n >= 2:
        a = rng.integers(0, n, size=count)
        b = rng.integers(0, n - 1, size=count)
        b = b + (b >= a)
        coin = rng.random(count) < 0.5
        pick_a = (f[a] > f[b]) | ((f[a] == f[b]) & coin)
        return np.where(pick_a, a, b)
    winners = np.empty(count, dtype=np.int64)
    for i in range(count):
        contestants = rng.choice(n, size=k, replace=False)
        cf = f[contestants]
        top = contestants[np.flatnonzero(cf == cf.max())]
        winners[i] = top[0] if top.size == 1 else rng.choice(top)
    return winners


def binary_tournament_cycle(
    pop: Population, rng: np.random.Generator
) -> np.ndarray:
    """One complete cycle of strict binary tournaments without replacement.

    The population is randomly paired off twice, so every chromosome takes
    part in exactly two contests and the best member always wins both of its
    contests.  Yields exactly N winner indices; ties break uniformly.
    """
    n = len(pop)
    if n % 2 != 0:
        raise ValueError("tournament cycles need an even population")
    f = pop.fitness
    winners = np.empty(n, dtype=np.int64)
    out = 0
    for _ in range(2):
        perm = rng.permutation(n)
        a, b = perm[0::2], perm[1::2]
        coin = rng.random(n // 2) < 0.5
        pick_a = (f[a] > f[b]) | ((f[a] == f[b]) & coin)
        winners[out : out + n // 2] = np.where(pick_a, a, b)
        out += n // 2
    return winners


def _select(pop: Population, cfg: GAConfig, rng) -> np.ndarray:
    """N selection slots by the configured method (N is even by GAConfig)."""
    if cfg.selection is SelectionMethod.ROULETTE_WHEEL:
        return roulette_select(pop, len(pop), rng)
    return binary_tournament_cycle(pop, rng)


# ---------------------------------------------------------------------------
# variation operators
# ---------------------------------------------------------------------------


def single_point_crossover(
    bits: np.ndarray, rate: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise single-point crossover of an ``(m, L)`` matrix, m even.

    Rows ``2i`` and ``2i+1`` form pair i.  Each pair crosses with probability
    ``rate``; a crossing pair swaps its suffixes after a locus drawn
    uniformly from {1, ..., L-1}.  All pair coins are drawn before all loci.
    Returns the children and, per row, whether its pair crossed.
    """
    pairs = bits.shape[0] // 2
    length = bits.shape[1]
    coins = rng.random(pairs) < rate
    loci = rng.integers(1, length, size=pairs)
    child = bits.copy()
    if coins.any():
        swap = (np.arange(length)[None, :] >= loci[:, None]) & coins[:, None]
        a = bits[0::2]
        b = bits[1::2]
        child[0::2] = np.where(swap, b, a)
        child[1::2] = np.where(swap, a, b)
    return child, np.repeat(coins, 2)


def bit_flip_mutation(
    bits: np.ndarray, rate: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Flip every bit of an ``(m, L)`` matrix independently with probability
    ``rate``.  Returns the mutants and, per row, whether any bit flipped."""
    flips = (rng.random(bits.shape) < rate).astype(np.uint8)
    return bits ^ flips, flips.any(axis=1)


def single_bit_mutation(
    bits: np.ndarray, rate: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """With probability ``rate`` per row, flip one uniformly chosen bit.

    All row coins are drawn before all bit positions.  Returns the mutants
    and, per row, whether a bit flipped.
    """
    m, length = bits.shape
    do = rng.random(m) < rate
    which = rng.integers(0, length, size=m)
    mutated = bits.copy()
    rows = np.flatnonzero(do)
    mutated[rows, which[rows]] ^= 1
    return mutated, do


# ---------------------------------------------------------------------------
# replacement
# ---------------------------------------------------------------------------


@dataclass
class EliteState:
    """Mutable carry-over size for the adaptive elitist replacement."""

    n_elite: int

    @classmethod
    def initial(cls, cfg: GAConfig) -> "EliteState":
        return cls(n_elite=math.ceil(cfg.overlap_fraction * cfg.population_size))


def adaptive_elitism_replace(
    parents: Population, offspring: Population, state: EliteState
) -> Population:
    """Merge the best elites of the parents with the best offspring.

    When the offspring pool improves both the mean and the variance of the
    parent fitness, the elite count first halves, floored at one so the
    incumbent best always survives.
    """
    if len(parents) != len(offspring):
        raise ValueError("parent and offspring populations must have equal size")
    if state.n_elite < 1:
        raise ValueError("elite size must be at least 1")
    ps = parents.stats
    os = offspring.stats
    if os.mean > ps.mean and os.variance > ps.variance:
        state.n_elite = max(1, state.n_elite // 2)
    n = len(parents)
    k = min(state.n_elite, n)
    elite_idx = np.argsort(parents.fitness)[::-1][:k]
    off_idx = np.argsort(offspring.fitness)[::-1][: n - k]
    bits = np.concatenate((parents.bits[elite_idx], offspring.bits[off_idx]))
    fit = np.concatenate((parents.fitness[elite_idx], offspring.fitness[off_idx]))
    return Population(bits, fit)


# ---------------------------------------------------------------------------
# one full generation
# ---------------------------------------------------------------------------


class LineageRecord:
    """Per-slot parentage and per-stage fitness of one generation's offspring.

    Slot ``j`` holds the lineage chain of the j-th offspring: the parent that
    won selection slot j, the fitness of that copy (identical to the parent's,
    selection adds no new solutions), and the fitness of the chromosome
    occupying the slot after crossover and after mutation.  ``pair_crossed``
    marks whether the slot's pair actually exchanged material.
    """

    def __init__(
        self,
        parent_fitness: np.ndarray,
        slot_parent: np.ndarray,
        pair_crossed: np.ndarray,
        fitness_after_selection: np.ndarray,
        fitness_after_crossover: np.ndarray,
        fitness_after_mutation: np.ndarray,
    ):
        self.parent_fitness = np.asarray(parent_fitness, dtype=float)
        self.slot_parent = np.asarray(slot_parent, dtype=np.int64)
        self.pair_crossed = np.asarray(pair_crossed, dtype=bool)
        self.fitness_after_selection = np.asarray(fitness_after_selection, dtype=float)
        self.fitness_after_crossover = np.asarray(fitness_after_crossover, dtype=float)
        self.fitness_after_mutation = np.asarray(fitness_after_mutation, dtype=float)
        m = self.slot_parent.shape[0]
        for arr in (
            self.pair_crossed,
            self.fitness_after_selection,
            self.fitness_after_crossover,
            self.fitness_after_mutation,
        ):
            if arr.shape != (m,):
                raise ValueError("lineage arrays must share the slot count")

    @property
    def population_size(self) -> int:
        return self.parent_fitness.shape[0]

    def offspring_counts(self) -> np.ndarray:
        """Selection slots won by each parent (the z-vector over parents)."""
        return np.bincount(self.slot_parent, minlength=self.population_size).astype(
            np.int64
        )

    def stage_deltas(self, stage: str) -> np.ndarray:
        """Per-slot fitness change across one operator stage."""
        if stage == "selection":
            return self.fitness_after_selection - self.parent_fitness[self.slot_parent]
        if stage == "crossover":
            return self.fitness_after_crossover - self.fitness_after_selection
        if stage == "mutation":
            return self.fitness_after_mutation - self.fitness_after_crossover
        raise KeyError(f"unknown stage {stage!r}")

    def crossover_stage_z(self) -> np.ndarray:
        """Offspring attributed to each selected instance by the crossover
        stage: two children when its pair crossed, its own copy otherwise."""
        return np.where(self.pair_crossed, 2, 1).astype(np.int64)


class GenerationResult(NamedTuple):
    population: Population
    lineage: LineageRecord
    stats: FitnessStats


def evolve_generation(
    pop: Population,
    cfg: GAConfig,
    fitness_fn: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator,
    elite: EliteState,
) -> GenerationResult:
    """Advance one generation and capture its lineage.

    ``fitness_fn`` maps an ``(m, L)`` bit matrix to ``m`` fitness values
    (maximization).  Intermediate chromosomes left untouched by an operator
    inherit their fitness without re-evaluation, so the per-stage fitness in
    the lineage costs at most two evaluations per slot.
    """
    slots = _select(pop, cfg, rng)
    sel_bits = pop.bits[slots]
    f_sel = pop.fitness[slots]

    child, crossed = single_point_crossover(sel_bits, cfg.crossover_rate, rng)
    f_xo = f_sel.copy()
    changed = (child != sel_bits).any(axis=1)
    if changed.any():
        f_xo[changed] = fitness_fn(child[changed])

    mutate = bit_flip_mutation if cfg.mutation_scheme == "per-bit" else single_bit_mutation
    mutated, touched = mutate(child, cfg.mutation_rate, rng)
    f_mut = f_xo.copy()
    if touched.any():
        f_mut[touched] = fitness_fn(mutated[touched])

    offspring = Population(mutated, f_mut)
    nxt = adaptive_elitism_replace(pop, offspring, elite)
    lineage = LineageRecord(
        parent_fitness=pop.fitness.copy(),
        slot_parent=slots,
        pair_crossed=crossed,
        fitness_after_selection=f_sel,
        fitness_after_crossover=f_xo,
        fitness_after_mutation=f_mut,
    )
    return GenerationResult(nxt, lineage, nxt.stats)


class Engine:
    """Seeded driver owning the RNG stream, elite state and evaluation count."""

    def __init__(
        self,
        cfg: GAConfig,
        chromosome_length: int,
        fitness_fn: Callable[[np.ndarray], np.ndarray],
        rng: np.random.Generator | None = None,
    ):
        if chromosome_length < 2:
            raise ValueError("chromosome length must be >= 2")
        self.cfg = cfg
        self.chromosome_length = chromosome_length
        self.rng = rng if rng is not None else np.random.default_rng(cfg.rng_seed)
        self.elite = EliteState.initial(cfg)
        self.evaluations = 0
        self._fitness_fn = fitness_fn

    def _evaluate(self, bits: np.ndarray) -> np.ndarray:
        self.evaluations += bits.shape[0]
        values = np.asarray(self._fitness_fn(bits), dtype=float)
        if values.shape != (bits.shape[0],):
            raise ValueError("fitness function must return one value per row")
        return values

    def random_population(self) -> Population:
        bits = random_bits(self.chromosome_length, self.cfg.population_size, self.rng)
        return Population(bits, self._evaluate(bits))

    def seeded_population(self, seeds: list[np.ndarray]) -> Population:
        """Random population topped up with explicit seed chromosomes."""
        n = self.cfg.population_size
        if len(seeds) > n:
            raise ValueError("more seeds than population slots")
        bits = random_bits(self.chromosome_length, n - len(seeds), self.rng)
        bits = np.vstack([bits] + [np.asarray(s, dtype=np.uint8)[None, :] for s in seeds])
        return Population(bits, self._evaluate(bits))

    def step(self, pop: Population) -> GenerationResult:
        return evolve_generation(pop, self.cfg, self._evaluate, self.rng, self.elite)
