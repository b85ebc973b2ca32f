"""Generational evolutionary engine with per-operator lineage instrumentation.

A generation runs selection -> pairwise single-point crossover -> mutation ->
evaluation (one fitness call per generation) -> adaptive-elitist replacement.
Alongside the new population, every step emits a :class:`LineageRecord`
capturing, for each of the N offspring slots, which parent it descends from
and its fitness after each operator stage; the record feeds the
fitness-change decomposition in :mod:`ecsqp.price_monitor`.

The engine maximizes internally.  Minimization problems are wrapped by
negating the objective at the boundary.

The engine steps a stack of R independent runs at once.  A population's
bits are ``(N, L)`` and its fitness ``(N,)`` for one run; a stack adds a
leading run axis, ``(R, N, L)`` and ``(R, N)``, and every operator, the
fitness batch, the replacement and the fitness summaries act on all runs in
one call.  Each run keeps its own ``np.random.Generator`` (a stack holds them
in a :class:`RunStreams`) and draws exactly what it would draw alone, in the
same order: selection, crossover coins then loci, mutation.  A run stepped in
a stack is therefore bitwise the run stepped alone, provided the fitness
function scores each row independently of the other rows in its batch (the
package's decode-and-objective fitness does; a float matmul need not).  A
single run is the same code with no run axis.

The variation operators work on whole ``(m, L)`` bit matrices, one row per
chromosome, with any leading run axis.  Two mutation schemes are supported.
``per-chromosome`` (the default, :func:`single_bit_mutation`) flips one
uniformly chosen bit in an offspring with probability Pm; this weak scheme is
what the published selection-comparison tables and the collapsing crossover
envelope require.
``per-bit`` (:func:`bit_flip_mutation`) flips every bit independently with
probability Pm; it explores far more aggressively and keeps the population
permanently diverse, which prevents envelope-based convergence detection.
It samples the flips sparsely, a Binomial(mL, Pm) count of them at a
uniform subset of positions, so its cost grows with the flips, not the bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .encoding import random_bits

__all__ = [
    "EliteState",
    "Engine",
    "FitnessStats",
    "GAConfig",
    "GenerationResult",
    "LineageRecord",
    "Population",
    "RunStreams",
    "SelectionMethod",
    "adaptive_elitism_replace",
    "binary_tournament_cycle",
    "bit_flip_mutation",
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
    """Numerical parameters of one evolutionary run, checked at construction.

    ``selection`` may be given as its value string (``"roulette-wheel"``); the
    counts must be ``int``s.
    """

    population_size: int = 100
    crossover_rate: float = 1.0
    mutation_rate: float = 0.01
    selection: SelectionMethod = SelectionMethod.BINARY_TOURNAMENT
    overlap_fraction: float = 0.05
    max_generations: int = 100
    rng_seed: int = 0
    mutation_scheme: str = "per-chromosome"  # or "per-bit"

    def __post_init__(self) -> None:
        try:  # a member is its own value
            object.__setattr__(self, "selection", SelectionMethod(self.selection))
        except ValueError:
            names = ", ".join(m.value for m in SelectionMethod)
            raise ValueError(
                f"unknown selection {self.selection!r}; options: {names}"
            ) from None
        # type() rather than isinstance(): a count must not be a float or a bool
        n = self.population_size
        if type(n) is not int or n < 2 or n % 2 != 0:
            raise ValueError(f"population_size must be an even integer >= 2, got {n!r}")
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
        if type(self.max_generations) is not int or self.max_generations < 1:
            raise ValueError(
                f"max_generations must be a positive integer, got {self.max_generations!r}"
            )
        if self.mutation_scheme not in ("per-chromosome", "per-bit"):
            raise ValueError(f"unknown mutation scheme {self.mutation_scheme!r}")


class RunStreams:
    """The random generators of a stack of runs, one per run.

    Each draw method makes the same request of every run's generator, in run
    order, and stacks the results on a leading run axis.  A run's generator
    thus yields exactly the draws it would yield to the run alone.
    """

    __slots__ = ("generators",)

    def __init__(self, generators):
        self.generators = tuple(generators)
        if not self.generators:
            raise ValueError("a stack needs at least one run")

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def random(self, size) -> np.ndarray:
        return np.array([g.random(size) for g in self.generators])

    def integers(self, low, high, size, **kwargs) -> np.ndarray:
        return np.array([g.integers(low, high, size=size, **kwargs) for g in self.generators])

    def permutation(self, n: int) -> np.ndarray:
        return np.array([g.permutation(n) for g in self.generators])


@lru_cache(maxsize=16)
def _run_offsets(runs: int, n: int) -> np.ndarray:
    """Read-only ``(R, 1)`` index of each run's first row in the flattened
    ``(R * n, ...)`` rows of a stack."""
    offsets = (n * np.arange(runs))[:, None]
    offsets.flags.writeable = False
    return offsets


def _per_run(x):
    """A per-run value as a column against per-slot rows: ``(R, 1)`` from a
    stack's ``(R,)``, and a single run's scalar as it is."""
    return x[:, None] if isinstance(x, np.ndarray) and x.ndim else x


def _flat(index: np.ndarray, n: int) -> np.ndarray:
    """Per-run row indices ``(..., k)`` into runs of ``n`` rows, as indices
    into the flattened rows of their stack (unchanged for a single run)."""
    if index.ndim == 1:
        return index
    return index + _run_offsets(index.shape[0], n)


class Population:
    """Fixed-size evaluated population, stored as bit and fitness arrays.

    ``bits`` is ``(N, L)`` with ``(N,)`` fitness for one run, or ``(R, N, L)``
    with ``(R, N)`` fitness for a stack of R runs.  The arrays are immutable
    by contract: the fitness summary :attr:`stats` is computed once, on first
    use, and the engine, the replacement and the decomposition all read that
    cached summary.
    """

    __slots__ = ("bits", "fitness", "_stats")

    def __init__(self, bits: np.ndarray, fitness: np.ndarray):
        bits = np.asarray(bits, dtype=np.uint8)
        fitness = np.asarray(fitness, dtype=float)
        if bits.ndim not in (2, 3) or fitness.shape != bits.shape[:-1]:
            raise ValueError("bits must be (N, L) or (R, N, L) with one fitness per row")
        if fitness.size == 0:
            raise ValueError("population may not be empty")
        if not np.isfinite(fitness).all():
            raise ValueError("all members must carry finite fitness")
        self.bits = bits
        self.fitness = fitness
        self._stats = None

    @classmethod
    def _checked(cls, bits: np.ndarray, fitness: np.ndarray) -> "Population":
        """Population of arrays already typed, shaped and checked finite."""
        pop = cls.__new__(cls)
        pop.bits, pop.fitness, pop._stats = bits, fitness, None
        return pop

    def __len__(self) -> int:
        """The population size N (of each run, for a stack)."""
        return self.bits.shape[-2]

    @property
    def stats(self) -> "FitnessStats":
        if self._stats is None:
            self._stats = FitnessStats.from_values(self.fitness)
        return self._stats


@dataclass(frozen=True)
class FitnessStats:
    """Population fitness summary (maximization convention).

    The fields are floats for one run and ``(R,)`` arrays for a stack.
    """

    mean: float
    variance: float
    best: float
    worst: float

    @classmethod
    def from_values(cls, values: np.ndarray) -> "FitnessStats":
        """Summary of ``(N,)`` values, or of each row of ``(R, N)`` values."""
        values = np.asarray(values, dtype=float)
        n = values.shape[-1] if values.ndim else 0
        if n == 0:
            raise ValueError("cannot summarize an empty fitness vector")
        mean = np.add.reduce(values, axis=-1) / n  # ndarray.mean's sum, without its overhead
        d = values - _per_run(mean)
        d *= d
        fields = (
            mean,
            np.add.reduce(d, axis=-1) / n,  # population form, as ndarray.var
            np.maximum.reduce(values, axis=-1),
            np.minimum.reduce(values, axis=-1),
        )
        if values.ndim == 1:
            fields = map(float, fields)
        return cls(*fields)


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def roulette_select(
    pop: Population, count: int, rng: np.random.Generator | RunStreams
) -> np.ndarray:
    """Fitness-proportionate sampling with replacement.

    Each draw lands on the cumulative-probability bins of f_i / F, so the
    selection probability is literally proportional to fitness.  The wheel is
    only defined for positive fitness; while any member is nonpositive the
    whole population is drawn uniformly instead.  Proportional pressure then
    decays naturally as the mean fitness grows, which is the behaviour the
    selection-comparison experiments depend on.  Each run of a stack spins
    its own wheel.
    """
    if pop.fitness.ndim == 2:
        return np.array([_spin(f, count, g) for f, g in zip(pop.fitness, rng)])
    return _spin(pop.fitness, count, rng)


def _spin(f: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` roulette draws over one run's fitness vector."""
    if f.min() <= 0.0:
        return rng.integers(0, f.shape[0], size=count)
    total = f.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise ValueError(f"total fitness must be positive, got {total}")
    cum = np.cumsum(f)
    draws = rng.random(count) * total
    return np.minimum(np.searchsorted(cum, draws, side="right"), f.shape[0] - 1)


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
    pop: Population, rng: np.random.Generator | RunStreams
) -> np.ndarray:
    """One complete cycle of strict binary tournaments without replacement.

    The population is randomly paired off twice, so every chromosome takes
    part in exactly two contests and the best member always wins both of its
    contests.  Yields exactly N winner indices per run; ties break uniformly.
    Each round draws its pairing permutation, then its N/2 tie coins (the
    first round's before the second's); the two rounds' contests are then
    decided together, the first round's winners first.
    """
    n = len(pop)
    if n % 2 != 0:
        raise ValueError("tournament cycles need an even population")
    perm1, coin1 = rng.permutation(n), rng.random(n // 2)
    perm2, coin2 = rng.permutation(n), rng.random(n // 2)
    perm = np.concatenate((perm1, perm2), axis=-1)
    coin = np.concatenate((coin1, coin2), axis=-1) < 0.5
    f = pop.fitness.ravel().take(_flat(perm, n))
    fa, fb = f[..., 0::2], f[..., 1::2]
    return np.where(np.where(fa == fb, coin, fa > fb), perm[..., 0::2], perm[..., 1::2])


# ---------------------------------------------------------------------------
# variation operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _suffix_masks(length: int) -> np.ndarray:
    """Read-only ``(L+1, L)`` uint8 table: row l marks the loci >= l, and
    row L, all zero, is the mask of a pair that does not cross."""
    masks = (np.arange(length) >= np.arange(length + 1)[:, None]).view(np.uint8)
    masks.flags.writeable = False
    return masks


def single_point_crossover(
    bits: np.ndarray, rate: float, rng: np.random.Generator | RunStreams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise single-point crossover of an ``(..., m, L)`` matrix, m even.

    Rows ``2i`` and ``2i+1`` form pair i.  Each pair crosses with probability
    ``rate``; a crossing pair swaps its suffixes after a locus drawn
    uniformly from {1, ..., L-1}.  All pair coins are drawn before all loci.
    The swap XORs the pair's differing suffix bits into both rows.  Returns
    the children and, per row, whether its pair crossed and whether it changed.
    """
    pairs, length = bits.shape[-2] // 2, bits.shape[-1]
    coins = rng.random(pairs) < rate
    loci = rng.integers(1, length, size=pairs)
    pair = bits.reshape(bits.shape[:-2] + (pairs, 2, length))
    diff = pair[..., 0, :] ^ pair[..., 1, :]
    diff &= _suffix_masks(length).take(np.where(coins, loci, length), axis=0)
    child = (pair ^ diff[..., None, :]).reshape(bits.shape)
    return child, coins.repeat(2, axis=-1), diff.any(axis=-1).repeat(2, axis=-1)


def bit_flip_mutation(
    bits: np.ndarray, rate: float, rng: np.random.Generator | RunStreams
) -> tuple[np.ndarray, np.ndarray]:
    """Flip every bit of an ``(..., m, L)`` matrix independently with
    probability ``rate``.  Returns the mutants and, per row, whether any bit
    flipped.

    The flips are sampled sparsely, with the law of independent Bernoulli
    flips: each run's generator draws the flip count ``K ~ Binomial(mL,
    rate)``, then a uniform K-subset of the positions of its row-major
    ``(m, L)`` block, so the cost grows with the flips, not with the bits.
    """
    m, length = bits.shape[-2:]
    cells = m * length
    generators = rng if isinstance(rng, RunStreams) else (rng,)
    flat = np.concatenate([
        g.choice(cells, size=g.binomial(cells, rate), replace=False) + r * cells
        for r, g in enumerate(generators)
    ])
    mutated = bits.copy()
    mutated.reshape(-1)[flat] ^= 1
    touched = np.zeros(bits.shape[:-1], dtype=bool)
    touched.reshape(-1)[flat // length] = True
    return mutated, touched


def single_bit_mutation(
    bits: np.ndarray, rate: float, rng: np.random.Generator | RunStreams
) -> tuple[np.ndarray, np.ndarray]:
    """With probability ``rate`` per row, flip one uniformly chosen bit.

    All row coins are drawn before all bit positions.  Returns the mutants
    and, per row, whether a bit flipped.
    """
    m, length = bits.shape[-2:]
    do = rng.random(m) < rate
    which = rng.integers(0, length, size=m)
    mutated = bits.copy()
    hit = np.nonzero(do)
    mutated[(*hit, which[hit])] ^= 1
    return mutated, do


# ---------------------------------------------------------------------------
# replacement
# ---------------------------------------------------------------------------


@dataclass
class EliteState:
    """Mutable carry-over size for the adaptive elitist replacement: an int
    for one run, an ``(R,)`` integer array for a stack."""

    n_elite: int | np.ndarray

    def __post_init__(self) -> None:
        if np.min(self.n_elite) < 1:
            raise ValueError("elite size must be at least 1")


def adaptive_elitism_replace(
    parents: Population, offspring: Population, state: EliteState
) -> Population:
    """Merge the best elites of the parents with the best offspring.

    When the offspring pool improves both the mean and the variance of the
    parent fitness, the elite count first halves, floored at one so the
    incumbent best always survives.  Each run of a stack keeps its own elite
    count.  The merged rows are not rescanned: both populations' fitness was
    checked finite where it entered.
    """
    if parents.fitness.shape != offspring.fitness.shape:
        raise ValueError("parent and offspring populations must have equal size")
    ps = parents.stats
    os = offspring.stats
    halved = state.n_elite >> ((os.mean > ps.mean) & (os.variance > ps.variance))
    state.n_elite = halved + (halved == 0)  # floored at one
    n, length = parents.bits.shape[-2:]
    best_parents = parents.fitness.argsort(axis=-1)[..., ::-1]
    best_offspring = offspring.fitness.argsort(axis=-1)[..., ::-1]
    if parents.fitness.ndim == 1:
        k = min(state.n_elite, n)
        elite, rest = best_parents[:k], best_offspring[: n - k]
        return Population._checked(
            np.concatenate((parents.bits.take(elite, axis=0), offspring.bits.take(rest, axis=0))),
            np.concatenate((parents.fitness.take(elite), offspring.fitness.take(rest))),
        )
    # each run of a stack has its own k: its rank j takes its parents' j-th
    # best while j < k, then its offspring's (j-k)-th best, from its rows of
    # the parents-then-offspring stack (where j < k, j - k is a valid index
    # whose value np.where discards)
    ranks, k = np.arange(n), np.minimum(state.n_elite, n)[:, None]
    later = best_offspring.ravel()[_flat(ranks - k, n)] + n
    src = _flat(np.where(ranks < k, best_parents, later), 2 * n)
    bits = np.concatenate((parents.bits, offspring.bits), axis=-2)
    fit = np.concatenate((parents.fitness, offspring.fitness), axis=-1)
    return Population._checked(bits.reshape(-1, length).take(src, axis=0), fit.take(src))


# ---------------------------------------------------------------------------
# one full generation
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LineageRecord:
    """Per-slot parentage and per-stage fitness of one generation's offspring.

    Slot ``j`` holds the lineage chain of the j-th offspring: the parent that
    won selection slot j, the fitness of that copy (identical to the parent's,
    selection adds no new solutions), and the fitness of the chromosome
    occupying the slot after crossover and after mutation.  ``pair_crossed``
    marks whether the slot's pair actually exchanged material.  The arrays
    are taken as given, with the cached fitness summaries of the parents and
    of the offspring pool.  For a stack every array has a leading run axis
    and ``slot_parent`` indexes each run's own parents.
    """

    parent_fitness: np.ndarray
    slot_parent: np.ndarray
    pair_crossed: np.ndarray
    fitness_after_selection: np.ndarray
    fitness_after_crossover: np.ndarray
    fitness_after_mutation: np.ndarray
    parent_stats: FitnessStats
    offspring_stats: FitnessStats

    def __post_init__(self) -> None:
        m = self.slot_parent.shape
        for a in (self.pair_crossed, self.fitness_after_selection,
                  self.fitness_after_crossover, self.fitness_after_mutation):
            if a.shape != m:
                raise ValueError("lineage arrays must share the slot count")

    @property
    def population_size(self) -> int:
        return self.parent_fitness.shape[-1]

    def stage_deltas(self, stage: str) -> np.ndarray:
        """Per-slot fitness change across one operator stage."""
        if stage == "selection":
            parent = self.parent_fitness.take(_flat(self.slot_parent, self.population_size))
            return self.fitness_after_selection - parent
        if stage == "crossover":
            return self.fitness_after_crossover - self.fitness_after_selection
        if stage == "mutation":
            return self.fitness_after_mutation - self.fitness_after_crossover
        raise KeyError(f"unknown stage {stage!r}")

    def selection_stage_z(self) -> np.ndarray:
        """Offspring count of each parent: the number of slots it won."""
        parents = self.parent_fitness
        flat = _flat(self.slot_parent, self.population_size).ravel()
        return np.bincount(flat, minlength=parents.size).reshape(parents.shape)

    def crossover_stage_z(self) -> np.ndarray:
        """Offspring attributed to each selected instance by the crossover
        stage: two children when its pair crossed, its own copy otherwise."""
        return np.where(self.pair_crossed, 2, 1).astype(np.int64)


class GenerationResult(NamedTuple):
    population: Population
    lineage: LineageRecord
    stats: FitnessStats


class Engine:
    """Seeded driver owning the RNG stream(s), elite state and evaluation count.

    ``fitness_fn`` maps an ``(m, L)`` bit matrix to ``m`` fitness values
    (maximization).  ``rng`` is one generator (by default seeded with ``cfg.rng_seed``) for a
    single run, or a :class:`RunStreams` for a stack of runs stepped
    together.  :attr:`run_evaluations` counts each run's objective
    evaluations, shape ``()`` for a single run and ``(R,)`` for a stack;
    :attr:`evaluations` is their total.
    """

    def __init__(
        self,
        cfg: GAConfig,
        chromosome_length: int,
        fitness_fn: Callable[[np.ndarray], np.ndarray],
        rng: np.random.Generator | RunStreams | None = None,
    ):
        if chromosome_length < 2:
            raise ValueError("chromosome length must be >= 2")
        self.cfg = cfg
        self.chromosome_length = chromosome_length
        self.rng = rng if rng is not None else np.random.default_rng(cfg.rng_seed)
        shape = (len(self.rng),) if isinstance(self.rng, RunStreams) else ()
        n_elite = math.ceil(cfg.overlap_fraction * cfg.population_size)
        self.elite = EliteState(np.full(shape, n_elite) if shape else n_elite)
        self.run_evaluations = np.zeros(shape, dtype=np.int64)
        self._fitness_fn = fitness_fn

    @property
    def evaluations(self) -> int:
        """Objective evaluations of all runs together."""
        return int(self.run_evaluations.sum())

    @property
    def runs(self) -> int:
        """The number of runs stepped together (1 for a single run)."""
        return self.run_evaluations.size

    def _evaluate(self, bits: np.ndarray) -> np.ndarray:
        values = np.asarray(self._fitness_fn(bits), dtype=float)
        if values.shape != (bits.shape[0],):
            raise ValueError("fitness function must return one value per row")
        return values

    def random_population(self) -> Population:
        return self.seeded_population([])

    def seeded_population(self, seeds: list[np.ndarray]) -> Population:
        """Random population topped up with explicit seed chromosomes (the
        same seeds in every run of a stack)."""
        n = self.cfg.population_size
        if len(seeds) > n:
            raise ValueError("more seeds than population slots")
        bits = random_bits(self.chromosome_length, n - len(seeds), self.rng)
        seeds = np.asarray(seeds, dtype=np.uint8).reshape(-1, self.chromosome_length)
        bits = np.concatenate(
            (bits, np.broadcast_to(seeds, bits.shape[:-2] + seeds.shape)), axis=-2
        )
        self.run_evaluations += n
        values = self._evaluate(bits.reshape(-1, self.chromosome_length))
        return Population(bits, values.reshape(bits.shape[:-1]))

    def step(self, pop: Population) -> GenerationResult:
        """Advance one generation (of one run, or of every run of a stack)
        and capture its lineage.

        Chromosomes left untouched by an operator inherit their fitness, and
        the rows that crossover or mutation changed, in every run, are scored
        together: one fitness call per generation (none when no row changed)
        and at most two evaluations per slot.  Only those new values are
        checked finite; inherited ones were checked when they entered.
        Selection and replacement are looked up as module globals at call
        time, so they can be rebound from outside.
        """
        cfg = self.cfg
        if cfg.selection is SelectionMethod.ROULETTE_WHEEL:
            slots = roulette_select(pop, len(pop), self.rng)
        else:
            slots = binary_tournament_cycle(pop, self.rng)
        n, length = pop.bits.shape[-2:]
        at = _flat(slots, n)
        sel_bits = pop.bits.reshape(-1, length).take(at, axis=0)
        f_sel = pop.fitness.take(at)

        child, crossed, changed = single_point_crossover(sel_bits, cfg.crossover_rate, self.rng)
        mutate = bit_flip_mutation if cfg.mutation_scheme == "per-bit" else single_bit_mutation
        mutated, touched = mutate(child, cfg.mutation_rate, self.rng)

        xo_at, mut_at = np.flatnonzero(changed), np.flatnonzero(touched)
        n_xo = xo_at.shape[0]
        rows = np.concatenate((child.reshape(-1, length).take(xo_at, axis=0),
                               mutated.reshape(-1, length).take(mut_at, axis=0)))
        if changed.ndim == 1:  # one run scored every gathered row
            self.run_evaluations += rows.shape[0]
        else:
            self.run_evaluations += np.add.reduce(changed, -1) + np.add.reduce(touched, -1)
        values = self._evaluate(rows) if rows.shape[0] else np.empty(0)
        if not np.isfinite(values).all():
            raise ValueError("all members must carry finite fitness")
        f_xo = f_sel.copy()
        f_xo.put(xo_at, values[:n_xo])
        f_mut = f_xo.copy()
        f_mut.put(mut_at, values[n_xo:])

        offspring = Population._checked(mutated, f_mut)
        nxt = adaptive_elitism_replace(pop, offspring, self.elite)
        lineage = LineageRecord(
            pop.fitness, slots, crossed, f_sel, f_xo, f_mut, pop.stats, offspring.stats
        )
        return GenerationResult(nxt, lineage, nxt.stats)
