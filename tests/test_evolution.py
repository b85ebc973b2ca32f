"""Selection, variation, replacement and the generation step."""

import numpy as np
import pytest

from conftest import chi_square_statistic
from ecsqp.evolution import (
    EliteState,
    Engine,
    FitnessStats,
    GAConfig,
    Population,
    SelectionMethod,
    adaptive_elitism_replace,
    binary_tournament_cycle,
    bit_flip_mutation,
    evolve_generation,
    roulette_select,
    single_bit_mutation,
    single_point_crossover,
    tournament_select,
)

CHI2_CRIT_DF3_P01 = 11.345  # chi-square 0.99 quantile, 3 degrees of freedom


def make_pop(fitness, length=8, seed=0):
    fitness = np.asarray(fitness, dtype=float)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(fitness.size, length), dtype=np.uint8)
    return Population(bits, fitness)


def bit_objective(weights):
    return lambda bits: bits @ weights + 1.0


class TestRouletteSelect:
    def test_uniform_fitness_uniform_probability(self, rng):
        pop = make_pop([1.0, 1.0, 1.0, 1.0])
        idx = roulette_select(pop, 100_000, rng)
        counts = np.bincount(idx, minlength=4)
        assert chi_square_statistic(counts, [25_000] * 4) < CHI2_CRIT_DF3_P01

    def test_three_to_one_odds(self, rng):
        pop = make_pop([3.0, 1.0])
        idx = roulette_select(pop, 100_000, rng)
        freq = np.mean(idx == 0)
        assert freq == pytest.approx(0.75, abs=0.02)

    def test_single_member(self, rng):
        pop = make_pop([5.0])
        assert np.all(roulette_select(pop, 20, rng) == 0)

    def test_frequencies_proportional_to_fitness(self, rng):
        fitness = np.array([1.0, 2.0, 3.0, 4.0])
        pop = make_pop(fitness)
        idx = roulette_select(pop, 100_000, rng)
        counts = np.bincount(idx, minlength=4)
        expected = fitness / fitness.sum() * 100_000
        assert chi_square_statistic(counts, expected) < CHI2_CRIT_DF3_P01

    def test_nonpositive_fitness_falls_back_to_uniform(self, rng):
        pop = make_pop([-3.0, -1.0, 2.0, 5.0])
        idx = roulette_select(pop, 100_000, rng)
        counts = np.bincount(idx, minlength=4)
        assert chi_square_statistic(counts, [25_000] * 4) < CHI2_CRIT_DF3_P01

    def test_nonfinite_total_raises(self, rng):
        pop = make_pop([1.0, 2.0])
        pop.fitness[0] = np.inf
        with pytest.raises(ValueError):
            roulette_select(pop, 10, rng)


class TestTournamentSelect:
    def test_full_tournament_always_returns_best(self, rng):
        pop = make_pop([4.0, 9.0, 2.0, 7.0])
        idx = tournament_select(pop, 4, 50, rng)
        assert np.all(idx == 1)

    def test_size_one_is_uniform(self, rng):
        pop = make_pop([4.0, 3.0, 2.0, 1.0])
        idx = tournament_select(pop, 1, 100_000, rng)
        counts = np.bincount(idx, minlength=4)
        assert chi_square_statistic(counts, [25_000] * 4) < CHI2_CRIT_DF3_P01

    def test_binary_frequency_matches_pair_enumeration(self, rng):
        # Enumerating unordered pairs without replacement: the best member is
        # in (N-1) of the C(N,2) pairs and wins each, so its per-draw
        # selection probability is (N-1)/C(N,2) = 2/N = 0.5 for N=4.  (The
        # formula 2(N-1)/N^2 = 0.375 corresponds to with-replacement pairs.)
        fitness = [4.0, 3.0, 2.0, 1.0]
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        wins = sum(1 for i, j in pairs if max(fitness[i], fitness[j]) == 4.0)
        expected = wins / len(pairs)
        assert expected == 0.5
        pop = make_pop(fitness)
        idx = tournament_select(pop, 2, 100_000, rng)
        assert np.mean(idx == 0) == pytest.approx(expected, abs=0.02)

    def test_oversized_tournament_rejected(self, rng):
        with pytest.raises(ValueError):
            tournament_select(make_pop([1.0, 2.0]), 3, 5, rng)

    def test_ties_split_evenly(self, rng):
        pop = make_pop([1.0, 1.0])
        idx = tournament_select(pop, 2, 20_000, rng)
        assert np.mean(idx == 0) == pytest.approx(0.5, abs=0.02)


class TestTournamentCycle:
    def test_each_member_plays_exactly_twice(self, rng):
        pop = make_pop(np.arange(10, dtype=float))
        winners = binary_tournament_cycle(pop, rng)
        assert winners.shape == (10,)
        # the best member wins both of its contests, the worst wins none
        counts = np.bincount(winners, minlength=10)
        assert counts[9] == 2
        assert counts[0] == 0

    def test_winner_count_bounded_by_participation(self, rng):
        pop = make_pop(np.arange(20, dtype=float))
        for _ in range(50):
            counts = np.bincount(binary_tournament_cycle(pop, rng), minlength=20)
            assert counts.max() <= 2


def rows(*texts):
    return np.array([[int(c) for c in t] for t in texts], dtype=np.uint8)


def text(row):
    return "".join(map(str, row))


class FixedLoci:
    """Draw source for crossover whose every pair crosses at given loci."""

    def __init__(self, *loci):
        self.loci = np.array(loci)

    def random(self, size):
        return np.zeros(size)

    def integers(self, low, high, size):
        assert size == self.loci.size and np.all((low <= self.loci) & (self.loci < high))
        return self.loci


class TestCrossover:
    def test_worked_example(self):
        parents = rows("1010110", "0101101")
        children, crossed = single_point_crossover(parents, 1.0, FixedLoci(3))
        assert text(children[0]) == "1011101"
        assert text(children[1]) == "0100110"
        assert crossed.tolist() == [True, True]

    def test_identical_parents_unchanged(self):
        parents = rows("1101", "1101")
        for locus in range(1, 4):
            children, _ = single_point_crossover(parents, 1.0, FixedLoci(locus))
            np.testing.assert_array_equal(children, parents)

    def test_last_locus_swaps_single_bit(self):
        children, _ = single_point_crossover(rows("0000", "1111"), 1.0, FixedLoci(3))
        assert text(children[0]) == "0001"
        assert text(children[1]) == "1110"

    def test_random_locus_in_range(self, rng):
        parents = np.tile(rows("0" * 10, "1" * 10), (200, 1))
        children, _ = single_point_crossover(parents, 1.0, rng)
        prefix_len = np.argmax(children[0::2], axis=1)  # first 1 marks the locus
        assert np.all((1 <= prefix_len) & (prefix_len <= 9))


class TestMutation:
    def test_zero_rate_is_identity(self, rng):
        c = rows("1011")
        for mutate in (bit_flip_mutation, single_bit_mutation):
            mutated, touched = mutate(c, 0.0, rng)
            np.testing.assert_array_equal(mutated, c)
            assert not touched.any()

    def test_unit_rate_is_complement(self, rng):
        c = rows("1011")
        mutated, touched = bit_flip_mutation(c, 1.0, rng)
        np.testing.assert_array_equal(mutated, 1 - c)
        assert touched.all()

    def test_expected_hamming_distance(self, rng):
        # binomial expectation: L * Pm = 1 flip per chromosome at Pm = 1/L
        L = 100
        zeros = np.zeros((10_000, L), np.uint8)
        total = sum(int(bit_flip_mutation(zeros, 1.0 / L, rng)[0].sum()) for _ in range(10))
        assert total / 100_000 == pytest.approx(1.0, abs=0.05)

    def test_single_bit_scheme_flips_at_most_one(self, rng):
        mutated, touched = single_bit_mutation(np.zeros((2000, 50), np.uint8), 0.5, rng)
        flips = mutated.sum(axis=1)
        assert set(flips.tolist()) <= {0, 1}
        np.testing.assert_array_equal(flips == 1, touched)
        assert np.mean(flips) == pytest.approx(0.5, abs=0.05)


class TestFitnessStats:
    def test_constant(self):
        s = FitnessStats.from_values(np.array([2.0, 2.0, 2.0]))
        assert (s.mean, s.variance) == (2.0, 0.0)

    def test_population_variance(self):
        s = FitnessStats.from_values(np.array([1.0, 3.0]))
        assert (s.mean, s.variance, s.best, s.worst) == (2.0, 1.0, 3.0, 1.0)

    def test_singleton(self):
        s = FitnessStats.from_values(np.array([838.0]))
        assert s.best == s.worst == s.mean == 838.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FitnessStats.from_values(np.array([]))


class TestAdaptiveElitism:
    def test_elites_survive_worse_offspring(self):
        parents = make_pop(np.arange(10, 20, dtype=float))
        offspring = make_pop(np.zeros(10))
        state = EliteState(n_elite=5)
        merged = adaptive_elitism_replace(parents, offspring, state)
        top5 = np.sort(merged.fitness)[::-1][:5]
        np.testing.assert_array_equal(top5, [19.0, 18.0, 17.0, 16.0, 15.0])
        assert len(merged) == 10

    def test_shrink_halves_and_floors_at_one(self):
        state = EliteState(n_elite=5)
        parents = make_pop(np.ones(4))
        for expected in (2, 1, 1, 1):
            better = make_pop(np.array([2.0, 3.0, 4.0, 5.0]) + state.n_elite)
            adaptive_elitism_replace(parents, better, state)
            assert state.n_elite == expected

    def test_no_shrink_without_joint_improvement(self):
        state = EliteState(n_elite=4)
        parents = make_pop(np.array([0.0, 2.0, 4.0, 6.0]))
        same_variance_better_mean = make_pop(np.array([1.0, 3.0, 5.0, 7.0]))
        adaptive_elitism_replace(parents, same_variance_better_mean, state)
        assert state.n_elite == 4

    def test_best_parent_preserved(self):
        parents = make_pop([1.0, 9.0, 2.0, 3.0])
        offspring = make_pop([5.0, 5.0, 5.0, 5.0])
        merged = adaptive_elitism_replace(parents, offspring, EliteState(n_elite=1))
        assert merged.fitness.max() == 9.0


class TestEvolveGeneration:
    def test_no_variation_yields_parent_multiset(self, rng):
        w = rng.normal(size=8)
        fit = bit_objective(w)
        cfg = GAConfig(population_size=6, crossover_rate=0.0, mutation_rate=0.0,
                       overlap_fraction=0.34, rng_seed=3)
        eng = Engine(cfg, 8, fit)
        pop = eng.random_population()
        eng.elite.n_elite = 6  # full overlap: children are ignored
        result = eng.step(pop)
        np.testing.assert_array_equal(
            np.sort(result.population.fitness), np.sort(pop.fitness)
        )
        assert result.stats.mean >= pop.fitness.mean() - 1e-12

    def test_full_crossover_accounting_is_two_per_instance(self, rng):
        w = rng.normal(size=10)
        cfg = GAConfig(population_size=8, crossover_rate=1.0, mutation_rate=0.1,
                       overlap_fraction=0.25, rng_seed=5)
        eng = Engine(cfg, 10, bit_objective(w))
        pop = eng.random_population()
        for _ in range(5):
            pop, lineage, _ = eng.step(pop)
            np.testing.assert_array_equal(lineage.crossover_stage_z(), np.full(8, 2))

    def test_fitness_summarized_twice_per_step(self, rng, monkeypatch):
        # offspring and new population; the parents' summary is the one the
        # previous step already computed for its new population
        w = rng.normal(size=10)
        cfg = GAConfig(population_size=8, mutation_rate=0.1, overlap_fraction=0.25,
                       rng_seed=5)
        eng = Engine(cfg, 10, bit_objective(w))
        pop = eng.step(eng.random_population()).population
        from_values = FitnessStats.from_values.__func__
        calls = 0

        def counting(cls, values):
            nonlocal calls
            calls += 1
            return from_values(cls, values)

        monkeypatch.setattr(FitnessStats, "from_values", classmethod(counting))
        for _ in range(5):
            calls = 0
            result = eng.step(pop)
            assert calls == 2
            assert result.stats == FitnessStats.from_values(result.population.fitness)
            pop = result.population

    def test_selection_stage_copies_fitness(self, rng):
        w = rng.normal(size=10)
        cfg = GAConfig(population_size=6, overlap_fraction=0.25, rng_seed=9,
                       mutation_rate=0.2)
        eng = Engine(cfg, 10, bit_objective(w))
        pop = eng.random_population()
        for _ in range(5):
            pop, lineage, _ = eng.step(pop)
            np.testing.assert_array_equal(
                lineage.fitness_after_selection,
                lineage.parent_fitness[lineage.slot_parent],
            )

    def test_population_size_constant(self, rng):
        cfg = GAConfig(population_size=10, rng_seed=4, mutation_rate=0.05,
                       overlap_fraction=0.2)
        eng = Engine(cfg, 12, bit_objective(rng.normal(size=12)))
        pop = eng.random_population()
        for _ in range(10):
            pop, _, _ = eng.step(pop)
            assert len(pop) == 10

    def test_best_so_far_monotone(self, rng):
        for scheme in ("per-bit", "per-chromosome"):
            cfg = GAConfig(population_size=10, rng_seed=11, mutation_rate=0.1,
                           overlap_fraction=0.2, mutation_scheme=scheme)
            eng = Engine(cfg, 12, bit_objective(rng.normal(size=12)))
            pop = eng.random_population()
            best = pop.fitness.max()
            for _ in range(30):
                pop, _, _ = eng.step(pop)
                assert pop.fitness.max() >= best - 1e-12
                best = max(best, pop.fitness.max())

    def test_fixed_seed_reproduces_lineage_stream(self):
        w = np.random.default_rng(0).normal(size=16)
        runs = []
        for _ in range(2):
            cfg = GAConfig(population_size=8, rng_seed=42, mutation_rate=0.1,
                           overlap_fraction=0.25)
            eng = Engine(cfg, 16, bit_objective(w))
            pop = eng.random_population()
            stream = []
            for _ in range(20):
                pop, lineage, stats = eng.step(pop)
                stream.append(
                    (
                        lineage.slot_parent.tolist(),
                        lineage.fitness_after_mutation.tolist(),
                        stats.best,
                    )
                )
            runs.append(stream)
        assert runs[0] == runs[1]

    def test_rws_engine_path(self, rng):
        cfg = GAConfig(population_size=6, selection=SelectionMethod.ROULETTE_WHEEL,
                       overlap_fraction=0.34, rng_seed=2, mutation_rate=0.1)
        eng = Engine(cfg, 8, bit_objective(np.abs(rng.normal(size=8)) + 0.1))
        pop = eng.random_population()
        result = eng.step(pop)
        assert len(result.population) == 6

    def test_evaluation_reuse_counts_only_changed_rows(self):
        cfg = GAConfig(population_size=6, crossover_rate=0.0, mutation_rate=0.0,
                       overlap_fraction=0.34, rng_seed=8)
        eng = Engine(cfg, 8, bit_objective(np.ones(8)))
        pop = eng.random_population()
        before = eng.evaluations
        eng.step(pop)  # nothing changes: no new evaluations
        assert eng.evaluations == before

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=5)  # odd
        with pytest.raises(ValueError):
            GAConfig(population_size=6, overlap_fraction=0.05)  # G*N < 1
        with pytest.raises(ValueError):
            GAConfig(population_size=6, overlap_fraction=0.2, crossover_rate=1.5)
        with pytest.raises(ValueError):
            GAConfig(population_size=6, overlap_fraction=0.2, mutation_scheme="x")
