"""Selection, variation, replacement and the generation step."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import chi_square_statistic
from ecsqp.evolution import (
    EliteState,
    Engine,
    FitnessStats,
    GAConfig,
    Population,
    RunStreams,
    SelectionMethod,
    adaptive_elitism_replace,
    binary_tournament_cycle,
    bit_flip_mutation,
    roulette_select,
    single_bit_mutation,
    single_point_crossover,
    tournament_select,
)
from ecsqp.price_monitor import decompose_generation

CHI2_CRIT_DF3_P01 = 11.345  # chi-square 0.99 quantile, 3 degrees of freedom
CHI2_CRIT_DF199_P999 = 266.386  # chi-square 0.999 quantile, 199 degrees of freedom


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


def two_round_tournament_cycle(pop, rng):
    """The tournament cycle as it was, round by round, kept as its oracle:
    each round draws its permutation and coins, then decides its contests."""
    n = len(pop)
    f = pop.fitness.ravel()
    rounds = []
    for _ in range(2):
        perm = rng.permutation(n)
        coin = rng.random(n // 2) < 0.5
        a, b = perm[..., 0::2], perm[..., 1::2]
        offset = (n * np.arange(a.shape[0]))[:, None] if a.ndim == 2 else 0
        fa, fb = f[a + offset], f[b + offset]
        rounds.append(np.where((fa > fb) | ((fa == fb) & coin), a, b))
    return np.concatenate(rounds, axis=-1)


class TestTournamentCycleOracle:
    """Both rounds drawn first and decided together: the winners and the
    draws consumed equal the round-by-round oracle's, ties included."""

    @pytest.mark.parametrize("n", [2, 6, 200])
    def test_single_run_with_ties_equals_two_round_oracle(self, n):
        for seed in range(20):
            # integer fitness from a small range ties most contests
            fitness = np.random.default_rng(seed).integers(0, 3, n).astype(float)
            pop = make_pop(fitness, seed=seed)
            new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = binary_tournament_cycle(pop, new_rng)
            want = two_round_tournament_cycle(pop, old_rng)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            assert new_rng.random() == old_rng.random()  # the same draws were consumed

    def test_three_run_stack_with_ties_equals_two_round_oracle(self):
        seeds = [7, 8, 9]
        for gen in range(20):
            fitness = np.random.default_rng(gen).integers(0, 3, (3, 10)).astype(float)
            pop = Population(np.zeros((3, 10, 4), np.uint8), fitness)
            new = RunStreams(np.random.default_rng([s, gen]) for s in seeds)
            old = RunStreams(np.random.default_rng([s, gen]) for s in seeds)
            got = binary_tournament_cycle(pop, new)
            want = two_round_tournament_cycle(pop, old)
            assert got.shape == (3, 10)
            np.testing.assert_array_equal(got, want)
            # each run's winners are its own, from its own generator alone
            for r, s in enumerate(seeds):
                alone = binary_tournament_cycle(Population(pop.bits[r], fitness[r]),
                                                np.random.default_rng([s, gen]))
                np.testing.assert_array_equal(got[r], alone)
            assert [g.random() for g in new] == [g.random() for g in old]

    def test_all_tied_population_is_decided_by_the_coins_alone(self):
        pop = make_pop(np.ones(8))
        got = binary_tournament_cycle(pop, np.random.default_rng(5))
        replay = np.random.default_rng(5)
        draws = [(replay.permutation(8), replay.random(4) < 0.5) for _ in range(2)]
        want = np.concatenate([np.where(coin, p[0::2], p[1::2]) for p, coin in draws])
        np.testing.assert_array_equal(got, want)


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
        children, crossed, _ = single_point_crossover(parents, 1.0, FixedLoci(3))
        assert text(children[0]) == "1011101"
        assert text(children[1]) == "0100110"
        assert crossed.tolist() == [True, True]

    def test_identical_parents_unchanged(self):
        parents = rows("1101", "1101")
        for locus in range(1, 4):
            children, _, _ = single_point_crossover(parents, 1.0, FixedLoci(locus))
            np.testing.assert_array_equal(children, parents)

    def test_last_locus_swaps_single_bit(self):
        children, _, _ = single_point_crossover(rows("0000", "1111"), 1.0, FixedLoci(3))
        assert text(children[0]) == "0001"
        assert text(children[1]) == "1110"

    def test_random_locus_in_range(self, rng):
        parents = np.tile(rows("0" * 10, "1" * 10), (200, 1))
        children, _, _ = single_point_crossover(parents, 1.0, rng)
        prefix_len = np.argmax(children[0::2], axis=1)  # first 1 marks the locus
        assert np.all((1 <= prefix_len) & (prefix_len <= 9))


def where_crossover(bits, rate, rng):
    """The ``np.where`` suffix swap the XOR crossover replaced, kept as its
    oracle: same draws, children, crossed flags and change detection."""
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
    return child, np.repeat(coins, 2), (child != bits).any(axis=1)


class TestCrossoverOracle:
    @pytest.mark.parametrize("rate", [1.0, 0.6])
    @pytest.mark.parametrize("length", [2, 170])
    @pytest.mark.parametrize("m", [2, 8, 200])
    def test_bitwise_equal_to_where_swap(self, rate, length, m):
        for seed in range(5):
            bits = np.random.default_rng(seed).integers(0, 2, (m, length), np.uint8)
            new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = single_point_crossover(bits, rate, new_rng)
            want = where_crossover(bits, rate, old_rng)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)
            # the same draws were consumed
            assert new_rng.random() == old_rng.random()

    @pytest.mark.parametrize("length", [2, 170])
    def test_identical_parents_match_oracle(self, length):
        row = np.random.default_rng(3).integers(0, 2, length, np.uint8)
        bits = np.tile(row, (20, 1))
        got = single_point_crossover(bits, 1.0, np.random.default_rng(4))
        want = where_crossover(bits, 1.0, np.random.default_rng(4))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(got[0], bits)
        assert got[1].all() and not got[2].any()

    def test_children_do_not_alias_parents(self):
        bits = np.zeros((4, 6), np.uint8)
        child, _, _ = single_point_crossover(bits, 0.0, np.random.default_rng(0))
        child[0, 0] = 1
        assert bits[0, 0] == 0


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

    def test_flips_per_row_are_binomial(self):
        # Binomial(L, Pm) at L=170, Pm=1/170: mean 1 and variance 169/170;
        # over 40,000 rows the standard errors are about 0.005 and 0.009
        L, rate = 170, 1.0 / 170
        rng = np.random.default_rng(20)
        zeros = np.zeros((200, L), np.uint8)
        flips = np.concatenate(
            [bit_flip_mutation(zeros, rate, rng)[0].sum(axis=1) for _ in range(200)]
        )
        assert flips.mean() == pytest.approx(L * rate, abs=0.03)
        assert flips.var() == pytest.approx(L * rate * (1 - rate), abs=0.05)

    def test_flip_positions_are_uniform(self):
        # 2,000 calls at rate 0.05 on 200 cells: about 100 flips per cell
        rng = np.random.default_rng(21)
        zeros = np.zeros((20, 10), np.uint8)
        counts = sum(
            bit_flip_mutation(zeros, 0.05, rng)[0].astype(np.int64) for _ in range(2000)
        ).ravel()
        expected = [counts.sum() / counts.size] * counts.size
        assert chi_square_statistic(counts, expected) < CHI2_CRIT_DF199_P999

    @pytest.mark.parametrize("rate", [0.001, 0.02, 0.5])
    def test_touched_marks_the_rows_that_changed(self, rate):
        rng = np.random.default_rng(22)
        bits = rng.integers(0, 2, size=(300, 40), dtype=np.uint8)
        before = bits.copy()
        mutated, touched = bit_flip_mutation(bits, rate, rng)
        np.testing.assert_array_equal(bits, before)
        assert mutated.dtype == np.uint8 and touched.dtype == bool
        np.testing.assert_array_equal(touched, (mutated != bits).any(axis=1))
        assert 0 < touched.sum() <= 300

    def test_draws_the_flip_count_then_a_subset_of_positions(self):
        mutated, _ = bit_flip_mutation(np.zeros((50, 17), np.uint8), 0.03,
                                       np.random.default_rng(5))
        g = np.random.default_rng(5)
        expected = np.zeros(50 * 17, np.uint8)
        expected[g.choice(850, size=g.binomial(850, 0.03), replace=False)] = 1
        np.testing.assert_array_equal(mutated.ravel(), expected)

    def test_stacked_runs_equal_their_generators_alone(self):
        bits = np.random.default_rng(23).integers(0, 2, size=(3, 40, 30), dtype=np.uint8)
        seeds = [7, 8, 9]
        mutated, touched = bit_flip_mutation(
            bits, 0.02, RunStreams(np.random.default_rng(s) for s in seeds)
        )
        assert mutated.shape == bits.shape and touched.shape == (3, 40)
        for r, s in enumerate(seeds):
            alone, alone_touched = bit_flip_mutation(bits[r], 0.02, np.random.default_rng(s))
            np.testing.assert_array_equal(mutated[r], alone)
            np.testing.assert_array_equal(touched[r], alone_touched)

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

    def test_bitwise_equal_to_ndarray_moments(self):
        rng = np.random.default_rng(12)
        samples = [rng.normal(size=n) * 10.0 ** rng.integers(-3, 6) + rng.normal()
                   for n in (1, 2, 3, 7, 50, 100, 129, 200, 1000)]
        samples.append(-np.abs(rng.normal(size=200)) * 1e3 - 837.0)
        for v in samples:
            s = FitnessStats.from_values(v)
            assert s.mean == float(v.mean())
            assert s.variance == float(v.var())
            assert (s.best, s.worst) == (float(v.max()), float(v.min()))


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


def reference_replace(parents, offspring, state):
    """Adaptive elitist replacement as it was with the merged rows rescanned."""
    ps = FitnessStats.from_values(parents.fitness)
    os = FitnessStats.from_values(offspring.fitness)
    if os.mean > ps.mean and os.variance > ps.variance:
        state.n_elite = max(1, state.n_elite // 2)
    n = len(parents)
    k = min(state.n_elite, n)
    elite_idx = np.argsort(parents.fitness)[::-1][:k]
    off_idx = np.argsort(offspring.fitness)[::-1][: n - k]
    bits = np.concatenate((parents.bits[elite_idx], offspring.bits[off_idx]))
    fit = np.concatenate((parents.fitness[elite_idx], offspring.fitness[off_idx]))
    return Population(bits, fit)


class TestReplacementOracle:
    def test_equal_to_reference_on_tied_fitness(self):
        # integer fitness from a small range ties heavily; distinct bits make
        # the order among tied rows visible
        rng = np.random.default_rng(23)
        for m in range(2, 201):
            parents = make_pop(rng.integers(0, 4, m), length=12, seed=m)
            offspring = make_pop(rng.integers(0, 5, m), length=12, seed=1000 + m)
            for n_elite in range(1, m + 1):
                state, ref_state = EliteState(n_elite), EliteState(n_elite)
                got = adaptive_elitism_replace(parents, offspring, state)
                want = reference_replace(parents, offspring, ref_state)
                assert state.n_elite == ref_state.n_elite
                np.testing.assert_array_equal(got.bits, want.bits)
                np.testing.assert_array_equal(got.fitness, want.fitness)
                assert got.bits.dtype == want.bits.dtype
                assert got.fitness.dtype == want.fitness.dtype


class TestFiniteness:
    @staticmethod
    def poisoned(bad):
        # scores every row, then, once armed, puts ``bad`` in the first row
        fit = bit_objective(np.linspace(-1.0, 1.0, 12))
        armed = []

        def fn(bits):
            values = fit(bits)
            if armed:
                values[0] = bad
            return values

        return fn, armed

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("stage", ["crossover", "mutation"])
    def test_step_raises_on_a_nonfinite_new_row(self, bad, stage):
        # with crossover only every scored row is a crossover-changed one;
        # with mutation only every scored row is a mutation-touched one
        rates = (1.0, 0.0) if stage == "crossover" else (0.0, 1.0)
        fn, armed = self.poisoned(bad)
        cfg = GAConfig(population_size=10, crossover_rate=rates[0],
                       mutation_rate=rates[1], overlap_fraction=0.2, rng_seed=4)
        eng = Engine(cfg, 12, fn)
        pop = eng.random_population()
        armed.append(True)
        with pytest.raises(ValueError, match="finite"):
            eng.step(pop)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_population_rejects_nonfinite_fitness(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Population(np.zeros((3, 4), dtype=np.uint8), [bad, 1.0, 2.0])

    def test_initial_population_rejects_nonfinite_fitness(self):
        fn, armed = self.poisoned(np.nan)
        armed.append(True)
        cfg = GAConfig(population_size=10, overlap_fraction=0.2, rng_seed=4)
        with pytest.raises(ValueError, match="finite"):
            Engine(cfg, 12, fn).random_population()


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

    @staticmethod
    def counting(fitness):
        calls = []

        def fn(bits):
            calls.append(bits.shape[0])
            return fitness(bits)

        return fn, calls

    def test_fitness_called_once_per_generation(self, rng):
        for scheme in ("per-bit", "per-chromosome"):
            fn, calls = self.counting(bit_objective(rng.normal(size=12)))
            cfg = GAConfig(population_size=10, rng_seed=6, mutation_rate=0.5,
                           overlap_fraction=0.2, mutation_scheme=scheme)
            eng = Engine(cfg, 12, fn)
            pop = eng.random_population()
            for _ in range(10):
                calls.clear()
                before = eng.evaluations
                pop, lineage, _ = eng.step(pop)
                assert len(calls) == 1
                xo = np.count_nonzero(lineage.stage_deltas("crossover") != 0)
                assert calls[0] == eng.evaluations - before >= xo

    def test_no_variation_makes_no_fitness_call(self, rng):
        fn, calls = self.counting(bit_objective(rng.normal(size=8)))
        cfg = GAConfig(population_size=6, crossover_rate=0.0, mutation_rate=0.0,
                       overlap_fraction=0.34, rng_seed=3)
        eng = Engine(cfg, 8, fn)
        pop = eng.random_population()
        calls.clear()
        for _ in range(5):
            pop, _, _ = eng.step(pop)
        assert calls == []

    def test_split_scores_match_separate_calls(self, rng):
        # each stage's fitness equals the objective of the slot's chromosome
        w = rng.normal(size=16)
        fit = bit_objective(w)
        cfg = GAConfig(population_size=12, crossover_rate=0.6, mutation_rate=0.5,
                       overlap_fraction=0.25, rng_seed=21)
        pop = Engine(cfg, 16, fit).random_population()
        result = Engine(cfg, 16, fit, rng=np.random.default_rng(5)).step(pop)
        replay = np.random.default_rng(5)
        slots = binary_tournament_cycle(pop, replay)
        child, _, _ = single_point_crossover(pop.bits[slots], 0.6, replay)
        mutated, _ = single_bit_mutation(child, 0.5, replay)
        lineage = result.lineage
        np.testing.assert_allclose(lineage.fitness_after_crossover, fit(child), rtol=1e-12)
        np.testing.assert_allclose(lineage.fitness_after_mutation, fit(mutated), rtol=1e-12)

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


class TestStackedEngine:
    """A stack of runs stepped together is bitwise each run stepped alone."""

    @pytest.mark.parametrize("selection", list(SelectionMethod))
    @pytest.mark.parametrize("scheme", ["per-chromosome", "per-bit"])
    def test_each_run_equals_its_single_engine(self, selection, scheme):
        # integer weights keep every row's score exact whatever batch it is
        # in; bits @ w + 1 is negative for some rows, so roulette runs draw
        # uniformly in some generations and proportionally in others
        fit = bit_objective(np.random.default_rng(0).integers(-3, 4, size=12).astype(float))
        cfg = GAConfig(population_size=10, crossover_rate=0.7, mutation_rate=0.3,
                       overlap_fraction=0.3, selection=selection, mutation_scheme=scheme)
        seeds = [3, 4, 5]
        stack = Engine(cfg, 12, fit, rng=RunStreams(np.random.default_rng(s) for s in seeds))
        alone = [Engine(replace(cfg, rng_seed=s), 12, fit) for s in seeds]
        stacked = stack.random_population()
        pops = [e.random_population() for e in alone]
        assert stacked.bits.shape == (3, 10, 12) and len(stacked) == 10
        for gen in range(1, 31):
            stacked, lineage, stats = stack.step(stacked)
            terms = decompose_generation(lineage, gen)
            for r, engine in enumerate(alone):
                pops[r], one, one_stats = engine.step(pops[r])
                np.testing.assert_array_equal(stacked.bits[r], pops[r].bits)
                np.testing.assert_array_equal(stacked.fitness[r], pops[r].fitness)
                for field in ("parent_fitness", "slot_parent", "pair_crossed",
                              "fitness_after_selection", "fitness_after_crossover",
                              "fitness_after_mutation"):
                    np.testing.assert_array_equal(getattr(lineage, field)[r],
                                                  getattr(one, field))
                assert (stats.mean[r], stats.variance[r], stats.best[r], stats.worst[r]) == (
                    one_stats.mean, one_stats.variance, one_stats.best, one_stats.worst)
                alone_terms = decompose_generation(one, gen)
                for name in ("selection_term", "crossover_term", "mutation_term",
                             "crossover_sigma", "mutation_sigma", "total_delta_q"):
                    assert getattr(terms, name)[r] == getattr(alone_terms, name)
                assert stack.elite.n_elite[r] == engine.elite.n_elite
                assert stack.run_evaluations[r] == engine.evaluations
            assert type(stack.evaluations) is int
            assert stack.evaluations == sum(e.evaluations for e in alone)

    def test_one_fitness_call_per_generation_for_the_whole_stack(self):
        calls = []

        def fit(bits):
            calls.append(bits.shape)
            return bits @ np.linspace(-1.0, 1.0, 8) + 1.0

        cfg = GAConfig(population_size=6, mutation_rate=0.5, overlap_fraction=0.34)
        stack = Engine(cfg, 8, fit, rng=RunStreams(np.random.default_rng(s) for s in range(4)))
        pop = stack.random_population()
        assert calls == [(24, 8)]
        for _ in range(5):
            calls.clear()
            before = stack.evaluations
            pop, _, _ = stack.step(pop)
            assert len(calls) == 1 and calls[0][0] == stack.evaluations - before

    def test_seeded_population_puts_the_seeds_in_every_run(self):
        fit = bit_objective(np.arange(8.0) - 3.0)
        cfg = GAConfig(population_size=6, overlap_fraction=0.34)
        seeds = [np.ones(8, np.uint8), np.zeros(8, np.uint8)]
        stack = Engine(cfg, 8, fit, rng=RunStreams(np.random.default_rng(s) for s in (1, 2)))
        stacked = stack.seeded_population(seeds)
        for r, s in enumerate((1, 2)):
            alone = Engine(replace(cfg, rng_seed=s), 8, fit).seeded_population(seeds)
            np.testing.assert_array_equal(stacked.bits[r], alone.bits)
            np.testing.assert_array_equal(stacked.fitness[r], alone.fitness)
            np.testing.assert_array_equal(stacked.bits[r, -2:], np.array(seeds))
        assert stack.run_evaluations.tolist() == [6, 6] and stack.evaluations == 12

    def test_stack_needs_a_run(self):
        with pytest.raises(ValueError):
            RunStreams([])
