"""Fitness-change decomposition and envelope-based convergence detection."""

import numpy as np
import pytest

from conftest import brute_force_decomposition
from ecsqp.encoding import EncodingSpec, decode_batch
from ecsqp.benchmarks import get_problem
from ecsqp.evolution import Engine, GAConfig, LineageRecord, SelectionMethod
from ecsqp.price_monitor import (
    ConvergenceState,
    Stage,
    decompose_generation,
    operator_term,
    operator_term_sigma,
    selection_term,
    sigma_width,
    update_convergence,
)


def lineage_from(slot_parent, parent_fitness, f_sel=None, f_xo=None, f_mut=None,
                 crossed=None):
    slot_parent = np.asarray(slot_parent)
    parent_fitness = np.asarray(parent_fitness, dtype=float)
    f_sel = parent_fitness[slot_parent] if f_sel is None else np.asarray(f_sel, float)
    f_xo = f_sel if f_xo is None else np.asarray(f_xo, float)
    f_mut = f_xo if f_mut is None else np.asarray(f_mut, float)
    crossed = (
        np.ones(slot_parent.size, bool) if crossed is None else np.asarray(crossed)
    )
    return LineageRecord(parent_fitness, slot_parent, crossed, f_sel, f_xo, f_mut)


class TestSelectionTerm:
    def test_constant_offspring_counts_vanish(self):
        z = np.full(6, 2)
        q = np.array([5.0, 1.0, 3.0, 8.0, 2.0, 7.0])
        assert selection_term(z, q) == 0.0

    def test_hand_computed_covariance(self):
        # Cov = mean((z - 1)(q - 3)) = ((1)(2) + (-1)(-2))/2 = 2; z_bar = 1
        assert selection_term([2, 0], [5.0, 1.0]) == pytest.approx(2.0)

    def test_constant_fitness_vanishes(self):
        assert selection_term([3, 1, 0, 4], [2.0, 2.0, 2.0, 2.0]) == 0.0

    def test_zero_mean_offspring_rejected(self):
        with pytest.raises(ValueError):
            selection_term([0, 0], [1.0, 2.0])


class TestOperatorTerm:
    def test_selection_stage_always_zero(self):
        lin = lineage_from([0, 1, 1, 2], [4.0, 2.0, 9.0])
        assert operator_term(lin, Stage.SELECTION) == 0.0

    def test_verbatim_copies_zero(self):
        lin = lineage_from([0, 1], [4.0, 2.0], crossed=[False, False])
        assert operator_term(lin, Stage.CROSSOVER) == 0.0

    def test_hand_computed_crossover_shift(self):
        # both parents' offspring means rise by 1: (2*1 + 2*1)/(2*2) = 1
        lin = lineage_from(
            [0, 0, 1, 1], [5.0, 3.0],
            f_xo=[6.0, 6.0, 4.0, 4.0],
        )
        assert operator_term(lin, Stage.CROSSOVER) == pytest.approx(1.0)


class TestOperatorSigma:
    def test_unchanged_children_have_zero_spread(self):
        lin = lineage_from([0, 1], [4.0, 2.0])
        assert operator_term_sigma(lin, Stage.MUTATION) == 0.0

    def test_plus_minus_one(self):
        lin = lineage_from([0, 1], [4.0, 2.0], f_xo=[5.0, 1.0])
        # deltas {+1, -1} with normalization 2: E = 0, E[d^2] = 1, sigma = 1
        assert operator_term_sigma(lin, Stage.CROSSOVER) == pytest.approx(1.0)
        assert operator_term(lin, Stage.CROSSOVER) == pytest.approx(0.0)

    def test_constant_deltas(self):
        lin = lineage_from([0, 1, 2], [4.0, 2.0, 6.0],
                           f_xo=[4.5, 2.5, 6.5])
        assert operator_term_sigma(lin, Stage.CROSSOVER) == pytest.approx(0.0, abs=1e-12)
        assert operator_term(lin, Stage.CROSSOVER) == pytest.approx(0.5)


class TestSigmaWidth:
    def test_zero_sigma(self):
        assert sigma_width(0.0) == 0.0

    def test_twice_sigma(self):
        assert sigma_width(0.3) == pytest.approx(0.6)

    def test_mean_cancels_in_interval_form(self):
        for mean, sigma in [(5.0, 0.3), (-838.0, 1.7), (0.0, 0.0)]:
            interval = (mean + sigma) - (mean - sigma)
            assert sigma_width(sigma) == pytest.approx(interval, abs=1e-12)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            sigma_width(-0.1)


class TestUpdateConvergence:
    def test_first_crossing_window_one(self):
        state = ConvergenceState(threshold=0.01, smoothing_window=1)
        for gen, width in enumerate([0.5, 0.2, 0.009], start=1):
            update_convergence(state, width, gen)
        assert state.converged_at == 3

    def test_never_below_threshold(self):
        state = ConvergenceState(threshold=0.01, smoothing_window=1)
        for gen in range(1, 50):
            update_convergence(state, 0.02, gen)
        assert state.converged_at is None

    def test_debounce_requires_consecutive_widths(self):
        state = ConvergenceState(threshold=0.01, smoothing_window=3)
        widths = [0.009, 0.5, 0.009, 0.009, 0.009]
        for gen, width in enumerate(widths, start=1):
            update_convergence(state, width, gen)
        assert state.converged_at == 5

    def test_detection_is_sticky(self):
        state = ConvergenceState(threshold=0.01, smoothing_window=1)
        update_convergence(state, 0.001, 1)
        update_convergence(state, 99.0, 2)
        assert state.converged_at == 1


class TestDecompositionIdentity:
    def test_micro_runs_match_brute_force(self):
        rows = 0
        rng = np.random.default_rng(77)
        for n in (4, 6, 10):
            for length, pc in ((4, 0.6), (8, 1.0)):
                for selection in SelectionMethod:
                    w = rng.normal(size=length)
                    cfg = GAConfig(
                        population_size=n, crossover_rate=pc, mutation_rate=0.15,
                        selection=selection, overlap_fraction=0.26,
                        rng_seed=int(rng.integers(1 << 30)),
                        mutation_scheme="per-bit",
                    )
                    eng = Engine(cfg, length, lambda b: b @ w + 3.0)
                    pop = eng.random_population()
                    for gen in range(1, 8):
                        pop, lineage, _ = eng.step(pop)
                        c = decompose_generation(lineage, gen)
                        actual = (
                            lineage.fitness_after_mutation.mean()
                            - lineage.parent_fitness.mean()
                        )
                        parts = c.selection_term + c.crossover_term + c.mutation_term
                        assert parts == pytest.approx(actual, rel=1e-9, abs=1e-12)
                        bf = brute_force_decomposition(lineage)
                        assert c.selection_term == pytest.approx(bf[0], rel=1e-9, abs=1e-12)
                        assert c.crossover_term == pytest.approx(bf[1], rel=1e-9, abs=1e-12)
                        assert c.mutation_term == pytest.approx(bf[2], rel=1e-9, abs=1e-12)
                        rows += 1
        assert rows >= 80

    def test_identity_violation_raises(self):
        lin = lineage_from([0, 1], [4.0, 2.0])
        lin.fitness_after_mutation = np.array([9.0, 9.0])
        lin.fitness_after_crossover = np.array([9.0, 9.0])
        # tamper with one stage so the telescoping breaks
        lin.fitness_after_selection = np.array([0.0, 0.0])
        with pytest.raises(ValueError):
            decompose_generation(lin, 1)


class TestLemmas:
    def test_lemma1_selection_stage_exactly_zero(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=8)
        cfg = GAConfig(population_size=6, crossover_rate=0.6, mutation_rate=0.2,
                       overlap_fraction=0.26, rng_seed=3, mutation_scheme="per-bit")
        eng = Engine(cfg, 8, lambda b: b @ w + 2.0)
        pop = eng.random_population()
        for _ in range(10):
            pop, lineage, _ = eng.step(pop)
            assert operator_term(lineage, Stage.SELECTION) == 0.0

    def test_lemma2_full_crossover_covariance_exactly_zero(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=8)
        cfg = GAConfig(population_size=6, crossover_rate=1.0, mutation_rate=0.2,
                       overlap_fraction=0.26, rng_seed=4)
        eng = Engine(cfg, 8, lambda b: b @ w + 2.0)
        pop = eng.random_population()
        for _ in range(10):
            pop, lineage, _ = eng.step(pop)
            term = selection_term(
                lineage.crossover_stage_z(), lineage.fitness_after_selection
            )
            assert term == 0.0

    def test_lemma2_exception_under_partial_crossover(self):
        # with Pc < 1 the stage z-vector varies, so a nonzero covariance is
        # permitted and does occur
        rng = np.random.default_rng(7)
        w = rng.normal(size=8)
        nonzero = 0
        for seed in range(50):
            cfg = GAConfig(population_size=6, crossover_rate=0.6, mutation_rate=0.1,
                           overlap_fraction=0.26, rng_seed=seed)
            eng = Engine(cfg, 8, lambda b: b @ w + 2.0)
            pop = eng.random_population()
            for _ in range(3):
                pop, lineage, _ = eng.step(pop)
                term = selection_term(
                    lineage.crossover_stage_z(), lineage.fitness_after_selection
                )
                if term != 0.0:
                    nonzero += 1
        assert nonzero >= 1


class TestSchwefelConvergenceSignal:
    def test_crossover_envelope_detects_mutation_does_not(self):
        # single seeded run of the 2-D maximization experiment: the crossover
        # width crosses the 0.01 threshold before the generation cap while
        # the mutation width never does
        prob = get_problem("schwefel-max", 2)
        spec = EncodingSpec.for_bounds(prob.bounds.lower, prob.bounds.upper, 0.01)
        fitness = lambda bits: prob.batch(decode_batch(bits, spec))
        cfg = GAConfig(population_size=100, crossover_rate=1.0,
                       mutation_rate=1.0 / spec.total_length, rng_seed=2)
        eng = Engine(cfg, spec.total_length, fitness)
        pop = eng.random_population()
        xo_state = ConvergenceState(threshold=0.01, smoothing_window=3)
        mut_state = ConvergenceState(threshold=0.01, smoothing_window=3)
        for gen in range(1, 101):
            pop, lineage, _ = eng.step(pop)
            c = decompose_generation(lineage, gen)
            update_convergence(xo_state, sigma_width(c.crossover_sigma), gen)
            update_convergence(mut_state, sigma_width(c.mutation_sigma), gen)
        assert xo_state.converged_at is not None and xo_state.converged_at < 100
        assert mut_state.converged_at is None
