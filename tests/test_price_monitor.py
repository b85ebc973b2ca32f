"""Fitness-change decomposition and envelope-based convergence detection."""

import math

import numpy as np
import pytest

from conftest import brute_force_decomposition
from ecsqp.encoding import EncodingSpec, decode_batch
from ecsqp.benchmarks import get_problem
from ecsqp.evolution import Engine, FitnessStats, GAConfig, LineageRecord, SelectionMethod
from ecsqp.hybrid import fitness_function
from ecsqp.price_monitor import (
    DECOMPOSITION_RTOL,
    ConvergenceState,
    OperatorContribution,
    Stage,
    decompose_generation,
    operator_term,
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
    return LineageRecord(parent_fitness, slot_parent, crossed, f_sel, f_xo, f_mut,
                         FitnessStats.from_values(parent_fitness),
                         FitnessStats.from_values(f_mut))


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
        assert decompose_generation(lin, 1).mutation_sigma == 0.0

    def test_plus_minus_one(self):
        lin = lineage_from([0, 1], [4.0, 2.0], f_xo=[5.0, 1.0])
        # deltas {+1, -1} with normalization 2: E = 0, E[d^2] = 1, sigma = 1
        assert decompose_generation(lin, 1).crossover_sigma == pytest.approx(1.0)
        assert operator_term(lin, Stage.CROSSOVER) == pytest.approx(0.0)

    def test_constant_deltas(self):
        lin = lineage_from([0, 1, 2], [4.0, 2.0, 6.0],
                           f_xo=[4.5, 2.5, 6.5])
        assert decompose_generation(lin, 1).crossover_sigma == pytest.approx(0.0, abs=1e-12)
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
    def test_first_crossing_completes_the_window(self):
        state = ConvergenceState(threshold=0.01)
        for gen, width in enumerate([0.5, 0.2, 0.009, 0.01, 0.0], start=1):
            update_convergence(state, width, gen)
        assert state.converged_at == 5

    def test_never_below_threshold(self):
        state = ConvergenceState(threshold=0.01)
        for gen in range(1, 50):
            update_convergence(state, 0.02, gen)
        assert state.converged_at is None

    def test_debounce_requires_consecutive_widths(self):
        state = ConvergenceState(threshold=0.01)
        widths = [0.009, 0.5, 0.009, 0.009, 0.009]
        for gen, width in enumerate(widths, start=1):
            update_convergence(state, width, gen)
        assert state.converged_at == 5

    def test_detection_is_sticky(self):
        state = ConvergenceState(threshold=0.01)
        for gen in range(1, 4):
            update_convergence(state, 0.001, gen)
        update_convergence(state, 99.0, 4)
        assert state.converged_at == 3


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

    def test_terms_and_sigmas_equal_operator_helpers(self):
        rng = np.random.default_rng(31)
        for scheme, pc in (("per-bit", 0.6), ("per-chromosome", 1.0)):
            w = rng.normal(size=12)
            cfg = GAConfig(population_size=20, crossover_rate=pc, mutation_rate=0.2,
                           overlap_fraction=0.1, rng_seed=4, mutation_scheme=scheme)
            eng = Engine(cfg, 12, lambda b: b @ w + 2.0)
            pop = eng.random_population()
            for gen in range(1, 11):
                pop, lineage, _ = eng.step(pop)
                c = decompose_generation(lineage, gen)
                assert c.crossover_term == operator_term(lineage, Stage.CROSSOVER)
                assert c.mutation_term == operator_term(lineage, Stage.MUTATION)
                for sigma, stage in ((c.crossover_sigma, "crossover"),
                                     (c.mutation_sigma, "mutation")):
                    assert sigma == pytest.approx(np.std(lineage.stage_deltas(stage)),
                                                  rel=1e-9, abs=1e-12)
                assert c.total_delta_q == float(
                    lineage.fitness_after_mutation.mean() - lineage.parent_fitness.mean()
                )

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
        xo_state = ConvergenceState(threshold=0.01)
        mut_state = ConvergenceState(threshold=0.01)
        for gen in range(1, 101):
            pop, lineage, _ = eng.step(pop)
            c = decompose_generation(lineage, gen)
            update_convergence(xo_state, sigma_width(c.crossover_sigma), gen)
            update_convergence(mut_state, sigma_width(c.mutation_sigma), gen)
        assert xo_state.converged_at is not None and xo_state.converged_at < 100
        assert mut_state.converged_at is None


# The decomposition as it was before it read the engine's cached fitness
# summaries: every mean recomputed from the lineage arrays with ndarray.mean.


def reference_selection_term(z, q) -> float:
    z = np.asarray(z, dtype=float)
    q = np.asarray(q, dtype=float)
    if z.shape != q.shape or z.ndim != 1 or z.size == 0:
        raise ValueError("z and q must be equal-length nonempty vectors")
    z_bar = z.mean()
    if z_bar <= 0.0:
        raise ValueError("mean offspring count must be positive")
    cov = float(np.mean((z - z_bar) * (q - q.mean())))
    return cov / z_bar


def reference_stage_moments(deltas):
    if deltas.size < 1:
        raise ValueError("stage carries no children")
    n = deltas.shape[0]
    mean = deltas.sum() / n
    second = (deltas * deltas).sum() / n
    return float(mean), math.sqrt(max(second - mean * mean, 0.0))


def reference_decompose_generation(lineage, generation):
    counts = np.bincount(lineage.slot_parent, minlength=lineage.population_size)
    sel = reference_selection_term(counts.astype(np.int64), lineage.parent_fitness)
    xo, xo_sigma = reference_stage_moments(lineage.stage_deltas(Stage.CROSSOVER.value))
    mut, mut_sigma = reference_stage_moments(lineage.stage_deltas(Stage.MUTATION.value))
    parent_mean = float(lineage.parent_fitness.mean())
    total = float(lineage.fitness_after_mutation.mean() - parent_mean)
    parts = sel + xo + mut
    scale = max(abs(total), abs(parts), abs(parent_mean), 1.0)
    if abs(total - parts) > DECOMPOSITION_RTOL * scale:
        raise ValueError("decomposition identity violated")
    return OperatorContribution(generation, sel, xo, mut, xo_sigma, mut_sigma, total)


class TestDecompositionOracle:
    """The decomposition from cached moments equals the reference bitwise."""

    @pytest.mark.parametrize("selection", list(SelectionMethod))
    @pytest.mark.parametrize("scheme", ["per-bit", "per-chromosome"])
    @pytest.mark.parametrize("problem,n,length", [("schwefel-max", 2, 34),
                                                  ("rastrigin", 10, 100)])
    def test_equal_to_reference_over_seeded_runs(self, selection, scheme, problem, n,
                                                 length):
        prob = get_problem(problem, n)
        spec = EncodingSpec.for_bounds(prob.bounds.lower, prob.bounds.upper, 0.01)
        assert spec.total_length == length
        cfg = GAConfig(population_size=40, crossover_rate=0.7,
                       mutation_rate=2.0 / length, selection=selection,
                       overlap_fraction=0.1, rng_seed=17, mutation_scheme=scheme)
        eng = Engine(cfg, length, fitness_function(prob, spec))
        pop = eng.random_population()
        for gen in range(1, 121):
            pop, lineage, _ = eng.step(pop)
            assert lineage.parent_stats is not None
            assert lineage.offspring_stats is not None
            c = decompose_generation(lineage, gen)
            ref = reference_decompose_generation(lineage, gen)
            assert c == ref
            for name in ("selection_term", "crossover_term", "mutation_term",
                         "crossover_sigma", "mutation_sigma", "total_delta_q"):
                assert type(getattr(c, name)) is type(getattr(ref, name)), name

    def test_selection_term_equal_to_reference(self):
        rng = np.random.default_rng(8)
        for m in (1, 2, 5, 50, 200):
            z = rng.integers(0, 4, m)
            z[0] += 1
            q = rng.normal(size=m) * 10.0 ** rng.integers(-3, 4) - 837.0
            assert selection_term(z, q) == reference_selection_term(z, q)

    def test_hand_built_lineage_computes_its_own_moments(self):
        lin = lineage_from([0, 0, 2, 1], [4.0, 2.0, 9.0],
                           f_xo=[5.0, 3.5, 8.0, 2.0], f_mut=[5.0, 1.0, 8.5, 2.0])
        assert decompose_generation(lin, 3) == reference_decompose_generation(lin, 3)
