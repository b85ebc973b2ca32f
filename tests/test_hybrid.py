"""Task-switching pipeline: switching rules, seeding structure, guarantees."""

import numpy as np
import pytest

from ecsqp.benchmarks import BenchmarkProblem, Orientation, get_problem
from ecsqp.encoding import Chromosome, EncodingSpec, decode, encode
from ecsqp.evolution import GAConfig
from ecsqp.hybrid import (
    SwitchCriteria,
    SwitchReason,
    invert_chromosome,
    run_hybrid,
    should_switch,
)
from ecsqp.local_search import BoundBox, SQPConfig
from ecsqp.price_monitor import ConvergenceState


def bits(text):
    return Chromosome(np.array([int(c) for c in text], dtype=np.uint8))


class TestInvertChromosome:
    def test_complement(self):
        assert invert_chromosome(bits("1011")) == bits("0100")

    def test_involution(self, rng):
        c = Chromosome(rng.integers(0, 2, 32, dtype=np.uint8))
        assert invert_chromosome(invert_chromosome(c)) == c

    def test_all_zeros(self):
        assert invert_chromosome(bits("0000")) == bits("1111")


class TestShouldSwitch:
    def test_stall_detected_on_flat_history(self):
        state = ConvergenceState()
        history = [5.0] * 25
        crit = SwitchCriteria(stall_window=20, stall_epsilon=0.001, max_generations=100)
        assert should_switch(state, history, 24, crit) is SwitchReason.STALLED

    def test_sigma_convergence_has_priority(self):
        state = ConvergenceState()
        state.converged_at = 12
        crit = SwitchCriteria(max_generations=100)
        assert should_switch(state, [1.0] * 30, 12, crit) is SwitchReason.SIGMA_CONVERGED

    def test_generation_cap(self):
        state = ConvergenceState()
        history = list(np.linspace(0, 50, 51))  # still improving
        crit = SwitchCriteria(stall_window=20, max_generations=50)
        assert should_switch(state, history, 50, crit) is SwitchReason.MAX_GEN

    def test_nothing_fires(self):
        state = ConvergenceState()
        history = list(np.linspace(0, 10, 11))
        crit = SwitchCriteria(max_generations=100)
        assert should_switch(state, history, 10, crit) is None


def grid_sphere_problem():
    """Quadratic bowl whose minimizer sits exactly on the encoding grid."""
    spec = EncodingSpec.for_bounds([0.0, 0.0], [1.0, 1.0], 0.01)
    target_code = 64
    step = 1.0 / (2 ** spec.variables[0].bit_length - 1)
    target = target_code * step

    def fn(v):
        return (v[0] - target) ** 2 + (v[1] - target) ** 2

    def batch(X):
        X = np.asarray(X, dtype=float)
        return np.sum((X - target) ** 2, axis=1)

    problem = BenchmarkProblem(
        "grid-sphere", 2, BoundBox(np.zeros(2), np.ones(2)), Orientation.MINIMIZE,
        0.0, np.full(2, target), fn, batch,
    )
    return problem, np.full(2, target)


class TestRunHybrid:
    CRIT = SwitchCriteria(max_generations=30)
    GA = GAConfig(population_size=20, mutation_rate=0.05, rng_seed=0,
                  overlap_fraction=0.1)

    def test_idempotent_at_grid_optimum(self):
        problem, target = grid_sphere_problem()
        result = run_hybrid(problem, self.GA, SQPConfig(), self.CRIT, rng_seed=3)
        # the bowl is easy enough that the first phase lands on the grid
        # optimum; the local phase cannot improve and validation keeps it
        assert result.f_ec == pytest.approx(0.0, abs=1e-12)
        assert result.f_sqp == pytest.approx(0.0, abs=1e-10)
        assert result.f_star == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(result.x_star, target, atol=1e-5)

    def test_phase_monotonicity_maximization(self):
        problem = get_problem("schwefel-max", 2)
        ga = GAConfig(population_size=50, mutation_rate=1 / 34, rng_seed=5,
                      overlap_fraction=0.1)
        result = run_hybrid(problem, ga, SQPConfig(),
                            SwitchCriteria(max_generations=60), rng_seed=5)
        assert result.f_star >= result.f_sqp >= result.f_ec

    def test_phase_monotonicity_minimization(self):
        problem = get_problem("rastrigin", 3)
        ga = GAConfig(population_size=30, mutation_rate=0.02, rng_seed=6,
                      overlap_fraction=0.1)
        result = run_hybrid(problem, ga, SQPConfig(),
                            SwitchCriteria(max_generations=40), rng_seed=6)
        assert result.f_star <= result.f_sqp <= result.f_ec

    def test_deterministic_given_seed(self):
        problem = get_problem("schwefel-max", 2)
        ga = GAConfig(population_size=20, mutation_rate=1 / 34, rng_seed=9,
                      overlap_fraction=0.1)
        crit = SwitchCriteria(max_generations=25)
        a = run_hybrid(problem, ga, SQPConfig(), crit, rng_seed=9)
        b = run_hybrid(problem, ga, SQPConfig(), crit, rng_seed=9)
        assert a.f_star == b.f_star
        np.testing.assert_array_equal(a.x_star, b.x_star)
        assert a.evaluations == b.evaluations
        assert [(r.phase, r.step, r.best) for r in a.trace] == [
            (r.phase, r.step, r.best) for r in b.trace
        ]

    def test_seeded_stream_pinned(self):
        # pinned seeded outcome; it changes whenever the RNG draw order or a
        # GA operator's result changes
        problem, _ = grid_sphere_problem()
        result = run_hybrid(problem, self.GA, SQPConfig(), self.CRIT, rng_seed=4)
        assert result.f_ec == float.fromhex("0x1.a693b4833adcep-11")
        assert result.f_star == 0.0
        assert result.evaluations == {"ec": 135, "sqp": 3, "validation": 119, "total": 257}

    def test_evaluation_accounting_conserved(self):
        problem = get_problem("ackley", 2)
        ga = GAConfig(population_size=20, mutation_rate=0.05, rng_seed=2,
                      overlap_fraction=0.1)
        result = run_hybrid(problem, ga, SQPConfig(),
                            SwitchCriteria(max_generations=20), rng_seed=2)
        ev = result.evaluations
        assert ev["total"] == ev["ec"] + ev["sqp"] + ev["validation"]
        assert ev["ec"] > 0 and ev["validation"] > 0

    def test_validation_population_structure(self, monkeypatch):
        # the validation round starts from N-2 random members plus the
        # refined chromosome and its complement
        import ecsqp.hybrid as hybrid_mod

        captured = {}
        original = hybrid_mod.Engine.seeded_population

        def spy(self, seeds):
            captured["seeds"] = [np.asarray(s).copy() for s in seeds]
            captured["n"] = self.cfg.population_size
            pop = original(self, seeds)
            captured["bits"] = pop.bits.copy()
            return pop

        monkeypatch.setattr(hybrid_mod.Engine, "seeded_population", spy)
        problem, _ = grid_sphere_problem()
        result = run_hybrid(problem, self.GA, SQPConfig(), self.CRIT, rng_seed=4)

        spec = EncodingSpec.for_bounds([0.0, 0.0], [1.0, 1.0], 0.01)
        seed_chrom = encode(result.x_sqp, spec)
        assert len(captured["seeds"]) == 2
        np.testing.assert_array_equal(captured["seeds"][0], seed_chrom.bits)
        np.testing.assert_array_equal(
            captured["seeds"][1], invert_chromosome(seed_chrom).bits
        )
        assert captured["bits"].shape[0] == captured["n"]
        # the two seeds occupy the final rows
        np.testing.assert_array_equal(captured["bits"][-2], seed_chrom.bits)

    def test_seeded_elite_survival_during_validation(self):
        # within the validation phase the running best never drops below the
        # fitness of the injected seed chromosome
        problem = get_problem("schwefel-max", 2)
        spec = EncodingSpec.for_bounds(
            problem.bounds.lower, problem.bounds.upper, 0.01
        )
        ga = GAConfig(population_size=30, mutation_rate=1 / 34, rng_seed=11,
                      overlap_fraction=0.1)
        result = run_hybrid(problem, ga, SQPConfig(),
                            SwitchCriteria(max_generations=40), rng_seed=11)
        seed_fitness = problem.evaluate(decode(encode(result.x_sqp, spec), spec))
        val_rows = [r for r in result.trace if r.phase == "validation"]
        assert val_rows
        assert all(r.best >= seed_fitness - 1e-9 for r in val_rows)

    def test_validation_overrides(self):
        problem = get_problem("ackley", 2)
        ga = GAConfig(population_size=20, mutation_rate=0.05, rng_seed=3,
                      overlap_fraction=0.1)
        deep = SwitchCriteria(max_generations=60, stall_window=50)
        val_ga = GAConfig(population_size=40, mutation_rate=0.02, rng_seed=3,
                          overlap_fraction=0.1, mutation_scheme="per-bit")
        result = run_hybrid(problem, ga, SQPConfig(),
                            SwitchCriteria(max_generations=10), rng_seed=3,
                            validation_criteria=deep, validation_ga=val_ga)
        val_rows = [r for r in result.trace if r.phase == "validation"]
        assert len(val_rows) > 11  # ran past the exploration cap
