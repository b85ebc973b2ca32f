"""Task-switching pipeline: switching rules, seeding structure, guarantees."""

import numpy as np
import pytest

from ecsqp import hybrid
from ecsqp.autodiff import ADDomainError
from ecsqp.benchmarks import BenchmarkProblem, Orientation, get_problem
from ecsqp.cli_io import RunConfig, load_config
from ecsqp.encoding import EncodingSpec, decode, encode
from ecsqp.evolution import Engine, GAConfig, RunStreams
from ecsqp.hybrid import (
    SwitchCriteria,
    SwitchReason,
    fitness_function,
    ga_phase,
    run_hybrid,
    should_switch,
)
from ecsqp.local_search import BoundBox, SQPConfig
from ecsqp.price_monitor import ConvergenceState


class TestShouldSwitch:
    def test_stall_detected_on_flat_history(self):
        state = ConvergenceState(threshold=0.01)
        history = [5.0] * 25
        crit = SwitchCriteria(stall_window=20, stall_epsilon=0.001, max_generations=100)
        assert should_switch(state, history, 24, crit) is SwitchReason.STALLED

    def test_sigma_convergence_has_priority(self):
        state = ConvergenceState(threshold=0.01)
        state.converged_at = 12
        crit = SwitchCriteria(max_generations=100)
        assert should_switch(state, [1.0] * 30, 12, crit) is SwitchReason.SIGMA_CONVERGED

    def test_generation_cap(self):
        state = ConvergenceState(threshold=0.01)
        history = list(np.linspace(0, 50, 51))  # still improving
        crit = SwitchCriteria(stall_window=20, max_generations=50)
        assert should_switch(state, history, 50, crit) is SwitchReason.MAX_GEN

    def test_nothing_fires(self):
        state = ConvergenceState(threshold=0.01)
        history = list(np.linspace(0, 10, 11))
        crit = SwitchCriteria(max_generations=100)
        assert should_switch(state, history, 10, crit) is None


def phase_engine(rng):
    """An engine on Schwefel-max n=2 for one run (a generator) or a stack
    (:class:`RunStreams`)."""
    problem = get_problem("schwefel-max", 2)
    spec = EncodingSpec.for_bounds(problem.bounds.lower, problem.bounds.upper, 0.01)
    ga = GAConfig(population_size=20, mutation_rate=0.05, overlap_fraction=0.1)
    return Engine(ga, spec.total_length, fitness_function(problem, spec), rng=rng)


def cap_at(cap):
    return lambda states, history, g: SwitchReason.MAX_GEN if g >= cap else None


class TestGaPhase:
    def test_cap_stops_a_stack(self):
        engine = phase_engine(RunStreams(np.random.default_rng(s) for s in (1, 2, 3)))
        pop = engine.random_population()
        start = engine.run_evaluations.copy()
        report = ga_phase(engine, pop, SwitchCriteria(), cap_at(5))
        assert report.reason is SwitchReason.MAX_GEN
        assert len(report.generations) == 5 + 1
        contribution, stats, evaluations = report.generations[0]
        assert contribution is None and stats is pop.stats
        # a copy: the engine has counted on since
        np.testing.assert_array_equal(evaluations, start)
        np.testing.assert_array_equal(start, [20, 20, 20])
        assert all(c.generation == g for g, (c, _, _) in enumerate(report.generations) if g)
        np.testing.assert_array_equal(report.generations[-1][2], engine.run_evaluations)
        assert report.population.fitness.shape == (3, 20)
        assert len(report.converged_at) == 3

    def test_stop_sees_each_generations_best(self):
        engine = phase_engine(np.random.default_rng(4))
        seen = []

        def stop(states, history, g):
            seen.append((len(states), list(history), g))
            return cap_at(6)(states, history, g)

        report = ga_phase(engine, engine.random_population(), SwitchCriteria(), stop)
        assert [g for _, _, g in seen] == [1, 2, 3, 4, 5, 6]
        for runs, history, g in seen:
            assert runs == 1
            assert history == [stats.best for _, stats, _ in report.generations[: g + 1]]

    def test_hybrid_trace_rows_are_the_phase_reports(self, monkeypatch):
        reports = []

        def spy(*args):
            reports.append(ga_phase(*args))
            return reports[-1]

        monkeypatch.setattr(hybrid, "ga_phase", spy)
        problem = get_problem("ackley", 2)  # minimized: rows carry the native sign
        ga = GAConfig(population_size=20, mutation_rate=0.05, overlap_fraction=0.1)
        crit = SwitchCriteria(max_generations=15)
        result = run_hybrid(problem, ga, SQPConfig(), crit, rng_seed=2,
                            validation_criteria=crit, validation_ga=ga)
        ec, validation = reports
        # the validation phase counts on from the exploration and SQP phases
        # (the polish after it comes later)
        val_base = result.evaluations["ec"] + (
            result.sqp_result.evaluations if result.sqp_result else 0)
        for name, report, base in (("ec", ec, 0), ("validation", validation, val_base)):
            rows = [r for r in result.trace if r.phase == name]
            assert [(r.step, r.best, r.mean, r.evaluations) for r in rows] == [
                (g, -stats.best, -stats.mean, base + int(evals))
                for g, (_, stats, evals) in enumerate(report.generations)
            ]
        assert (result.switch_reason, result.validation_switch_reason) == (
            ec.reason, validation.reason)


def grid_sphere_problem():
    """Quadratic bowl whose minimizer sits exactly on the encoding grid."""
    spec = EncodingSpec.for_bounds([0.0, 0.0], [1.0, 1.0], 0.01)
    target_code = 64
    step = 1.0 / (2 ** int(spec.widths[0]) - 1)
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
        result = run_hybrid(problem, self.GA, SQPConfig(), self.CRIT, rng_seed=3,
                            validation_criteria=self.CRIT, validation_ga=self.GA)
        # the bowl is easy enough that the first phase lands on the grid
        # optimum; the local phase cannot improve and validation keeps it
        assert result.f_ec == pytest.approx(0.0, abs=1e-12)
        assert result.f_sqp == pytest.approx(0.0, abs=1e-10)
        assert result.f_star == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(result.x_star, target, atol=1e-5)

    def test_local_phase_failures(self, monkeypatch):
        problem, _ = grid_sphere_problem()

        def failing(exc):
            def sqp_run(*args, **kwargs):
                raise exc
            return sqp_run

        monkeypatch.setattr(hybrid, "sqp_run", failing(TypeError("a bug")))
        with pytest.raises(TypeError):
            run_hybrid(problem, self.GA, SQPConfig(), self.CRIT, rng_seed=3,
                       validation_criteria=self.CRIT, validation_ga=self.GA)
        monkeypatch.setattr(hybrid, "sqp_run", failing(ADDomainError("sqrt", -1.0)))
        result = run_hybrid(problem, self.GA, SQPConfig(), self.CRIT, rng_seed=3,
                            validation_criteria=self.CRIT, validation_ga=self.GA)
        np.testing.assert_array_equal(result.x_sqp, result.x_ec)
        assert result.f_sqp == result.f_ec
        assert result.sqp_result is None and result.evaluations["sqp"] == 0
        assert any(w.startswith("local phase failed (sqrt") for w in result.warnings)

    def test_refine_degrades_where_a_derivative_leaves_the_float_range(self):
        # every point maps to Ackley at 1e-160 * 1, where sqrt's second
        # derivative is not finite: the refine's first sweep raises
        ackley = get_problem("ackley", 10)

        def fn(x):
            return ackley.fn(x * 0.0 + 1e-160)

        problem = BenchmarkProblem("ackley-at-1e-160", 10, ackley.bounds, ackley.orientation,
                                   0.0, None, fn, fn)
        result = run_hybrid(problem, self.GA, SQPConfig(), SwitchCriteria(max_generations=5),
                            rng_seed=3, validation_criteria=SwitchCriteria(max_generations=2),
                            validation_ga=self.GA)
        np.testing.assert_array_equal(result.x_sqp, result.x_ec)
        assert result.sqp_result is None and result.evaluations["sqp"] == 0
        assert any(w.startswith("local phase failed (sqrt undefined") for w in result.warnings)

    def test_polish_rows_end_the_trace(self):
        problem = get_problem("ackley", 2)
        ga = GAConfig(population_size=20, mutation_rate=0.05, overlap_fraction=0.1)
        val_ga = GAConfig(population_size=40, mutation_rate=0.02, overlap_fraction=0.1,
                          mutation_scheme="per-bit")
        result = run_hybrid(problem, ga, SQPConfig(), SwitchCriteria(max_generations=10),
                            rng_seed=5, validation_criteria=SwitchCriteria(max_generations=20),
                            validation_ga=val_ga)
        polish = result.polish_result
        assert polish is not None and polish.stop_reason == "line_search_failure"
        ev = result.evaluations
        assert ev["sqp"] == result.sqp_result.evaluations + polish.evaluations
        rows = [r for r in result.trace if r.phase == "polish"]
        assert result.trace[-len(rows):] == rows
        # a row per iterate, then a closing row for the sweeps of the failed
        # line search, at the phase's final point and the run's total
        assert [r.step for r in rows] == list(range(len(polish.trace) + 1))
        assert [r.evaluations for r in rows[:-1]] == [
            ev["total"] - polish.evaluations + it.evaluations for it in polish.trace]
        assert (rows[-1].best, rows[-1].evaluations) == (result.f_star, ev["total"])

    def test_phase_monotonicity_maximization(self):
        problem = get_problem("schwefel-max", 2)
        ga = GAConfig(population_size=50, mutation_rate=1 / 34, rng_seed=5,
                      overlap_fraction=0.1)
        crit = SwitchCriteria(max_generations=60)
        result = run_hybrid(problem, ga, SQPConfig(), crit, rng_seed=5,
                            validation_criteria=crit, validation_ga=ga)
        assert result.f_star >= result.f_sqp >= result.f_ec

    def test_phase_monotonicity_minimization(self):
        problem = get_problem("rastrigin", 3)
        ga = GAConfig(population_size=30, mutation_rate=0.02, rng_seed=6,
                      overlap_fraction=0.1)
        crit = SwitchCriteria(max_generations=40)
        result = run_hybrid(problem, ga, SQPConfig(), crit, rng_seed=6,
                            validation_criteria=crit, validation_ga=ga)
        assert result.f_star <= result.f_sqp <= result.f_ec

    def test_deterministic_given_seed(self):
        problem = get_problem("schwefel-max", 2)
        ga = GAConfig(population_size=20, mutation_rate=1 / 34, rng_seed=9,
                      overlap_fraction=0.1)
        crit = SwitchCriteria(max_generations=25)
        a, b = (run_hybrid(problem, ga, SQPConfig(), crit, rng_seed=9,
                           validation_criteria=crit, validation_ga=ga) for _ in range(2))
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
        result = run_hybrid(problem, self.GA, SQPConfig(), self.CRIT, rng_seed=4,
                            validation_criteria=self.CRIT, validation_ga=self.GA)
        assert result.f_ec == float.fromhex("0x1.a693b4833adcep-11")
        assert result.f_star == 0.0
        assert result.evaluations == {"ec": 135, "sqp": 2, "validation": 119, "total": 256}

    def test_evaluation_accounting_conserved(self):
        problem = get_problem("ackley", 2)
        ga = GAConfig(population_size=20, mutation_rate=0.05, rng_seed=2,
                      overlap_fraction=0.1)
        crit = SwitchCriteria(max_generations=20)
        result = run_hybrid(problem, ga, SQPConfig(), crit, rng_seed=2,
                            validation_criteria=crit, validation_ga=ga)
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
        result = run_hybrid(problem, self.GA, SQPConfig(), self.CRIT, rng_seed=4,
                            validation_criteria=self.CRIT, validation_ga=self.GA)

        spec = EncodingSpec.for_bounds([0.0, 0.0], [1.0, 1.0], 0.01)
        seed = encode(result.x_sqp, spec)
        assert len(captured["seeds"]) == 2
        np.testing.assert_array_equal(captured["seeds"][0], seed)
        np.testing.assert_array_equal(captured["seeds"][1], 1 - seed)
        assert captured["bits"].shape[0] == captured["n"]
        # the two seeds occupy the final rows
        np.testing.assert_array_equal(captured["bits"][-2], seed)

    def test_seeded_elite_survival_during_validation(self):
        # within the validation phase the running best never drops below the
        # fitness of the injected seed chromosome
        problem = get_problem("schwefel-max", 2)
        spec = EncodingSpec.for_bounds(
            problem.bounds.lower, problem.bounds.upper, 0.01
        )
        ga = GAConfig(population_size=30, mutation_rate=1 / 34, rng_seed=11,
                      overlap_fraction=0.1)
        crit = SwitchCriteria(max_generations=40)
        result = run_hybrid(problem, ga, SQPConfig(), crit, rng_seed=11,
                            validation_criteria=crit, validation_ga=ga)
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

    def test_result_ignores_the_ga_configs_seeds(self):
        # run_hybrid seeds both GA phases from its own rng_seed; the configs'
        # rng_seed fields are never read
        problem = get_problem("ackley", 2)
        results = []
        for ga_seed, val_seed in ((0, 0), (17, 29)):
            ga = GAConfig(population_size=20, mutation_rate=0.05, rng_seed=ga_seed,
                          overlap_fraction=0.1)
            val_ga = GAConfig(population_size=40, mutation_rate=0.02, rng_seed=val_seed,
                              overlap_fraction=0.1, mutation_scheme="per-bit")
            results.append(run_hybrid(problem, ga, SQPConfig(),
                                      SwitchCriteria(max_generations=10), rng_seed=5,
                                      validation_criteria=SwitchCriteria(max_generations=20),
                                      validation_ga=val_ga))
        a, b = results
        assert {r.phase for r in a.trace} == {"ec", "sqp", "validation", "polish"}
        assert a.f_star == b.f_star
        assert a.evaluations == b.evaluations
        np.testing.assert_equal(
            [(r.phase, r.step, r.best, r.mean, r.evaluations) for r in a.trace],
            [(r.phase, r.step, r.best, r.mean, r.evaluations) for r in b.trace],
        )


def test_acceptance_protocol_is_defined_once(tmp_path):
    # the acceptance suite's and the benchmark's literal protocols equal the
    # package's, and a code-built config and a file without validation sections
    # both run its validation round
    import test_acceptance as suite
    from test_benchmark_workloads import workloads

    problem = get_problem("ackley", 10)
    length = EncodingSpec.for_bounds(problem.bounds.lower, problem.bounds.upper, 0.01).total_length
    protocol = hybrid.acceptance_protocol(length)
    for copy in (suite, workloads):
        assert protocol == (GAConfig(mutation_rate=1.0 / length, **copy.EXPLORE_GA),
                            copy.EXPLORE_SWITCH,
                            GAConfig(mutation_rate=1.0 / length, **copy.VALIDATE_GA),
                            copy.VALIDATE_SWITCH)
    path = tmp_path / "run.yaml"
    path.write_text("problem: ackley\ndimension: 10\n", encoding="utf-8")
    loaded, built = load_config(path), RunConfig("ackley", 10)
    assert (loaded.validation_ga, loaded.validation_switch) == protocol[2:]
    assert (built.validation_ga, built.validation_switch) == protocol[2:]
