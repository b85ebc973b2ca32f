"""Acceptance suite: one test per exit criterion, printed as PASS/FAIL lines.

The heavy experiment batches (selection-method table, operator curves, hybrid
runs) are computed once in module-scoped fixtures and shared between
criteria.  Seeds are fixed; every run is reproducible.
"""

import math
import time

import numpy as np
import pytest

from conftest import brute_force_decomposition
from ecsqp import autodiff as ad
from ecsqp.autodiff import Hessian, evaluate
from ecsqp.benchmarks import get_problem
from ecsqp.encoding import (
    EncodingSpec,
    decode,
    decode_batch,
    encode,
    random_bits,
)
from ecsqp.evolution import (
    EliteState,
    Engine,
    GAConfig,
    Population,
    SelectionMethod,
    adaptive_elitism_replace,
)
from ecsqp.fdcheck import fd_gradient, fd_hessian, max_relative_error
from ecsqp.hybrid import SwitchCriteria, run_hybrid
from ecsqp.local_search import BoundBox, SQPConfig, ipm_qp_solve, sqp_run
from ecsqp.price_monitor import decompose_generation, selection_term

RUNS = 100
BASE_SEED = 0

# experiment protocol shared with the CLI defaults: a fast-switching
# exploration phase and a patient, larger validation phase
EXPLORE_GA = dict(population_size=100, crossover_rate=1.0,
                  selection=SelectionMethod.BINARY_TOURNAMENT,
                  mutation_scheme="per-chromosome")
EXPLORE_SWITCH = SwitchCriteria(max_generations=100)
VALIDATE_GA = dict(population_size=200, crossover_rate=1.0,
                   mutation_scheme="per-bit")
VALIDATE_SWITCH = SwitchCriteria(max_generations=800, stall_window=150,
                                 stall_epsilon=1e-9)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# criteria 1 and 2: decomposition identity and the two lemmas
# ---------------------------------------------------------------------------


def micro_runs(repeats: int = 6):
    """Randomized micro-runs over the full small-parameter grid."""
    seed = 0
    for n in (4, 6, 10):
        for length in (4, 8, 16):
            for selection in SelectionMethod:
                for pc in (0.6, 1.0):
                    for _ in range(repeats):
                        seed += 1
                        rng = np.random.default_rng(seed)
                        w = rng.normal(size=length)
                        cfg = GAConfig(
                            population_size=n, crossover_rate=pc, mutation_rate=0.15,
                            selection=selection, overlap_fraction=0.26, rng_seed=seed,
                            mutation_scheme="per-bit",
                        )
                        yield cfg, Engine(cfg, length, lambda b, w=w: b @ w + 3.0)


def test_criterion_1_price_decomposition_identity():
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for cfg, engine in micro_runs():
        pop = engine.random_population()
        for gen in range(1, 4):
            pop, lineage, _ = engine.step(pop)
            c = decompose_generation(lineage, gen)  # raises if the sum drifts
            actual = (
                lineage.fitness_after_mutation.mean() - lineage.parent_fitness.mean()
            )
            parts = c.selection_term + c.crossover_term + c.mutation_term
            scale = max(1.0, abs(actual))
            worst = max(worst, abs(parts - actual) / scale)
            bf = brute_force_decomposition(lineage)
            for mine, ref in zip((c.selection_term, c.crossover_term, c.mutation_term), bf):
                worst = max(worst, abs(mine - ref) / max(1.0, abs(ref)))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 200 and worst < 1e-9 and elapsed < 10.0
    assert report(
        "1",
        ok,
        f"{checked} micro-runs, worst identity error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_lemma_tests():
    start = time.perf_counter()
    selection_terms_zero = True
    full_crossover_zero = True
    for cfg, engine in micro_runs():
        pop = engine.random_population()
        for _ in range(3):
            pop, lineage, _ = engine.step(pop)
            if np.any(lineage.stage_deltas("selection") != 0.0):
                selection_terms_zero = False
            if cfg.crossover_rate == 1.0:
                term = selection_term(
                    lineage.crossover_stage_z(), lineage.fitness_after_selection
                )
                if term != 0.0:
                    full_crossover_zero = False
    nonzero_partial = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        w = rng.normal(size=8)
        cfg = GAConfig(population_size=6, crossover_rate=0.6, mutation_rate=0.1,
                       overlap_fraction=0.26, rng_seed=1000 + seed)
        engine = Engine(cfg, 8, lambda b, w=w: b @ w + 3.0)
        pop = engine.random_population()
        for _ in range(3):
            pop, lineage, _ = engine.step(pop)
            if selection_term(
                lineage.crossover_stage_z(), lineage.fitness_after_selection
            ) != 0.0:
                nonzero_partial += 1
                break
    elapsed = time.perf_counter() - start
    ok = (
        selection_terms_zero and full_crossover_zero
        and nonzero_partial >= 1 and elapsed < 10.0
    )
    assert report(
        "2",
        ok,
        f"selection stage exact zero: {selection_terms_zero}; "
        f"Pc=1 covariance exact zero: {full_crossover_zero}; "
        f"Pc=0.6 nonzero in {nonzero_partial}/50 runs; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: derivative oracle
# ---------------------------------------------------------------------------


def test_criterion_3_ad_oracle():
    start = time.perf_counter()
    worst_grad = worst_hess = 0.0
    rng = np.random.default_rng(3)
    for name in ("ackley", "rastrigin", "schwefel"):
        for n in (2, 10):
            problem = get_problem(name, n)
            plain = lambda x: float(problem.batch(x[None, :])[0])
            for _ in range(100):
                x = rng.uniform(problem.bounds.lower, problem.bounds.upper)
                _, grad, hess = evaluate(problem.fn, x)
                worst_grad = max(worst_grad, max_relative_error(grad, fd_gradient(plain, x)))
                worst_hess = max(worst_hess, max_relative_error(hess, fd_hessian(plain, x)))
    f = lambda v: v[0] * v[1] + ad.sin(v[0]) + 4.0
    value, grad, hess = evaluate(f, [math.pi, math.pi / 2])
    worked = (
        abs(value - (math.pi**2 + 8) / 2) < 1e-12
        and abs(grad[0] - (math.pi - 2) / 2) < 1e-12
        and abs(grad[1] - math.pi) < 1e-12
        and np.max(np.abs(hess - np.array([[0.0, 1.0], [1.0, 0.0]]))) < 1e-12
    )
    elapsed = time.perf_counter() - start
    ok = worst_grad < 1e-6 and worst_hess < 1e-4 and worked and elapsed < 30.0
    assert report(
        "3",
        ok,
        f"max grad rel-err {worst_grad:.2e} (<1e-6), max Hessian rel-err "
        f"{worst_hess:.2e} (<1e-4), worked example {'ok' if worked else 'WRONG'}, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4: Newton exactness and local rate
# ---------------------------------------------------------------------------


def test_criterion_4_newton_exactness_and_rate():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    A = rng.normal(size=(3, 3))
    Q = A @ A.T + 2.0 * np.eye(3)
    b = rng.normal(size=3)

    def quad(v):
        acc = 0.0
        for i in range(3):
            acc = acc + 0.5 * Q[i, i] * v[i] * v[i] - b[i] * v[i]
            for j in range(i + 1, 3):
                acc = acc + Q[i, j] * v[i] * v[j]
        return acc

    res = sqp_run(quad, rng.normal(size=3) * 4, None, SQPConfig())
    one_step = len(res.trace) == 1 and res.trace[0].alpha == 1.0
    exact = np.allclose(res.x, np.linalg.solve(Q, b), atol=1e-8)

    a = np.array([0.3, -0.8])
    gamma = np.array([0.5, 1.5])

    def quartic(v):
        d0, d1 = v[0] - a[0], v[1] - a[1]
        return (
            0.5 * (2.0 * d0 * d0 + 0.6 * d0 * d1 + 1.5 * d1 * d1)
            + gamma[0] * d0**4 + gamma[1] * d1**4
        )

    res = sqp_run(quartic, a + np.array([0.9, -1.1]), None,
                  SQPConfig(grad_tol=1e-13, step_tol=1e-14))
    errors = [float(np.linalg.norm(it.x - a)) for it in res.trace]
    ratios = [
        e1 / e0**2 for e0, e1 in zip(errors, errors[1:]) if 1e-13 < e0 < 1e-2
    ]
    rate_ok = len(ratios) >= 2 and all(r <= 100.0 for r in ratios[-3:])
    elapsed = time.perf_counter() - start
    ok = one_step and exact and rate_ok and elapsed < 5.0
    assert report(
        "4",
        ok,
        f"quadratic solved in one unit step: {one_step and exact}; "
        f"quadratic-rate ratios {[f'{r:.2f}' for r in ratios[-3:]]} (<=100), "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criteria 5 and 6: selection-method table and operator curves
# ---------------------------------------------------------------------------

TABLE_ROWS = [(1.0, None), (0.6, 0.01), (0.7, 0.05)]  # (Pc, Pm); None = 1/L


def run_table_batch(selection, pop_size, pc, pm, runs=RUNS, collect_price=False):
    problem = get_problem("schwefel-max", 2)
    spec = EncodingSpec.for_bounds(problem.bounds.lower, problem.bounds.upper, 0.01)
    length = spec.total_length
    fitness = lambda bits: problem.batch(decode_batch(bits, spec))
    rate = 1.0 / length if pm is None else pm
    finals = np.empty(runs)
    curves = []
    for r in range(runs):
        cfg = GAConfig(
            population_size=pop_size, crossover_rate=pc, mutation_rate=rate,
            selection=selection, rng_seed=BASE_SEED + r,
            mutation_scheme="per-chromosome",
        )
        engine = Engine(cfg, length, fitness)
        pop = engine.random_population()
        rows = []
        for gen in range(1, 101):
            pop, lineage, stats = engine.step(pop)
            if collect_price:
                c = decompose_generation(lineage, gen)
                rows.append(
                    (c.selection_term, c.crossover_term, c.mutation_term,
                     2 * c.crossover_sigma, 2 * c.mutation_sigma)
                )
        finals[r] = pop.fitness.max()
        if collect_price:
            curves.append(rows)
    return finals, (np.array(curves) if collect_price else None)


@pytest.fixture(scope="module")
def selection_table():
    start = time.perf_counter()
    table = {}
    price_curves = None
    for pop_size in (50, 100):
        for pc, pm in TABLE_ROWS:
            for method in SelectionMethod:
                collect = (
                    method is SelectionMethod.BINARY_TOURNAMENT
                    and pop_size == 100 and pm is None
                )
                finals, curves = run_table_batch(method, pop_size, pc, pm,
                                                 collect_price=collect)
                table[(method, pop_size, pc)] = finals
                if collect:
                    price_curves = curves
    return {"table": table, "curves": price_curves,
            "elapsed": time.perf_counter() - start}


def test_criterion_5_table_reproduction(selection_table):
    table = selection_table["table"]
    BTS, RWS = SelectionMethod.BINARY_TOURNAMENT, SelectionMethod.ROULETTE_WHEEL
    bts_flag = table[(BTS, 100, 1.0)].mean()
    rws_flag = table[(RWS, 100, 1.0)].mean()
    orderings = {
        (n, pc): table[(BTS, n, pc)].mean() - table[(RWS, n, pc)].mean()
        for n in (50, 100) for pc, _ in TABLE_ROWS
    }
    bts_ok = bts_flag >= 836.0
    rws_ok = 815.0 <= rws_flag <= 835.0
    order_ok = all(v > 0 for v in orderings.values())
    elapsed = selection_table["elapsed"]
    ok = bts_ok and rws_ok and order_ok and elapsed < 180.0
    assert report(
        "5",
        ok,
        f"BTS mean {bts_flag:.2f} (>=836: {bts_ok}); RWS mean {rws_flag:.2f} "
        f"(in [815,835]: {rws_ok}); BTS-RWS margins "
        f"{[f'{v:+.1f}' for v in orderings.values()]} (all >0: {order_ok}); "
        f"table batch {elapsed:.0f}s (<180s)",
    )


def test_criterion_6_price_curve_reproduction(selection_table):
    curves = selection_table["curves"]  # (runs, generations, 5)
    assert curves is not None
    mean_curves = curves.mean(axis=0)
    sel, xo, mut, xo_width, mut_width = mean_curves.T
    sel_ok = bool(np.all(sel >= 0.0))
    mut_ok = bool(np.all(mut[1:] <= 0.0))
    crossing = np.flatnonzero(xo_width <= 0.01)
    xo_ok = crossing.size > 0 and crossing[0] + 1 < 100
    mut_width_ok = bool(np.all(mut_width > 0.01))
    ok = sel_ok and mut_ok and xo_ok and mut_width_ok
    assert report(
        "6",
        ok,
        f"selection term >= 0: {sel_ok}; mutation term <= 0 from gen 2: {mut_ok}; "
        f"crossover width crosses 0.01 at gen "
        f"{int(crossing[0]) + 1 if crossing.size else 'never'} (<100: {xo_ok}); "
        f"mutation width never below 0.01: {mut_width_ok}",
    )


# ---------------------------------------------------------------------------
# criteria 7 and 8: hybrid trajectory and end quality
# ---------------------------------------------------------------------------


def run_hybrid_batch(problem_name, dimension, runs=RUNS):
    problem = get_problem(problem_name, dimension)
    spec = EncodingSpec.for_bounds(problem.bounds.lower, problem.bounds.upper, 0.01)
    length = spec.total_length
    minimize = problem_name != "schwefel-max"
    sign = -1.0 if minimize else 1.0
    out = {"final": np.empty(runs), "frac_at_5k": np.empty(runs)}
    for r in range(runs):
        seed = BASE_SEED + r
        result = run_hybrid(
            problem,
            GAConfig(mutation_rate=1.0 / length, rng_seed=seed, **EXPLORE_GA),
            SQPConfig(),
            EXPLORE_SWITCH,
            rng_seed=seed,
            validation_criteria=VALIDATE_SWITCH,
            validation_ga=GAConfig(mutation_rate=1.0 / length, rng_seed=seed,
                                   **VALIDATE_GA),
        )
        out["final"][r] = result.f_star
        init = result.trace[0].best
        within = [row.best for row in result.trace if row.evaluations <= 5000]
        best5k = min(within) if minimize else max(within)
        gap = abs(init - problem.known_optimum_value)
        out["frac_at_5k"][r] = abs(init - best5k) / gap if gap > 0 else 1.0
    return out


@pytest.fixture(scope="module")
def hybrid_batches():
    start = time.perf_counter()
    batches = {
        name: run_hybrid_batch(name, n)
        for name, n in (("ackley", 10), ("rastrigin", 10), ("schwefel", 10),
                        ("schwefel-max", 2))
    }
    batches["elapsed"] = time.perf_counter() - start
    return batches


@pytest.mark.parametrize("problem_name", ["ackley", "rastrigin", "schwefel"])
def test_criterion_7_hybrid_speed(hybrid_batches, problem_name):
    fracs = hybrid_batches[problem_name]["frac_at_5k"]
    mean_frac = float(fracs.mean())
    ok = mean_frac >= 0.90
    assert report(
        f"7:{problem_name}",
        ok,
        f"mean gap fraction closed within 5000 evaluations = {mean_frac:.3f} (>=0.90)",
    )


def test_criterion_7_runtime(hybrid_batches):
    elapsed = hybrid_batches["elapsed"]
    ok = elapsed < 600.0
    assert report("7:runtime", ok, f"hybrid batches took {elapsed:.0f}s (<600s)")


def test_criterion_8_hybrid_end_quality(hybrid_batches):
    ackley_final = hybrid_batches["ackley"]["final"]
    schwefel_final = hybrid_batches["schwefel-max"]["final"]
    ackley_hits = int(np.sum(ackley_final < 1e-4))
    schwefel_hits = int(np.sum(schwefel_final >= 837.9))
    ok = ackley_hits >= 90 and schwefel_hits >= 95
    assert report(
        "8",
        ok,
        f"ackley n=10 final < 1e-4 in {ackley_hits}/100 (>=90); "
        f"schwefel-max final >= 837.9 in {schwefel_hits}/100 (>=95)",
    )


# ---------------------------------------------------------------------------
# criterion 9: invariant property suites
# ---------------------------------------------------------------------------


def test_criterion_9_invariant_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(9)

    spec = EncodingSpec.for_bounds([-5.0, -500.0], [5.0, 500.0], 0.01)
    roundtrip = all(
        np.array_equal(encode(decode(c, spec), spec), c)
        for c in random_bits(spec.total_length, 1000, rng)
    )

    monotone = True
    for _ in range(1000):
        n = 2 * int(rng.integers(2, 7))
        parents = Population(
            random_bits(8, n, rng), rng.normal(size=n) * rng.uniform(0.5, 20)
        )
        offspring = Population(random_bits(8, n, rng), rng.normal(size=n) * 5)
        state = EliteState(n_elite=int(rng.integers(1, n // 2 + 1)))
        merged = adaptive_elitism_replace(parents, offspring, state)
        if merged.fitness.max() < max(parents.fitness.max(), offspring.fitness.max()) - 1e-12:
            monotone = False

    wolfe_steps = 0
    wolfe_ok = True
    while wolfe_steps < 1000:
        m = int(rng.integers(2, 4))
        A = rng.normal(size=(m, m))
        Q = A @ A.T + 0.5 * np.eye(m)
        b = rng.normal(size=m)

        def quad(v, Q=Q, b=b, m=m):
            acc = 0.0
            for i in range(m):
                acc = acc + 0.5 * Q[i, i] * v[i] * v[i] - b[i] * v[i]
                for j in range(i + 1, m):
                    acc = acc + Q[i, j] * v[i] * v[j]
            return acc

        res = sqp_run(quad, rng.normal(size=m) * 5, None, SQPConfig())
        wolfe_ok &= all(it.wolfe_ok for it in res.trace)
        wolfe_steps += max(len(res.trace), 1)

    feasible = True
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        A = rng.normal(size=(m, m))
        H = A @ A.T + 0.3 * np.eye(m)
        g = rng.normal(size=m) * 10
        lb, ub = -rng.uniform(0.1, 2, m), rng.uniform(0.1, 2, m)
        s = ipm_qp_solve(g, Hessian.from_dense(H), BoundBox(lb, ub))
        feasible &= bool(np.all(s > lb) and np.all(s < ub))

    deterministic = True
    comparisons = 0
    w = rng.normal(size=12)
    for seed in range(20):
        streams = []
        for _ in range(2):
            cfg = GAConfig(population_size=8, mutation_rate=0.1,
                           overlap_fraction=0.25, rng_seed=seed)
            engine = Engine(cfg, 12, lambda b: b @ w + 2.0)
            pop = engine.random_population()
            stream = []
            for _ in range(50):
                pop, lineage, stats = engine.step(pop)
                stream.append((pop.bits.tobytes(), stats.best))
            streams.append(stream)
        for a, b_ in zip(*streams):
            comparisons += 1
            if a != b_:
                deterministic = False

    elapsed = time.perf_counter() - start
    ok = (roundtrip and monotone and wolfe_ok and feasible and deterministic
          and comparisons >= 1000 and elapsed < 60.0)
    assert report(
        "9",
        ok,
        f"roundtrip(1000): {roundtrip}; elitism monotone(1000): {monotone}; "
        f"wolfe steps({wolfe_steps}): {wolfe_ok}; ipm feasible(1000): {feasible}; "
        f"determinism({comparisons}): {deterministic}; {elapsed:.0f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# desk-scale replacement for the high-dimension comparison: smoke run
# ---------------------------------------------------------------------------


def test_smoke_run_ackley_100d():
    problem = get_problem("ackley", 100)
    spec = EncodingSpec.for_bounds(problem.bounds.lower, problem.bounds.upper, 0.01)
    length = spec.total_length
    result = run_hybrid(
        problem,
        GAConfig(mutation_rate=1.0 / length, rng_seed=BASE_SEED, **EXPLORE_GA),
        SQPConfig(),
        EXPLORE_SWITCH,
        rng_seed=BASE_SEED,
        validation_criteria=SwitchCriteria(max_generations=300, stall_window=100,
                                           stall_epsilon=1e-9),
        validation_ga=GAConfig(mutation_rate=1.0 / length, rng_seed=BASE_SEED,
                               **VALIDATE_GA),
    )
    init = result.trace[0].best
    gap_closed = (init - result.f_star) / (init - problem.known_optimum_value)
    ok = gap_closed >= 0.99
    assert report(
        "smoke",
        ok,
        f"n=100 run completed; initial {init:.2f} -> final {result.f_star:.4f}, "
        f"gap closed {gap_closed:.1%} (>=99%)",
    )
