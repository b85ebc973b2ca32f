"""The benchmark's workloads: inputs from a seed, one run, and output checks.

A workload builds a *pass*: a list of cases, each one closed-loop run of the
program.  The runner repeats the pass while time allows, so every pass has
the same composition and a faster program only adds repeats.  Each case's
outcome carries its evaluation counts, quality figures, the invariants it
broke, and a digest row (f* and evaluation counts) that must repeat exactly
from pass to pass.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import ecsqp.cli_io
import ecsqp.hybrid
import ecsqp.local_search
from ecsqp.benchmarks import BenchmarkProblem, Orientation, get_problem
from ecsqp.cli_io import PRICE_COLUMNS, RunConfig
from ecsqp.encoding import EncodingSpec
from ecsqp.evolution import GAConfig, SelectionMethod
from ecsqp.hybrid import SwitchCriteria
from ecsqp.local_search import SQPConfig

CONVERGED_STOPS = ("grad_tol", "step_tol", "delta_stall")
HIT_TOL = 1e-4
SCHWEFEL_MAX_HIT = 837.9
GAP_BUDGET = 5000  # evaluations, the criterion-7 window


@dataclass
class Outcome:
    """What one run produced, in the problem's native orientation."""

    evals: dict[str, int]
    gap_closed: float
    hit_frac: float
    gap_closed_5k: float | None = None
    converged: float | None = None
    errors: list[str] = field(default_factory=list)
    digest: tuple = ()
    bytes_written: int = 0


@dataclass(frozen=True)
class Case:
    label: str
    args: tuple


def _gap(start: float, value: float, optimum: float) -> float:
    """Share of the start-to-optimum gap closed; orientation-free."""
    return (start - value) / (start - optimum) if start != optimum else 1.0


def _draw_seeds(seed: int, count: int, low: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(low, 2**31, size=count)]


# ---------------------------------------------------------------------------
# hybrid-protocol
# ---------------------------------------------------------------------------

# the acceptance protocol: fast-switching exploration, patient validation
EXPLORE_GA = dict(population_size=100, crossover_rate=1.0,
                  selection=SelectionMethod.BINARY_TOURNAMENT,
                  mutation_scheme="per-chromosome")
EXPLORE_SWITCH = SwitchCriteria(max_generations=100)
VALIDATE_GA = dict(population_size=200, crossover_rate=1.0, mutation_scheme="per-bit")
VALIDATE_SWITCH = SwitchCriteria(max_generations=800, stall_window=150,
                                 stall_epsilon=1e-9)
HYBRID_PROBLEMS = (("schwefel-max", 2), ("schwefel", 10), ("rastrigin", 10), ("ackley", 10))
PROTOCOL_RUNS = 100  # seeds 0..99 are the acceptance protocol's


class HybridProtocol:
    name = "hybrid-protocol"
    seconds_per_round = 5.0  # sizes a pass: 6 rounds, about 25 s on the 2-core host

    def __init__(self) -> None:
        self.problems = {name: get_problem(name, n) for name, n in HYBRID_PROBLEMS}
        self.lengths = {
            name: EncodingSpec.for_bounds(p.bounds.lower, p.bounds.upper, 0.01).total_length
            for name, p in self.problems.items()
        }

    @staticmethod
    def _rounds(seeds) -> list[Case]:
        return [Case(f"{name}/seed={s}", (name, s))
                for s in seeds for name, _ in HYBRID_PROBLEMS]

    def cases(self, seed: int, seconds: float) -> list[Case]:
        """Rounds of the four problems at the protocol's first seeds.

        The timed list is the same for every ``--seed``: one seed's cost
        varies several-fold (Schwefel's validation round stops after 52k or
        260k evaluations), more than a pass can average out.
        """
        return self._rounds(range(max(1, round(seconds / self.seconds_per_round))))

    def held_out(self, seed: int) -> list[Case]:
        """One round at a seed outside the protocol's, drawn from ``seed``."""
        return self._rounds(_draw_seeds(seed, 1, PROTOCOL_RUNS))

    def warm_up(self) -> None:
        self.run(Case("warm-up", ("schwefel-max", 0)), lambda p: p)

    def size(self, cases: list[Case]) -> str:
        seeds = sorted({c.args[1] for c in cases})
        return (f"{len(cases)} hybrid runs: {', '.join(n for n, _ in HYBRID_PROBLEMS)} "
                f"x protocol seeds {seeds}, plus one untimed held-out round")

    def run(self, case: Case, wrap: Callable[[BenchmarkProblem], BenchmarkProblem]):
        name, seed = case.args
        length = self.lengths[name]
        return ecsqp.hybrid.run_hybrid(
            wrap(self.problems[name]),
            GAConfig(mutation_rate=1.0 / length, rng_seed=seed, **EXPLORE_GA),
            SQPConfig(),
            EXPLORE_SWITCH,
            rng_seed=seed,
            validation_criteria=VALIDATE_SWITCH,
            validation_ga=GAConfig(mutation_rate=1.0 / length, rng_seed=seed, **VALIDATE_GA),
        )

    def check(self, case: Case, result) -> Outcome:
        name, _ = case.args
        problem = self.problems[name]
        errors = []
        f_check = problem.evaluate(result.x_star)
        if not abs(f_check - result.f_star) <= 1e-9 * max(1.0, abs(f_check)):
            errors.append(f"f* {result.f_star!r} != evaluate(x*) {f_check!r}")
        box = problem.bounds
        if not (np.all(result.x_star >= box.lower) and np.all(result.x_star <= box.upper)):
            errors.append("x* outside the bounds")
        ev = result.evaluations
        if ev["ec"] + ev["sqp"] + ev["validation"] != ev["total"]:
            errors.append(f"phase evaluations {ev} do not sum to the total")
        opt = problem.known_optimum_value
        start = result.trace[0].best
        within = [row.best for row in result.trace if row.evaluations <= GAP_BUDGET]
        best5k = max(within) if problem.orientation is Orientation.MAXIMIZE else min(within)
        if name == "schwefel-max":
            hit = result.f_star >= SCHWEFEL_MAX_HIT
        else:
            hit = abs(result.f_star - opt) <= HIT_TOL
        converged = (result.sqp_result is not None
                     and result.sqp_result.stop_reason in CONVERGED_STOPS)
        return Outcome(
            evals=dict(ev),
            gap_closed=_gap(start, result.f_star, opt),
            gap_closed_5k=_gap(start, best5k, opt),
            hit_frac=float(hit),
            converged=float(converged),
            errors=errors,
            digest=(case.label, result.f_star, ev["ec"], ev["sqp"], ev["validation"]),
        )


# ---------------------------------------------------------------------------
# sqp-n100
# ---------------------------------------------------------------------------


class SqpN100:
    name = "sqp-n100"
    seconds_per_run = 0.33  # sizes a pass: 90 starts, about 25 s on the 2-core host

    def __init__(self) -> None:
        self.problems = {name: get_problem(name, 100) for name in ("ackley", "rastrigin")}

    def cases(self, seed: int, seconds: float) -> list[Case]:
        count = max(2, 2 * round(seconds / self.seconds_per_run / 2))
        cases = []
        for i, start_seed in enumerate(_draw_seeds(seed, count, 0)):
            name = ("ackley", "rastrigin")[i % 2]
            box = self.problems[name].bounds
            x0 = np.random.default_rng(start_seed).uniform(box.lower, box.upper)
            cases.append(Case(f"{name}/start={start_seed}", (name, x0)))
        return cases

    def warm_up(self) -> None:
        self.run(self.cases(0, 0)[0], lambda p: p)

    def held_out(self, seed: int) -> list[Case]:
        return []  # every timed start is drawn from the seed

    def size(self, cases: list[Case]) -> str:
        return f"{len(cases)} SQP starts at n=100, alternating ackley and rastrigin"

    def run(self, case: Case, wrap):
        name, x0 = case.args
        problem = wrap(self.problems[name])
        return ecsqp.local_search.sqp_run(problem.fn, x0, problem.bounds, SQPConfig())

    def check(self, case: Case, result) -> Outcome:
        name, x0 = case.args
        problem = self.problems[name]
        errors = []
        f0 = problem.evaluate(problem.bounds.project_inward(x0))
        if not math.isfinite(result.f):
            errors.append(f"final f {result.f!r} is not finite")
        elif result.f > f0 + 1e-12 * max(1.0, abs(f0)):
            errors.append(f"final f {result.f!r} above f(x0) {f0!r}")
        if not problem.bounds.contains_strict(result.x):
            errors.append("final x not strictly inside the box")
        opt = problem.known_optimum_value
        within = [it.f for it in result.trace if it.evaluations <= GAP_BUDGET]
        best5k = min([f0] + within)
        return Outcome(
            evals={"sqp": result.evaluations, "total": result.evaluations},
            gap_closed=_gap(f0, result.f, opt),
            gap_closed_5k=_gap(f0, best5k, opt),
            hit_frac=float(abs(result.f - opt) <= HIT_TOL),
            converged=float(result.stop_reason in CONVERGED_STOPS),
            errors=errors,
            digest=(case.label, result.f, result.evaluations, result.stop_reason),
        )


# ---------------------------------------------------------------------------
# price-trace-n2
# ---------------------------------------------------------------------------

# the selection-method table: (Pc, Pm), None meaning 1/l
TABLE_ROWS = ((1.0, None), (0.6, 0.01), (0.7, 0.05))
TRACE_REPETITIONS = 3
TRACE_GENERATIONS = 100


class PriceTraceN2:
    name = "price-trace-n2"
    seconds_per_grid = 2.0  # sizes a pass: 15 grids, about 25 s on the 2-core host

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.problem = get_problem("schwefel-max", 2)

    @staticmethod
    def _config(pop: int, selection: SelectionMethod, pc: float, pm, seed: int) -> RunConfig:
        ga = GAConfig(population_size=pop, crossover_rate=pc,
                      mutation_rate=0.01 if pm is None else pm, selection=selection,
                      mutation_scheme="per-chromosome", max_generations=TRACE_GENERATIONS)
        return RunConfig(problem="schwefel-max", dimension=2, precision=0.01, ga=ga,
                         mutation_rate_raw="1/l" if pm is None else None,
                         repetitions=TRACE_REPETITIONS, seed=seed, mode="ec")

    def cases(self, seed: int, seconds: float) -> list[Case]:
        grids = max(1, round(seconds / self.seconds_per_grid))
        cases = []
        for base in _draw_seeds(seed, grids, 0):
            for pop in (50, 100):
                for selection in SelectionMethod:
                    for pc, pm in TABLE_ROWS:
                        cfg = self._config(pop, selection, pc, pm, base)
                        label = (f"pop={pop}/{selection.value}/pc={pc}/"
                                 f"pm={'1/l' if pm is None else pm}/seed={base}")
                        cases.append(Case(label, (cfg,)))
        return cases

    def warm_up(self) -> None:
        self.check(self.cases(0, 0)[0], self.run(self.cases(0, 0)[0], lambda p: p))

    def held_out(self, seed: int) -> list[Case]:
        return []  # every timed base seed is drawn from the seed

    def size(self, cases: list[Case]) -> str:
        return (f"{len(cases)} run_batch calls of {TRACE_REPETITIONS} ec runs x "
                f"{TRACE_GENERATIONS} generations: 12 grid configurations x "
                f"{len(cases) // 12} base seeds")

    def run(self, case: Case, wrap):
        (cfg,) = case.args
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        return out, ecsqp.cli_io.run_batch(cfg, str(out), jobs=1)

    def check(self, case: Case, raw) -> Outcome:
        out, result = raw
        try:
            return self._check(case, out, result)
        finally:
            shutil.rmtree(out)

    def _check(self, case: Case, out: Path, result: dict) -> Outcome:
        errors = [f"run {f['index']} failed: {f['error']}" for f in result["failures"]]
        gaps = []
        for run in result["runs"]:
            path = out / f"trace_{run['index']}.csv"
            lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
            if not lines or lines[0] != ",".join(PRICE_COLUMNS):
                errors.append(f"{path.name} missing or without its header")
                continue
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
            if not rows:
                errors.append(f"{path.name} has no rows")
                continue
            if [int(r[0]) for r in rows] != list(range(1, TRACE_GENERATIONS + 1)):
                errors.append(f"{path.name} does not have one row per generation")
            if not all(math.isfinite(v) for r in rows for v in r):
                errors.append(f"{path.name} has a non-finite value")
            best = PRICE_COLUMNS.index("best")
            gaps.append(_gap(rows[0][best], run["final_best"], self.problem.known_optimum_value))
        if not (out / "aggregate.csv").exists():
            errors.append("aggregate.csv missing")
        finals = [run["final_best"] for run in result["runs"]]
        evals = [run["evaluations"] for run in result["runs"]]
        return Outcome(
            evals={"ec": sum(evals), "total": sum(evals)},
            gap_closed=float(np.mean(gaps)) if gaps else 0.0,
            hit_frac=float(np.mean([f >= SCHWEFEL_MAX_HIT for f in finals])) if finals else 0.0,
            errors=errors,
            digest=(case.label, *finals, *evals),
            bytes_written=sum(p.stat().st_size for p in out.iterdir()),
        )


def make(name: str, scratch: Path):
    if name == HybridProtocol.name:
        return HybridProtocol()
    if name == SqpN100.name:
        return SqpN100()
    if name == PriceTraceN2.name:
        return PriceTraceN2(scratch)
    raise KeyError(name)


NAMES = (HybridProtocol.name, SqpN100.name, PriceTraceN2.name)
