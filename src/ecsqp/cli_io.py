"""Configuration, experiment orchestration and trace persistence.

A run configuration is a YAML key/value tree selecting a registered problem,
the encoding precision, the evolutionary and local-solver parameters, the
switching criteria and the repetition/seeding scheme.  The CLI exposes four
subcommands::

    ecsqp run --config cfg.yaml [--mode hybrid|ec|sqp] [--runs R] [--seed S]
              [--out DIR] [--jobs J]
    ecsqp price-trace --config cfg.yaml [...]        # EC mode, per-operator CSV
    ecsqp ad-check --problem NAME --dimension N [--samples K] [--seed S]
    ecsqp bench-list

Each run writes ``trace_<i>.csv``; a batch additionally writes
``aggregate.csv`` (per-generation means and standard errors across runs) and
``summary.txt``.  Numeric CSV fields carry 9 significant digits.  Per-run
seeds are ``base_seed + run_index``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from itertools import islice
from pathlib import Path

import numpy as np
import yaml

from .benchmarks import BenchmarkProblem, get_problem, list_problems
from .encoding import EncodingSpec
from .evolution import Engine, GAConfig, SelectionMethod
from .fdcheck import fd_gradient, fd_hessian, max_relative_error
from .hybrid import HybridResult, SwitchCriteria, evolve, fitness_function, run_hybrid
from .local_search import SQPConfig, sqp_run
from .price_monitor import sigma_width
# unused here, but perfbench/tracing.py rebinds these names on this module
from .encoding import decode_batch  # noqa: F401
from .price_monitor import decompose_generation  # noqa: F401
from . import autodiff

__all__ = [
    "AggregateReport",
    "ConfigError",
    "RunConfig",
    "ad_check",
    "main",
    "run_batch",
]

PRICE_COLUMNS = (
    "generation",
    "selection_term",
    "crossover_term",
    "mutation_term",
    "crossover_sigma_width",
    "mutation_sigma_width",
    "best",
    "mean",
    "worst",
)
HYBRID_COLUMNS = ("phase", "step", "best", "mean", "evaluations")
SQP_COLUMNS = ("iteration", "f", "grad_norm", "step_norm", "alpha", "lambda")

GRAD_TOLERANCE = 1e-6
HESS_TOLERANCE = 1e-4


class ConfigError(ValueError):
    """Unusable run configuration."""


#: validation-round defaults for hybrid mode: a larger per-bit population with
#: a patient stall detector digs the incumbent's basin out to grid precision.
VALIDATION_GA_DEFAULTS = dict(
    population_size=200, mutation_scheme="per-bit", mutation_rate="1/l"
)
VALIDATION_SWITCH_DEFAULTS = dict(
    max_generations=800, stall_window=150, stall_epsilon=1e-9
)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one experiment batch."""

    problem: str
    dimension: int
    precision: float | list = 0.01  # scalar or per-variable
    ga: GAConfig = field(default_factory=lambda: GAConfig(population_size=100))
    sqp: SQPConfig = field(default_factory=SQPConfig)
    switch: SwitchCriteria = field(default_factory=SwitchCriteria)
    validation_ga: GAConfig | None = None
    validation_switch: SwitchCriteria | None = None
    repetitions: int = 1
    seed: int = 0
    output: str | None = None
    mode: str = "hybrid"
    mutation_rate_raw: str | float | None = None
    validation_mutation_rate_raw: str | float | None = None
    x0: list | None = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.mode not in ("hybrid", "ec", "sqp"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        for raw in (self.mutation_rate_raw, self.validation_mutation_rate_raw):
            if isinstance(raw, str) and raw.strip().lower().replace(" ", "") != "1/l":
                raise ConfigError(
                    f"unrecognized mutation_rate {raw!r}; use 1/l or a number"
                )

    def run_seed(self, index: int) -> int:
        return self.seed + index

    def make_problem(self) -> BenchmarkProblem:
        return get_problem(self.problem, self.dimension)

    @staticmethod
    def _bind_mutation(ga: GAConfig, raw, spec: EncodingSpec) -> GAConfig:
        if raw is None:
            return ga
        rate = 1.0 / spec.total_length if isinstance(raw, str) else float(raw)
        return replace(ga, mutation_rate=rate)

    def resolved_ga(self, spec: EncodingSpec) -> GAConfig:
        """GA settings with a '1/l' mutation rate bound to the string length."""
        return self._bind_mutation(self.ga, self.mutation_rate_raw, spec)

    def resolved_validation(
        self, spec: EncodingSpec
    ) -> tuple[GAConfig | None, SwitchCriteria | None]:
        ga = self.validation_ga
        if ga is not None:
            ga = self._bind_mutation(ga, self.validation_mutation_rate_raw, spec)
        return ga, self.validation_switch


def _build_section(cls, data: dict, *, context: str = ""):
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {context or cls.__name__}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {context or cls.__name__}: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a YAML run-configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")

    def parse_ga(section: dict, context: str):
        section = dict(section)
        section.setdefault("population_size", 100)
        raw = section.pop("mutation_rate", None)
        if isinstance(raw, (int, float)):
            section["mutation_rate"] = float(raw)
            raw = None
        if "selection" in section:
            try:
                section["selection"] = SelectionMethod(section["selection"])
            except ValueError as exc:
                names = ", ".join(m.value for m in SelectionMethod)
                raise ConfigError(
                    f"unknown selection {section['selection']!r}; options: {names}"
                ) from exc
        return _build_section(GAConfig, section, context=context), raw

    data = dict(data)
    mode = data.get("mode", "hybrid")
    ga, mutation_raw = parse_ga(data.pop("ga", {}), "ga section")
    sqp = _build_section(SQPConfig, dict(data.pop("sqp", {})), context="sqp section")
    switch = _build_section(
        SwitchCriteria, dict(data.pop("switch", {})), context="switch section"
    )
    validation_ga = validation_switch = None
    val_raw = None
    if mode == "hybrid":
        val_ga_data = {**VALIDATION_GA_DEFAULTS, **data.pop("validation_ga", {})}
        validation_ga, val_raw = parse_ga(val_ga_data, "validation_ga section")
        validation_switch = _build_section(
            SwitchCriteria,
            {**VALIDATION_SWITCH_DEFAULTS, **data.pop("validation_switch", {})},
            context="validation_switch section",
        )
    else:
        data.pop("validation_ga", None)
        data.pop("validation_switch", None)
    for required in ("problem", "dimension"):
        if required not in data:
            raise ConfigError(f"missing required key {required!r}")
    cfg = _build_section(
        RunConfig,
        {**data, "ga": ga, "sqp": sqp, "switch": switch,
         "validation_ga": validation_ga, "validation_switch": validation_switch,
         "mutation_rate_raw": mutation_raw,
         "validation_mutation_rate_raw": val_raw},
        context="run config",
    )
    try:
        cfg.make_problem()
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


# ---------------------------------------------------------------------------
# single-run workers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.9g}"
    return str(value)


def _write_csv(path: Path, header: tuple, rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _run_ec(cfg: RunConfig, index: int) -> dict:
    """One seeded evolution-only run to the generation cap, with operator rows."""
    problem = cfg.make_problem()
    spec = EncodingSpec.for_bounds(
        problem.bounds.lower, problem.bounds.upper, cfg.precision
    )
    ga = replace(cfg.resolved_ga(spec), rng_seed=cfg.run_seed(index))
    engine = Engine(ga, spec.total_length, fitness_function(problem, spec))
    generations = evolve(engine, engine.random_population(), cfg.switch)
    rows = []
    for gen, pop, c, stats, state in islice(generations, ga.max_generations):
        rows.append(
            (
                gen, c.selection_term, c.crossover_term, c.mutation_term,
                sigma_width(c.crossover_sigma), sigma_width(c.mutation_sigma),
                stats.best, stats.mean, stats.worst,
            )
        )
    return {
        "index": index,
        "columns": PRICE_COLUMNS,
        "rows": rows,
        "final_best": problem.sign * float(pop.fitness.max()),
        "evaluations": engine.evaluations,
        "converged_at": state.converged_at,
    }


def _run_hybrid(cfg: RunConfig, index: int) -> dict:
    problem = cfg.make_problem()
    spec = EncodingSpec.for_bounds(
        problem.bounds.lower, problem.bounds.upper, cfg.precision
    )
    val_ga, val_switch = cfg.resolved_validation(spec)
    result: HybridResult = run_hybrid(
        problem,
        replace(cfg.resolved_ga(spec), rng_seed=cfg.run_seed(index)),
        cfg.sqp,
        cfg.switch,
        cfg.run_seed(index),
        precision=cfg.precision,
        validation_criteria=val_switch,
        validation_ga=val_ga,
    )
    rows = [
        (r.phase, r.step, r.best, r.mean, r.evaluations) for r in result.trace
    ]
    return {
        "index": index,
        "columns": HYBRID_COLUMNS,
        "rows": rows,
        "final_best": result.f_star,
        "evaluations": result.evaluations["total"],
        "switch_reason": result.switch_reason.value,
        "warnings": result.warnings,
    }


def _run_sqp(cfg: RunConfig, index: int) -> dict:
    problem = cfg.make_problem()
    rng = np.random.default_rng(cfg.run_seed(index))
    if cfg.x0 is not None:
        x0 = np.asarray(cfg.x0, dtype=float)
    else:
        box = problem.bounds
        x0 = rng.uniform(box.lower, box.upper)
    result = sqp_run(problem.minimand, x0, problem.bounds, cfg.sqp)
    rows = [
        (it.iteration, -problem.sign * it.f, it.grad_norm,
         it.step_norm, it.alpha, it.lambda_used)
        for it in result.trace
    ]
    return {
        "index": index,
        "columns": SQP_COLUMNS,
        "rows": rows,
        "final_best": -problem.sign * result.f,
        "evaluations": result.evaluations,
        "stop_reason": result.stop_reason,
    }


_MODE_RUNNERS = {"ec": _run_ec, "hybrid": _run_hybrid, "sqp": _run_sqp}


def _execute_one(cfg: RunConfig, index: int, out_dir: str | None) -> dict:
    try:
        outcome = _MODE_RUNNERS[cfg.mode](cfg, index)
        if out_dir is not None:
            _write_csv(
                Path(out_dir) / f"trace_{index}.csv",
                outcome["columns"],
                outcome["rows"],
            )
        return outcome
    except Exception as exc:  # per-run isolation
        return {"index": index, "error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


@dataclass
class AggregateReport:
    """Across-run per-generation means and standard errors plus final stats."""

    columns: tuple
    generations: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    counts: np.ndarray
    final_best: np.ndarray

    @classmethod
    def from_runs(cls, columns: tuple, runs: list[dict]) -> "AggregateReport":
        numeric = [c for c in columns if c != "generation"]
        max_len = max(len(r["rows"]) for r in runs)
        data = np.full((len(runs), max_len, len(numeric)), np.nan)
        for i, run in enumerate(runs):
            for g, row in enumerate(run["rows"]):
                data[i, g, :] = row[1:]
        counts = np.sum(~np.isnan(data[:, :, 0]), axis=0)
        with np.errstate(invalid="ignore"):
            means = np.nanmean(data, axis=0)
        # sample standard error (R-1 divisor), NaN where a single run remains
        deviations = np.where(np.isnan(data), 0.0, data - means[None, :, :])
        ss = np.sum(deviations**2, axis=0)
        denom = np.maximum(counts[:, None] - 1, 1).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            stderrs = np.sqrt(ss / denom) / np.sqrt(counts[:, None])
        stderrs[counts < 2, :] = np.nan
        return cls(
            columns=columns,
            generations=np.arange(1, max_len + 1),
            means=means,
            stderrs=stderrs,
            counts=counts,
            final_best=np.array([r["final_best"] for r in runs]),
        )

    def rows(self) -> list[tuple]:
        numeric = [c for c in self.columns if c != "generation"]
        out = []
        for g in range(self.generations.size):
            row = [int(self.generations[g]), int(self.counts[g])]
            for j in range(len(numeric)):
                row.append(float(self.means[g, j]))
                row.append(float(self.stderrs[g, j]))
            out.append(tuple(row))
        return out

    def header(self) -> tuple:
        numeric = [c for c in self.columns if c != "generation"]
        cols = ["generation", "runs"]
        for c in numeric:
            cols.append(f"{c}_mean")
            cols.append(f"{c}_se")
        return tuple(cols)


def run_batch(cfg: RunConfig, out_dir: str | None, jobs: int = 1) -> dict:
    """Execute the configured repetitions; returns results and failures."""
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    indices = list(range(cfg.repetitions))
    if jobs > 1 and len(indices) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(
                pool.map(_execute_one, [cfg] * len(indices), indices,
                         [out_dir] * len(indices))
            )
    else:
        outcomes = [_execute_one(cfg, i, out_dir) for i in indices]
    outcomes.sort(key=lambda o: o["index"])
    good = [o for o in outcomes if "error" not in o]
    failed = [o for o in outcomes if "error" in o]

    report = None
    if good and cfg.mode == "ec":
        report = AggregateReport.from_runs(PRICE_COLUMNS, good)
        if out_dir is not None:
            _write_csv(Path(out_dir) / "aggregate.csv", report.header(), report.rows())
    if good and out_dir is not None:
        _write_summary(Path(out_dir) / "summary.txt", cfg, good, failed)
    return {"runs": good, "failures": failed, "aggregate": report}


def _write_summary(path: Path, cfg: RunConfig, good: list[dict], failed: list[dict]):
    best = np.array([r["final_best"] for r in good])
    evals = np.array([r["evaluations"] for r in good])
    lines = [
        f"problem: {cfg.problem} (n={cfg.dimension}, mode={cfg.mode})",
        f"runs: {len(good)} ok, {len(failed)} failed "
        f"(seeds {cfg.seed}..{cfg.seed + cfg.repetitions - 1})",
        f"final best: mean={best.mean():.9g} sd={best.std(ddof=1) if best.size > 1 else 0.0:.9g} "
        f"min={best.min():.9g} max={best.max():.9g}",
        f"objective evaluations per run: mean={evals.mean():.1f} max={evals.max()}",
    ]
    for o in failed:
        lines.append(f"run {o['index']} failed: {o['error']}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# AD spot check
# ---------------------------------------------------------------------------


@dataclass
class ADCheckReport:
    problem: str
    dimension: int
    samples: int
    max_grad_error: float
    max_hess_error: float

    @property
    def ok(self) -> bool:
        return (
            self.max_grad_error < GRAD_TOLERANCE
            and self.max_hess_error < HESS_TOLERANCE
        )


def ad_check(
    problem_name: str, dimension: int, samples: int = 100, seed: int = 0
) -> ADCheckReport:
    """Compare AD gradients/Hessians against central finite differences."""
    problem = get_problem(problem_name, dimension)
    rng = np.random.default_rng(seed)
    box = problem.bounds
    plain = problem.evaluate  # plain floats, independent of the AD path
    worst_g = 0.0
    worst_h = 0.0
    for _ in range(samples):
        x = rng.uniform(box.lower, box.upper)
        _, grad, hess = autodiff.evaluate(problem.fn, x)
        worst_g = max(worst_g, max_relative_error(grad, fd_gradient(plain, x)))
        worst_h = max(worst_h, max_relative_error(hess, fd_hessian(plain, x)))
    return ADCheckReport(problem_name, dimension, samples, worst_g, worst_h)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="YAML run configuration")
    p.add_argument("--mode", choices=("hybrid", "ec", "sqp"))
    p.add_argument("--runs", type=int, help="override repetitions")
    p.add_argument("--seed", type=int, help="override base seed")
    p.add_argument("--out", help="override output directory")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes (default: available cores)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecsqp",
        description="hybrid evolutionary / Newton-SQP optimizer harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_flags(sub.add_parser("run", help="execute seeded runs"))
    _add_run_flags(
        sub.add_parser("price-trace", help="evolution-only runs with operator CSV")
    )
    adp = sub.add_parser("ad-check", help="derivative spot check vs finite differences")
    adp.add_argument("--problem", required=True)
    adp.add_argument("--dimension", type=int, required=True)
    adp.add_argument("--samples", type=int, default=100)
    adp.add_argument("--seed", type=int, default=0)
    sub.add_parser("bench-list", help="list registered benchmark problems")
    return parser


def _cmd_run(args, force_mode: str | None = None) -> int:
    try:
        cfg = load_config(args.config)
        overrides = {}
        if force_mode is not None:
            overrides["mode"] = force_mode
        elif args.mode is not None:
            overrides["mode"] = args.mode
        if args.runs is not None:
            overrides["repetitions"] = args.runs
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["output"] = args.out
        if overrides:
            cfg = replace(cfg, **overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = cfg.output or "."
    result = run_batch(cfg, out_dir, jobs=max(1, args.jobs))
    good, failed = result["runs"], result["failures"]
    if good:
        best = np.array([r["final_best"] for r in good])
        print(
            f"{cfg.problem} n={cfg.dimension} mode={cfg.mode}: "
            f"{len(good)} runs, final best mean {best.mean():.9g} "
            f"(min {best.min():.9g}, max {best.max():.9g}) -> {out_dir}"
        )
    for o in failed:
        print(f"run {o['index']} failed: {o['error']}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_ad_check(args) -> int:
    try:
        report = ad_check(args.problem, args.dimension, args.samples, args.seed)
    except KeyError as exc:
        print(f"config error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(
        f"{report.problem} n={report.dimension}, {report.samples} samples: "
        f"max gradient rel-err {report.max_grad_error:.3e} "
        f"(tol {GRAD_TOLERANCE:.0e}), "
        f"max Hessian rel-err {report.max_hess_error:.3e} (tol {HESS_TOLERANCE:.0e})"
    )
    return 0 if report.ok else 1


def _cmd_bench_list() -> int:
    for name in list_problems():
        try:
            get_problem(name, 3)
            dims = "any dimension"
        except ValueError:
            dims = "dimension 2"
        p = get_problem(name, 2)
        lo, hi = p.bounds.lower[0], p.bounds.upper[0]
        print(
            f"{name}: {p.orientation.value}, bounds [{lo:g}, {hi:g}]^n, {dims}, "
            f"optimum {p.known_optimum_value:.6g} (n=2)"
        )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "price-trace":
        return _cmd_run(args, force_mode="ec")
    if args.command == "ad-check":
        return _cmd_ad_check(args)
    if args.command == "bench-list":
        return _cmd_bench_list()
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
