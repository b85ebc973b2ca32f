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

An ``ec`` batch steps its runs together as one stack (``--jobs J`` splits
them into J contiguous stacks, one per worker process); each run keeps its
own generator, so the output is byte-identical to running one at a time.
Hybrid and sqp runs end on data-dependent conditions and run one per task.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .benchmarks import BenchmarkProblem, get_problem, list_problems
from .encoding import EncodingSpec
from .evolution import Engine, GAConfig, RunStreams
from .fdcheck import fd_gradient, fd_hessian, max_relative_error
from .hybrid import (VALIDATION_GA, VALIDATION_SWITCH, SwitchCriteria, SwitchReason,
                     fitness_function, ga_phase, run_hybrid)
from .local_search import SQPConfig, sqp_run
from .price_monitor import sigma_width
# unused here, but perfbench/tracing.py rebinds these names on this module
from .encoding import decode_batch  # noqa: F401
from .price_monitor import decompose_generation  # noqa: F401
from . import autodiff

__all__ = [
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


@functools.cache
def _unique_key_loader() -> type:
    """``yaml.SafeLoader`` that rejects a repeated mapping key; built on first use."""
    import yaml

    class _UniqueKeyLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            seen = []  # a list: an unhashable key is left for the base class to reject
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue  # merged keys may be overridden
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark,
                    )
                seen.append(key)
            return super().construct_mapping(node, deep)

    return _UniqueKeyLoader


@dataclass(frozen=True)
class RunConfig:
    """Settings for one experiment batch, checked and resolved at construction.

    Building a ``RunConfig`` (from a file, in code, or by ``replace``)
    raises :class:`ConfigError` for a bad seed, repetitions or mode, a
    problem that does not exist at ``dimension``, a ``precision`` that gives
    no encoding grid on the problem's bounds, or a mutation rate other than
    a number or ``"1/l"``.  A ``mutation_rate_raw``
    (``validation_mutation_rate_raw``) is bound into ``ga``
    (``validation_ga``): ``"1/l"`` as one over the grid's string length, a
    number as itself; so ``ga`` and ``validation_ga`` are final.  An unset
    ``validation_ga`` or ``validation_switch`` is the acceptance protocol's
    (:func:`_validation_round`), as in a file without that section.  The
    runners rebuild the problem with
    :meth:`make_problem` at run time rather than keep the one built here:
    ``get_problem`` may be rebound, or a problem factory registered again,
    after the config is built (``perfbench/tracing.py`` wraps it to trace
    the objective's batches).
    """

    problem: str
    dimension: int
    precision: float | list = 0.01  # scalar or per-variable
    ga: GAConfig = field(default_factory=GAConfig)
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

    def __post_init__(self) -> None:
        # type() rather than isinstance(): a YAML true/false is a bool, an int subclass
        if type(self.repetitions) is not int or self.repetitions < 1:
            raise ConfigError(f"repetitions must be an integer >= 1, got {self.repetitions!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.mode not in ("hybrid", "ec", "sqp"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.validation_ga is None or self.validation_switch is None:
            validation_ga, rate, validation_switch = _validation_round({}, {})
            if self.validation_switch is None:
                object.__setattr__(self, "validation_switch", validation_switch)
            if self.validation_ga is None:
                object.__setattr__(self, "validation_ga", validation_ga)
                if self.validation_mutation_rate_raw is None:
                    object.__setattr__(self, "validation_mutation_rate_raw", rate)
        try:
            problem = self.make_problem()
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"bad problem {self.problem!r} at dimension {self.dimension!r}: {exc}"
            ) from exc
        try:  # the encoding grid every ec and hybrid run builds
            spec = EncodingSpec.for_bounds(
                problem.bounds.lower, problem.bounds.upper, self.precision
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad precision {self.precision!r}: {exc}") from exc
        for name, raw in (("ga", self.mutation_rate_raw),
                          ("validation_ga", self.validation_mutation_rate_raw)):
            if isinstance(raw, str):
                if raw.strip().lower().replace(" ", "") != "1/l":
                    raise ConfigError(
                        f"unrecognized mutation_rate {raw!r}; use 1/l or a number"
                    )
                raw = 1.0 / spec.total_length
            ga = getattr(self, name)
            if raw is not None:
                try:
                    object.__setattr__(self, name, replace(ga, mutation_rate=float(raw)))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad {name} mutation rate {raw!r}: {exc}") from exc

    def run_seed(self, index: int) -> int:
        return self.seed + index

    def make_problem(self) -> BenchmarkProblem:
        return get_problem(self.problem, self.dimension)


def _build_section(cls, data: dict, *, context: str = ""):
    names = {f.name for f in fields(cls)}
    for key, value in data.items():
        if key not in names:
            raise ConfigError(f"unknown key {key!r} in {context or cls.__name__}")
        # no field is a flag; a YAML true would pass as 1, alone or in a list
        if type(value) is bool or (type(value) is list and bool in map(type, value)):
            raise ConfigError(f"{key} in {context or cls.__name__} must not be or hold "
                              f"a boolean, got {value!r}")
    try:
        return cls(**data)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {context or cls.__name__}: {exc}") from exc


def _parse_ga(section: dict, context: str):
    """A ga section's ``GAConfig``, and its ``mutation_rate`` when that is not a
    number (such as ``"1/l"``), for :class:`RunConfig` to bind; else None."""
    if "rng_seed" in section:
        raise ConfigError(
            f"rng_seed is not accepted in the {context}: run i is seeded "
            "with seed + i from the top-level seed"
        )
    section = dict(section)
    raw = section.pop("mutation_rate", None)
    if isinstance(raw, (int, float)):  # a bool too, which _build_section rejects
        section["mutation_rate"] = raw
        raw = None
    return _build_section(GAConfig, section, context=context), raw


def _validation_round(ga: dict, switch: dict):
    """The validation round's ``GAConfig``, unbound rate and ``SwitchCriteria``:
    the acceptance protocol's at a ``1/l`` rate, with the keys of the
    ``validation_ga`` and ``validation_switch`` sections ``ga`` and ``switch``."""
    validation_ga, raw = _parse_ga({"mutation_rate": "1/l", **VALIDATION_GA, **ga},
                                   "validation_ga section")
    return validation_ga, raw, _build_section(SwitchCriteria, {**VALIDATION_SWITCH, **switch},
                                              context="validation_switch section")


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a YAML run-configuration file."""
    import yaml  # on first use, as the process pool below: each takes milliseconds
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_unique_key_loader())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")

    data = dict(data)

    def section(name: str) -> dict:
        value = data.pop(name, {})
        if not isinstance(value, dict):
            raise ConfigError(f"the {name} section must be a mapping, got {value!r}")
        return value

    ga, mutation_raw = _parse_ga(section("ga"), "ga section")
    sqp = _build_section(SQPConfig, section("sqp"), context="sqp section")
    switch = _build_section(SwitchCriteria, section("switch"), context="switch section")
    # parsed in every mode: `run --mode hybrid` may override the file's mode
    validation_ga, val_raw, validation_switch = _validation_round(
        section("validation_ga"), section("validation_switch"))
    for required in ("problem", "dimension"):
        if required not in data:
            raise ConfigError(f"missing required key {required!r}")
    return _build_section(
        RunConfig,
        {**data, "ga": ga, "sqp": sqp, "switch": switch,
         "validation_ga": validation_ga, "validation_switch": validation_switch,
         "mutation_rate_raw": mutation_raw,
         "validation_mutation_rate_raw": val_raw},
        context="run config",
    )


# ---------------------------------------------------------------------------
# single-run workers
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: tuple, rows: list[tuple]) -> None:
    """Write ``rows`` under ``header``: a float column with ``%.9g``, any other with ``str``.

    A column's kind is read from the first row; every row of a table has the same kinds.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if rows:
            line = ",".join("%.9g" if isinstance(v, float) else "%s" for v in rows[0]) + "\n"
            fh.writelines(line % row for row in rows)


def _run_ec(cfg: RunConfig, indices: list[int]) -> list[dict]:
    """Seeded evolution-only runs to the generation cap, with operator rows,
    stepped together as one stack."""
    problem = cfg.make_problem()
    spec = EncodingSpec.for_bounds(
        problem.bounds.lower, problem.bounds.upper, cfg.precision
    )
    rng = RunStreams(np.random.default_rng(cfg.run_seed(i)) for i in indices)
    engine = Engine(cfg.ga, spec.total_length, fitness_function(problem, spec), rng=rng)
    cap = cfg.ga.max_generations
    report = ga_phase(engine, engine.random_population(), cfg.switch,
                      lambda states, hist, g: SwitchReason.MAX_GEN if g >= cap else None)
    table = [
        (c.selection_term, c.crossover_term, c.mutation_term,
         sigma_width(c.crossover_sigma), sigma_width(c.mutation_sigma),
         stats.best, stats.mean, stats.worst)
        for c, stats, _ in report.generations[1:]
    ]
    per_run = np.array(table).transpose(2, 0, 1).tolist()  # (runs, generations, 8)
    final_best = (problem.sign * report.population.fitness.max(axis=-1)).tolist()
    return [
        {
            "index": index,
            "columns": PRICE_COLUMNS,
            "rows": [(g, *row) for g, row in enumerate(per_run[r], start=1)],
            "final_best": final_best[r],
            "evaluations": int(engine.run_evaluations[r]),
            "converged_at": report.converged_at[r],
        }
        for r, index in enumerate(indices)
    ]


def _run_hybrid(cfg: RunConfig, indices: list[int]) -> list[dict]:
    (index,) = indices  # a hybrid run ends on data-dependent conditions: one per task
    result = run_hybrid(
        cfg.make_problem(),
        cfg.ga,
        cfg.sqp,
        cfg.switch,
        cfg.run_seed(index),
        precision=cfg.precision,
        validation_criteria=cfg.validation_switch,
        validation_ga=cfg.validation_ga,
    )
    return [{
        "index": index,
        "columns": HYBRID_COLUMNS,
        "rows": result.trace,
        "final_best": result.f_star,
        "evaluations": result.evaluations["total"],
        "switch_reason": result.switch_reason.value,
        "warnings": result.warnings,
    }]


def _run_sqp(cfg: RunConfig, indices: list[int]) -> list[dict]:
    (index,) = indices  # an sqp run ends on data-dependent conditions: one per task
    problem = cfg.make_problem()
    box = problem.bounds
    x0 = np.random.default_rng(cfg.run_seed(index)).uniform(box.lower, box.upper)
    result = sqp_run(problem.minimand, x0, box, cfg.sqp)
    rows = [
        (it.iteration, -problem.sign * it.f, it.grad_norm,
         it.step_norm, it.alpha, it.lambda_used)
        for it in result.trace
    ]
    return [{
        "index": index,
        "columns": SQP_COLUMNS,
        "rows": rows,
        "final_best": -problem.sign * result.f,
        "evaluations": result.evaluations,
        "stop_reason": result.stop_reason,
    }]


_MODE_RUNNERS = {"ec": _run_ec, "hybrid": _run_hybrid, "sqp": _run_sqp}


def _execute(cfg: RunConfig, indices: list[int], out_dir: str | None) -> list[dict]:
    """Run ``indices`` as one task and write their traces.

    When the task raises, its runs are re-run one at a time, so that only a
    failing run fails and the others keep their output; a failed run's
    record holds the error and its formatted traceback.
    """
    try:
        outcomes = _MODE_RUNNERS[cfg.mode](cfg, indices)
        if out_dir is not None:
            for outcome in outcomes:
                _write_csv(
                    Path(out_dir) / f"trace_{outcome['index']}.csv",
                    outcome["columns"],
                    outcome["rows"],
                )
        return outcomes
    except Exception as exc:  # per-run isolation
        if len(indices) > 1:
            return [o for index in indices for o in _execute(cfg, [index], out_dir)]
        return [{
            "index": indices[0],
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _aggregate(runs: list[dict]) -> tuple[tuple, list[tuple]]:
    """Header and rows of ``aggregate.csv``: per generation, the across-run
    mean and sample standard error (R-1 divisor, NaN for a single run) of
    every numeric ``PRICE_COLUMNS`` column.

    Every ec run yields one row per generation up to the cap, so the runs
    stack into one ``(runs, generations, columns)`` array.
    """
    data = np.array([[row[1:] for row in run["rows"]] for run in runs], dtype=float)
    means = data.mean(axis=0)
    if len(runs) < 2:
        stderrs = np.full_like(means, np.nan)
    else:
        ss = np.sum((data - means[None, :, :]) ** 2, axis=0)
        stderrs = np.sqrt(ss / (len(runs) - 1)) / np.sqrt(len(runs))
    header = ["generation", "runs"]
    for c in PRICE_COLUMNS[1:]:
        header += [f"{c}_mean", f"{c}_se"]
    interleaved = np.stack((means, stderrs), axis=-1).reshape(means.shape[0], -1)
    rows = [(g, len(runs), *r) for g, r in enumerate(interleaved.tolist(), start=1)]
    return tuple(header), rows


def run_batch(cfg: RunConfig, out_dir: str | None, jobs: int = 1) -> dict:
    """Execute the configured repetitions; returns the good runs' records
    under ``runs`` and the failed runs' under ``failures``."""
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    indices = list(range(cfg.repetitions))
    if cfg.mode == "ec":  # J contiguous stacks, each stepped as one population
        stacks = max(1, min(jobs, len(indices)))
        cuts = [len(indices) * k // stacks for k in range(stacks + 1)]
        tasks = [indices[a:b] for a, b in zip(cuts, cuts[1:])]
    else:
        tasks = [[i] for i in indices]
    if jobs > 1 and len(tasks) > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            done = pool.map(_execute, [cfg] * len(tasks), tasks, [out_dir] * len(tasks))
            outcomes = [o for task in done for o in task]
    else:
        outcomes = [o for task in tasks for o in _execute(cfg, task, out_dir)]
    outcomes.sort(key=lambda o: o["index"])
    good = [o for o in outcomes if "error" not in o]
    failed = [o for o in outcomes if "error" in o]

    if good and out_dir is not None:
        if cfg.mode == "ec":
            _write_csv(Path(out_dir) / "aggregate.csv", *_aggregate(good))
        _write_summary(Path(out_dir) / "summary.txt", cfg, good, failed)
    return {"runs": good, "failures": failed}


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
    if cfg.mode == "ec":  # generations count from 1, so None is the only falsy value
        lines.append("converged_at per run: " + " ".join(
            f"{r['index']}:{r['converged_at'] or 'none'}" for r in good))
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
    """Compare AD gradients/Hessians against central finite differences.

    An unknown problem, a dimension the problem does not take, or fewer than
    one sample raises :class:`ConfigError`.
    """
    if samples < 1:
        raise ConfigError(f"samples must be positive, got {samples}")
    try:
        problem = get_problem(problem_name, dimension)
    except (KeyError, ValueError) as exc:
        raise ConfigError(exc.args[0]) from exc
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
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
