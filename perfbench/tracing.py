"""Spans at the module boundaries of ``ecsqp``, recorded from outside.

:class:`Tracer` wraps public functions by rebinding the module attributes
that the package's call sites look up at call time (``ecsqp.hybrid.sqp_run``,
``ecsqp.evolution.roulette_select``, ...), plus ``Engine.step`` on the class
and a problem's ``fn``/``batch`` fields through :func:`dataclasses.replace`.
No source file of the package changes.  Every span keeps its name, start,
end, parent and the benchmark run it belongs to; a layer's self time is its
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections import defaultdict
from typing import Callable

import numpy as np

import ecsqp.cli_io
import ecsqp.encoding
import ecsqp.evolution
import ecsqp.hybrid
import ecsqp.local_search

# (module, attribute) -> span name.  The same function is bound under several
# modules because each importer holds its own reference.
_FUNCTION_SPANS = [
    (ecsqp.hybrid, "decode_batch", "encoding.decode_batch"),
    (ecsqp.cli_io, "decode_batch", "encoding.decode_batch"),
    (ecsqp.encoding, "decode_batch", "encoding.decode_batch"),
    (ecsqp.evolution, "binary_tournament_cycle", "evolution.select"),
    (ecsqp.evolution, "roulette_select", "evolution.select"),
    (ecsqp.evolution, "tournament_select", "evolution.select"),
    (ecsqp.evolution, "adaptive_elitism_replace", "evolution.replace"),
    (ecsqp.hybrid, "decompose_generation", "price_monitor.decompose"),
    (ecsqp.cli_io, "decompose_generation", "price_monitor.decompose"),
    (ecsqp.hybrid, "run_hybrid", "hybrid.run"),
    (ecsqp.hybrid, "sqp_run", "local_search.sqp_run"),
    (ecsqp.local_search, "sqp_run", "local_search.sqp_run"),
    (ecsqp.local_search, "evaluate", "autodiff.sweep"),
    (ecsqp.local_search, "ipm_qp_solve", "local_search.ipm"),
    (ecsqp.local_search, "wolfe_line_search", "local_search.wolfe"),
    (ecsqp.local_search, "regularize_hessian", "local_search.regularize"),
    (ecsqp.cli_io, "run_batch", "cli_io.run_batch"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "child_s", "info")

    def __init__(self, name: str, parent: "Span | None", run: int):
        self.name = name
        self.parent = parent
        self.run = run
        self.child_s = 0.0
        self.info = None
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder; :meth:`install` rebinds the boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._run = -1
        self._seen_rows: set = set()
        self.repeat_rows = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self._run)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def begin_run(self) -> None:
        """Start a benchmark run; rows repeat only within a run."""
        self._run += 1
        self._seen_rows = set()

    def _wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.info = exc
                raise
            finally:
                self.close(span)
            if after is not None:
                span.info = after(out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in _FUNCTION_SPANS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, _AFTER.get(name)))
        step = ecsqp.evolution.Engine.step
        self._saved.append((ecsqp.evolution.Engine, "step", step))

        def traced_step(engine, pop):
            span = self.open("evolution.step")
            before = engine.evaluations
            try:
                return step(engine, pop)
            finally:
                self.close(span)
                span.info = engine.evaluations - before

        ecsqp.evolution.Engine.step = traced_step
        # the package builds its own problem objects in ``ec`` batch mode
        get_problem = ecsqp.cli_io.get_problem
        self._saved.append((ecsqp.cli_io, "get_problem", get_problem))
        ecsqp.cli_io.get_problem = lambda name, n: self.traced_problem(get_problem(name, n))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _count_repeats(self, span: Span, X) -> None:
        """Count rows already evaluated in this run; the time this takes is
        charged to no layer (it is added to the parent's child time)."""
        start = time.perf_counter()
        rows = np.ascontiguousarray(X, dtype=float)
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
        seen = len(self._seen_rows)
        self._seen_rows.update(keys.ravel().tolist())
        span.info = rows.shape[0]
        self.repeat_rows += rows.shape[0] - (len(self._seen_rows) - seen)
        if span.parent is not None:
            span.parent.child_s += time.perf_counter() - start

    def traced_problem(self, problem):
        """Copy of ``problem`` whose ``fn`` and ``batch`` record spans."""
        batch, fn = problem.batch, problem.fn

        def traced_batch(X):
            span = self.open("benchmarks.batch")
            try:
                return batch(X)
            finally:
                self.close(span)
                self._count_repeats(span, X)

        def traced_fn(v):
            span = self.open("benchmarks.fn")
            try:
                out = fn(v)
            finally:
                self.close(span)
            span.info = bool(getattr(out, "nonsmooth", False))
            return out

        return dataclasses.replace(problem, fn=traced_fn, batch=traced_batch)


# what a span keeps of its call's return value
_AFTER = {
    "local_search.wolfe": lambda alpha: alpha,
    "local_search.regularize": lambda out: out[1],  # the diagonal shift used
    "local_search.sqp_run": lambda result: result,
    "hybrid.run": lambda result: result,
    "encoding.decode_batch": lambda out: out.shape[0],
}

# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: name -> unit, better; the order is the order of BENCHMARK.json's per_layer
PER_LAYER = {
    "encoding.decode_calls": ("count/run", "lower"),
    "encoding.decode_rows": ("count/run", "lower"),
    "encoding.decode_s": ("s/run", "lower"),
    "encoding.decode_us_per_row": ("us", "lower"),
    "benchmarks.batch_calls": ("count/run", "lower"),
    "benchmarks.batch_rows": ("count/run", "lower"),
    "benchmarks.batch_s": ("s/run", "lower"),
    "benchmarks.repeat_row_frac": ("ratio", "lower"),
    "evolution.generations": ("count/run", "lower"),
    "evolution.step_s": ("s/run", "lower"),
    "evolution.step_self_s": ("s/run", "lower"),
    "evolution.select_s": ("s/run", "lower"),
    "evolution.replace_s": ("s/run", "lower"),
    "evolution.evals_per_generation": ("count", "lower"),
    "price_monitor.decompose_calls": ("count/run", "lower"),
    "price_monitor.decompose_s": ("s/run", "lower"),
    "autodiff.sweeps": ("count/run", "lower"),
    "autodiff.sweep_s": ("s/run", "lower"),
    "autodiff.sweep_ms_p50": ("ms", "lower"),
    "autodiff.nonsmooth_frac": ("ratio", "lower"),
    "local_search.runs": ("count/run", "lower"),
    "local_search.iterations": ("count/run", "lower"),
    "local_search.self_s": ("s/run", "lower"),
    "local_search.ipm_calls": ("count/run", "lower"),
    "local_search.ipm_s": ("s/run", "lower"),
    "local_search.wolfe_s": ("s/run", "lower"),
    "local_search.regularize_s": ("s/run", "lower"),
    "local_search.ls_sweeps_per_iter": ("ratio", "lower"),
    "local_search.unit_step_frac": ("ratio", "higher"),
    "local_search.shifted_frac": ("ratio", "lower"),
    "local_search.ls_failures": ("count/run", "lower"),
    "hybrid.ec_s": ("s/run", "lower"),
    "hybrid.refine_s": ("s/run", "lower"),
    "hybrid.validation_s": ("s/run", "lower"),
    "hybrid.polish_s": ("s/run", "lower"),
    "hybrid.polish_runs": ("count/run", "lower"),
    "hybrid.sigma_switch_frac": ("ratio", "lower"),
    "cli_io.batch_s": ("s/run", "lower"),
    "cli_io.self_s": ("s/run", "lower"),
    "cli_io.bytes_written": ("B/run", "lower"),
    "tracing.spans": ("count/run", "lower"),
    "tracing.overhead_frac": ("ratio", "lower"),
}


TIME_UNITS = ("s/run", "us", "ms")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hybrid_phases(spans: list[Span]) -> dict[str, float]:
    """Split each ``run_hybrid`` span at its ``sqp_run`` calls, in call order.

    Exploration lasts from the start of the run to the first ``sqp_run``, the
    refinement is that call, and validation lasts until the second call (the
    final polish) or the end of the run.
    """
    phases = defaultdict(float)
    by_run = defaultdict(list)
    for s in spans:
        if s.name == "local_search.sqp_run" and s.parent is not None and s.parent.name == "hybrid.run":
            by_run[id(s.parent)].append(s)
    for s in spans:
        if s.name != "hybrid.run" or id(s) not in by_run:
            continue
        calls = sorted(by_run[id(s)], key=lambda c: c.start)
        phases["ec"] += calls[0].start - s.start
        phases["refine"] += calls[0].duration
        end = calls[1].start if len(calls) > 1 else s.end
        phases["validation"] += end - calls[0].end
        for polish in calls[1:]:
            phases["polish"] += polish.duration
            phases["polish_runs"] += 1
    return phases


def layer_metrics(tracer: Tracer, runs: int, bytes_written: int,
                  overhead: float, scale: float) -> dict[str, float]:
    """Per-layer metrics of a traced pass of ``runs`` benchmark runs; times
    are multiplied by ``scale``, the run's host-speed factor."""
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    infos = defaultdict(list)
    for s in tracer.spans:
        total[s.name] += s.duration
        self_s[s.name] += s.self_s
        calls[s.name] += 1
        if s.info is not None:
            infos[s.name].append(s.info)
    per_run = lambda v: v / runs
    decode_rows = sum(infos["encoding.decode_batch"])
    batch_rows = sum(infos["benchmarks.batch"])
    generations = calls["evolution.step"]
    step_evals = sum(infos["evolution.step"])
    sqp_results = [r for r in infos["local_search.sqp_run"]
                   if isinstance(r, ecsqp.local_search.SQPResult)]
    iterations = sum(len(r.trace) for r in sqp_results)
    alphas = [a for a in infos["local_search.wolfe"] if isinstance(a, float)]
    ls_failures = sum(isinstance(a, ecsqp.local_search.LineSearchError)
                      for a in infos["local_search.wolfe"])
    lams = [lam for lam in infos["local_search.regularize"] if isinstance(lam, float)]
    ls_sweeps = sum(
        1 for s in tracer.spans
        if s.name == "autodiff.sweep" and s.parent is not None
        and s.parent.name == "local_search.wolfe"
    )
    nonsmooth = infos["benchmarks.fn"]
    phases = _hybrid_phases(tracer.spans)
    hybrid_results = [r for r in infos["hybrid.run"]
                      if isinstance(r, ecsqp.hybrid.HybridResult)]
    sigma_switches = sum(r.switch_reason is ecsqp.hybrid.SwitchReason.SIGMA_CONVERGED
                         for r in hybrid_results)
    sweep_ms = [1e3 * s.duration for s in tracer.spans if s.name == "autodiff.sweep"]
    # evolution.step's children are selection, fitness (decode + objective)
    # and replacement, so its self time is crossover, mutation and lineage
    values = {
        "encoding.decode_calls": per_run(calls["encoding.decode_batch"]),
        "encoding.decode_rows": per_run(decode_rows),
        "encoding.decode_s": per_run(total["encoding.decode_batch"]),
        "encoding.decode_us_per_row": 1e6 * _ratio(total["encoding.decode_batch"], decode_rows),
        "benchmarks.batch_calls": per_run(calls["benchmarks.batch"]),
        "benchmarks.batch_rows": per_run(batch_rows),
        "benchmarks.batch_s": per_run(total["benchmarks.batch"]),
        "benchmarks.repeat_row_frac": _ratio(tracer.repeat_rows, batch_rows),
        "evolution.generations": per_run(generations),
        "evolution.step_s": per_run(total["evolution.step"]),
        "evolution.step_self_s": per_run(self_s["evolution.step"]),
        "evolution.select_s": per_run(total["evolution.select"]),
        "evolution.replace_s": per_run(total["evolution.replace"]),
        "evolution.evals_per_generation": _ratio(step_evals, generations),
        "price_monitor.decompose_calls": per_run(calls["price_monitor.decompose"]),
        "price_monitor.decompose_s": per_run(total["price_monitor.decompose"]),
        "autodiff.sweeps": per_run(calls["autodiff.sweep"]),
        "autodiff.sweep_s": per_run(total["autodiff.sweep"]),
        "autodiff.sweep_ms_p50": statistics.median(sweep_ms) if sweep_ms else 0.0,
        "autodiff.nonsmooth_frac": _ratio(sum(nonsmooth), len(nonsmooth)),
        "local_search.runs": per_run(calls["local_search.sqp_run"]),
        "local_search.iterations": per_run(iterations),
        "local_search.self_s": per_run(self_s["local_search.sqp_run"]),
        "local_search.ipm_calls": per_run(calls["local_search.ipm"]),
        "local_search.ipm_s": per_run(total["local_search.ipm"]),
        "local_search.wolfe_s": per_run(self_s["local_search.wolfe"]),
        "local_search.regularize_s": per_run(total["local_search.regularize"]),
        "local_search.ls_sweeps_per_iter": _ratio(ls_sweeps, calls["local_search.wolfe"]),
        "local_search.unit_step_frac": _ratio(sum(a == 1.0 for a in alphas), len(alphas)),
        "local_search.shifted_frac": _ratio(sum(lam > 0.0 for lam in lams), len(lams)),
        "local_search.ls_failures": per_run(ls_failures),
        "hybrid.ec_s": per_run(phases["ec"]),
        "hybrid.refine_s": per_run(phases["refine"]),
        "hybrid.validation_s": per_run(phases["validation"]),
        "hybrid.polish_s": per_run(phases["polish"]),
        "hybrid.polish_runs": per_run(phases["polish_runs"]),
        "hybrid.sigma_switch_frac": _ratio(sigma_switches, len(hybrid_results)),
        "cli_io.batch_s": per_run(total["cli_io.run_batch"]),
        "cli_io.self_s": per_run(self_s["cli_io.run_batch"]),
        "cli_io.bytes_written": per_run(bytes_written),
        "tracing.spans": per_run(len(tracer.spans)),
        "tracing.overhead_frac": overhead,
    }
    assert values.keys() == PER_LAYER.keys()
    return {name: v * scale if PER_LAYER[name][0] in TIME_UNITS else v
            for name, v in values.items()}


def span_counts(tracer: Tracer) -> dict[str, int]:
    counts = defaultdict(int)
    for s in tracer.spans:
        counts[s.name] += 1
    return dict(counts)
