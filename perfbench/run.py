"""Benchmark of the explore -> refine -> validate pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hybrid-protocol --seed 1 --seconds 30 --trace 0

Workloads: ``hybrid-protocol``, ``sqp-n100`` and ``price-trace-n2`` (see
``workloads.py`` and ``BENCHMARK.json`` for why each was chosen).  One client
runs a closed loop in this process: each run starts when the previous one
ends.  The inputs of a run form a pass built from ``--seed`` and sized from
``--seconds``; passes repeat while another fits in ``--seconds``.

Times are scaled to a nominal host speed by a reference kernel timed between
runs (``Reference``); the unscaled figures are printed beside them.

``--trace 0`` prints the end-to-end metrics, measured untraced.  ``--trace 1``
runs one pass untraced and the same pass with spans recorded at the package's
module boundaries (``tracing.py``), prints the per-layer metrics, reports the
tracing overhead as the ratio of the two passes' run time, and fails when a
boundary the workload must cross recorded no span.

Human-readable lines (metadata, every metric with its unit, the results
digest) come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the checkout; without it the benchmark exits with
an error before measuring.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# Time of one reference-kernel iteration on the 2-core host the bounds were
# set on.  Each run's time is scaled by this over the kernel's time around
# that run, which takes out most of the host's CPU-speed swings (+-20%
# between runs there, from other tenants).
REFERENCE_NOMINAL_S = 0.0017
REFERENCE_DUTY = 0.05  # kernel time after a run, as a share of the run's time
REFERENCE_MIN_ITERATIONS = 3

#: boundaries each workload must cross; zero spans there fails a traced run
REQUIRED_SPANS = {
    "hybrid-protocol": (
        "hybrid.run", "evolution.step", "evolution.select", "evolution.replace",
        "encoding.decode_batch", "benchmarks.batch", "price_monitor.decompose",
        "local_search.sqp_run", "autodiff.sweep", "benchmarks.fn",
        "local_search.ipm", "local_search.wolfe", "local_search.regularize",
    ),
    "sqp-n100": (
        "local_search.sqp_run", "autodiff.sweep", "benchmarks.fn",
        "local_search.ipm", "local_search.wolfe", "local_search.regularize",
    ),
    "price-trace-n2": (
        "cli_io.run_batch", "evolution.step", "evolution.select", "evolution.replace",
        "encoding.decode_batch", "benchmarks.batch", "price_monitor.decompose",
    ),
}

#: the gated end-to-end metrics (BENCHMARK.json's end_to_end)
END_TO_END_UNITS = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "evals_per_s": "1/s",
    "evals_per_run": "count",
    "gap_closed": "ratio",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import ``ecsqp`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ecsqp

    if Path(ecsqp.__file__).resolve().parent != (src / "ecsqp").resolve():
        raise SystemExit(f"ecsqp imported from {ecsqp.__file__}, not from {src}")
    import workloads

    return workloads


class Reference:
    """A fixed kernel independent of the program (interpreter loop, small
    LAPACK solves and elementwise work on 100x100 arrays, as in the AD
    sweeps), run between runs to track the host's speed."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((60, 60))
        self._a = a @ a.T + 60.0 * np.eye(60)
        self._b = rng.standard_normal(60)
        self._m = rng.standard_normal((100, 100))
        self.samples: list[float] = []

    def _iteration(self) -> None:
        import numpy as np

        x = 0
        for k in range(3000):
            x += k * k
        for _ in range(15):
            np.linalg.solve(self._a, self._b)
            np.sort(self._b)
        for _ in range(15):
            m = 0.5 * self._m + np.outer(self._m[0], self._m[1])
            m = m + m

    def sample(self, after_s: float = 0.0) -> float:
        """Mean iteration time over a block of at least the minimum count
        and ``REFERENCE_DUTY`` of ``after_s``, the run just finished."""
        start = time.perf_counter()
        count = 0
        while (count < REFERENCE_MIN_ITERATIONS
               or time.perf_counter() - start < REFERENCE_DUTY * after_s):
            self._iteration()
            count += 1
        self.samples.append((time.perf_counter() - start) / count)
        return self.samples[-1]

    def scale(self) -> float:
        """Factor taking this run's times to the nominal host speed."""
        return REFERENCE_NOMINAL_S / mean(self.samples)


@dataclass
class Record:
    seconds: float
    outcome: object | None  # workloads.Outcome, None when the run raised
    errors: list[str]
    reference_s: float = REFERENCE_NOMINAL_S  # kernel time around this run

    @property
    def scaled_s(self) -> float:
        """Run time at the nominal host speed."""
        return self.seconds * REFERENCE_NOMINAL_S / self.reference_s


def run_pass(workload, cases, wrap, digests: dict, speed: Reference,
             tracer=None) -> list[Record]:
    """Run every case once, in order; a run that raises or breaks an
    invariant, or whose digest differs from an earlier pass, has errors.
    The reference kernel runs between runs; each run is scaled by the mean
    of the kernel blocks just before and just after it."""
    records = []
    samples = [speed.sample()]
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.begin_run()
        start = time.perf_counter()
        try:
            raw = workload.run(case, wrap)
        except Exception as exc:  # a failed run is counted, not fatal
            record = Record(time.perf_counter() - start, None,
                            [f"{type(exc).__name__}: {exc}"])
            traceback.print_exc(file=sys.stderr)
        else:
            elapsed = time.perf_counter() - start
            outcome = workload.check(case, raw)
            errors = list(outcome.errors)
            if digests.setdefault(i, outcome.digest) != outcome.digest:
                errors.append("result differs from the first pass")
            record = Record(elapsed, outcome, errors)
        for e in record.errors:
            print(f"# FAILED {case.label}: {e}", file=sys.stderr)
        samples.append(speed.sample(record.seconds))
        record.reference_s = (samples[-2] + samples[-1]) / 2
        records.append(record)
    return records


def tail_percentile(pass_size: int) -> int:
    """Highest whole percentile leaving TAIL_BEYOND samples of one pass above it."""
    return max(50, int(100 * (pass_size - TAIL_BEYOND) / pass_size))


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(records: list[Record], first: list[Record], pass_size: int,
               setup_s: float) -> tuple[dict, dict, list[str]]:
    """The gated metrics, the rest of the end-to-end list as
    ``name -> (value or None where it does not apply, unit)``, and notes."""
    raw = [r.seconds for r in records]
    times = [r.scaled_s for r in records]
    total_s = sum(times)
    outcomes = [r.outcome for r in first if r.outcome is not None]
    all_outcomes = [r.outcome for r in records if r.outcome is not None]
    gated = {
        "setup_s": setup_s,
        "runs_per_s": len(times) / total_s,
        "evals_per_s": sum(o.evals["total"] for o in all_outcomes) / total_s,
        "evals_per_run": mean(o.evals["total"] for o in outcomes),
        "gap_closed": mean(o.gap_closed for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    pct = tail_percentile(pass_size)
    tail = percentile(times, pct)

    def share(name):
        values = [getattr(o, name) for o in outcomes if getattr(o, name) is not None]
        return mean(values) if values else None

    def phase(name):
        return (mean(o.evals.get(name, 0) for o in outcomes)
                if any(name in o.evals for o in outcomes) else None)

    extra = {
        "run_s_p50": (statistics.median(times), "s"),
        "run_s_tail": (tail, "s"),
        "failed_frac": (sum(bool(r.errors) for r in records) / len(records), "ratio"),
        "evals_ec_per_run": (phase("ec"), "count"),
        "evals_sqp_per_run": (phase("sqp"), "count"),
        "evals_validation_per_run": (phase("validation"), "count"),
        "hit_frac": (share("hit_frac"), "ratio"),
        "gap_closed_5k": (share("gap_closed_5k"), "ratio"),
        "converged_frac": (share("converged"), "ratio"),
    }
    notes = [
        f"run_s_tail is p{pct}: {sum(t > tail for t in times)} of {len(times)} runs above it",
        f"time scale {total_s / sum(raw):.4f} (reference kernel); unscaled: run_s_p50 "
        f"{statistics.median(raw)!r} s, run_s_tail {percentile(raw, pct)!r} s, "
        f"runs_per_s {len(raw) / sum(raw)!r} 1/s",
    ]
    return gated, extra, notes


def blas_info() -> tuple[str, str]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    threads = "unknown"
    for lib in Path(np.__file__).parent.parent.joinpath("numpy.libs").glob("*openblas*"):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = str(fn())
                break
    return name, threads


def metadata(workload, cases, seed: int, seconds: float) -> dict:
    import numpy as np

    try:
        # a checkout that is not a repository must not report an enclosing one
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env).stdout.strip() or "n/a"
    except OSError:
        sha = "n/a"
    blas, threads = blas_info()
    return {
        "workload": workload.name,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "seed": seed,
        "seconds": seconds,
        "size": workload.size(cases),
        "inputs": [c.label for c in cases],
        "held_out_inputs": [c.label for c in workload.held_out(seed)],
    }


def measure_setup(args, speed: Reference) -> float:
    """Median wall time of fresh processes that import the program, build
    this run's inputs and run one warm-up case, at the nominal host speed."""
    samples = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples) * speed.scale()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    workloads = load_program()
    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2
    scratch = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-"))
    try:
        workload = workloads.make(args.workload, scratch)
        cases = workload.cases(args.seed, args.seconds)
        workload.warm_up()
        if args.setup_probe:
            print(f"{time.perf_counter() - start!r}")
            return 0
        return measure(args, workload, cases)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_untraced(args, workload, cases, digests: dict):
    speed = Reference()
    setup_s = measure_setup(args, speed)
    records, passes = [], 0
    loop_start = time.perf_counter()
    last = 0.0
    while passes == 0 or time.perf_counter() - loop_start + last <= args.seconds:
        pass_start = time.perf_counter()
        records += run_pass(workload, cases, lambda p: p, digests, speed)
        last = time.perf_counter() - pass_start
        passes += 1
    first = records[: len(cases)]
    metrics, extra, notes = end_to_end(records, first, len(cases), setup_s)
    lines = [f"{passes} pass(es) of {len(cases)} runs in "
             f"{time.perf_counter() - loop_start:.2f} s", *notes]
    # checked and digested, not timed
    held_out = run_pass(workload, workload.held_out(args.seed), lambda p: p, {}, speed)
    records += held_out
    first += held_out
    lines += [f"metric {name} {value!r} {END_TO_END_UNITS[name]}"
              for name, value in metrics.items()]
    lines += [f"metric {name} {'n/a' if value is None else repr(value)} {unit} (not gated)"
              for name, (value, unit) in extra.items()]
    return records, first, metrics, END_TO_END_UNITS, lines, []


def measure_traced(workload, cases, digests: dict):
    """One untraced pass, then the same pass traced."""
    import tracing

    plain_speed, traced_speed = Reference(), Reference()
    untraced = run_pass(workload, cases, lambda p: p, digests, plain_speed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, cases, tracer.traced_problem, digests,
                          traced_speed, tracer)
    finally:
        tracer.uninstall()
    overhead = sum(r.scaled_s for r in traced) / sum(r.scaled_s for r in untraced) - 1.0
    bytes_written = sum(r.outcome.bytes_written for r in traced if r.outcome is not None)
    metrics = tracing.layer_metrics(tracer, len(traced), bytes_written, overhead,
                                    traced_speed.scale())
    units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    counts = tracing.span_counts(tracer)
    missing = [n for n in REQUIRED_SPANS[workload.name] if counts.get(n, 0) == 0]
    for name in missing:
        print(f"# GUARD: boundary {name} recorded no span on {workload.name}",
              file=sys.stderr)
    lines = [f"spans {json.dumps(counts, sort_keys=True)}",
             f"tracing overhead {overhead:.4f} of the untraced pass time; "
             f"time scale {traced_speed.scale():.4f} (reference kernel)"]
    lines += [f"metric {name} {value!r} {units[name]}" for name, value in metrics.items()]
    return untraced + traced, untraced, metrics, units, lines, missing


def measure(args, workload, cases) -> int:
    meta = metadata(workload, cases, args.seed, args.seconds)
    print(f"# meta {json.dumps(meta)}")
    digests: dict = {}  # case index -> digest row of its first run
    if args.trace:
        records, first, metrics, units, lines, missing = measure_traced(
            workload, cases, digests)
    else:
        records, first, metrics, units, lines, missing = measure_untraced(
            args, workload, cases, digests)
    digest = [list(r.outcome.digest) for r in first if r.outcome is not None]
    lines += [f"digest {json.dumps(row)}" for row in digest]
    lines.append("digest-sha256 " + hashlib.sha256(json.dumps(digest).encode()).hexdigest())
    for line in lines:
        print(f"# {line}")
    failed = sum(bool(r.errors) for r in records)
    result = {
        "correct": failed == 0 and not missing,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
