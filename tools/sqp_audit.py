#!/usr/bin/env python3
"""Per-start audit of the ``sqp-n100`` starts for the current checkout.

    PYTHONPATH=src python3 tools/sqp_audit.py --seed 4242 20261 777

For each ``--seed`` the starts are those of the ``sqp-n100`` benchmark
workload, taken from ``SqpN100.cases`` in ``perfbench/workloads.py``: the
starts of a ``--seconds`` pass (30 by default, 90 starts), alternating
Ackley and Rastrigin at n=100.  Every start runs through the workload's own
``run``, so with the default :class:`~ecsqp.local_search.SQPConfig`.

One line per start gives its label, the final ``f.hex()``, the objective
sweeps, the iterations, and the calls of ``ipm_qp_solve``,
``_positive_definite`` and ``np.linalg.qr`` it made (counted by wrappers
around those module attributes).  A ``total`` line per seed sums the counts,
and the last line is the SHA-256 of the full trace of every start of every
seed: the final ``f``, sweeps and stop reason, and per iterate its ``f``,
shift ``lambda_used``, step length and the sum of its ``x``, all as
``float.hex()``.  Two checkouts with the same hash took the same steps bit
for bit.  Only the package, numpy and ``perfbench/workloads.py`` are used.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import ecsqp.local_search as local_search

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
#: (owner, attribute) of each counted call; the calls go through these names
COUNTED = ((local_search, "ipm_qp_solve"), (local_search, "_positive_definite"),
           (np.linalg, "qr"))
NAMES = [attr for _, attr in COUNTED]


def sqp_n100():
    """The ``sqp-n100`` workload of ``perfbench/workloads.py``."""
    module = sys.modules.get("perfbench_workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses resolve annotations there
        spec.loader.exec_module(module)
    return module.SqpN100()


def counting(calls: Counter, name: str, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapped


def trace_lines(label: str, result) -> list[str]:
    lines = [f"{label} {result.f.hex()} {result.evaluations} {result.stop_reason}"]
    for it in result.trace:
        lines.append(f"{it.f.hex()} {float(it.lambda_used).hex()} {float(it.alpha).hex()} "
                     f"{float(it.x.sum()).hex()}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[4242])
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="run the starts of a pass of this length (default 30: 90 starts)")
    args = parser.parse_args(argv)

    workload = sqp_n100()
    calls: Counter = Counter()
    originals = [getattr(owner, attr) for owner, attr in COUNTED]
    for (owner, attr), fn in zip(COUNTED, originals):
        setattr(owner, attr, counting(calls, attr, fn))
    digest = hashlib.sha256()
    try:
        print("start f_hex sweeps iterations " + " ".join(f"{c}_calls" for c in NAMES))
        for seed in args.seed:
            totals: Counter = Counter()
            for case in workload.cases(seed, args.seconds):
                calls.clear()
                label, result = case.label, workload.run(case, lambda p: p)
                row = Counter(sweeps=result.evaluations, iterations=len(result.trace),
                              **{c: calls[c] for c in NAMES})
                totals.update(row)
                print(f"seed={seed}/{label} {result.f.hex()} {row['sweeps']} "
                      f"{row['iterations']} " + " ".join(str(row[c]) for c in NAMES))
                for line in trace_lines(f"seed={seed}/{label}", result):
                    digest.update(line.encode() + b"\n")
            print(f"seed={seed}/total - {totals['sweeps']} {totals['iterations']} "
                  + " ".join(str(totals[c]) for c in NAMES))
    finally:
        for (owner, attr), fn in zip(COUNTED, originals):
            setattr(owner, attr, fn)
    print(f"trace-sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
