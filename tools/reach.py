#!/usr/bin/env python3
"""List the functions of ``src/ecsqp`` that the system never enters.

    PYTHONPATH=src python3 tools/reach.py

With a profile hook (``sys.setprofile``) recording every Python call, the
tool runs each CLI command on small configurations in this process
(``run`` in ``ec``, ``hybrid`` and ``sqp`` mode, ``price-trace``,
``ad-check``, ``bench-list`` and a config with an unknown key), then the
first ``CASES`` cases of each benchmark workload of
``perfbench/workloads.py`` (loaded by path, read only) with the workload's
own ``run`` and ``check``.  It prints, one per line in source order, each
function or method of the package whose code never ran, as
``module.qualname``; lambdas and comprehensions are left out.  A function
that only tests call shows up here.

The package is imported after the hook is set, so functions that run at
import time count as entered; run the tool in a fresh interpreter.  It
exits 1 when a CLI command returns another exit code than expected.  Only
the standard library, the package and the workloads file are used.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import inspect
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
CASES = 2  # per workload

CONFIG = """
problem: schwefel-max
dimension: 2
precision: 0.01
repetitions: 2
ga: {population_size: 20, max_generations: 10}
switch: {max_generations: 10}
validation_ga: {population_size: 20}
validation_switch: {max_generations: 10}
"""

#: (argv, expected exit code) of each CLI command run; ``{config}`` and ``{bad}``
#: stand for the two config files, ``{out}`` for the output directory
COMMANDS = [
    (["run", "--config", "{config}", "--mode", "ec", "--out", "{out}/ec", "--jobs", "1"], 0),
    (["run", "--config", "{config}", "--mode", "hybrid", "--out", "{out}/hybrid",
      "--jobs", "1"], 0),
    (["run", "--config", "{config}", "--mode", "sqp", "--out", "{out}/sqp", "--jobs", "1"], 0),
    (["price-trace", "--config", "{config}", "--out", "{out}/trace", "--jobs", "1"], 0),
    (["ad-check", "--problem", "ackley", "--dimension", "3", "--samples", "2"], 0),
    (["bench-list"], 0),
    (["run", "--config", "{bad}", "--out", "{out}/bad", "--jobs", "1"], 2),
]


def package_functions(package_dir: Path) -> list[tuple[str, int, str]]:
    """``(file name, first line, qualname)`` of every named function and
    method defined in the package's source files, in source order."""
    found = []
    for path in sorted(package_dir.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                found.append((path.name, code.co_firstlineno, code.co_qualname))
    return sorted(found)


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


def exercise(scratch: Path) -> list[str]:
    """Run the CLI commands and the workload cases; return the commands
    whose exit code was not the expected one."""
    cli_io = importlib.import_module("ecsqp.cli_io")
    config, bad = scratch / "run.yaml", scratch / "bad.yaml"
    config.write_text(CONFIG, encoding="utf-8")
    bad.write_text(CONFIG + "no_such_key: 1\n", encoding="utf-8")
    wrong = []
    for argv, expected in COMMANDS:
        argv = [a.format(config=config, bad=bad, out=scratch) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli_io.main(argv)
        if code != expected:
            wrong.append(f"{' '.join(argv)}: exit {code}, expected {expected}")
    workloads = load_workloads()
    for name in workloads.NAMES:
        workload = workloads.make(name, scratch)
        for case in workload.cases(0, 0)[:CASES]:
            workload.check(case, workload.run(case, lambda problem: problem))
    return wrong


def main() -> int:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            wrong = exercise(Path(scratch))
    finally:
        sys.setprofile(None)
    package_dir = Path(importlib.import_module("ecsqp").__file__).resolve().parent
    ran = {(Path(c.co_filename).name, c.co_firstlineno, c.co_qualname) for c in entered
           if Path(c.co_filename).resolve().parent == package_dir}
    for line in wrong:
        print(f"unexpected exit: {line}", file=sys.stderr)
    for file_name, line, qualname in package_functions(package_dir):
        if (file_name, line, qualname) not in ran:
            print(f"{file_name.removesuffix('.py')}.{qualname}")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
