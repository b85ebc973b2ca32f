"""The benchmark's workloads run on the package and pass their own checks.

``perfbench/workloads.py`` builds ``RunConfig``/``GAConfig`` objects, calls
``run_hybrid``, ``sqp_run`` and ``run_batch``, and reads the fields of their
results; a rename or deletion in ``src/`` would otherwise only surface as a
failed benchmark run.  The file is loaded by path, as the benchmark loads it,
and each workload runs its first, cheapest case.
"""

import pytest

from conftest import ROOT, load_module

workloads = load_module("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_first_case_runs_and_passes_its_checks(name, tmp_path):
    workload = workloads.make(name, tmp_path)
    case = workload.cases(0, 0)[0]
    outcome = workload.check(case, workload.run(case, lambda problem: problem))
    assert outcome.errors == []
    assert outcome.digest
