"""Smoke test of ``tools/sqp_audit.py`` on the two ``sqp-n100`` starts of a
0-second pass.

The tool is loaded by path and its ``main`` run in this process.
"""

import numpy as np
import pytest

from conftest import ROOT, load_module
import ecsqp.local_search as local_search
from ecsqp.benchmarks import get_problem


@pytest.fixture(scope="module")
def sqp_audit():
    return load_module("sqp_audit", ROOT / "tools" / "sqp_audit.py")


def test_two_starts(sqp_audit, capsys):
    counted = (local_search.ipm_qp_solve, local_search._positive_definite, np.linalg.qr,
               local_search.regularize_hessian)
    assert sqp_audit.main(["--seed", "4242", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert (local_search.ipm_qp_solve, local_search._positive_definite, np.linalg.qr,
            local_search.regularize_hessian) == counted

    header, *starts, total, digest = lines
    assert header.split()[:4] == ["start", "f_hex", "sweeps", "iterations"]
    assert header.split()[-6:] == ["k0_lam0", "k0_shift", "k0_none",
                                   "k1_lam0", "k1_shift", "k1_none"]
    assert [line.split()[0].split("/")[1] for line in starts] == ["ackley", "rastrigin"]
    rows = [[int(v) for v in line.split()[2:]] for line in starts]
    assert total.split()[0] == "seed=4242/total"
    assert [int(v) for v in total.split()[2:]] == [sum(col) for col in zip(*rows)]
    assert digest.startswith("trace-sha256 ") and len(digest.split()[1]) == 64

    # each row is the sqp_run of the workload's start point
    for line, row in zip(starts, rows):
        label, f_hex = line.split()[:2]
        name, start_seed = label.split("/")[1], int(label.split("=")[-1])
        problem = get_problem(name, 100)
        x0 = np.random.default_rng(start_seed).uniform(problem.bounds.lower, problem.bounds.upper)
        result = local_search.sqp_run(problem.fn, x0, problem.bounds, local_search.SQPConfig())
        assert f_hex == result.f.hex()
        assert row[:2] == [result.evaluations, len(result.trace)]
    # Ackley's Hessian has k = 3 columns, so its ladder tests definiteness;
    # Rastrigin's is diagonal and decided in closed form
    assert rows[0][3] > 0 and rows[1][3] == 0 == rows[1][4]
    ackley, rastrigin = rows[0][-6:], rows[1][-6:]
    assert ackley[:3] == [0, 0, 0] and sum(ackley) >= rows[0][1]
    assert rastrigin[3:] == [0, 0, 0] and sum(rastrigin) >= rows[1][1]

    assert sqp_audit.main(["--seed", "4242", "--seconds", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == digest
