"""Hybrid binary-GA / exact-Hessian SQP optimizer.

A global evolutionary search with operator-level convergence detection hands
off to a Newton local solver driven by forward-mode automatic differentiation,
followed by a seeded evolutionary validation round.
"""

from .autodiff import ADDomainError, ADScalar, ADVector, evaluate
from .benchmarks import BenchmarkProblem, Orientation, get_problem, list_problems
from .encoding import EncodingSpec, compute_bit_length, decode, encode
from .evolution import Engine, FitnessStats, GAConfig, Population, SelectionMethod
from .hybrid import HybridResult, SwitchCriteria, SwitchReason, run_hybrid
from .local_search import BoundBox, SQPConfig, SQPResult, sqp_run
from .price_monitor import ConvergenceState, OperatorContribution, decompose_generation

__version__ = "0.1.0"

__all__ = [
    "ADDomainError",
    "ADScalar",
    "ADVector",
    "BenchmarkProblem",
    "BoundBox",
    "ConvergenceState",
    "EncodingSpec",
    "Engine",
    "FitnessStats",
    "GAConfig",
    "HybridResult",
    "OperatorContribution",
    "Orientation",
    "Population",
    "SQPConfig",
    "SQPResult",
    "SelectionMethod",
    "SwitchCriteria",
    "SwitchReason",
    "compute_bit_length",
    "decode",
    "decompose_generation",
    "encode",
    "evaluate",
    "get_problem",
    "list_problems",
    "run_hybrid",
    "sqp_run",
]
