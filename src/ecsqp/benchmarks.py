"""Benchmark objectives with published bounds and optima.

Each function has two callable forms: a generic scalar form that accepts a
sequence of plain numbers or :mod:`ecsqp.autodiff` scalars (one code path for
values and exact derivatives), and a vectorized batch form over ``(m, n)``
numpy arrays used by the population loops.

Both forms stay until the AD layer has a vector node.  A single numpy-style
definition can drive :class:`~ecsqp.autodiff.ADScalar` through object arrays,
and its values and derivatives are bitwise identical to the two forms here,
but its AD sweep is slower (one sweep on a 2-core x86 host, Python 3.11,
numpy 2.4): Ackley at n=100 takes 36.7 ms instead of 14.4 ms, Rastrigin at
n=100 31.3 ms instead of 16.1 ms, and Ackley at n=10 0.61 ms instead of
0.33 ms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .local_search import BoundBox

__all__ = [
    "BenchmarkProblem",
    "Orientation",
    "SCHWEFEL_ARGMAX_1D",
    "ackley",
    "ackley_batch",
    "get_problem",
    "list_problems",
    "rastrigin",
    "rastrigin_batch",
    "register_problem",
    "schwefel_max",
    "schwefel_max_batch",
    "schwefel_min",
    "schwefel_min_batch",
]

TWO_PI = 2.0 * math.pi

# location of the single maximum of x*sin(sqrt(|x|)) on [-500, 500]
SCHWEFEL_ARGMAX_1D = 420.968746359982
_SCHWEFEL_PEAK = SCHWEFEL_ARGMAX_1D * math.sin(math.sqrt(SCHWEFEL_ARGMAX_1D))


def ackley(x):
    n = len(x)
    sq = sum(xi * xi for xi in x) / n
    cs = sum(ad.cos(TWO_PI * xi) for xi in x) / n
    return 20.0 + math.e - 20.0 * ad.exp(-0.2 * ad.sqrt(sq)) - ad.exp(cs)


def ackley_batch(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    sq = np.mean(X * X, axis=1)
    cs = np.mean(np.cos(TWO_PI * X), axis=1)
    return 20.0 + math.e - 20.0 * np.exp(-0.2 * np.sqrt(sq)) - np.exp(cs)


def rastrigin(x):
    return 10.0 * len(x) + sum(xi * xi - 10.0 * ad.cos(TWO_PI * xi) for xi in x)


def rastrigin_batch(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return 10.0 * X.shape[1] + np.sum(X * X - 10.0 * np.cos(TWO_PI * X), axis=1)


def schwefel_max(x):
    """Sum of x_i*sin(sqrt(|x_i|)), the maximization form."""
    return sum(xi * ad.sin(ad.sqrt(ad.fabs(xi))) for xi in x)


def schwefel_max_batch(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return np.sum(X * np.sin(np.sqrt(np.abs(X))), axis=1)


def schwefel_min(x):
    """418.9829*n minus the Schwefel sum, the minimization form."""
    return 418.9829 * len(x) - schwefel_max(x)


def schwefel_min_batch(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return 418.9829 * X.shape[1] - schwefel_max_batch(X)


class Orientation(enum.Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


@dataclass(frozen=True)
class BenchmarkProblem:
    """One registered objective at a fixed dimension."""

    name: str
    dimension: int
    bounds: BoundBox
    orientation: Orientation
    known_optimum_value: float
    known_optimizer: np.ndarray | None
    fn: Callable
    batch: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if self.bounds.dimension != self.dimension:
            raise ValueError("bounds dimension mismatch")
        if self.known_optimizer is not None:
            opt = np.asarray(self.known_optimizer, dtype=float)
            object.__setattr__(self, "known_optimizer", opt)

    @property
    def sign(self) -> float:
        """+1.0 when maximizing, -1.0 when minimizing: ``sign * f`` is the
        value to maximize, and ``-sign * f`` the value to minimize."""
        return 1.0 if self.orientation is Orientation.MAXIMIZE else -1.0

    @property
    def minimand(self) -> Callable:
        """The scalar form in minimization orientation: ``fn``, negated when
        the problem is maximized."""
        fn = self.fn
        if self.orientation is Orientation.MINIMIZE:
            return fn
        return lambda x: -fn(x)

    def evaluate(self, x) -> float:
        """Plain function value at one point."""
        return float(self.batch(np.asarray(x, dtype=float)[None, :])[0])


def _uniform_box(lo: float, hi: float, n: int) -> BoundBox:
    return BoundBox(np.full(n, lo), np.full(n, hi))


def _make_ackley(n: int) -> BenchmarkProblem:
    return BenchmarkProblem(
        "ackley", n, _uniform_box(-15.0, 30.0, n), Orientation.MINIMIZE,
        0.0, np.zeros(n), ackley, ackley_batch,
    )


def _make_rastrigin(n: int) -> BenchmarkProblem:
    return BenchmarkProblem(
        "rastrigin", n, _uniform_box(-5.12, 5.12, n), Orientation.MINIMIZE,
        0.0, np.zeros(n), rastrigin, rastrigin_batch,
    )


def _make_schwefel(n: int) -> BenchmarkProblem:
    # the nominal optimum 0 is off by ~1.3e-5 per coordinate because the
    # 418.9829 constant is truncated; store the exact value at the optimizer
    x_star = np.full(n, SCHWEFEL_ARGMAX_1D)
    return BenchmarkProblem(
        "schwefel", n, _uniform_box(-500.0, 500.0, n), Orientation.MINIMIZE,
        n * (418.9829 - _SCHWEFEL_PEAK), x_star, schwefel_min, schwefel_min_batch,
    )


def _make_schwefel_max(n: int) -> BenchmarkProblem:
    if n != 2:
        raise ValueError("schwefel-max is defined for dimension 2")
    x_star = np.full(2, SCHWEFEL_ARGMAX_1D)
    return BenchmarkProblem(
        "schwefel-max", 2, _uniform_box(-500.0, 500.0, 2), Orientation.MAXIMIZE,
        2.0 * _SCHWEFEL_PEAK, x_star, schwefel_max, schwefel_max_batch,
    )


_REGISTRY: dict[str, Callable[[int], BenchmarkProblem]] = {
    "ackley": _make_ackley,
    "rastrigin": _make_rastrigin,
    "schwefel": _make_schwefel,
    "schwefel-max": _make_schwefel_max,
}


def register_problem(name: str, factory: Callable[[int], BenchmarkProblem]) -> None:
    """Add or replace a problem factory (dimension -> BenchmarkProblem)."""
    _REGISTRY[name] = factory


def list_problems() -> list[str]:
    return sorted(_REGISTRY)


def get_problem(name: str, dimension: int) -> BenchmarkProblem:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; registered: {', '.join(list_problems())}"
        ) from None
    if dimension < 1:
        raise ValueError(f"dimension must be positive, got {dimension}")
    return factory(dimension)
