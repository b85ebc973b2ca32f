"""Benchmark objectives with published bounds and optima.

Each objective is written once, numpy-style over the last axis, with the
elementary functions of :mod:`ecsqp.autodiff`.  The same function is the AD
route on an :class:`~ecsqp.autodiff.ADVector` (one forward sweep gives the
value, gradient and Hessian) and the batch route on an ``(m, n)`` array of
points, whose values the AD route reproduces bitwise.
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
    "get_problem",
    "list_problems",
    "rastrigin",
    "register_problem",
    "schwefel_max",
    "schwefel_min",
]

TWO_PI = 2.0 * math.pi

# location of the single maximum of x*sin(sqrt(|x|)) on [-500, 500]
SCHWEFEL_ARGMAX_1D = 420.968746359982
_SCHWEFEL_PEAK = SCHWEFEL_ARGMAX_1D * math.sin(math.sqrt(SCHWEFEL_ARGMAX_1D))


def ackley(x):
    sq = (x * x).mean(axis=-1)
    cs = ad.cos(TWO_PI * x).mean(axis=-1)
    return 20.0 + math.e - 20.0 * ad.exp(-0.2 * ad.sqrt(sq)) - ad.exp(cs)


def rastrigin(x):
    return 10.0 * x.shape[-1] + (x * x - 10.0 * ad.cos(TWO_PI * x)).sum(axis=-1)


def schwefel_max(x):
    """Sum of x_i*sin(sqrt(|x_i|)), the maximization form."""
    return (x * ad.sin(ad.sqrt(ad.fabs(x)))).sum(axis=-1)


def schwefel_min(x):
    """418.9829*n minus the Schwefel sum, the minimization form."""
    return 418.9829 * x.shape[-1] - schwefel_max(x)


class Orientation(enum.Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


@dataclass(frozen=True)
class BenchmarkProblem:
    """One registered objective at a fixed dimension.

    ``fn`` is the AD route: it receives the variables as one
    :class:`~ecsqp.autodiff.ADVector`, which it may index or reduce with
    ``.sum``/``.mean(axis=-1)``.  ``batch`` maps an ``(m, n)`` array to
    ``m`` values.  The registered problems pass one function as both.
    """

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
        """The AD route in minimization orientation: ``fn``, negated when
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
        0.0, np.zeros(n), ackley, ackley,
    )


def _make_rastrigin(n: int) -> BenchmarkProblem:
    return BenchmarkProblem(
        "rastrigin", n, _uniform_box(-5.12, 5.12, n), Orientation.MINIMIZE,
        0.0, np.zeros(n), rastrigin, rastrigin,
    )


def _make_schwefel(n: int) -> BenchmarkProblem:
    # the nominal optimum 0 is off by ~1.3e-5 per coordinate because the
    # 418.9829 constant is truncated; store the exact value at the optimizer
    x_star = np.full(n, SCHWEFEL_ARGMAX_1D)
    return BenchmarkProblem(
        "schwefel", n, _uniform_box(-500.0, 500.0, n), Orientation.MINIMIZE,
        n * (418.9829 - _SCHWEFEL_PEAK), x_star, schwefel_min, schwefel_min,
    )


def _make_schwefel_max(n: int) -> BenchmarkProblem:
    if n != 2:
        raise ValueError("schwefel-max is defined for dimension 2")
    x_star = np.full(2, SCHWEFEL_ARGMAX_1D)
    return BenchmarkProblem(
        "schwefel-max", 2, _uniform_box(-500.0, 500.0, 2), Orientation.MAXIMIZE,
        2.0 * _SCHWEFEL_PEAK, x_star, schwefel_max, schwefel_max,
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
