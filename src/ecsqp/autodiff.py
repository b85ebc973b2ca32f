"""Vectorized forward-mode automatic differentiation with exact Hessians.

Every :class:`ADScalar` carries a triplet ``(value, gradient, Hessian)`` with
respect to a fixed set of ``n`` independent variables.  Arithmetic on these
objects propagates all three fields through the chain rule, so a single
forward sweep of an expression yields the exact function value, gradient and
Hessian at once.  Independent variables are seeded with the rows of the
``n x n`` identity matrix; constants carry zero derivative fields.

Hessians stay bitwise symmetric by construction: every update is either a
scalar multiple of a symmetric matrix or a paired outer product
``u v^T + v u^T``, both of which are index-symmetric in floating point.

Nonsmooth points (``sqrt`` or ``abs`` evaluated at exactly zero) are made
total by returning zero derivative fields and tagging the result with a
``nonsmooth`` flag that propagates through downstream arithmetic.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ADContext",
    "ADDomainError",
    "ADScalar",
    "cos",
    "evaluate",
    "exp",
    "fabs",
    "log",
    "sin",
    "sqrt",
]


class ADDomainError(ValueError):
    """An elementary operation was evaluated outside its domain."""

    def __init__(self, op: str, value: float):
        super().__init__(f"{op} undefined at value {value!r}")
        self.op = op
        self.value = value


class ADScalar:
    """Value, gradient and Hessian of one scalar intermediate quantity.

    Instances are treated as immutable; operations allocate fresh arrays and
    may share operand arrays that pass through unchanged.
    """

    __slots__ = ("value", "grad", "hess", "nonsmooth")

    def __init__(self, value, grad, hess, nonsmooth: bool = False):
        self.value = float(value)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)
        self.nonsmooth = nonsmooth
        n = self.grad.shape[0]
        if self.grad.ndim != 1 or self.hess.shape != (n, n):
            raise ValueError("gradient/Hessian shapes inconsistent")

    @property
    def n(self) -> int:
        return self.grad.shape[0]

    def __repr__(self) -> str:
        return f"ADScalar(value={self.value}, n={self.n})"

    # -- helpers ----------------------------------------------------------

    def _coerce(self, other) -> "ADScalar | None":
        if isinstance(other, ADScalar):
            if other.n != self.n:
                raise ValueError(
                    f"dimension mismatch: {self.n} vs {other.n} independent variables"
                )
            return other
        return None

    def _chain(self, value: float, d1: float, d2: float) -> "ADScalar":
        """Apply a scalar map with derivatives ``d1``, ``d2`` at this node."""
        hess = d1 * self.hess + d2 * np.outer(self.grad, self.grad)
        return ADScalar(value, d1 * self.grad, hess, self.nonsmooth)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            if not isinstance(other, Real):
                return NotImplemented
            return ADScalar(self.value + other, self.grad, self.hess, self.nonsmooth)
        return ADScalar(
            self.value + b.value,
            self.grad + b.grad,
            self.hess + b.hess,
            self.nonsmooth or b.nonsmooth,
        )

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            if not isinstance(other, Real):
                return NotImplemented
            return ADScalar(self.value - other, self.grad, self.hess, self.nonsmooth)
        return ADScalar(
            self.value - b.value,
            self.grad - b.grad,
            self.hess - b.hess,
            self.nonsmooth or b.nonsmooth,
        )

    def __rsub__(self, other):
        if not isinstance(other, Real):
            return NotImplemented
        return ADScalar(other - self.value, -self.grad, -self.hess, self.nonsmooth)

    def __neg__(self):
        return ADScalar(-self.value, -self.grad, -self.hess, self.nonsmooth)

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            if not isinstance(other, Real):
                return NotImplemented
            c = float(other)
            return ADScalar(self.value * c, self.grad * c, self.hess * c, self.nonsmooth)
        hess = (
            b.value * self.hess
            + self.value * b.hess
            + np.outer(self.grad, b.grad)
            + np.outer(b.grad, self.grad)
        )
        return ADScalar(
            self.value * b.value,
            b.value * self.grad + self.value * b.grad,
            hess,
            self.nonsmooth or b.nonsmooth,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is None:
            if not isinstance(other, Real):
                return NotImplemented
            if other == 0:
                raise ADDomainError("div", 0.0)
            return self * (1.0 / float(other))
        if b.value == 0.0:
            raise ADDomainError("div", 0.0)
        v = self.value / b.value
        bv = b.value
        grad = (self.grad - v * b.grad) / bv
        hess = (
            self.hess / bv
            - (np.outer(self.grad, b.grad) + np.outer(b.grad, self.grad)) / (bv * bv)
            + (2.0 * v / (bv * bv)) * np.outer(b.grad, b.grad)
            - (v / bv) * b.hess
        )
        return ADScalar(v, grad, hess, self.nonsmooth or b.nonsmooth)

    def __rtruediv__(self, other):
        if not isinstance(other, Real):
            return NotImplemented
        if self.value == 0.0:
            raise ADDomainError("div", 0.0)
        c, v = float(other), self.value
        return self._chain(c / v, -c / (v * v), 2.0 * c / (v * v * v))

    def __pow__(self, p):
        if isinstance(p, bool) or not isinstance(p, Real):
            return NotImplemented
        v = self.value
        if isinstance(p, int) or float(p).is_integer():
            k = int(p)
            if k == 0:
                n = self.n
                return ADScalar(1.0, np.zeros(n), np.zeros((n, n)), self.nonsmooth)
            if v == 0.0 and k < 0:
                raise ADDomainError("powi", 0.0)
            d2 = 0.0 if k == 1 else k * (k - 1) * v ** (k - 2)
            return self._chain(v**k, k * v ** (k - 1), d2)
        if v <= 0.0:
            raise ADDomainError("powf", v)
        p = float(p)
        return self._chain(v**p, p * v ** (p - 1.0), p * (p - 1.0) * v ** (p - 2.0))

    def __abs__(self):
        return fabs(self)


def _unary(name: str, fns: tuple) -> Callable:
    value_fn, d1_fn, d2_fn, domain = fns

    def op(x):
        if not isinstance(x, ADScalar):
            return value_fn(x)
        if domain is not None and not domain(x.value):
            raise ADDomainError(name, x.value)
        v = x.value
        return x._chain(value_fn(v), d1_fn(v), d2_fn(v))

    op.__name__ = name
    op.__doc__ = f"{name} of an ADScalar or plain number."
    return op


sin = _unary("sin", (math.sin, math.cos, lambda v: -math.sin(v), None))
cos = _unary("cos", (math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v), None))
exp = _unary("exp", (math.exp, math.exp, math.exp, None))
log = _unary(
    "log",
    (math.log, lambda v: 1.0 / v, lambda v: -1.0 / (v * v), lambda v: v > 0.0),
)


def sqrt(x):
    """Square root; at exactly zero the result carries zero derivatives and
    a nonsmooth flag."""
    if not isinstance(x, ADScalar):
        return math.sqrt(x)
    v = x.value
    if v < 0.0:
        raise ADDomainError("sqrt", v)
    if v == 0.0:
        n = x.n
        return ADScalar(0.0, np.zeros(n), np.zeros((n, n)), nonsmooth=True)
    s = math.sqrt(v)
    return x._chain(s, 0.5 / s, -0.25 / (v * s))


def fabs(x):
    """Absolute value; the kink at zero is smoothed to zero derivatives and
    flagged."""
    if not isinstance(x, ADScalar):
        return abs(x)
    v = x.value
    if v > 0.0:
        return x._chain(v, 1.0, 0.0)
    if v < 0.0:
        return x._chain(-v, -1.0, 0.0)
    n = x.n
    return ADScalar(0.0, np.zeros(n), np.zeros((n, n)), nonsmooth=True)


class ADContext:
    """Factory for the independent variables of one differentiation sweep."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need at least one variable, got n={n}")
        self.n = n

    def variable(self, index: int, value: float) -> ADScalar:
        """Independent variable ``index`` seeded with the matching identity row."""
        if not 0 <= index < self.n:
            raise IndexError(f"variable index {index} out of range [0, {self.n})")
        grad = np.zeros(self.n)
        grad[index] = 1.0
        return ADScalar(value, grad, np.zeros((self.n, self.n)))

    def constant(self, value: float) -> ADScalar:
        return ADScalar(value, np.zeros(self.n), np.zeros((self.n, self.n)))

    def variables(self, x0) -> list[ADScalar]:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (self.n,):
            raise ValueError(f"expected {self.n} values, got shape {x0.shape}")
        return [self.variable(i, v) for i, v in enumerate(x0)]


def evaluate(
    f: Callable[[Sequence[ADScalar]], ADScalar], x0
) -> tuple[float, np.ndarray, np.ndarray]:
    """Single forward sweep of ``f`` at ``x0``: returns (value, gradient, Hessian)."""
    x0 = np.asarray(x0, dtype=float)
    ctx = ADContext(x0.shape[0])
    out = f(ctx.variables(x0))
    if not isinstance(out, ADScalar):
        out = ctx.constant(float(out))
    return out.value, out.grad, out.hess
