"""Forward-mode automatic differentiation with exact Hessians.

Every node carries a triplet ``(value, gradient, Hessian)`` with respect to a
fixed set of ``n`` independent variables, and arithmetic on nodes propagates
all three through the chain rule: one forward sweep of an expression yields
the exact value, gradient and Hessian.  An :class:`ADScalar` is one scalar
with a dense gradient and a :class:`Hessian`, ``diag(d) + U C U^T``: the
chain rule only ever scales a Hessian, adds two, or adds the outer products
of gradients, so each of those appends columns to ``U``.  An
:class:`ADVector` is ``n`` elementwise intermediates, element ``i``
depending on variable ``i`` only, so it keeps only the two diagonals and an
elementwise map costs O(n) (Griewank & Walther, *Evaluating Derivatives*,
2nd ed., SIAM 2008, on second-order forward mode and Hessian sparsity).
:func:`evaluate` seeds the variables as one vector; indexing or
``sum``/``mean`` turn it into scalars.

Hessians are symmetric by construction: every update is a scalar multiple of
a symmetric matrix or a paired outer product ``u v^T + v u^T``, so ``C``
stays symmetric, and the dense matrix is symmetrized bitwise when it is
materialized.

Nonsmooth points (``sqrt`` or ``abs`` evaluated at exactly zero) are made
total by returning zero derivative fields (per element for a vector) and
tagging the result with a ``nonsmooth`` flag that propagates through
downstream arithmetic.  The elementary functions map plain numbers and numpy
arrays elementwise with numpy, so one numpy-style objective serves both a
sweep and a batch of points.

A chain-rule step raises :class:`ADDomainError` outside its map's domain or
where the map's value or a derivative is not finite (``exp`` overflows, a tiny
value's power underflows to zero as a divisor): the maps run in numpy floats.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from numbers import Real
from typing import Callable

import numpy as np

__all__ = [
    "ADDomainError",
    "ADScalar",
    "ADVector",
    "Hessian",
    "cos",
    "evaluate",
    "exp",
    "fabs",
    "log",
    "sin",
    "sqrt",
]


class ADDomainError(ValueError):
    """An elementary operation was evaluated outside its domain or float range."""

    def __init__(self, op: str, value: float):
        super().__init__(f"{op} undefined at value {value!r}")
        self.op = op
        self.value = value


@lru_cache(maxsize=8)
def _zeros(n: int) -> np.ndarray:
    """Read-only zero vector of length ``n``."""
    zeros = np.zeros(n)
    zeros.flags.writeable = False
    return zeros


def _require(op: str, ok, value) -> None:
    """Raise :class:`ADDomainError` at the first element of ``value`` where
    ``ok`` fails."""
    if ok is not True and not np.all(ok):
        raise ADDomainError(op, float(np.ravel(value)[~np.ravel(ok)][0]))


class Hessian:
    """Symmetric ``n x n`` matrix ``diag(d) + U C U^T``, ``U`` with ``k <= n``
    columns and ``C`` symmetric.

    A sum joins the low-rank parts side by side; once ``k`` would pass ``n``
    the form folds into its ``k = n`` version, :meth:`from_dense` of the
    matrix.  ``Hessian(d)`` is diagonal; ``U`` and ``C`` are given together.
    Instances are treated as immutable.  ``np.asarray`` gives the
    dense matrix; ``H @ s`` costs O(nk).  Arithmetic builds its results with
    :meth:`_new`, which skips the checks of the constructor.
    """

    __slots__ = ("d", "U", "C")

    def __init__(self, d, U=None, C=None):
        d = np.asarray(d, dtype=float)
        if d.ndim != 1:
            raise ValueError("need d of length n, U of n rows and a k x k C")
        n = d.shape[0]
        if (U is None) != (C is None):
            raise ValueError("give both U and C, or neither")
        if U is None:
            U, C = np.zeros((n, 0)), np.zeros((0, 0))
        else:
            U, C = np.asarray(U, dtype=float), np.asarray(C, dtype=float)
        if U.ndim != 2 or U.shape[0] != n or C.shape != (U.shape[1], U.shape[1]):
            raise ValueError("need d of length n, U of n rows and a k x k C")
        if U.shape[1] > n:
            d, U, C = _split(_dense(d, U, C))
        self.d, self.U, self.C = d, U, C

    @classmethod
    def _new(cls, d: np.ndarray, U: np.ndarray, C: np.ndarray) -> "Hessian":
        """Hessian of parts already typed and shaped, with ``k <= n``."""
        H = cls.__new__(cls)
        H.d, H.U, H.C = d, U, C
        return H

    @classmethod
    def from_dense(cls, H) -> "Hessian":
        """The ``k = n`` form of a square matrix: ``d = diag(H)``, ``U = I``
        and ``C`` the off-diagonal part."""
        return cls(*_split(np.asarray(H, dtype=float)))

    @property
    def n(self) -> int:
        return self.d.shape[0]

    @property
    def k(self) -> int:
        return self.U.shape[1]

    def __repr__(self) -> str:
        return f"Hessian(n={self.n}, k={self.k})"

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return _dense(self.d, self.U, self.C).astype(dtype or float, copy=False)

    def __matmul__(self, s):
        out = self.d * s
        if self.k:
            out = out + self.U @ (self.C @ (self.U.T @ s))
        return out

    def plus_low_rank(self, V: np.ndarray, B: np.ndarray) -> "Hessian":
        """This matrix plus ``V B V^T`` (``V`` of n float rows, ``B``
        symmetric): the columns of ``V`` join ``U``."""
        if not V.shape[1]:
            return self
        U, C = V, B
        if self.k:
            k, m = self.k, V.shape[1]
            C = np.zeros((k + m, k + m))
            C[:k, :k] = self.C
            C[k:, k:] = B
            U = np.concatenate([self.U, V], axis=1)
        # the checked constructor folds a k > n form
        return Hessian(self.d, U, C) if U.shape[1] > self.n else Hessian._new(self.d, U, C)

    def __add__(self, other):
        if not isinstance(other, Hessian):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"cannot add {self!r} and {other!r}")
        return Hessian._new(self.d + other.d, self.U, self.C).plus_low_rank(other.U, other.C)

    def __neg__(self):
        return Hessian._new(-self.d, self.U, -self.C)

    def __mul__(self, c):
        if type(c) is not float:
            try:
                c = float(c)
            except TypeError:
                return NotImplemented
        return Hessian._new(self.d * c, self.U, self.C * c)

    __rmul__ = __mul__

    def __truediv__(self, c):
        try:
            c = float(c)
        except TypeError:
            return NotImplemented
        return Hessian._new(self.d / c, self.U, self.C / c)


def _dense(d: np.ndarray, U: np.ndarray, C: np.ndarray) -> np.ndarray:
    M = (U @ C) @ U.T
    M = 0.5 * (M + M.T)
    M.flat[:: d.shape[0] + 1] += d
    return M


def _split(H: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = H.shape[0]
    if H.shape != (n, n):
        raise ValueError(f"need a square matrix, got shape {H.shape}")
    d = np.diag(H).copy()
    C = H.copy()
    C.flat[:: n + 1] = 0.0
    return d, np.eye(n), C


_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
_PLAIN = (float, int)  # number types exactly, taken before the ``Real`` ABC test


class ADScalar:
    """Value, gradient and Hessian of one scalar intermediate quantity.

    Instances are treated as immutable; operations allocate fresh arrays and
    may share operand arrays that pass through unchanged.  Arithmetic builds
    its results with :meth:`_new`, unchecked.
    """

    __slots__ = ("value", "grad", "hess", "nonsmooth")
    __array_ufunc__ = None  # numpy operands on the left defer to the node

    def __init__(self, value, grad, hess: Hessian, nonsmooth: bool = False):
        self.value = float(value)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = hess
        self.nonsmooth = nonsmooth
        if self.grad.ndim != 1 or not isinstance(hess, Hessian) or hess.n != self.n:
            raise ValueError("gradient/Hessian shapes inconsistent")

    @classmethod
    def _new(cls, value, grad, hess, nonsmooth: bool) -> "ADScalar":
        """Node of fields already typed and shaped: a float value (an array
        for an ADVector), a float gradient and a matching Hessian."""
        node = cls.__new__(cls)
        node.value, node.grad, node.hess, node.nonsmooth = value, grad, hess, nonsmooth
        return node

    @property
    def n(self) -> int:
        return self.grad.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(value={self.value}, n={self.n})"

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _plus_sym_outer(hess: Hessian, u: np.ndarray, v: np.ndarray) -> Hessian:
        """``hess + u v^T + v u^T``."""
        return hess.plus_low_rank(np.column_stack([u, v]), _SWAP)

    def _coerce(self, other) -> "ADScalar | None":
        if isinstance(other, ADScalar):
            if type(other) is not type(self) or other.n != self.n:
                raise ValueError(f"cannot mix {self!r} and {other!r}")
            return other
        return None

    def _chain(self, op: str, value, d1, d2) -> "ADScalar":
        """Apply the map ``op`` of value ``value`` and derivatives ``d1``, ``d2``
        at this node, all finite or :class:`ADDomainError` is raised: the
        Hessian ``d1 H + d2 g g^T`` appends the gradient ``g`` to ``U``."""
        if not (math.isfinite(value) and math.isfinite(d1) and math.isfinite(d2)):
            raise ADDomainError(op, self.value)
        H, c, k = self.hess, float(d1), self.hess.k
        C = np.zeros((k + 1, k + 1))
        np.multiply(H.C, c, out=C[:k, :k])
        C[k, k] = d2
        U = np.concatenate([H.U, self.grad[:, None]], axis=1) if k else self.grad[:, None]
        # the checked constructor folds a k > n form
        hess = (Hessian if k == self.n else Hessian._new)(H.d * c, U, C)
        return ADScalar._new(float(value), d1 * self.grad, hess, self.nonsmooth)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if type(other) in _PLAIN or isinstance(other, Real):
            return type(self)._new(self.value + float(other), self.grad, self.hess,
                                   self.nonsmooth)
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return type(self)._new(self.value + b.value, self.grad + b.grad,
                               self.hess + b.hess, self.nonsmooth or b.nonsmooth)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return type(self)._new(-self.value, -self.grad, -self.hess, self.nonsmooth)

    def __mul__(self, other):
        if type(other) in _PLAIN or isinstance(other, Real):
            c = float(other)
            return type(self)._new(self.value * c, self.grad * c, self.hess * c, self.nonsmooth)
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        hess = self._plus_sym_outer(
            b.value * self.hess + self.value * b.hess, self.grad, b.grad
        )
        grad = b.value * self.grad + self.value * b.grad
        return type(self)._new(self.value * b.value, grad, hess, self.nonsmooth or b.nonsmooth)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) in _PLAIN or isinstance(other, Real):
            if other == 0:
                raise ADDomainError("div", 0.0)
            c = float(other)
            return type(self)._new(self.value / c, self.grad / c, self.hess / c, self.nonsmooth)
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        _require("div", b.value != 0.0, b.value)
        # from a = v b: Hv = (Ha - v Hb - gv gb^T - gb gv^T) / b
        v = self.value / b.value
        # derivatives 1/b, v/b, 1/b^2, v/b^2 (up to sign, factor 2): finite if the last two are
        r2 = 1.0 / np.square(b.value)
        _require("div", np.isfinite(v) & np.isfinite(r2) & np.isfinite(v * r2), b.value)
        grad = (self.grad - v * b.grad) / b.value
        hess = self._plus_sym_outer(self.hess + (-v) * b.hess, -grad, b.grad) / b.value
        return type(self)._new(v, grad, hess, self.nonsmooth or b.nonsmooth)

    def __rtruediv__(self, other):
        if not isinstance(other, Real):
            return NotImplemented
        _require("div", self.value != 0.0, self.value)
        c, v = float(other), np.float64(self.value)  # the array itself for an ADVector
        return self._chain("div", c / v, -c / (v * v), 2.0 * c / (v * v * v))

    def __pow__(self, p):
        if isinstance(p, bool) or not isinstance(p, Real):
            return NotImplemented
        v, p = np.float64(self.value), float(p)  # v the array itself for an ADVector
        if p == 0.0:
            return self * 0.0 + 1.0
        if p.is_integer():  # undefined only at 0 to a negative power
            op, ok = "powi", p > 0.0 or v != 0.0
        else:
            op, ok = "powf", v > 0.0
        _require(op, ok, v)
        d2 = np.zeros_like(v) if p == 1.0 else p * (p - 1.0) * v ** (p - 2.0)
        return self._chain(op, v**p, p * v ** (p - 1.0), d2)


class ADVector(ADScalar):
    """Value, gradient diagonal and Hessian diagonal of ``n`` elementwise
    intermediates: element ``i`` depends on variable ``i`` only.

    The arithmetic is :class:`ADScalar`'s, with the Hessian a plain array of
    its diagonal and the outer product of two such gradients reduced to its
    diagonal ``u * v``.  Indexing and ``sum``/``mean`` leave the diagonal
    form and return an ADScalar with a ``k = 0`` :class:`Hessian`.
    """

    __slots__ = ()

    @staticmethod
    def _plus_sym_outer(hess: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return hess + u * v + v * u

    def __init__(self, value, grad, hess, nonsmooth: bool = False):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)
        self.nonsmooth = nonsmooth
        if self.value.ndim != 1 or not self.value.shape == self.grad.shape == self.hess.shape:
            raise ValueError("value/gradient/Hessian diagonals must be 1-D of one length")

    def _chain(self, op: str, value, d1, d2) -> "ADVector":
        # value, d1 and d2 are arrays; a dot with zeros is 0 when every entry
        # is finite and NaN otherwise, and no sum of finite terms can overflow
        z = _zeros(self.n)
        if not math.isfinite(value.dot(z) + d1.dot(z) + d2.dot(z)):
            _require(op, np.isfinite(value) & np.isfinite(d1) & np.isfinite(d2), self.value)
        return ADVector._new(value, d1 * self.grad, self.hess * d1 + d2 * (self.grad * self.grad),
                             self.nonsmooth)

    @property
    def shape(self) -> tuple[int]:
        return self.value.shape

    def __getitem__(self, index) -> ADScalar:
        """Element ``index`` as an ADScalar; for the seeded variables, the
        variable with its identity-row gradient and zero Hessian."""
        n, i = self.n, operator.index(index)  # numpy raises the IndexError
        grad = np.zeros(n)
        grad[i] = self.grad[i]
        d = np.zeros(n)
        d[i] = self.hess[i]
        return ADScalar(self.value[i], grad, Hessian(d), self.nonsmooth)

    def sum(self, axis: int = -1) -> ADScalar:
        if axis not in (0, -1):
            raise ValueError(f"an ADVector has one axis; got axis={axis!r}")
        hess = Hessian._new(self.hess, np.zeros((self.n, 0)), np.zeros((0, 0)))
        return ADScalar._new(float(self.value.sum()), self.grad, hess, self.nonsmooth)

    def mean(self, axis: int = -1) -> ADScalar:
        return self.sum(axis) / self.n


def _unary(name: str, value_fn: Callable, chain_fn: Callable, domain=None) -> Callable:
    """Elementary function: ``value_fn`` of a plain number or array, and
    for an AD node at value ``v`` the chain rule with ``chain_fn(v) =
    (value, d1, d2)``, which evaluates a map that the three share once."""

    def op(x):
        if not isinstance(x, ADScalar):
            return value_fn(x)
        v = x.value
        if domain is not None:
            _require(name, domain(v), v)
        return x._chain(name, *chain_fn(np.float64(v)))

    op.__name__ = name
    op.__doc__ = f"{name} of an AD node, elementwise over a plain number or array."
    return op


def _sin_chain(v):
    s, c = np.sin(v), np.cos(v)
    return s, c, -s


def _cos_chain(v):
    c, s = np.cos(v), np.sin(v)
    return c, -s, -c


def _exp_chain(v):
    e = np.exp(v)
    return e, e, e


sin = _unary("sin", np.sin, _sin_chain)
cos = _unary("cos", np.cos, _cos_chain)
exp = _unary("exp", np.exp, _exp_chain)
log = _unary("log", np.log, lambda v: (np.log(v), 1.0 / v, -1.0 / (v * v)), lambda v: v > 0.0)


def _kinked(x: ADScalar, op: str, value, d1, d2, kink) -> ADScalar:
    """``x._chain(op, value, d1, d2)`` with zero derivative fields where ``kink``
    holds (all of an ADScalar, per element of an ADVector), flagged
    ``nonsmooth``."""
    out = x._chain(op, value, d1, d2)
    if np.any(kink):
        out.grad = np.where(kink, 0.0, out.grad)
        if isinstance(out, ADVector):
            out.hess = np.where(kink, 0.0, out.hess)
        else:
            out.hess = Hessian(np.zeros(out.n))
        out.nonsmooth = True
    return out


def sqrt(x):
    """Square root; at exactly zero the result carries zero derivatives and
    a nonsmooth flag."""
    if not isinstance(x, ADScalar):
        return np.sqrt(x)
    v = x.value
    _require("sqrt", v >= 0.0, v)
    s = np.sqrt(v)
    if not isinstance(x, ADVector) and v > 0.0:  # a scalar off the kink
        return x._chain("sqrt", s, 0.5 / s, -0.25 / (v * s))
    kink = v == 0.0
    d1 = 0.5 / np.where(kink, 1.0, s)
    d2 = -0.25 / np.where(kink, 1.0, v * s)
    return _kinked(x, "sqrt", s, d1, d2, kink)


def fabs(x):
    """Absolute value; the kink at zero is smoothed to zero derivatives and
    flagged."""
    if not isinstance(x, ADScalar):
        return np.abs(x)
    v = x.value
    return _kinked(x, "fabs", np.abs(v), np.sign(v), np.zeros_like(v), v == 0.0)


def evaluate(f: Callable[[ADVector], ADScalar], x0) -> tuple[float, np.ndarray, Hessian]:
    """Single forward sweep of ``f`` at ``x0``: returns (value, gradient, Hessian).

    ``f`` receives the independent variables as one :class:`ADVector`; it
    may index it or reduce it with ``sum``/``mean`` and returns an ADScalar
    or a plain number.  The Hessian is the structured :class:`Hessian`;
    ``np.asarray`` of it is the dense ``n x n`` matrix.  The sweep runs with
    numpy's float warnings off: a map that leaves its domain or float range
    raises :class:`ADDomainError` from its finiteness test instead.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = f(ADVector(x0, np.ones(n), np.zeros(n)))
    if isinstance(out, ADVector):
        raise TypeError("the objective returned an ADVector; reduce it to a scalar")
    if not isinstance(out, ADScalar):
        return float(out), np.zeros(n), Hessian(np.zeros(n))
    return out.value, out.grad, out.hess
