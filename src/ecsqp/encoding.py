"""Real <-> binary genotype mapping for bounded continuous variables.

Each decision variable is stored as an unsigned big-endian bit field whose
length is derived from the variable's range and precision requirement.  A
chromosome is a uint8 row of 0/1 values that concatenates the fields of all
variables; a population is an ``(N, L)`` matrix of such rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "EncodingSpec",
    "VariableSpec",
    "compute_bit_length",
    "decode",
    "decode_batch",
    "encode",
    "random_bits",
]

#: Widest field whose integer codes float64 holds exactly; decoding relies on it.
MAX_BIT_LENGTH = 53
#: Widest field whose integer codes float32 holds exactly.
FLOAT32_BIT_LENGTH = 24


def compute_bit_length(lower: float, upper: float, precision: float) -> int:
    """Smallest bit count ``l`` with ``(upper - lower) / precision <= 2**l``.

    At least one bit is always allocated, so degenerate ranges that would fit
    in zero bits still produce a usable field.  When the ratio is an exact
    power of two the smaller admissible ``l`` is returned.  ``math.log2`` can
    round a ratio just above ``2**l`` down to ``l``; that case gets ``l + 1``.
    """
    if not lower < upper:
        raise ValueError(f"need lower < upper, got [{lower}, {upper}]")
    if not precision > 0:
        raise ValueError(f"precision must be positive, got {precision}")
    ratio = (float(upper) - float(lower)) / float(precision)  # overflows to inf, unwarned
    if not math.isfinite(ratio):
        raise ValueError(f"range [{lower}, {upper}] over precision {precision} is not finite")
    l = max(1, math.ceil(math.log2(ratio)))
    return l + 1 if ratio > 2**l else l


@dataclass(frozen=True)
class VariableSpec:
    """Range, precision and bit budget of one encoded variable.

    ``bit_length`` is derived from the precision requirement via
    :func:`compute_bit_length`.
    """

    lower: float
    upper: float
    precision: float
    bit_length: int = field(init=False)

    def __post_init__(self) -> None:
        l = compute_bit_length(self.lower, self.upper, self.precision)
        if l > MAX_BIT_LENGTH:
            raise ValueError(
                f"bit_length {l} exceeds {MAX_BIT_LENGTH}, the widest field "
                "decoded exactly in float64"
            )
        object.__setattr__(self, "bit_length", l)


@dataclass(frozen=True)
class EncodingSpec:
    """Ordered variable layout of a chromosome."""

    variables: tuple[VariableSpec, ...]

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("EncodingSpec needs at least one variable")
        object.__setattr__(self, "variables", tuple(self.variables))

    @classmethod
    def for_bounds(cls, lower, upper, precision) -> "EncodingSpec":
        """Build a spec from bound vectors and a scalar or per-variable precision."""
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape:
            raise ValueError("lower/upper length mismatch")
        prec = np.broadcast_to(np.asarray(precision, dtype=float), lower.shape)
        return cls(
            tuple(
                VariableSpec(lo, up, p)
                for lo, up, p in zip(lower, upper, prec, strict=True)
            )
        )

    @cached_property
    def total_length(self) -> int:
        return sum(v.bit_length for v in self.variables)

    @property
    def dimension(self) -> int:
        return len(self.variables)

    @cached_property
    def _decoder(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(W, lower, span, denom)`` for decoding by one matmul.

        ``W`` is the ``(L, n)`` place-value matrix: column i holds the powers
        of two of variable i's field (big-endian, the first bit is the most
        significant) and zeros elsewhere.  Every code is an integer below
        2**53, so ``bits @ W`` is exact in float64.  When no field is wider
        than 24 bits, ``W`` is float32: every partial sum of the product is
        then an integer below 2**24, so the float32 product is exact too,
        and dividing it by the float64 ``denom`` gives the float64 result
        bit for bit.
        """
        exact_in_float32 = max(v.bit_length for v in self.variables) <= FLOAT32_BIT_LENGTH
        W = np.zeros((self.total_length, self.dimension),
                     dtype=np.float32 if exact_in_float32 else np.float64)
        start = 0
        for i, v in enumerate(self.variables):
            stop = start + v.bit_length
            W[start:stop, i] = 2.0 ** np.arange(v.bit_length - 1, -1, -1)
            start = stop
        lower = np.array([v.lower for v in self.variables])
        span = np.array([v.upper - v.lower for v in self.variables])
        denom = np.array([2.0**v.bit_length - 1 for v in self.variables])
        return W, lower, span, denom


def random_bits(length: int, count: int, rng) -> np.ndarray:
    """Uniform random ``(count, length)`` bit matrix; ``(R, count, length)``
    from the R generators of an :class:`ecsqp.evolution.RunStreams`."""
    return rng.integers(0, 2, size=(count, length), dtype=np.uint8)


def decode_batch(bits: np.ndarray, spec: EncodingSpec) -> np.ndarray:
    """Decode a ``(m, L)`` bit matrix into a ``(m, n)`` matrix of reals."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise ValueError("expected a 2-D bit matrix")
    if bits.shape[1] != spec.total_length:
        raise ValueError(
            f"chromosome length {bits.shape[1]} does not match encoding length "
            f"{spec.total_length}"
        )
    W, lower, span, denom = spec._decoder
    return lower + span * ((bits @ W) / denom)


def decode(bits: np.ndarray, spec: EncodingSpec) -> np.ndarray:
    """Decode one length-L bit row into its real-valued phenotype vector."""
    return decode_batch(bits[None, :], spec)[0]


def encode(x, spec: EncodingSpec) -> np.ndarray:
    """Nearest-grid-point inverse of :func:`decode`, as a uint8 bit row.

    Values marginally outside a variable's range (by at most its precision)
    are clamped; anything further out raises.  Midpoint ties round toward the
    smaller integer code.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dimension,):
        raise ValueError(f"expected vector of length {spec.dimension}, got {x.shape}")
    fields = []
    for xi, var in zip(x, spec.variables, strict=True):
        if xi < var.lower - var.precision or xi > var.upper + var.precision:
            raise ValueError(
                f"value {xi} outside [{var.lower}, {var.upper}] beyond clamp tolerance"
            )
        xi = min(max(xi, var.lower), var.upper)
        denom = 2**var.bit_length - 1
        t = (xi - var.lower) / (var.upper - var.lower) * denom
        code = int(math.ceil(t - 0.5))  # round half down
        code = min(max(code, 0), denom)
        digits = (code >> np.arange(var.bit_length - 1, -1, -1)) & 1
        fields.append(digits.astype(np.uint8))
    return np.concatenate(fields)
